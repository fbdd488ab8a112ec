"""Structure of the sources: decisions that must stay behind one call site."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hylomorph"


def _modules():
    for path in sorted(SRC.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(), filename=str(path))


def _callers(name: str) -> set[tuple[str, str]]:
    """(module, enclosing top-level function) of every call to ``name``."""
    out = set()
    for module, tree in _modules():
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if called == name:
                        out.add((module, getattr(top, "name", "<module>")))
    return out


def test_descend_has_one_caller():
    # every minimizer goes through minimize._solve, which builds the result
    assert _callers("descend") == {("minimize", "_solve")}


def test_lapack_tridiagonal_calls_live_in_grid():
    # the factor-once tridiagonal solve is grid.TridiagonalFactor; no module calls LAPACK beside it
    for name in ("dgttrf", "dgttrs"):
        mentions = {module for module, tree in _modules() for node in ast.walk(tree)
                    if (isinstance(node, ast.Name) and node.id == name)
                    or (isinstance(node, ast.Attribute) and node.attr == name)
                    or (isinstance(node, ast.alias) and node.name == name)}
        assert mentions == {"grid"}, name

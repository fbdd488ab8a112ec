"""Structure of the sources: decisions that must stay behind one call site."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "hylomorph"


def _modules():
    for path in sorted(SRC.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(), filename=str(path))


def _called(call: ast.Call) -> str | None:
    return call.func.id if isinstance(call.func, ast.Name) else getattr(call.func, "attr", None)


def _callers(name: str) -> set[tuple[str, str]]:
    """(module, enclosing top-level function) of every call to ``name``."""
    out = set()
    for module, tree in _modules():
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and _called(node) == name:
                    out.add((module, getattr(top, "name", "<module>")))
    return out


def _call_sites(name: str) -> list[str]:
    """Dotted path (module, classes, functions) of the definition enclosing each call to ``name``, once per call."""
    sites = []

    def visit(node, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, path + [child.name])
                continue
            if isinstance(child, ast.Call) and _called(child) == name:
                sites.append(".".join(path))
            visit(child, path)

    for module, tree in _modules():
        visit(tree, [module])
    return sorted(sites)


REDUCTIONS = ("sum", "dot", "vdot", "inner", "einsum", "matmul")


def test_every_sum_goes_through_weighted_sum():
    # grid.weighted_sum is the one reduction and sums in numpy's pairwise
    # order on every CPU: no @ (a BLAS dot whose kernel, and so its order,
    # depends on the CPU) and no other summing call remains
    for module, tree in _modules():
        for node in ast.walk(tree):
            assert not isinstance(getattr(node, "op", None), ast.MatMult), module
            if isinstance(node, ast.Call):
                assert _called(node) not in REDUCTIONS, (module, ast.unparse(node))
    assert _call_sites("reduce") == ["grid.weighted_sum"]
    # a running sum is sequential: the one cumulative sum stays
    assert _call_sites("cumsum") == ["evolve.mass_radius"]
    # the fourteen quadratures and inner products, one entry per call
    assert _call_sites("weighted_sum") == sorted(
        ["grid.RadialGrid.integrate", "grid.RadialGrid.dirichlet", "grid.weighted_norm",
         "vortex.AxisymGrid.integrate"] + ["vortex.AxisymGrid.dirichlet"] * 2
        + ["minimize.descend.pair"] + ["minimize._far"] * 2 + ["evolve.manifold_distance"] * 5)


def test_descend_has_one_caller():
    # every minimizer goes through minimize._solve, which builds the result
    assert _callers("descend") == {("minimize", "_solve")}


def test_deficiency_is_defined_once():
    # J needs the integral of R(u); only the deficiency takes it, beside the
    # pointwise R(s0) of the assumption report and R(s1) of the tent witness
    assert _callers("eval_remainder") == {("model", "validate_assumptions"),
                                          ("functionals", "deficiency"),
                                          ("chargewin", "verify_tent_witness")}


def test_screened_poisson_matrix_is_assembled_once():
    # the per-grid kernel's ``potential`` is the one assembly (the one factor
    # in gauge); the validating wrappers and the descent's energy call it
    tree = dict(_modules())["gauge"]
    factoring = set()
    for top in tree.body:
        for fn in ([top] if isinstance(top, ast.FunctionDef) else
                   [m for m in getattr(top, "body", []) if isinstance(m, ast.FunctionDef)]):
            for node in ast.walk(fn):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "TridiagonalFactor"):
                    factoring.add(fn.name if top is fn else f"{top.name}.{fn.name}")
    assert factoring == {"ScreenedPoisson.potential"}
    assert _callers("potential") == {("gauge", "solve_phi"), ("gauge", "screened_mass"),
                                     ("minimize", "_problem")}


def test_gauge_does_not_import_functionals():
    # the functionals build on phi_u and K(u), not the reverse
    tree = dict(_modules())["gauge"]
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "functionals" not in imported


def test_one_energy_and_one_operator_serve_every_solve():
    # the radial, gauge-coupled and vortex descents are all built by minimize._problem
    assert _callers("reduced_energy") == {("functionals", "reduced_energy_sigma"), ("minimize", "_problem")}
    assert _callers("stationary_operator") == {("minimize", "_problem"), ("minimize", "residual_stationary")}


def test_vortex_defines_no_functional_of_its_own():
    # the winding enters the shared functionals as the grid's centrifugal potential
    tree = dict(_modules())["minimize"]
    assert "vortex" not in {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    for name in ("eval_nonlinearity", "charge_energy"):
        assert "vortex" not in _mentions(name), name


def _mentions(name: str) -> set[str]:
    """Modules that use ``name`` as a variable, an attribute or an imported name."""
    return {module for module, tree in _modules() for node in ast.walk(tree)
            if (isinstance(node, ast.Name) and node.id == name)
            or (isinstance(node, ast.Attribute) and node.attr == name)
            or (isinstance(node, ast.alias) and node.name == name)}


def test_lapack_tridiagonal_calls_live_in_grid():
    # the factor-once tridiagonal solve is grid.TridiagonalFactor; no module calls LAPACK beside it
    for name in ("dgttrf", "dgttrs"):
        assert _mentions(name) == {"grid"}, name
    # every banded system is a grid.Tridiagonal of LAPACK's unpadded diagonals; no
    # module keeps scipy's padded solve_banded layout or a product of its own for it
    assert _mentions("laplacian_bands") == set()
    assert _mentions("banded_matvec") == set()
    assert [path.name for path in SRC.glob("*.py") if "solve_banded" in path.read_text()] == []


def test_hypothesis_checks_minimize_nothing_numerically():
    # the binding amplitude, sign, growth and tent slope are closed forms of the two
    # power terms; the one numeric step is a crossing of the level W/(s^2/2): the zero
    # of W and the ends of the oracle's amplitude range, which no sampling of W sets.
    # The bracketed root in model also closes the oracle's bracket and its event
    # radii, and no other root function exists
    assert _mentions("minimize_scalar") == set()
    assert _mentions("brentq") == set()
    assert _mentions("geomspace") == set()
    assert _mentions("_amplitude_scan_limit") == set()
    assert _callers("_bracketed_root") == {("model", "_level_crossing"), ("oracle", "shoot_ground_state"),
                                           ("oracle", "_hermite_zero")}
    assert _callers("_level_crossing") == {("model", "validate_assumptions"), ("model", "_find_second_vacuum"),
                                           ("oracle", "shoot_ground_state")}
    roots = {(module, node.name) for module, tree in _modules() for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef) and "root" in node.name}
    assert roots == {("model", "_bracketed_root")}


def _dotted(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base else None
    return None


UNLOADED = ("scipy.optimize", "scipy.integrate", "scipy.fft", "scipy.special")


def test_no_module_imports_scipy_optimize_or_integrate():
    # the shooting oracle integrates with its own DOP853, both roots share
    # model's bracketed root and the vortex preconditioner's DST-I runs on
    # numpy.fft; no import at any depth, nor a dotted use, loads any of UNLOADED
    mentions = set()
    for module, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [f"{node.module}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                names = [_dotted(node) or ""]
            if any(n == pkg or n.startswith(pkg + ".") for n in names for pkg in UNLOADED):
                mentions.add(module)
    assert mentions == set()


def test_package_import_leaves_scipy_integrate_unloaded():
    # no scipy module at all, UNLOADED included, is loaded by the package or the
    # CLI: the tridiagonal LAPACK comes from the library numpy has loaded, so no
    # start-up pays for scipy
    code = ("import sys, hylomorph, hylomorph.cli; "
            "print(sorted(name for name in sys.modules if name == 'scipy' or name.startswith('scipy.')))")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_no_module_imports_scipy():
    # scipy is a test reference only; the package's one LAPACK binding is grid's
    imports = set()
    for module, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            imports |= {(module, n) for n in names if n == "scipy" or n.startswith("scipy.")}
    assert imports == set()


_LEAPFROG_FAULTS_SCRIPT = """
import resource
from hylomorph import NonlinearSpec, RadialGrid, TentProfile
from hylomorph.evolve import stability_experiment

grid = RadialGrid(32.0, 4096)
profile, spec, dt = TentProfile(1.0, 3.0).realize(grid), NonlinearSpec.double_well(), grid.h / 2.0
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
stability_experiment(profile, 0.5, spec, 2000 * dt, dt, 0.01, record_every=1000)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts glibc's page faults")
def test_leapfrog_step_allocates_no_fresh_pages():
    # a (4, 4097) batch array is 131,104 bytes, just over glibc's 128 KiB mmap
    # threshold; a step that allocated such arrays would map or grow the heap
    # for them and fault in their pages again and again (tens of faults a step
    # once the first records have fragmented the heap).  A fresh process runs
    # the four-run ensemble for 2,000 steps with three records, then the
    # reversal's 2,000 single-row steps: set-up and records included, it must
    # average under one fault a batch step
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", _LEAPFROG_FAULTS_SCRIPT], env=env, capture_output=True,
                         text=True, check=True)
    assert int(out.stdout) < 2000


def test_grid_defines_each_operation_once():
    # the integral, Dirichlet form and Laplacian are grid members; no module-level
    # function repeats one, and weighted_norm (a norm no member computes) is the
    # one free function of a grid
    tree = dict(_modules())["grid"]
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    members = {m.name for node in tree.body if isinstance(node, ast.ClassDef)
               for m in node.body if isinstance(m, ast.FunctionDef)}
    assert not set(functions) & members
    assert {name for name, fn in functions.items() if fn.args.args and fn.args.args[0].arg == "grid"} == {
        "weighted_norm"}
    for name in ("integrate_radial", "gradient_sq_integral", "radial_laplacian", "hylomorphy_ratio",
                 "tent_quadratures", "TentQuadratures", "_ramp_moment", "screened_mass_two_forms"):
        assert _mentions(name) == set(), name
        assert not any(isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name
                       for _, tree in _modules() for node in ast.walk(tree)), name


def test_profiles_share_one_validation_and_resample():
    # grid.Profile validates and resamples both profile types; the vortex profile
    # adds only its winding check
    classes = {node.name: node for _, tree in _modules() for node in tree.body if isinstance(node, ast.ClassDef)}
    for name in ("RadialProfile", "AxisymProfile"):
        assert [_dotted(base) for base in classes[name].bases] == ["Profile"], name
    assert not [m for m in classes["RadialProfile"].body if isinstance(m, ast.FunctionDef)]
    own = [m for m in classes["AxisymProfile"].body if isinstance(m, ast.FunctionDef)]
    assert [m.name for m in own] == ["__post_init__"]
    assert {node.attr for node in ast.walk(own[0]) if isinstance(node, ast.Attribute)} == {
        "winding", "__post_init__"}


def test_no_solve_entry_restates_the_winding():
    # the start profile (grid and winding) and the coupling state a solve's
    # equation; the angular momentum is winding times charge, with no helper
    functions = {node.name: node for _, tree in _modules() for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)}
    for name in ("_solve", "minimize_nlkg", "minimize_vortex"):
        args = functions[name].args
        assert not {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs} & {"winding", "ell"}, name
    assert _mentions("vortex_observables") == set()


def test_centrifugal_potential_is_read_at_a_profile_winding():
    # V = grid.centrifugal(winding) with the winding of a profile, or of the
    # start that _solve hands _problem; no call sits behind a fork on the winding
    calls = set()
    for module, tree in _modules():
        for top in tree.body:
            fns = [top] if isinstance(top, ast.FunctionDef) else [
                m for m in getattr(top, "body", []) if isinstance(m, ast.FunctionDef)]
            for fn in fns:
                forked = {id(n) for fork in ast.walk(fn) if isinstance(fork, (ast.If, ast.IfExp))
                          for n in ast.walk(fork)}
                for node in ast.walk(fn):
                    if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "centrifugal":
                        assert id(node) not in forked, (module, fn.name)
                        calls.add((module, fn.name if fn is top else f"{top.name}.{fn.name}",
                                   ast.unparse(node.args[0])))
    assert calls == {("functionals", "deficiency", "u.winding"),
                     ("functionals", "reduced_energy_sigma", "u.winding"),
                     ("minimize", "residual_stationary", "profile.winding"),
                     ("minimize", "_problem", "winding"),
                     ("grid", "RadialGrid.preconditioner", "ell"),
                     ("vortex", "AxisymPreconditioner.__init__", "ell")}
    assert _callers("_problem") == {("minimize", "_solve")}
    solve = next(node for node in ast.walk(dict(_modules())["minimize"])
                 if isinstance(node, ast.FunctionDef) and node.name == "_solve")
    [call] = [node for node in ast.walk(solve) if isinstance(node, ast.Call)
              and isinstance(node.func, ast.Name) and node.func.id == "_problem"]
    assert ast.unparse(call.args[-1]) == "init.winding"


def _functions_using(module: str, name: str) -> set[str]:
    """Top-level functions of ``module`` whose bodies read the name ``name``."""
    tree = dict(_modules())[module]
    return {top.name for top in tree.body if isinstance(top, ast.FunctionDef)
            for node in ast.walk(top) if isinstance(node, ast.Name) and node.id == name}


def test_wall_shift_is_defined_once_and_only_descend_searches_it():
    # the collective move is RadialGrid.shift; the vortex grid offers none, and
    # descend's _wall_search is the one place that calls the move it is handed
    defined = {(module, top.name) for module, tree in _modules() for top in tree.body
               if isinstance(top, ast.ClassDef)
               for m in top.body if isinstance(m, ast.FunctionDef) and m.name == "shift"}
    assert defined == {("grid", "RadialGrid")}
    assert _callers("shift") == {("minimize", "_wall_search")}
    assert _callers("_wall_search") == {("minimize", "descend")}


def test_one_far_test_decides_nesting_and_the_wall_search():
    # _solve evaluates the test of the first preconditioned step once and
    # both nests and hands descend its move on it; descend searches whatever
    # move it is handed and never tests the start itself
    assert _callers("_far") == {("minimize", "_solve")}
    assert _functions_using("minimize", "FAR_START") == {"_far"}
    assert _mentions("FAR_START") == {"minimize"}

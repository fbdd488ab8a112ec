"""Command-line entry point: one config, one experiment, one artifact directory.

Configs are sectioned key=value files (configparser syntax).  Unknown
sections or keys are rejected.  Every run writes a manifest echoing the
fully resolved configuration, including defaults, so an artifact directory
is reproducible from its manifest alone.

Exit codes: 0 success, 2 config error, 3 precondition failure,
4 solver non-convergence, 5 internal assertion.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import chargewin, evolve, functionals, minimize, model, vortex
from .grid import RadialGrid, RadialProfile

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PRECONDITION = 3
EXIT_NOCONVERGE = 4
EXIT_INTERNAL = 5

CSV_BLOCK_ROWS = 4096  # rows formatted per write by write_profile_csv

COMMANDS = ("validate", "solve-nlkg", "solve-kgm", "solve-vortex", "window",
            "construct", "evolve", "stability")


class ConfigError(ValueError):
    pass


# every accepted key with its default; a key's type is its default's type
_SCHEMA: dict[str, dict[str, object]] = {
    "run": {"command": None},  # checked against the requested command, never stored
    "nonlinearity": {"family": "double_well", "mass": 1.0, "params": "1.0"},
    "grid": {"r_max": 24.0, "n": 2048, "z_max": 12.0, "n_z": 256},
    "solver": {"tol": 1e-6, "max_iters": 50_000},
    "validate": {"s_max": 3.0},
    "window": {"q": 0.0, "s1_values": "0.8,0.9,1.0,1.1,1.2", "r_values": "2,3,4,5,6,7,8,10"},
    "solve": {"sigma": 300.0, "q": 1.0, "ell": 1, "init_s1": 1.0, "init_r": 5.0,
              "torus_r0": 4.0, "torus_width": 1.5, "torus_amplitude": 1.0},
    "construct": {"charge_target": 10.0},
    "evolve": {"sigma": 300.0, "t_final": 50.0,
               "dt": 0.0,           # 0 means h/2
               "record_every": 0,   # 0 means automatic
               "free": False},
    "stability": {"sigma": 300.0, "t_final": 50.0, "dt": 0.0, "delta": 0.01, "record_every": 0},
}


@dataclass
class RunConfig:
    command: str
    out_dir: Path
    values: dict[tuple[str, str], object] = field(default_factory=dict)

    def get(self, section: str, key: str):
        return self.values[(section, key)]


def _convert(raw: str, typ: type, where: str):
    try:
        if typ is bool:
            if raw.lower() in ("1", "true", "yes", "on"):
                return True
            if raw.lower() in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        return typ(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {where}: {raw!r}") from exc


def parse_config(path: Path, command: str, out_dir: Path) -> RunConfig:
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}; expected one of {COMMANDS}")
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc

    values: dict[tuple[str, str], object] = {
        (section, key): default for section, keys in _SCHEMA.items()
        for key, default in keys.items() if default is not None}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            if (section, key) == ("run", "command"):
                if raw != command:
                    raise ConfigError(f"config names command {raw!r} but {command!r} was requested")
                continue
            values[(section, key)] = _convert(raw, type(_SCHEMA[section][key]), f"[{section}] {key}")

    cfg = RunConfig(command=command, out_dir=out_dir, values=values)
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: RunConfig) -> None:
    if cfg.get("grid", "n") <= 0 or cfg.get("grid", "r_max") <= 0:
        raise ConfigError("grid parameters must be positive")
    if cfg.get("grid", "n_z") <= 0 or cfg.get("grid", "z_max") <= 0:
        raise ConfigError("axisymmetric grid parameters must be positive")
    # NonlinearSpec and SolveOptions are the one check of their parameters
    try:
        _nonlinearity(cfg)
        _solver_opts(cfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _nonlinearity(cfg: RunConfig) -> model.NonlinearSpec:
    return model.NonlinearSpec(cfg.get("nonlinearity", "family"), cfg.get("nonlinearity", "mass"),
                               tuple(_float_list(cfg.get("nonlinearity", "params"))))


def _float_list(raw: str) -> list[float]:
    return [float(tok) for tok in raw.split(",") if tok.strip()]


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def write_summary(out_dir: Path, scalars: dict[str, object]) -> None:
    lines = [f"{k} = {_fmt(v)}" for k, v in scalars.items()]
    (out_dir / "summary.txt").write_text("\n".join(lines) + "\n")


def write_manifest(cfg: RunConfig) -> None:
    lines = [f"command = {cfg.command}"]
    by_section: dict[str, list[str]] = {}
    for (section, key), val in sorted(cfg.values.items()):
        by_section.setdefault(section, []).append(f"{key} = {_fmt(val)}")
    for section in sorted(by_section):
        lines.append(f"[{section}]")
        lines.extend(by_section[section])
    (cfg.out_dir / "manifest.txt").write_text("\n".join(lines) + "\n")


def write_profile_csv(out_dir: Path, name: str, columns: dict[str, np.ndarray]) -> None:
    """Write the columns as CSV with a header line, each value as ``%.12g``.

    The bytes are those of ``np.savetxt(fmt="%.12g", delimiter=",")``; a
    block of rows is formatted by one ``%`` over the row template repeated,
    and blocks keep the formatted text, and so the memory, bounded.
    """
    rows = np.column_stack([np.asarray(col, dtype=float) for col in columns.values()])
    line = ",".join(["%.12g"] * rows.shape[1]) + "\n"
    with open(out_dir / name, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for start in range(0, len(rows), CSV_BLOCK_ROWS):
            block = rows[start:start + CSV_BLOCK_ROWS]
            fh.write(line * len(block) % tuple(block.ravel().tolist()))


def _write_solution(cfg: RunConfig, res: minimize.SolitonResult) -> None:
    """profile.csv of the solved amplitude over its grid's nodes, (r, u) or
    (r, z, u), and phi.csv of the potential of a gauge-coupled state."""
    grid = res.u.grid
    if isinstance(grid, vortex.AxisymGrid):
        rr, zz = np.meshgrid(grid.r, grid.z, indexing="ij")
        nodes = {"r": rr.ravel(), "z": zz.ravel()}
    else:
        nodes = {"r": grid.nodes}
    write_profile_csv(cfg.out_dir, "profile.csv", {**nodes, "u": res.u.values.ravel()})
    if res.phi is not None:
        write_profile_csv(cfg.out_dir, "phi.csv", {"r": grid.nodes, "phi": res.phi.values})


def _grid(cfg: RunConfig) -> RadialGrid:
    return RadialGrid(cfg.get("grid", "r_max"), cfg.get("grid", "n"))


def _solver_opts(cfg: RunConfig) -> minimize.SolveOptions:
    return minimize.SolveOptions(tol=cfg.get("solver", "tol"),
                                 max_iters=cfg.get("solver", "max_iters"))


def _tent_init(cfg: RunConfig, grid: RadialGrid) -> RadialProfile:
    return chargewin.TentProfile(cfg.get("solve", "init_s1"), cfg.get("solve", "init_r")).realize(grid)


def _result_scalars(res: minimize.SolitonResult) -> dict[str, object]:
    return {
        "energy": res.energy,
        "sigma": res.charge,
        "electric_charge": res.electric_charge,
        "omega": res.omega,
        "hylomorphy": res.hylomorphy,
        "residual": res.residual,
        "iterations": res.iterations,
        "converged": res.converged,
        "termination": res.termination,
        "collapsed": res.collapsed,
        "certified": res.certified,
        "note": res.note or "none",
        "coarse_iterations": res.coarse_iterations,
        "discretization_error": res.discretization_error,
    }


def _run_validate(cfg: RunConfig) -> dict[str, object]:
    spec = _nonlinearity(cfg)
    report = model.validate_assumptions(spec, cfg.get("validate", "s_max"))
    crit = model.classify_charge_criteria(spec)
    out = {
        "mass_normalization": report.mass_normalization,
        "nonnegative": report.nonnegative,
        "binding": report.binding,
        "binding_witness": report.binding_witness if report.binding_witness is not None else "none",
        "growth": report.growth,
        "all_pass": report.all_pass,
        "small_charge_threshold_vanishes": crit.small_charge_threshold_vanishes,
        "small_s_exponent": crit.small_s_exponent,
        "second_vacuum": crit.second_vacuum,
        "second_vacuum_witness": crit.second_vacuum_witness if crit.second_vacuum_witness is not None else "none",
    }
    return out


def _run_window(cfg: RunConfig) -> dict[str, object]:
    spec = _nonlinearity(cfg)
    est = chargewin.estimate_admissible_window(
        spec, cfg.get("window", "q"),
        _float_list(cfg.get("window", "s1_values")),
        _float_list(cfg.get("window", "r_values")))
    if est.empty:
        return {"window_found": False}
    rows = {"s1": np.array([t.s1 for t in est.admissible]),
            "r": np.array([t.r for t in est.admissible])}
    write_profile_csv(cfg.out_dir, "window.csv", rows)
    return {
        "window_found": True,
        "sigma_low": est.sigma_low,
        "sigma_high": est.sigma_high,
        "witness_low_s1": est.witness_low.s1,
        "witness_low_r": est.witness_low.r,
        "witness_high_s1": est.witness_high.s1,
        "witness_high_r": est.witness_high.r,
        "n_admissible": len(est.admissible),
    }


def _run_solve_nlkg(cfg: RunConfig) -> dict[str, object]:
    spec = _nonlinearity(cfg)
    res = minimize.minimize_nlkg(spec, cfg.get("solve", "sigma"), _tent_init(cfg, _grid(cfg)),
                                 _solver_opts(cfg))
    _write_solution(cfg, res)
    return _result_scalars(res)


def _run_solve_kgm(cfg: RunConfig) -> dict[str, object]:
    spec = _nonlinearity(cfg)
    res = minimize.minimize_kgm(spec, cfg.get("solve", "sigma"), cfg.get("solve", "q"),
                                _tent_init(cfg, _grid(cfg)), _solver_opts(cfg))
    _write_solution(cfg, res)
    out = _result_scalars(res)
    out["screened_mass"] = res.screened_mass
    return out


def _run_solve_vortex(cfg: RunConfig) -> dict[str, object]:
    spec = _nonlinearity(cfg)
    grid = vortex.AxisymGrid(cfg.get("grid", "r_max"), cfg.get("grid", "z_max"),
                             cfg.get("grid", "n"), cfg.get("grid", "n_z"))
    init = vortex.torus_bump(grid, cfg.get("solve", "torus_amplitude"),
                             cfg.get("solve", "torus_r0"),
                             cfg.get("solve", "torus_width"), cfg.get("solve", "ell"))
    res = vortex.minimize_vortex(spec, cfg.get("solve", "sigma"), init, _solver_opts(cfg))
    _write_solution(cfg, res)
    out = _result_scalars(res)
    out["angular_momentum"] = res.winding * res.charge  # the axial angular momentum L_3
    out["winding"] = res.winding
    return out


def _run_construct(cfg: RunConfig) -> dict[str, object]:
    spec = _nonlinearity(cfg)
    plan = chargewin.construct_for_charge(spec, cfg.get("construct", "charge_target"))
    report = chargewin.verify_tent_witness(spec, plan.s1, plan.r, plan.h, plan.q)
    init = chargewin.TentProfile(plan.s1, plan.r).realize(plan.grid)
    res = minimize.minimize_kgm(spec, plan.sigma, plan.q, init, _solver_opts(cfg))
    _write_solution(cfg, res)
    out = {
        "plan_s1": plan.s1,
        "plan_binding": plan.binding,
        "plan_alpha": plan.alpha,
        "plan_h": plan.h,
        "plan_r": plan.r,
        "plan_q": plan.q,
        "plan_sigma": plan.sigma,
        "plan_charge": plan.charge,
        "plan_predicted_charge_lb": plan.predicted_charge_lb,
        "plan_grid_nodes": plan.grid.n + 1,
        "plan_grid_spacing": plan.grid.h,
        "hypothesis_amplitude": report.amplitude_ok,
        "hypothesis_coupling": report.coupling_ok,
        "hypothesis_defect": report.defect_ok,
        "hypothesis_slope": report.slope_ok,
        "deficiency_negative": report.deficiency_ok,
        "hypotheses_all_pass": report.all_pass,
    }
    out.update({f"solve_{k}": v for k, v in _result_scalars(res).items()})
    return out


def _soliton_for_evolution(cfg: RunConfig, section: str):
    """Check an evolution's time stepping, then solve for its soliton: (spec, grid, res, t_final, dt, rec)."""
    spec = _nonlinearity(cfg)
    grid = _grid(cfg)
    t_final = cfg.get(section, "t_final")
    dt = cfg.get(section, "dt") or grid.h / 2.0
    rec = cfg.get(section, "record_every") or None
    evolve.step_plan(grid, spec, t_final, dt, rec)
    opts = minimize.SolveOptions(tol=min(cfg.get("solver", "tol"), 1e-8),
                                 max_iters=cfg.get("solver", "max_iters"))
    res = minimize.minimize_nlkg(spec, cfg.get(section, "sigma"), _tent_init(cfg, grid), opts)
    if not res.converged:
        raise RuntimeError("soliton preparation did not converge; adjust sigma or the grid")
    return spec, grid, res, t_final, dt, rec


def _run_evolve(cfg: RunConfig) -> dict[str, object]:
    spec, grid, res, t_final, dt, rec = _soliton_for_evolution(cfg, "evolve")
    state, ledger = evolve.evolve_nlkg(
        evolve.soliton_state(res.u, res.omega), spec, t_final, dt,
        record_every=rec, localization_radius=evolve.soliton_radius(res.u),
        reference=(res.u, res.omega), free_field=cfg.get("evolve", "free"))
    write_profile_csv(cfg.out_dir, "ledger.csv", ledger.arrays())
    write_profile_csv(cfg.out_dir, "profile.csv", {"r": grid.nodes, "u": np.abs(state.psi)})
    return {"t_final": state.t, **ledger.drifts(), "omega": res.omega, "sigma": res.charge,
            "cfl_margin": evolve.cfl_margin(grid, spec, dt)}


def _run_stability(cfg: RunConfig) -> dict[str, object]:
    delta = cfg.get("stability", "delta")
    evolve.check_delta(delta)
    spec, grid, res, t_final, dt, rec = _soliton_for_evolution(cfg, "stability")
    result = evolve.stability_experiment(res.u, res.omega, spec, t_final, dt, delta, record_every=rec)

    out: dict[str, object] = {"sigma": res.charge, "omega": res.omega, "delta": delta,
                              "cfl_margin": evolve.cfl_margin(grid, spec, dt),
                              "localization_radius": result.localization_radius,
                              "reversal_error": result.reversal_error,
                              "coarse_iterations": res.coarse_iterations,
                              "discretization_error": res.discretization_error}
    for name, ledger in result.ledgers.items():
        arrays = ledger.arrays()
        write_profile_csv(cfg.out_dir, f"{name}.csv", arrays)
        out.update({f"{name}_{key}": value for key, value in ledger.drifts().items()})
        distance = arrays["distance"]
        # a ratio to a zero initial distance says nothing; report the excursion itself
        if distance[0] > 0:
            out[f"{name}_distance_ratio"] = float(np.max(distance) / distance[0])
        else:
            out[f"{name}_max_distance"] = float(np.max(distance))
    return out


_RUNNERS = {
    "validate": _run_validate,
    "window": _run_window,
    "solve-nlkg": _run_solve_nlkg,
    "solve-kgm": _run_solve_kgm,
    "solve-vortex": _run_solve_vortex,
    "construct": _run_construct,
    "evolve": _run_evolve,
    "stability": _run_stability,
}


def run(cfg: RunConfig) -> int:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    scalars = _RUNNERS[cfg.command](cfg)
    write_summary(cfg.out_dir, scalars)
    write_manifest(cfg)
    if scalars.get("converged") is False or scalars.get("solve_converged") is False:
        return EXIT_NOCONVERGE
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="hylomorph",
                                     description="charge-constrained soliton laboratory")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, type=Path)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    out_dir = args.out if args.out is not None else Path("runs") / args.command
    try:
        cfg = parse_config(args.config, args.command, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"precondition failure: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except AssertionError as exc:
        print(f"internal assertion failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (RuntimeError, evolve.BlowUpError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_NOCONVERGE


if __name__ == "__main__":
    sys.exit(main())

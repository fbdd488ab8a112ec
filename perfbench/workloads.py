"""The four benchmark workloads: inputs drawn from a seed, the run, the gates.

Each workload is one closed loop: a single caller issues one solve or CLI
command at a time and waits for it.  Seed 0 reproduces the acceptance
parameters exactly; other seeds jitter them inside ranges that were checked
to converge and that keep the work per run nearly constant (the benchmark
reports wall time, so a jitter that changed the iteration count by a tenth
would read as a tenth of noise).

Every call into hylomorph goes through a module attribute looked up at call
time (``hylomorph.oracle.shoot_ground_state``, ``hylomorph.cli.main``), so the
tracer in ``spans.py`` sees it when it is installed.
"""

from __future__ import annotations

import hashlib
import random
import struct
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("crosscheck", "construct", "vortex", "stability")

# Intended layer of each workload: the traced run reports the share of wall
# time spent inside spans of these modules (or these exact functions).
INTENDED_LAYERS = {
    "crosscheck": ("oracle",),
    "construct": ("gauge", "minimize"),
    "vortex": ("vortex.splu", "vortex.lu_solve"),
    "stability": ("evolve", "grid", "model"),
}

# construct: each target is drawn inside the charge interval of one radius
# rung, so the plan (and the solve that follows) is the same for every seed.
CONSTRUCT_RUNGS = ((10.0, 5.0, 51.0), (100.0, 58.0, 196.0),
                   (1000.0, 846.0, 3038.0), (10000.0, 3224.0, 12083.0))


@dataclass
class Outcome:
    """What one workload repetition did: operations, failures and a digest."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    digest_parts: list[bytes] = field(default_factory=list)

    def op(self, name: str, ok: bool, why: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"{name}: {why}" if why else name)

    @property
    def digest(self) -> str:
        h = hashlib.sha256()
        for part in self.digest_parts:
            h.update(struct.pack("<Q", len(part)))
            h.update(part)
        return h.hexdigest()


def make_params(workload: str, seed: int) -> dict:
    """Inputs of one workload; seed 0 gives the acceptance parameters."""
    rng = random.Random(f"{workload}:{seed}")

    def draw(lo: float, hi: float, digits: int) -> float:
        return round(rng.uniform(lo, hi), digits)

    if workload == "crosscheck":
        if seed == 0:
            return {"omegas": [0.5, 0.7, 0.9]}
        # one frequency near each acceptance value: the RK4 work of a shot
        # grows with omega (2.0 s at 0.45, 4.1 s at 0.9), so wider draws
        # would spread wall_s by the inputs rather than by the program
        return {"omegas": [draw(0.48, 0.52, 4), draw(0.68, 0.72, 4), draw(0.88, 0.9, 4)]}
    if workload == "construct":
        if seed == 0:
            return {"targets": [rung[0] for rung in CONSTRUCT_RUNGS]}
        return {"targets": [draw(lo * 1.001, hi, 3) for _, lo, hi in CONSTRUCT_RUNGS]}
    if workload == "vortex":
        if seed == 0:
            return {"sigma": 600.0, "torus_r0": 6.0}
        # the full convergent ranges (sigma 560..640, r0 5.5..6.5) give 78 to
        # 106 iterations; these gave 94 to 98 on seeds 1 to 9, against 97 at seed 0
        return {"sigma": draw(590.0, 610.0, 2), "torus_r0": draw(5.97, 6.03, 3)}
    if workload == "stability":
        if seed == 0:
            return {"sigma": 80.0}
        return {"sigma": draw(70.0, 90.0, 2)}
    raise ValueError(f"unknown workload {workload!r}")


def _write_config(path: Path, sections: dict[str, dict[str, object]]) -> Path:
    lines = []
    for section, values in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in values.items())
    path.write_text("\n".join(lines) + "\n")
    return path


def make_configs(workload: str, params: dict, work: Path) -> list[tuple[str, Path]]:
    """CLI commands of a workload as (command, config path); empty for crosscheck."""
    if workload == "construct":
        return [("construct", _write_config(work / f"construct_{i}.ini", {
            "run": {"command": "construct"},
            "construct": {"charge_target": float(t)},
        })) for i, t in enumerate(params["targets"])]
    if workload == "vortex":
        return [
            ("solve-vortex", _write_config(work / "vortex.ini", {
                "run": {"command": "solve-vortex"},
                "grid": {"r_max": 16.0, "z_max": 12.0, "n": 576, "n_z": 288},
                "solver": {"tol": 2e-7, "max_iters": 20000},
                "solve": {"sigma": params["sigma"], "ell": 1, "torus_r0": params["torus_r0"],
                          "torus_width": 2.0, "torus_amplitude": 1.0},
            })),
            ("solve-nlkg", _write_config(work / "radial.ini", {
                "run": {"command": "solve-nlkg"},
                "grid": {"r_max": 16.0, "n": 1024},
                "solve": {"sigma": params["sigma"], "init_s1": 1.0, "init_r": 5.0},
            })),
        ]
    if workload == "stability":
        return [("stability", _write_config(work / "stability.ini", {
            "run": {"command": "stability"},
            "grid": {"r_max": 32.0, "n": 4096},
            "solver": {"tol": 1e-8},
            "solve": {"init_s1": 1.0, "init_r": 3.0},
            "stability": {"sigma": params["sigma"], "t_final": 50.0, "dt": 0.0, "delta": 0.01},
        }))]
    return []


def read_summary(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


def _cli(hylomorph, command: str, config: Path, out_dir: Path, outcome: Outcome):
    """Run one CLI command in-process; returns its summary, or None if it failed."""
    try:
        code = hylomorph.cli.main([command, "--config", str(config), "--out", str(out_dir)])
    except Exception as exc:  # an escaped exception is a failed operation, not a crash
        outcome.op(command, False, f"raised {type(exc).__name__}: {exc}")
        return None
    summary_path = out_dir / "summary.txt"
    if code != 0 or not summary_path.exists():
        outcome.op(command, False, f"exit code {code}")
        return None
    outcome.digest_parts.append(summary_path.read_bytes())
    return read_summary(summary_path)


def _gate(outcome: Outcome, name: str, check, *summaries) -> None:
    """One operation's verdict; a summary missing a key or value fails it too."""
    try:
        ok = all(s is not None for s in summaries) and bool(check(*summaries))
        why = "" if ok else f"check failed on {summaries}"
    except (KeyError, ValueError) as exc:
        ok, why = False, f"unreadable summary: {type(exc).__name__}: {exc}"
    outcome.op(name, ok, why)


def _f(summary: dict[str, str], key: str) -> float:
    return float(summary[key])


def run_crosscheck(hylomorph, params: dict, configs, work: Path) -> Outcome:
    """Shooting oracle against the constrained minimizer (criterion 2 thresholds)."""
    out = Outcome()
    spec = hylomorph.NonlinearSpec.double_well()
    for omega in params["omegas"]:
        try:
            shot = hylomorph.shoot_ground_state(spec, omega)
            shot_residual = hylomorph.residual_stationary(shot, spec, "nlkg")
        except Exception as exc:
            out.op(f"shoot({omega})", False, f"raised {type(exc).__name__}: {exc}")
            out.op(f"minimize({omega})", False, "no shot to compare against")
            continue
        out.op(f"shoot({omega})", shot.converged and shot_residual < 1e-4,
               f"converged={shot.converged} residual={shot_residual:.3e}")
        grid = shot.profile.grid
        sigma = abs(omega) * shot.profile.mass2
        try:
            init = hylomorph.TentProfile(1.0, 3.0).realize(grid)
            res = hylomorph.minimize_nlkg(spec, sigma, init, hylomorph.SolveOptions(tol=1e-8))
            weighted_norm = hylomorph.grid.weighted_norm
            l2_diff = (weighted_norm(grid, res.u.values - shot.profile.values)
                       / weighted_norm(grid, shot.profile.values))
            energy_shot, _ = hylomorph.reduced_energy_sigma(shot.profile, sigma, spec)
            energy_diff = abs(res.energy - energy_shot) / energy_shot
        except Exception as exc:
            out.op(f"minimize({omega})", False, f"raised {type(exc).__name__}: {exc}")
            continue
        out.op(f"minimize({omega})", res.converged and l2_diff < 1e-3 and energy_diff < 1e-3,
               f"converged={res.converged} l2_diff={l2_diff:.3e} energy_diff={energy_diff:.3e}")
        scalars = (shot.u0, shot.bracket[0], shot.bracket[1], shot_residual, sigma,
                   res.energy, res.omega, res.residual, float(res.iterations), l2_diff, energy_diff)
        out.digest_parts.append(struct.pack(f"<{len(scalars)}d", *scalars))
    return out


def run_construct(hylomorph, params: dict, configs, work: Path) -> Outcome:
    out = Outcome()
    for (command, config), target in zip(configs, params["targets"]):
        s = _cli(hylomorph, command, config, work / config.stem, out)
        if s is not None:
            _gate(out, f"construct({target})",
                  lambda s: (s["hypotheses_all_pass"] == "True" and _f(s, "plan_charge") >= target
                             and s["solve_converged"] == "True" and s["solve_certified"] == "True"),
                  s)
    return out


def run_vortex(hylomorph, params: dict, configs, work: Path) -> Outcome:
    out = Outcome()
    (vcmd, vcfg), (rcmd, rcfg) = configs
    v = _cli(hylomorph, vcmd, vcfg, work / "vortex", out)
    r = _cli(hylomorph, rcmd, rcfg, work / "radial", out)
    if r is not None:
        _gate(out, "solve-nlkg", lambda r: r["converged"] == "True", r)
    if v is not None:
        # the radial energy at the same charge is a lower bound for the vortex
        _gate(out, "solve-vortex",
              lambda v, r: (v["converged"] == "True" and _f(v, "residual") < 1e-5
                            and _f(v, "angular_momentum") == int(v["winding"]) * _f(v, "sigma")
                            and _f(v, "energy") >= _f(r, "energy")),
              v, r)
    return out


def run_stability(hylomorph, params: dict, configs, work: Path) -> Outcome:
    out = Outcome()
    [(command, config)] = configs
    s = _cli(hylomorph, command, config, work / "stability", out)
    if s is not None:
        _gate(out, "stability",
              lambda s: (_f(s, "ledger_energy_drift") < 1e-6 and _f(s, "ledger_charge_drift") < 1e-6
                         and _f(s, "ledger_scaled_distance_ratio") < 5.0
                         and _f(s, "ledger_bump_distance_ratio") < 5.0
                         and _f(s, "ledger_free_final_localization") > 0.5
                         and _f(s, "ledger_final_localization") < 1e-2
                         and _f(s, "reversal_error") < 1e-8),
              s)
    return out


RUNNERS = {
    "crosscheck": run_crosscheck,
    "construct": run_construct,
    "vortex": run_vortex,
    "stability": run_stability,
}

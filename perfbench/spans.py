"""Span tracer that measures hylomorph's layers from outside.

Each instrumented function is replaced, in every hylomorph module that
looks it up by name, with a wrapper that records a span (name, site, start,
end, parent) and passes arguments and results through unchanged.  Spans are
kept in memory; ``Tracer.metrics`` reduces them to per-layer calls, total and
self time, and ``Tracer.write`` dumps them once the run has ended.

Self time is a span's duration minus the time its direct children cover.
Counts that the spans cannot give come from the returned results (descent
iterations, vortex iterations, LU fill, leapfrog steps, bytes written).
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

# Functions defined in hylomorph, by "<module>.<function>".
OWN_FUNCTIONS = (
    "oracle.shoot_ground_state",
    "gauge.solve_phi",
    "gauge.kgm_functionals",
    "minimize.descend",
    "grid.radial_laplacian",
    "model.eval_nonlinearity",
    "model.wprime_over_s",
    "model.eval_remainder",
    "functionals.reduced_energy_sigma",
    "chargewin.construct_for_charge",
    "chargewin.verify_tent_witness",
    "vortex.minimize_vortex",
    "vortex.axisym_laplacian",
    "evolve.evolve_nlkg",
    "evolve.field_energy",
    "evolve.localization_fraction",
    "evolve.manifold_distance",
    "cli.main",
    "cli.write_profile_csv",
)

# Library functions hylomorph imports; a span is named after the importing
# module, e.g. "gauge.solve_banded" and "minimize.solve_banded".
FOREIGN_FUNCTIONS = ("solve_banded", "splu")

LEDGER = ("evolve.field_energy", "evolve.localization_fraction", "evolve.manifold_distance")

TIMED = {  # layer function -> which of calls/total_s/self_s to report
    "oracle.shoot_ground_state": ("calls", "total_s", "self_s"),
    "gauge.solve_phi": ("calls", "total_s", "self_s"),
    "gauge.solve_banded": ("total_s",),
    "gauge.kgm_functionals": ("calls", "total_s"),
    "minimize.descend": ("calls", "total_s", "self_s"),
    "minimize.solve_banded": ("calls", "total_s"),
    "grid.radial_laplacian": ("calls", "total_s"),
    "model.eval_nonlinearity": ("calls", "total_s"),
    "model.wprime_over_s": ("calls", "total_s"),
    "model.eval_remainder": ("total_s",),
    "functionals.reduced_energy_sigma": ("calls", "total_s"),
    "chargewin.construct_for_charge": ("total_s", "self_s"),
    "chargewin.verify_tent_witness": ("total_s",),
    "vortex.minimize_vortex": ("total_s", "self_s"),
    "vortex.splu": ("total_s",),
    "vortex.lu_solve": ("calls", "total_s"),
    "vortex.axisym_laplacian": ("calls", "total_s"),
    "evolve.evolve_nlkg": ("calls", "total_s", "self_s"),
    "cli.main": ("calls", "total_s"),
    "cli.write_profile_csv": ("calls", "total_s"),
}

# radial_laplacian split by the module that calls it
SITE_SPLIT = {"grid.radial_laplacian": ("minimize", "evolve")}

COUNTS = ("minimize.iterations", "minimize.energy_evals", "minimize.gradient_evals",
          "vortex.iterations", "vortex.factor_nnz", "evolve.steps", "cli.bytes_written")


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for fn, kinds in TIMED.items():
        for kind in kinds:
            out.append((f"{fn}.{kind}", "count" if kind == "calls" else "s"))
        for site in SITE_SPLIT.get(fn, ()):
            out += [(f"{fn}.{site}.calls", "count"), (f"{fn}.{site}.total_s", "s")]
    out.append(("evolve.ledger.total_s", "s"))
    out += [(name, "count") for name in COUNTS]
    out.append(("minimize.accept_ratio", "ratio"))
    return out


class _LUProxy:
    """Stands in for a SuperLU factor; times each ``solve`` as vortex.lu_solve."""

    def __init__(self, tracer: "Tracer", lu):
        self._tracer = tracer
        self._lu = lu

    def solve(self, *args, **kwargs):
        return self._tracer.call("vortex.lu_solve", "vortex", self._lu.solve, args, kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """In-memory spans and counts of one traced repetition."""

    def __init__(self):
        self.names: list[str] = []
        self.sites: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._stack: list[int] = []
        self.active: Counter = Counter()  # spans of each name now open
        self.counts: Counter = Counter()

    # recording ----------------------------------------------------------

    def call(self, name: str, site: str, fn, args, kwargs):
        idx = len(self.names)
        self.names.append(name)
        self.sites.append(site)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.active[name] += 1
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[idx] = perf_counter()
            self.starts[idx] = start
            self._stack.pop()
            self.active[name] -= 1

    def _wrapper(self, name: str, site: str, fn):
        after = _AFTER.get(name)
        before = _BEFORE.get(name)
        signature = inspect.signature(fn) if after is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            result = self.call(name, site, fn, args, kwargs)
            if after is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                return after(self, bound.arguments, result)
            return result

        return wrapper

    def install(self, package) -> list[str]:
        """Replace each instrumented function at every lookup site in ``package``.

        Returns the instrumented functions the package no longer defines;
        their metrics read 0.
        """
        prefix = package.__name__ + "."
        modules = {name[len(prefix):]: mod for name, mod in sys.modules.items()
                   if name.startswith(prefix) and mod is not None}
        originals, missing = {}, []
        for qual in OWN_FUNCTIONS:
            mod, name = qual.split(".")
            fn = getattr(modules.get(mod), name, None)
            if fn is None:
                missing.append(qual)
            else:
                originals[id(fn)] = (qual, fn)
        sites = dict(modules)
        sites[package.__name__] = package
        for site, mod in sites.items():
            for attr, value in list(vars(mod).items()):
                if id(value) in originals:
                    qual, fn = originals[id(value)]
                    setattr(mod, attr, self._wrapper(qual, site, fn))
                elif attr in FOREIGN_FUNCTIONS and callable(value):
                    setattr(mod, attr, self._wrapper(f"{site}.{attr}", site, value))
        return missing

    # reduction ----------------------------------------------------------

    def _durations(self) -> tuple[list[float], list[float]]:
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += dur[i]
        return dur, [d - c for d, c in zip(dur, child)]

    def metrics(self) -> dict[str, float]:
        dur, self_t = self._durations()
        calls: Counter = Counter()
        total: defaultdict = defaultdict(float)
        own: defaultdict = defaultdict(float)
        for name, site, d, s in zip(self.names, self.sites, dur, self_t):
            for key in (name, f"{name}.{site}"):
                calls[key] += 1
                total[key] += d
                own[key] += s
        out: dict[str, float] = {}
        for fn, kinds in TIMED.items():
            for kind in kinds:
                out[f"{fn}.{kind}"] = {"calls": calls, "total_s": total, "self_s": own}[kind][fn]
            for site in SITE_SPLIT.get(fn, ()):
                out[f"{fn}.{site}.calls"] = calls[f"{fn}.{site}"]
                out[f"{fn}.{site}.total_s"] = total[f"{fn}.{site}"]
        out["evolve.ledger.total_s"] = sum(total[name] for name in LEDGER)
        for name in COUNTS:
            out[name] = self.counts[name]
        evals = self.counts["minimize.energy_evals"]
        out["minimize.accept_ratio"] = self.counts["minimize.iterations"] / evals if evals else 0.0
        return out

    def layer_time(self, layers: tuple[str, ...]) -> float:
        """Time inside spans of the given modules or functions, nested spans counted once."""
        dur, _ = self._durations()

        def belongs(i: int) -> bool:
            name = self.names[i]
            return name in layers or name.split(".")[0] in layers

        time = 0.0
        for i in range(len(self.names)):
            if not belongs(i):
                continue
            p = self.parents[i]
            while p >= 0 and not belongs(p):
                p = self.parents[p]
            if p < 0:
                time += dur[i]
        return time

    def self_time_by_function(self) -> dict[str, float]:
        _, self_t = self._durations()
        out: defaultdict = defaultdict(float)
        for name, s in zip(self.names, self_t):
            out[name] += s
        return dict(out)

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            fh.write("index,name,site,parent,start_s,end_s\n")
            t0 = self.starts[0] if self.starts else 0.0
            for i, (n, s, p, a, b) in enumerate(zip(self.names, self.sites, self.parents,
                                                     self.starts, self.ends)):
                fh.write(f"{i},{n},{s},{p},{a - t0:.9f},{b - t0:.9f}\n")


def wrapper_cost(calls: int = 20000) -> float:
    """Seconds one wrapper adds to a call, timed on a function that does nothing.

    One traced run cannot resolve its own overhead on a machine whose speed
    drifts by more than the overhead; the span count times this cost can.
    """
    def nothing():
        return None

    wrapped = Tracer()._wrapper("probe", "probe", nothing)
    trials = []
    for _ in range(3):
        start = perf_counter()
        for _ in range(calls):
            wrapped()
        middle = perf_counter()
        for _ in range(calls):
            nothing()
        trials.append((2.0 * middle - start - perf_counter()) / calls)
    return sorted(trials)[1]


# Counts taken at the layer boundaries ------------------------------------

def _count_evals(tracer: Tracer, args, kwargs) -> None:
    """Order-0 (energy) and order-1 (gradient) W evaluations inside descend."""
    if tracer.active["minimize.descend"] <= 0:
        return
    order = args[2] if len(args) > 2 else kwargs.get("order", 0)
    if order == 0:
        tracer.counts["minimize.energy_evals"] += 1
    elif order == 1:
        tracer.counts["minimize.gradient_evals"] += 1


def _after_descend(tracer: Tracer, arguments, result):
    tracer.counts["minimize.iterations"] += int(result[2])
    return result


def _after_vortex(tracer: Tracer, arguments, result):
    tracer.counts["vortex.iterations"] += int(result.iterations)
    return result


def _after_splu(tracer: Tracer, arguments, result):
    # nonzeros SuperLU stores for L and U; building result.L would copy the factor
    tracer.counts["vortex.factor_nnz"] += int(result.nnz)
    return _LUProxy(tracer, result)


def _after_evolve(tracer: Tracer, arguments, result):
    final, _ = result
    tracer.counts["evolve.steps"] += int(round((final.t - arguments["init"].t) / arguments["dt"]))
    return result


def _after_cli_main(tracer: Tracer, arguments, result):
    argv = list(arguments["argv"] or [])
    if "--out" in argv:
        out_dir = Path(argv[argv.index("--out") + 1])
        if out_dir.is_dir():
            tracer.counts["cli.bytes_written"] += sum(
                p.stat().st_size for p in out_dir.iterdir() if p.is_file())
    return result


_BEFORE = {"model.eval_nonlinearity": _count_evals}
_AFTER = {
    "minimize.descend": _after_descend,
    "vortex.minimize_vortex": _after_vortex,
    "vortex.splu": _after_splu,
    "evolve.evolve_nlkg": _after_evolve,
    "cli.main": _after_cli_main,
}

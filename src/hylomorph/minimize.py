"""Gradient-flow minimization of the reduced energies at fixed charge.

The descent direction is the raw first variation smoothed by one
tridiagonal solve of (I - c lap), which removes the grid-scale stiffness
of explicit flow while remaining a descent direction; a backtracking line
search with projection onto nonnegative profiles guarantees monotone
energy decrease.  Convergence is declared on the weighted L2 norm of the
stationary-equation residual.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

import numpy as np
from scipy.linalg import solve_banded

from .functionals import reduced_energy, reduced_energy_sigma, stationary_operator
from .gauge import GaugePotential, kgm_functionals, screened_mass_two_forms, solve_phi
from .grid import RadialGrid, RadialProfile, weighted_norm
from .model import NonlinearSpec

COLLAPSE_AMPLITUDE_FACTOR = 1e-3
COLLAPSE_NOTE = "profile collapsed toward zero; sigma likely below every certified window"
UNBOUND_NOTE = "ratio at or above the mass; no binding certificate at this sigma"


class InvariantError(AssertionError):
    """A guaranteed numerical invariant failed: a solver defect, not bad input.

    Raised explicitly so that ``python -O`` keeps the check.
    """


@dataclass(frozen=True)
class SolveOptions:
    tol: float = 1e-6
    max_iters: int = 50_000
    step_init: float = 1.0
    shrink: float = 0.5
    armijo: float = 1e-4
    precond: float = 1.0

    def __post_init__(self):
        for name in ("tol", "max_iters", "step_init", "shrink", "armijo"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.precond < 0:
            raise ValueError("precond must be nonnegative")


if TYPE_CHECKING:
    from .vortex import AxisymProfile


@dataclass
class SolitonResult:
    """Converged (or best-effort) constrained minimizer bundle."""

    u: "RadialProfile | AxisymProfile"
    omega: float
    phi: GaugePotential | None
    energy: float
    charge: float                  # the charge parameter sigma
    electric_charge: float         # q * sigma for the gauge-coupled theory
    hylomorphy: float
    residual: float
    iterations: int
    converged: bool
    collapsed: bool = False
    winding: int = 0
    coupling: float | None = None
    note: str = ""
    certified: bool = False
    """True when the converged state certifies its charge (ratio below the mass)."""


class _Preconditioner:
    """Tridiagonal solve of (I - c lap) on the radial grid."""

    def __init__(self, grid: RadialGrid, c: float):
        self.c = c
        self._ab = -c * grid.laplacian_bands
        self._ab[1] += 1.0

    def solve(self, g: np.ndarray) -> np.ndarray:
        if self.c == 0.0:
            return g.copy()
        return solve_banded((1, 1), self._ab, g)


def descend(
    u0: np.ndarray,
    energy: Callable[[np.ndarray], tuple[float, Any]],
    gradient: Callable[[np.ndarray, Any], np.ndarray],
    project: Callable[[np.ndarray], np.ndarray],
    weights: np.ndarray,
    pc_solve: Callable[[np.ndarray], np.ndarray],
    opts: SolveOptions,
) -> tuple[np.ndarray, float, int, bool]:
    """Projected, preconditioned backtracking descent shared by all solvers.

    ``energy(u)`` returns the energy and whatever state it computed on the
    way; ``gradient(u, state)`` receives the state of the same iterate, so
    work both need (the screened mass and its potential) is done once.
    Inner products and the residual norm use the quadrature ``weights``.

    Returns (u, residual, iterations, converged).
    """
    w = weights.ravel()

    def inner(a: np.ndarray, b: np.ndarray) -> float:
        # far out on an energy unbounded below, squares of finite fields pass
        # float range; inf or nan then fails every test it enters (no
        # convergence, no Armijo acceptance)
        with np.errstate(over="ignore", invalid="ignore"):
            return float(w @ (a * b).ravel())

    def converged_at(residual: float, u: np.ndarray) -> bool:
        return bool(residual < opts.tol * (1.0 + np.sqrt(inner(u, u))))

    u = project(u0.copy())
    tau = opts.step_init
    e_cur, state = energy(u)
    e_mark = e_cur
    res_best = np.inf
    it_mark = 0
    residual = np.inf
    iterations = 0
    for it in range(opts.max_iters):
        iterations = it
        g = gradient(u, state)
        residual = np.sqrt(inner(g, g))
        if converged_at(residual, u):
            return u, residual, it, True
        # stall guard: break only when neither the energy (which pins at
        # float resolution first) nor the residual makes real progress
        if e_cur < e_mark - 1e-13 * max(1.0, abs(e_mark)):
            e_mark = e_cur
            it_mark = it
        if residual < 0.9 * res_best:
            res_best = residual
            it_mark = it
        if it - it_mark > 256:
            break
        d = pc_solve(g)
        if not np.isfinite(d).all() or inner(d, g) <= 0.0:
            d = g
        accepted = False
        for _ in range(60):
            trial = project(u - tau * d)
            move = u - trial
            move2 = inner(move, move)
            if move2 == 0.0:
                break
            # a long trial step may overflow W(s); such a trial is rejected below
            with np.errstate(over="ignore", invalid="ignore"):
                e_trial, trial_state = energy(trial)
            if np.isfinite(e_trial) and e_trial <= e_cur - (opts.armijo / tau) * move2 + 1e-15 * abs(e_cur):
                if not e_trial <= e_cur + 1e-12 * max(1.0, abs(e_cur)):
                    raise InvariantError("descent step increased the energy")
                # grow the step only on decrease beyond float noise; noise
                # acceptances otherwise inflate tau into an overshoot cycle
                if e_cur - e_trial > 1e-14 * max(1.0, abs(e_cur)):
                    tau = min(tau * 2.0, 1e3 * opts.step_init)
                u, e_cur, state = trial, e_trial, trial_state
                accepted = True
                break
            tau *= opts.shrink
        if not accepted:
            break
    g = gradient(u, state)
    residual = np.sqrt(inner(g, g))
    return u, residual, iterations, converged_at(residual, u)


def finalize_result(profile: "RadialProfile | AxisymProfile", init: "RadialProfile | AxisymProfile",
                    spec: NonlinearSpec, sigma: float, energy: float, screened_mass: float,
                    residual: float, iterations: int, converged: bool, *,
                    phi: GaugePotential | None = None, coupling: float | None = None,
                    winding: int = 0) -> SolitonResult:
    """Turn a finished descent into a SolitonResult; shared by every solver.

    Eliminates the frequency omega = -sigma/K, checks the charge
    constraint, flags a collapse toward zero, and certifies the charge only
    for a converged state whose ratio E_sigma/sigma lies below the mass.
    """
    q = 1.0 if coupling is None else coupling
    omega = -sigma / screened_mass
    if not abs(-q * omega * screened_mass - q * sigma) <= 1e-8 * q * sigma:
        raise InvariantError("charge constraint broken by omega elimination")
    collapsed = bool(np.max(profile.values) < COLLAPSE_AMPLITUDE_FACTOR * np.max(init.values))
    hylomorphy = energy / sigma
    note = ""
    if collapsed:
        note = COLLAPSE_NOTE
    elif hylomorphy >= spec.mass:
        note = UNBOUND_NOTE
    converged = bool(converged and not collapsed)
    return SolitonResult(
        u=profile, omega=omega, phi=phi, energy=energy, charge=sigma,
        electric_charge=q * sigma, hylomorphy=hylomorphy, residual=residual,
        iterations=iterations, converged=converged, collapsed=collapsed,
        winding=winding, coupling=coupling, note=note,
        certified=bool(converged and hylomorphy < spec.mass),
    )


def _radial_project(values: np.ndarray) -> np.ndarray:
    out = np.maximum(values, 0.0)
    out[-1] = 0.0
    return out


def minimize_nlkg(spec: NonlinearSpec, sigma: float, init: RadialProfile,
                  opts: SolveOptions | None = None) -> SolitonResult:
    """Minimize the reduced energy at charge sigma over nonnegative profiles."""
    if not sigma > 0:
        raise ValueError("sigma must be positive; the zero charge admits only the trivial field")
    if init.mass2 <= 0.0:
        raise ValueError("initial profile must not vanish identically")
    opts = opts or SolveOptions()
    grid = init.grid
    vw = grid.volume_weights

    def energy(u: np.ndarray) -> tuple[float, float]:
        mass2 = float(vw @ (u * u))
        return reduced_energy(grid, u, spec, sigma, mass2), mass2

    def gradient(u: np.ndarray, mass2: float) -> np.ndarray:
        return stationary_operator(grid, u, spec, (sigma / mass2) ** 2)

    u, residual, iters, converged = descend(
        init.values, energy, gradient, _radial_project, vw,
        _Preconditioner(grid, opts.precond).solve, opts)

    profile = RadialProfile(grid, u)
    e_sigma, _ = reduced_energy_sigma(profile, sigma, spec)
    return finalize_result(profile, init, spec, sigma, e_sigma, profile.mass2,
                           residual, iters, converged)


def minimize_kgm(spec: NonlinearSpec, sigma: float, q: float, init: RadialProfile,
                 opts: SolveOptions | None = None) -> SolitonResult:
    """Minimize the gauge-coupled reduced energy; the potential is re-solved
    at every energy evaluation and reused by the gradient at that iterate."""
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    if not q > 0:
        raise ValueError("coupling q must be positive")
    if init.mass2 <= 0.0:
        raise ValueError("initial profile must not vanish identically")
    opts = opts or SolveOptions()
    grid = init.grid

    def energy(u: np.ndarray) -> tuple[float, tuple[float, GaugePotential]]:
        profile = RadialProfile(grid, u)
        phi = solve_phi(profile, q)
        # energy form: stationary in phi, so solve noise does not roughen
        # the landscape seen by the line search
        k, _ = screened_mass_two_forms(profile, phi)
        return reduced_energy(grid, u, spec, sigma, k), (k, phi)

    def gradient(u: np.ndarray, state: tuple[float, GaugePotential]) -> np.ndarray:
        k, phi = state
        return stationary_operator(grid, u, spec, (sigma / k) ** 2, (1.0 - q * phi.values) ** 2)

    u, residual, iters, converged = descend(
        init.values, energy, gradient, _radial_project, grid.volume_weights,
        _Preconditioner(grid, opts.precond).solve, opts)

    profile = RadialProfile(grid, u)
    funcs = kgm_functionals(profile, sigma, q, spec)
    return finalize_result(profile, init, spec, sigma, funcs.reduced_energy, funcs.screened_mass,
                           residual, iters, converged, phi=funcs.phi, coupling=q)


def residual_stationary(result, spec: NonlinearSpec, kind: str) -> float:
    """Grid L2 norm of the stationary equation for a solved state.

    ``kind`` selects the equation: "nlkg" for -lap u - omega^2 u + W'(u),
    "kgm" for its screened variant, "vortex" for the axisymmetric equation
    with the centrifugal term.  The frequency is taken from the result
    (shooting results carry no charge parameter), and the potential is
    re-solved from scratch for the gauge case so the check is independent
    of the stored one.
    """
    profile = getattr(result, "u", None)
    if profile is None:
        profile = result.profile
    omega = result.omega
    if kind == "vortex":
        from .vortex import vortex_residual

        return vortex_residual(profile, omega, spec)
    if kind == "nlkg":
        screen = 1.0
    elif kind == "kgm":
        q = result.coupling
        if q is None:
            raise ValueError("gauge residual needs the coupling stored on the result")
        screen = (1.0 - q * solve_phi(profile, q).values) ** 2
    else:
        raise ValueError(f"unknown stationary equation kind {kind!r}")
    grid = profile.grid
    return weighted_norm(grid, stationary_operator(grid, profile.values, spec, omega**2, screen))

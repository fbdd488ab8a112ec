"""Gradient-flow minimization of the reduced energies at fixed charge.

The search directions are preconditioned Polak-Ribiere+ conjugate
gradients in the H^1 metric: the raw first variation g is smoothed by one
solve of (I - lap + ell^2/r^2), the Sobolev gradient Pg, which removes the
grid-scale stiffness of explicit flow, and successive directions are
combined as p = Pg + beta p_old with beta = max(0, <g, Pg - Pg_old> /
<g_old, Pg_old>).  The direction restarts along Pg whenever it stops
descending.  The line search projects each trial onto nonnegative
profiles and accepts it on the Armijo test on <g, move>, which guarantees
monotone energy decrease; a rejected trial's energy places the next trial
at the minimizer of the quadratic fitted along the line, and an accepted
one caps the next iteration's first trial there, so each energy
evaluation (a phi solve in the gauge-coupled theory) also steers the
search.  Convergence is declared on the weighted L2 norm of the
stationary-equation residual; every solve reports why it stopped.  A
radial start far from the minimizer first moves as a whole: a thin-wall
Q-ball is a plateau inside a wall whose slide barely changes the energy,
which the preconditioned directions take one small step at a time, so
``descend`` searches the wall shift u(max(r - delta, 0)) of
``RadialGrid.shift`` once before its first direction.  A
start far from the minimizer on a grid with at least COARSEN *
MIN_COARSE_CELLS cells per direction is solved by nested iteration, each
level first solved on a 4x coarser grid, which nests again while it is
large enough (see ``_solve``).  One ``_problem`` builds the descent
of every theory from ``functionals`` and the grid and winding of the start.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace
from typing import Any, Callable

import numpy as np

from .functionals import reduced_energy, stationary_operator
from .gauge import GaugePotential, ScreenedPoisson, solve_phi
from .grid import InvariantError, RadialProfile, weighted_norm, weighted_sum
from .model import NonlinearSpec

COLLAPSE_AMPLITUDE_FACTOR = 1e-3
COLLAPSE_NOTE = "profile collapsed toward zero; sigma likely below every certified window"
UNBOUND_NOTE = "ratio at or above the mass; no binding certificate at this sigma"
DIVERGED_NOTE = "iterates ran off to infinity; the energy is likely unbounded below"

# line search: the first trial step, the shrink factor of a rejected trial
# that the quadratic fit cannot place (see _line_fit), and the Armijo
# sufficient-decrease constant
STEP_INIT = 1.0
SHRINK = 0.5
ARMIJO = 1e-4

# far starts (see _far): a start whose first preconditioned step is at least
# FAR_START times its own norm searches its wall shift before descending and,
# on a grid with at least COARSEN * MIN_COARSE_CELLS cells per direction, is
# first solved on a grid with COARSEN times fewer cells, and so on down
COARSEN = 4
MIN_COARSE_CELLS = 64
FAR_START = 0.75


@dataclass(frozen=True)
class SolveOptions:
    tol: float = 1e-6
    max_iters: int = 50_000

    def __post_init__(self):
        # an infinite tol would pass the start's residual test and report it as solved
        if not 0 < self.tol < np.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol!r}")
        if not (isinstance(self.max_iters, numbers.Integral) and self.max_iters > 0):
            raise ValueError(f"max_iters must be a positive integer, got {self.max_iters!r}")


@dataclass
class SolitonResult:
    """Converged (or best-effort) constrained minimizer bundle."""

    u: Any                         # a RadialProfile, or a vortex.AxisymProfile of a winding solve
    omega: float
    phi: GaugePotential | None
    energy: float
    screened_mass: float           # K: the mass ||u||^2, or K(u) in the gauge-coupled theory
    charge: float                  # the charge parameter sigma
    electric_charge: float         # q * sigma for the gauge-coupled theory
    hylomorphy: float
    residual: float
    iterations: int
    converged: bool
    termination: str               # why the descent stopped; see descend
    collapsed: bool = False
    winding: int = 0
    coupling: float | None = None
    note: str = ""
    certified: bool = False
    """True when the converged state certifies its charge (ratio below the mass)."""
    coarse_iterations: int = 0
    """Descent iterations on every coarser level together; 0 when one level ran."""
    discretization_error: float = np.nan
    """Richardson estimate (E_h - E_H) / ((H/h)^2 - 1) of E_continuum - energy;
    NaN unless the final level and the next coarser one both converged."""


def descend(
    u0: np.ndarray,
    energy: Callable[[np.ndarray], tuple[float, Any]],
    gradient: Callable[[np.ndarray, Any], np.ndarray],
    project: Callable[[np.ndarray], np.ndarray],
    weights: np.ndarray,
    pc_solve: Callable[[np.ndarray], np.ndarray],
    opts: SolveOptions,
    start: tuple[float, Any],
    step: tuple[np.ndarray, np.ndarray] | None = None,
    shift: Callable[[np.ndarray, float], np.ndarray] | None = None,
) -> tuple[np.ndarray, float, int, str, float, Any]:
    """Projected, preconditioned nonlinear conjugate gradients shared by all solvers.

    ``energy(u)`` returns the energy and whatever state it computed on the
    way; ``gradient(u, state)`` receives the state of the same iterate, so
    work both need (the screened mass and its potential) is done once.
    Inner products and the residual norm use the quadrature ``weights``.
    ``start`` is ``energy(u0)`` as the caller already computed it for a
    ``u0`` that ``project`` leaves unchanged; it is not evaluated again.
    ``step``, when given, is the gradient at ``u0`` and its
    ``pc_solve`` as the caller computed them; the first pass takes them
    instead of solving again, unless the wall search moved the start.

    ``shift(u, cells)``, when given, is a collective move of the whole
    profile (the radial wall shift by ``cells`` spacings), handed only for
    a start far from the minimizer.  The start is first moved along it by
    ``_wall_search``: the lowest-energy shifted start, if one lowers the
    energy by more than float noise, and its energy and state go to the
    descent without being evaluated again.  Those trials are energy
    evaluations of this descent.

    Each trial is ``project(u - tau p)``.  A rejected trial's next tau is
    the minimizer of the quadratic fitted to the energy at u, the slope
    <g, move> and the trial's energy, safeguarded in [0.1, 0.5] of the
    rejected tau, or SHRINK times it where no convex fit exists.  After an
    acceptance tau doubles if the first trial passed with a decrease above
    float noise, and is then capped at the accepted trial's fitted minimizer.
    A trial whose energy is not finite also caps the next move at half of
    1 + ||u||.  This keeps a descent that runs off to infinity stepping until
    its residual leaves float range, so ``_solve`` gives it the diverged
    note.  Without it a shifted runaway start ends in a failed line search
    at a finite residual near 6e137: sixty halvings do not bring a step
    that overflows back into float range.

    Returns (u, residual, iterations, termination, energy, state), the
    last two as ``energy(u)`` returned them for the returned u.  The
    termination says why the descent stopped: "converged" (the residual
    test passed), "max_iters" (the budget ran out), "stalled" (neither
    energy nor residual progressed for 256 iterations) or
    "line_search_failed" (no trial step along the search direction was
    accepted).
    """
    def pair(a: np.ndarray, b: np.ndarray) -> float:
        # the weighted inner product <a, b>; far out on an energy unbounded
        # below, squares of finite fields pass float range; inf or nan then
        # fails every test it enters (no convergence, no Armijo acceptance)
        with np.errstate(over="ignore", invalid="ignore"):
            return float(weighted_sum(weights, a, b))

    def converged_at(residual: float, u: np.ndarray) -> bool:
        return bool(residual < opts.tol * (1.0 + np.sqrt(pair(u, u))))

    u = project(u0.copy())
    tau = STEP_INIT
    e_cur, state = start
    if shift is not None:
        shifted = _wall_search(u, e_cur, shift, project, energy)
        if shifted is not None:
            e_cur, u, state = shifted
            step = None
    e_mark = e_cur
    res_best = np.inf
    it_mark = 0
    residual = np.inf
    iterations = 0  # accepted steps
    termination = "max_iters"
    p = pg_old = None
    for it in range(opts.max_iters):
        if step is None:
            g, pg = gradient(u, state), None
        else:
            (g, pg), step = step, None
        gg = pair(g, g)
        residual = np.sqrt(gg)
        if converged_at(residual, u):
            return u, residual, iterations, "converged", e_cur, state
        # stall guard: break only when neither the energy (which pins at
        # float resolution first) nor the residual makes real progress
        if e_cur < e_mark - 1e-13 * max(1.0, abs(e_mark)):
            e_mark = e_cur
            it_mark = it
        if residual < 0.9 * res_best:
            res_best = residual
            it_mark = it
        if it - it_mark > 256:
            termination = "stalled"
            break
        if pg is None:
            pg = pc_solve(g)
        # <pg, g> is the next iteration's beta denominator; a NaN keeps pg
        pg_g = pair(pg, g) if np.isfinite(pg).all() else 0.0
        if pg_g <= 0.0:
            pg, pg_g = g, gg
        # Polak-Ribiere+ in the preconditioned metric; restart along the
        # Sobolev gradient whenever the conjugate direction does not descend
        if p is not None:
            with np.errstate(over="ignore", invalid="ignore"):
                beta = max(0.0, pair(g, pg - pg_old) / pg_g_old)
                p = pg + beta * p
        if p is None or not pair(g, p) > 0.0 or not np.isfinite(p).all():
            p = pg
        pg_old, pg_g_old = pg, pg_g
        accepted = False
        for trial_no in range(60):
            trial = project(u - tau * p)
            move = u - trial
            if not move.any():
                break
            # a projected move may leave the descent cone (slope <= 0); it must
            # then not raise the energy at all
            slope = pair(g, move)
            decrease = ARMIJO * max(slope, 0.0)
            noise = 1e-14 * max(1.0, abs(e_cur))
            # a long trial step may overflow W(s); such a trial is rejected below
            with np.errstate(over="ignore", invalid="ignore"):
                e_trial, trial_state = energy(trial)
            fit = _line_fit(slope, e_trial - e_cur, noise)
            if np.isfinite(e_trial) and e_trial <= e_cur - decrease + 1e-15 * abs(e_cur):
                if not e_trial <= e_cur + 1e-12 * max(1.0, abs(e_cur)):
                    raise InvariantError("descent step increased the energy")
                tried = tau
                # grow the step only when the first trial passed and the
                # decrease beats float noise; noise acceptances otherwise
                # inflate tau into an overshoot cycle
                if trial_no == 0 and e_cur - e_trial > noise:
                    tau = min(tau * 2.0, 1e3 * STEP_INIT)
                # the next first trial stops at this line's fitted minimizer;
                # an accepted trial puts it past 0.45 of the step taken, so
                # the cap never falls below a quarter of the doubled step
                if fit is not None:
                    tau = min(tau, fit * tried)
                u, e_cur, state = trial, e_trial, trial_state
                iterations += 1
                accepted = True
                break
            if not np.isfinite(e_trial):
                # a trial outside float range says nothing of how much too long
                # it was; the next one moves u by at most half of 1 + ||u||
                tau = min(tau, (1.0 + np.sqrt(pair(u, u))) / np.sqrt(pair(p, p)))
            # the next trial is the fitted minimizer, safeguarded in [0.1, 0.5] of this one
            tau *= SHRINK if fit is None else min(max(fit, 0.1), 0.5)
        if not accepted:
            termination = "line_search_failed"
            break
    if termination == "max_iters":
        # only a spent budget leaves u moved since its last gradient (or
        # without one, at max_iters = 0); a stall or a failed line search
        # stopped at the u whose residual is already known
        g = gradient(u, state)
        residual = np.sqrt(pair(g, g))
        if converged_at(residual, u):
            termination = "converged"
    return u, residual, iterations, termination, e_cur, state


def _far(step: np.ndarray, u: np.ndarray, weights: np.ndarray) -> bool:
    """Whether the preconditioned step ``step`` from ``u`` is at least FAR_START times as long as ``u``.

    Weighted L2 norms with the quadrature ``weights``.  The first step
    P^-1 g estimates the distance to the minimizer as far as P approximates
    the Hessian, so only a start that is far by this test has a long descent
    ahead: ``_solve`` nests it, and hands ``descend`` its move to search.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return bool(weighted_sum(weights, step, step) >= FAR_START**2 * weighted_sum(weights, u, u))


def _wall_search(u: np.ndarray, e_cur: float, shift: Callable[[np.ndarray, float], np.ndarray],
                 project: Callable[[np.ndarray], np.ndarray],
                 energy: Callable[[np.ndarray], tuple[float, Any]]) -> tuple[float, np.ndarray, Any] | None:
    """The (energy, u, state) of the best trial of ``project(shift(u, cells))``, or None.

    The cells start at 2 and double while the energy falls; the opposite
    sign is tried only when the first gave nothing.  A trial counts only
    when it lowers the best energy so far by more than float noise, so a
    non-finite trial energy (a move that leaves no mass) is never taken
    and the search never raises the energy.  None when no trial counted.
    """
    noise = 1e-14 * max(1.0, abs(e_cur))
    best = None
    for sign in (1.0, -1.0):
        cells = 2.0 * sign
        while True:
            trial = project(shift(u, cells))
            with np.errstate(over="ignore", invalid="ignore"):
                e_trial, trial_state = energy(trial)
            if not e_trial < (e_cur if best is None else best[0]) - noise:
                break
            best = (e_trial, trial, trial_state)
            cells *= 2.0
        if best is not None:
            break
    return best


def _line_fit(slope: float, rise: float, noise: float) -> float | None:
    """The minimizer of the quadratic fit along a trial move, as a fraction of that move.

    The quadratic takes the energy at the current iterate, the slope
    -``slope`` = -<g, move> there and the ``rise`` E(trial) - E(u) over the
    whole move, so its minimizer lies at slope / (2 (rise + slope)) of the
    move (Nocedal & Wright, *Numerical Optimization*, 2006, sec. 3.5).  None
    when the fit locates nothing: a move outside the descent cone, a
    decrease ``slope`` the energy cannot resolve above its float ``noise``,
    a non-finite trial energy or a fit that is not convex.
    """
    curvature = rise + slope
    if not (slope > noise and 0.0 < curvature < np.inf):
        return None
    return 0.5 * slope / curvature


def _problem(grid, spec: NonlinearSpec, sigma: float, q: float | None, winding: int):
    """The (energy, gradient, project, weights, pc_solve, shift) of ``descend`` on ``grid``.

    ``energy(u)`` returns E_sigma(u) and its state (K, phi): ||u||^2 and
    None when ``q`` is None, else K(u) and phi_u at coupling q.  V is the
    grid's centrifugal potential at the start's ``winding``, 0 radially.
    ``shift`` is the grid's radial wall move ``RadialGrid.shift``; a vortex
    AxisymGrid offers none, and it is None there.
    """
    potential = grid.centrifugal(winding)
    # the projected iterates are nonnegative and vanish at r_max, so K and phi
    # are evaluated on their arrays without building a validated profile
    kernel = None if q is None else ScreenedPoisson(grid)

    def energy(u: np.ndarray) -> tuple[float, tuple[float, GaugePotential | None]]:
        if kernel is None:
            k, phi = grid.integrate(u * u), None
        else:
            k, phi = kernel.mass(u**2, q)
        return reduced_energy(grid, u, spec, sigma, k, potential), (k, phi)

    def gradient(u: np.ndarray, state: tuple[float, GaugePotential | None]) -> np.ndarray:
        k, phi = state
        screen = 1.0 if phi is None else phi.screen
        return stationary_operator(grid, u, spec, (sigma / k) ** 2, screen, potential)

    def project(u: np.ndarray) -> np.ndarray:
        return grid.zero_boundary(np.maximum(u, 0.0))

    return (energy, gradient, project, grid.volume_weights, grid.preconditioner(winding).solve,
            getattr(grid, "shift", None))


def _solve(spec: NonlinearSpec, sigma: float, init, opts: SolveOptions | None, *,
           coupling: float | None = None) -> SolitonResult:
    """The one solve path of every minimizer: descend from ``init`` and build the result.

    ``init`` and ``coupling`` state the equation: a RadialProfile, or a vortex
    AxisymProfile whose winding adds the centrifugal potential, and None for the ungauged theories.
    ``_problem`` builds the descent on each level; the result carries the
    state (K, phi) as the descent computed it for the returned profile.

    A start far from the minimizer on a grid with at least COARSEN *
    MIN_COARSE_CELLS cells per direction is solved on nested levels (nested
    iteration; Briggs, Henson & McCormick, *A Multigrid Tutorial*, 2000,
    ch. 3).  Far is the test of ``_far`` on the first preconditioned step
    P^-1 g from ``init``: only a long descent leaves most of the travel to
    the coarser levels.  ``init`` is then resampled onto the grid with
    COARSEN times fewer cells and solved there by ``_solve`` itself with
    the same ``opts``, so that level nests again while it has cells enough
    and a far start (each level has the whole ``max_iters`` budget), and
    the minimizer is resampled back.  The descent on this level starts
    from whichever of that and ``init`` has the lower energy here,
    ``init`` on a tie, so a converged start stays a fixed point and the
    result never has a higher energy than ``init``; the energy and state
    found for the start are handed to ``descend``, not evaluated again.
    When that start is ``init`` itself, so are the gradient and step of
    the far test, with the grid's wall shift to search when it is far.
    When this level and the next coarser one both converge, the Richardson
    estimate (E_h - E_H) / ((H/h)^2 - 1) of the second-order scheme is the
    result's discretization error.

    Eliminates omega = -sigma/K, flags a collapse or a run-off to infinity
    (a non-finite residual or energy), and certifies the charge only for a
    converged state with E_sigma/sigma below the mass.  A start whose
    frequency squared (sigma/K)^2 leaves float range is rejected before
    the descent.
    """
    if not (sigma > 0 and sigma * sigma < np.inf):
        # the zero charge admits only the trivial field, and sigma^2 enters the energy
        raise ValueError(f"sigma must be positive with a finite square, got {sigma!r}")
    if init.mass2 <= 0.0:
        raise ValueError("initial profile must not vanish identically")
    opts = opts or SolveOptions()
    fine_energy, gradient, project, weights, pc_solve, shift = _problem(
        init.grid, spec, sigma, coupling, init.winding)
    # the start and its (energy, state), handed to descend so no level evaluates its start twice
    with np.errstate(over="ignore", invalid="ignore"):
        start, known = init, fine_energy(init.values)
    frequency = sigma / known[1][0]
    if not frequency * frequency < np.inf:
        # the gradient squares sigma/K as a Python float, which raises on overflow
        raise ValueError(f"sigma = {sigma!r} on a start of mass K = {known[1][0]:.3g} "
                         "gives a frequency squared (sigma/K)^2 outside float range")
    coarse_iterations, coarse_converged, e_coarse, ratio2 = 0, False, np.nan, np.nan
    with np.errstate(over="ignore", invalid="ignore"):
        g_init = gradient(init.values, known[1])
        step_init = pc_solve(g_init)
        far = _far(step_init, init.values, weights)
    if far and min(init.grid.cells) >= COARSEN * MIN_COARSE_CELLS:
        coarse_init = init.resample(init.grid.coarsen(COARSEN))
        # a profile narrower than the coarse spacing can vanish on the coarse nodes
        if coarse_init.mass2 > 0.0:
            coarse = _solve(spec, sigma, coarse_init, opts, coupling=coupling)
            coarse_iterations = coarse.iterations + coarse.coarse_iterations
            coarse_converged = coarse.termination == "converged"
            e_coarse = coarse.energy
            candidate = coarse.u.resample(init.grid)
            with np.errstate(over="ignore", invalid="ignore"):
                at_candidate = fine_energy(candidate.values)
            if at_candidate[0] < known[0]:
                start, known = candidate, at_candidate
            # (H/h)^2 from the exact cell counts, a geometric mean over directions
            ratios = np.divide(init.grid.cells, coarse_init.grid.cells)
            ratio2 = float(np.prod(ratios)) ** (2.0 / ratios.size)
    from_init = start is init
    u, residual, iterations, termination, e_sigma, (k, phi) = descend(
        start.values, fine_energy, gradient, project, weights, pc_solve, opts, start=known,
        step=(g_init, step_init) if from_init else None, shift=shift if far and from_init else None)
    profile = replace(init, values=u)
    q = 1.0 if coupling is None else coupling
    omega = -sigma / k
    if not abs(-q * omega * k - q * sigma) <= 1e-8 * q * sigma:
        raise InvariantError("charge constraint broken by omega elimination")
    collapsed = bool(np.max(profile.values) < COLLAPSE_AMPLITUDE_FACTOR * np.max(init.values))
    diverged = not (np.isfinite(residual) and np.isfinite(e_sigma))
    hylomorphy = e_sigma / sigma
    note = ""
    if diverged:
        note = DIVERGED_NOTE
    elif collapsed:
        note = COLLAPSE_NOTE
    elif hylomorphy >= spec.mass:
        note = UNBOUND_NOTE
    converged = termination == "converged" and not collapsed and not diverged
    discretization_error = (e_sigma - e_coarse) / (ratio2 - 1.0) if converged and coarse_converged else np.nan
    return SolitonResult(
        u=profile, omega=omega, phi=phi, energy=e_sigma, screened_mass=k, charge=sigma,
        electric_charge=q * sigma, hylomorphy=hylomorphy, residual=residual,
        iterations=iterations, converged=converged, termination=termination, collapsed=collapsed,
        winding=init.winding, coupling=coupling, note=note,
        certified=bool(converged and hylomorphy < spec.mass),
        coarse_iterations=coarse_iterations, discretization_error=discretization_error,
    )


def minimize_nlkg(spec: NonlinearSpec, sigma: float, init: RadialProfile,
                  opts: SolveOptions | None = None) -> SolitonResult:
    """Minimize the reduced energy at charge sigma over nonnegative profiles winding as ``init`` does."""
    return _solve(spec, sigma, init, opts)


def minimize_kgm(spec: NonlinearSpec, sigma: float, q: float, init: RadialProfile,
                 opts: SolveOptions | None = None) -> SolitonResult:
    """Minimize the gauge-coupled reduced energy; the potential is re-solved
    at every energy evaluation by the grid's ``gauge.ScreenedPoisson`` and
    reused by the gradient at that iterate; the kernel rejects a non-radial
    start when it is built, and a bad coupling at the first evaluation."""
    return _solve(spec, sigma, init, opts, coupling=q)


def residual_stationary(result, spec: NonlinearSpec, kind: str) -> float:
    """Grid L2 norm of the stationary equation for a solved state.

    The result states its equation: -lap u + W'(u) + (V - omega^2 s) u with
    the screen s = (1 - q phi_u)^2 at its ``coupling`` q (s = 1 without
    one; shooting results carry none) and the centrifugal V of its
    profile's winding.  ``kind`` must name that equation, "nlkg", "kgm" or
    "vortex", or ValueError is raised.  The frequency is taken from the
    result, and the potential is re-solved from scratch for the gauge case
    so the check is independent of the stored one.
    """
    profile = getattr(result, "u", None)
    if profile is None:
        profile = result.profile
    q = getattr(result, "coupling", None)
    solves = "vortex" if profile.winding else "nlkg" if q is None else "kgm"
    if kind != solves:
        raise ValueError(f"the result solves the {solves} equation, not {kind!r}")
    grid = profile.grid
    screen = 1.0 if q is None else solve_phi(profile, q).screen
    g = stationary_operator(grid, profile.values, spec, result.omega**2, screen,
                            grid.centrifugal(profile.winding))
    return weighted_norm(grid, g)

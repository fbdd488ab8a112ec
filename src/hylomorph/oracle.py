"""Independent verification oracle for the radial ground state.

A shooting method for the stationary radial equation
u'' + (2/r) u' = W'(u) - omega^2 u that never touches the variational solver.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .grid import RadialGrid, RadialProfile
from .model import NonlinearSpec, eval_nonlinearity

RTOL = 1e-12  # DOP853 relative tolerance; it rejects 10 eps and below
ATOL = 1e-16  # absolute floor, far below the event amplitudes of about 1e-8
R_START = 1e-3  # radius of the regular series start
BRACKET_TOL = 1e-12
N_SCAN = 60  # central amplitudes scanned for the first bracket

OVERSHOOT = "overshoot"
UNDERSHOOT = "undershoot"


@dataclass
class ShootResult:
    u0: float
    profile: RadialProfile
    omega: float
    bracket: tuple[float, float]
    converged: bool
    graft_radius: float
    decay_rate: float


def _accel(spec: NonlinearSpec, omega: float):
    """u'' = W'(u) - omega^2 u - (2/r) u' as one scalar closure.

    Odd extension in the amplitude: the integrator's stages may probe
    slightly past a zero crossing, where the force is W'(|u|) sign(u).
    """
    m2 = spec.mass**2
    om2 = omega * omega
    # both families have exactly two remainder terms
    (c1, e1), (c2, e2) = [(c * k, k - 1.0) for c, k in spec.remainder_powers()]

    def accel(u: float, v: float, r: float) -> float:
        a = abs(u)
        w = m2 * a + c1 * a**e1 + c2 * a**e2
        if u < 0.0:
            w = -w
        return w - om2 * u - 2.0 * v / r

    return accel


def _hermite_zero(r0: float, p0: float, m0: float, r1: float, p1: float, m1: float) -> float:
    """Radius in [r0, r1] where the cubic Hermite through (p, p') at both
    ends falls from p0 > 0 to zero; p1 <= 0.  Bisection to float resolution
    keeps the radius continuous in the end data."""
    if not p0 > 0.0:
        return r0
    h = r1 - r0
    a0, b0, a1, b1 = p0, h * m0, p1, h * m1
    lo, hi = 0.0, 1.0
    for _ in range(53):
        t = 0.5 * (lo + hi)
        s = 1.0 - t
        # factored Hermite basis: s^2 (1 + 2t), t s^2, t^2 (3 - 2t), -t^2 s
        p = s * s * ((1.0 + 2.0 * t) * a0 + t * b0) + t * t * ((3.0 - 2.0 * t) * a1 - s * b1)
        if p > 0.0:
            lo = t
        else:
            hi = t
    return r0 + hi * h


def _quintic_hermite(rs: np.ndarray, us: np.ndarray, vs: np.ndarray, accs: np.ndarray,
                     r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p, p') at the radii r in [rs[0], rs[-1]] from the quintic Hermite
    through (p, p', p'') = (us, vs, accs) at the two ascending knots rs
    that bracket each radius.  The interpolant is C^2 across the knots."""
    k = np.clip(np.searchsorted(rs, r, side="right") - 1, 0, rs.size - 2)
    r0 = rs[k]
    h = rs[k + 1] - r0
    t = (r - r0) / h
    s = 1.0 - t
    t2, s2 = t * t, s * s
    # factored quintic Hermite basis and its t-derivative; the basis at
    # the right knot is the left one mirrored in t <-> s
    p = (s2 * s * (1.0 + 3.0 * t + 6.0 * t2) * us[k]
         + t2 * t * (1.0 + 3.0 * s + 6.0 * s2) * us[k + 1]
         + h * (t * s2 * s * (1.0 + 3.0 * t) * vs[k] - t2 * t * s * (1.0 + 3.0 * s) * vs[k + 1])
         + 0.5 * h * h * t2 * s2 * (s * accs[k] + t * accs[k + 1]))
    dp = (30.0 * t2 * s2 * (us[k + 1] - us[k]) / h
          + s2 * (1.0 + 2.0 * t - 15.0 * t2) * vs[k] + t2 * (1.0 + 2.0 * s - 15.0 * s2) * vs[k + 1]
          + 0.5 * h * t * s * (s * (2.0 - 5.0 * t) * accs[k] + t * (3.0 - 5.0 * t) * accs[k + 1]))
    return p, dp


def _dop853(spec: NonlinearSpec, omega: float):
    """(accel, solver): u'' at this frequency and a DOP853 integrator of it, shared by a shot's runs."""
    # imported on first use: at module level it would slow every package import
    from scipy.integrate import ode

    accel = _accel(spec, omega)

    def rhs(r: float, y: np.ndarray) -> tuple[float, float]:
        u, v = y.tolist()
        return v, accel(u, v, r)

    # a run to r_stop takes a few hundred steps; the default budget is 500
    return accel, ode(rhs).set_integrator("dop853", rtol=RTOL, atol=ATOL, nsteps=100_000)


def _integrate(spec: NonlinearSpec, omega: float, u0: float, r_stop: float,
               nodes: Sequence[float] = (), dop=None):
    """One DOP853 run from the regular series start; classify the outcome.

    Events: the amplitude reaching zero is an overshoot, a turning point
    with positive amplitude (including the plateau case) an undershoot.
    The integrator reports only step ends, so the first step end past an
    event stops the run and the event radius is the zero, inside that
    step, of the cubic Hermite through (u, u') (overshoot) or (u', u'')
    (undershoot) at its ends: it then moves continuously with u0.
    The step ends before the event are kept.  When ascending ``nodes`` are
    given, (u, u') at each node up to the last of them comes from the
    quintic Hermite through (u, u', u'') at the two step ends around it,
    with u'' from the right-hand side after the run, so a run without
    nodes makes no extra right-hand-side calls; nodes below R_START take
    the series start.
    ``dop`` is the shot's ``_dop853(spec, omega)``; each run sets its own callback and start.
    Returns (outcome, r_event, (u, u') at the leading nodes).
    """
    accel, solver = dop or _dop853(spec, omega)
    f0 = accel(u0, 0.0, R_START)  # v = 0 at the origin

    def series(r):
        return u0 + f0 * r * r / 6.0, f0 * r / 3.0

    start = series(R_START)
    steps: list[tuple[float, float, float]] = []  # falling step ends (r, u, u')
    event: list = []

    def stopped(r: float, u: float, v: float) -> bool:
        """Record the first event; false while the trajectory still falls."""
        if u > 0.0 and v < 0.0:
            steps.append((r, u, v))
            return False
        r0, u_0, v_0 = steps[-1] if steps else (r, u, v)
        if u <= 0.0:
            event[:] = OVERSHOOT, _hermite_zero(r0, u_0, v_0, r, u, v)
        else:
            event[:] = UNDERSHOOT, _hermite_zero(r0, -v_0, -accel(u_0, v_0, r0),
                                                 r, -v, -accel(u, v, r))
        return True

    # DOP853 reports a stop at its first call, on the start itself, as a
    # failure, so the start is classified here and that first call skipped
    if not stopped(R_START, *start):
        solver.set_solout(lambda r, y: -1 if r > R_START and stopped(r, *y.tolist()) else 0)
        solver.set_initial_value(start, R_START)
        solver.integrate(r_stop)
        if not solver.successful():
            raise RuntimeError(f"DOP853 failed with return code {solver.get_return_code()}")
        # scipy keeps every dop853 integrator alive after its run; unhooking
        # the callback (which resets the success flag) frees this run's step ends
        solver.set_solout(None)
    outcome, r_event = event or (UNDERSHOOT, r_stop)

    if not (len(nodes) and steps):
        return outcome, r_event, np.empty((2, 0))
    rs, us, vs = np.array(steps).T
    nodes = np.asarray(nodes, dtype=float)
    nodes = nodes[:np.searchsorted(nodes, rs[-1], side="right")]
    inner = np.searchsorted(nodes, R_START, side="right")
    samples = np.empty((2, nodes.size))
    samples[:, :inner] = series(nodes[:inner])
    if inner < nodes.size:
        accs = np.array([accel(u, v, r) for r, u, v in steps])
        samples[:, inner:] = _quintic_hermite(rs, us, vs, accs, nodes[inner:])
    return outcome, r_event, samples


def _bracketed_root(miss: Callable[[float], float], lo: float, m_lo: float,
                    hi: float, m_hi: float) -> tuple[float, float]:
    """Close [lo, hi] below BRACKET_TOL around the sign change of miss.

    Brent-Dekker steps: inverse quadratic interpolation through the best
    end, the other end and the previous best point, regula falsi when those
    three misses are not distinct or the interpolant leaves the bracket.
    lo is always a probed point with miss < 0 and hi one with miss > 0.
    Every probe lies strictly inside the bracket, at least BRACKET_TOL/4
    from either end, so the loop always closes; after two probes in a row
    that fail to halve the bracket the next probe is the midpoint, so every
    three probes at least halve it.
    """
    pad = 0.25 * BRACKET_TOL
    a = fa = None  # the previous best end
    slow = 0
    while hi - lo > BRACKET_TOL:
        width = hi - lo
        if abs(m_lo) <= abs(m_hi):
            b, fb, c, fc = lo, m_lo, hi, m_hi
        else:
            b, fb, c, fc = hi, m_hi, lo, m_lo
        if slow >= 2:
            x = 0.5 * (lo + hi)
        else:
            x = b - fb * (c - b) / (fc - fb)
            if fa is not None and fa != fb and fa != fc:
                # ratios first: products of tiny misses would underflow
                iqi = (a * fb / (fa - fb) * fc / (fa - fc)
                       + b * fa / (fb - fa) * fc / (fb - fc)
                       + c * fa / (fc - fa) * fb / (fc - fb))
                if lo < iqi < hi:
                    x = iqi
        x = min(max(x, lo + pad), hi - pad)
        m = miss(x)
        a, fa = b, fb
        if m < 0.0:
            lo, m_lo = x, m
        else:
            hi, m_hi = x, m
        slow = slow + 1 if hi - lo > 0.5 * width else 0
    return lo, hi


def shoot_ground_state(spec: NonlinearSpec, omega: float, grid: RadialGrid | None = None) -> ShootResult:
    """Shooting for the monotone radial ground state.

    N_SCAN central amplitudes from the binding threshold upward are
    integrated in order until the first undershoot followed by an
    overshoot.  That bracket is closed below BRACKET_TOL by a bracketed
    Brent-Dekker root of the miss signal +-exp(-2 kappa r_event), which is
    close to linear in the central amplitude near the ground state; the
    lower end always undershoots and the upper end always overshoots.
    The default grid spans the integration horizon max(40, 25/kappa),
    kappa = sqrt(m^2 - omega^2), with 4096 cells, so it depends on kappa
    alone.  One more run, from the bracket midpoint, gives the core of the
    profile: (u, u') at each node comes from the quintic Hermite through
    (u, u', u'') at the integrator's own step ends around it.  Beyond the
    node where that trajectory stops tracking the decaying solution, the
    profile continues with the exact linear far field A e^{-kappa r} / r.
    """
    m2 = spec.mass**2
    if not omega**2 < m2:
        raise ValueError("no bound state: need omega^2 below the squared mass")
    kappa = float(np.sqrt(m2 - omega**2))

    s_hi = _amplitude_scan_limit(spec, omega)
    ss = np.linspace(1e-6, s_hi, 2048)
    weff = eval_nonlinearity(spec, ss, 0) - 0.5 * omega**2 * ss**2
    if not np.any(weff < 0):
        raise ValueError("effective potential never negative: no ground state at this omega")

    r_stop = max(40.0, 25.0 / kappa)
    dop = _dop853(spec, omega)

    def miss(u0: float) -> float:
        # a start u0* + delta leaves the decaying solution where
        # |delta| e^{2 kappa r} is of order one, so exp(-2 kappa r_event)
        # is close to linear in delta: + for an overshoot, - for an undershoot
        outcome, r_event, _ = _integrate(spec, omega, u0, r_stop, dop=dop)
        # capped so a run to r_stop at large kappa cannot underflow to a signless 0
        m = math.exp(-min(2.0 * kappa * r_event, 700.0))
        return m if outcome == OVERSHOOT else -m

    prev = None
    for c in np.linspace(ss[np.argmax(weff < 0)], s_hi, N_SCAN):
        c = float(c)
        m = miss(c)
        if prev is not None and prev[1] < 0.0 < m:
            break
        prev = (c, m)
    else:
        raise ValueError("no undershoot/overshoot sign change in the scan bracket")

    lo, hi = _bracketed_root(miss, *prev, c, m)
    u0 = 0.5 * (lo + hi)

    if grid is None:
        grid = RadialGrid(r_stop, 4096)
    nodes = grid.nodes
    _, r_event, (us, vs) = _integrate(spec, omega, u0, r_stop, nodes, dop)
    idx = _graft_point(nodes[:us.size], us, vs, kappa, u0)
    r_graft = float(nodes[idx])
    amp = float(us[idx] * r_graft * np.exp(kappa * r_graft))
    vals = np.empty_like(nodes)
    vals[:idx + 1] = us[:idx + 1]
    tail = nodes[idx + 1:]
    vals[idx + 1:] = amp * np.exp(-kappa * tail) / tail
    vals[-1] = 0.0
    vals = np.maximum(vals, 0.0)

    return ShootResult(
        u0=u0,
        profile=RadialProfile(grid, vals),
        omega=omega,
        bracket=(lo, hi),
        converged=(hi - lo) <= BRACKET_TOL and r_event > 1.0,
        graft_radius=r_graft,
        decay_rate=kappa,
    )


def _amplitude_scan_limit(spec: NonlinearSpec, omega: float) -> float:
    """Upper end of the bracket scan: past the outer zero of the effective
    potential the trajectory cannot reach zero with zero velocity."""
    ss = np.geomspace(1e-3, 1e3, 4096)
    weff = eval_nonlinearity(spec, ss, 0) - 0.5 * omega**2 * ss**2
    neg = np.nonzero(weff < 0)[0]
    if neg.size == 0:
        return 10.0
    above = np.nonzero(ss > ss[neg[-1]])[0]
    return float(ss[above[0]] * 1.5) if above.size else float(ss[-1])


def _graft_point(rs: np.ndarray, us: np.ndarray, vs: np.ndarray, kappa: float, u0: float) -> int:
    """Index of the node where the trace is grafted onto the linear far field.

    Uses the last radius where the logarithmic derivative u'/u matches
    -kappa - 1/r within 2 percent, never past the point where the
    trajectory dips below 1e-7 of the central amplitude.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        logder = vs / us
    target = -kappa - 1.0 / np.maximum(rs, 1e-12)
    ok = np.abs(logder - target) < 0.02 * kappa
    ok &= us > 0
    ok &= us < 0.5 * u0
    ok &= us >= 1e-7 * u0
    hits = np.flatnonzero(ok)
    return int(hits[-1]) if hits.size else int(np.argmin(np.abs(us - 1e-5 * u0)))

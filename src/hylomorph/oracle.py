"""Independent verification oracles for the radial ground state.

Two routes that never touch the variational solver: a shooting method for
the stationary radial equation u'' + (2/r) u' = W'(u) - omega^2 u, and
exact piecewise-polynomial quadratures for the plateau-and-ramp trial
profiles used by the charge-window machinery.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicHermiteSpline

from .grid import RadialGrid, RadialProfile
from .model import NonlinearSpec, eval_nonlinearity

H_ODE = 1e-3
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
    """u'' = W'(u) - omega^2 u - (2/r) u' as one scalar closure for the RK4 loop.

    Odd extension in the amplitude: RK4 stages may probe slightly past a
    zero crossing, where the force is W'(|u|) sign(u).
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


def _integrate(spec: NonlinearSpec, omega: float, u0: float, r_stop: float,
               keep_trace: bool = False):
    """Fixed-step RK4 from the regular series start; classify the outcome.

    Events: the amplitude crossing zero is an overshoot, a turning point
    with positive amplitude (including the plateau case) an undershoot.
    Returns (outcome, r_event, trace | None).
    """
    accel = _accel(spec, omega)
    h = H_ODE
    hh = 0.5 * h

    f0 = accel(u0, 0.0, h)  # v = 0 at the origin
    r = h
    u = u0 + f0 * h * h / 6.0
    v = f0 * h / 3.0
    rs = [0.0, r]
    us = [u0, u]
    vs = [0.0, v]
    outcome = UNDERSHOOT
    r_event = r_stop
    while r < r_stop:
        k1v = accel(u, v, r)
        k2u = v + hh * k1v
        k2v = accel(u + hh * v, k2u, r + hh)
        k3u = v + hh * k2v
        k3v = accel(u + hh * k2u, k3u, r + hh)
        k4u = v + h * k3v
        k4v = accel(u + h * k3u, k4u, r + h)
        u += h * (v + 2.0 * k2u + 2.0 * k3u + k4u) / 6.0
        v += h * (k1v + 2.0 * k2v + 2.0 * k3v + k4v) / 6.0
        r += h
        if keep_trace:
            rs.append(r)
            us.append(u)
            vs.append(v)
        if u <= 0.0:
            outcome = OVERSHOOT
            r_event = r
            break
        if v >= 0.0:
            outcome = UNDERSHOOT
            r_event = r
            break
    trace = (np.array(rs), np.array(us), np.array(vs)) if keep_trace else None
    return outcome, r_event, trace


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
    Beyond the radius where the integrated trajectory stops tracking the
    decaying solution, the profile continues with the exact linear far
    field A e^{-kappa r} / r, kappa = sqrt(m^2 - omega^2).
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

    def miss(u0: float) -> float:
        # a start u0* + delta leaves the decaying solution where
        # |delta| e^{2 kappa r} is of order one, so exp(-2 kappa r_event)
        # is close to linear in delta: + for an overshoot, - for an undershoot
        outcome, r_event, _ = _integrate(spec, omega, u0, r_stop)
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

    _, r_event, (rs, us, vs) = _integrate(spec, omega, u0, r_stop, keep_trace=True)
    r_graft, amp = _graft_point(rs, us, kappa, u0)

    if grid is None:
        r_max = max(2.0 * r_graft, 12.0 / kappa)
        grid = RadialGrid(float(np.ceil(r_max)), 4096)
    nodes = grid.nodes
    vals = np.empty_like(nodes)
    core = nodes <= r_graft
    # C1 piecewise-cubic interpolation: linear interpolation would put
    # grid-scale kinks under the discrete Laplacian
    spline = CubicHermiteSpline(rs, us, vs)
    vals[core] = spline(nodes[core])
    tail = ~core
    vals[tail] = amp * np.exp(-kappa * nodes[tail]) / nodes[tail]
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


def _graft_point(rs: np.ndarray, us: np.ndarray, kappa: float, u0: float) -> tuple[float, float]:
    """Radius where the trace is grafted onto the linear far field.

    Uses the last radius where the logarithmic derivative matches
    -kappa - 1/r within 2 percent, never past the point where the
    trajectory dips below 1e-7 of the central amplitude.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        logder = np.gradient(np.log(np.maximum(us, 1e-300)), rs)
    target = -kappa - 1.0 / np.maximum(rs, 1e-12)
    ok = np.abs(logder - target) < 0.02 * kappa
    ok &= us > 0
    ok &= us < 0.5 * u0
    ok &= us >= 1e-7 * u0
    hits = np.flatnonzero(ok)
    idx = int(hits[-1]) if hits.size else int(np.argmin(np.abs(us - 1e-5 * u0)))
    r_graft = float(rs[idx])
    amp = float(us[idx] * rs[idx] * np.exp(kappa * rs[idx]))
    return r_graft, amp


@dataclass(frozen=True)
class TentQuadratures:
    mass2: float
    grad2: float
    remainder_int: float


def _ramp_moment(r: float, k: float) -> float:
    """Exact integral over the unit ramp of tau^k (r+1-tau)^2 dtau."""
    top = r + 1.0
    return top**2 / (k + 1.0) - 2.0 * top / (k + 2.0) + 1.0 / (k + 3.0)


def tent_quadratures(s1: float, r: float, spec: NonlinearSpec) -> TentQuadratures:
    """Closed-form integrals of the plateau-and-ramp profile.

    The profile equals s1 on |x| <= r, falls linearly to zero across a
    unit shell, and vanishes beyond; all three integrals reduce to exact
    polynomial (or power) moments.
    """
    if not (s1 > 0 and r > 0):
        raise ValueError("plateau amplitude and radius must be positive")
    four_pi = 4.0 * np.pi
    # integral over the shell of (r+1-t)^2 t^2 dt in closed form
    shell_mass = r**2 / 3.0 + r / 6.0 + 1.0 / 30.0
    mass2 = four_pi * s1**2 * (r**3 / 3.0 + shell_mass)
    grad2 = four_pi * s1**2 * ((r + 1.0) ** 3 - r**3) / 3.0
    ball = four_pi / 3.0 * r**3
    r_at_s1 = 0.0
    shell = 0.0
    for coef, k in spec.remainder_powers():
        r_at_s1 += coef * s1**k
        shell += coef * s1**k * _ramp_moment(r, k)
    remainder_int = r_at_s1 * ball + four_pi * shell
    return TentQuadratures(mass2=float(mass2), grad2=float(grad2), remainder_int=float(remainder_int))

"""Independent verification oracles for the radial ground state.

Two routes that never touch the variational solver: a shooting method for
the stationary radial equation u'' + (2/r) u' = W'(u) - omega^2 u, and
exact piecewise-polynomial quadratures for the plateau-and-ramp trial
profiles used by the charge-window machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicHermiteSpline

from .grid import RadialGrid, RadialProfile
from .model import NonlinearSpec, eval_nonlinearity

H_ODE = 1e-3
BRACKET_TOL = 1e-12
N_SCAN = 60  # central amplitudes tried before bisection

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


def _wprime_scalar(spec: NonlinearSpec):
    """Scalar W' closure with unpacked constants for the tight ODE loop.

    Odd extension in the amplitude: RK4 stages may probe slightly past a
    zero crossing, where the force is W'(|s|) sign(s).
    """
    m2 = spec.mass**2
    coefs = [(c * k, k - 1.0) for c, k in spec.remainder_powers()]

    def wprime(s: float) -> float:
        a = abs(s)
        acc = m2 * a
        for c, e in coefs:
            acc += c * a**e
        return acc if s >= 0.0 else -acc

    return wprime


def _integrate(spec: NonlinearSpec, omega: float, u0: float, r_stop: float,
               keep_trace: bool = False):
    """Fixed-step RK4 from the regular series start; classify the outcome.

    Events: the amplitude crossing zero is an overshoot, a turning point
    with positive amplitude (including the plateau case) an undershoot.
    Returns (outcome, r_event, trace | None).
    """
    wprime = _wprime_scalar(spec)
    om2 = omega * omega
    h = H_ODE

    def f(r: float, u: float, v: float) -> tuple[float, float]:
        return v, wprime(u) - om2 * u - 2.0 * v / r

    f0 = wprime(u0) - om2 * u0
    r = h
    u = u0 + f0 * h * h / 6.0
    v = f0 * h / 3.0
    rs = [0.0, r]
    us = [u0, u]
    vs = [0.0, v]
    outcome = UNDERSHOOT
    r_event = r_stop
    while r < r_stop:
        k1u, k1v = f(r, u, v)
        k2u, k2v = f(r + 0.5 * h, u + 0.5 * h * k1u, v + 0.5 * h * k1v)
        k3u, k3v = f(r + 0.5 * h, u + 0.5 * h * k2u, v + 0.5 * h * k2v)
        k4u, k4v = f(r + h, u + h * k3u, v + h * k3v)
        u += h * (k1u + 2.0 * k2u + 2.0 * k3u + k4u) / 6.0
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


def shoot_ground_state(spec: NonlinearSpec, omega: float, grid: RadialGrid | None = None) -> ShootResult:
    """Bisection shooting for the monotone radial ground state.

    The central amplitude is bracketed between undershooting and
    overshooting trajectories and bisected until the bracket is tighter
    than 1e-12.  Beyond the radius where the integrated trajectory stops
    tracking the decaying solution, the profile continues with the exact
    linear far field A e^{-kappa r} / r, kappa = sqrt(m^2 - omega^2).
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
    candidates = np.linspace(ss[np.argmax(weff < 0)], s_hi, N_SCAN)
    outcomes = [_integrate(spec, omega, float(c), r_stop)[0] for c in candidates]
    lo = hi = None
    for i in range(len(candidates) - 1):
        if outcomes[i] == UNDERSHOOT and outcomes[i + 1] == OVERSHOOT:
            lo, hi = float(candidates[i]), float(candidates[i + 1])
            break
    if lo is None:
        raise ValueError("no undershoot/overshoot sign change in the scan bracket")

    while hi - lo > BRACKET_TOL:
        mid = 0.5 * (lo + hi)
        outcome, _, _ = _integrate(spec, omega, mid, r_stop)
        if outcome == UNDERSHOOT:
            lo = mid
        else:
            hi = mid
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
    floor = us < 1e-7 * u0
    idx = None
    for i in range(len(rs) - 1, -1, -1):
        if floor[i]:
            continue
        if ok[i]:
            idx = i
            break
    if idx is None:
        idx = int(np.argmin(np.abs(us - 1e-5 * u0)))
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

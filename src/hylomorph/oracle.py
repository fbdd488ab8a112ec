"""Independent verification oracle for the radial ground state.

A shooting method for the stationary radial equation
u'' + (2/r) u' = W'(u) - omega^2 u that never touches the variational solver.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .grid import RadialGrid, RadialProfile
from .model import NonlinearSpec, _bracketed_root, _level_crossing, _level_turn

RTOL = 1e-12  # DOP853 relative tolerance; it rejects 10 eps and below
ATOL = 1e-16  # absolute floor, far below the event amplitudes of about 1e-8
MAX_STEPS = 100_000  # DOP853 step budget of one run; a run to r_stop takes a few hundred
R_START = 1e-3  # radius of the regular series start
BRACKET_TOL = 1e-12  # relative width of the closed bracket
N_SCAN = 35  # central amplitudes scanned for the first bracket

OVERSHOOT = "overshoot"
UNDERSHOOT = "undershoot"

# Dormand-Prince 8(5,3) tableau (Hairer, Norsett & Wanner, Solving ODEs I,
# II.5, and dop853.f): stage nodes, the nonzero stage weights A<i><j>, the
# order-8 weights B and the order-5 and order-3 error weights ER and BHH
C2, C3, C4, C5 = (5.26001519587677318785587544488e-2, 7.89002279381515978178381316732e-2,
                  1.18350341907227396726757197510e-1, 2.81649658092772603273242802490e-1)
C6, C7, C8, C9 = (1.0 / 3.0, 0.25, 3.07692307692307692307692307692e-1, 6.51282051282051282051282051282e-1)
C10, C11 = 0.6, 8.57142857142857142857142857142e-1
A21 = 5.26001519587677318785587544488e-2
A31, A32 = 1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2
A41, A43 = 2.95875854768068491816892993775e-2, 8.87627564304205475450678981324e-2
A51, A53, A54 = (2.41365134159266685502369798665e-1, -8.84549479328286085344864962717e-1,
                 9.24834003261792003115737966543e-1)
A61, A64, A65 = (3.7037037037037037037037037037e-2, 1.70828608729473871279604482173e-1,
                 1.25467687566822425016691814123e-1)
A71, A74, A75, A76 = (3.7109375e-2, 1.70252211019544039314978060272e-1,
                      6.02165389804559606850219397283e-2, -1.7578125e-2)
A81, A84, A85, A86, A87 = (3.70920001185047927108779319836e-2, 1.70383925712239993810214054705e-1,
                           1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
                           8.27378916381402288758473766002e-3)
A91, A94, A95, A96, A97, A98 = (6.24110958716075717114429577812e-1, -3.36089262944694129406857109825,
                                -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
                                2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1)
A101, A104, A105, A106, A107, A108, A109 = (
    4.77662536438264365890433908527e-1, -2.48811461997166764192642586468,
    -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
    1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
    -2.03312017085086261358222928593e-2)
A111, A114, A115, A116, A117, A118, A119, A1110 = (
    -9.3714243008598732571704021658e-1, 5.18637242884406370830023853209,
    1.09143734899672957818500254654, -8.14978701074692612513997267357,
    -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
    2.49360555267965238987089396762, -3.0467644718982195003823669022)
A121, A124, A125, A126, A127, A128, A129, A1210, A1211 = (
    2.27331014751653820792359768449, -1.05344954667372501984066689879e1,
    -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
    2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
    -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
    6.43392746015763530355970484046e-1)
B1, B6, B7, B8, B9, B10, B11, B12 = (
    5.42937341165687622380535766363e-2, 4.45031289275240888144113950566,
    1.89151789931450038304281599044, -5.8012039600105847814672114227,
    3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1,
    2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2)
BHH1, BHH2, BHH3 = 0.244094488188976377952755905512, 0.733846688281611857341361741547, 0.220588235294117647058823529412e-1
ER1, ER6, ER7, ER8, ER9, ER10, ER11, ER12 = (
    0.1312004499419488073250102996e-1, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1)
SAFE = 0.9  # step-size safety factor
FACC1 = 1.0 / 0.3  # a rejected step retries at h / FACC1
FACC2 = 1.0 / 6.0  # an accepted step lets the next grow by at most 1 / FACC2
EPS = sys.float_info.epsilon


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
    ends falls from p0 > 0 to zero; p1 <= 0.  The bracketed root, closed
    to float resolution, keeps the radius continuous in the end data; the
    end returned is the one where the cubic is <= 0 (r1 when p1 = 0)."""
    if not p0 > 0.0:
        return r0
    if p1 == 0.0:
        return r1
    h = r1 - r0
    a0, b0, a1, b1 = p0, h * m0, p1, h * m1

    def cubic(t: float) -> float:
        s = 1.0 - t
        # factored Hermite basis: s^2 (1 + 2t), t s^2, t^2 (3 - 2t), -t^2 s
        return s * s * ((1.0 + 2.0 * t) * a0 + t * b0) + t * t * ((3.0 - 2.0 * t) * a1 - s * b1)

    _, hi = _bracketed_root(cubic, 0.0, a0, 1.0, a1, 1e-300)
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


def _dop853_steps(accel: Callable[[float, float, float], float], r: float, u: float, v: float,
                  r_end: float) -> Iterator[tuple[float, float, float, float]]:
    """The start and every accepted step end (r, u, u', u'') of u'' = accel(u, u', r)
    integrated from (r, u, v) toward r_end > r.

    The explicit Runge-Kutta pair of order 8 of Dormand and Prince with
    the controller of Hairer's dop853.f (Hairer, Norsett & Wanner, Solving
    ODEs I, II.5 and II.10): the error norm combines the order-5 and
    order-3 estimates; after an accepted step the next is 0.9 err^(-1/8)
    times as long (three square roots, correctly rounded everywhere), at
    most 6 times, and not longer right after a rejection; the first step
    is dop853's ``hinit``.  A rejected step retries at 0.3 of its length
    whatever its error, as scipy's compiled dop853 does, so the two take
    the same steps.  Each step costs 11
    right-hand sides, and an accepted one a 12th at its end, which the
    next step reuses.  RTOL and ATOL are read when the run starts.
    Raises ValueError when RTOL is at or below 10 eps (or ATOL is not
    positive), RuntimeError when MAX_STEPS steps do not reach r_end or the
    step falls below the resolution of r.
    """
    rtol, atol, max_steps = RTOL, ATOL, MAX_STEPS
    if not (rtol > 10.0 * EPS and atol > 0.0):
        raise ValueError(f"DOP853 needs RTOL above 10 eps and ATOL above 0, got {rtol!r} and {atol!r}")
    a = accel(u, v, r)
    yield r, u, v, a
    h_max = r_end - r
    # hinit: an explicit Euler step sized from |y|/|y'|, then h^8 max(|y'|, |y''|) = 0.01
    su, sv = atol + rtol * abs(u), atol + rtol * abs(v)
    dnf = (v / su) ** 2 + (a / sv) ** 2
    dny = (u / su) ** 2 + (v / sv) ** 2
    h = 1e-6 if dnf <= 1e-10 or dny <= 1e-10 else 0.01 * math.sqrt(dny / dnf)
    h = min(h, h_max)
    a1 = accel(u + h * v, v + h * a, r + h)
    der2 = math.sqrt(((v + h * a - v) / su) ** 2 + ((a1 - a) / sv) ** 2) / h
    der12 = max(der2, math.sqrt(dnf))
    h = min(100.0 * h, h_max, max(1e-6, h * 1e-3) if der12 <= 1e-15
            else math.sqrt(math.sqrt(math.sqrt(0.01 / der12))))

    reject = last = False
    for _ in range(max_steps):
        if 0.1 * h <= abs(r) * EPS:
            raise RuntimeError(f"DOP853 step size {h:g} underflows at r = {r!r}")
        if r + 1.01 * h - r_end > 0.0:
            h, last = r_end - r, True
        # stage j has velocity vj and acceleration fj; stage 1 is (v, a)
        v2 = v + h * A21 * a
        f2 = accel(u + h * A21 * v, v2, r + C2 * h)
        v3 = v + h * (A31 * a + A32 * f2)
        f3 = accel(u + h * (A31 * v + A32 * v2), v3, r + C3 * h)
        v4 = v + h * (A41 * a + A43 * f3)
        f4 = accel(u + h * (A41 * v + A43 * v3), v4, r + C4 * h)
        v5 = v + h * (A51 * a + A53 * f3 + A54 * f4)
        f5 = accel(u + h * (A51 * v + A53 * v3 + A54 * v4), v5, r + C5 * h)
        v6 = v + h * (A61 * a + A64 * f4 + A65 * f5)
        f6 = accel(u + h * (A61 * v + A64 * v4 + A65 * v5), v6, r + C6 * h)
        v7 = v + h * (A71 * a + A74 * f4 + A75 * f5 + A76 * f6)
        f7 = accel(u + h * (A71 * v + A74 * v4 + A75 * v5 + A76 * v6), v7, r + C7 * h)
        v8 = v + h * (A81 * a + A84 * f4 + A85 * f5 + A86 * f6 + A87 * f7)
        f8 = accel(u + h * (A81 * v + A84 * v4 + A85 * v5 + A86 * v6 + A87 * v7), v8, r + C8 * h)
        v9 = v + h * (A91 * a + A94 * f4 + A95 * f5 + A96 * f6 + A97 * f7 + A98 * f8)
        f9 = accel(u + h * (A91 * v + A94 * v4 + A95 * v5 + A96 * v6 + A97 * v7 + A98 * v8),
                   v9, r + C9 * h)
        v10 = v + h * (A101 * a + A104 * f4 + A105 * f5 + A106 * f6 + A107 * f7 + A108 * f8
                       + A109 * f9)
        f10 = accel(u + h * (A101 * v + A104 * v4 + A105 * v5 + A106 * v6 + A107 * v7 + A108 * v8
                             + A109 * v9), v10, r + C10 * h)
        v11 = v + h * (A111 * a + A114 * f4 + A115 * f5 + A116 * f6 + A117 * f7 + A118 * f8
                       + A119 * f9 + A1110 * f10)
        f11 = accel(u + h * (A111 * v + A114 * v4 + A115 * v5 + A116 * v6 + A117 * v7 + A118 * v8
                             + A119 * v9 + A1110 * v10), v11, r + C11 * h)
        v12 = v + h * (A121 * a + A124 * f4 + A125 * f5 + A126 * f6 + A127 * f7 + A128 * f8
                       + A129 * f9 + A1210 * f10 + A1211 * f11)
        f12 = accel(u + h * (A121 * v + A124 * v4 + A125 * v5 + A126 * v6 + A127 * v7 + A128 * v8
                             + A129 * v9 + A1210 * v10 + A1211 * v11), v12, r + h)
        du = B1 * v + B6 * v6 + B7 * v7 + B8 * v8 + B9 * v9 + B10 * v10 + B11 * v11 + B12 * v12
        dv = B1 * a + B6 * f6 + B7 * f7 + B8 * f8 + B9 * f9 + B10 * f10 + B11 * f11 + B12 * f12
        u_new, v_new = u + h * du, v + h * dv

        su = atol + rtol * max(abs(u), abs(u_new))
        sv = atol + rtol * max(abs(v), abs(v_new))
        e5u = (ER1 * v + ER6 * v6 + ER7 * v7 + ER8 * v8 + ER9 * v9 + ER10 * v10 + ER11 * v11
               + ER12 * v12) / su
        e5v = (ER1 * a + ER6 * f6 + ER7 * f7 + ER8 * f8 + ER9 * f9 + ER10 * f10 + ER11 * f11
               + ER12 * f12) / sv
        e3u = (du - BHH1 * v - BHH2 * v9 - BHH3 * v12) / su
        e3v = (dv - BHH1 * a - BHH2 * f9 - BHH3 * f12) / sv
        err5 = e5u * e5u + e5v * e5v
        deno = err5 + 0.01 * (e3u * e3u + e3v * e3v)
        # a NaN error (overflowed stages) rejects the step
        err = h * err5 / math.sqrt(2.0 * deno) if deno != 0.0 else 0.0
        if err <= 1.0:
            r, u, v = r + h, u_new, v_new
            a = accel(u, v, r)
            yield r, u, v, a
            if last:
                return
            h_new = min(h / max(FACC2, math.sqrt(math.sqrt(math.sqrt(err))) / SAFE), h_max)
            if reject:
                h_new = min(h_new, h)
            reject = False
        else:
            h_new = h / FACC1
            reject, last = True, False
        h = h_new
    raise RuntimeError(f"DOP853 took {max_steps} steps without reaching r = {r_end!r} from r = {r!r}")


def _integrate(accel: Callable[[float, float, float], float], u0: float, r_stop: float, nodes: Sequence[float] = ()):
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
    with u'' the integrator's own at each step end; nodes below R_START
    take the series start.
    ``accel`` is the shot's ``_accel(spec, omega)``, built once for all its runs.
    Returns (outcome, r_event, (u, u') at the leading nodes).
    """
    f0 = accel(u0, 0.0, R_START)  # v = 0 at the origin

    def series(r):
        return u0 + f0 * r * r / 6.0, f0 * r / 3.0

    steps: list[tuple[float, float, float, float]] = []  # falling step ends (r, u, u', u'')
    outcome, r_event = UNDERSHOOT, r_stop
    for r, u, v, a in _dop853_steps(accel, R_START, *series(R_START), r_stop):
        if u > 0.0 and v < 0.0:
            steps.append((r, u, v, a))
            continue
        r0, u_0, v_0, a_0 = steps[-1] if steps else (r, u, v, a)
        if u <= 0.0:
            outcome, r_event = OVERSHOOT, _hermite_zero(r0, u_0, v_0, r, u, v)
        else:
            outcome, r_event = UNDERSHOOT, _hermite_zero(r0, -v_0, -a_0, r, -v, -a)
        break

    if not (len(nodes) and steps):
        return outcome, r_event, np.empty((2, 0))
    rs, us, vs, accs = np.array(steps).T
    nodes = np.asarray(nodes, dtype=float)
    nodes = nodes[:np.searchsorted(nodes, rs[-1], side="right")]
    inner = np.searchsorted(nodes, R_START, side="right")
    samples = np.empty((2, nodes.size))
    samples[:, :inner] = series(nodes[:inner])
    samples[:, inner:] = _quintic_hermite(rs, us, vs, accs, nodes[inner:])
    return outcome, r_event, samples


def shoot_ground_state(spec: NonlinearSpec, omega: float, n: int = 4096) -> ShootResult:
    """Shooting for the monotone radial ground state.

    Friction makes u'^2/2 - W + omega^2 u^2/2 fall along a shot, so a ground
    state starts between the two amplitudes u_in < u_out where the level
    W/(u^2/2) crosses omega^2.  N_SCAN starts spread over [u_in, u_out] are
    integrated in order until the first undershoot followed by an
    overshoot.  That bracket is closed to BRACKET_TOL relative by a
    bracketed Brent-Dekker root of the miss signal +-exp(-2 kappa r_event),
    which is close to linear in the central amplitude near the ground
    state; the lower end always undershoots and the upper end overshoots.
    The profile's grid spans the integration horizon max(40, 25/kappa),
    kappa = sqrt(m^2 - omega^2), with n cells, so no shot is cut off.  One
    more run, from the bracket midpoint, gives the core of the profile:
    (u, u') at each node comes from the quintic Hermite through
    (u, u', u'') at the integrator's own step ends around it.  Beyond the
    node where that trajectory stops tracking the decaying solution, the
    profile continues with the exact linear far field A e^{-kappa r} / r.
    """
    m2 = spec.mass**2
    if not omega**2 < m2:
        raise ValueError("no bound state: need omega^2 below the squared mass")
    kappa = float(np.sqrt(m2 - omega**2))

    s_zero, s_c, lowest = _level_turn(spec)
    if lowest >= omega**2:
        raise ValueError("effective potential never negative: no ground state at this omega")
    u_in = _level_crossing(spec, omega**2, 0.0, s_c)
    u_out = _level_crossing(spec, omega**2, s_c, s_zero)

    r_stop = max(40.0, 25.0 / kappa)
    grid = RadialGrid(r_stop, n)  # checks n before any run
    accel = _accel(spec, omega)

    def miss(u0: float) -> float:
        # a start u0* + delta leaves the decaying solution where
        # |delta| e^{2 kappa r} is of order one, so exp(-2 kappa r_event)
        # is close to linear in delta: + for an overshoot, - for an undershoot
        outcome, r_event, _ = _integrate(accel, u0, r_stop)
        # capped so a run to r_stop at large kappa cannot underflow to a signless 0
        m = math.exp(-min(2.0 * kappa * r_event, 700.0))
        return m if outcome == OVERSHOOT else -m

    prev = None
    for c in np.linspace(u_in, u_out, N_SCAN):
        c = float(c)
        m = miss(c)
        if prev is not None and prev[1] < 0.0 < m:
            break
        prev = (c, m)
    else:
        raise ValueError("no undershoot/overshoot sign change in the scan bracket")

    # every end lies in [prev, c], so the closing width xtol + 4 eps |end| stays within BRACKET_TOL hi
    lo, hi = _bracketed_root(miss, *prev, c, m, (BRACKET_TOL - 4.0 * EPS) * prev[0])
    u0 = 0.5 * (lo + hi)

    nodes = grid.nodes
    _, r_event, (us, vs) = _integrate(accel, u0, r_stop, nodes)
    idx = _graft_point(nodes[:us.size], us, vs, kappa, u0)
    r_graft = float(nodes[idx])
    amp = float(us[idx] * r_graft * np.exp(kappa * r_graft))
    vals = np.empty_like(nodes)
    vals[:idx + 1] = us[:idx + 1]
    tail = nodes[idx + 1:]
    vals[idx + 1:] = amp * np.exp(-kappa * tail) / tail

    return ShootResult(
        u0=u0,
        profile=RadialProfile(grid, grid.zero_boundary(vals)),
        omega=omega,
        bracket=(lo, hi),
        converged=hi - lo <= BRACKET_TOL * hi and r_event > 1.0,
        graft_radius=r_graft,
        decay_rate=kappa,
    )


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

"""Admissible charge windows and the constructive large-charge recipe.

Plateau-and-ramp trial profiles ("tents") witness negative deficiency and
hence open certified charge windows (sigma_low, sigma_high) around the
window center m K.  For any charge target, a deterministic recipe picks
the tent amplitude at the deepest binding level, fixes margin parameters
alpha and h at midpoints of their admissible ranges, couples the gauge
field just below the screening-control threshold, and doubles the plateau
radius until the verified electric charge q m K exceeds the target.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .functionals import deficiency, sigma_window
from .gauge import screened_mass
from .grid import InvariantError, RadialGrid, RadialProfile
from .model import NonlinearSpec, eval_remainder, find_binding_amplitude

# Best constant c3 with c3 * ||f||_6^2 <= ||grad f||_2^2 on R^3, evaluated
# once as the Rayleigh quotient of the extremal bubble (1 + |x|^2)^(-1/2) by
# radial quadrature truncated at r = 1000 (stable to four digits under grid
# doubling, then rounded down).  Truncation drops a positive tail of the
# gradient norm, so the recorded value sits slightly below the sharp
# constant; any smaller positive value keeps the coupling threshold
# sufficient, so this is sound.
SOBOLEV_C3 = 5.4685

# sqrt(c3 / (48^(1/3) pi^(2/3))), the prefactor of the screening-control threshold
_COUPLING_PREFACTOR = float(np.sqrt(SOBOLEV_C3 / (48.0 ** (1.0 / 3.0) * np.pi ** (2.0 / 3.0))))

# Largest spacing of a tent's grid: fine for the window scan and the witness
# check, coarser for the construction, whose grid grows with its doubling radius.
SCAN_RESOLUTION = 0.02
CONSTRUCT_RESOLUTION = 0.05
# Most nodes of a tent grid that construct_for_charge builds.  The grid has
# about 40 (r + 1) of them at CONSTRUCT_RESOLUTION and doubles with the radius;
# a million keeps each of its arrays at 8 MB.  For the double well the charge
# grows fourfold a rung (3.1e6 at 111,963 nodes), so the last rung below the
# cap, 895,410 nodes, reaches about 2e8
CONSTRUCT_MAX_NODES = 1_000_000


@dataclass(frozen=True)
class TentProfile:
    """Plateau s1 on |x| <= r with a unit-width linear ramp to zero."""

    s1: float
    r: float

    def __post_init__(self):
        if not (self.s1 > 0 and self.r > 0):
            raise ValueError("tent parameters must be positive")

    def __call__(self, rr: np.ndarray) -> np.ndarray:
        rr = np.asarray(rr, dtype=float)
        return self.s1 * np.clip(self.r + 1.0 - np.maximum(rr, self.r), 0.0, 1.0)

    def realize(self, grid: RadialGrid) -> RadialProfile:
        if grid.r_max < self.r + 1.0:
            raise ValueError("grid truncates inside the tent support")
        return RadialProfile(grid, self(grid.nodes))

    def default_grid(self, resolution: float) -> RadialGrid:
        """Grid on [0, 2 (r + 1)] with spacing at most ``resolution``."""
        r_max = 2.0 * (self.r + 1.0)
        n = max(512, int(np.ceil(r_max / resolution)))
        return RadialGrid(r_max, n)


@dataclass
class WindowEstimate:
    """Certified charge interval found by a tent scan (empty if no witness)."""

    sigma_low: float | None
    sigma_high: float | None
    witness_low: TentProfile | None
    witness_high: TentProfile | None
    admissible: list[TentProfile] = field(default_factory=list)

    @property
    def empty(self) -> bool:
        return self.sigma_low is None


def estimate_admissible_window(
    spec: NonlinearSpec,
    q: float,
    s1_values: Sequence[float],
    r_values: Sequence[float],
) -> WindowEstimate:
    """Scan tents, keep negative-deficiency witnesses, return the widest window.

    Every charge strictly inside the returned interval is certified
    admissible; the true window over all profiles can only be wider.  An
    empty result is a failed search, not a nonexistence proof.
    """
    if len(s1_values) == 0 or len(r_values) == 0:
        raise ValueError("search grid must be nonempty")
    best_low = None
    best_high = None
    wit_low = wit_high = None
    admissible: list[TentProfile] = []
    for s1 in s1_values:
        for r in r_values:
            tent = TentProfile(float(s1), float(r))
            window = sigma_window(tent.realize(tent.default_grid(SCAN_RESOLUTION)), spec, q)
            if window is None:
                continue
            admissible.append(tent)
            lo, hi = window
            if best_low is None or lo < best_low:
                best_low, wit_low = lo, tent
            if best_high is None or hi > best_high:
                best_high, wit_high = hi, tent
    return WindowEstimate(best_low, best_high, wit_low, wit_high, admissible)


@dataclass
class TentWitnessReport:
    """Numeric verification that one (s1, r, h, q) tent opens a window.

    ``amplitude_ok`` is the two-sided bound on R(s1) tying the plateau
    depth to the volume fraction r^3/(r+1)^3; ``coupling_ok`` is the
    screening-control inequality sqrt(c3 / (48^(1/3) pi^(2/3)))
    * (1-h)/(q h) > s1 r; ``defect_ok`` is the screened-mass retention
    K - ||u||^2 >= (h^2 - 1)||u||^2; ``slope_ok`` checks that the radial
    comparison function behind the retention bound is increasing;
    ``deficiency_ok`` checks the conclusion J(u) < 0 directly.
    """

    amplitude_ok: bool
    coupling_ok: bool
    defect_ok: bool
    slope_ok: bool
    deficiency_ok: bool
    deficiency: float
    screened_mass: float
    mass_defect: float
    mass2: float
    amplitude_upper: float
    coupling_margin: float

    @property
    def all_pass(self) -> bool:
        return (self.amplitude_ok and self.coupling_ok and self.defect_ok
                and self.slope_ok and self.deficiency_ok)


def verify_tent_witness(spec: NonlinearSpec, s1: float, r: float, h: float, q: float) -> TentWitnessReport:
    """Check hypotheses and conclusion of the tent-witness construction."""
    if not (0.0 < h < 1.0):
        raise ValueError("retention parameter h must lie in (0, 1)")
    if not q > 0:
        raise ValueError("coupling q must be positive")
    m2 = spec.mass**2

    r_s1 = float(eval_remainder(spec, s1, 0))
    volume_fraction = r**3 / (r + 1.0) ** 3
    upper = 0.5 * s1**2 * ((1.0 + m2 * h**2) * volume_fraction - (1.0 + m2))
    amplitude_ok = (r_s1 >= -0.5 * m2 * s1**2 - 1e-12 * s1**2) and (r_s1 < upper)

    margin = _COUPLING_PREFACTOR * (1.0 - h) / (q * h) - s1 * r
    coupling_ok = margin > 0.0

    tent = TentProfile(s1, r)
    u = tent.realize(tent.default_grid(SCAN_RESOLUTION))
    j, k = deficiency(u, spec, q)
    mass2 = u.mass2
    defect_ok = k - mass2 >= (h**2 - 1.0) * mass2 * (1.0 + 1e-9)

    # the comparison term is rho^2 on the plateau and (r + 1 - rho)^2 rho^2 on the
    # ramp; its peak is r^2 for r >= 1 and ((r + 1)/2)^4, inside the ramp, below
    peak = r**2 if r >= 1.0 else ((r + 1.0) / 2.0) ** 4
    base = SOBOLEV_C3 * (4.0 * np.pi / 3.0) ** (1.0 / 3.0) * (1.0 - h) ** 2 / q**2
    slope_ok = bool(base - 4.0 * np.pi * h**2 * s1**2 * peak > 0.0)

    return TentWitnessReport(
        amplitude_ok=bool(amplitude_ok),
        coupling_ok=bool(coupling_ok),
        defect_ok=bool(defect_ok),
        slope_ok=slope_ok,
        deficiency_ok=bool(j < 0.0),
        deficiency=j,
        screened_mass=k,
        mass_defect=k - mass2,
        mass2=mass2,
        amplitude_upper=float(upper),
        coupling_margin=float(margin),
    )


@dataclass
class ConstructionPlan:
    """Deterministic parameters realizing a soliton of at least the target charge."""

    s1: float
    binding: float            # lambda = W(s1) / (s1^2 / 2), below m^2
    alpha: float              # volume-margin parameter
    h: float                  # screened-mass retention parameter in (0, 1)
    r: float                  # plateau radius after doubling
    q: float                  # gauge coupling from the threshold formula
    sigma: float              # window center m K(u_r), the charge parameter
    charge: float             # verified electric charge q m K(u_r)
    predicted_charge_lb: float
    screened_mass: float
    grid: RadialGrid          # the grid the charge was verified on


def construct_for_charge(spec: NonlinearSpec, charge_target: float) -> ConstructionPlan:
    """Build a verified plan whose electric charge reaches the target.

    The amplitude sits at the deepest binding level on (0, 10], the
    default range of ``find_binding_amplitude``, which is not the deepest
    level overall when the level still falls at 10; alpha is the midpoint
    of (0, (m^2 - lambda)/(m^2 + 1)), below 1 unless lambda <= -(m^2 + 2),
    which raises ValueError; h^2 the midpoint of its admissible interval;
    the starting radius exceeds the volume-fraction threshold by
    ten percent; the coupling is half the screening-control threshold so
    the retention bound holds strictly.  The radius then doubles until the
    verified charge q m K reaches the target (charge grows like r^2, so
    the loop terminates).  A radius whose tent grid has more than
    CONSTRUCT_MAX_NODES nodes raises RuntimeError before any array of
    that grid is built.
    """
    if not 0.0 < charge_target < np.inf:
        raise ValueError(f"charge target must be positive and finite, got {charge_target!r}")
    m2 = spec.mass**2

    s1, lam = find_binding_amplitude(spec)
    if not lam < m2:
        raise ValueError("nonlinearity has no binding amplitude; construction hypotheses fail")
    if not lam > -(m2 + 2.0):  # alpha would reach 1, where the start radius has no real value
        raise ValueError(f"the binding level W/(s^2/2) = {lam:g} at s1 = {s1:g} is at or below -(m^2 + 2)")

    alpha = 0.5 * (m2 - lam) / (m2 + 1.0)
    if not lam < m2 * (1.0 - alpha) - alpha:
        raise InvariantError("alpha midpoint left its admissible range")
    h2_lo = (lam + alpha) / (m2 * (1.0 - alpha))
    h = float(np.sqrt(0.5 * (h2_lo + 1.0)))
    r = 1.1 / ((1.0 - alpha) ** (-1.0 / 3.0) - 1.0)

    while True:
        q = 0.5 * _COUPLING_PREFACTOR * (1.0 - h) / (h * s1 * r)
        tent = TentProfile(s1, r)
        grid = tent.default_grid(CONSTRUCT_RESOLUTION)  # no array of it exists before realize
        if grid.n + 1 > CONSTRUCT_MAX_NODES:
            raise RuntimeError(f"the tent of radius {r:g} needs {grid.n + 1} grid nodes, above CONSTRUCT_MAX_NODES = "
                               f"{CONSTRUCT_MAX_NODES}, before its charge reached the target {charge_target:g}")
        u = tent.realize(grid)
        k, _ = screened_mass(u, q)
        charge = q * spec.mass * k
        if charge >= charge_target:
            break
        r *= 2.0

    predicted = (2.0 * np.pi / 3.0) * _COUPLING_PREFACTOR * spec.mass * h * (1.0 - h) * s1 * r**2
    return ConstructionPlan(
        s1=s1, binding=lam, alpha=alpha, h=h, r=r, q=q,
        sigma=spec.mass * k, charge=charge,
        predicted_charge_lb=predicted,
        screened_mass=k, grid=grid,
    )

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
from typing import Callable, Sequence

import numpy as np

from .functionals import nlkg_deficiency, sigma_window
from .gauge import kgm_functionals
from .grid import RadialGrid, RadialProfile, gradient_sq_integral, integrate_radial
from .minimize import InvariantError
from .model import NonlinearSpec, eval_remainder, find_binding_amplitude

# Best constant c3 with c3 * ||f||_6^2 <= ||grad f||_2^2 on R^3, evaluated
# once as the Rayleigh quotient of the extremal bubble (1 + |x|^2)^(-1/2) by
# radial quadrature truncated at r = 1000 (stable to four digits under grid
# doubling, then rounded down).  Truncation drops a positive tail of the
# gradient norm, so the recorded value sits slightly below the sharp
# constant; any smaller positive value keeps the coupling threshold
# sufficient, so this is sound.
SOBOLEV_C3 = 5.4685

# 48^(1/3) * pi^(2/3), the normalization entering the coupling threshold
_COUPLING_NORM = 48.0 ** (1.0 / 3.0) * np.pi ** (2.0 / 3.0)


def sobolev_constant() -> float:
    """The recorded gradient-to-L6 embedding constant for R^3."""
    return SOBOLEV_C3


def dirichlet_l6_quotient(f: Callable[[np.ndarray], np.ndarray], r_max: float, n: int) -> float:
    """Rayleigh quotient ||grad f||_2^2 / ||f||_6^2 of a radial trial function."""
    grid = RadialGrid(r_max, n)
    vals = np.asarray(f(grid.nodes), dtype=float)
    l6 = integrate_radial(grid, vals**6) ** (1.0 / 3.0)
    return gradient_sq_integral(grid, vals) / l6


def extremal_bubble(r: np.ndarray) -> np.ndarray:
    """The scaling-extremal radial profile (1 + r^2)^(-1/2)."""
    return 1.0 / np.sqrt(1.0 + np.asarray(r, dtype=float) ** 2)


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

    def default_grid(self, resolution: float = 0.02, pad_factor: float = 2.0) -> RadialGrid:
        """Grid on [0, pad_factor (r + 1)] with spacing at most ``resolution``."""
        r_max = pad_factor * (self.r + 1.0)
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
    resolution: float = 0.02,
) -> WindowEstimate:
    """Scan tents, keep negative-deficiency witnesses, return the widest window.

    Every charge strictly inside the returned interval is certified
    admissible; the true window over all profiles can only be wider.  An
    empty result is a failed search, not a nonexistence proof.
    """
    if q < 0:
        raise ValueError("coupling must be nonnegative")
    if len(s1_values) == 0 or len(r_values) == 0:
        raise ValueError("search grid must be nonempty")
    best_low = None
    best_high = None
    wit_low = wit_high = None
    admissible: list[TentProfile] = []
    for s1 in s1_values:
        for r in r_values:
            tent = TentProfile(float(s1), float(r))
            u = tent.realize(tent.default_grid(resolution))
            if q == 0.0:
                j = nlkg_deficiency(u, spec)
                k = u.mass2
            else:
                funcs = kgm_functionals(u, 1.0, q, spec)
                j = funcs.deficiency
                k = funcs.screened_mass
            window = sigma_window(u, spec, mass_override=k, deficiency_override=j)
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


def verify_tent_witness(spec: NonlinearSpec, s1: float, r: float, h: float, q: float,
                        c3: float | None = None, resolution: float = 0.02) -> TentWitnessReport:
    """Check hypotheses and conclusion of the tent-witness construction."""
    if not (0.0 < h < 1.0):
        raise ValueError("retention parameter h must lie in (0, 1)")
    if not q > 0:
        raise ValueError("coupling q must be positive")
    c3 = SOBOLEV_C3 if c3 is None else float(c3)
    m2 = spec.mass**2

    r_s1 = float(eval_remainder(spec, s1, 0))
    volume_fraction = r**3 / (r + 1.0) ** 3
    upper = 0.5 * s1**2 * ((1.0 + m2 * h**2) * volume_fraction - (1.0 + m2))
    amplitude_ok = (r_s1 >= -0.5 * m2 * s1**2 - 1e-12 * s1**2) and (r_s1 < upper)

    margin = np.sqrt(c3 / _COUPLING_NORM) * (1.0 - h) / (q * h) - s1 * r
    coupling_ok = margin > 0.0

    tent = TentProfile(s1, r)
    u = tent.realize(tent.default_grid(resolution))
    funcs = kgm_functionals(u, 1.0, q, spec)
    mass2 = u.mass2
    defect_ok = funcs.mass_defect >= (h**2 - 1.0) * mass2 * (1.0 + 1e-9)

    rho = np.linspace(1e-6, r + 1.0 - 1e-6, 512)
    base = c3 * (4.0 * np.pi / 3.0) ** (1.0 / 3.0) * (1.0 - h) ** 2 / q**2
    slope = np.where(
        rho < r,
        base - 4.0 * np.pi * h**2 * s1**2 * rho**2,
        base - 4.0 * np.pi * h**2 * s1**2 * (r + 1.0 - rho) ** 2 * rho**2,
    )
    slope_ok = bool(np.min(slope) > 0.0)

    deficiency_ok = funcs.deficiency < 0.0

    return TentWitnessReport(
        amplitude_ok=bool(amplitude_ok),
        coupling_ok=bool(coupling_ok),
        defect_ok=bool(defect_ok),
        slope_ok=slope_ok,
        deficiency_ok=bool(deficiency_ok),
        deficiency=funcs.deficiency,
        screened_mass=funcs.screened_mass,
        mass_defect=funcs.mass_defect,
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
    sobolev_c3: float
    screened_mass: float
    grid_nodes: int           # nodes of the radial grid the charge was verified on
    grid_spacing: float       # its node spacing, at most the requested resolution


def construct_for_charge(spec: NonlinearSpec, charge_target: float,
                         c3: float | None = None, r_cap: float = 1e6,
                         resolution: float = 0.05) -> ConstructionPlan:
    """Build a verified plan whose electric charge reaches the target.

    The amplitude sits at the deepest binding level; alpha is the midpoint
    of (0, (m^2 - lambda)/(m^2 + 1)); h^2 the midpoint of its admissible
    interval; the starting radius exceeds the volume-fraction threshold by
    ten percent; the coupling is half the screening-control threshold so
    the retention bound holds strictly.  The radius then doubles until the
    verified charge q m K reaches the target (charge grows like r^2, so
    the loop terminates).
    """
    if not charge_target > 0:
        raise ValueError("charge target must be positive")
    c3 = SOBOLEV_C3 if c3 is None else float(c3)
    m2 = spec.mass**2

    s1, lam = find_binding_amplitude(spec)
    if not lam < m2:
        raise ValueError("nonlinearity has no binding amplitude; construction hypotheses fail")

    alpha = 0.5 * (m2 - lam) / (m2 + 1.0)
    if not lam < m2 * (1.0 - alpha) - alpha:
        raise InvariantError("alpha midpoint left its admissible range")
    h2_lo = (lam + alpha) / (m2 * (1.0 - alpha))
    h = float(np.sqrt(0.5 * (h2_lo + 1.0)))
    r = 1.1 / ((1.0 - alpha) ** (-1.0 / 3.0) - 1.0)

    prefactor = float(np.sqrt(c3 / _COUPLING_NORM))
    while True:
        q = 0.5 * prefactor * (1.0 - h) / (h * s1 * r)
        tent = TentProfile(s1, r)
        grid = tent.default_grid(resolution)
        u = tent.realize(grid)
        funcs = kgm_functionals(u, 1.0, q, spec)
        charge = q * spec.mass * funcs.screened_mass
        if charge >= charge_target:
            break
        if 2.0 * r > r_cap:
            raise RuntimeError(
                f"radius cap {r_cap:g} reached at verified charge {charge:g} < target {charge_target:g}")
        r *= 2.0

    predicted = (2.0 * np.pi / 3.0) * prefactor * spec.mass * h * (1.0 - h) * s1 * r**2
    return ConstructionPlan(
        s1=s1, binding=lam, alpha=alpha, h=h, r=r, q=q,
        sigma=spec.mass * funcs.screened_mass, charge=charge,
        predicted_charge_lb=predicted, sobolev_c3=c3,
        screened_mass=funcs.screened_mass, grid_nodes=grid.n + 1, grid_spacing=grid.h,
    )

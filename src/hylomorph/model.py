"""Nonlinearity families W(s) = m^2 s^2 / 2 + R(s) and their structural checks.

Two parametric families are shipped:

* ``double_well``: W(s) = s^2 (1 - s/s_star)^2 / 2 with unit mass.  It is
  nonnegative, has a second vacuum at s_star, and its remainder behaves
  like -s^3/s_star near zero.
* ``power_deficit``: R(s) = -(a/p) s^p + (b/q) s^q with 2 < p < q < 6,
  the classic subcritical two-power remainder.

The validation report samples the standard structural conditions (zero-point
normalization, nonnegativity, a binding amplitude, subcritical growth of
R'').  Sampled checks are not proofs and are labeled as such.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq, minimize_scalar

FAMILIES = ("double_well", "power_deficit")


@dataclass(frozen=True)
class NonlinearSpec:
    """Immutable description of one nonlinearity W."""

    family: str
    mass: float
    params: tuple[float, ...]

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        if not self.mass > 0:
            raise ValueError("mass must be positive")
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        if self.family == "double_well":
            if len(self.params) != 1 or self.params[0] <= 0:
                raise ValueError("double_well takes a single positive scale s_star")
            if self.mass != 1.0:
                raise ValueError("double_well fixes the mass to 1")
        else:
            if len(self.params) != 4:
                raise ValueError("power_deficit takes (a, b, p, q)")
            a, b, p, q = self.params
            if a <= 0 or b < 0:
                raise ValueError("power_deficit needs a > 0 and b >= 0")
            if not (2.0 < p < q < 6.0):
                raise ValueError("power_deficit exponents must satisfy 2 < p < q < 6")

    @classmethod
    def double_well(cls, s_star: float = 1.0) -> "NonlinearSpec":
        return cls("double_well", 1.0, (s_star,))

    @classmethod
    def power_deficit(cls, a: float, b: float, p: float, q: float, mass: float = 1.0) -> "NonlinearSpec":
        return cls("power_deficit", mass, (a, b, p, q))

    def remainder_powers(self) -> tuple[tuple[float, float], ...]:
        """R(s) as a sum of coef * s^exponent terms (exact for both families)."""
        if self.family == "double_well":
            s_star = self.params[0]
            return ((-1.0 / s_star, 3.0), (0.5 / s_star**2, 4.0))
        a, b, p, q = self.params
        return ((-a / p, p), (b / q, q))

    def power_terms(self) -> tuple[tuple[float, float], ...]:
        """W(s) as coef * s^exponent terms: those of R, then the mass term m^2 s^2 / 2."""
        return self.remainder_powers() + ((0.5 * self.mass**2, 2.0),)


def _check_s(s):
    s = np.asarray(s, dtype=float)
    if np.any(s < 0):
        raise ValueError("the nonlinearity is defined for nonnegative amplitudes only")
    return s


def _power_sum(terms, s, order: int, shift: float = 0.0):
    """The order-th derivative of sum coef * s^k over ``terms``, divided by s^shift.

    ``s`` is not validated here: the public wrappers check it, and the
    leapfrog passes amplitudes that are nonnegative or NaN by construction.
    """
    if order not in (0, 1, 2):
        raise ValueError("order must be 0, 1 or 2")
    out = 0.0
    for coef, k in terms:
        for j in range(order):
            coef *= k - j
        e = k - (order + shift)
        # a term whose exponent drops to 0 is added as a scalar, not an array of ones
        out = out + (coef if e == 0 else coef * s**e)
    return out if np.ndim(out) else float(out)


def eval_remainder(spec: NonlinearSpec, s, order: int = 0):
    """R(s) and its first two derivatives."""
    return _power_sum(spec.remainder_powers(), _check_s(s), order)


def eval_nonlinearity(spec: NonlinearSpec, s, order: int = 0):
    """W(s), W'(s) or W''(s) for nonnegative s (scalar or array)."""
    return _power_sum(spec.power_terms(), _check_s(s), order)


def wprime_over_s(spec: NonlinearSpec, s):
    """The smooth ratio W'(s)/s, equal to m^2 at s = 0."""
    return _power_sum(spec.power_terms(), _check_s(s), 1, 1.0)


def binding_level(spec: NonlinearSpec, s):
    """W(s) / (s^2/2); levels below m^2 certify binding at that amplitude."""
    return 2.0 * _power_sum(spec.power_terms(), _check_s(s), 0, 2.0)


def find_binding_amplitude(spec: NonlinearSpec, s_max: float = 10.0, n_scan: int = 4096) -> tuple[float, float]:
    """Amplitude minimizing W(s)/(s^2/2) on (0, s_max], refined locally.

    Returns (s0, level).  A level below m^2 means R(s0) < 0 with the
    largest relative dip, which is the natural seed for the constructive
    large-charge recipe.
    """
    ss = np.linspace(0.0, s_max, n_scan + 1)[1:]
    levels = binding_level(spec, ss)
    i = int(np.argmin(levels))
    lo = ss[max(0, i - 1)]
    hi = ss[min(len(ss) - 1, i + 1)]
    res = minimize_scalar(lambda s: binding_level(spec, s), bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-12})
    s0 = float(res.x)
    return s0, float(binding_level(spec, s0))


@dataclass
class AssumptionReport:
    """Verdicts of the sampled structural checks for one nonlinearity."""

    mass_normalization: bool
    nonnegative: bool
    nonnegative_violation: float | None
    binding: bool
    binding_witness: float | None
    binding_depth: float | None
    binding_level: float | None
    growth: bool
    growth_constants: tuple[float, float] | None
    growth_exponents: tuple[float, float]
    notes: list[str] = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return self.mass_normalization and self.nonnegative and self.binding and self.growth


def validate_assumptions(spec: NonlinearSpec, s_max: float, n_samples: int = 1000) -> AssumptionReport:
    """Sample the structural conditions on [0, s_max].

    The checks are: W(0) = W'(0) = 0 and W''(0) = m^2; W >= 0 on the
    sample grid; existence of an amplitude with R < 0 (with the witness
    minimizing W(s)/(s^2/2)); and |R''| bounded by c1 s^(p-2) + c2 s^(q-2)
    on the samples with power-law behaviour confirmed near zero.
    """
    if not s_max > 0:
        raise ValueError("s_max must be positive")
    if n_samples < 100:
        raise ValueError("need at least 100 samples")
    notes = ["sampled checks on a finite grid, not exhaustive"]
    m2 = spec.mass**2

    w0 = eval_nonlinearity(spec, 0.0, 0)
    w0p = eval_nonlinearity(spec, 0.0, 1)
    w0pp = eval_nonlinearity(spec, 0.0, 2)
    mass_ok = abs(w0) < 1e-12 and abs(w0p) < 1e-12 and abs(w0pp - m2) < 1e-12 * max(1.0, m2)

    ss = np.linspace(0.0, s_max, n_samples)
    w = eval_nonlinearity(spec, ss, 0)
    tol = 1e-12 * max(1.0, float(np.max(np.abs(w))))
    bad = np.nonzero(w < -tol)[0]
    nonneg_ok = bad.size == 0
    violation = float(ss[bad[0]]) if bad.size else None

    s0, level = find_binding_amplitude(spec, s_max, max(n_samples, 2048))
    binding_ok = level < m2 * (1.0 - 1e-12)
    depth = float(eval_remainder(spec, s0, 0)) if binding_ok else None

    (_, p), (_, q) = spec.remainder_powers()
    pos = np.concatenate((np.geomspace(1e-6, s_max, n_samples), ss[ss > 0]))
    rpp = np.abs(eval_remainder(spec, pos, 2))
    envelope = pos ** (p - 2.0) + pos ** (q - 2.0)
    # 2 percent headroom so the reported constants dominate between samples
    c_unif = 1.02 * float(np.max(rpp / envelope))
    small = np.geomspace(1e-4, min(1e-1, s_max), 64)
    rpp_small = np.abs(eval_remainder(spec, small, 2))
    mask = rpp_small > 0
    if np.count_nonzero(mask) >= 8:
        slope = float(np.polyfit(np.log(small[mask]), np.log(rpp_small[mask]), 1)[0])
    else:
        slope = np.inf
        notes.append("R'' vanishes near zero; growth bound holds trivially there")
    growth_ok = np.isfinite(c_unif) and (slope >= min(p, q) - 2.0 - 0.1 or not np.isfinite(slope))

    return AssumptionReport(
        mass_normalization=bool(mass_ok),
        nonnegative=bool(nonneg_ok),
        nonnegative_violation=violation,
        binding=bool(binding_ok),
        binding_witness=float(s0) if binding_ok else None,
        binding_depth=depth,
        binding_level=float(level) if binding_ok else None,
        growth=bool(growth_ok),
        growth_constants=(c_unif, c_unif) if np.isfinite(c_unif) else None,
        growth_exponents=(float(p), float(q)),
        notes=notes,
    )


@dataclass
class CriteriaReport:
    """Small-charge and second-vacuum classification of one nonlinearity.

    ``small_charge_threshold_vanishes`` reports whether R dips negative
    immediately above zero with |R(s)| ~ s^e for some e < 2 + 4/3; when it
    holds, arbitrarily small charges admit global minimizers.  The test
    implemented is the sufficient one; the converse direction constrains
    the same fitted exponent and adds nothing independently checkable.

    ``second_vacuum`` reports a positive amplitude where W vanishes, the
    degenerate-vacuum situation that removes the lower threshold of the
    local-minimum regime.
    """

    small_charge_threshold_vanishes: str
    small_s_exponent: float
    negative_up_to: float | None
    second_vacuum: str
    second_vacuum_witness: float | None
    second_vacuum_value: float | None
    notes: list[str] = field(default_factory=list)


_EXPONENT_BOUND = 2.0 + 4.0 / 3.0
_EXPONENT_MARGIN = 0.1
_CRITERIA_S_MAX = 10.0  # upper end of the amplitude scans behind the classification


def classify_charge_criteria(spec: NonlinearSpec) -> CriteriaReport:
    """Classify the admissible-charge behaviour of a validated nonlinearity."""
    notes: list[str] = []

    scan = np.geomspace(1e-6, _CRITERIA_S_MAX, 4096)
    r_scan = eval_remainder(spec, scan, 0)
    neg = r_scan < 0
    if not neg[0]:
        alpha = None
    else:
        flips = np.nonzero(~neg)[0]
        alpha = float(scan[flips[0] - 1]) if flips.size else _CRITERIA_S_MAX

    fit_s = np.geomspace(1e-4, 1e-1, 64)
    r_fit = np.abs(eval_remainder(spec, fit_s, 0))
    mask = r_fit > 0
    if np.count_nonzero(mask) >= 8 and alpha is not None:
        exponent = float(np.polyfit(np.log(fit_s[mask]), np.log(r_fit[mask]), 1)[0])
        if exponent < _EXPONENT_BOUND - _EXPONENT_MARGIN:
            small_verdict = "holds"
        elif exponent > _EXPONENT_BOUND + _EXPONENT_MARGIN:
            small_verdict = "fails"
        else:
            small_verdict = "inconclusive"
            notes.append("fitted small-s exponent sits at the decision boundary")
    else:
        exponent = np.inf
        small_verdict = "fails"
        if alpha is None:
            notes.append("R is not negative immediately above zero")

    witness, value, verdict = _find_second_vacuum(spec)
    if verdict == "inconclusive":
        notes.append("W minimum is near zero but outside tolerance; refine the parameters")

    return CriteriaReport(
        small_charge_threshold_vanishes=small_verdict,
        small_s_exponent=exponent,
        negative_up_to=alpha,
        second_vacuum=verdict,
        second_vacuum_witness=witness,
        second_vacuum_value=value,
        notes=notes,
    )


def _find_second_vacuum(spec: NonlinearSpec) -> tuple[float | None, float | None, str]:
    """Zero of W at positive amplitude, located through the binding level
    W/(s^2/2) so the trivial vacuum at zero cannot masquerade as a witness."""
    ss = np.linspace(0.0, _CRITERIA_S_MAX, 8192)[1:]
    w = eval_nonlinearity(spec, ss, 0)
    sign_change = np.nonzero(np.sign(w[:-1]) * np.sign(w[1:]) < 0)[0]
    if sign_change.size:
        i = sign_change[0]
        s1 = float(brentq(lambda s: eval_nonlinearity(spec, s, 0), ss[i], ss[i + 1], xtol=1e-14))
        return s1, float(eval_nonlinearity(spec, s1, 0)), "holds"
    s1, level = find_binding_amplitude(spec, _CRITERIA_S_MAX)
    m2 = spec.mass**2
    if abs(level) < 1e-9 * m2:
        return s1, float(eval_nonlinearity(spec, s1, 0)), "holds"
    if abs(level) < 1e-5 * m2:
        return s1, float(eval_nonlinearity(spec, s1, 0)), "inconclusive"
    return None, None, "fails"

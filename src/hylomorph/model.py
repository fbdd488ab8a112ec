"""Nonlinearity families W(s) = m^2 s^2 / 2 + R(s) and their structural checks.

Two parametric families are shipped:

* ``double_well``: W(s) = s^2 (1 - s/s_star)^2 / 2 with unit mass.  It is
  nonnegative, has a second vacuum at s_star, and its remainder behaves
  like -s^3/s_star near zero.
* ``power_deficit``: R(s) = -(a/p) s^p + (b/q) s^q with 2 < p < q < 6,
  the classic subcritical two-power remainder.

Both remainders are two power terms R(s) = c_p s^p + c_q s^q with
c_p < 0 <= c_q and 2 < p < q, which ``NonlinearSpec`` enforces.  The
binding level W(s)/(s^2/2) = m^2 + 2 c_p s^(p-2) + 2 c_q s^(q-2) therefore
falls from m^2, turns up at most once and is back at m^2 at the zero of R
(``remainder_zero``), so the structural checks (zero-point normalization,
nonnegativity, a binding amplitude, subcritical growth of R'') and the
charge criteria are exact for both families: they are read from the two
terms, not sampled, with no cap on the amplitude.  The one
numeric step is a crossing of the level (``_level_crossing``, a bracketed
root): the zero of W and the ends of the shooting oracle's scan.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

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
        (c_p, _), (c_q, _) = self.remainder_powers()
        if not -np.inf < c_p < 0.0 <= c_q < np.inf:
            raise ValueError("the remainder must be c_p s^p + c_q s^q with finite c_p < 0 <= c_q")

    @classmethod
    def double_well(cls, s_star: float = 1.0) -> "NonlinearSpec":
        return cls("double_well", 1.0, (s_star,))

    @classmethod
    def power_deficit(cls, a: float, b: float, p: float, q: float, mass: float = 1.0) -> "NonlinearSpec":
        return cls("power_deficit", mass, (a, b, p, q))

    def remainder_powers(self) -> tuple[tuple[float, float], ...]:
        """R(s) = c_p s^p + c_q s^q as ((c_p, p), (c_q, q)), with c_p < 0 <= c_q and 2 < p < q."""
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
        if coef == 0.0:
            continue  # 0 * s^k would be nan where s^k overflows
        for j in range(order):
            coef *= k - j
        e = k - (order + shift)
        # a term whose exponent drops to 0 is added as a scalar, not an array of ones
        out = out + (coef if e == 0 else coef * _power(s, e))
    return out if np.ndim(out) else float(out)


def _power(s, e: float):
    """s^e, as products for the integral exponents 1 to 4, where a float power costs over twice as much."""
    if e == 1:
        return s
    if e not in (2, 3, 4):
        return s**e
    out = s * s
    if e == 3:
        out *= s
    elif e == 4:
        out *= out
    return out


def eval_remainder(spec: NonlinearSpec, s, order: int = 0):
    """R(s) and its first two derivatives."""
    return _power_sum(spec.remainder_powers(), _check_s(s), order)


def eval_nonlinearity(spec: NonlinearSpec, s, order: int = 0):
    """W(s), W'(s) or W''(s) for nonnegative s (scalar or array)."""
    return _power_sum(spec.power_terms(), _check_s(s), order)


def binding_level(spec: NonlinearSpec, s):
    """W(s) / (s^2/2); levels below m^2 certify binding at that amplitude."""
    return 2.0 * _power_sum(spec.power_terms(), _check_s(s), 0, 2.0)


def find_binding_amplitude(spec: NonlinearSpec, s_max: float = 10.0) -> tuple[float, float]:
    """Amplitude s0 minimizing the level W(s)/(s^2/2) on (0, s_max], and that level.

    The level m^2 + 2 c_p s^(p-2) + 2 c_q s^(q-2) falls from m^2 and turns
    up at most once, at s_c = (-c_p (p-2) / (c_q (q-2)))^(1/(q-p)), so s0 is
    min(s_c, s_max), or s_max when c_q = 0.  A level below m^2 means
    R(s0) < 0 with the largest relative dip, which is the natural seed for
    the constructive large-charge recipe.
    """
    if not 0.0 < s_max < np.inf:
        raise ValueError(f"s_max must be positive and finite, got {s_max!r}")
    (c_p, p), (c_q, q) = spec.remainder_powers()
    # the level's slope has the sign of c_q (q-2) s^(q-p) + c_p (p-2): read it at
    # s_max in logs, which cannot overflow, before taking the power for s_c
    if c_q == 0.0 or (math.log(c_q) + math.log(q - 2.0) + (q - p) * math.log(s_max)
                      <= math.log(-c_p) + math.log(p - 2.0)):
        s0 = float(s_max)
    else:
        s0 = min((-c_p * (p - 2.0) / (c_q * (q - 2.0))) ** (1.0 / (q - p)), float(s_max))
    with np.errstate(over="ignore", invalid="ignore"):
        level = float(binding_level(spec, s0))
    if not np.isfinite(level):
        raise ValueError(f"W/(s^2/2) overflows at s = {s0:g}; lower s_max")
    return s0, level


_LOG_TINY, _LOG_MAX = math.log(sys.float_info.min), math.log(sys.float_info.max)  # the normal floats


def remainder_zero(spec: NonlinearSpec) -> float:
    """alpha = (-c_p/c_q)^(1/(q-p)), where R turns positive and the level is back
    at m^2; inf when c_q = 0.  Read first in logs, which cannot overflow, so a
    zero past the largest float raises ValueError, and one below the smallest
    normal float is 0: R > 0 at every normal amplitude."""
    (c_p, p), (c_q, q) = spec.remainder_powers()
    if c_q == 0.0:
        return math.inf
    log_ratio = math.log(-c_p) - math.log(c_q)
    log_zero = log_ratio / (q - p)
    if log_zero <= _LOG_TINY:
        return 0.0
    if log_zero >= _LOG_MAX:
        raise ValueError(f"the zero of R, (-c_p/c_q)^(1/(q-p)) = exp({log_zero:.6g}) with -c_p/c_q = "
                         f"exp({log_ratio:.6g}), leaves float range")
    if not _LOG_TINY < log_ratio < _LOG_MAX:
        return math.exp(log_zero)  # the quotient leaves float range, its root does not
    return (-c_p / c_q) ** (1.0 / (q - p))


def _level_turn(spec: NonlinearSpec) -> tuple[float, float, float]:
    """(alpha, s_c, level at s_c) = (alpha, *find_binding_amplitude(spec, alpha)),
    alpha the zero of R; ValueError when c_q = 0 or either leaves float range.

    s_c = alpha ((p-2)/(q-2))^(1/(q-p)) can lie below the normal floats
    (always when alpha does), where the level would read m^2 at s = 0.
    Its dip there, -2 c_p s_c^(p-2) (q-p)/(q-2), is read in logs: within
    the level's round-off at s = 0 the turn is (alpha, 0, m^2); a deeper
    dip (binding, and maybe a zero of W, below the normal floats) raises
    ValueError."""
    alpha = remainder_zero(spec)
    if alpha == math.inf:
        raise ValueError("W is unbounded below (c_q = 0): the level has no turn and no outer zero")
    (c_p, p), (c_q, q) = spec.remainder_powers()
    log_s_c = (math.log(-c_p) + math.log(p - 2.0) - math.log(c_q) - math.log(q - 2.0)) / (q - p)
    if log_s_c <= _LOG_TINY:
        log_dip = math.log(2.0 * (q - p) / (q - 2.0)) + math.log(-c_p) + (p - 2.0) * log_s_c
        if log_dip > math.log(_level_roundoff(spec, 0.0)):
            raise ValueError(f"the level W/(s^2/2) of {spec} dips exp({log_dip:.6g}) below m^2 at its "
                             f"turn s_c = exp({log_s_c:.6g}), below the normal floats")
        return alpha, 0.0, spec.mass**2
    try:
        return (alpha, *find_binding_amplitude(spec, alpha))
    except ValueError:
        # alpha is positive and finite, so the level itself overflows
        raise ValueError(f"the level W/(s^2/2) of {spec} overflows below the zero of R at s = {alpha:g}") from None


def _level_roundoff(spec: NonlinearSpec, s: float) -> float:
    """Bound on the round-off of the level at s: 1e-12 times the magnitudes of its three terms."""
    return 2e-12 * _power_sum([(abs(c), k) for c, k in spec.power_terms()], np.float64(s), 0, 2.0)


def _bracketed_root(f: Callable[[float], float], lo: float, f_lo: float, hi: float, f_hi: float,
                    xtol: float) -> tuple[float, float]:
    """Close the bracket [lo, hi] of a sign change of f to a width of at most
    xtol + 4 eps |x|, x the end with the smaller |f|, the closing rule of
    scipy's ``brentq``.

    f_lo and f_hi are f at the ends, of opposite signs in either order;
    each returned end keeps the sign of the end it replaces (an exact zero
    counts with the nonnegative end).  Brent-Dekker steps: inverse
    quadratic interpolation through the best end, the other end and the
    previous best point, regula falsi when those three values are not
    distinct or the interpolant leaves the bracket.  Every probe lies
    strictly inside the bracket, at least a quarter of the closing width
    from either end, so the loop closes for every positive finite xtol;
    after two probes in a row that fail to halve the bracket the next
    probe is the midpoint, so every three probes at least halve it.
    """
    if not 0.0 < xtol < math.inf:
        raise ValueError(f"xtol must be positive and finite, got {xtol!r}")
    if not (lo < hi and (f_lo < 0.0 < f_hi or f_hi < 0.0 < f_lo)):
        raise ValueError(f"no bracket: f({lo!r}) = {f_lo!r} and f({hi!r}) = {f_hi!r}")
    rising = f_lo < 0.0
    a = fa = None  # the previous best end
    slow = 0
    while True:
        width = hi - lo
        if abs(f_lo) <= abs(f_hi):
            b, fb, c, fc = lo, f_lo, hi, f_hi
        else:
            b, fb, c, fc = hi, f_hi, lo, f_lo
        tol = xtol + 4.0 * sys.float_info.epsilon * abs(b)
        if width <= tol:
            return lo, hi
        if slow >= 2:
            x = 0.5 * (lo + hi)
        else:
            x = b - fb * (c - b) / (fc - fb)
            if fa is not None and fa != fb and fa != fc:
                # ratios first: products of tiny values would underflow
                iqi = (a * fb / (fa - fb) * fc / (fa - fc)
                       + b * fa / (fb - fa) * fc / (fb - fc)
                       + c * fa / (fc - fa) * fb / (fc - fb))
                if lo < iqi < hi:
                    x = iqi
        x = min(max(x, lo + 0.25 * tol), hi - 0.25 * tol)
        fx = f(x)
        a, fa = b, fb
        if (fx < 0.0) == rising:
            lo, f_lo = x, fx
        else:
            hi, f_hi = x, fx
        slow = slow + 1 if hi - lo > 0.5 * width else 0


def _level_crossing(spec: NonlinearSpec, level: float, s_lo: float, s_hi: float) -> float:
    """The amplitude in [s_lo, s_hi], whose ends lie on either side of
    ``level``, where the level W/(s^2/2) crosses it.

    The crossing is bracketed in t = s^(p-2): there the level
    m^2 + 2 c_p t + 2 c_q t^((q-2)/(p-2)) is convex and finite in slope at
    t = 0, where in s it is steep and the zero of W can sit at s ~ 1e-60.
    With p close to 2 it can lie below the smallest normal double and come
    back as 0 or a subnormal.  The bracket closes to 1e-300 + 4 eps t, and
    the end nearer the level is the crossing.
    """
    (_, p), _ = spec.remainder_powers()

    def gap(t: float) -> float:
        return binding_level(spec, t ** (1.0 / (p - 2.0))) - level

    t_lo, t_hi = s_lo ** (p - 2.0), s_hi ** (p - 2.0)
    ends = _bracketed_root(gap, t_lo, gap(t_lo), t_hi, gap(t_hi), 1e-300)
    return float(min(ends, key=lambda t: abs(gap(t))) ** (1.0 / (p - 2.0)))


def _zero_of_w(spec: NonlinearSpec) -> tuple[float, float, float | None]:
    """(s_b, the level at s_b, W's first zero at positive amplitude or None when W > 0).

    s_b is the level's turn s_c (``_level_turn``; 0, with the level m^2,
    when s_c underflows and the level's dip there is round-off) or, where
    ``_level_turn`` raises, the probe t = s^(p-2) = m^2/(-c_p) clipped to
    [1, max/2], where W and the round trip s -> t -> s stay finite.  A probe level that is not negative raises ValueError naming
    the turn's failure, unless c_q = 0, where a positive one leaves the
    zero past the floats: inf.  A level at s_b within ``_level_roundoff``
    makes s_b the zero; a lower one, the level's crossing of 0 below s_b.
    """
    (c_p, p), (c_q, _) = spec.remainder_powers()
    try:
        _, s_b, level = _level_turn(spec)
    except ValueError as turn_error:
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            probe = float(np.float64(spec.mass**2 / -c_p) ** (1.0 / (p - 2.0)))
            s_b = min(max(probe, 1.0), 0.5 * sys.float_info.max)
            level = float(binding_level(spec, s_b))
        if not (level < 0.0 or c_q == 0.0):
            raise ValueError(f"the level of {spec} is {level!r}, not negative, at the probe s = {s_b!r}, "
                             f"and at its turn: {turn_error}") from None
    tol = _level_roundoff(spec, s_b)
    if level > tol:
        return s_b, level, math.inf if c_q == 0.0 else None
    return s_b, level, s_b if level >= -tol else _level_crossing(spec, 0.0, 0.0, s_b)


@dataclass
class AssumptionReport:
    """Verdicts of the structural checks for one nonlinearity."""

    mass_normalization: bool
    nonnegative: bool
    nonnegative_violation: float | None
    binding: bool
    binding_witness: float | None
    binding_depth: float | None
    binding_level: float | None
    growth: bool
    growth_constants: tuple[float, float]
    growth_exponents: tuple[float, float]

    @property
    def all_pass(self) -> bool:
        return self.mass_normalization and self.nonnegative and self.binding and self.growth


def validate_assumptions(spec: NonlinearSpec) -> AssumptionReport:
    """Check the structural conditions at every amplitude from the two power terms of R.

    The checks are: W(0) = W'(0) = 0 and W''(0) = m^2; W >= 0, failing
    exactly when W changes sign, and R < 0, both read at ``_zero_of_w``'s
    s_b.  A violation's witness is W's zero, s_b (where W < 0) when that
    zero underflows, inf when it lies past the largest float.  The growth
    bound is |R''(s)| <= |c_p| p (p-1) s^(p-2) + |c_q| q (q-1) s^(q-2), q < 6.
    """
    s_b, level, zero = _zero_of_w(spec)
    m2 = spec.mass**2

    w0 = eval_nonlinearity(spec, 0.0, 0)
    w0p = eval_nonlinearity(spec, 0.0, 1)
    w0pp = eval_nonlinearity(spec, 0.0, 2)
    mass_ok = abs(w0) < 1e-12 and abs(w0p) < 1e-12 and abs(w0pp - m2) < 1e-12 * max(1.0, m2)

    (c_p, p), (c_q, q) = spec.remainder_powers()
    nonneg_ok = zero is None or zero == s_b  # W touching 0 at its turn (the double well) keeps its sign
    binding_ok = level < m2 * (1.0 - 1e-12)
    violation = None if nonneg_ok else zero if zero >= np.finfo(float).tiny else s_b
    with np.errstate(over="ignore"):
        depth = float(eval_remainder(spec, s_b, 0))

    return AssumptionReport(
        mass_normalization=bool(mass_ok),
        nonnegative=bool(nonneg_ok),
        nonnegative_violation=violation,
        binding=bool(binding_ok),
        binding_witness=s_b if binding_ok else None,
        binding_depth=depth if binding_ok else None,
        binding_level=level if binding_ok else None,
        growth=2.0 < p < q < 6.0,
        growth_constants=(-c_p * p * (p - 1.0), c_q * q * (q - 1.0)),
        growth_exponents=(p, q),
    )


@dataclass
class CriteriaReport:
    """Small-charge and second-vacuum classification of one nonlinearity.

    ``small_charge_threshold_vanishes`` reports whether R dips negative
    immediately above zero with |R(s)| ~ s^e for some e < 2 + 4/3; when it
    holds, arbitrarily small charges admit global minimizers.  The test
    implemented is the sufficient one; the converse direction constrains
    the same exponent and adds nothing independently checkable.

    ``second_vacuum`` reports a positive amplitude where W vanishes, the
    degenerate-vacuum situation that removes the lower threshold of the
    local-minimum regime.
    """

    small_charge_threshold_vanishes: str
    small_s_exponent: float
    negative_up_to: float
    second_vacuum: str
    second_vacuum_witness: float | None
    second_vacuum_value: float | None
    notes: list[str] = field(default_factory=list)


_EXPONENT_BOUND = 2.0 + 4.0 / 3.0


def classify_charge_criteria(spec: NonlinearSpec) -> CriteriaReport:
    """Classify the admissible-charge behaviour of a validated nonlinearity.

    R = s^p (c_p + c_q s^(q-p)) with c_p < 0 is negative on (0, alpha),
    alpha = ``remainder_zero(spec)`` (inf past the largest float, 0 below
    the smallest normal one), and |R| ~ |c_p| s^p near zero, so the
    small-s exponent is p; it is compared with 2 + 4/3 exactly.  The
    second vacuum is W's first zero at positive amplitude, from
    ``_zero_of_w``, which raises ValueError where it cannot place it.
    """
    (_, p), _ = spec.remainder_powers()
    _, _, witness = _zero_of_w(spec)
    try:
        alpha = remainder_zero(spec)
    except ValueError:  # the level is negative at the probe, so R's zero overflows
        alpha = math.inf
    notes: list[str] = []
    small = "holds" if p < _EXPONENT_BOUND else "fails" if p > _EXPONENT_BOUND else "inconclusive"
    if small == "inconclusive":
        notes.append("small-s exponent sits at the decision boundary 2 + 4/3")

    if witness is None:
        return CriteriaReport(small, p, alpha, "fails", None, None, notes)
    with np.errstate(over="ignore", invalid="ignore"):  # W's terms can overflow at a far zero
        value = float(eval_nonlinearity(spec, witness, 0)) if witness < np.inf else None
    vacuum = "holds" if 0.0 < witness < np.inf else "inconclusive"
    if vacuum == "inconclusive":
        # a zero of W below the smallest double comes back as 0, the trivial
        # vacuum; one past the probe's cap as inf
        notes.append(f"zero of W at s = {witness!r} is not a positive, finite amplitude")
    return CriteriaReport(small, p, alpha, vacuum, witness, value, notes)

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hylomorph.model import (
    NonlinearSpec,
    _bracketed_root,
    _level_crossing,
    _power_sum,
    binding_level,
    classify_charge_criteria,
    eval_nonlinearity,
    eval_remainder,
    find_binding_amplitude,
    validate_assumptions,
)


def wprime_over_s(spec, s):
    """W'(s)/s as the leapfrog evaluates it."""
    return _power_sum(spec.power_terms(), s, 1, 1.0)


@pytest.fixture
def dw():
    return NonlinearSpec.double_well()


def test_double_well_values(dw):
    assert eval_nonlinearity(dw, 0.0, 0) == 0.0
    assert eval_nonlinearity(dw, 1.0, 0) == 0.0
    assert eval_nonlinearity(dw, 1.0, 1) == 0.0
    # W'(s) = s(1-s)(1-2s)
    s = 0.7
    assert eval_nonlinearity(dw, s, 1) == pytest.approx(s * (1 - s) * (1 - 2 * s), rel=1e-14)


def test_remainder_decomposition_exact(dw):
    s = np.linspace(0.0, 3.0, 257)
    w = eval_nonlinearity(dw, s, 0)
    r = eval_remainder(dw, s, 0)
    assert np.allclose(w - 0.5 * s**2, r, rtol=0, atol=1e-14)


def test_derivatives_match_finite_differences(dw):
    hs = 1e-5
    for s in np.linspace(0.1, 2.0, 20):
        fd = (eval_nonlinearity(dw, s + hs, 0) - eval_nonlinearity(dw, s - hs, 0)) / (2 * hs)
        an = eval_nonlinearity(dw, s, 1)
        assert abs(fd - an) < 1e-6 * max(1.0, abs(an))


specs = st.one_of(
    st.builds(NonlinearSpec.double_well, st.floats(0.3, 3.0)),
    st.builds(lambda a, b, p, dq, m: NonlinearSpec.power_deficit(a, b, p, min(p + dq, 5.99), mass=m),
              st.floats(0.1, 3.0), st.just(0.0) | st.floats(0.0, 3.0), st.floats(2.05, 5.5),
              st.floats(0.05, 3.0), st.floats(0.5, 2.0)))


@settings(max_examples=200, deadline=None)
@given(specs, st.floats(0.0, 3.0))
def test_power_sum_identities(spec, s):
    m2 = spec.mass**2
    w, w1, w2 = (eval_nonlinearity(spec, s, order) for order in (0, 1, 2))
    # sums of the term magnitudes bound the round-off of each evaluation
    mag0 = sum(abs(c) * s**k for c, k in spec.power_terms())
    mag1 = sum(abs(c * k) * s ** (k - 1.0) for c, k in spec.power_terms())
    mag2 = sum(abs(c * k * (k - 1.0)) * s ** (k - 2.0) for c, k in spec.power_terms())
    assert abs(w - eval_remainder(spec, s, 0) - 0.5 * m2 * s**2) <= 1e-14 * mag0
    assert abs(s * wprime_over_s(spec, s) - w1) <= 1e-14 * mag1
    assert abs(0.5 * s**2 * binding_level(spec, s) - w) <= 1e-14 * mag0
    if s > 1e-6:
        hs = 1e-4 * s
        fd = (eval_nonlinearity(spec, s + hs, 1) - eval_nonlinearity(spec, s - hs, 1)) / (2.0 * hs)
        assert abs(fd - w2) <= 1e-6 * mag2


def test_negative_amplitude_rejected(dw):
    with pytest.raises(ValueError):
        eval_nonlinearity(dw, -0.1, 0)


def test_wprime_over_s_smooth_at_zero(dw):
    assert wprime_over_s(dw, 0.0) == pytest.approx(1.0)
    pd = NonlinearSpec.power_deficit(1.0, 1.0, 3.0, 4.0)
    assert wprime_over_s(pd, 0.0) == pytest.approx(1.0)


def test_power_deficit_parameter_validation():
    with pytest.raises(ValueError):
        NonlinearSpec.power_deficit(1.0, 0.0, 2.0, 4.0)  # p must exceed 2
    with pytest.raises(ValueError):
        NonlinearSpec.power_deficit(1.0, 0.0, 4.0, 6.0)  # q must stay below 6
    with pytest.raises(ValueError):
        NonlinearSpec.power_deficit(-1.0, 0.0, 3.0, 4.0)


def test_validate_double_well_all_pass(dw):
    report = validate_assumptions(dw, s_max=3.0)
    assert report.all_pass
    # the binding witness sits at the second vacuum with R(1) = -1/2
    assert report.binding_witness == pytest.approx(1.0, abs=1e-6)
    assert report.binding_depth == pytest.approx(-0.5, abs=1e-9)
    assert report.binding_level == pytest.approx(0.0, abs=1e-9)


def test_validate_power_deficit_without_repulsion_fails_nonnegativity():
    # R(s) = -s^4/4 dips below -s^2/2 past sqrt(2)
    spec = NonlinearSpec.power_deficit(1.0, 0.0, 4.0, 5.0)
    report = validate_assumptions(spec, s_max=3.0)
    assert not report.nonnegative
    assert report.nonnegative_violation == pytest.approx(np.sqrt(2.0), rel=1e-14)
    assert eval_nonlinearity(spec, 1.4, 0) > 0 > eval_nonlinearity(spec, 1.45, 0)


def test_violation_witness_is_a_normal_amplitude_where_w_is_negative():
    # p this close to 2 puts the zero of W below the smallest normal double;
    # the violation witness is then s0 itself, where the level is negative,
    # while the second-vacuum witness stays a zero of W
    spec = NonlinearSpec.power_deficit(2.30, 0.0, 2.000214, 2.2133, mass=0.68)
    report = validate_assumptions(spec, 3338.0)
    s0, level = find_binding_amplitude(spec, 3338.0)
    assert not report.nonnegative and level < 0.0
    assert report.nonnegative_violation == s0 >= np.finfo(float).tiny
    assert eval_nonlinearity(spec, report.nonnegative_violation, 0) < 0.0
    assert classify_charge_criteria(spec).second_vacuum_value == 0.0


def test_second_vacuum_underflowed_to_zero_is_inconclusive():
    # the zero of W lies below the smallest double and comes back as 0, the
    # trivial vacuum, which cannot witness a second one
    spec = NonlinearSpec.power_deficit(2.30, 0.0, 2.000214, 2.2133, mass=0.68)
    report = classify_charge_criteria(spec)
    assert report.second_vacuum_witness == 0.0
    assert report.second_vacuum == "inconclusive"
    assert any("not a positive, finite amplitude" in note for note in report.notes)


def test_validate_preconditions(dw):
    with pytest.raises(ValueError):
        validate_assumptions(dw, s_max=0.0)
    with pytest.raises(ValueError, match="s_max"):
        validate_assumptions(dw, s_max=np.inf)
    # W(s) = s^2/2 - s^4/4 overflows long before s = 1e200
    with pytest.raises(ValueError, match="s_max"):
        validate_assumptions(NonlinearSpec.power_deficit(1.0, 0.0, 4.0, 5.0), s_max=1e200)


def test_binding_amplitude_refinement(dw):
    # the level 1 - 2 s + s^2 turns up at s_c = 1 exactly
    assert find_binding_amplitude(dw) == (1.0, 0.0)


def test_classify_double_well(dw):
    report = classify_charge_criteria(dw)
    # R ~ -s^3 near zero: exponent 3 = 2 + 1 with 1 inside (0, 4/3)
    assert report.small_charge_threshold_vanishes == "holds"
    assert report.small_s_exponent == pytest.approx(3.0, abs=0.05)
    assert report.negative_up_to > 0.5
    # W(1) = 0 is the degenerate second vacuum
    assert report.second_vacuum == "holds"
    assert report.second_vacuum_witness == pytest.approx(1.0, abs=1e-5)
    assert abs(report.second_vacuum_value) < 1e-10


def test_classify_power_deficit():
    spec = NonlinearSpec.power_deficit(1.0, 1.0, 3.0, 4.0)
    report = classify_charge_criteria(spec)
    assert report.small_charge_threshold_vanishes == "holds"
    assert report.small_s_exponent == pytest.approx(3.0, abs=0.05)
    # W = s^2/2 - s^3/3 + s^4/4 is strictly positive for s > 0
    assert report.second_vacuum == "fails"


def test_growth_check_constants(dw):
    report = validate_assumptions(dw, s_max=3.0)
    c1, c2 = report.growth_constants
    p, q = report.growth_exponents
    s = np.linspace(1e-3, 3.0, 400)
    envelope = c1 * s ** (p - 2) + c2 * s ** (q - 2)
    assert np.all(np.abs(eval_remainder(dw, s, 2)) <= envelope * (1 + 1e-9))


@settings(max_examples=200, deadline=None)
@given(specs, st.floats(-0.3, 6.0).map(lambda e: 10.0**e))
@example(NonlinearSpec.double_well(), 5000.0)
@example(NonlinearSpec.power_deficit(1.0, 9.05e-235, 3.0, 3.05), 1e6)
def test_exact_checks_match_dense_samples(spec, s_max):
    m2 = spec.mass**2
    (c_p, p), (c_q, q) = spec.remainder_powers()

    def magnitude(s):
        # the sum of the level's term magnitudes bounds its round-off
        return m2 - 2.0 * c_p * s ** (p - 2.0) + 2.0 * c_q * s ** (q - 2.0)

    ss = np.geomspace(1e-12 * s_max, s_max, 200_001)
    levels = binding_level(spec, ss)
    s0, level = find_binding_amplitude(spec, s_max)
    assert 0.0 < s0 <= s_max
    i = int(np.argmin(levels))
    assert level <= levels[i] + 1e-12 * magnitude(ss[i])

    report = validate_assumptions(spec, s_max)
    w = eval_nonlinearity(spec, ss, 0)
    assert report.nonnegative == bool(np.all(w >= -1e-12 * 0.5 * ss**2 * magnitude(ss)))
    if not report.nonnegative:
        z = report.nonnegative_violation
        assert 0.0 < z < s0
        assert abs(binding_level(spec, z)) <= 1e-12 * magnitude(z)


@settings(max_examples=100, deadline=None)
@given(st.floats(0.1, 3.0), st.just(0.0) | st.floats(0.0, 3.0), st.floats(2.05, 5.5), st.floats(0.05, 3.0),
       st.floats(0.5, 2.0), st.floats(-0.3, 6.0).map(lambda e: 10.0**e))
def test_zero_of_w_matches_brentq(a, b, p, dq, mass, s_max):
    """The shared bracketed root finds the zero of W in t = s^(p-2) where
    scipy's brentq does, to 4 eps relative beyond the band of t in which the
    level's round-off hides its sign, and holds its bracket in either sign
    orientation."""
    from scipy.optimize import brentq

    spec = NonlinearSpec.power_deficit(a, b, p, min(p + dq, 5.99), mass=mass)
    s0, level = find_binding_amplitude(spec, s_max)
    assume(level < 0.0)
    (c_p, p), (c_q, q) = spec.remainder_powers()
    k = (q - 2.0) / (p - 2.0)
    eps = np.finfo(float).eps

    def g(t: float) -> float:
        return binding_level(spec, t ** (1.0 / (p - 2.0)))

    t_hi = s0 ** (p - 2.0)
    ref = brentq(g, 0.0, t_hi, xtol=1e-300)
    # the level's round-off, eps times the sum of its term magnitudes, over its slope
    band = 4.0 * eps * ((mass**2 - 2.0 * c_p * ref + 2.0 * c_q * ref**k)
                        / abs(2.0 * c_p + 2.0 * c_q * k * ref ** (k - 1.0)))
    for sign in (1.0, -1.0):
        def f(t: float) -> float:
            return sign * g(t)

        f_lo, f_hi = f(0.0), f(t_hi)
        lo, hi = _bracketed_root(f, 0.0, f_lo, t_hi, f_hi, 1e-300)
        assert 0.0 <= lo < hi <= t_hi
        assert hi - lo <= 1e-300 + 4.0 * eps * hi
        # each end keeps the sign of the end it replaced; a zero counts as nonnegative
        assert (f(lo) < 0.0) == (f_lo < 0.0) and (f(hi) < 0.0) == (f_hi < 0.0)
        best = min((lo, hi), key=lambda t: abs(g(t)))
        assert abs(best - ref) <= 4.0 * eps * ref + band
    rel = (4.0 * eps * ref + band) / ref / (p - 2.0) + 4.0 * eps
    assert _level_crossing(spec, 0.0, 0.0, s0) == pytest.approx(ref ** (1.0 / (p - 2.0)), rel=rel, abs=0.0)


def test_bracketed_root_rejects_an_open_bracket():
    with pytest.raises(ValueError, match="no bracket"):
        _bracketed_root(lambda x: x, 1.0, 1.0, 2.0, 2.0, 1e-12)
    with pytest.raises(ValueError, match="no bracket"):
        _bracketed_root(lambda x: x, 1.0, -1.0, 0.0, 1.0, 1e-12)


@pytest.mark.parametrize("xtol, root, lo, hi", [
    # below the float spacing of the root (9.1e-13 near 5957) the bracket never closes
    (1e-12 - 4.0 * np.finfo(float).eps * 7000.0, 5957.049290208415, 5000.0, 7000.0),
    # a closing width of 4 eps |root| = 0 that halving can only approach among the subnormals
    (0.0, 5e-324, 0.0, 1.0),
    (np.inf, 0.5, 0.0, 1.0),
    (np.nan, 0.5, 0.0, 1.0),
])
def test_bracketed_root_rejects_a_width_it_cannot_close(xtol, root, lo, hi):
    with pytest.raises(ValueError, match="xtol"):
        _bracketed_root(lambda x: x - root, lo, lo - root, hi, hi - root, xtol)

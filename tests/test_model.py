import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hylomorph.model import (
    NonlinearSpec,
    _bracketed_root,
    _level_crossing,
    _level_roundoff,
    _level_turn,
    _zero_of_w,
    _power_sum,
    binding_level,
    classify_charge_criteria,
    eval_nonlinearity,
    eval_remainder,
    find_binding_amplitude,
    remainder_zero,
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
@example(NonlinearSpec.power_deficit(1.0, 0.0, 3.0, 4.0, mass=0.5), 1.0207152860756802e-157)  # W ~ 1.3e-315
def test_power_sum_identities(spec, s):
    m2 = spec.mass**2
    w, w1, w2 = (eval_nonlinearity(spec, s, order) for order in (0, 1, 2))
    # sums of the term magnitudes bound the round-off of each evaluation; where
    # they are subnormal, relative bounds round to 0 and a few subnormal spacings remain
    mag0 = sum(abs(c) * s**k for c, k in spec.power_terms())
    mag1 = sum(abs(c * k) * s ** (k - 1.0) for c, k in spec.power_terms())
    mag2 = sum(abs(c * k * (k - 1.0)) * s ** (k - 2.0) for c, k in spec.power_terms())
    floor = 4.0 * np.finfo(float).smallest_subnormal
    assert abs(w - eval_remainder(spec, s, 0) - 0.5 * m2 * s**2) <= 1e-14 * mag0 + floor
    assert abs(s * wprime_over_s(spec, s) - w1) <= 1e-14 * mag1 + floor
    assert abs(0.5 * s**2 * binding_level(spec, s) - w) <= 1e-14 * mag0 + floor
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
    report = validate_assumptions(dw)
    assert report.all_pass
    # the binding witness sits at the second vacuum with R(1) = -1/2
    assert report.binding_witness == pytest.approx(1.0, abs=1e-6)
    assert report.binding_depth == pytest.approx(-0.5, abs=1e-9)
    assert report.binding_level == pytest.approx(0.0, abs=1e-9)


def test_validate_power_deficit_without_repulsion_fails_nonnegativity():
    # R(s) = -s^4/4 dips below -s^2/2 past sqrt(2)
    spec = NonlinearSpec.power_deficit(1.0, 0.0, 4.0, 5.0)
    report = validate_assumptions(spec)
    assert not report.nonnegative
    assert report.nonnegative_violation == pytest.approx(np.sqrt(2.0), rel=1e-14)
    assert eval_nonlinearity(spec, 1.4, 0) > 0 > eval_nonlinearity(spec, 1.45, 0)


def test_violation_witness_is_a_normal_amplitude_where_w_is_negative():
    # p this close to 2 puts the zero of W below the smallest normal double;
    # the violation witness is then the probe, where the level is negative,
    # while the second-vacuum witness stays a zero of W
    spec = NonlinearSpec.power_deficit(2.30, 0.0, 2.000214, 2.2133, mass=0.68)
    report = validate_assumptions(spec)
    assert not report.nonnegative and report.binding_level < 0.0
    assert report.nonnegative_violation == report.binding_witness >= np.finfo(float).tiny
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


@pytest.mark.parametrize("s_star", [0.5, 1.0, 5.0, 12.0, 100.0])
def test_double_well_landmarks_at_any_scale(s_star):
    # W vanishes at s_star and R < 0 up to 2 s_star, however far out they lie
    report = classify_charge_criteria(NonlinearSpec.double_well(s_star))
    assert report.second_vacuum == "holds"
    assert report.second_vacuum_witness == pytest.approx(s_star, rel=1e-12)
    assert report.negative_up_to == pytest.approx(2.0 * s_star, rel=1e-15)


def test_second_vacuum_without_repulsion_in_closed_form():
    # with c_q = 0, W = s^2/2 - s^3/3000 vanishes at s = 1500 and R < 0 for every s > 0
    report = classify_charge_criteria(NonlinearSpec.power_deficit(0.001, 0.0, 3.0, 4.0))
    assert report.second_vacuum == "holds"
    assert report.second_vacuum_witness == pytest.approx(1500.0, rel=1e-12)
    assert report.negative_up_to == np.inf


def test_second_vacuum_overflowing_to_inf_is_inconclusive():
    # with c_q = 0, W = s^2/2 - (1e-300/2.5) s^2.5 vanishes near s = 1.6e600
    spec = NonlinearSpec.power_deficit(1e-300, 0.0, 2.5, 4.0)
    report = classify_charge_criteria(spec)
    assert (report.second_vacuum, report.second_vacuum_witness, report.second_vacuum_value) == (
        "inconclusive", np.inf, None)
    assert any("not a positive, finite amplitude" in note for note in report.notes)
    # W changes sign past the largest float: nonnegativity fails with that zero as its witness
    assumptions = validate_assumptions(spec)
    assert (assumptions.nonnegative, assumptions.nonnegative_violation) == (False, np.inf)


@pytest.mark.parametrize("gap, verdict", [(1e-8, "fails"), (-1e-8, "holds")])
def test_second_vacuum_verdict_at_a_level_just_off_zero(gap, verdict):
    # the level 1 - s + (b/2) s^2 of W = s^2/2 - s^3/2 + b s^4/4 is lowest at
    # s = 1/b, where it is 1 - 1/(2b) = gap, far outside its round-off
    b = 0.5 / (1.0 - gap)
    report = classify_charge_criteria(NonlinearSpec.power_deficit(1.5, b, 3.0, 4.0))
    assert report.second_vacuum == verdict
    if verdict == "holds":
        # the witness is the level's first zero, not its turn at 1/b
        assert report.second_vacuum_witness == pytest.approx((1.0 - np.sqrt(1.0 - 2.0 * b)) / b, rel=1e-8)


BOUND = 2.0 + 4.0 / 3.0


@pytest.mark.parametrize("p, verdict", [(3.3, "holds"), (np.nextafter(BOUND, 0.0), "holds"), (BOUND, "inconclusive"),
                                        (np.nextafter(BOUND, 6.0), "fails"), (3.5, "fails")])
def test_small_charge_verdict_compares_the_exponent_exactly(p, verdict):
    report = classify_charge_criteria(NonlinearSpec.power_deficit(1.0, 1.0, float(p), 5.0))
    assert report.small_charge_threshold_vanishes == verdict


@pytest.mark.parametrize("b, q, negative_up_to", [(1e-320, 4.0, np.inf), (1e-250, 5.0, np.sqrt(5e250 / 3.0))],
                         ids=["zero_of_R_overflows", "level_overflows_at_turn"])
def test_checks_answer_where_the_landmarks_leave_float_range(b, q, negative_up_to):
    # the zero of R overflows (b = 1e-320), or the level overflows at its turn
    # (b = 1e-250); W = s^2/2 - s^3/3 + ... still vanishes at 1.5, below the probe s = 3
    spec = NonlinearSpec.power_deficit(1.0, b, 3.0, q)
    report = classify_charge_criteria(spec)
    assert report.second_vacuum == "holds"
    assert report.second_vacuum_witness == pytest.approx(1.5, rel=1e-12)
    assert report.negative_up_to == pytest.approx(negative_up_to, rel=1e-12)
    assumptions = validate_assumptions(spec)
    assert not assumptions.nonnegative and not assumptions.all_pass
    assert assumptions.nonnegative_violation == report.second_vacuum_witness
    assert (assumptions.binding_witness, assumptions.binding_level) == (3.0, pytest.approx(-1.0, rel=1e-12))


def test_checks_answer_where_the_zero_of_r_underflows():
    # the zero of R, (4e-301 * 2.51)^100, underflows, so R > 0 at every normal
    # amplitude: the level exceeds m^2 there, W > 0 and nothing binds
    spec = NonlinearSpec.power_deficit(1e-300, 1.0, 2.5, 2.51)
    assert remainder_zero(spec) == 0.0
    assumptions = validate_assumptions(spec)
    assert (assumptions.nonnegative, assumptions.nonnegative_violation) == (True, None)
    assert (assumptions.binding, assumptions.binding_witness, assumptions.binding_level) == (False, None, None)
    assert assumptions.mass_normalization and assumptions.growth and not assumptions.all_pass
    report = classify_charge_criteria(spec)
    assert (report.second_vacuum, report.second_vacuum_witness, report.negative_up_to) == ("fails", None, 0.0)


@pytest.mark.parametrize("b", [2.02e10, 2.02e9])
def test_a_turn_below_the_normal_floats_where_the_level_dips_is_refused(b):
    # c_p = -1e6, p = 2.01, q = 2.02: the zero of R is 1e-400 (b = 2.02e10) or
    # 1e-300 (b = 2.02e9), and the turn s_c = alpha / 2^100 underflows in both;
    # the level there is 1 - 50 or 1 - 500, so W may change sign below the
    # normal floats, and the checks refuse rather than read the level at 0 as m^2
    spec = NonlinearSpec.power_deficit(2.01e6, b, 2.01, 2.02)
    with pytest.raises(ValueError, match=r"dips exp\(.*\) below m\^2 at its turn"):
        _level_turn(spec)
    for check in (validate_assumptions, classify_charge_criteria):
        with pytest.raises(ValueError, match=r"not negative, at the probe s = 1.0, and at its turn: .* dips"):
            check(spec)


def test_a_probe_whose_level_is_not_negative_past_an_overflowing_zero_of_r_is_refused():
    # the zero of R, 1e1000, overflows and c_q > 0; at the probe, clipped to
    # max/2, the level rounds to m^2, so W's zero cannot be placed
    spec = NonlinearSpec.power_deficit(1e-300, 1e-310, 2.5, 2.51)
    with pytest.raises(ValueError, match="not negative, at the probe"):
        validate_assumptions(spec)
    with pytest.raises(ValueError, match="not negative, at the probe"):
        classify_charge_criteria(spec)


landmark_specs = st.one_of(
    st.builds(NonlinearSpec.double_well, st.floats(0.01, 100.0)),
    st.builds(lambda a, b, p, dq, m: NonlinearSpec.power_deficit(a, b, p, min(p + dq, 5.99), mass=m),
              st.floats(0.1, 3.0), st.just(0.0) | st.floats(0.01, 3.0), st.floats(2.2, 5.5),
              st.floats(0.05, 3.0), st.floats(0.5, 2.0)))


@settings(max_examples=200, deadline=None)
@given(landmark_specs)
@example(NonlinearSpec.power_deficit(3.0, 0.1, 3.0, 4.0, mass=0.5))  # the level crosses 0 below its turn
@example(NonlinearSpec.power_deficit(1.0, 1.0, 3.0, 4.0))  # W > 0 for s > 0
@example(NonlinearSpec.power_deficit(0.001, 0.0, 3.0, 4.0))  # c_q = 0
def test_second_vacuum_matches_dense_samples_of_the_level(spec):
    # every landmark of these specs is a normal float: the verdict is never
    # inconclusive, a witness is the first zero of the level, and "fails"
    # leaves the level positive up to twice the zero of R, past which it exceeds m^2
    report = classify_charge_criteria(spec)
    witness = report.second_vacuum_witness
    if report.second_vacuum == "fails":
        assert witness is None
        s = 2.0 * report.negative_up_to * np.linspace(0.0, 1.0, 8193)[1:]
        assert np.all(binding_level(spec, s) > 0.0)
        return
    assert report.second_vacuum == "holds"
    assert abs(binding_level(spec, witness)) <= 1e3 * _level_roundoff(spec, witness)
    assert report.second_vacuum_value == eval_nonlinearity(spec, witness, 0)
    below = witness * np.linspace(0.0, 1.0, 8193)[1:-1]
    assert np.all(binding_level(spec, below) > 0.0)


@settings(max_examples=200, deadline=None)
@given(landmark_specs)
@example(NonlinearSpec.double_well(12.0))  # W touches 0 at its turn without changing sign
@example(NonlinearSpec.power_deficit(3.0, 0.1, 3.0, 4.0, mass=0.5))  # the level crosses 0 below its turn
@example(NonlinearSpec.power_deficit(1.0, 1.0, 3.0, 4.0))  # W > 0 for s > 0
@example(NonlinearSpec.power_deficit(0.001, 0.0, 3.0, 4.0))  # c_q = 0: W < 0 past 1500
def test_nonnegativity_matches_dense_samples_past_both_landmarks(spec):
    # the samples run to twice the zero of R, past which W > m^2 s^2 / 2, or with
    # c_q = 0 to twice the probe, past W's zero; the turn or probe s_b is one of them
    report = validate_assumptions(spec)
    s_b, _, _ = _zero_of_w(spec)
    alpha = classify_charge_criteria(spec).negative_up_to
    s = np.append(2.0 * (alpha if alpha < np.inf else s_b) * np.linspace(0.0, 1.0, 16_385)[1:], s_b)
    w = eval_nonlinearity(spec, s, 0)
    roundoff = 0.5 * s * s * _level_roundoff(spec, s)
    assert report.nonnegative == bool(np.all(w >= -roundoff))
    if report.nonnegative:
        assert report.nonnegative_violation is None
        return
    # the witness is a zero of W where it changes sign: positive below, negative at s_b above
    z = report.nonnegative_violation
    assert 0.0 < z < s_b
    assert abs(binding_level(spec, z)) <= 1e3 * _level_roundoff(spec, z)
    assert np.all(binding_level(spec, z * np.linspace(0.0, 1.0, 8193)[1:-1]) > 0.0)
    assert binding_level(spec, s_b) < 0.0


def test_growth_check_constants(dw):
    report = validate_assumptions(dw)
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

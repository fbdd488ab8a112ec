import functools
import gc
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hylomorph import oracle
from hylomorph.grid import RadialGrid
from hylomorph.minimize import residual_stationary
from hylomorph.model import NonlinearSpec, _bracketed_root, eval_nonlinearity
from hylomorph.oracle import BRACKET_TOL, OVERSHOOT, UNDERSHOOT, shoot_ground_state
from references import tent_quadratures

SPEC = NonlinearSpec.double_well()


class TestTentQuadratures:
    def test_reference_values(self):
        tq = tent_quadratures(1.0, 1.0, SPEC)
        assert tq.mass2 == pytest.approx(52.0 * np.pi / 15.0, rel=1e-14)
        assert tq.grad2 == pytest.approx(28.0 * np.pi / 3.0, rel=1e-14)

    def test_amplitude_scaling_orders(self):
        ref = tent_quadratures(1.0, 1.0, SPEC)
        cubic = [abs(tent_quadratures(s1, 1.0, SPEC).remainder_int) / s1**3 for s1 in (1e-2, 1e-3)]
        for s1 in (1e-2, 1e-3):
            tq = tent_quadratures(s1, 1.0, SPEC)
            assert tq.mass2 == pytest.approx(s1**2 * ref.mass2, rel=1e-12)
            assert tq.grad2 == pytest.approx(s1**2 * ref.grad2, rel=1e-12)
        # remainder starts at cubic order for the double well
        assert cubic[0] == pytest.approx(cubic[1], rel=0.01)

    def test_grid_quadrature_converges_second_order(self):
        tq = tent_quadratures(1.0, 2.0, SPEC)
        errs = []
        for n in (512, 1024, 2048):
            grid = RadialGrid(6.0, n)
            r = grid.nodes
            u = np.clip(3.0 - np.maximum(r, 2.0), 0.0, 1.0)
            errs.append(abs(float(grid.volume_weights @ u**2) - tq.mass2))
        assert errs[0] > errs[1] > errs[2]
        assert np.log2(errs[0] / errs[2]) > 2.5  # two refinements, order >= 2 on average

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            tent_quadratures(0.0, 1.0, SPEC)
        with pytest.raises(ValueError):
            tent_quadratures(1.0, -2.0, SPEC)


@pytest.fixture(scope="module")
def shot():
    return shoot_ground_state(SPEC, 0.5)


@pytest.fixture(scope="module")
def tolerance_pairs():
    """Shots at the production tolerances and at 100x tighter ones."""
    pairs = {}
    for omega in (0.5, 0.9):
        production = shoot_ground_state(SPEC, omega)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "RTOL", oracle.RTOL / 100.0)
            mp.setattr(oracle, "ATOL", oracle.ATOL / 100.0)
            pairs[omega] = production, shoot_ground_state(SPEC, omega)
    return pairs


class TestShooting:

    def test_converged_with_tight_bracket(self, shot):
        assert shot.converged
        lo, hi = shot.bracket
        assert hi - lo <= 1e-12
        assert lo <= shot.u0 <= hi

    def test_amplitude_in_binding_range(self, shot):
        # the start amplitude must see a negative effective potential
        weff = eval_nonlinearity(SPEC, shot.u0, 0) - 0.5 * 0.25 * shot.u0**2
        assert weff < 0
        assert 0.5 < shot.u0 < 1.5

    def test_profile_monotone_positive(self, shot):
        u = shot.profile.values
        assert np.all(np.diff(u) <= 1e-12)
        assert np.all(u[:-1] >= 0)

    def test_exponential_tail_rate(self, shot):
        kappa = np.sqrt(1.0 - 0.25)
        r = shot.profile.grid.nodes
        u = shot.profile.values
        mask = (r > 6.0) & (r < 12.0) & (u > 0)
        slope = np.polyfit(r[mask], np.log(u[mask] * r[mask]), 1)[0]
        assert slope == pytest.approx(-kappa, rel=0.05)

    def test_residual_small_on_fine_grid(self, shot):
        grid = RadialGrid(shot.profile.grid.r_max, 8192)
        fine = shoot_ground_state(SPEC, 0.5, grid=grid)
        assert residual_stationary(fine, SPEC, "nlkg") < 1e-4

    @pytest.mark.parametrize("omega", [0.5, 0.9])
    def test_bracket_ends_undershoot_and_overshoot(self, omega):
        lo, hi = shoot_ground_state(SPEC, omega).bracket
        # past the oracle's own stop radius, so no late event is missed
        assert oracle._integrate(SPEC, omega, lo, 100.0)[0] == UNDERSHOOT
        assert oracle._integrate(SPEC, omega, hi, 100.0)[0] == OVERSHOOT

    def test_u0_matches_bisection(self, shot):
        # the central amplitude bisection on the outcome alone converged to
        assert shot.u0 == pytest.approx(1.0670010448488068, abs=1e-12)

    def test_integration_budget(self, monkeypatch):
        calls = []
        integrate = oracle._integrate

        def counted(*args, **kwargs):
            calls.append(args[2])
            return integrate(*args, **kwargs)

        monkeypatch.setattr(oracle, "_integrate", counted)
        shoot_ground_state(SPEC, 0.5)
        # bisection after a full 60-candidate scan made 96
        assert len(calls) <= 40

    def test_right_hand_side_budget(self, monkeypatch):
        # the profile run is one DOP853 pass sampled by quintic Hermite,
        # where stopping on every grid node took 31,262 calls; the search
        # runs evaluate no u'' at their step ends
        # one right-hand side serves every run of the shot, so the calls are
        # split into runs at the boundaries of _integrate
        calls, runs = [0], []
        accel, integrate = oracle._accel, oracle._integrate

        def counted(spec, omega):
            f = accel(spec, omega)

            def g(u, v, r):
                calls[0] += 1
                return f(u, v, r)
            return g

        def run(*args, **kwargs):
            before = calls[0]
            out = integrate(*args, **kwargs)
            runs.append(calls[0] - before)
            return out

        monkeypatch.setattr(oracle, "_accel", counted)
        monkeypatch.setattr(oracle, "_integrate", run)
        shoot_ground_state(SPEC, 0.5)
        *search, final = runs
        assert final < 3000
        assert np.mean(search) == pytest.approx(1106.0, rel=0.05)

    def test_runs_release_their_step_ends(self):
        # a run leaves its integrator suspended at the first event; the
        # generator, with its stages and the run's right-hand side, must not
        # outlive the run
        def alive():
            gc.collect()
            return sum(1 for f in gc.get_objects()
                       if getattr(f, "__qualname__", "") == "_dop853_steps")

        before = alive()
        for u0 in (1.0, 1.05, 1.1):
            oracle._integrate(SPEC, 0.5, u0, 40.0, np.linspace(0.0, 40.0, 101))
        assert alive() == before

    def test_each_shot_keeps_at_most_one_integrator(self, monkeypatch):
        # a shot builds one right-hand side and gives every run of its search
        # and its profile run to it; no integrator outlives the shot
        built, accel = [], oracle._accel

        def counted(spec, omega):
            built.append(omega)
            return accel(spec, omega)

        def alive():
            gc.collect()
            return sum(1 for f in gc.get_objects()
                       if getattr(f, "__qualname__", "") in ("_dop853_steps", "_accel.<locals>.accel"))

        monkeypatch.setattr(oracle, "_accel", counted)
        before = alive()
        for omega in (0.5, 0.7, 0.9):
            shoot_ground_state(SPEC, omega)
        assert built == [0.5, 0.7, 0.9]
        assert alive() == before

    @pytest.mark.parametrize("omega", [0.5, 0.9])
    def test_profile_resolved_by_the_tolerance(self, tolerance_pairs, omega):
        # the interpolated core moves by less than 1e-8 u0 under 100x
        # tighter tolerances
        production, tight = tolerance_pairs[omega]
        r = production.profile.grid.nodes
        core = r <= min(production.graft_radius, tight.graft_radius)
        gap = np.abs(production.profile.values - tight.profile.values)[core]
        assert gap.max() < 1e-8 * production.u0

    @pytest.mark.parametrize("omega", [0.5, 0.7, 0.9])
    def test_default_grid_depends_on_kappa_alone(self, omega):
        kappa = math.sqrt(1.0 - omega**2)
        grid = shoot_ground_state(SPEC, omega).profile.grid
        assert grid == RadialGrid(max(40.0, 25.0 / kappa), 4096)

    @pytest.mark.parametrize("omega", [0.5, 0.9])
    def test_tolerance_resolves_the_bracket(self, tolerance_pairs, omega):
        # the integration error in u0 stays below the bracket width, and a
        # shift of u0 at that level leaves the default grid where it was
        production, tight = tolerance_pairs[omega]
        assert production.u0 != tight.u0
        assert abs(production.u0 - tight.u0) < BRACKET_TOL
        assert production.profile.grid == tight.profile.grid

    @pytest.mark.parametrize("omega", [0.5, 0.9])
    def test_event_radius_monotone_next_to_the_bracket(self, omega):
        # the event radius, located inside the integrator's last step, falls
        # strictly as the start moves away from the ground state on either
        # side; events taken at step ends would repeat or jump back
        lo, hi = shoot_ground_state(SPEC, omega).bracket
        offsets = 1e-11 * np.arange(1, 41)
        for starts, outcome in ((hi + offsets, OVERSHOOT), (lo - offsets, UNDERSHOOT)):
            runs = [oracle._integrate(SPEC, omega, float(u0), 100.0) for u0 in starts]
            assert {run[0] for run in runs} == {outcome}
            assert np.all(np.diff([run[1] for run in runs]) < 0.0)

    @pytest.mark.parametrize("omega", [0.5, 0.8])
    def test_non_integer_powers(self, omega):
        spec = NonlinearSpec.power_deficit(2.0, 0.5, 2.5, 4.5)
        fine = shoot_ground_state(spec, omega)
        assert fine.converged
        assert residual_stationary(fine, spec, "nlkg") < 1e-4

    @pytest.mark.parametrize("omega", [0.5, 0.7, 0.9])
    def test_u0_matches_scipy_dop853(self, monkeypatch, omega):
        # the same search with scipy's compiled DOP853 under _integrate
        u0 = shoot_ground_state(SPEC, omega).u0
        monkeypatch.setattr(oracle, "_dop853_steps", _scipy_dop853_steps)
        assert abs(shoot_ground_state(SPEC, omega).u0 - u0) < BRACKET_TOL

    @pytest.mark.parametrize("omega, u0", [(0.5, 1.0670010448482827), (0.5, 0.9), (0.7, 0.7611907120246012),
                                           (0.9, 0.27357024917873385), (0.9, 0.35)])
    def test_dop853_takes_scipys_steps(self, omega, u0):
        # the same controller accepts and rejects the same steps: equal
        # right-hand-side calls and step ends; round-off in the error
        # estimates moves the radii by up to 7e-5 relative
        f0 = oracle._accel(SPEC, omega)(u0, 0.0, oracle.R_START)
        start = u0 + f0 * oracle.R_START**2 / 6.0, f0 * oracle.R_START / 3.0
        runs = []
        for steps in (oracle._dop853_steps, _scipy_dop853_steps):
            accel, calls = oracle._accel(SPEC, omega), [0]

            def counted(u, v, r):
                calls[0] += 1
                return accel(u, v, r)

            ends = []
            for r, u, v, a in steps(counted, oracle.R_START, *start, 40.0):
                ends.append(r)
                if not (u > 0.0 and v < 0.0):
                    break
            # scipy's callback also evaluates u'' at every step end
            runs.append((calls[0] - (len(ends) if steps is _scipy_dop853_steps else 0), np.array(ends)))
        (calls, ends), (scipy_calls, scipy_ends) = runs
        assert calls == scipy_calls
        assert ends.shape == scipy_ends.shape
        assert np.allclose(ends, scipy_ends, rtol=1e-3, atol=0.0)

    def test_even_in_omega(self, shot):
        grid = shot.profile.grid
        other = shoot_ground_state(SPEC, -0.5, grid=grid)
        assert np.array_equal(other.profile.values, shot.profile.values)

    def test_frequency_above_mass_rejected(self):
        with pytest.raises(ValueError):
            shoot_ground_state(SPEC, 1.5)

    def test_no_binding_frequency_rejected(self):
        # shallow remainder never beats the frequency deficit at this omega
        spec = NonlinearSpec.power_deficit(0.01, 0.01, 3.0, 4.0)
        with pytest.raises(ValueError):
            shoot_ground_state(spec, 0.05)

    def test_remainder_without_a_positive_power_rejected(self):
        # with b = 0, W falls without bound and W_eff has no outer zero to scan to
        spec = NonlinearSpec.power_deficit(1.0, 0.0, 3.0, 4.0)
        with pytest.raises(ValueError, match="no outer zero"):
            shoot_ground_state(spec, 0.5)

    @pytest.mark.parametrize("b, q", [(9.05e-235, 3.05), (1e-320, 4.0)])
    def test_zero_of_remainder_outside_float_range_rejected(self, b, q):
        # the zero (-c_p/c_q)^(1/(q-p)) that ends the amplitude range overflows:
        # through the power at q - p = 0.05, through the quotient at b = 1e-320
        spec = NonlinearSpec.power_deficit(1.0, b, 3.0, q)
        with pytest.raises(ValueError, match=r"zero of R, \(-c_p/c_q\)\^\(1/\(q-p\)\).*leaves float range"):
            shoot_ground_state(spec, 0.5)

    def test_level_overflowing_below_the_zero_of_remainder_rejected(self):
        # the zero of R (about 1.3e125) is in range, but b s^5 overflows there; the
        # message names this spec's level, not the s_max its caller never sets
        spec = NonlinearSpec.power_deficit(1.0, 1e-250, 3.0, 5.0)
        with pytest.raises(ValueError, match=r"level W/\(s\^2/2\) of .*power_deficit.* overflows") as info:
            shoot_ground_state(spec, 0.5)
        assert "s_max" not in str(info.value)


def _rescaled(family: str, lam: float) -> NonlinearSpec:
    """The spec whose ground states are lam times those of its lam = 1 member:
    W_lam(s) = lam^2 W(s/lam) scales c_k by lam^(2-k)."""
    if family == "double_well":
        return NonlinearSpec.double_well(lam)
    return NonlinearSpec.power_deficit(2.0 * lam ** (2.0 - 2.5), 0.5 * lam ** (2.0 - 4.5), 2.5, 4.5)


@functools.cache
def _unit_u0(family: str, omega: float) -> float:
    return shoot_ground_state(_rescaled(family, 1.0), omega).u0


@settings(max_examples=10, deadline=None)
@given(lam=st.floats(-4.0, 6.0).map(lambda e: 10.0**e))
@example(lam=1e4)
def test_shot_is_covariant_under_amplitude_rescaling(lam):
    """The equation is covariant under u -> lam u with W -> lam^2 W(s/lam),
    so the scan range, the relative bracket and the shot scale with lam."""
    for family in ("double_well", "power_deficit"):
        for omega in (0.5, 0.8):
            shot = shoot_ground_state(_rescaled(family, lam), omega)
            assert shot.converged
            assert shot.u0 / lam == pytest.approx(_unit_u0(family, omega), rel=1e-9, abs=0.0)


def _scipy_dop853_steps(accel, r, u, v, r_end):
    """``oracle._dop853_steps`` through scipy's compiled DOP853, whose
    callback reports each step end and stops at the first one that no
    longer falls (u > 0 and u' < 0), as ``oracle._integrate`` does."""
    from scipy.integrate import ode

    ends = [(r, u, v, accel(u, v, r))]

    def solout(t, y):
        u, v = y.tolist()
        if t > r:
            ends.append((t, u, v, accel(u, v, t)))
        return 0 if u > 0.0 and v < 0.0 else -1

    if u > 0.0 and v < 0.0:
        solver = ode(lambda t, y: (y[1], accel(y[0], y[1], t)))
        solver.set_integrator("dop853", rtol=oracle.RTOL, atol=oracle.ATOL, nsteps=oracle.MAX_STEPS)
        solver.set_solout(solout)
        solver.set_initial_value([u, v], r)
        solver.integrate(r_end)
        assert solver.successful()
    yield from ends


@settings(max_examples=40, deadline=None)
@given(coeffs=st.lists(st.floats(-10.0, 10.0), min_size=6, max_size=6),
       knots=st.lists(st.floats(0.01, 2.0), min_size=2, max_size=6))
@example(coeffs=[0.0, 0.0, 0.0, 0.0, 0.0, 5e-324], knots=[1.0, 1.0])
def test_quintic_hermite_reproduces_quintics(coeffs, knots):
    """The interpolant through (p, p', p'') at the knots is exact for a
    polynomial of degree 5, in value and in slope."""
    poly = np.polynomial.Polynomial(coeffs)
    rs = np.cumsum([0.5, *knots])
    r = np.linspace(rs[0], rs[-1], 97)
    p, dp = oracle._quintic_hermite(rs, poly(rs), poly.deriv()(rs), poly.deriv(2)(rs), r)
    # below the smallest normal float, resolution is absolute (one subnormal,
    # eps * tiny), so every coefficient counts at least tiny toward the scale
    scale = np.polynomial.Polynomial(np.maximum(np.abs(coeffs), np.finfo(float).tiny))(rs[-1])
    assert np.allclose(p, poly(r), rtol=0.0, atol=1e-14 * scale)
    assert np.allclose(dp, poly.deriv()(r), rtol=0.0, atol=1e-13 * scale)


@settings(max_examples=60, deadline=None)
@given(root=st.floats(0.01, 0.99), power=st.sampled_from([1, 3, 9]), skew=st.floats(1e-6, 1e6))
def test_bracketed_root_keeps_an_explicit_bracket(root, power, skew):
    """At the oracle's tolerance every probe lies inside the bracket, at
    least a quarter of the closing width from either end, and every three
    probes at least halve it, also where interpolation is poor (flat, steep
    or lopsided misses); the bracket closes below BRACKET_TOL."""
    bracket = [0.0, 1.0]
    probes = []
    # as the oracle passes it: xtol + 4 eps |x| stays within BRACKET_TOL for x <= 1
    xtol = BRACKET_TOL - 4.0 * np.finfo(float).eps

    def f(d: float) -> float:
        return math.copysign(abs(d) ** power + 1e-300, d) * (skew if d < 0 else 1.0)

    def miss(x: float) -> float:
        lo, hi = bracket
        assert lo + xtol / 4 <= x <= hi - xtol / 4
        probes.append(x)
        m = f(x - root)
        bracket[0 if m < 0 else 1] = x
        return m

    lo, hi = _bracketed_root(miss, 0.0, f(-root), 1.0, f(1.0 - root), xtol)
    assert [lo, hi] == bracket
    assert hi - lo <= BRACKET_TOL
    assert lo < root <= hi
    assert len(probes) <= 3 * (math.ceil(math.log2(1.0 / BRACKET_TOL)) + 1)


@pytest.mark.parametrize("kappa", [0.3, 1.0, 2.0])
def test_dop853_steps_follow_the_regular_solution(kappa):
    """u'' + (2/r) u' = kappa^2 u from the series start at R_START is
    sinh(kappa r)/(kappa r); every step end agrees to 1e-10 relative, in
    value, slope and the integrator's own u''.  The series carries the
    x^4 term, so the start itself is exact to round-off."""
    k2 = kappa * kappa
    r0 = oracle.R_START
    x0 = kappa * r0

    def accel(u, v, r):
        return k2 * u - 2.0 * v / r

    start = 1.0 + x0**2 / 6.0 + x0**4 / 120.0, kappa * (x0 / 3.0 + x0**3 / 30.0)
    steps = np.array(list(oracle._dop853_steps(accel, r0, *start, 20.0)))
    r, u, v, a = steps.T
    assert r[0] == r0 and r[-1] == pytest.approx(20.0, rel=1e-15)
    assert np.all(np.diff(r) > 0.0)
    x = kappa * r
    exact = np.sinh(x) / x
    # d/dr sinh(x)/x = kappa (x cosh x - sinh x)/x^2 = kappa sum_k 2k x^(2k-1)/(2k+1)!,
    # summed as the series below x = 1, where the closed form cancels
    series = sum(2.0 * k * x ** (2 * k - 1) / float(math.factorial(2 * k + 1)) for k in range(1, 12))
    slope = kappa * np.where(x < 1.0, series, (x * np.cosh(x) - np.sinh(x)) / (x * x))
    assert np.allclose(u, exact, rtol=1e-10, atol=0.0)
    assert np.allclose(v, slope, rtol=1e-10, atol=0.0)
    assert np.allclose(a, k2 * exact - 2.0 * slope / r, rtol=1e-10, atol=0.0)


def test_dop853_steps_fail_loudly(monkeypatch):
    # u'' = u^3 from u = 10 at rest blows up near r = 0.185: the step underflows
    with pytest.raises(RuntimeError, match="underflows"):
        for _ in oracle._dop853_steps(lambda u, v, r: u * u * u, 0.0, 10.0, 0.0, 1.0):
            pass
    # a run that needs more steps than the budget
    monkeypatch.setattr(oracle, "MAX_STEPS", 20)
    with pytest.raises(RuntimeError, match="20 steps"):
        for _ in oracle._dop853_steps(lambda u, v, r: -u, 0.0, 1.0, 0.0, 100.0):
            pass
    # tolerances the error control cannot meet
    monkeypatch.setattr(oracle, "RTOL", 10.0 * np.finfo(float).eps)
    with pytest.raises(ValueError, match="RTOL"):
        shoot_ground_state(SPEC, 0.5)

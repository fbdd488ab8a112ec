import numpy as np
import pytest

from hylomorph import chargewin
from hylomorph.chargewin import (
    SOBOLEV_C3,
    TentProfile,
    construct_for_charge,
    estimate_admissible_window,
    verify_tent_witness,
)
from hylomorph.functionals import sigma_window
from hylomorph.gauge import screened_mass
from hylomorph.grid import RadialGrid
from hylomorph.model import NonlinearSpec

SPEC = NonlinearSpec.double_well()


def dirichlet_l6_quotient(f, r_max: float, n: int) -> float:
    """Rayleigh quotient ||grad f||_2^2 / ||f||_6^2 of a radial trial function."""
    grid = RadialGrid(r_max, n)
    vals = np.asarray(f(grid.nodes), dtype=float)
    l6 = grid.integrate(vals**6) ** (1.0 / 3.0)
    return grid.dirichlet(vals) / l6


def extremal_bubble(r):
    """The scaling-extremal radial profile (1 + r^2)^(-1/2)."""
    return 1.0 / np.sqrt(1.0 + np.asarray(r, dtype=float) ** 2)


class TestSobolevConstant:
    def test_bubble_quotient_stable_to_four_digits(self):
        q1 = dirichlet_l6_quotient(extremal_bubble, 1000.0, 200_000)
        q2 = dirichlet_l6_quotient(extremal_bubble, 1000.0, 400_000)
        assert q1 == pytest.approx(q2, rel=1e-4)
        assert q1 == pytest.approx(SOBOLEV_C3, rel=2e-4)

    def test_recorded_value_is_lower_bound(self):
        assert SOBOLEV_C3 <= dirichlet_l6_quotient(extremal_bubble, 1000.0, 400_000)

    def test_gaussian_trial_sits_above(self):
        gaussian = lambda r: np.exp(-np.asarray(r) ** 2 / 2.0)
        assert dirichlet_l6_quotient(gaussian, 30.0, 40_000) > SOBOLEV_C3

    def test_quotient_scaling_invariant(self):
        base = dirichlet_l6_quotient(extremal_bubble, 400.0, 200_000)
        scaled = dirichlet_l6_quotient(lambda r: extremal_bubble(2.0 * np.asarray(r)), 200.0, 200_000)
        assert scaled == pytest.approx(base, rel=1e-6)


class TestWindowEstimate:
    def test_default_scan_finds_window_with_known_witness(self):
        est = estimate_admissible_window(SPEC, 0.0, [0.8, 0.9, 1.0, 1.1, 1.2],
                                         [2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0])
        assert not est.empty
        assert est.sigma_low < est.sigma_high
        assert any(t.s1 == 1.0 and t.r == 5.0 for t in est.admissible)

    def test_weak_coupling_matches_uncoupled_scan(self):
        grid_args = ([1.0], [4.0, 5.0])
        est0 = estimate_admissible_window(SPEC, 0.0, *grid_args)
        est_eps = estimate_admissible_window(SPEC, 1e-8, *grid_args)
        assert est_eps.sigma_low == pytest.approx(est0.sigma_low, rel=1e-4)
        assert est_eps.sigma_high == pytest.approx(est0.sigma_high, rel=1e-4)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            estimate_admissible_window(SPEC, 0.0, [], [2.0])

    def test_hopeless_scan_reports_empty(self):
        est = estimate_admissible_window(SPEC, 0.0, [0.1], [1.0])
        assert est.empty


class TestTentWitness:
    def test_plan_parameters_pass_all_checks(self):
        plan = construct_for_charge(SPEC, 10.0)
        report = verify_tent_witness(SPEC, plan.s1, plan.r, plan.h, plan.q)
        assert report.all_pass
        assert report.deficiency < 0
        assert report.mass_defect >= (plan.h**2 - 1.0) * report.mass2

    def test_small_radius_breaks_amplitude_bound(self):
        # with r too small the upper bound on R(s1) turns negative
        report = verify_tent_witness(SPEC, 1.0, 1.0, 0.8, 0.01)
        assert report.amplitude_upper < -0.4
        assert not report.amplitude_ok

    def test_retention_near_one_breaks_coupling_bound(self):
        plan = construct_for_charge(SPEC, 10.0)
        report = verify_tent_witness(SPEC, plan.s1, plan.r, 1.0 - 1e-9, plan.q)
        assert not report.coupling_ok

    def test_h_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            verify_tent_witness(SPEC, 1.0, 5.0, 1.5, 0.1)

    @pytest.mark.parametrize("q", [0.0, -0.1])
    def test_coupling_not_positive_rejected(self, q):
        with pytest.raises(ValueError, match="coupling q must be positive"):
            verify_tent_witness(SPEC, 1.0, 5.0, 0.8, q)

    @pytest.mark.parametrize("r", [0.3, 1.0, 4.0])
    def test_slope_check_reads_the_peak_of_the_comparison_term(self, r):
        rho = np.linspace(0.0, r + 1.0, 100_001)
        peak = np.max(np.where(rho < r, rho**2, (r + 1.0 - rho) ** 2 * rho**2))
        s1, h = 1.0, 0.8
        # the coupling at which c3 (4 pi/3)^(1/3) (1-h)^2 / q^2 = 4 pi h^2 s1^2 peak
        q_tight = np.sqrt(SOBOLEV_C3 * (4.0 * np.pi / 3.0) ** (1.0 / 3.0) * (1.0 - h) ** 2
                          / (4.0 * np.pi * h**2 * s1**2 * peak))
        assert verify_tent_witness(SPEC, s1, r, h, q_tight * (1.0 - 1e-6)).slope_ok
        assert not verify_tent_witness(SPEC, s1, r, h, q_tight * (1.0 + 1e-6)).slope_ok


class TestConstruction:
    def test_reference_plan_for_double_well(self):
        plan = construct_for_charge(SPEC, 10.0)
        assert plan.s1 == pytest.approx(1.0, abs=1e-6)
        assert plan.binding == pytest.approx(0.0, abs=1e-10)
        assert plan.alpha == pytest.approx(0.25, abs=1e-8)
        assert plan.h == pytest.approx(np.sqrt(2.0 / 3.0), abs=1e-6)
        assert plan.q > 0
        assert plan.charge >= 10.0
        assert plan.charge >= plan.predicted_charge_lb * (1.0 - 1e-9)

    def test_coupling_formula_invariant(self):
        plan = construct_for_charge(SPEC, 100.0)
        norm = 48.0 ** (1.0 / 3.0) * np.pi ** (2.0 / 3.0)
        expected = 0.5 * np.sqrt(SOBOLEV_C3 / norm) * (1.0 - plan.h) / (plan.h * plan.s1 * plan.r)
        assert plan.q == pytest.approx(expected, rel=1e-14)

    def test_window_center_membership(self):
        plan = construct_for_charge(SPEC, 100.0)
        tent = TentProfile(plan.s1, plan.r)
        u = tent.realize(tent.default_grid(0.05))
        window = sigma_window(u, SPEC, plan.q)
        assert window is not None
        assert window[0] < plan.sigma < window[1]
        assert plan.sigma == pytest.approx(SPEC.mass * plan.screened_mass, rel=1e-12)

    def test_charge_monotone_under_radius_doubling(self):
        plan = construct_for_charge(SPEC, 10.0)
        prefactor = np.sqrt(SOBOLEV_C3 / (48.0 ** (1.0 / 3.0) * np.pi ** (2.0 / 3.0)))
        charges = []
        r = plan.r
        for _ in range(3):
            q = 0.5 * prefactor * (1.0 - plan.h) / (plan.h * plan.s1 * r)
            tent = TentProfile(plan.s1, r)
            u = tent.realize(tent.default_grid(0.05))
            charges.append(q * SPEC.mass * screened_mass(u, q)[0])
            r *= 2.0
        assert charges[0] < charges[1] < charges[2]

    def test_growth_order_of_radius_with_target(self):
        # charge scales like r^2, so a 100x target needs about 10x radius
        r_small = construct_for_charge(SPEC, 100.0).r
        r_large = construct_for_charge(SPEC, 10_000.0).r
        ratio = r_large / r_small
        assert 7.0 < ratio < 13.0

    def test_tiny_target_returns_base_radius(self):
        plan = construct_for_charge(SPEC, 1e-6)
        alpha = plan.alpha
        assert plan.r == pytest.approx(1.1 / ((1.0 - alpha) ** (-1.0 / 3.0) - 1.0), rel=1e-12)

    def test_radius_cap_reported(self, monkeypatch):
        # the doubling radius stops at the node cap before a tent is realized
        # on a grid above it, so no array of such a grid is ever built
        cap = 4000
        monkeypatch.setattr(chargewin, "CONSTRUCT_MAX_NODES", cap)
        realized = []
        realize = TentProfile.realize

        def spy(tent, grid):
            realized.append(grid.n + 1)
            return realize(tent, grid)

        monkeypatch.setattr(TentProfile, "realize", spy)
        with pytest.raises(RuntimeError, match="CONSTRUCT_MAX_NODES"):
            construct_for_charge(SPEC, 1e9)
        assert cap // 2 < max(realized) <= cap

    @pytest.mark.parametrize("target", [np.inf, np.nan])
    def test_non_finite_target_rejected_before_any_tent(self, monkeypatch, target):
        def no_tent(*args, **kwargs):
            raise RuntimeError("a tent was evaluated before the target was checked")

        monkeypatch.setattr(chargewin, "screened_mass", no_tent)
        with pytest.raises(ValueError, match="charge target"):
            construct_for_charge(SPEC, target)

    def test_shallow_binding_still_constructs(self):
        # every valid two-power remainder dips below the free level
        spec = NonlinearSpec.power_deficit(0.01, 0.01, 3.0, 4.0)
        plan = construct_for_charge(spec, 0.1)
        assert plan.binding < spec.mass**2
        assert plan.charge >= 0.1


def test_tent_profile_validation():
    with pytest.raises(ValueError):
        TentProfile(0.0, 1.0)
    tent = TentProfile(1.0, 5.0)
    with pytest.raises(ValueError):
        tent.realize(RadialGrid(5.5, 256))


def test_default_grid_keeps_the_resolution_of_wide_tents():
    # the charge-10^4 plan's tent (r = 174.9) and a wider one need more than
    # 16384 nodes at h = 0.02; small tents keep the 512-node floor
    for r in (174.9, 400.0):
        assert TentProfile(1.0, r).default_grid(0.02).h == pytest.approx(0.02, rel=1e-3)
    assert TentProfile(1.0, 3.0).default_grid(0.02).n == 512


@pytest.mark.parametrize("target", [10.0, 1e4])
def test_plan_records_a_grid_at_the_requested_resolution(target):
    plan = construct_for_charge(SPEC, target)
    assert plan.grid == TentProfile(plan.s1, plan.r).default_grid(0.05)
    assert plan.grid.h <= 0.05

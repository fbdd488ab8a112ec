import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from hylomorph import minimize
from hylomorph.chargewin import TentProfile, construct_for_charge
from hylomorph.functionals import reduced_energy, reduced_energy_sigma, sigma_window
from hylomorph.gauge import screened_mass, solve_phi
from hylomorph.grid import RadialGrid, RadialProfile, weighted_norm
from hylomorph.minimize import (DIVERGED_NOTE, SolveOptions, _solve, descend, minimize_kgm,
                                minimize_nlkg, residual_stationary)
from hylomorph.model import NonlinearSpec

SPEC = NonlinearSpec.double_well()


@pytest.fixture(scope="module")
def grid():
    return RadialGrid(24.0, 1024)


@pytest.fixture(scope="module")
def tent_init(grid):
    return TentProfile(1.0, 5.0).realize(grid)


@pytest.fixture(scope="module")
def ground(grid, tent_init):
    lo, hi = sigma_window(tent_init, SPEC)
    return minimize_nlkg(SPEC, 0.5 * (lo + hi), tent_init)


def test_converges_inside_certified_window(ground):
    assert ground.converged
    assert ground.hylomorphy < SPEC.mass
    assert ground.residual < 1e-6 * (1.0 + np.sqrt(ground.u.mass2))
    assert ground.omega < 0


def test_charge_reproduced(ground):
    assert -ground.omega * ground.u.mass2 == pytest.approx(ground.charge, rel=1e-8)


def test_residual_stationary_agrees(ground):
    assert residual_stationary(ground, SPEC, "nlkg") == pytest.approx(ground.residual, rel=1e-6)


def test_rerun_from_minimizer_is_fixed_point(ground):
    again = minimize_nlkg(SPEC, ground.charge, ground.u)
    assert again.iterations == 0
    assert np.max(np.abs(again.u.values - ground.u.values)) < 1e-10


def test_zero_state_residuals():
    g = RadialGrid(8.0, 64)
    zero = RadialProfile(g, np.zeros(g.n + 1))

    class Dummy:
        u = zero
        omega = 0.4
        coupling = None
        winding = 0

    assert residual_stationary(Dummy(), SPEC, "nlkg") == 0.0


def test_tiny_charge_collapse_diagnosis(grid, tent_init):
    res = minimize_nlkg(SPEC, 1e-3, tent_init, SolveOptions(max_iters=4000))
    assert res.collapsed or res.hylomorphy >= SPEC.mass
    assert not res.certified
    assert res.note


def test_sigma_validation(tent_init):
    with pytest.raises(ValueError):
        minimize_nlkg(SPEC, 0.0, tent_init)
    with pytest.raises(ValueError):
        minimize_nlkg(SPEC, -1.0, tent_init)


def test_kgm_decoupling_limit(grid, tent_init, ground):
    res = minimize_kgm(SPEC, ground.charge, 1e-8, tent_init)
    assert res.converged
    du = weighted_norm(grid, res.u.values - ground.u.values) / weighted_norm(grid, ground.u.values)
    assert du < 1e-4
    assert abs(res.omega - ground.omega) < 1e-4 * abs(ground.omega)
    assert abs(res.energy - ground.energy) < 1e-4 * ground.energy


@pytest.fixture(scope="module")
def gauged(tent_init):
    return minimize_kgm(SPEC, 650.0, 0.05, tent_init)


def test_kgm_solve_at_moderate_coupling(gauged):
    res = gauged
    assert res.converged
    assert res.electric_charge == pytest.approx(0.05 * 650.0, rel=1e-12)
    assert res.phi is not None
    assert res.phi.values.max() <= 1.0 / 0.05 + 1e-9
    assert residual_stationary(res, SPEC, "kgm") < 1e-6 * (1.0 + np.sqrt(res.u.mass2))


def test_each_result_carries_the_state_of_its_own_profile(ground, gauged, tent_init):
    # the energy, K and phi come from the descent's last accepted iterate and
    # must equal a fresh evaluation at the returned profile; the one-iteration
    # solves reject their first trial step, so a state kept from it would show
    one_step = SolveOptions(max_iters=1)
    for res in (ground, minimize_nlkg(SPEC, ground.charge, tent_init, one_step)):
        energy, omega = reduced_energy_sigma(res.u, res.charge, SPEC)
        assert (res.energy, res.omega, res.screened_mass, res.phi) == (energy, omega, res.u.mass2, None)
    for res in (gauged, minimize_kgm(SPEC, gauged.charge, gauged.coupling, tent_init, one_step)):
        k, _ = screened_mass(res.u, res.coupling)
        energy = reduced_energy(res.u.grid, res.u.values, SPEC, res.charge, k)
        assert (res.energy, res.omega, res.screened_mass) == (energy, -res.charge / k, k)
        assert np.array_equal(res.phi.values, solve_phi(res.u, res.coupling).values)


def test_residual_kind_validation(ground):
    with pytest.raises(ValueError):
        residual_stationary(ground, SPEC, "kgm")  # no coupling stored
    with pytest.raises(ValueError):
        residual_stationary(ground, SPEC, "bogus")


def test_options_validation():
    with pytest.raises(ValueError):
        SolveOptions(tol=0.0)
    with pytest.raises(ValueError):
        SolveOptions(max_iters=0)


_PATCHED_GAUGE_SCRIPT = textwrap.dedent("""
    import sys
    import numpy as np
    from hylomorph import cli, gauge
    from hylomorph.chargewin import TentProfile
    from hylomorph.grid import RadialGrid, TridiagonalFactor
    from hylomorph.minimize import InvariantError

    class DefectiveFactor(TridiagonalFactor):
        # a defective tridiagonal solve returning a potential far above 1/q
        def solve(self, b):
            return np.full_like(b, 1e3)

    gauge.TridiagonalFactor = DefectiveFactor
    try:
        gauge.solve_phi(TentProfile(1.0, 3.0).realize(RadialGrid(8.0, 64)), 1.0)
        print("solve_phi: no error")
    except InvariantError:
        print("solve_phi: InvariantError")
    print("exit", cli.main(["solve-kgm", "--config", sys.argv[1], "--out", sys.argv[2]]))
""")


def test_invariants_survive_optimized_mode(tmp_path):
    cfg = tmp_path / "kgm.ini"
    cfg.write_text("[grid]\nr_max = 16.0\nn = 256\n\n[solve]\nsigma = 100.0\ninit_r = 4.0\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-O", "-c", _PATCHED_GAUGE_SCRIPT, str(cfg), str(tmp_path / "out")],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.stdout.split("\n")[:2] == ["solve_phi: InvariantError", "exit 5"], proc.stderr


@pytest.mark.parametrize("spec, sigma", [
    (NonlinearSpec.power_deficit(2.47, 0.0082, 5.01, 5.16), 365.0),  # trial energies overflow
    (NonlinearSpec.power_deficit(0.1, 0.0, 5.5, 5.55), 500.0),       # so do gradient norms
])
def test_runaway_descent_raises_no_floating_point_warning(spec, sigma):
    # both energies are (nearly) unbounded below, so the descent runs off
    # toward float range; overflowing trials must be rejected quietly and
    # the accepted path must stay finite and monotone
    init = TentProfile(1.0, 3.0).realize(RadialGrid(12.0, 128))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        energies = [minimize_nlkg(spec, sigma, init, SolveOptions(max_iters=k)).energy for k in (1, 2, 4, 16)]
    assert np.isfinite(energies).all()
    assert energies == sorted(energies, reverse=True)


def test_descend_rejects_a_trial_of_minus_infinite_energy():
    # -inf passes the Armijo test; accepting it would end the descent on a
    # state whose energy is not a number the caller can use
    def energy(u):
        return (-np.inf if u.max() > 1.5 else 0.5 * float(np.sum((u - 2.0) ** 2))), None

    u, _, _, _, e, _ = descend(np.zeros(8), energy, lambda u, _: u - 2.0, lambda u: u, np.ones(8),
                               lambda g: g, SolveOptions(max_iters=20))
    assert np.isfinite(e) and e == energy(u)[0]


def test_runaway_descent_is_reported_as_diverged():
    # an energy unbounded below: the iterates reach |u| ~ 1e55 and the
    # residual overflows to nan
    res = minimize_nlkg(NonlinearSpec.power_deficit(0.1, 0.0, 5.5, 5.55), 500.0,
                        TentProfile(1.0, 3.0).realize(RadialGrid(12.0, 128)), SolveOptions(max_iters=16))
    assert not np.isfinite(res.residual)
    assert res.note == DIVERGED_NOTE
    assert not res.converged and not res.certified


def _quadratic_energy(u):
    return 0.5 * float(np.sum((u - 2.0) ** 2)), None


def _quadratic_gradient(u, _):
    return u - 2.0


@pytest.mark.parametrize("opts, project, termination", [
    (SolveOptions(), lambda u: u, "converged"),
    (SolveOptions(max_iters=1), lambda u: u, "max_iters"),
    (SolveOptions(), np.zeros_like, "line_search_failed"),  # every trial projects back onto u
])
def test_descend_reports_why_it_stopped(opts, project, termination):
    _, _, _, reason, _, _ = descend(np.zeros(8), _quadratic_energy, _quadratic_gradient, project,
                                    np.ones(8), lambda g: 0.1 * g, opts)
    assert reason == termination


def _counted(gradient):
    calls = []

    def counted(u, state):
        calls.append(u.copy())
        return gradient(u, state)

    return counted, calls


def test_descend_reports_a_stall():
    # a flat energy with a small constant gradient: every trial passes the
    # Armijo test inside float noise, yet neither energy nor residual moves
    gradient, calls = _counted(lambda u, _: np.full(8, 1e-6))
    _, _, iterations, reason, _, _ = descend(np.zeros(8), lambda u: (1e6, None), gradient,
                                             lambda u: u, np.ones(8),
                                             lambda g: g, SolveOptions(tol=1e-30, max_iters=1000))
    assert reason == "stalled"
    assert iterations < 1000
    # one gradient per iterate 0..iterations: the stall leaves u where its
    # gradient was last taken, so none is evaluated after the loop
    assert len(calls) == iterations + 1 == 258


def test_failed_line_search_takes_one_gradient():
    gradient, calls = _counted(_quadratic_gradient)
    _, residual, _, reason, _, _ = descend(np.zeros(8), _quadratic_energy, gradient, np.zeros_like,
                                           np.ones(8), lambda g: 0.1 * g, SolveOptions())
    assert reason == "line_search_failed"
    assert len(calls) == 1
    assert residual == pytest.approx(np.sqrt(8 * 4.0), rel=1e-15)


@pytest.mark.parametrize("max_iters, evaluations", [(0, 1), (1, 2), (3, 4)])
def test_spent_budget_takes_a_final_gradient(max_iters, evaluations):
    # a max_iters exit has moved u since its last gradient (or never took
    # one), so the returned residual belongs to the returned u; SolveOptions
    # rejects max_iters = 0, descend reads only the two fields
    gradient, calls = _counted(_quadratic_gradient)
    opts = SimpleNamespace(tol=1e-30, max_iters=max_iters)
    u, residual, _, reason, _, _ = descend(np.zeros(8), _quadratic_energy, gradient, lambda u: u,
                                           np.ones(8), lambda g: 0.1 * g, opts)
    assert reason == "max_iters"
    assert len(calls) == evaluations
    assert np.array_equal(calls[-1], u)
    assert residual == pytest.approx(np.sqrt(float(np.sum((u - 2.0) ** 2))), rel=1e-14)


def test_result_carries_the_termination(ground, tent_init):
    assert ground.termination == "converged"
    short = minimize_nlkg(SPEC, ground.charge, tent_init, SolveOptions(max_iters=3))
    assert short.termination == "max_iters" and not short.converged


def test_spent_budget_reports_every_accepted_step():
    # each level takes all max_iters steps and reports them, not max_iters - 1;
    # 1024 cells nest down to 256 and 64, and coarse_iterations sums both
    init = TentProfile(1.0, 3.0).realize(RadialGrid(24.0, 1024))
    res = minimize_nlkg(SPEC, 300.0, init, SolveOptions(max_iters=3))
    assert res.termination == "max_iters"
    assert (res.coarse_iterations, res.iterations) == (6, 3)


def test_spent_budget_counts_every_coarser_level():
    # 4096 cells nest down to 1024, 256 and 64: four levels of two steps each
    init = TentProfile(1.0, 3.0).realize(RadialGrid(24.0, 4096))
    res = minimize_nlkg(SPEC, 300.0, init, SolveOptions(max_iters=2))
    assert res.termination == "max_iters"
    assert (res.coarse_iterations, res.iterations) == (6, 2)


def test_kgm_construct_plan_iteration_budget():
    # conjugate directions: 184 iterations at this plan on its grid alone,
    # where steepest descent along the Sobolev gradient took 552; the two
    # levels take 135 coarse and 44 fine ones, and the bound holds the sum
    plan = construct_for_charge(SPEC, 100.0)
    res = minimize_kgm(SPEC, plan.sigma, plan.q, TentProfile(plan.s1, plan.r).realize(plan.grid))
    assert res.converged
    assert res.coarse_iterations > 0
    assert res.iterations + res.coarse_iterations <= 330


def test_discretization_error_uses_the_exact_spacing_ratio():
    # 915 cells coarsen to 228: a spacing ratio of 915/228 = 4.013, not 4;
    # 228 cells lie below the floor, so the direct solve there is the coarse level
    plan = construct_for_charge(SPEC, 100.0)
    init = TentProfile(plan.s1, plan.r).realize(plan.grid)
    res = minimize_kgm(SPEC, plan.sigma, plan.q, init)
    assert plan.grid.n == 915 and res.converged
    coarse = minimize_kgm(SPEC, plan.sigma, plan.q, init.resample(RadialGrid(plan.grid.r_max, 228)))
    assert coarse.converged and coarse.coarse_iterations == 0
    assert res.coarse_iterations == coarse.iterations
    assert res.discretization_error == (res.energy - coarse.energy) / ((915 / 228) ** 2 - 1.0)
    # second order: the estimate is a small fraction of the energy
    assert 0.0 < abs(res.discretization_error) < 1e-4 * res.energy


@pytest.mark.parametrize("n, r, levels", [(255, 3.0, 1), (256, 3.0, 2), (256, 5.0, 1)])
def test_two_levels_need_the_floor_and_a_far_start(n, r, levels):
    # at sigma = 300 the first preconditioned step from the tent of radius 3
    # is 2.3 times its norm, from the tent of radius 5 only 0.24 times
    init = TentProfile(1.0, r).realize(RadialGrid(24.0, n))
    res = minimize_nlkg(SPEC, 300.0, init)
    assert res.converged
    assert (res.coarse_iterations > 0) == (levels == 2)
    assert np.isfinite(res.discretization_error) == (levels == 2)


def test_fine_descent_keeps_init_over_a_worse_coarse_minimizer(monkeypatch):
    # a stand-in minimizer whose coarse level pulls toward 20 while the fine
    # energy is |u - 3|^2: the resampled coarse minimizer lies far above init,
    # so the fine descent starts from init and ends below it; from the coarse
    # start two iterations would end above it
    fine = RadialGrid(8.0, 256)
    init = RadialProfile(fine, np.append(np.ones(256), 0.0))

    def problem(g, *_):
        target = np.append(np.full(g.n, 3.0 if g == fine else 20.0), 0.0)
        w = np.ones(g.n + 1)

        def energy(u):
            return float(w @ (u - target) ** 2), (float(w @ (u * u)), None)

        return energy, lambda u, state: 2.0 * (u - target), lambda u: np.maximum(u, 0.0), w, lambda g: 0.4 * g

    monkeypatch.setattr(minimize, "_problem", problem)
    res = _solve(SPEC, 1.0, init, SolveOptions(max_iters=2))
    assert res.coarse_iterations > 0 and res.termination == "max_iters"
    assert res.energy < problem(fine)[0](init.values)[0]


def test_unconverged_level_leaves_no_error_estimate(grid):
    res = minimize_nlkg(SPEC, 300.0, TentProfile(1.0, 3.0).realize(grid), SolveOptions(max_iters=3))
    assert res.coarse_iterations > 0 and res.termination == "max_iters"
    assert np.isnan(res.discretization_error)

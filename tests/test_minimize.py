import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hylomorph import minimize
from hylomorph.chargewin import TentProfile, construct_for_charge
from hylomorph.functionals import gradient_energy, reduced_energy, reduced_energy_sigma, sigma_window
from hylomorph.gauge import screened_mass, solve_phi
from hylomorph.grid import FOUR_PI, RadialGrid, RadialProfile, weighted_norm
from hylomorph.minimize import (ARMIJO, DIVERGED_NOTE, SolveOptions, _solve, descend, minimize_kgm,
                                minimize_nlkg, residual_stationary)
from hylomorph.model import NonlinearSpec, eval_nonlinearity

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


def test_residual_kind_validation(ground, gauged):
    with pytest.raises(ValueError):
        residual_stationary(ground, SPEC, "kgm")  # no coupling stored
    with pytest.raises(ValueError):
        residual_stationary(ground, SPEC, "bogus")
    # the result states its equation; a kind naming another one is refused
    for res, wrong in ((ground, "vortex"), (gauged, "nlkg"), (gauged, "vortex")):
        with pytest.raises(ValueError, match="solves the"):
            residual_stationary(res, SPEC, wrong)


def test_options_validation():
    for tol in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="tol"):
            SolveOptions(tol=tol)
    with pytest.raises(ValueError):
        SolveOptions(max_iters=0)


def test_max_iters_must_be_an_integer():
    # a float count is refused when the options are built, not deep in the descent
    for max_iters in (1.5, 2.0, np.inf):
        with pytest.raises(ValueError, match="max_iters must be a positive integer"):
            SolveOptions(max_iters=max_iters)
    assert SolveOptions(max_iters=np.int64(3)).max_iters == 3


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
                               lambda g: g, SolveOptions(max_iters=20), energy(np.zeros(8)))
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
                                    np.ones(8), lambda g: 0.1 * g, opts, _quadratic_energy(np.zeros(8)))
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
                                             lambda g: g, SolveOptions(tol=1e-30, max_iters=1000), (1e6, None))
    assert reason == "stalled"
    assert iterations < 1000
    # one gradient per iterate 0..iterations: the stall leaves u where its
    # gradient was last taken, so none is evaluated after the loop
    assert len(calls) == iterations + 1 == 258


def test_failed_line_search_takes_one_gradient():
    gradient, calls = _counted(_quadratic_gradient)
    _, residual, _, reason, _, _ = descend(np.zeros(8), _quadratic_energy, gradient, np.zeros_like,
                                           np.ones(8), lambda g: 0.1 * g, SolveOptions(),
                                           _quadratic_energy(np.zeros(8)))
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
                                           np.ones(8), lambda g: 0.1 * g, opts, _quadratic_energy(np.zeros(8)))
    assert reason == "max_iters"
    assert len(calls) == evaluations
    assert np.array_equal(calls[-1], u)
    assert residual == pytest.approx(np.sqrt(float(np.sum((u - 2.0) ** 2))), rel=1e-14)


def _quadratic_trials(a, max_iters):
    """The points where descend evaluates E = a/2 |u - 2|^2 from u = 0 along p = g."""
    trials = []

    def energy(u):
        trials.append(u.copy())
        return 0.5 * a * float(np.sum((u - 2.0) ** 2)), None

    *_, termination, _, _ = descend(np.zeros(8), energy, lambda u, _: a * (u - 2.0), lambda u: u,
                                    np.ones(8), lambda g: g, SolveOptions(max_iters=max_iters),
                                    energy(np.zeros(8)))
    return trials, termination


@pytest.mark.parametrize("a", [1.99995, 3.0, 4.0, 15.0])
def test_rejected_first_trial_is_followed_by_the_clamped_line_minimizer(a):
    # the unit trial lands at 2a: above the start for a > 2, and at
    # a = 1.99995 below it by less than the Armijo fraction of its slope; the
    # quadratic fit through it is exact, so the one further trial is the
    # line minimizer 1/a, clamped to [0.1, 0.5] of the rejected step
    (start, rejected, accepted), _ = _quadratic_trials(a, max_iters=1)
    assert np.array_equal(rejected, np.full(8, 2.0 * a))
    tau = min(max(1.0 / a, 0.1), 0.5)
    assert accepted == pytest.approx(np.full(8, 2.0 * a * tau), rel=1e-14)


def test_accepted_trial_caps_the_next_step_at_the_fitted_minimizer():
    # at a = 0.8 the unit trial (to 1.6) passes and doubles tau to 2; the fit
    # through it puts the line minimizer at 1/a = 1.25, and the next first
    # trial, along p = g = -0.32, stops there, on the exact minimizer u = 2
    trials, termination = _quadratic_trials(0.8, max_iters=2)
    assert len(trials) == 3 and termination == "converged"
    assert trials[1] == pytest.approx(np.full(8, 1.6), rel=1e-15)
    assert trials[2] == pytest.approx(np.full(8, 2.0), rel=1e-14)


def _recorded_descent(n, energy, gradient, project, pc_scale, u0):
    """Run descend and group its trials by the iterate they start from.

    Returns [(base, trials)], one per gradient evaluation, with trials as
    (unprojected, projected, energy) triples: ``project`` sees u - tau p,
    so the trial steps of a group are proportional to the distances of the
    unprojected points from its base.  Every group but the last ends with
    the accepted trial, where the next group starts.
    """
    groups, unprojected = [], []

    def rec_project(x):
        unprojected[:] = [x.copy()]
        return project(x)

    def rec_energy(u):
        e = energy(u)
        if groups:  # the start's energy precedes the first gradient
            groups[-1][1].append((unprojected[0], u.copy(), e[0]))
        return e

    def rec_gradient(u, state):
        groups.append((u.copy(), []))
        return gradient(u, state)

    descend(u0, rec_energy, rec_gradient, rec_project, np.ones(n), lambda g: g / pc_scale,
            SolveOptions(tol=1e-10, max_iters=40), rec_energy(project(u0)))
    return groups


@settings(max_examples=60, deadline=None)
@given(st.integers(4, 12), st.integers(0, 2**32 - 1), st.floats(0.0, 5.0), st.floats(0.01, 10.0),
       st.booleans())
def test_line_search_accepts_armijo_steps_and_interpolates_inside_the_safeguard(n, seed, kappa, pc_scale,
                                                                                 clipped):
    # E = sum d/2 (u - c)^2 + kappa/4 u^4: convex plus quartic, stiff enough
    # (d up to 100) that first trials overshoot; with clipped, some c < 0
    # put the projection onto u >= 0 in play
    rng = np.random.default_rng(seed)
    d = rng.uniform(0.1, 100.0, n)
    c = rng.uniform(-2.0 if clipped else 0.5, 3.0, n)
    u0 = rng.uniform(0.0, 3.0, n)

    def energy(u):
        return float(np.sum(0.5 * d * (u - c) ** 2 + 0.25 * kappa * u**4)), None

    def gradient(u, _):
        return d * (u - c) + kappa * u**3

    project = (lambda u: np.maximum(u, 0.0)) if clipped else (lambda u: u)
    groups = _recorded_descent(n, energy, gradient, project, pc_scale, u0)
    e_base = energy(groups[0][0])[0]
    for i, (base, trials) in enumerate(groups):
        moves = [float(np.linalg.norm(base - x)) for x, _, _ in trials]
        for before, after in zip(moves, moves[1:]):
            # every retry is a fitted minimizer or a plain halving, both in [0.1, 0.5]
            if after > 1e-7 * (1.0 + np.linalg.norm(base)):
                assert 0.1 * (1 - 1e-6) <= after / before <= 0.5 * (1 + 1e-6)
        if i + 1 == len(groups):
            break
        _, accepted, e_accepted = trials[-1]
        assert np.array_equal(accepted, groups[i + 1][0])
        slope = float(gradient(base, None) @ (base - accepted))
        assert e_accepted <= e_base - ARMIJO * max(slope, 0.0) + 1e-15 * abs(e_base)
        assert e_accepted <= e_base + 1e-15 * abs(e_base)
        e_base = e_accepted


def test_construct_plans_spend_few_energy_evaluations_per_step(monkeypatch):
    # every energy evaluation of the gauge-coupled descent is a phi solve; the
    # fitted line search keeps the rejected trials of the four construct
    # plans (targets 10 to 10000) to under 0.4 per accepted step
    evaluations = []
    problem = minimize._problem

    def counted_problem(*args):
        energy, *rest = problem(*args)

        def counted(u):
            evaluations.append(1)
            return energy(u)

        return (counted, *rest)

    monkeypatch.setattr(minimize, "_problem", counted_problem)
    steps = 0
    for target in (10.0, 100.0, 1000.0, 10000.0):
        plan = construct_for_charge(SPEC, target)
        res = minimize_kgm(SPEC, plan.sigma, plan.q, TentProfile(plan.s1, plan.r).realize(plan.grid))
        assert res.converged
        steps += res.iterations + res.coarse_iterations
    assert len(evaluations) <= 1.4 * steps


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


def _construct_solve(target: float, opts: SolveOptions | None = None):
    plan = construct_for_charge(SPEC, target)
    return plan, minimize_kgm(SPEC, plan.sigma, plan.q, TentProfile(plan.s1, plan.r).realize(plan.grid), opts)


def test_kgm_construct_plan_iteration_budget():
    # conjugate directions: 184 iterations at this plan on its grid alone,
    # where steepest descent along the Sobolev gradient took 552; after the
    # wall shift the two levels take 98 coarse and 29 fine ones (135 without
    # it), and the bound holds the sum with a quarter to spare
    _, res = _construct_solve(100.0)
    assert res.converged
    assert res.coarse_iterations > 0
    assert res.iterations + res.coarse_iterations <= 158


def test_kgm_construct_large_charge_iteration_budget():
    # the wall of target 10000 slid from the tent radius to the edge of the
    # box over 704 iterations on four levels; one wall shift on the coarsest
    # level leaves 11 + 22 + 13 + 9, and the bound holds the sum with a quarter to spare
    _, res = _construct_solve(10000.0)
    assert res.converged and res.certified
    assert res.iterations + res.coarse_iterations <= 68


@pytest.mark.parametrize("target", [10.0, 100.0])
def test_construct_solve_agrees_with_a_tight_solve(target):
    # the default tol against tol = 1e-10 on the same plan: E within the
    # reported discretization error (it is about 1e-6 of it) and omega
    # within 2e-5 (it is at most 6.9e-6)
    _, res = _construct_solve(target)
    _, ref = _construct_solve(target, SolveOptions(tol=1e-10))
    assert res.converged and ref.converged
    assert abs(res.energy - ref.energy) <= abs(res.discretization_error)
    assert abs(res.omega / ref.omega - 1.0) <= 2e-5


def test_resolving_a_converged_construct_result_is_a_fixed_point():
    # the converged profile is not a far start, so it neither nests nor shifts
    plan, res = _construct_solve(1000.0)
    again = minimize_kgm(SPEC, plan.sigma, plan.q, res.u)
    assert res.converged and again.converged
    assert (again.iterations, again.coarse_iterations) == (0, 0)
    assert np.array_equal(again.u.values, res.u.values)
    assert (again.energy, again.omega, again.residual) == (res.energy, res.omega, res.residual)


def _refuse_shift(*_):
    raise AssertionError("the wall shift was called")


def test_near_start_never_calls_the_shift(monkeypatch, grid):
    # the tent of radius 5 at sigma = 300 is near (first step 0.24 of its
    # norm); the tent of radius 3 is far (2.3) and does call it
    monkeypatch.setattr(RadialGrid, "shift", _refuse_shift)
    assert minimize_nlkg(SPEC, 300.0, TentProfile(1.0, 5.0).realize(grid)).converged
    assert minimize_kgm(SPEC, 300.0, 0.05, TentProfile(1.0, 5.0).realize(grid)).converged
    with pytest.raises(AssertionError, match="wall shift"):
        minimize_nlkg(SPEC, 300.0, TentProfile(1.0, 3.0).realize(grid))


@pytest.mark.parametrize("q", [None, 0.05])
@pytest.mark.parametrize("r, cells, shifted", [(5.0, 1024, False), (3.0, 128, True)])
def test_descent_takes_the_start_gradient_and_step_of_the_far_test(monkeypatch, q, r, cells, shifted):
    # _solve's far test takes the start's gradient and preconditioned step,
    # and the first pass of the descent reuses them: one gradient per pass
    # (the converging pass included) and one step per accepted iteration.
    # A far start on too few cells to nest is moved by the wall search
    # first, and the moved start's gradient and step are solved again.
    calls = {"gradient": 0, "pc_solve": 0}
    problem = minimize._problem

    def counted_problem(*args):
        energy, gradient, project, weights, pc_solve, shift = problem(*args)

        def counted_gradient(u, state):
            calls["gradient"] += 1
            return gradient(u, state)

        def counted_pc_solve(g):
            calls["pc_solve"] += 1
            return pc_solve(g)

        return energy, counted_gradient, project, weights, counted_pc_solve, shift

    monkeypatch.setattr(minimize, "_problem", counted_problem)
    init = TentProfile(1.0, r).realize(RadialGrid(24.0, cells))
    res = minimize_nlkg(SPEC, 300.0, init) if q is None else minimize_kgm(SPEC, 300.0, q, init)
    assert res.converged and res.iterations > 0 and res.coarse_iterations == 0
    assert calls == {"gradient": res.iterations + 1 + shifted, "pc_solve": res.iterations + shifted}


@settings(max_examples=20, deadline=None)
@given(s1=st.floats(0.6, 1.4), r=st.floats(1.0, 9.0), sigma=st.floats(20.0, 3000.0),
       q=st.sampled_from([None, 0.05]))
def test_wall_search_never_raises_the_energy(s1, r, sigma, q):
    grid = RadialGrid(24.0, 128)
    energy, gradient, project, weights, pc_solve, shift = minimize._problem(grid, SPEC, sigma, q, 0)
    u = TentProfile(s1, r).realize(grid).values
    e0 = energy(u)[0]
    found = minimize._wall_search(u, e0, shift, project, energy)
    if found is not None:
        e, shifted, state = found
        assert e < e0 - 1e-14 * max(1.0, abs(e0))
        # the state handed to the descent is that of the shifted profile
        again, (k, _) = energy(shifted)
        assert (e, state[0]) == (again, k)
    # nor does the descent that may start with it
    *_, e_end, _ = descend(u, energy, gradient, project, weights, pc_solve, SolveOptions(max_iters=2),
                           energy(u), shift=shift)
    assert e_end <= e0


@pytest.mark.parametrize("q", [None, 0.05])
def test_shift_that_leaves_no_mass_is_rejected(q):
    # K = 0 gives the energy +inf (no warning), which never beats the start
    grid = RadialGrid(24.0, 128)
    energy, _, project, _, _, shift = minimize._problem(grid, SPEC, 300.0, q, 0)
    u = TentProfile(1.0, 3.0).realize(grid).values
    assert energy(project(shift(u, -grid.n)))[0] == np.inf
    e0 = energy(u)[0]
    assert minimize._wall_search(u, e0, lambda v, cells: np.zeros_like(v), project, energy) is None


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
    # start one iteration would end above it (the line search fits the exact
    # quadratic, so two iterations would reach its minimizer from either start)
    fine = RadialGrid(8.0, 256)
    init = RadialProfile(fine, np.append(np.ones(256), 0.0))

    def problem(g, *_):
        target = np.append(np.full(g.n, 3.0 if g == fine else 20.0), 0.0)
        w = np.ones(g.n + 1)

        def energy(u):
            return float(w @ (u - target) ** 2), (float(w @ (u * u)), None)

        return (energy, lambda u, state: 2.0 * (u - target), lambda u: np.maximum(u, 0.0), w, lambda g: 0.4 * g,
                None)

    monkeypatch.setattr(minimize, "_problem", problem)
    res = _solve(SPEC, 1.0, init, SolveOptions(max_iters=1))
    assert res.coarse_iterations > 0 and res.termination == "max_iters"
    assert res.energy < problem(fine)[0](init.values)[0]


def test_unconverged_level_leaves_no_error_estimate(grid):
    res = minimize_nlkg(SPEC, 300.0, TentProfile(1.0, 3.0).realize(grid), SolveOptions(max_iters=3))
    assert res.coarse_iterations > 0 and res.termination == "max_iters"
    assert np.isnan(res.discretization_error)


# |P/T| of a converged solve at n = 2048 on RadialGrid(32, n): measured 1.5e-5 to 1.6e-5
VIRIAL_TOL = 3e-5


def _virial_ratio(res, spec) -> float:
    """P/T of the virial (Derrick-Pohozaev) identity at a solved state; 0 in the continuum.

    Scaling u(x) -> u(x/lambda) at fixed charge, E_sigma is stationary at
    lambda = 1 when P = T + 3 integral of W - (sigma^2 / 2K^2)(A + 3B) = 0,
    with T = (1/2) integral of |grad u|^2, A = integral of |grad phi|^2 +
    4 pi R phi(R)^2 and B = integral of (1 - q phi)^2 u^2, so K = A + B.
    Ungauged, A = 0 and B = K.
    """
    grid, u, k = res.u.grid, res.u.values, res.screened_mass
    if res.phi is None:
        a, b = 0.0, k
    else:
        p = res.phi.values
        a = grid.dirichlet(p) + FOUR_PI * grid.r_max * p[-1] ** 2
        b = grid.integrate(res.phi.screen * u * u)
        assert k == pytest.approx(a + b, rel=1e-12)
    t = 0.5 * gradient_energy(grid, u, 0.0)
    w = grid.integrate(eval_nonlinearity(spec, u, 0))
    return (t + 3.0 * w - res.charge**2 / (2.0 * k * k) * (a + 3.0 * b)) / t


def _virial_solve(q, sigma, grid):
    init, opts = TentProfile(1.0, 3.0).realize(grid), SolveOptions(tol=1e-9)
    res = minimize_nlkg(SPEC, sigma, init, opts) if q is None else minimize_kgm(SPEC, sigma, q, init, opts)
    assert res.converged
    return _virial_ratio(res, SPEC)


@pytest.mark.parametrize("q", [None, 0.05, 0.2])
def test_converged_solves_satisfy_the_virial_identity(q):
    # P/T is a second-order discretization error: small at n = 2048 and four
    # times smaller at n = 4096.  Halving A, or dropping its Robin tail, leaves
    # a flat 1e-3 to 8e-2 instead
    coarse, fine = (_virial_solve(q, 80.0, RadialGrid(32.0, n)) for n in (2048, 4096))
    assert abs(coarse) < VIRIAL_TOL
    assert 3.5 < coarse / fine < 4.5


def test_virial_identity_flags_a_state_squeezed_by_the_box():
    # at sigma = 1000 the soliton does not fit in r_max = 12: the solve converges
    # against the Dirichlet wall, and P/T reads about -0.9 there against -1.5e-5
    # at r_max = 40
    assert abs(_virial_solve(None, 1000.0, RadialGrid(40.0, 2048))) < VIRIAL_TOL
    assert abs(_virial_solve(None, 1000.0, RadialGrid(12.0, 2048))) > 0.5

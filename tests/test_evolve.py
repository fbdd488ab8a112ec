import re
import warnings

import numpy as np
import pytest

from hylomorph.chargewin import TentProfile
from hylomorph.evolve import (
    BlowUpError,
    EvolutionState,
    cfl_margin,
    evolve_nlkg,
    field_charge,
    field_energy,
    localization_fraction,
    manifold_distance,
    mass_radius,
    soliton_state,
    stability_experiment,
    step_plan,
    time_reversed,
)
from hylomorph.grid import RadialGrid
from hylomorph.minimize import SolveOptions, minimize_nlkg
from hylomorph.model import NonlinearSpec
from hylomorph.vortex import AxisymGrid, torus_bump

SPEC = NonlinearSpec.double_well()


@pytest.fixture(scope="module")
def grid():
    return RadialGrid(24.0, 2048)


@pytest.fixture(scope="module")
def ground(grid):
    return minimize_nlkg(SPEC, 80.0, TentProfile(1.0, 3.0).realize(grid), SolveOptions(tol=1e-8))


def test_zero_field_stays_zero(grid):
    state = EvolutionState(grid, np.zeros(grid.n + 1, complex), np.zeros(grid.n + 1, complex))
    final, ledger = evolve_nlkg(state, SPEC, 1.0, grid.h / 2)
    assert np.all(final.psi == 0)
    assert ledger.arrays()["energy"][-1] == 0.0
    assert localization_fraction(final, grid.r_max / 2) == 0.0


def test_cfl_precondition(grid):
    state = EvolutionState(grid, np.zeros(grid.n + 1, complex), np.zeros(grid.n + 1, complex))
    with pytest.raises(ValueError):
        evolve_nlkg(state, SPEC, 1.0, 2.0 * grid.h)


def test_leapfrog_stability_bound():
    # the origin row of the Laplacian (6/h^2) caps dt near 0.816 h; a step
    # above it blows a soliton up within a few time units, so it is rejected
    grid = RadialGrid(24.0, 1024)
    state = EvolutionState(grid, np.zeros(grid.n + 1, complex), np.zeros(grid.n + 1, complex))
    with pytest.raises(ValueError, match="stability bound"):
        evolve_nlkg(state, SPEC, 1.0, 0.85 * grid.h)
    final, _ = evolve_nlkg(state, SPEC, 1.0, 0.5 * grid.h)
    assert final.t == pytest.approx(1.0, abs=grid.h)


@pytest.mark.parametrize("record_every", [0, -1, 2.5, np.nan])  # a stride is an integer
def test_record_every_below_one_rejected(grid, record_every):
    state = EvolutionState(grid, np.zeros(grid.n + 1, complex), np.zeros(grid.n + 1, complex))
    with pytest.raises(ValueError, match="record_every"):
        evolve_nlkg(state, SPEC, 1.0, grid.h / 2, record_every=record_every)


def test_nonfinite_state_rejected(grid):
    psi = np.zeros(grid.n + 1, complex)
    bad = psi.copy()
    bad[7] = np.nan
    with pytest.raises(ValueError):
        EvolutionState(grid, bad, psi)
    with pytest.raises(ValueError):
        EvolutionState(grid, psi, bad)


def test_evolution_is_radial():
    # the leapfrog steps the radial Laplacian; a winding profile is refused by name
    vortex = torus_bump(AxisymGrid(12.0, 8.0, 32, 32), 1.0, 4.0, 1.5, winding=1)
    with pytest.raises(ValueError, match="radial"):
        soliton_state(vortex, -0.5)
    with pytest.raises(ValueError, match="radial"):
        stability_experiment(vortex, -0.5, SPEC, 1.0, 0.1, 0.01)


def test_nan_field_trips_blowup_guard(grid, ground, monkeypatch):
    import hylomorph.evolve as evolve_module

    # the leapfrog kernel evaluates its force through the power-sum evaluator
    monkeypatch.setattr(evolve_module, "_power_sum", lambda terms, s, order, shift: np.full_like(s, np.nan))
    with pytest.raises(BlowUpError):
        evolve_nlkg(soliton_state(ground.u, ground.omega), SPEC, 0.1, grid.h / 2, record_every=1)


def test_nan_force_in_one_batch_row_trips_blowup_guard(grid, ground, monkeypatch):
    import hylomorph.evolve as evolve_module
    from hylomorph.model import _power_sum

    def nan_in_bump_row(terms, s, order, shift):
        f = _power_sum(terms, s, order, shift)
        f[2] = np.nan
        return f

    monkeypatch.setattr(evolve_module, "_power_sum", nan_in_bump_row)
    with pytest.raises(BlowUpError):
        stability_experiment(ground.u, ground.omega, SPEC, 0.1, grid.h / 2, 0.01, record_every=1)


def test_soliton_orbit_conserved(grid, ground):
    state = soliton_state(ground.u, ground.omega)
    final, ledger = evolve_nlkg(state, SPEC, 5.0, grid.h / 2)
    arr = ledger.arrays()
    assert np.max(np.abs(arr["energy"] - arr["energy"][0])) < 1e-6 * abs(arr["energy"][0])
    assert np.max(np.abs(arr["charge"] - arr["charge"][0])) < 1e-10 * abs(arr["charge"][0])
    assert np.max(np.abs(np.abs(final.psi) - ground.u.values)) < 1e-4 * ground.u.values.max()


def test_charge_matches_sigma(ground):
    state = soliton_state(ground.u, ground.omega)
    assert field_charge(state) == pytest.approx(ground.charge, rel=1e-8)


def test_time_reversal(grid, ground):
    state = soliton_state(ground.u, ground.omega)
    fwd, _ = evolve_nlkg(state, SPEC, 2.0, grid.h / 2)
    back, _ = evolve_nlkg(time_reversed(fwd), SPEC, 2.0, grid.h / 2)
    assert np.max(np.abs(back.psi - state.psi)) < 1e-8


def test_stability_experiment_reversal_is_the_forward_back_pair(grid, ground):
    exp = stability_experiment(ground.u, ground.omega, SPEC, 2.0, grid.h / 2, 0.01)
    state = soliton_state(ground.u, ground.omega)
    fwd, _ = evolve_nlkg(state, SPEC, 2.0, grid.h / 2)
    # record placement moves the fused leapfrog kicks: record as the experiment does
    back, _ = evolve_nlkg(time_reversed(fwd), SPEC, 2.0, grid.h / 2, record_every=10**9)
    assert np.array_equal(exp.final.psi, fwd.psi) and np.array_equal(exp.final.psi_t, fwd.psi_t)
    assert exp.reversal_error == float(np.max(np.abs(back.psi - state.psi)))
    assert list(exp.ledgers) == ["ledger", "ledger_scaled", "ledger_bump", "ledger_free"]


def test_every_stability_row_matches_a_lone_run(grid, ground):
    # every pass of the batched leapfrog is elementwise along the batch, so
    # each row of the ensemble is bit for bit the run advanced alone
    delta = 0.01
    exp = stability_experiment(ground.u, ground.omega, SPEC, 2.0, grid.h / 2, delta)
    base = soliton_state(ground.u, ground.omega)
    bump = delta * np.exp(-((grid.nodes - mass_radius(ground.u, 0.5)) ** 2))
    bump[-1] = 0.0
    lone = {
        "ledger_scaled": (EvolutionState(grid, (1.0 + delta) * base.psi, (1.0 + delta) * base.psi_t), False),
        "ledger_bump": (EvolutionState(grid, base.psi + bump, base.psi_t), False),
        "ledger_free": (base, True),
    }
    for name, (init, free) in lone.items():
        _, ledger = evolve_nlkg(init, SPEC, 2.0, grid.h / 2, localization_radius=exp.localization_radius,
                                reference=(ground.u, ground.omega), free_field=free)
        batch, alone = exp.ledgers[name].arrays(), ledger.arrays()
        assert list(batch) == list(alone)
        for key in batch:
            assert np.array_equal(batch[key], alone[key]), (name, key)


@pytest.mark.parametrize("t_final", [np.inf, -np.inf, np.nan, 0.0, -1.0, 0.001])
def test_t_final_must_be_finite_and_span_a_step(grid, ground, t_final):
    state = soliton_state(ground.u, ground.omega)
    with pytest.raises(ValueError, match="t_final"):
        evolve_nlkg(state, SPEC, t_final, grid.h / 2)
    with pytest.raises(ValueError, match="t_final"):
        stability_experiment(ground.u, ground.omega, SPEC, t_final, grid.h / 2, 0.01)


@pytest.mark.parametrize("delta", [-1.0, -2.0, np.inf, np.nan])
def test_delta_must_be_finite_and_above_minus_one(grid, ground, delta):
    # delta = -1 scales the soliton to the zero field, whose relative drifts are 0/0
    with pytest.raises(ValueError, match="delta"):
        stability_experiment(ground.u, ground.omega, SPEC, 1.0, grid.h / 2, delta)


def test_one_step_is_allowed(grid, ground):
    # t_final just above dt/2 rounds to one step; the returned time says so
    final, ledger = evolve_nlkg(soliton_state(ground.u, ground.omega), SPEC, 0.6 * grid.h / 2, grid.h / 2)
    assert final.t == grid.h / 2
    assert len(ledger.t) == 2


def test_ledger_amplitude_is_the_guarded_peak(grid, ground):
    state = soliton_state(ground.u, ground.omega)
    final, ledger = evolve_nlkg(state, SPEC, 1.0, grid.h / 2)
    amplitude = ledger.arrays()["amplitude"]
    assert amplitude[0] == pytest.approx(float(np.max(np.abs(state.psi))), rel=1e-15)
    assert amplitude[-1] == pytest.approx(float(np.max(np.abs(final.psi))), rel=1e-15)


def test_cfl_margin_at_half_spacing(grid):
    # dt = h/2 gives sqrt(6 + h^2) / 2, just above sqrt(6)/2 = 1.2247
    assert cfl_margin(grid, SPEC, grid.h / 2) == pytest.approx(np.sqrt(6.0 + grid.h**2) / 2, rel=1e-14)
    assert cfl_margin(grid, SPEC, grid.h / 2) < 2.0


def test_localization_trivial_at_full_radius(grid, ground):
    state = soliton_state(ground.u, ground.omega)
    assert localization_fraction(state, grid.r_max) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        localization_fraction(state, 2 * grid.r_max)


@pytest.mark.parametrize("radius", [np.nan, -1.0])
def test_localization_radius_outside_the_domain_rejected(grid, ground, radius):
    # no ball of such a radius exists: the ledger would read 1.0 at every record,
    # so a run fails at its first record, before its first step
    state = soliton_state(ground.u, ground.omega)
    with pytest.raises(ValueError, match="localization radius"):
        localization_fraction(state, radius)
    with pytest.raises(ValueError, match="localization radius"):
        evolve_nlkg(state, SPEC, 1.0, grid.h / 2, localization_radius=radius)


def test_free_field_disperses(grid, ground):
    state = soliton_state(ground.u, ground.omega)
    radius = 2.0 * mass_radius(ground.u)
    _, led_free = evolve_nlkg(state, SPEC, 12.0, grid.h / 2,
                              localization_radius=radius, free_field=True)
    _, led_sol = evolve_nlkg(state, SPEC, 12.0, grid.h / 2, localization_radius=radius)
    free_loc = led_free.arrays()["localization"][-1]
    sol_loc = led_sol.arrays()["localization"][-1]
    assert free_loc > 100.0 * max(sol_loc, 1e-9)


def test_manifold_distance_zero_on_orbit(grid, ground):
    theta = 0.7
    psi = ground.u.values * np.exp(1j * theta)
    psi_t = -1j * ground.omega * psi
    state = EvolutionState(grid, psi, psi_t)
    assert manifold_distance(state, ground.u, ground.omega) < 1e-10


def test_manifold_distance_linear_in_perturbation(grid, ground):
    base = soliton_state(ground.u, ground.omega)
    dists = []
    for delta in (0.01, 0.005):
        state = EvolutionState(grid, (1 + delta) * base.psi, (1 + delta) * base.psi_t)
        dists.append(manifold_distance(state, ground.u, ground.omega))
    assert dists[0] == pytest.approx(2.0 * dists[1], rel=1e-6)


def test_manifold_distance_of_a_nan_sample_is_nan(grid, ground):
    # a state can only hold a NaN by being changed after validation; its
    # distance must then be NaN, not a clamped 0
    state = soliton_state(ground.u, ground.omega)
    state.psi[3] = np.nan
    assert np.isnan(manifold_distance(state, ground.u, ground.omega))


def test_manifold_distance_rejects_a_reference_on_another_grid(grid, ground):
    state = soliton_state(ground.u, ground.omega)
    other = ground.u.resample(RadialGrid(grid.r_max, 2 * grid.n))
    with pytest.raises(ValueError, match="incompatible grid"):
        manifold_distance(state, other, ground.omega)


def test_perturbed_soliton_stays_near_orbit(grid, ground):
    base = soliton_state(ground.u, ground.omega)
    state = EvolutionState(grid, 1.01 * base.psi, 1.01 * base.psi_t)
    _, ledger = evolve_nlkg(state, SPEC, 10.0, grid.h / 2, reference=(ground.u, ground.omega))
    arr = ledger.arrays()
    assert arr["distance"].max() < 5.0 * arr["distance"][0]


def test_blowup_detected():
    grid = RadialGrid(16.0, 512)
    spec = NonlinearSpec.power_deficit(1.0, 0.0, 4.0, 5.0)  # unbounded below
    r = grid.nodes
    psi = 10.0 * np.exp(-((r - 3.0) ** 2)) + 0j
    psi[-1] = 0.0
    state = EvolutionState(grid, psi, np.zeros_like(psi))
    with pytest.raises(BlowUpError):
        evolve_nlkg(state, spec, 20.0, grid.h / 2, record_every=8)


def test_blowup_between_records_raises_no_floating_point_warning():
    # the field overflows between two records and steps on in inf and nan;
    # the next record's guard raises and names the window since the last one
    grid = RadialGrid(8.0, 64)
    spec = NonlinearSpec.power_deficit(4.0, 1.0, 4.0, 5.0)
    psi = 3.0 * np.exp(-grid.nodes**2) + 0j
    psi[-1] = 0.0
    state = EvolutionState(grid, psi, np.zeros_like(psi))
    dt = grid.h / 2
    n_steps, record_every = step_plan(grid, spec, 50.0, dt, None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BlowUpError) as info:
            evolve_nlkg(state, spec, 50.0, dt)
    window = re.search(r"between (\S+) \(the last record that passed\) and (\S+) time units", str(info.value))
    passed, failed = float(window[1]), float(window[2])
    assert 0.0 < passed < failed < n_steps * dt
    assert failed - passed == pytest.approx(record_every * dt)


@pytest.mark.parametrize("moving", [False, True])
def test_finite_start_whose_square_overflows_is_rejected(moving):
    # |psi|^2 of a finite field may overflow; the run refuses such a start
    # before the first force evaluation, without a floating-point warning,
    # rather than blaming the interval after t = 0
    grid = RadialGrid(8.0, 64)
    big = 1e160 * np.exp(-grid.nodes**2) + 0j
    big[-1] = 0.0
    zero = np.zeros_like(big)
    state = EvolutionState(grid, zero, big) if moving else EvolutionState(grid, big, zero)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="squared moduli"):
            evolve_nlkg(state, SPEC, 1.0, grid.h / 2)


def test_free_field_energy_uses_bare_mass(grid, ground):
    state = soliton_state(ground.u, ground.omega)
    e_full = field_energy(state, SPEC)
    e_free = field_energy(state, SPEC, free_field=True)
    assert e_free != pytest.approx(e_full, rel=1e-6)

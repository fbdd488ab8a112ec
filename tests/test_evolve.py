import numpy as np
import pytest

from hylomorph.chargewin import TentProfile
from hylomorph.evolve import (
    BlowUpError,
    EvolutionState,
    evolve_nlkg,
    field_charge,
    field_energy,
    localization_fraction,
    manifold_distance,
    mass_radius,
    soliton_state,
    stability_experiment,
    time_reversed,
)
from hylomorph.grid import RadialGrid
from hylomorph.minimize import SolveOptions, minimize_nlkg
from hylomorph.model import NonlinearSpec

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


@pytest.mark.parametrize("record_every", [0, -1])
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


def test_nan_field_trips_blowup_guard(grid, ground, monkeypatch):
    import hylomorph.evolve as evolve_module

    monkeypatch.setattr(evolve_module, "wprime_over_s", lambda spec, s: np.full_like(s, np.nan))
    with pytest.raises(BlowUpError):
        evolve_nlkg(soliton_state(ground.u, ground.omega), SPEC, 0.1, grid.h / 2, record_every=1)


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
    back, _ = evolve_nlkg(time_reversed(fwd), SPEC, 2.0, grid.h / 2)
    assert np.array_equal(exp.final.psi, fwd.psi) and np.array_equal(exp.final.psi_t, fwd.psi_t)
    assert exp.reversal_error == float(np.max(np.abs(back.psi - state.psi)))
    assert list(exp.ledgers) == ["ledger", "ledger_scaled", "ledger_bump", "ledger_free"]


def test_localization_trivial_at_full_radius(grid, ground):
    state = soliton_state(ground.u, ground.omega)
    assert localization_fraction(state, grid.r_max) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        localization_fraction(state, 2 * grid.r_max)


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


def test_free_field_energy_uses_bare_mass(grid, ground):
    state = soliton_state(ground.u, ground.omega)
    e_full = field_energy(state, SPEC)
    e_free = field_energy(state, SPEC, free_field=True)
    assert e_free != pytest.approx(e_full, rel=1e-6)

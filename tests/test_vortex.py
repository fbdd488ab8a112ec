import numpy as np
import pytest

from hylomorph.functionals import reduced_energy, reduced_energy_sigma, sigma_window
from hylomorph.gauge import screened_mass, solve_phi
from hylomorph.minimize import (COLLAPSE_NOTE, UNBOUND_NOTE, SolveOptions, minimize_kgm, minimize_nlkg,
                                residual_stationary)
from hylomorph.model import NonlinearSpec, eval_nonlinearity
from hylomorph.vortex import AxisymGrid, AxisymProfile, minimize_vortex, torus_bump

SPEC = NonlinearSpec.double_well()


@pytest.fixture(scope="module")
def grid():
    return AxisymGrid(14.0, 10.0, 128, 128)


@pytest.fixture(scope="module")
def solved(grid):
    init = torus_bump(grid, 1.0, 4.0, 1.5, winding=1)
    return minimize_vortex(SPEC, 200.0, init, SolveOptions(tol=1e-5))


def test_cylinder_volume(grid):
    vol = grid.integrate(np.ones((grid.n_r + 1, grid.n_z + 1)))
    expected = np.pi * grid.r_max**2 * 2.0 * grid.z_max
    assert vol == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("r_max, z_max", [
    (np.inf, 10.0), (14.0, np.nan),
    (1e308, 10.0), (14.0, 1e308),  # 2 z_max overflows, and so does the volume weight
    (1e160, 10.0),                 # the volume weight 2 pi r_max h_r h_z overflows
    (1e-120, 1e-120),              # the node volume next to the axis underflows
])
def test_grid_geometry_outside_float_range_rejected(r_max, z_max):
    with pytest.raises(ValueError, match="r_max.*z_max"):
        AxisymGrid(r_max, z_max, 32, 32)


@pytest.mark.parametrize("n_r, n_z", [(64.0, 48), (64, 48.0), (64, 8), (8, 48)])
def test_cell_counts_must_be_integers_of_at_least_16(n_r, n_z):
    with pytest.raises(ValueError, match="integer count of at least 16"):
        AxisymGrid(8.0, 6.0, n_r, n_z)


def test_laplacian_of_quadratic(grid):
    rr = grid.r[:, None]
    zz = grid.z[None, :]
    v = rr**2 + zz**2
    lap = grid.laplacian(v)
    # (1/r)(r (r^2)')' = 4 and (z^2)'' = 2
    assert np.max(np.abs(lap[1:-1, 1:-1] - 6.0)) < 1e-8


def test_convergence_and_certificate(solved):
    assert solved.converged
    assert solved.hylomorphy < SPEC.mass
    assert solved.omega < 0


def test_axis_vanishing(solved):
    u = solved.u.values
    assert np.all(u[0, :] == 0.0)
    assert np.abs(u[1, :]).max() < 0.05 * u.max()


def test_winding_sign_irrelevant(grid, solved):
    init = torus_bump(grid, 1.0, 4.0, 1.5, winding=-1)
    mirrored = minimize_vortex(SPEC, 200.0, init, SolveOptions(tol=1e-5))
    assert mirrored.energy == solved.energy
    assert np.array_equal(mirrored.u.values, solved.u.values)


def test_angular_momentum_identity(solved):
    l3 = solved.winding * solved.charge  # the axial angular momentum
    assert solved.winding == solved.u.winding == 1
    assert l3 == 1 * solved.charge


def test_start_without_winding_rejected():
    # the start states the winding; a radial start is minimize_nlkg's problem
    from hylomorph.chargewin import TentProfile
    from hylomorph.grid import RadialGrid

    with pytest.raises(ValueError, match="wind"):
        minimize_vortex(SPEC, 200.0, TentProfile(1.0, 4.0).realize(RadialGrid(14.0, 128)))


def test_energy_dominates_radial_ground_state(solved):
    from hylomorph.chargewin import TentProfile
    from hylomorph.grid import RadialGrid
    from hylomorph.minimize import minimize_nlkg

    radial = minimize_nlkg(SPEC, solved.charge, TentProfile(1.0, 4.0).realize(RadialGrid(14.0, 1024)))
    assert solved.energy >= radial.energy


def test_residual_norm_matches_result(solved):
    assert residual_stationary(solved, SPEC, "vortex") == pytest.approx(solved.residual, rel=1e-6)
    # the result states its equation; a kind naming another one is refused
    for kind in ("nlkg", "kgm"):
        with pytest.raises(ValueError, match="vortex"):
            residual_stationary(solved, SPEC, kind)


def test_gradient_matches_finite_differences(grid):
    rng = np.random.default_rng(5)
    init = torus_bump(grid, 0.9, 4.0, 2.0, winding=1)
    vals = init.values
    sigma = 120.0
    w = grid.volume_weights
    fac = grid.centrifugal(1)

    def energy(v):
        mass2 = float(np.sum(w * v * v))
        d_r = np.diff(v, axis=0)
        r_face = (grid.r[:-1] + 0.5 * grid.h_r)[:, None]
        wz = np.full(grid.n_z + 1, grid.h_z)
        wz[0] = wz[-1] = 0.5 * grid.h_z
        e_r = 2.0 * np.pi * float(np.sum(r_face * d_r**2 * wz[None, :])) / grid.h_r
        d_z = np.diff(v, axis=1)
        wr = np.full(grid.n_r + 1, grid.h_r)
        wr[0] = wr[-1] = 0.5 * grid.h_r
        e_z = 2.0 * np.pi * float(np.sum((wr * grid.r)[:, None] * d_z**2)) / grid.h_z
        spin = float(np.sum(w * fac * v * v))
        pot = float(np.sum(w * eval_nonlinearity(SPEC, v, 0)))
        return 0.5 * (e_r + e_z + spin) + pot + sigma**2 / (2.0 * mass2)

    def gradient(v):
        mass2 = float(np.sum(w * v * v))
        g = (-grid.laplacian(v) + eval_nonlinearity(SPEC, v, 1)
             + (fac - (sigma / mass2) ** 2) * v)
        g[0, :] = g[-1, :] = 0.0
        g[:, 0] = g[:, -1] = 0.0
        return g

    eps = 1e-6
    for _ in range(3):
        bump = rng.normal() * np.exp(-((grid.r[:, None] - rng.uniform(2, 6)) ** 2
                                       + grid.z[None, :] ** 2) / rng.uniform(1, 4))
        bump /= max(1.0, np.max(np.abs(bump)))
        v_dir = vals * bump
        fd = (energy(vals + eps * v_dir) - energy(vals - eps * v_dir)) / (2 * eps)
        an = float(np.sum(w * gradient(vals) * v_dir))
        assert abs(fd - an) < 1e-5 * max(1.0, abs(an))


def test_profile_invariants(grid):
    vals = np.ones((grid.n_r + 1, grid.n_z + 1))
    with pytest.raises(ValueError):
        AxisymProfile(grid, vals, winding=1)  # boundary not zero
    vals = np.zeros((grid.n_r + 1, grid.n_z + 1))
    vals[3, 5] = -1.0
    with pytest.raises(ValueError):
        AxisymProfile(grid, vals, winding=1)


SMALL = AxisymGrid(14.0, 10.0, 32, 32)


def test_unconverged_ratio_above_mass_carries_note():
    init = torus_bump(SMALL, 1.0, 4.0, 1.5, winding=1)
    res = minimize_vortex(SPEC, 20.0, init, SolveOptions(max_iters=3))
    assert not res.converged and not res.collapsed
    assert res.hylomorphy >= SPEC.mass
    assert res.note == UNBOUND_NOTE
    assert not res.certified


def test_collapse_uses_shared_note():
    init = torus_bump(SMALL, 1.0, 4.0, 1.5, winding=1)
    res = minimize_vortex(SPEC, 1e-3, init, SolveOptions(max_iters=200))
    assert res.collapsed and not res.converged
    assert res.note == COLLAPSE_NOTE


def test_trial_that_annihilates_the_profile_is_rejected():
    # a step that projects every sample to zero has infinite reduced energy
    init = torus_bump(SMALL, 1.0, 4.0, 1.5, winding=1)
    res = minimize_vortex(SPEC, 1.0, init, SolveOptions(max_iters=500))
    assert np.isfinite(res.energy)
    assert res.u.values.max() > 0.0


def test_minimize_nlkg_on_a_winding_start_is_the_vortex_solve():
    # the start's winding states the equation; the radial entry must not drop it
    init = torus_bump(SMALL, 1.0, 4.0, 1.5, winding=1)
    vortex = minimize_vortex(SPEC, 200.0, init, SolveOptions(max_iters=40))
    plain = minimize_nlkg(SPEC, 200.0, init, SolveOptions(max_iters=40))
    assert plain.winding == plain.u.winding == vortex.winding == 1
    assert (plain.energy, plain.residual, plain.iterations, plain.termination) == (
        vortex.energy, vortex.residual, vortex.iterations, vortex.termination)
    assert np.array_equal(plain.u.values, vortex.u.values)


def test_gauge_coupled_functionals_reject_a_winding_profile():
    # the screened Poisson kernel is radial; a winding profile has no K(u)
    init = torus_bump(SMALL, 1.0, 4.0, 1.5, winding=1)
    with pytest.raises(ValueError, match="RadialGrid"):
        minimize_kgm(SPEC, 200.0, 0.05, init)
    for call in (screened_mass, solve_phi):
        with pytest.raises(ValueError, match="RadialGrid"):
            call(init, 0.05)
    with pytest.raises(ValueError, match="RadialGrid"):
        sigma_window(init, SPEC, 0.05)


def test_result_carries_the_state_of_its_own_profile(solved):
    # the one-iteration solve rejects its first trial step, so a state kept from it would show
    one_step = minimize_vortex(SPEC, 200.0, torus_bump(SMALL, 1.0, 4.0, 1.5, winding=1),
                               SolveOptions(max_iters=1))
    for res in (solved, one_step):
        mass2 = res.u.mass2
        potential = res.u.grid.centrifugal(res.winding)
        assert res.energy == reduced_energy(res.u.grid, res.u.values, SPEC, res.charge, mass2, potential)
        assert reduced_energy_sigma(res.u, res.charge, SPEC) == (res.energy, res.omega)
        assert res.screened_mass == mass2
        assert res.omega == -res.charge / mass2
        assert res.phi is None


def test_profile_needs_a_finite_amplitude_and_a_winding(grid):
    vals = torus_bump(grid, 1.0, 4.0, 1.5, winding=1).values.copy()
    with pytest.raises(ValueError, match="winding"):
        AxisymProfile(grid, vals, winding=0)
    # e^{i ell theta} is single-valued only for an integer winding
    for bad in (0.5, np.nan, np.inf, 1.0):
        with pytest.raises(ValueError, match="winding must be an integer"):
            torus_bump(grid, 1.0, 4.0, 1.5, winding=bad)
    for bad in (np.nan, np.inf):
        vals[5, 5] = bad
        with pytest.raises(ValueError, match="finite"):
            AxisymProfile(grid, vals, winding=1)

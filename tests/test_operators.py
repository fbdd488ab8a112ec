"""Property tests of the shared discrete operators over grids and parameters.

Each identity is exact in exact arithmetic, so the tolerances only absorb
round-off of sums over up to a few thousand cells.
"""

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import spsolve

from hylomorph.chargewin import TentProfile
from hylomorph.evolve import EvolutionState, evolve_nlkg
from hylomorph.functionals import reduced_energy, stationary_operator
from hylomorph.gauge import solve_phi
from hylomorph.grid import RadialGrid, RadialProfile, banded_matvec, gradient_pairing, integrate_radial, radial_laplacian
from hylomorph.minimize import SolveOptions, _Preconditioner, minimize_nlkg
from hylomorph.model import NonlinearSpec, find_binding_amplitude
from hylomorph.vortex import (AxisymGrid, AxisymPreconditioner, axisym_gradient_pairing, axisym_laplacian,
                              centrifugal_factor)

SETTINGS = settings(max_examples=40, deadline=None)

grid_sizes = st.integers(16, 4096)
extents = st.floats(1.0, 60.0)
seeds = st.integers(0, 2**32 - 1)
power_deficit = st.builds(
    lambda a, b, p, dq: NonlinearSpec.power_deficit(a, b, p, min(p + dq, 5.99)),
    st.floats(0.1, 3.0), st.floats(0.0, 3.0), st.floats(2.05, 5.5), st.floats(0.05, 3.0))


def _radial_field(rng, grid):
    v = rng.standard_normal(grid.n + 1)
    v[-1] = 0.0
    return v


@SETTINGS
@given(grid_sizes, extents, seeds)
def test_radial_summation_by_parts(n, r_max, seed):
    grid = RadialGrid(r_max, n)
    rng = np.random.default_rng(seed)
    a, b = _radial_field(rng, grid), _radial_field(rng, grid)
    lhs = gradient_pairing(grid, a, b)
    rhs = -integrate_radial(grid, a * radial_laplacian(grid, b))
    scale = float(grid.gradient_weights @ np.abs(np.diff(a) * np.diff(b)))
    assert abs(lhs - rhs) <= 1e-10 * scale


@SETTINGS
@given(grid_sizes, extents, st.floats(0.0, 10.0), seeds)
def test_preconditioner_bands_are_shifted_laplacian(n, r_max, c, seed):
    grid = RadialGrid(r_max, n)
    x = np.random.default_rng(seed).standard_normal(n + 1)
    lap = radial_laplacian(grid, x)
    applied = banded_matvec(_Preconditioner(grid, c)._ab, x)
    assert np.allclose(applied, x - c * lap, rtol=0.0, atol=1e-12 * (np.abs(x).max() + c * np.abs(lap).max()))


@SETTINGS
@given(st.integers(16, 128), st.integers(16, 128), extents, extents, seeds)
def test_axisym_summation_by_parts(n_r, n_z, r_max, z_max, seed):
    grid = AxisymGrid(r_max, z_max, n_r, n_z)
    rng = np.random.default_rng(seed)
    a, b = (np.pad(rng.standard_normal((n_r - 1, n_z - 1)), 1) for _ in range(2))
    lhs = axisym_gradient_pairing(grid, a, b)
    rhs = -float(np.sum(grid.cell_weights * a * axisym_laplacian(grid, b)))
    scale = (float(np.sum(grid.r_face_weights * np.abs(np.diff(a, axis=0) * np.diff(b, axis=0))))
             + float(np.sum(grid.z_face_weights * np.abs(np.diff(a, axis=1) * np.diff(b, axis=1)))))
    assert abs(lhs - rhs) <= 1e-10 * scale


windings = st.sampled_from([1, -1, 2, 3])
shifts = st.sampled_from([0.0, 0.3, 1.0])


@SETTINGS
@given(st.integers(16, 96), st.integers(16, 96), extents, extents, windings, shifts, seeds)
def test_axisym_preconditioner_inverts_the_shifted_operator(n_r, n_z, r_max, z_max, ell, c, seed):
    grid = AxisymGrid(r_max, z_max, n_r, n_z)
    g = np.pad(np.random.default_rng(seed).standard_normal((n_r - 1, n_z - 1)), 1)
    x = AxisymPreconditioner(grid, ell, c).solve(g)
    applied = x - c * axisym_laplacian(grid, x) + c * ell**2 * centrifugal_factor(grid) * x
    assert np.abs(applied - g).max() <= 1e-12 * np.abs(g).max()


def test_axisym_preconditioner_matches_a_sparse_five_point_solve():
    # the textbook cylindrical stencil, assembled independently of the grid weights
    grid = AxisymGrid(3.0, 2.0, 17, 20)
    ell, c = 2, 0.7
    n_r, n_z = grid.n_r - 1, grid.n_z - 1
    r, h_r, h_z = grid.r, grid.h_r, grid.h_z
    a = sp.lil_matrix((n_r * n_z, n_r * n_z))
    for i in range(1, grid.n_r):
        up, dn = c * (r[i] + 0.5 * h_r) / (r[i] * h_r**2), c * (r[i] - 0.5 * h_r) / (r[i] * h_r**2)
        for j in range(1, grid.n_z):
            row = (i - 1) * n_z + (j - 1)
            a[row, row] = 1.0 + up + dn + 2.0 * c / h_z**2 + c * ell**2 / r[i] ** 2
            for di, dj, coef in ((1, 0, up), (-1, 0, dn), (0, 1, c / h_z**2), (0, -1, c / h_z**2)):
                if 1 <= i + di < grid.n_r and 1 <= j + dj < grid.n_z:
                    a[row, row + di * n_z + dj] = -coef
    g = np.pad(np.random.default_rng(7).standard_normal((n_r, n_z)), 1)
    expected = spsolve(a.tocsc(), g[1:-1, 1:-1].ravel()).reshape(n_r, n_z)
    x = AxisymPreconditioner(grid, ell, c).solve(g)
    assert np.abs(x[1:-1, 1:-1] - expected).max() <= 1e-12 * np.abs(expected).max()
    assert not x[[0, -1], :].any() and not x[:, [0, -1]].any()


@SETTINGS
@given(power_deficit, st.integers(-2, 1).flatmap(lambda d: st.floats(10.0**d, 10.0**(d + 1))),
       st.floats(0.5, 8.0), st.integers(16, 4096))
def test_screened_potential_bounds(spec, q, r, n):
    s1, _ = find_binding_amplitude(spec)
    grid = RadialGrid(2.0 * (r + 1.0), n)
    phi = solve_phi(TentProfile(s1, r).realize(grid), q)
    assert phi.values.min() >= 0.0
    assert phi.values.max() <= 1.0 / q


@settings(max_examples=25, deadline=None)
@given(power_deficit, st.integers(64, 2048), st.floats(1.0, 500.0), seeds)
def test_stationary_operator_is_the_reduced_energy_gradient(spec, n, sigma, seed):
    grid = RadialGrid(12.0, n)
    r = grid.nodes
    u = RadialProfile(grid, np.cos(0.5 * np.pi * r / grid.r_max) ** 2 * (1.0 + 0.2 * np.sin(r))).values
    direction = np.random.default_rng(seed).standard_normal(n + 1) * u
    k = integrate_radial(grid, u * u)
    g = stationary_operator(grid, u, spec, (sigma / k) ** 2)

    def energy(v):
        return reduced_energy(grid, v, spec, sigma, integrate_radial(grid, v * v))

    eps = 1e-5
    slope = (energy(u + eps * direction) - energy(u - eps * direction)) / (2.0 * eps)
    predicted = integrate_radial(grid, g * direction)
    assert abs(slope - predicted) <= 1e-5 * (abs(predicted) + abs(energy(u)) / np.sqrt(n))


def _smooth_complex(rng, r):
    """A few complex Gaussians, zero at the outer node."""
    f = sum((rng.standard_normal() + 1j * rng.standard_normal())
            * np.exp(-((r - rng.uniform(0.0, 0.6 * r[-1])) / rng.uniform(0.5, 2.0)) ** 2) for _ in range(3))
    f[-1] = 0.0
    return f


@settings(max_examples=20, deadline=None)
@given(st.integers(32, 256), seeds)
def test_leapfrog_conserves_charge(n, seed):
    # Im<psi, psi_t> is invariant under each kick (the Laplacian is symmetric
    # in the volume weights, the force real) and each drift, so only
    # round-off moves it
    grid = RadialGrid(10.0, n)
    rng = np.random.default_rng(seed)
    psi, psi_t = _smooth_complex(rng, grid.nodes), _smooth_complex(rng, grid.nodes)
    _, ledger = evolve_nlkg(EvolutionState(grid, psi, psi_t), NonlinearSpec.double_well(), 2.0, grid.h / 2,
                            record_every=1)
    charge = ledger.arrays()["charge"]
    scale = integrate_radial(grid, np.abs(psi) ** 2 + np.abs(psi_t) ** 2)
    assert np.max(np.abs(charge - charge[0])) <= 1e-12 * scale


@settings(max_examples=20, deadline=None)
@given(power_deficit, st.floats(1.0, 500.0))
def test_descent_energy_never_increases(spec, sigma):
    # the descent is deterministic, so more iterations extend the same path
    init = TentProfile(1.0, 3.0).realize(RadialGrid(12.0, 128))
    energies = [minimize_nlkg(spec, sigma, init, SolveOptions(max_iters=k)).energy for k in (1, 2, 4, 8, 16)]
    for before, after in zip(energies, energies[1:]):
        assert after <= before + 1e-12 * max(1.0, abs(before))

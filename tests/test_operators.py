"""Property tests of the shared discrete operators over grids and parameters.

Each identity is exact in exact arithmetic, so the tolerances only absorb
round-off of sums over up to a few thousand cells.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import spsolve

from hylomorph.chargewin import TentProfile
from hylomorph.evolve import EvolutionState, evolve_nlkg, field_charge, field_energy
from hylomorph.functionals import reduced_energy, stationary_operator
from hylomorph.gauge import solve_phi
from hylomorph.grid import RadialGrid, RadialProfile, Tridiagonal, resample_linear
from hylomorph.minimize import SolveOptions, minimize_nlkg
from hylomorph.model import NonlinearSpec, find_binding_amplitude
from hylomorph.vortex import AxisymGrid, AxisymPreconditioner, AxisymProfile, torus_bump

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
    lhs = float(grid.gradient_weights @ (np.diff(a) * np.diff(b)))
    rhs = -grid.integrate(a * grid.laplacian(b))
    scale = float(grid.gradient_weights @ np.abs(np.diff(a) * np.diff(b)))
    assert abs(lhs - rhs) <= 1e-10 * scale


@SETTINGS
@given(grid_sizes, extents, seeds)
def test_preconditioner_bands_are_shifted_laplacian(n, r_max, seed):
    # the factored preconditioner inverts I - lap: y - lap y reproduces x
    grid = RadialGrid(r_max, n)
    x = np.random.default_rng(seed).standard_normal(n + 1)
    y = grid.preconditioner().solve(x)
    scale = np.abs(y) + Tridiagonal(*map(np.abs, grid.laplacian_matrix)).apply(np.abs(y))
    assert np.max(np.abs(y - grid.laplacian(y) - x)) <= 1e-13 * scale.max()


@SETTINGS
@given(st.integers(16, 128), st.integers(16, 128), extents, extents, seeds)
def test_axisym_summation_by_parts(n_r, n_z, r_max, z_max, seed):
    grid = AxisymGrid(r_max, z_max, n_r, n_z)
    rng = np.random.default_rng(seed)
    a, b = (np.pad(rng.standard_normal((n_r - 1, n_z - 1)), 1) for _ in range(2))
    d_r, d_z = np.diff(a, axis=0) * np.diff(b, axis=0), np.diff(a, axis=1) * np.diff(b, axis=1)
    lhs = float(np.sum(grid.r_face_weights * d_r)) + float(np.sum(grid.z_face_weights * d_z))
    rhs = -grid.integrate(a * grid.laplacian(b))
    scale = float(np.sum(grid.r_face_weights * np.abs(d_r))) + float(np.sum(grid.z_face_weights * np.abs(d_z)))
    assert abs(lhs - rhs) <= 1e-10 * scale


windings = st.sampled_from([1, -1, 2, 3])


@SETTINGS
@given(st.integers(16, 96), st.integers(16, 96), extents, extents, windings, seeds)
@example(n_r=48, n_z=32, r_max=16.0, z_max=12.0, ell=3, seed=0)
def test_axisym_preconditioner_inverts_the_shifted_operator(n_r, n_z, r_max, z_max, ell, seed):
    grid = AxisymGrid(r_max, z_max, n_r, n_z)
    g = np.pad(np.random.default_rng(seed).standard_normal((n_r - 1, n_z - 1)), 1)
    x = AxisymPreconditioner(grid, ell).solve(g)
    applied = x - grid.laplacian(x) + grid.centrifugal(ell) * x
    assert np.abs(applied - g).max() <= 1e-12 * np.abs(g).max()


# n_z with n_z - 1 prime: the sine transform has a prime number of samples per row
PRIME_PLUS_ONE = [p + 1 for p in range(17, 300) if all(p % d for d in range(2, int(p**0.5) + 1))]


@SETTINGS
@given(st.integers(16, 200), st.one_of(st.integers(16, 300), st.sampled_from(PRIME_PLUS_ONE)), seeds)
@example(n_r=130, n_z=252, seed=0)
def test_axisym_sine_transform_is_the_orthonormal_dst_i(n_r, n_z, seed):
    # 15 to 199 rows: one to four blocks of the padded buffer, most often with a partial last one
    grid = AxisymGrid(1.0, 1.0, n_r, n_z)
    rows = np.random.default_rng(seed).standard_normal((n_r - 1, n_z - 1))
    pc = AxisymPreconditioner(grid, 1)
    # sqrt(2/n_z) sin(pi j k / n_z), its argument reduced mod 2 pi in integers
    jk = np.outer(np.arange(1, n_z), np.arange(1, n_z)) % (2 * n_z)
    expected = rows @ (np.sqrt(2.0 / n_z) * np.sin(np.pi * jk / n_z))
    assert np.abs(pc.sine_transform(rows) - expected).max() <= 1e-13 * np.abs(expected).max()
    # orthonormal and symmetric, so it is its own inverse
    assert np.abs(pc.sine_transform(pc.sine_transform(rows)) - rows).max() <= 1e-13 * np.abs(rows).max()


def test_axisym_preconditioner_matches_a_sparse_five_point_solve():
    # the textbook cylindrical stencil, assembled independently of the grid weights
    grid = AxisymGrid(3.0, 2.0, 17, 20)
    ell = 2
    n_r, n_z = grid.n_r - 1, grid.n_z - 1
    r, h_r, h_z = grid.r, grid.h_r, grid.h_z
    a = sp.lil_matrix((n_r * n_z, n_r * n_z))
    for i in range(1, grid.n_r):
        up, dn = (r[i] + 0.5 * h_r) / (r[i] * h_r**2), (r[i] - 0.5 * h_r) / (r[i] * h_r**2)
        for j in range(1, grid.n_z):
            row = (i - 1) * n_z + (j - 1)
            a[row, row] = 1.0 + up + dn + 2.0 / h_z**2 + ell**2 / r[i] ** 2
            for di, dj, coef in ((1, 0, up), (-1, 0, dn), (0, 1, 1.0 / h_z**2), (0, -1, 1.0 / h_z**2)):
                if 1 <= i + di < grid.n_r and 1 <= j + dj < grid.n_z:
                    a[row, row + di * n_z + dj] = -coef
    g = np.pad(np.random.default_rng(7).standard_normal((n_r, n_z)), 1)
    expected = spsolve(a.tocsc(), g[1:-1, 1:-1].ravel()).reshape(n_r, n_z)
    x = AxisymPreconditioner(grid, ell).solve(g)
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
@given(power_deficit, st.integers(64, 2048), st.floats(1.0, 500.0), seeds, st.sampled_from([0, 1, 2]))
def test_stationary_operator_is_the_reduced_energy_gradient(spec, n, sigma, seed, ell):
    # ell = 0 is a radial profile; ell = 1, 2 a torus winding ell times on a coarser (r, z) grid,
    # whose centrifugal potential enters both functionals
    if ell == 0:
        grid = RadialGrid(12.0, n)
        r = grid.nodes
        u = RadialProfile(grid, np.cos(0.5 * np.pi * r / grid.r_max) ** 2 * (1.0 + 0.2 * np.sin(r))).values
        potential = 0.0
    else:
        grid = AxisymGrid(12.0, 8.0, 16 + n // 32, 16 + n // 32)
        u = torus_bump(grid, 1.0, 4.0, 2.0, ell).values * (1.0 + 0.2 * np.sin(grid.r))[:, None]
        potential = grid.centrifugal(ell)
    direction = np.random.default_rng(seed).standard_normal(u.shape) * u
    k = grid.integrate(u * u)
    g = stationary_operator(grid, u, spec, (sigma / k) ** 2, potential=potential)

    def energy(v):
        return reduced_energy(grid, v, spec, sigma, grid.integrate(v * v), potential)

    eps = 1e-5
    slope = (energy(u + eps * direction) - energy(u - eps * direction)) / (2.0 * eps)
    predicted = grid.integrate(g * direction)
    assert abs(slope - predicted) <= 1e-5 * (abs(predicted) + abs(energy(u)) / np.sqrt(n))


def _smooth_complex(rng, r):
    """A few complex Gaussians, zero at the outer node."""
    f = sum((rng.standard_normal() + 1j * rng.standard_normal())
            * np.exp(-((r - rng.uniform(0.0, 0.6 * r[-1])) / rng.uniform(0.5, 2.0)) ** 2) for _ in range(3))
    f[-1] = 0.0
    return f


@settings(max_examples=20, deadline=None)
@given(st.integers(32, 256), seeds, st.sampled_from([1, 2, 7]))
def test_leapfrog_conserves_charge(n, seed, record_every):
    # Im<psi, psi_t> is invariant under each kick (the Laplacian is symmetric
    # in the volume weights, the force real) and each drift, so only
    # round-off moves it; record_every > 1 runs the fused kicks between records
    grid = RadialGrid(10.0, n)
    rng = np.random.default_rng(seed)
    psi, psi_t = _smooth_complex(rng, grid.nodes), _smooth_complex(rng, grid.nodes)
    spec = NonlinearSpec.double_well()
    final, ledger = evolve_nlkg(EvolutionState(grid, psi, psi_t), spec, 2.0, grid.h / 2,
                                record_every=record_every)
    charge = ledger.arrays()["charge"]
    scale = grid.integrate(np.abs(psi) ** 2 + np.abs(psi_t) ** 2)
    assert np.max(np.abs(charge - charge[0])) <= 1e-12 * scale
    # the last step is recorded even where record_every does not divide the
    # step count, and the returned state is that synchronised record: it
    # matches the run that records every step to round-off, where a half-step
    # velocity would be off by dt/2 times the acceleration
    assert ledger.t[-1] == final.t
    assert ledger.charge[-1] == field_charge(final)
    assert ledger.energy[-1] == field_energy(final, spec)
    every, _ = evolve_nlkg(EvolutionState(grid, psi, psi_t), spec, 2.0, grid.h / 2, record_every=1)
    size = np.max(np.abs(psi)) + np.max(np.abs(psi_t))
    assert np.max(np.abs(final.psi - every.psi)) <= 1e-10 * size
    assert np.max(np.abs(final.psi_t - every.psi_t)) <= 1e-10 * size


@settings(max_examples=20, deadline=None)
@given(power_deficit, st.floats(1.0, 500.0))
def test_descent_energy_never_increases(spec, sigma):
    # the descent is deterministic, so more iterations extend the same path
    init = TentProfile(1.0, 3.0).realize(RadialGrid(12.0, 128))
    energies = [minimize_nlkg(spec, sigma, init, SolveOptions(max_iters=k)).energy for k in (1, 2, 4, 8, 16)]
    for before, after in zip(energies, energies[1:]):
        assert after <= before + 1e-12 * max(1.0, abs(before))


# Resampling between grids of one domain (the two-level solves) ----------

cell_counts = st.integers(16, 1024)


@SETTINGS
@given(cell_counts, cell_counts, extents, st.floats(0.1, 10.0))
def test_resample_keeps_radial_linear_fields(n, n_dst, r_max, slope):
    fine, dst = RadialGrid(r_max, n), RadialGrid(r_max, n_dst)
    out = RadialProfile(fine, slope * (r_max - fine.nodes)).resample(dst)
    assert np.max(np.abs(out.values - slope * (r_max - dst.nodes))) <= 1e-13 * slope * r_max


@SETTINGS
@given(cell_counts, st.integers(8, 256), cell_counts, st.integers(8, 256), extents, extents)
def test_resample_keeps_axisym_fields_linear_in_r_and_z(n_r, half_z, n_r_dst, half_z_dst, r_max, z_max):
    # (r_max - r)(z_max - |z|) is linear in r and, on each side of z = 0, in
    # z; z = 0 is a node of both grids because both have even n_z
    src = AxisymGrid(r_max, z_max, n_r, 2 * half_z)
    dst = AxisymGrid(r_max, z_max, n_r_dst, 2 * half_z_dst)

    def field(g):
        return (r_max - g.r)[:, None] * (z_max - np.abs(g.z))[None, :]

    # the field does not vanish on the axis, so it is resampled as samples, not as a winding profile
    out = resample_linear(resample_linear(field(src), dst.n_r, axis=0), dst.n_z, axis=1)
    assert np.max(np.abs(out - field(dst))) <= 1e-13 * r_max * z_max


@SETTINGS
@given(st.integers(64, 1024), st.integers(64, 512), seeds)
def test_resample_keeps_axis_and_boundary_zeros(n_r, n_z, seed):
    rng = np.random.default_rng(seed)
    fine = AxisymGrid(14.0, 10.0, n_r, n_z)
    v = rng.uniform(0.0, 1.0, (n_r + 1, n_z + 1))
    v[0, :] = v[-1, :] = v[:, 0] = v[:, -1] = 0.0
    for dst in (fine.coarsen(4), AxisymGrid(14.0, 10.0, n_r + 7, n_z + 3)):
        out = AxisymProfile(fine, v, 1).resample(dst).values
        assert not (out[0].any() or out[-1].any() or out[:, 0].any() or out[:, -1].any())
        assert out.min() >= 0.0
    radial = RadialProfile(RadialGrid(14.0, n_r), v[:, n_z // 2]).resample(RadialGrid(14.0, n_r // 4))
    assert radial.values[-1] == 0.0


@SETTINGS
@given(st.integers(64, 4096), extents, seeds)
def test_resample_round_trip_is_exact_at_shared_nodes(n, r_max, seed):
    # nodes are shared where j * n_coarse / n is an integer; odd n shares few
    rng = np.random.default_rng(seed)
    fine = RadialGrid(r_max, n)
    coarse = fine.coarsen(4)
    v = rng.uniform(0.0, 1.0, n + 1)
    v[-1] = 0.0
    back = RadialProfile(fine, v).resample(coarse).resample(fine).values
    shared = np.arange(n + 1) * coarse.n % n == 0
    assert np.array_equal(back[shared], v[shared])
    grid2 = AxisymGrid(r_max, 10.0, n // 4 * 4, 256)
    w = rng.uniform(0.0, 1.0, (grid2.n_r + 1, grid2.n_z + 1))
    w[0, :] = w[-1, :] = w[:, 0] = w[:, -1] = 0.0
    back2 = AxisymProfile(grid2, w, 1).resample(grid2.coarsen(4)).resample(grid2).values
    assert np.array_equal(back2[::4, ::4], w[::4, ::4])


@SETTINGS
@given(st.integers(16, 64), st.integers(16, 64), seeds, st.sampled_from(["nan", "inf", "-inf", "negative", "dirichlet"]))
def test_both_profile_types_check_their_samples_alike(n_r, n_z, seed, fault):
    # one check: finite, nonnegative and zero on the grid's Dirichlet nodes, where
    # round-off (1e-12 here) is accepted and zeroed
    rng = np.random.default_rng(seed)
    radial, axisym = RadialGrid(14.0, n_r), AxisymGrid(14.0, 10.0, n_r, n_z)
    for grid, make in ((radial, lambda v: RadialProfile(radial, v)), (axisym, lambda v: AxisymProfile(axisym, v, 1))):
        shape = tuple(c + 1 for c in grid.cells)
        pinned = grid.zero_boundary(np.ones(shape)) == 0.0
        v = np.where(pinned, 1e-12, rng.uniform(0.5, 1.0, shape))
        v[~pinned & (rng.uniform(size=shape) < 0.1)] = -1e-12
        assert np.array_equal(make(v).values, np.where(pinned, 0.0, np.maximum(v, 0.0)))
        nodes = np.flatnonzero(pinned if fault == "dirichlet" else ~pinned)
        bad = v.copy()
        bad.flat[rng.choice(nodes)] = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf, "negative": -0.5,
                                       "dirichlet": 0.5}[fault]
        with pytest.raises(ValueError):
            make(bad)


def test_resample_needs_the_same_domain():
    profile = TentProfile(1.0, 3.0).realize(RadialGrid(12.0, 256))
    with pytest.raises(ValueError, match="domain"):
        profile.resample(RadialGrid(13.0, 64))
    grid = AxisymGrid(14.0, 10.0, 64, 64)
    with pytest.raises(ValueError, match="domain"):
        AxisymProfile(grid, np.zeros((65, 65)), 1).resample(AxisymGrid(14.0, 11.0, 64, 64))


@settings(max_examples=15, deadline=None)
@given(power_deficit, st.floats(1.0, 500.0))
@example(NonlinearSpec.power_deficit(1.0, 1.0, 3.0, 4.0), 400.0)
def test_two_level_solve_never_ends_above_its_start(spec, sigma):
    # on 256 cells a far start (as in the explicit example) first descends on
    # 64; the fine descent starts from whichever of init and the resampled
    # coarse minimizer is lower, so no budget can leave the result above the
    # fine energy of init
    init = TentProfile(1.0, 3.0).realize(RadialGrid(12.0, 256))
    e_init = reduced_energy(init.grid, init.values, spec, sigma, init.mass2)
    for k in (1, 2, 4, 8, 16):
        assert minimize_nlkg(spec, sigma, init, SolveOptions(max_iters=k)).energy <= e_init

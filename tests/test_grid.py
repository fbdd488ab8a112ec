import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dgttrf, dgttrs

from hylomorph import grid as grid_module
from hylomorph.grid import (
    InvariantError,
    RadialGrid,
    RadialProfile,
    Tridiagonal,
    TridiagonalFactor,
    weighted_norm,
    weighted_sum,
)


def test_unit_ball_volume():
    grid = RadialGrid(1.0, 256)
    vol = grid.integrate(np.ones(grid.n + 1))
    assert vol == pytest.approx(4.0 * np.pi / 3.0, rel=1e-4)


def test_zero_integrand():
    grid = RadialGrid(2.0, 64)
    assert grid.integrate(np.zeros(grid.n + 1)) == 0.0


def test_tent_mass_against_closed_form():
    # plateau 1 on r<=1 with unit ramp: 4pi(1/3 + 8/15)
    grid = RadialGrid(2.5, 4096)
    r = grid.nodes
    u = np.clip(2.0 - np.maximum(r, 1.0), 0.0, 1.0)
    expected = 52.0 * np.pi / 15.0
    assert grid.integrate(u**2) == pytest.approx(expected, rel=1e-3)


def test_length_mismatch_rejected():
    grid = RadialGrid(1.0, 64)
    with pytest.raises(ValueError):
        grid.integrate(np.ones(12))


@pytest.mark.parametrize("shape", [(4097,), (65, 33)])
def test_weighted_sum_matches_an_exact_sum(shape):
    # the pairwise sum stays within eps * log2(n) of the exactly rounded one,
    # on real and complex products, and leaves its inputs untouched
    rng = np.random.default_rng(3)
    w, a, b = rng.random(shape), rng.standard_normal(shape), rng.standard_normal(shape)
    before = a.copy()
    terms = (w * a * b).ravel()
    bound = 4.0 * np.finfo(float).eps * np.log2(terms.size) * math.fsum(np.abs(terms))
    assert abs(weighted_sum(w, a, b) - math.fsum(terms)) <= bound
    assert np.array_equal(a, before)
    z = a + 1j * b
    total = weighted_sum(w, z, np.conj(z))
    assert abs(total.imag) <= bound
    assert abs(total.real - math.fsum((w * (a * a + b * b)).ravel())) <= 2.0 * bound


def test_weighted_norm_of_a_nan_sample_is_nan():
    # a sum of nonnegative terms is never clamped, so a NaN is not read as 0
    grid = RadialGrid(4.0, 64)
    samples = np.exp(-grid.nodes**2)
    assert weighted_norm(grid, samples) > 0.0
    samples[5] = np.nan
    assert np.isnan(weighted_norm(grid, samples))


def test_quadrature_order_at_least_two():
    # Richardson order on a quartic integrand over N, 2N, 4N
    exact = 4.0 * np.pi * 2.0**7 / 7.0  # integral of r^4 * r^2 on [0, 2]
    errs = []
    for n in (64, 128, 256):
        grid = RadialGrid(2.0, n)
        errs.append(abs(grid.integrate(grid.nodes**4) - exact))
    order1 = np.log2(errs[0] / errs[1])
    order2 = np.log2(errs[1] / errs[2])
    assert order1 > 1.8 and order2 > 1.8


def test_laplacian_of_quadratic():
    grid = RadialGrid(4.0, 1024)
    r = grid.nodes
    u = 1.0 - r**2 / grid.r_max**2
    lap = grid.laplacian(u)
    expected = -6.0 / grid.r_max**2
    assert np.max(np.abs(lap[:-1] - expected)) < 1e-3 * abs(expected)


def test_laplacian_of_zero():
    grid = RadialGrid(4.0, 64)
    assert np.all(grid.laplacian(np.zeros(grid.n + 1)) == 0.0)


def test_laplacian_spherical_bessel_eigenfunction():
    grid = RadialGrid(3.0, 2048)
    k = np.pi / grid.r_max
    u = np.sinc(grid.nodes / grid.r_max)  # sin(pi x)/(pi x)
    lap = grid.laplacian(u)
    err = np.abs(lap[:-1] + k**2 * u[:-1])
    assert np.max(err) < 1e-3 * k**2


def test_integration_by_parts_exact():
    grid = RadialGrid(10.0, 512)
    r = grid.nodes
    a = np.sin(2 * np.pi * r / 10.0) ** 2 * np.exp(-((r - 4.0) ** 2))
    b = np.cos(r) * np.exp(-((r - 5.0) ** 2) / 2.0)
    a[0] = a[-1] = 0.0
    b[0] = b[-1] = 0.0
    lhs = grid.integrate(grid.laplacian(a) * b)
    rhs = -float(grid.gradient_weights @ (np.diff(a) * np.diff(b)))
    scale = (abs(lhs) + grid.dirichlet(a) + grid.dirichlet(b))
    assert abs(lhs - rhs) < 1e-8 * scale


def test_gradient_integral_of_linear_ramp():
    grid = RadialGrid(2.0, 2048)
    r = grid.nodes
    u = np.clip(2.0 - np.maximum(r, 1.0), 0.0, 1.0)
    expected = 4.0 * np.pi * 7.0 / 3.0  # slope 1 on the shell [1, 2]
    assert grid.dirichlet(u) == pytest.approx(expected, rel=1e-3)


def test_profile_invariants():
    grid = RadialGrid(2.0, 64)
    good = np.linspace(1.0, 0.0, grid.n + 1)
    RadialProfile(grid, good)
    with pytest.raises(ValueError):
        RadialProfile(grid, -good)
    bad_tail = np.ones(grid.n + 1)
    with pytest.raises(ValueError):
        RadialProfile(grid, bad_tail)
    for bad in (np.nan, np.inf):
        nonfinite = good.copy()
        nonfinite[3] = bad
        with pytest.raises(ValueError):
            RadialProfile(grid, nonfinite)


def _dense(matrix):
    return np.diag(matrix.diag) + np.diag(matrix.upper, 1) + np.diag(matrix.lower, -1)


def test_origin_row_carries_the_largest_laplacian_eigenvalue():
    # the leapfrog stability bound in evolve_nlkg relies on this
    grid = RadialGrid(24.0, 256)
    eig = np.linalg.eigvals(-_dense(grid.laplacian_matrix))
    origin = -grid.laplacian_matrix.diag[0]
    assert origin == pytest.approx(6.0 / grid.h**2, rel=1e-14)
    assert np.max(np.abs(eig)) == pytest.approx(origin, rel=1e-12)


def test_grid_validation():
    with pytest.raises(ValueError):
        RadialGrid(-1.0, 64)
    with pytest.raises(ValueError):
        RadialGrid(1.0, 8)
    # a cell count is an integer; a float one would fail later, in numpy
    with pytest.raises(ValueError, match="integer"):
        RadialGrid(10.0, 32.0)


@pytest.mark.parametrize("r_max", [np.inf, np.nan, 1e308, 1e150, 1e-120])
def test_grid_geometry_outside_float_range_rejected(r_max):
    # 1e308: h**2 overflows; 1e150: the outer volume weight 4 pi h r_max**2
    # does; 1e-120: the node mass h**3 underflows
    with pytest.raises(ValueError, match="r_max"):
        RadialGrid(r_max, 64)


def test_grid_geometry_inside_float_range_builds():
    # extents far from 1 build while their geometry stays in float range
    for r_max in (1e100, 1e-90):
        grid = RadialGrid(r_max, 64)
        assert all(np.isfinite(band).all() for band in grid.laplacian_matrix)
        assert np.isfinite(grid.volume_weights).all()
        assert grid.volume_weights[1] > 0.0


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 2000), st.integers(0, 2**32 - 1))
def test_tridiagonal_factor_matches_solve_banded(n, seed):
    rng = np.random.default_rng(seed)
    lower, diag, upper = rng.standard_normal(n - 1), rng.standard_normal(n), rng.standard_normal(n - 1)
    # strict diagonal dominance keeps the system well conditioned
    diag = np.sign(diag) * (np.abs(np.append(upper, 0.0)) + np.abs(np.append(0.0, lower)) + 0.1 + np.abs(diag))
    factor = TridiagonalFactor(Tridiagonal(lower, diag, upper))
    # solve_banded's layout pads the upper diagonal in front and the lower one behind
    ab = np.array([np.append(0.0, upper), diag, np.append(lower, 0.0)])
    # the one factor serves every right-hand side and leaves it untouched
    for b in rng.standard_normal((2, n)):
        b_in = b.copy()
        ref = solve_banded((1, 1), ab, b)
        x = factor.solve(b)
        assert np.array_equal(b, b_in)
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 2000), st.integers(0, 2**32 - 1))
def test_tridiagonal_apply_is_the_dense_product(n, seed):
    rng = np.random.default_rng(seed)
    matrix = Tridiagonal(rng.standard_normal(n - 1), rng.standard_normal(n), rng.standard_normal(n - 1))
    x = rng.standard_normal(n)
    dense = _dense(matrix)
    # each row sums at most three products, in an order the dense product may not share
    bound = 4.0 * np.finfo(float).eps * (np.abs(dense) @ np.abs(x))
    assert np.all(np.abs(matrix.apply(x) - dense @ x) <= bound)


def test_singular_tridiagonal_factor_raises():
    with pytest.raises(InvariantError):
        TridiagonalFactor(Tridiagonal(np.zeros(15), np.zeros(16), np.zeros(15)))


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 2000), st.integers(0, 2**32 - 1), st.booleans())
def test_tridiagonal_factor_is_scipys_lapack_bit_for_bit(n, seed, dominant):
    # the same gttrf and gttrs, reached through numpy's bundled LAPACK instead of scipy's
    rng = np.random.default_rng(seed)
    lower, diag, upper = rng.standard_normal(n - 1), rng.standard_normal(n), rng.standard_normal(n - 1)
    if dominant:
        diag = np.sign(diag) * (np.abs(np.append(upper, 0.0)) + np.abs(np.append(0.0, lower)) + np.abs(diag))
    bands = [band.copy() for band in (lower, diag, upper)]
    *lu, info = dgttrf(lower, diag, upper)
    assert info == 0  # a standard normal draw is singular with probability 0
    factor = TridiagonalFactor(Tridiagonal(lower, diag, upper))
    for b in rng.standard_normal((2, n)):
        b_in = b.copy()
        assert np.array_equal(factor.solve(b), dgttrs(*lu, b)[0])
        assert np.array_equal(b, b_in)
    assert all(np.array_equal(band, copy) for band, copy in zip((lower, diag, upper), bands))


@pytest.mark.parametrize("lower, diag, upper", [
    (np.ones(1), np.ones(2), np.ones(1)),    # order 2
    (np.ones(4), np.ones(4), np.ones(3)),    # a subdiagonal too long
    (np.ones(3), np.ones(4), np.ones(2)),    # a superdiagonal too short
    (np.ones(3), np.ones((4, 1)), np.ones(3)),
], ids=["order_2", "long_lower", "short_upper", "2d_diag"])
def test_tridiagonal_factor_rejects_bands_of_wrong_length(lower, diag, upper):
    # the bands reach LAPACK as raw pointers, so no wrong length may get there
    with pytest.raises(ValueError, match="bands of lengths"):
        TridiagonalFactor(Tridiagonal(lower, diag, upper))


@pytest.mark.parametrize("shape", [(15,), (17,), (16, 1), (2, 16), ()])
def test_tridiagonal_solve_rejects_a_right_hand_side_of_wrong_shape(shape):
    factor = TridiagonalFactor(Tridiagonal(np.ones(15), np.full(16, 4.0), np.ones(15)))
    with pytest.raises(ValueError, match=r"right-hand side of shape \(16,\)"):
        factor.solve(np.ones(shape))


def test_lapack_outside_numpys_install_directory_is_an_import_error(tmp_path):
    # a numpy whose wheel bundles no scipy-openblas64 is refused, naming its build
    with pytest.raises(ImportError, match="scipy-openblas64.*built with LAPACK"):
        grid_module._bundled_lapack(tmp_path / "numpy")


def test_shift_moves_a_profile_by_whole_cells():
    # u(max(r - delta, 0)): outward it extends the origin value, inward it
    # brings in zeros past r_max; whole cells move the samples bit for bit
    grid = RadialGrid(4.0, 16)
    u = grid.r_max - grid.nodes
    assert np.array_equal(grid.shift(u, 3), np.concatenate([np.full(3, u[0]), u[:-3]]))
    assert np.array_equal(grid.shift(u, -3), np.concatenate([u[3:], np.zeros(3)]))
    assert np.array_equal(grid.shift(u, 0), u)
    assert np.array_equal(grid.shift(u, -grid.n), np.zeros(grid.n + 1))
    assert np.array_equal(grid.shift(u, 2 * grid.n), np.full(grid.n + 1, u[0]))


def test_shift_interpolates_a_fraction_of_a_cell():
    grid = RadialGrid(4.0, 16)
    u = (grid.r_max - grid.nodes) ** 2
    assert np.allclose(grid.shift(u, 0.5)[1:], 0.5 * (u[1:] + u[:-1]), rtol=1e-15, atol=0)
    with pytest.raises(ValueError):
        grid.shift(np.ones(grid.n), 2)

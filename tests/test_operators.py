"""Property tests of the shared discrete operators over grids and parameters.

Each identity is exact in exact arithmetic, so the tolerances only absorb
round-off of sums over up to a few thousand cells.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hylomorph.chargewin import TentProfile
from hylomorph.functionals import reduced_energy, stationary_operator
from hylomorph.gauge import solve_phi
from hylomorph.grid import RadialGrid, RadialProfile, banded_matvec, gradient_pairing, integrate_radial, radial_laplacian
from hylomorph.minimize import _Preconditioner
from hylomorph.model import NonlinearSpec, find_binding_amplitude
from hylomorph.vortex import AxisymGrid, axisym_gradient_pairing, axisym_laplacian

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

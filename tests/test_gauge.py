import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hylomorph.chargewin import SCAN_RESOLUTION, TentProfile
from hylomorph.functionals import deficiency, reduced_energy, reduced_energy_sigma, stationary_operator
from hylomorph.gauge import ScreenedPoisson, screened_mass, solve_phi
from hylomorph.grid import (FOUR_PI, InvariantError, RadialGrid, RadialProfile, Tridiagonal, TridiagonalFactor,
                            trapezoid_weights)
from hylomorph.minimize import minimize_kgm
from hylomorph.model import NonlinearSpec, eval_nonlinearity
from references import screened_mass_two_forms

SPEC = NonlinearSpec.double_well()


def gauged_energy(u, sigma, q):
    """E_sigma(u) with the screened mass, as minimize_kgm evaluates it."""
    k, _ = screened_mass(u, q)
    return reduced_energy(u.grid, u.values, SPEC, sigma, k)


def gauged_gradient(u, sigma, q):
    """-lap u + W'(u) - (sigma/K)^2 (1 - q phi_u)^2 u, as minimize_kgm evaluates it."""
    k, phi = screened_mass(u, q)
    return stationary_operator(u.grid, u.values, SPEC, (sigma / k) ** 2, phi.screen)


@pytest.fixture(scope="module")
def tent11():
    return TentProfile(1.0, 1.0).realize(RadialGrid(40.0, 4000))


def test_zero_source_gives_zero_potential():
    grid = RadialGrid(10.0, 256)
    zero = RadialProfile(grid, np.zeros(grid.n + 1))
    phi = solve_phi(zero, 1.0)
    assert np.max(np.abs(phi.values)) < 1e-14


def test_potential_monotone_and_bounded(tent11):
    phi = solve_phi(tent11, 1.0)
    assert np.all(np.diff(phi.values) <= 1e-12)
    assert phi.values.min() >= 0.0
    assert phi.values.max() <= 1.0


def test_far_field_moment(tent11):
    # exterior potential is A/r with 4 pi A equal to the screened source qK
    for q in (0.1, 1.0, 10.0):
        phi = solve_phi(tent11, q)
        k = tent11.grid.integrate((1.0 - q * phi.values) * tent11.values**2)
        moment = 4.0 * np.pi * tent11.grid.r_max * phi.values[-1]
        assert abs(moment - q * k) < 0.02 * q * k


def test_strong_coupling_bound(tent11):
    phi = solve_phi(tent11, 100.0)
    assert phi.values.max() <= 0.01 + 1e-10


def test_two_forms_of_screened_mass_agree(tent11):
    for q in (0.1, 1.0, 10.0):
        energy_form, source_form = screened_mass_two_forms(tent11, q)
        assert abs(energy_form - source_form) < 1e-6 * source_form


def test_screened_mass_between_zero_and_bare_mass(tent11):
    j, k = deficiency(tent11, SPEC, 1.0)
    assert k == screened_mass(tent11, 1.0)[0]
    assert 0.0 < k < tent11.mass2
    # the screening raises the deficiency by m^2 (||u||^2 - K) / 2
    j0, k0 = deficiency(tent11, SPEC)
    assert k0 == tent11.mass2
    assert j - j0 == pytest.approx(0.5 * SPEC.mass**2 * (k0 - k), rel=1e-12)


def test_decoupling_limit_matches_ungauged_functionals(tent11):
    sigma = 5.0
    j, k = deficiency(tent11, SPEC, 1e-8)
    j0, _ = deficiency(tent11, SPEC)
    e_nl, _ = reduced_energy_sigma(tent11, sigma, SPEC)
    assert abs(k - tent11.mass2) < 1e-5 * tent11.mass2
    assert abs(j - j0) < 1e-5 * abs(j0)
    assert abs(gauged_energy(tent11, sigma, 1e-8) - e_nl) < 1e-5 * e_nl


def test_reduced_energy_identity():
    # E_sigma = |grad u|^2/2 + W(u) + sigma^2/(2K) for random states
    rng = np.random.default_rng(11)
    grid = RadialGrid(20.0, 1024)
    r = grid.nodes
    for _ in range(20):
        vals = rng.uniform(0.5, 1.5) * np.exp(-((r - rng.uniform(1, 5)) ** 2) / rng.uniform(1, 4))
        vals[-1] = 0.0
        u = RadialProfile(grid, vals)
        sigma = rng.uniform(0.5, 100.0)
        q = rng.uniform(0.05, 5.0)
        k, _ = screened_mass(u, q)
        direct = (0.5 * grid.dirichlet(vals)
                  + grid.integrate(eval_nonlinearity(SPEC, vals, 0))
                  + sigma**2 / (2.0 * k))
        assert abs(reduced_energy(grid, vals, SPEC, sigma, k) - direct) < 1e-10 * abs(direct)


def test_monotone_screening():
    u = TentProfile(1.0, 2.0).realize(RadialGrid(30.0, 2000))
    for q in np.geomspace(0.01, 100.0, 12):
        phi = solve_phi(u, q)
        assert q * phi.values.max() <= 1.0 + 1e-9


def test_gradient_matches_finite_differences():
    grid = RadialGrid(20.0, 1024)
    r = grid.nodes
    vals = 1.2 * np.exp(-((r - 3.0) ** 2) / 4.0) + 0.3 * np.exp(-((r - 6.0) ** 2) / 2.0)
    vals[-1] = 0.0
    u = RadialProfile(grid, vals)
    sigma, q = 150.0, 1.0
    rng = np.random.default_rng(1)
    eps = 1e-6
    for _ in range(10):
        w = np.zeros_like(r)
        for _ in range(5):
            w += rng.normal() * np.exp(-((r - rng.uniform(0, 9)) ** 2) / rng.uniform(0.5, 3.0) ** 2)
        w /= max(1.0, np.max(np.abs(w)))
        v = vals * w
        g = gauged_gradient(u, sigma, q)
        e_plus = gauged_energy(RadialProfile(grid, vals + eps * v), sigma, q)
        e_minus = gauged_energy(RadialProfile(grid, vals - eps * v), sigma, q)
        fd = (e_plus - e_minus) / (2 * eps)
        an = float(grid.volume_weights @ (g * v))
        assert abs(fd - an) < 1e-5 * max(1.0, abs(an))


def test_gradient_decoupling_limit():
    grid = RadialGrid(16.0, 512)
    r = grid.nodes
    vals = np.exp(-((r - 2.0) ** 2))
    vals[-1] = 0.0
    u = RadialProfile(grid, vals)
    g_gauge = gauged_gradient(u, 20.0, 1e-8)
    g_plain = stationary_operator(grid, vals, SPEC, (20.0 / u.mass2) ** 2)
    assert np.max(np.abs(g_gauge - g_plain)) < 1e-5 * max(1.0, np.max(np.abs(g_plain)))


def test_preconditions():
    # a coupling that is not positive, whose square overflows, or whose
    # b_i q^2 u_i^2 overflows the matrix diagonal (1e154 here) is rejected
    # before any solve, on every path that reaches the potential, the
    # descent's own kernel included
    tent = TentProfile(1.0, 1.0).realize(RadialGrid(10.0, 256))
    for q in (0.0, -1.0, np.inf, np.nan, 1e300, 1.35e154, 1e154):
        for call in (solve_phi, screened_mass, lambda u, q: minimize_kgm(SPEC, 10.0, q, u)):
            with pytest.raises(ValueError, match="coupling q"):
                call(tent, q)
        if q != 0.0:
            with pytest.raises(ValueError, match="coupling q"):
                deficiency(tent, SPEC, q)
    # a strong coupling whose square is finite is a valid input
    assert solve_phi(tent, 1e150).values.max() <= 1e-150


def test_screened_mass_below_float_resolution_is_rejected():
    # K q^2 tends to a constant as q grows, until 1 - q phi drowns in round-off;
    # K < 1e6 eps^2 ||u||^2 is rejected, while phi itself stays inside its bounds
    scan = TentProfile(1.0, 5.0)
    tent = scan.realize(scan.default_grid(SCAN_RESOLUTION))
    kq2 = screened_mass(tent, 1e9)[0] * 1e9 * 1e9
    assert screened_mass(tent, 1e12)[0] * 1e12 * 1e12 == pytest.approx(kq2, rel=1e-6)
    for q in (1e15, 1e20, 1e100):
        with pytest.raises(ValueError, match="coupling q"):
            screened_mass(tent, q)
        with pytest.raises(ValueError, match="coupling q"):
            deficiency(tent, SPEC, q)
        with pytest.raises(ValueError, match="coupling q"):
            minimize_kgm(SPEC, 10.0, q, tent)
    phi = solve_phi(tent, 1e150)
    assert phi.values.min() >= 0.0 and phi.values.max() <= 1e-150


# The per-grid kernel against a from-scratch assembly --------------------------


def scratch_potential(u, q):
    """phi_u by assembling the whole screened Poisson matrix anew: the
    reference the per-grid kernel must reproduce bit for bit."""
    if not (q > 0 and q * q < np.inf):
        raise ValueError("coupling q")
    grid = u.grid
    uu = u.values**2
    a = grid.flux
    b = trapezoid_weights(grid.n, grid.h) * grid.nodes**2
    if q > np.sqrt(np.finfo(float).max / 2.0 / (max(b.max(), 1.0) * max(uu.max(), 1.0))):
        raise ValueError("coupling q")
    rhs = q * b * uu
    diag = np.empty(grid.n + 1)
    diag[1:-1] = a[:-1] + a[1:] + b[1:-1] * q**2 * uu[1:-1]
    diag[-1] = a[-1] + grid.r_max + b[-1] * q**2 * uu[-1]
    diag[0] = 6.0 / grid.h**2 + q**2 * uu[0]
    upper = -a
    upper[0] = -6.0 / grid.h**2
    rhs[0] = q * uu[0]
    matrix = Tridiagonal(-a, diag, upper)
    factor = TridiagonalFactor(matrix)
    phi = factor.solve(rhs)
    phi = phi + factor.solve(rhs - matrix.apply(phi))
    slack = 1e-10 * max(1.0, 1.0 / q)
    if not (phi.min() >= -slack and phi.max() <= 1.0 / q + slack):
        raise InvariantError("bounds")
    return np.clip(phi, 0.0, 1.0 / q)


def scratch_mass(u, q, phi):
    """K in its energy form at the reference potential, with the float-resolution floor."""
    grid = u.grid
    k = (grid.dirichlet(phi) + FOUR_PI * grid.r_max * phi[-1] ** 2
         + grid.integrate((q * phi - 1.0) ** 2 * u.values**2))
    if k < 1e6 * float(np.finfo(float).eps) ** 2 * u.mass2:
        raise ValueError("coupling q")
    return k


def random_profile(n, r_max, seed, log_scale, shape):
    """A nonnegative profile vanishing at r_max: noise, a bump or sparse spikes."""
    rng = np.random.default_rng(seed)
    grid = RadialGrid(r_max, n)
    if shape == "noise":
        vals = rng.uniform(0.0, 1.0, n + 1)
    elif shape == "bump":
        vals = np.exp(-((grid.nodes - rng.uniform(0.0, r_max)) / rng.uniform(0.05, 1.0) / r_max) ** 2)
    else:
        vals = np.where(rng.uniform(size=n + 1) < 0.05, rng.uniform(0.0, 1.0, n + 1), 0.0)
    vals *= 10.0**log_scale
    vals[-1] = 0.0
    return RadialProfile(grid, vals)


@settings(max_examples=60, deadline=None)
@given(st.integers(16, 2048), st.floats(1.0, 200.0), st.integers(0, 2**32 - 1), st.floats(-3.0, 3.0),
       st.sampled_from(["noise", "bump", "spikes"]), st.one_of(st.floats(-4.0, 12.0), st.floats(12.0, 160.0)))
@example(2048, 40.0, 7, 0.0, "bump", 0.0)
@example(16, 1.0, 3, -3.0, "spikes", -4.0)
@example(23, 146.375, 1, 1.0, "spikes", 17.0)
def test_kernel_reproduces_the_scratch_assembly(n, r_max, seed, log_scale, shape, log_q):
    # phi and K keep their bits; a coupling the scratch assembly rejects (not
    # positive with a finite square, overflowing the matrix, or screening K
    # below float resolution) is rejected by the kernel at the same check, and
    # a potential outside its bounds (a single spike at q = 1e17, whose flux
    # into the uncharged core is below float resolution) is bad input to the kernel
    u = random_profile(n, r_max, seed, log_scale, shape)
    q = 10.0**log_q
    try:
        phi = scratch_potential(u, q)
    except (ValueError, InvariantError):
        for call in (solve_phi, screened_mass):
            with pytest.raises(ValueError, match="coupling q"):
                call(u, q)
        return
    assert np.array_equal(solve_phi(u, q).values, phi)
    try:
        k = scratch_mass(u, q, phi)
    except ValueError:
        with pytest.raises(ValueError, match="coupling q"):
            screened_mass(u, q)
        return
    assert screened_mass(u, q)[0] == k
    assert np.array_equal(screened_mass(u, q)[1].values, phi)


def test_kernel_arrays_are_read_only():
    grid = RadialGrid(10.0, 256)
    kernel = ScreenedPoisson(grid)
    phi = kernel.potential(TentProfile(1.0, 1.0).realize(grid).values ** 2, 1.0)
    for arr in (*kernel.matrix, kernel.node_mass, phi.values, phi.screen):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_solving_two_profiles_leaves_the_kernel_unchanged():
    # one kernel serves a whole descent: its solves must not write into it
    grid = RadialGrid(20.0, 512)
    kernel = ScreenedPoisson(grid)
    matrix, node_mass = [band.copy() for band in kernel.matrix], kernel.node_mass.copy()
    first = TentProfile(1.0, 2.0).realize(grid).values ** 2
    second = TentProfile(0.5, 6.0).realize(grid).values ** 2
    k, phi = kernel.mass(first, 0.3)
    kernel.mass(second, 3.0)
    kernel.potential(second, 0.01)
    assert all(map(np.array_equal, kernel.matrix, matrix)) and np.array_equal(kernel.node_mass, node_mass)
    again_k, again = kernel.mass(first, 0.3)
    assert np.array_equal(again.values, phi.values) and again_k == k

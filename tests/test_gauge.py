import numpy as np
import pytest

from hylomorph.chargewin import SCAN_RESOLUTION, TentProfile
from hylomorph.functionals import deficiency, reduced_energy, reduced_energy_sigma, stationary_operator
from hylomorph.gauge import screened_mass, screened_mass_two_forms, solve_phi
from hylomorph.grid import RadialGrid, RadialProfile, integrate_radial
from hylomorph.model import NonlinearSpec, eval_nonlinearity

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
        k = integrate_radial(tent11.grid, (1.0 - q * phi.values) * tent11.values**2)
        moment = 4.0 * np.pi * tent11.grid.r_max * phi.values[-1]
        assert abs(moment - q * k) < 0.02 * q * k


def test_strong_coupling_bound(tent11):
    phi = solve_phi(tent11, 100.0)
    assert phi.values.max() <= 0.01 + 1e-10


def test_two_forms_of_screened_mass_agree(tent11):
    for q in (0.1, 1.0, 10.0):
        phi = solve_phi(tent11, q)
        energy_form, source_form = screened_mass_two_forms(tent11, phi)
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
        direct = (0.5 * u.gradient2
                  + integrate_radial(grid, eval_nonlinearity(SPEC, vals, 0))
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
    # before any solve, on every path that reaches the potential
    tent = TentProfile(1.0, 1.0).realize(RadialGrid(10.0, 256))
    for q in (0.0, -1.0, np.inf, np.nan, 1e300, 1.35e154, 1e154):
        for call in (solve_phi, screened_mass):
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
    phi = solve_phi(tent, 1e150)
    assert phi.values.min() >= 0.0 and phi.values.max() <= 1e-150

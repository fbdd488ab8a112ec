import numpy as np
import pytest

from hylomorph.chargewin import TentProfile
from hylomorph.functionals import nlkg_deficiency, reduced_energy_sigma, stationary_operator
from hylomorph.gauge import kgm_functionals, kgm_gradient, screened_mass_two_forms, solve_phi
from hylomorph.grid import RadialGrid, RadialProfile, integrate_radial
from hylomorph.model import NonlinearSpec, eval_nonlinearity

SPEC = NonlinearSpec.double_well()


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
    f = kgm_functionals(tent11, 1.0, 1.0, SPEC)
    assert 0.0 < f.screened_mass < tent11.mass2
    assert f.mass_defect == pytest.approx(f.screened_mass - tent11.mass2, rel=1e-12)
    assert f.omega == pytest.approx(-1.0 / f.screened_mass, rel=1e-12)


def test_decoupling_limit_matches_ungauged_functionals(tent11):
    sigma = 5.0
    f = kgm_functionals(tent11, sigma, 1e-8, SPEC)
    e_nl, _ = reduced_energy_sigma(tent11, sigma, SPEC)
    assert abs(f.screened_mass - tent11.mass2) < 1e-5 * tent11.mass2
    assert abs(f.deficiency - nlkg_deficiency(tent11, SPEC)) < 1e-5 * abs(nlkg_deficiency(tent11, SPEC))
    assert abs(f.reduced_energy - e_nl) < 1e-5 * e_nl


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
        f = kgm_functionals(u, sigma, q, SPEC)
        direct = (0.5 * u.gradient2
                  + integrate_radial(grid, eval_nonlinearity(SPEC, vals, 0))
                  + sigma**2 / (2.0 * f.screened_mass))
        assert abs(f.reduced_energy - direct) < 1e-10 * abs(direct)


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
        g = kgm_gradient(u, sigma, q, SPEC)
        e_plus = kgm_functionals(RadialProfile(grid, vals + eps * v), sigma, q, SPEC).reduced_energy
        e_minus = kgm_functionals(RadialProfile(grid, vals - eps * v), sigma, q, SPEC).reduced_energy
        fd = (e_plus - e_minus) / (2 * eps)
        an = float(grid.volume_weights @ (g * v))
        assert abs(fd - an) < 1e-5 * max(1.0, abs(an))


def test_gradient_is_the_bundle_expression(tent11):
    # the gradient needs only K and phi; it must equal the expression built
    # from the whole kgm_functionals bundle bit for bit
    sigma, q = 150.0, 0.7
    funcs = kgm_functionals(tent11, sigma, q, SPEC)
    bundle = stationary_operator(tent11.grid, tent11.values, SPEC,
                                 (sigma / funcs.screened_mass) ** 2, funcs.phi.screen)
    assert np.array_equal(kgm_gradient(tent11, sigma, q, SPEC), bundle)


def test_gradient_decoupling_limit():
    from hylomorph.functionals import nlkg_first_variation

    grid = RadialGrid(16.0, 512)
    r = grid.nodes
    vals = np.exp(-((r - 2.0) ** 2))
    vals[-1] = 0.0
    u = RadialProfile(grid, vals)
    g_gauge = kgm_gradient(u, 20.0, 1e-8, SPEC)
    g_plain = nlkg_first_variation(u, 20.0, SPEC)
    assert np.max(np.abs(g_gauge - g_plain)) < 1e-5 * max(1.0, np.max(np.abs(g_plain)))


def test_preconditions():
    grid = RadialGrid(10.0, 256)
    u = RadialProfile(grid, np.zeros(grid.n + 1))
    with pytest.raises(ValueError):
        solve_phi(u, 0.0)
    with pytest.raises(ValueError):
        kgm_functionals(u, 1.0, 1.0, SPEC)
    tent = TentProfile(1.0, 1.0).realize(grid)
    with pytest.raises(ValueError):
        kgm_functionals(tent, -1.0, 1.0, SPEC)
    with pytest.raises(ValueError):
        kgm_gradient(u, 1.0, 1.0, SPEC)
    with pytest.raises(ValueError):
        kgm_gradient(tent, -1.0, 1.0, SPEC)

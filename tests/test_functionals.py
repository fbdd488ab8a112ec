import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hylomorph.chargewin import TentProfile
from hylomorph.evolve import field_charge, field_energy, soliton_state
from hylomorph.functionals import (
    deficiency,
    reduced_energy,
    reduced_energy_sigma,
    sigma_window,
    stationary_operator,
)
from hylomorph.grid import RadialGrid, RadialProfile
from hylomorph.model import NonlinearSpec
from hylomorph.vortex import AxisymGrid, torus_bump
from references import tent_quadratures

SPEC = NonlinearSpec.double_well()


def energy(u, omega):
    """E(u, omega) of the standing wave, as the time evolution measures it."""
    return field_energy(soliton_state(u, omega), SPEC)


def charge(u, omega):
    return field_charge(soliton_state(u, omega))


def tent_profile(s1, r, r_max=None, n=4096):
    r_max = r_max if r_max is not None else 2.0 * (r + 1.0)
    return TentProfile(s1, r).realize(RadialGrid(r_max, n))


def closed_form_deficiency(s1, r):
    tq = tent_quadratures(s1, r, SPEC)
    return 0.5 * tq.grad2 + tq.remainder_int


def test_zero_state_energy_and_charge():
    grid = RadialGrid(4.0, 64)
    zero = RadialProfile(grid, np.zeros(grid.n + 1))
    assert energy(zero, 0.7) == 0.0
    assert charge(zero, 0.0) == 0.0


def test_energy_even_in_omega():
    u = tent_profile(1.0, 2.0)
    assert energy(u, 0.4) == energy(u, -0.4)


def test_tent_energy_against_closed_form():
    u = tent_profile(1.0, 1.0)
    tq = tent_quadratures(1.0, 1.0, SPEC)
    expected = 0.5 * tq.grad2 + tq.remainder_int + 0.5 * tq.mass2
    assert energy(u, 0.0) == pytest.approx(expected, rel=1e-3)


def test_charge_of_tent():
    u = tent_profile(1.0, 1.0)
    assert charge(u, -1.0) == pytest.approx(52.0 * np.pi / 15.0, rel=1e-3)


def test_charge_scaling_quadratic():
    u = tent_profile(1.0, 2.0)
    u2 = tent_profile(2.0, 2.0)
    c1 = charge(u, -0.3)
    c2 = charge(u2, -0.3)
    assert c2 == pytest.approx(4.0 * c1, rel=1e-12)


def test_deficiency_signs_and_values():
    u5 = tent_profile(1.0, 5.0)
    j5, k5 = deficiency(u5, SPEC)
    assert k5 == u5.mass2
    assert j5 == pytest.approx(closed_form_deficiency(1.0, 5.0), rel=0.02)
    assert j5 < 0
    u1 = tent_profile(1.0, 1.0)
    assert deficiency(u1, SPEC)[0] > 0
    grid = RadialGrid(4.0, 64)
    assert deficiency(RadialProfile(grid, np.zeros(grid.n + 1)), SPEC) == (0.0, 0.0)


def test_reduced_energy_eliminates_frequency():
    u = tent_profile(1.0, 1.0)
    sigma = 52.0 * np.pi / 15.0
    e_sigma, omega = reduced_energy_sigma(u, sigma, SPEC)
    assert omega == pytest.approx(-1.0, rel=1e-3)
    # consistency with the full energy at the eliminated frequency
    assert energy(u, omega) == pytest.approx(e_sigma, rel=1e-12)


def test_reduced_energy_zero_profile_infeasible():
    grid = RadialGrid(4.0, 64)
    zero = RadialProfile(grid, np.zeros(grid.n + 1))
    with pytest.raises(ValueError):
        reduced_energy_sigma(zero, 1.0, SPEC)
    energy, omega = reduced_energy_sigma(zero, 0.0, SPEC)
    assert energy == 0.0 and omega == 0.0


def test_reduced_energy_identity_with_deficiency():
    # a winding profile's centrifugal energy enters E_sigma and J alike
    torus = torus_bump(AxisymGrid(12.0, 8.0, 48, 48), 1.1, 4.0, 1.5, winding=2)
    for u in (tent_profile(1.1, 3.0), torus):
        sigma = 37.0
        e_sigma, _ = reduced_energy_sigma(u, sigma, SPEC)
        assert e_sigma == reduced_energy(u.grid, u.values, SPEC, sigma, u.mass2, u.grid.centrifugal(u.winding))
        m2 = SPEC.mass**2
        alt = deficiency(u, SPEC)[0] + 0.5 * (m2 * u.mass2 + sigma**2 / u.mass2)
        assert e_sigma == pytest.approx(alt, rel=1e-10)


def test_hylomorphy_at_window_center():
    u = tent_profile(1.0, 5.0)
    sigma = SPEC.mass * u.mass2
    lam = reduced_energy_sigma(u, sigma, SPEC)[0] / sigma
    assert lam == pytest.approx(1.0 + deficiency(u, SPEC)[0] / sigma, rel=1e-12)
    assert lam < SPEC.mass


def test_hylomorphy_diverges_at_small_charge():
    u = tent_profile(1.0, 2.0)
    assert reduced_energy_sigma(u, 1e-8, SPEC)[0] / 1e-8 > 1e6


def test_window_empty_without_negative_deficiency():
    u = tent_profile(1.0, 1.0)
    assert deficiency(u, SPEC)[0] > 0
    assert sigma_window(u, SPEC) is None


def test_window_against_closed_form():
    u = tent_profile(1.0, 5.0)
    lo, hi = sigma_window(u, SPEC)
    k = tent_quadratures(1.0, 5.0, SPEC).mass2
    j = closed_form_deficiency(1.0, 5.0)
    width = np.sqrt(2.0 * k * abs(j))
    assert lo == pytest.approx(k - width, rel=1e-3)
    assert hi == pytest.approx(k + width, rel=1e-3)
    # endpoint product identity
    assert lo * hi == pytest.approx(u.mass2 * (u.mass2 - 2 * abs(deficiency(u, SPEC)[0])), rel=1e-10)


def test_ratio_below_mass_exactly_inside_window():
    rng = np.random.default_rng(7)
    for _ in range(10):
        s1 = rng.uniform(0.9, 1.2)
        r = rng.uniform(4.0, 8.0)
        u = tent_profile(s1, r, n=2048)
        window = sigma_window(u, SPEC)
        if window is None:
            continue
        lo, hi = window
        width = hi - lo
        for sigma in np.linspace(lo + 1e-6 * width, hi - 1e-6 * width, 12):
            assert reduced_energy_sigma(u, sigma, SPEC)[0] / sigma < SPEC.mass
        outside = list(np.linspace(hi + 1e-6 * width, 3 * hi, 6))
        if lo > 1e-9:
            outside += list(np.linspace(lo * 1e-3, lo * (1 - 1e-6), 6))
        for sigma in outside:
            assert reduced_energy_sigma(u, sigma, SPEC)[0] / sigma >= SPEC.mass


def test_first_variation_matches_finite_differences():
    grid = RadialGrid(16.0, 1024)
    r = grid.nodes
    vals = 1.1 * np.exp(-((r - 2.5) ** 2) / 3.0)
    vals[-1] = 0.0
    u = RadialProfile(grid, vals)
    sigma = 40.0
    rng = np.random.default_rng(3)
    w = np.exp(-((r - rng.uniform(1, 5)) ** 2)) * rng.normal()
    w /= max(1.0, np.max(np.abs(w)))
    v = vals * w
    eps = 1e-6
    e_plus, _ = reduced_energy_sigma(RadialProfile(grid, vals + eps * v), sigma, SPEC)
    e_minus, _ = reduced_energy_sigma(RadialProfile(grid, vals - eps * v), sigma, SPEC)
    fd = (e_plus - e_minus) / (2 * eps)
    g = stationary_operator(grid, vals, SPEC, (sigma / u.mass2) ** 2)
    an = float(grid.volume_weights @ (g * v))
    assert abs(fd - an) < 1e-5 * max(1.0, abs(an))


@settings(max_examples=40, deadline=None)
@given(st.floats(0.5, 1.5), st.floats(1.0, 10.0), st.just(0.0) | st.floats(1e-3, 0.2),
       st.floats(0.0, 1.0))
def test_reduced_energy_is_the_deficiency_plus_a_square(s1, r, q, t):
    # E_sigma - m sigma = J + (sigma - m K)^2 / (2 K) for either theory, so
    # E_sigma/sigma < m exactly inside the window of (J, K)
    u = tent_profile(s1, r, n=512)
    j, k = deficiency(u, SPEC, q)
    m = SPEC.mass
    window = sigma_window(u, SPEC, q)
    sigma = 2.0 * m * k * t + 1e-3 * k
    e_sigma = reduced_energy(u.grid, u.values, SPEC, sigma, k)
    square = (sigma - m * k) ** 2 / (2.0 * k)
    scale = abs(e_sigma) + m * sigma
    assert e_sigma - m * sigma == pytest.approx(j + square, abs=1e-12 * scale)
    if window is None:
        assert j >= 0.0
        return
    lo, hi = window
    assert (lo, hi) == (m * k - np.sqrt(2.0 * k * abs(j)), m * k + np.sqrt(2.0 * k * abs(j)))
    assert reduced_energy(u.grid, u.values, SPEC, m * k, k) / (m * k) < m
    margin = 1e-9 * scale
    if lo + margin < sigma < hi - margin:
        assert e_sigma / sigma < m
    elif not lo - margin <= sigma <= hi + margin:
        assert e_sigma / sigma >= m

"""Acceptance suite: one test per criterion, each printing a pass line.

Criteria 2, 7 and 10 are packaged as pure helper functions returning their
summary scalars so the determinism criterion can re-run them and compare
bit for bit.
"""

import time

import numpy as np
import pytest

from hylomorph.chargewin import TentProfile, construct_for_charge, verify_tent_witness
from hylomorph.evolve import stability_experiment
from hylomorph.functionals import (
    hylomorphy_ratio,
    nlkg_first_variation,
    reduced_energy_sigma,
    sigma_window,
)
from hylomorph.gauge import kgm_functionals, kgm_gradient, screened_mass_two_forms, solve_phi
from hylomorph.grid import RadialGrid, RadialProfile, integrate_radial, weighted_norm
from hylomorph.minimize import SolveOptions, minimize_kgm, minimize_nlkg, residual_stationary
from hylomorph.model import NonlinearSpec, eval_nonlinearity, validate_assumptions, classify_charge_criteria
from hylomorph.oracle import shoot_ground_state, tent_quadratures
from hylomorph.vortex import AxisymGrid, minimize_vortex, torus_bump, vortex_observables

SPEC = NonlinearSpec.double_well()


def report(criterion: int, elapsed: float, budget: float):
    print(f"\n[acceptance] criterion {criterion}: PASS ({elapsed:.1f} s, budget {budget:.0f} s)")
    assert elapsed < budget


# criterion 1 ---------------------------------------------------------------

def test_criterion_1_assumption_suite():
    t0 = time.perf_counter()
    good = validate_assumptions(SPEC, s_max=3.0, n_samples=1000)
    assert good.all_pass
    crit = classify_charge_criteria(SPEC)
    assert crit.second_vacuum == "holds"
    assert crit.second_vacuum_witness == pytest.approx(1.0, abs=1e-6)
    bad = validate_assumptions(NonlinearSpec.power_deficit(1.0, 0.0, 4.0, 5.0),
                               s_max=3.0, n_samples=1000)
    assert not bad.nonnegative
    report(1, time.perf_counter() - t0, 1.0)


# criterion 2 ---------------------------------------------------------------

def run_criterion_2() -> dict[str, float]:
    shot = shoot_ground_state(SPEC, 0.5)
    grid = RadialGrid(shot.profile.grid.r_max, 4096)
    shot = shoot_ground_state(SPEC, 0.5, grid=grid)
    residual_shot = residual_stationary(shot, SPEC, "nlkg")
    sigma = 0.5 * shot.profile.mass2
    res = minimize_nlkg(SPEC, sigma, TentProfile(1.0, 3.0).realize(grid), SolveOptions(tol=1e-8))
    l2_diff = (weighted_norm(grid, res.u.values - shot.profile.values)
               / weighted_norm(grid, shot.profile.values))
    energy_shot, _ = reduced_energy_sigma(shot.profile, sigma, SPEC)
    return {
        "u0": shot.u0,
        "bracket_lo": shot.bracket[0],
        "bracket_hi": shot.bracket[1],
        "shot_residual": residual_shot,
        "sigma": sigma,
        "min_energy": res.energy,
        "min_omega": res.omega,
        "min_residual": res.residual,
        "converged": float(res.converged and shot.converged),
        "l2_diff": l2_diff,
        "energy_diff": abs(res.energy - energy_shot) / energy_shot,
    }


@pytest.fixture(scope="module")
def crit2():
    t0 = time.perf_counter()
    scalars = run_criterion_2()
    return scalars, time.perf_counter() - t0


def test_criterion_2_ground_state_cross_validation(crit2):
    scalars, elapsed = crit2
    assert scalars["converged"] == 1.0
    assert scalars["shot_residual"] < 1e-4
    assert scalars["l2_diff"] < 1e-3
    assert scalars["energy_diff"] < 1e-3
    report(2, elapsed, 30.0)


# criterion 3 ---------------------------------------------------------------

def test_criterion_3_window_algebra():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    accepted = 0
    while accepted < 50:
        s1 = rng.uniform(0.8, 1.2)
        r = rng.uniform(2.0, 10.0)
        tq = tent_quadratures(s1, r, SPEC)
        if 0.5 * tq.grad2 + tq.remainder_int >= 0:
            continue
        accepted += 1
        grid = RadialGrid(2.0 * (r + 1.0), max(512, int(2.0 * (r + 1.0) / 0.05)))
        u = TentProfile(s1, r).realize(grid)
        window = sigma_window(u, SPEC)
        assert window is not None
        lo, hi = window
        width = hi - lo
        inside = rng.uniform(lo + 1e-9 * width, hi - 1e-9 * width, size=20)
        for sigma in inside:
            assert hylomorphy_ratio(u, sigma, SPEC) < SPEC.mass
        n_below = 10 if lo > 0 else 0
        outside = list(rng.uniform(hi * (1.0 + 1e-9), 3.0 * hi, size=20 - n_below))
        if n_below:
            outside += list(rng.uniform(lo * 1e-3, lo * (1.0 - 1e-9), size=n_below))
        for sigma in outside:
            assert hylomorphy_ratio(u, sigma, SPEC) >= SPEC.mass
    report(3, time.perf_counter() - t0, 5.0)


# criterion 4 ---------------------------------------------------------------

def test_criterion_4_gauge_subproblem():
    t0 = time.perf_counter()
    grid = RadialGrid(40.0, 4000)
    u = TentProfile(1.0, 1.0).realize(grid)
    for q in (0.1, 1.0, 10.0):
        phi = solve_phi(u, q)
        assert phi.values.min() >= 0.0
        assert phi.values.max() <= 1.0 / q
        energy_form, source_form = screened_mass_two_forms(u, phi)
        assert abs(energy_form - source_form) < 1e-6 * source_form
        moment = 4.0 * np.pi * grid.r_max * phi.values[-1]
        assert abs(moment - q * source_form) < 0.02 * q * source_form
    report(4, time.perf_counter() - t0, 5.0)


# criterion 5 ---------------------------------------------------------------

def test_criterion_5_reduced_energy_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    grid = RadialGrid(20.0, 1024)
    r = grid.nodes
    for _ in range(20):
        vals = rng.uniform(0.3, 1.5) * np.exp(-((r - rng.uniform(1.0, 6.0)) ** 2) / rng.uniform(1.0, 5.0))
        vals[-1] = 0.0
        u = RadialProfile(grid, vals)
        sigma = rng.uniform(0.1, 200.0)
        q = rng.uniform(0.01, 5.0)
        f = kgm_functionals(u, sigma, q, SPEC)
        direct = (0.5 * u.gradient2 + integrate_radial(grid, eval_nonlinearity(SPEC, vals, 0))
                  + sigma**2 / (2.0 * f.screened_mass))
        assert abs(f.reduced_energy - direct) < 1e-10 * abs(direct)
    report(5, time.perf_counter() - t0, 5.0)


# criterion 6 ---------------------------------------------------------------

def _smooth_direction(rng, r, base):
    w = np.zeros_like(r)
    for _ in range(5):
        w += rng.normal() * np.exp(-((r - rng.uniform(0.0, 0.6 * r[-1])) ** 2)
                                   / rng.uniform(0.5, 3.0) ** 2)
    w /= max(1.0, np.max(np.abs(w)))
    return base * w


def test_criterion_6_gradient_checks():
    t0 = time.perf_counter()
    eps = 1e-6
    grid = RadialGrid(20.0, 1024)
    r = grid.nodes
    vals = 1.2 * np.exp(-((r - 3.0) ** 2) / 4.0) + 0.3 * np.exp(-((r - 6.0) ** 2) / 2.0)
    vals[-1] = 0.0
    u = RadialProfile(grid, vals)
    rng = np.random.default_rng(6)
    sigma, q = 120.0, 0.8

    for _ in range(10):
        v = _smooth_direction(rng, r, vals)
        fd = (reduced_energy_sigma(RadialProfile(grid, vals + eps * v), sigma, SPEC)[0]
              - reduced_energy_sigma(RadialProfile(grid, vals - eps * v), sigma, SPEC)[0]) / (2 * eps)
        an = float(grid.volume_weights @ (nlkg_first_variation(u, sigma, SPEC) * v))
        assert abs(fd - an) < 1e-5 * max(1.0, abs(an))

    for _ in range(10):
        v = _smooth_direction(rng, r, vals)
        fd = (kgm_functionals(RadialProfile(grid, vals + eps * v), sigma, q, SPEC).reduced_energy
              - kgm_functionals(RadialProfile(grid, vals - eps * v), sigma, q, SPEC).reduced_energy) / (2 * eps)
        an = float(grid.volume_weights @ (kgm_gradient(u, sigma, q, SPEC) * v))
        assert abs(fd - an) < 1e-5 * max(1.0, abs(an))

    from hylomorph.model import eval_nonlinearity as evalw
    from hylomorph.vortex import axisym_laplacian, centrifugal_factor

    agrid = AxisymGrid(12.0, 8.0, 96, 96)
    init = torus_bump(agrid, 0.9, 4.0, 1.8, winding=1)
    base = init.values
    w2 = agrid.cell_weights
    fac = centrifugal_factor(agrid)
    sigma_v = 90.0

    def energy2d(v):
        mass2 = float(np.sum(w2 * v * v))
        d_r = np.diff(v, axis=0)
        r_face = (agrid.r[:-1] + 0.5 * agrid.h_r)[:, None]
        wz = np.full(agrid.n_z + 1, agrid.h_z)
        wz[0] = wz[-1] = 0.5 * agrid.h_z
        e_r = 2.0 * np.pi * float(np.sum(r_face * d_r**2 * wz[None, :])) / agrid.h_r
        d_z = np.diff(v, axis=1)
        wr = np.full(agrid.n_r + 1, agrid.h_r)
        wr[0] = wr[-1] = 0.5 * agrid.h_r
        e_z = 2.0 * np.pi * float(np.sum((wr * agrid.r)[:, None] * d_z**2)) / agrid.h_z
        spin = float(np.sum(w2 * fac * v * v))
        pot = float(np.sum(w2 * evalw(SPEC, v, 0)))
        return 0.5 * (e_r + e_z + spin) + pot + sigma_v**2 / (2.0 * mass2)

    def grad2d(v):
        mass2 = float(np.sum(w2 * v * v))
        g = (-axisym_laplacian(agrid, v) + evalw(SPEC, v, 1)
             + (fac - (sigma_v / mass2) ** 2) * v)
        g[0, :] = g[-1, :] = 0.0
        g[:, 0] = g[:, -1] = 0.0
        return g

    for _ in range(10):
        bump = rng.normal() * np.exp(-((agrid.r[:, None] - rng.uniform(2.0, 6.0)) ** 2
                                       + agrid.z[None, :] ** 2) / rng.uniform(1.0, 4.0))
        bump /= max(1.0, np.max(np.abs(bump)))
        v = base * bump
        fd = (energy2d(base + eps * v) - energy2d(base - eps * v)) / (2 * eps)
        an = float(np.sum(w2 * grad2d(base) * v))
        assert abs(fd - an) < 1e-5 * max(1.0, abs(an))

    report(6, time.perf_counter() - t0, 60.0)


# criterion 7 ---------------------------------------------------------------

def run_criterion_7() -> dict[str, float]:
    out: dict[str, float] = {}
    for target in (10.0, 100.0, 1000.0):
        plan = construct_for_charge(SPEC, target)
        rep = verify_tent_witness(SPEC, plan.s1, plan.r, plan.h, plan.q, c3=plan.sobolev_c3)
        key = f"t{int(target)}"
        out[f"{key}_r"] = plan.r
        out[f"{key}_q"] = plan.q
        out[f"{key}_charge"] = plan.charge
        out[f"{key}_predicted"] = plan.predicted_charge_lb
        out[f"{key}_deficiency"] = rep.deficiency
        out[f"{key}_defect"] = rep.mass_defect
        out[f"{key}_mass2"] = rep.mass2
        out[f"{key}_h"] = plan.h
        out[f"{key}_all_pass"] = float(rep.all_pass)
    return out


@pytest.fixture(scope="module")
def crit7():
    t0 = time.perf_counter()
    scalars = run_criterion_7()
    return scalars, time.perf_counter() - t0


def test_criterion_7_large_charge_pipeline(crit7):
    scalars, elapsed = crit7
    charges = []
    for target in (10.0, 100.0, 1000.0):
        key = f"t{int(target)}"
        assert scalars[f"{key}_all_pass"] == 1.0
        assert scalars[f"{key}_deficiency"] < 0.0
        h = scalars[f"{key}_h"]
        assert scalars[f"{key}_defect"] >= (h**2 - 1.0) * scalars[f"{key}_mass2"]
        assert scalars[f"{key}_charge"] >= target
        charges.append(scalars[f"{key}_charge"])
    assert charges[0] < charges[1] < charges[2]
    report(7, elapsed, 60.0)


# criterion 8 ---------------------------------------------------------------

def test_criterion_8_gauge_decoupling():
    t0 = time.perf_counter()
    grid = RadialGrid(24.0, 2048)
    init = TentProfile(1.0, 5.0).realize(grid)
    sigma = 400.0
    plain = minimize_nlkg(SPEC, sigma, init)
    gauged = minimize_kgm(SPEC, sigma, 1e-8, init)
    assert plain.converged and gauged.converged
    du = weighted_norm(grid, plain.u.values - gauged.u.values) / weighted_norm(grid, plain.u.values)
    assert du < 1e-4
    assert abs(plain.omega - gauged.omega) < 1e-4 * abs(plain.omega)
    assert abs(plain.energy - gauged.energy) < 1e-4 * plain.energy
    report(8, time.perf_counter() - t0, 60.0)


# criterion 9 ---------------------------------------------------------------

def test_criterion_9_vortex():
    t0 = time.perf_counter()
    sigma = 600.0
    grid = AxisymGrid(16.0, 12.0, 576, 288)
    opts = SolveOptions(tol=2e-7, max_iters=20000)
    results = {}
    for ell in (1, -1):
        init = torus_bump(grid, 1.0, 6.0, 2.0, winding=ell)
        results[ell] = minimize_vortex(SPEC, sigma, ell, init, opts)
        assert results[ell].converged
    plus, minus = results[1], results[-1]
    assert abs(plus.energy - minus.energy) < 1e-8 * plus.energy
    for res in (plus, minus):
        u = res.u.values
        assert np.abs(u[0, :]).max() == 0.0
        assert np.abs(u[1, :]).max() < 1e-2 * u.max()
        assert res.residual < 1e-5
        charge, l3 = vortex_observables(res)
        assert l3 == res.winding * sigma
    radial = minimize_nlkg(SPEC, sigma, TentProfile(1.0, 5.0).realize(RadialGrid(16.0, 1024)))
    assert radial.converged
    assert plus.energy >= radial.energy
    report(9, time.perf_counter() - t0, 300.0)


# criterion 10 --------------------------------------------------------------

def run_criterion_10() -> dict[str, float]:
    grid = RadialGrid(32.0, 4096)
    ground = minimize_nlkg(SPEC, 80.0, TentProfile(1.0, 3.0).realize(grid), SolveOptions(tol=1e-8))
    exp = stability_experiment(ground.u, ground.omega, SPEC, 50.0, grid.h / 2.0, 0.01)
    drifts = exp.ledgers["ledger"].drifts()
    ds = exp.ledgers["ledger_scaled"].arrays()["distance"]
    db = exp.ledgers["ledger_bump"].arrays()["distance"]
    return {
        "omega": ground.omega,
        "energy_drift": drifts["energy_drift"],
        "charge_drift": drifts["charge_drift"],
        "modulus_dev": float(np.max(np.abs(np.abs(exp.final.psi) - ground.u.values)) / ground.u.values.max()),
        "soliton_loc": float(exp.ledgers["ledger"].arrays()["localization"].max()),
        "scaled_ratio": float(ds.max() / ds[0]),
        "bump_ratio": float(db.max() / db[0]),
        "free_loc": exp.ledgers["ledger_free"].drifts()["final_localization"],
        "reversal": exp.reversal_error,
    }


@pytest.fixture(scope="module")
def crit10():
    t0 = time.perf_counter()
    scalars = run_criterion_10()
    return scalars, time.perf_counter() - t0


def test_criterion_10_stability_experiment(crit10):
    scalars, elapsed = crit10
    assert scalars["energy_drift"] < 1e-6
    assert scalars["charge_drift"] < 1e-6
    assert scalars["modulus_dev"] < 1e-4
    assert scalars["scaled_ratio"] < 5.0
    assert scalars["bump_ratio"] < 5.0
    assert scalars["free_loc"] > 0.5
    assert scalars["soliton_loc"] < 1e-2
    assert scalars["reversal"] < 1e-8
    report(10, elapsed, 300.0)


# criterion 11 --------------------------------------------------------------

def test_criterion_11_determinism(crit2, crit7, crit10):
    t0 = time.perf_counter()
    for (first, _), rerun in ((crit2, run_criterion_2()), (crit7, run_criterion_7()),
                              (crit10, run_criterion_10())):
        for key, value in rerun.items():
            assert first[key] == value, f"scalar {key} not reproducible"
    report(11, time.perf_counter() - t0, 600.0)

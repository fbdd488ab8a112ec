import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from hylomorph.chargewin import TentProfile
from hylomorph.functionals import sigma_window
from hylomorph.grid import RadialGrid, RadialProfile, weighted_norm
from hylomorph.minimize import SolveOptions, descend, minimize_kgm, minimize_nlkg, residual_stationary
from hylomorph.model import NonlinearSpec

SPEC = NonlinearSpec.double_well()


@pytest.fixture(scope="module")
def grid():
    return RadialGrid(24.0, 1024)


@pytest.fixture(scope="module")
def tent_init(grid):
    return TentProfile(1.0, 5.0).realize(grid)


@pytest.fixture(scope="module")
def ground(grid, tent_init):
    lo, hi = sigma_window(tent_init, SPEC)
    return minimize_nlkg(SPEC, 0.5 * (lo + hi), tent_init)


def test_converges_inside_certified_window(ground):
    assert ground.converged
    assert ground.hylomorphy < SPEC.mass
    assert ground.residual < 1e-6 * (1.0 + np.sqrt(ground.u.mass2))
    assert ground.omega < 0


def test_charge_reproduced(ground):
    assert -ground.omega * ground.u.mass2 == pytest.approx(ground.charge, rel=1e-8)


def test_residual_stationary_agrees(ground):
    assert residual_stationary(ground, SPEC, "nlkg") == pytest.approx(ground.residual, rel=1e-6)


def test_rerun_from_minimizer_is_fixed_point(ground):
    again = minimize_nlkg(SPEC, ground.charge, ground.u)
    assert again.iterations == 0
    assert np.max(np.abs(again.u.values - ground.u.values)) < 1e-10


def test_zero_state_residuals():
    g = RadialGrid(8.0, 64)
    zero = RadialProfile(g, np.zeros(g.n + 1))

    class Dummy:
        u = zero
        omega = 0.4
        coupling = None
        winding = 0

    assert residual_stationary(Dummy(), SPEC, "nlkg") == 0.0


def test_tiny_charge_collapse_diagnosis(grid, tent_init):
    res = minimize_nlkg(SPEC, 1e-3, tent_init, SolveOptions(max_iters=4000))
    assert res.collapsed or res.hylomorphy >= SPEC.mass
    assert not res.certified
    assert res.note


def test_sigma_validation(tent_init):
    with pytest.raises(ValueError):
        minimize_nlkg(SPEC, 0.0, tent_init)
    with pytest.raises(ValueError):
        minimize_nlkg(SPEC, -1.0, tent_init)


def test_kgm_decoupling_limit(grid, tent_init, ground):
    res = minimize_kgm(SPEC, ground.charge, 1e-8, tent_init)
    assert res.converged
    du = weighted_norm(grid, res.u.values - ground.u.values) / weighted_norm(grid, ground.u.values)
    assert du < 1e-4
    assert abs(res.omega - ground.omega) < 1e-4 * abs(ground.omega)
    assert abs(res.energy - ground.energy) < 1e-4 * ground.energy


def test_kgm_solve_at_moderate_coupling(grid, tent_init):
    res = minimize_kgm(SPEC, 650.0, 0.05, tent_init)
    assert res.converged
    assert res.electric_charge == pytest.approx(0.05 * 650.0, rel=1e-12)
    assert res.phi is not None
    assert res.phi.values.max() <= 1.0 / 0.05 + 1e-9
    assert residual_stationary(res, SPEC, "kgm") < 1e-6 * (1.0 + np.sqrt(res.u.mass2))


def test_residual_kind_validation(ground):
    with pytest.raises(ValueError):
        residual_stationary(ground, SPEC, "kgm")  # no coupling stored
    with pytest.raises(ValueError):
        residual_stationary(ground, SPEC, "bogus")


def test_options_validation():
    with pytest.raises(ValueError):
        SolveOptions(tol=0.0)
    with pytest.raises(ValueError):
        SolveOptions(max_iters=0)


_PATCHED_GAUGE_SCRIPT = textwrap.dedent("""
    import sys
    import numpy as np
    from hylomorph import cli, gauge
    from hylomorph.chargewin import TentProfile
    from hylomorph.grid import RadialGrid
    from hylomorph.minimize import InvariantError

    # a defective banded solve returning a potential far above 1/q
    gauge.solve_banded = lambda bands, ab, rhs: np.full_like(rhs, 1e3)
    try:
        gauge.solve_phi(TentProfile(1.0, 3.0).realize(RadialGrid(8.0, 64)), 1.0)
        print("solve_phi: no error")
    except InvariantError:
        print("solve_phi: InvariantError")
    print("exit", cli.main(["solve-kgm", "--config", sys.argv[1], "--out", sys.argv[2]]))
""")


def test_invariants_survive_optimized_mode(tmp_path):
    cfg = tmp_path / "kgm.ini"
    cfg.write_text("[grid]\nr_max = 16.0\nn = 256\n\n[solve]\nsigma = 100.0\ninit_r = 4.0\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-O", "-c", _PATCHED_GAUGE_SCRIPT, str(cfg), str(tmp_path / "out")],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.stdout.split("\n")[:2] == ["solve_phi: InvariantError", "exit 5"], proc.stderr


@pytest.mark.parametrize("spec, sigma", [
    (NonlinearSpec.power_deficit(2.47, 0.0082, 5.01, 5.16), 365.0),  # trial energies overflow
    (NonlinearSpec.power_deficit(0.1, 0.0, 5.5, 5.55), 500.0),       # so do gradient norms
])
def test_runaway_descent_raises_no_floating_point_warning(spec, sigma):
    # both energies are (nearly) unbounded below, so the descent runs off
    # toward float range; overflowing trials must be rejected quietly and
    # the accepted path must stay finite and monotone
    init = TentProfile(1.0, 3.0).realize(RadialGrid(12.0, 128))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        energies = [minimize_nlkg(spec, sigma, init, SolveOptions(max_iters=k)).energy for k in (1, 2, 4, 16)]
    assert np.isfinite(energies).all()
    assert energies == sorted(energies, reverse=True)


def test_descend_rejects_a_trial_of_minus_infinite_energy():
    # -inf passes the Armijo test; accepting it would end the descent on a
    # state whose energy is not a number the caller can use
    def energy(u):
        return (-np.inf if u.max() > 1.5 else 0.5 * float(np.sum((u - 2.0) ** 2))), None

    u, _, _, _ = descend(np.zeros(8), energy, lambda u, _: u - 2.0, lambda u: u, np.ones(8),
                         lambda g: g, SolveOptions(max_iters=20))
    assert np.isfinite(energy(u)[0])

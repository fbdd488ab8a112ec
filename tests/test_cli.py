from pathlib import Path

import numpy as np
import pytest

from hylomorph import cli, gauge


def write_config(tmp_path: Path, name: str, text: str) -> Path:
    path = tmp_path / name
    path.write_text(text)
    return path


def test_validate_command_writes_report(tmp_path):
    cfg = write_config(tmp_path, "v.ini", "[nonlinearity]\nfamily = double_well\nparams = 1.0\n")
    out = tmp_path / "out"
    assert cli.main(["validate", "--config", str(cfg), "--out", str(out)]) == 0
    summary = (out / "summary.txt").read_text()
    assert "mass_normalization = True" in summary
    assert "second_vacuum = holds" in summary
    assert (out / "manifest.txt").exists()


@pytest.mark.parametrize("s_max", ["3", "5000", "1e6"])
def test_validate_double_well_binds_at_any_s_max(tmp_path, s_max):
    # the deepest binding level of the double well is its second vacuum at s = 1
    cfg = write_config(tmp_path, "v.ini", f"[validate]\ns_max = {s_max}\n")
    out = tmp_path / "out"
    assert cli.main(["validate", "--config", str(cfg), "--out", str(out)]) == 0
    summary = dict(line.split(" = ", 1) for line in (out / "summary.txt").read_text().splitlines())
    assert (summary["binding"], summary["binding_witness"], summary["all_pass"]) == ("True", "1", "True")


def test_n_samples_is_not_a_config_key(tmp_path):
    # the hypothesis checks are closed forms of the two power terms; nothing is sampled
    cfg = write_config(tmp_path, "n.ini", "[validate]\nn_samples = 1000\n")
    out = tmp_path / "n"
    assert cli.main(["validate", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG == 2
    assert not out.exists()


@pytest.mark.parametrize("mass", ["0", "-1", "nan"])
def test_mass_not_positive_is_a_config_error(tmp_path, capsys, mass):
    # NonlinearSpec is the one mass check; nan fails it too, since it is not above 0
    cfg = write_config(tmp_path, "m.ini", f"[nonlinearity]\nmass = {mass}\n")
    out = tmp_path / "m"
    assert cli.main(["validate", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG == 2
    assert "mass must be positive" in capsys.readouterr().err
    assert not (out / "summary.txt").exists()


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_tol_outside_the_positive_floats_is_a_config_error(tmp_path, capsys, tol):
    # SolveOptions is the one tol check; an infinite tol would let the unsolved start pass the residual test
    cfg = write_config(tmp_path, "t.ini", f"[solver]\ntol = {tol}\n")
    out = tmp_path / "t"
    assert cli.main(["solve-nlkg", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG == 2
    assert "tol must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, text", [
    ("solve-nlkg", "[grid]\nn = 5\n"),
    ("solve-nlkg", "[grid]\nr_max = nan\n"),
    ("solve-nlkg", "[grid]\nr_max = inf\n"),
    ("solve-nlkg", "[grid]\nr_max = 1e308\n"),  # 6/h**2 of the origin row overflows
    ("solve-vortex", "[grid]\nr_max = 1e308\n"),
    ("solve-vortex", "[grid]\nz_max = 1e308\n"),
    ("validate", "[grid]\nn_z = 8\n"),  # every command builds both grids
], ids=["solve-nlkg-n_5", "solve-nlkg-r_max_nan", "solve-nlkg-r_max_inf", "solve-nlkg-r_max_1e308",
        "solve-vortex-r_max_1e308", "solve-vortex-z_max_1e308", "validate-n_z_8"])
def test_grid_outside_its_range_is_a_config_error(tmp_path, capsys, command, text):
    # parse_config builds RadialGrid and AxisymGrid once; their constructors are the one check of [grid]
    cfg = write_config(tmp_path, "g.ini", text)
    out = tmp_path / "g"
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, text", [
    ("construct", "[construct]\ncharge_target = inf\n"),
    ("solve-nlkg", "[solve]\ninit_r = 30.0\n"),  # the tent's ramp ends past r_max = 24
    ("window", "[window]\nq = inf\n"),
    ("window", "[window]\nq = nan\n"),
    ("window", "[window]\nq = 1e300\n"),  # q**2 overflows
    ("window", "[window]\nq = 1e154\n"),  # b q**2 u**2 overflows the screened Poisson diagonal
    ("solve-kgm", "[solve]\nq = inf\n"),
    ("solve-kgm", "[solve]\nq = nan\n"),
    ("solve-kgm", "[solve]\nq = 1e300\n"),
    ("solve-nlkg", "[solve]\nsigma = inf\n"),
    ("solve-nlkg", "[solve]\nsigma = 1e160\n"),  # sigma**2 overflows
    ("solve-kgm", "[solve]\nsigma = inf\n"),
    ("solve-kgm", "[solve]\nsigma = 1e160\n"),
    ("solve-vortex", "[solve]\nsigma = inf\n"),
    ("solve-vortex", "[solve]\nsigma = 1e160\n"),
    ("solve-vortex", "[solve]\ntorus_width = 0\n"),
    ("solve-vortex", "[solve]\ntorus_r0 = nan\n"),
    ("solve-vortex", "[solve]\ntorus_amplitude = inf\n"),
    ("solve-vortex", "[grid]\nr_max = 1e-90\n"),  # K ~ 1e-187, so (sigma/K)**2 overflows
], ids=["construct-charge_target_inf", "solve-nlkg-tent_past_r_max", "window-q_inf", "window-q_nan",
        "window-q_1e300", "window-q_1e154", "solve-kgm-q_inf", "solve-kgm-q_nan", "solve-kgm-q_1e300",
        "solve-nlkg-sigma_inf", "solve-nlkg-sigma_1e160", "solve-kgm-sigma_inf", "solve-kgm-sigma_1e160",
        "solve-vortex-sigma_inf", "solve-vortex-sigma_1e160", "solve-vortex-torus_width_0",
        "solve-vortex-torus_r0_nan", "solve-vortex-torus_amplitude_inf", "solve-vortex-r_max_1e-90"])
def test_inputs_rejected_before_any_solve(tmp_path, monkeypatch, command, text):
    def no_solve(*args, **kwargs):
        raise RuntimeError("a solve ran before the inputs were checked")

    monkeypatch.setattr(cli.chargewin, "screened_mass", no_solve)
    # every minimizer descends in minimize._solve, which checks sigma on entry
    monkeypatch.setattr(cli.minimize, "descend", no_solve)
    # every gauge-coupled path rejects its coupling in ScreenedPoisson.potential, before the factorization
    monkeypatch.setattr(gauge, "TridiagonalFactor", no_solve)
    cfg = write_config(tmp_path, "p.ini", text)
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == cli.EXIT_PRECONDITION
    assert not (out / "summary.txt").exists()


def test_window_rejects_a_coupling_that_screens_k_below_float_resolution(tmp_path):
    cfg = write_config(tmp_path, "w.ini", "[window]\nq = 1e20\n")
    out = tmp_path / "out"
    assert cli.main(["window", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_PRECONDITION
    assert not (out / "summary.txt").exists()


def test_config_error_leaves_no_artifacts(tmp_path):
    cfg = write_config(tmp_path, "bad.ini", "[grid]\nn = -5\n")
    out = tmp_path / "out"
    assert cli.main(["solve-nlkg", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG
    assert not out.exists()


def test_unknown_key_rejected(tmp_path):
    cfg = write_config(tmp_path, "u.ini", "[grid]\nwrong_key = 1\n")
    assert cli.main(["solve-nlkg", "--config", str(cfg), "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG


def test_seed_key_rejected(tmp_path):
    # no code path draws random numbers, so a seed is an unknown key
    cfg = write_config(tmp_path, "seed.ini", "[run]\nseed = 3\n")
    assert cli.main(["solve-nlkg", "--config", str(cfg), "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
    assert not (tmp_path / "o").exists()


def test_unknown_section_rejected(tmp_path):
    cfg = write_config(tmp_path, "u.ini", "[plotting]\ncolor = red\n")
    assert cli.main(["validate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG


def test_command_mismatch_rejected(tmp_path):
    cfg = write_config(tmp_path, "m.ini", "[run]\ncommand = validate\n")
    assert cli.main(["solve-nlkg", "--config", str(cfg), "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG


def test_precondition_failure_exit_code(tmp_path):
    cfg = write_config(tmp_path, "p.ini", "[solve]\nsigma = -1.0\n")
    assert cli.main(["solve-nlkg", "--config", str(cfg), "--out", str(tmp_path / "o")]) == cli.EXIT_PRECONDITION


SOLVE_CFG = """
[grid]
r_max = 16.0
n = 512

[solve]
sigma = 150.0
init_s1 = 1.0
init_r = 4.0
"""


def test_solve_nlkg_artifacts_and_determinism(tmp_path):
    cfg = write_config(tmp_path, "s.ini", SOLVE_CFG)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli.main(["solve-nlkg", "--config", str(cfg), "--out", str(out1)]) == 0
    assert cli.main(["solve-nlkg", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "summary.txt").read_bytes() == (out2 / "summary.txt").read_bytes()
    rows = (out1 / "profile.csv").read_text().splitlines()
    assert rows[0] == "r,u"
    assert len(rows) == 514
    summary = dict(line.split(" = ", 1) for line in (out1 / "summary.txt").read_text().splitlines())
    # the tent starts near the ground state: one level, no error estimate
    assert int(summary["coarse_iterations"]) == 0
    assert np.isnan(float(summary["discretization_error"]))
    manifest = (out1 / "manifest.txt").read_text()
    # every default appears in the manifest, even unrelated sections
    assert "tol = 1e-06" in manifest


def test_manifest_records_overrides(tmp_path):
    cfg = write_config(tmp_path, "s.ini", SOLVE_CFG)
    out = tmp_path / "r"
    assert cli.main(["solve-nlkg", "--config", str(cfg), "--out", str(out)]) == 0
    manifest = (out / "manifest.txt").read_text()
    assert "sigma = 150" in manifest
    assert "r_max = 16" in manifest


EVOLVE_CFG = """
[grid]
r_max = 16.0
n = 512

[solve]
init_s1 = 1.0
init_r = 3.0

[evolve]
sigma = 80.0
t_final = 1.0
"""


def test_evolve_command_ledger(tmp_path):
    cfg = write_config(tmp_path, "e.ini", EVOLVE_CFG)
    out, again = tmp_path / "e", tmp_path / "e2"
    assert cli.main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
    assert cli.main(["evolve", "--config", str(cfg), "--out", str(again)]) == 0
    assert (out / "summary.txt").read_bytes() == (again / "summary.txt").read_bytes()
    rows = (out / "ledger.csv").read_text().splitlines()
    assert rows[0] == "t,energy,charge,localization,distance,amplitude"
    data = np.array([[float(x) for x in row.split(",")] for row in rows[1:]])
    assert np.all(np.diff(data[:, 0]) > 0)
    assert np.all(np.isfinite(data))
    assert np.all(data[:, 5] > 0)
    summary = dict(line.split(" = ") for line in (out / "summary.txt").read_text().splitlines())
    assert list(summary) == ["t_final", "energy_drift", "charge_drift", "final_localization",
                             "omega", "sigma", "cfl_margin"]
    # dt = h/2 puts the leapfrog at dt sqrt(6/h^2 + m^2) = sqrt(6 + h^2)/2 of its bound 2
    assert abs(float(summary["cfl_margin"]) - np.sqrt(6.0 + (16.0 / 512) ** 2) / 2) < 1e-11


def test_t_final_out_of_range_is_a_precondition_failure(tmp_path):
    # an infinite t_final overflowed the step count, and one below dt/2
    # ran zero steps and reported t_final = 0 with a zero drift
    for command, config in (("evolve", EVOLVE_CFG), ("stability", STABILITY_CFG)):
        for t_final in ("inf", "nan", "0.001"):
            cfg = write_config(tmp_path, f"{command}.ini",
                               config.replace("t_final = 1.0", f"t_final = {t_final}"))
            out = tmp_path / f"{command}_{t_final}"
            assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == cli.EXIT_PRECONDITION
            assert not (out / "summary.txt").exists()


def test_window_command(tmp_path):
    cfg = write_config(tmp_path, "w.ini", """
[window]
q = 0.0
s1_values = 1.0
r_values = 4.0,5.0
""")
    out = tmp_path / "w"
    assert cli.main(["window", "--config", str(cfg), "--out", str(out)]) == 0
    assert "window_found = True" in (out / "summary.txt").read_text()
    assert (out / "window.csv").exists()


def test_construct_summary_records_the_plan_grid(tmp_path):
    cfg = write_config(tmp_path, "c.ini", "[construct]\ncharge_target = 10.0\n")
    out = tmp_path / "c"
    assert cli.main(["construct", "--config", str(cfg), "--out", str(out)]) == 0
    summary = dict(line.split(" = ", 1) for line in (out / "summary.txt").read_text().splitlines())
    assert int(summary["plan_grid_nodes"]) >= 513
    assert 0.0 < float(summary["plan_grid_spacing"]) <= 0.05
    # the plan grid has 512 cells, so the solve ran a 128-cell level first
    assert int(summary["solve_coarse_iterations"]) > 0
    assert 0.0 < abs(float(summary["solve_discretization_error"])) < 1e-4 * float(summary["solve_energy"])


def test_sobolev_constant_is_not_a_config_key(tmp_path):
    # a constant above the recorded one would certify an invalid plan
    cfg = write_config(tmp_path, "c3.ini", "[construct]\ncharge_target = 10.0\nc3 = 20\n")
    out = tmp_path / "c"
    assert cli.main(["construct", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG == 2
    assert not out.exists()


def test_runaway_solve_exits_as_nonconvergence_with_its_note(tmp_path):
    cfg = write_config(tmp_path, "r.ini", """
[nonlinearity]
family = power_deficit
params = 0.1,0.0,5.5,5.55
[grid]
r_max = 12.0
n = 128
[solver]
max_iters = 16
[solve]
sigma = 500.0
init_r = 3.0
""")
    out = tmp_path / "r"
    assert cli.main(["solve-nlkg", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_NOCONVERGE
    summary = (out / "summary.txt").read_text()
    assert f"note = {cli.minimize.DIVERGED_NOTE}" in summary
    assert "certified = False" in summary


def test_profile_csv_matches_a_per_value_formatter(tmp_path):
    edge = np.array([0.0, -0.0, 1e20, 5e-324, -1.5, 1.0 / 3.0, 123456789012.5, np.inf, np.nan])
    columns = {"r": edge, "u": edge[::-1], "z": np.arange(edge.size)}
    cli.write_profile_csv(tmp_path, "t.csv", columns)
    reference = "r,u,z\n" + "".join(",".join(f"{float(columns[k][i]):.12g}" for k in columns) + "\n"
                                    for i in range(edge.size))
    assert (tmp_path / "t.csv").read_bytes() == reference.encode()


@pytest.mark.parametrize("rows", [0, 1, 2 * cli.CSV_BLOCK_ROWS + 5])
def test_profile_csv_bytes_equal_savetxt(tmp_path, rows):
    rng = np.random.default_rng(rows)
    columns = {"r": rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows),
               "z": rng.uniform(-1.0, 1.0, rows), "u": np.arange(rows, dtype=float)}
    cli.write_profile_csv(tmp_path, "t.csv", columns)
    with open(tmp_path / "ref.csv", "w") as fh:
        np.savetxt(fh, np.column_stack(list(columns.values())), fmt="%.12g", delimiter=",",
                   header="r,z,u", comments="")
    assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_nonconvergence_exit_code(tmp_path):
    cfg = write_config(tmp_path, "n.ini", SOLVE_CFG + "\n[solver]\nmax_iters = 3\n")
    out = tmp_path / "n"
    assert cli.main(["solve-nlkg", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_NOCONVERGE
    summary = (out / "summary.txt").read_text()
    assert "converged = False" in summary
    assert "termination = max_iters" in summary


STABILITY_CFG = """
[grid]
r_max = 16.0
n = 512

[solve]
init_s1 = 1.0
init_r = 3.0

[stability]
sigma = 80.0
t_final = 1.0
"""


def test_stability_command(tmp_path):
    cfg = write_config(tmp_path, "st.ini", STABILITY_CFG)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert cli.main(["stability", "--config", str(cfg), "--out", str(out1)]) == 0
    assert cli.main(["stability", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "summary.txt").read_bytes() == (out2 / "summary.txt").read_bytes()
    # runs that start on the orbit (distance 0) report the largest distance,
    # the perturbed ones its growth over the initial distance
    runs = {"ledger": "max_distance", "ledger_scaled": "distance_ratio",
            "ledger_bump": "distance_ratio", "ledger_free": "max_distance"}
    expected = ["sigma", "omega", "delta", "cfl_margin", "localization_radius", "reversal_error",
                "coarse_iterations", "discretization_error"]
    for name, distance_key in runs.items():
        rows = (out1 / f"{name}.csv").read_text().splitlines()
        assert rows[0] == "t,energy,charge,localization,distance,amplitude"
        assert len(rows) == 66
        expected += [f"{name}_{key}" for key in
                     ("energy_drift", "charge_drift", "final_localization", distance_key)]
    summary = dict(line.split(" = ") for line in (out1 / "summary.txt").read_text().splitlines())
    assert list(summary) == expected
    assert float(summary["ledger_free_max_distance"]) > 0.0
    assert float(summary["reversal_error"]) < 1e-8


@pytest.mark.parametrize("command, change", [
    ("evolve", ("t_final = 1.0", "t_final = inf")),
    ("evolve", ("t_final = 1.0", "t_final = 1.0\ndt = 0.03")),  # above the bound 0.816 h = 0.0255
    ("evolve", ("t_final = 1.0", "t_final = 1.0\nrecord_every = -1")),
    ("stability", ("t_final = 1.0", "t_final = inf")),
    ("stability", ("t_final = 1.0", "t_final = 1.0\ndt = 0.03")),
    ("stability", ("t_final = 1.0", "t_final = 1.0\nrecord_every = -1")),
    ("stability", ("t_final = 1.0", "t_final = 1.0\ndelta = -1")),
    ("stability", ("t_final = 1.0", "t_final = 1.0\ndelta = nan")),
], ids=["evolve-t_final", "evolve-dt", "evolve-record_every", "stability-t_final", "stability-dt",
        "stability-record_every", "stability-delta_minus_one", "stability-delta_nan"])
def test_evolution_inputs_fail_before_the_solve(tmp_path, monkeypatch, command, change):
    def no_solve(*args, **kwargs):
        raise RuntimeError("the soliton solve ran before the inputs were checked")

    monkeypatch.setattr(cli.minimize, "minimize_nlkg", no_solve)
    config = EVOLVE_CFG if command == "evolve" else STABILITY_CFG
    cfg = write_config(tmp_path, f"{command}.ini", config.replace(*change))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == cli.EXIT_PRECONDITION
    assert not (out / "summary.txt").exists()


def test_radius_factor_is_not_a_config_key(tmp_path):
    # the localization radius is evolve.soliton_radius, the rule the stability ensemble uses
    cfg = write_config(tmp_path, "rf.ini", EVOLVE_CFG + "radius_factor = 2.0\n")
    out = tmp_path / "rf"
    assert cli.main(["evolve", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG == 2
    assert not out.exists()


def test_record_every_below_one_is_a_precondition_failure(tmp_path):
    cfg = write_config(tmp_path, "r.ini", STABILITY_CFG + "record_every = -1\n")
    out = tmp_path / "r"
    assert cli.main(["stability", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_PRECONDITION
    assert not (out / "summary.txt").exists()

from pathlib import Path

import numpy as np

from hylomorph import cli


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


def test_evolve_command_ledger(tmp_path):
    cfg = write_config(tmp_path, "e.ini", """
[grid]
r_max = 16.0
n = 512

[solve]
init_s1 = 1.0
init_r = 3.0

[evolve]
sigma = 80.0
t_final = 1.0
""")
    out = tmp_path / "e"
    assert cli.main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
    rows = (out / "ledger.csv").read_text().splitlines()
    assert rows[0] == "t,energy,charge,localization,distance"
    data = np.array([[float(x) for x in row.split(",")] for row in rows[1:]])
    assert np.all(np.diff(data[:, 0]) > 0)
    assert np.all(np.isfinite(data))
    summary = (out / "summary.txt").read_text()
    assert "energy_drift" in summary


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


def test_nonconvergence_exit_code(tmp_path):
    cfg = write_config(tmp_path, "n.ini", SOLVE_CFG + "\n[solver]\nmax_iters = 3\n")
    out = tmp_path / "n"
    assert cli.main(["solve-nlkg", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_NOCONVERGE
    assert "converged = False" in (out / "summary.txt").read_text()


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
    expected = ["sigma", "omega", "delta", "localization_radius", "reversal_error"]
    for name, distance_key in runs.items():
        rows = (out1 / f"{name}.csv").read_text().splitlines()
        assert rows[0] == "t,energy,charge,localization,distance"
        assert len(rows) == 66
        expected += [f"{name}_{key}" for key in
                     ("energy_drift", "charge_drift", "final_localization", distance_key)]
    summary = dict(line.split(" = ") for line in (out1 / "summary.txt").read_text().splitlines())
    assert list(summary) == expected
    assert float(summary["ledger_free_max_distance"]) > 0.0
    assert float(summary["reversal_error"]) < 1e-8


def test_record_every_below_one_is_a_precondition_failure(tmp_path):
    cfg = write_config(tmp_path, "r.ini", STABILITY_CFG + "record_every = -1\n")
    out = tmp_path / "r"
    assert cli.main(["stability", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_PRECONDITION
    assert not (out / "summary.txt").exists()

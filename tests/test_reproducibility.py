"""Results keep their bits whichever CPU kernel OpenBLAS dispatches to."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# OpenBLAS picks its dot kernel by CPU; these names force the kernels of two
# older CPUs, and None leaves the choice to the machine
CORETYPES = (None, "Haswell", "Sandybridge")

RUNS = {
    "solve-nlkg": "[grid]\nr_max = 16.0\nn = 512\n\n[solve]\nsigma = 150.0\ninit_s1 = 1.0\ninit_r = 4.0\n",
    "solve-kgm": "[grid]\nr_max = 16.0\nn = 256\n\n[solve]\nsigma = 100.0\ninit_r = 4.0\n",
    "solve-vortex": "[grid]\nr_max = 10.0\nz_max = 6.0\nn = 64\nn_z = 64\n\n[solve]\nsigma = 300.0\n",
    "stability": ("[grid]\nr_max = 16.0\nn = 512\n\n[solve]\ninit_s1 = 1.0\ninit_r = 3.0\n\n"
                  "[stability]\nsigma = 80.0\nt_final = 1.0\n"),
}

# prints the bits of a raw BLAS dot product of mixed-sign values (a sum with
# cancellation, so the kernel's order shows), then runs each command into out/<command>
_SCRIPT = textwrap.dedent("""
    import sys
    from pathlib import Path
    import numpy as np
    from hylomorph import cli

    w, x = np.random.default_rng(0).standard_normal((2, 4097))
    print(float(w @ x).hex())
    configs, out = Path(sys.argv[1]), Path(sys.argv[2])
    for command in sys.argv[3:]:
        config = configs / f"{command}.ini"
        print(command, cli.main([command, "--config", str(config), "--out", str(out / command)]))
""")


def test_results_do_not_depend_on_the_blas_kernel(tmp_path):
    configs = tmp_path / "configs"
    configs.mkdir()
    for command, text in RUNS.items():
        (configs / f"{command}.ini").write_text(text)
    lines = {}
    for coretype in CORETYPES:
        env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = str(SRC)
        if coretype is not None:
            env["OPENBLAS_CORETYPE"] = coretype
        proc = subprocess.run([sys.executable, "-c", _SCRIPT, str(configs), str(tmp_path / str(coretype)), *RUNS],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        lines[coretype] = proc.stdout.split("\n")
    # the settings must select kernels that sum in different orders, or the
    # comparison below shows nothing
    if len({out[0] for out in lines.values()}) == 1:
        pytest.skip("no OPENBLAS_CORETYPE setting changes the bits of a BLAS dot product "
                    "(numpy not built on OpenBLAS, or the settings have no effect)")
    for coretype, out in lines.items():
        assert out[1:-1] == [f"{command} 0" for command in RUNS], coretype
    for command in RUNS:
        summaries = {(tmp_path / str(coretype) / command / "summary.txt").read_bytes() for coretype in CORETYPES}
        assert len(summaries) == 1, command

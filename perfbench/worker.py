"""One repetition of one workload, in a fresh interpreter.

Started by run.py with the monotonic time at which it launched this process,
so that setup_s covers interpreter start, the imports of numpy, scipy and
hylomorph, and the generation of the inputs.  Writes one JSON result file.

    python3 perfbench/worker.py --workload vortex --seed 0 --trace 0 \
        --t0 <monotonic launch time> --work <dir> --result <file> [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import scipy

    import hylomorph
    import hylomorph.cli

    import spans
    import workloads

    args.work.mkdir(parents=True, exist_ok=True)
    params = workloads.make_params(args.workload, args.seed)
    configs = workloads.make_configs(args.workload, params, args.work)
    tracer = None
    result: dict = {}
    if args.trace:
        tracer = spans.Tracer()
        result["uninstrumented"] = tracer.install(hylomorph)
    result["setup_s"] = time.monotonic() - args.t0
    if not args.setup_only:
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        outcome = workloads.RUNNERS[args.workload](hylomorph, params, configs, args.work)
        wall_s = time.perf_counter() - wall0
        cpu_s = time.process_time() - cpu0
        result.update({
            "wall_s": wall_s,
            "cpu_s": cpu_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "errors": outcome.errors,
            "digest": outcome.digest,
            "params": params,
            "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                         "scipy": scipy.__version__, "hylomorph": hylomorph.__version__},
        })
        if tracer is not None:
            result["layers"] = tracer.metrics()
            result["intended_s"] = tracer.layer_time(workloads.INTENDED_LAYERS[args.workload])
            result["self_by_function"] = tracer.self_time_by_function()
            result["spans"] = len(tracer.names)
            result["span_cost_s"] = len(tracer.names) * spans.wrapper_cost()
            tracer.write(args.work / "spans.csv")
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

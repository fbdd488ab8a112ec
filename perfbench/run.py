"""hylomorph benchmark: time to verified results on four closed-loop workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere; the program is imported from ``src/`` next to this
directory.  Each repetition runs in a fresh interpreter (worker.py) with
BLAS and OpenMP pinned to one thread.  With ``--trace 0`` repetitions
follow each other until ``--seconds`` have passed, and the end-to-end
metrics are medians over them; a few extra start-ups that stop before the
first solve give setup_s more samples.  With ``--trace 1`` one untraced and one traced
repetition run, and the per-layer metrics come from the traced one.

Every repetition checks its outputs (workloads.py) and hashes its result
scalars; all digests within one invocation, traced or not, must agree bit
for bit.  A failed check, a non-zero exit code, an exception or a digest
mismatch counts as a failed operation.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

Scratch files go to ``.bench_work/`` at the repository root; the per-run
directory is removed at the end, the spans of the last traced run are kept.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from workloads import INTENDED_LAYERS, WORKLOADS  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 5          # setup_s is a median over at least this many start-ups
DEADLINE_S = 170.0         # every child is killed past this point of the run

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
TRACE_EXTRA = (("trace.wall_s", "s"), ("trace.overhead", "ratio"),
               ("trace.intended_share", "fraction"), ("trace.spans", "count"),
               ("trace.span_cost_s", "s"))


class WorkerFailed(RuntimeError):
    pass


def environment() -> dict:
    """Machine and toolchain facts recorded next to every result."""
    env: dict = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
                 "python": platform.python_version(), "platform": platform.platform()}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    env["caches"] = caches
    env["commit"] = None
    if (ROOT / ".git").exists():
        try:
            env["commit"] = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    # a checkout without git history is identified by its sources
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hylomorph").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    env["source_sha256"] = sources.hexdigest()
    env["thread_env"] = {k: os.environ.get(k) for k in THREAD_VARS}
    env["thread_env_workers"] = "1"
    return env


class Runner:
    def __init__(self, workload: str, seed: int, run_dir: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self.deadline = deadline
        self.count = 0
        self.env = dict(os.environ)
        self.env.update({k: "1" for k in THREAD_VARS})

    def spawn(self, trace: bool, setup_only: bool = False) -> dict:
        self.count += 1
        work = self.run_dir / f"rep{self.count}"
        result_file = self.run_dir / f"rep{self.count}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--trace", str(int(trace)), "--work", str(work),
               "--result", str(result_file)]
        if setup_only:
            cmd.append("--setup-only")
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd + ["--t0", repr(t0)], env=self.env, cwd=str(ROOT),
                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        try:
            _, err = proc.communicate(timeout=max(1.0, self.deadline - t0))
        except subprocess.TimeoutExpired:
            raise WorkerFailed("worker exceeded the run deadline") from None
        finally:
            if proc.poll() is None:  # timed out or interrupted: never leave it running
                proc.kill()
                proc.communicate()
        if proc.returncode != 0 or not result_file.exists():
            raise WorkerFailed(f"worker exited with {proc.returncode}: {err.strip()[-2000:]}")
        result = json.loads(result_file.read_text())
        result["elapsed_s"] = time.monotonic() - t0
        if trace and (work / "spans.csv").exists():
            shutil.copy(work / "spans.csv", self.run_dir.parent / f"spans-{self.workload}.csv")
        shutil.rmtree(work, ignore_errors=True)
        return result


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def measure(runner: Runner, seconds: float) -> tuple[list[dict], list[float]]:
    """Untraced repetitions until ``seconds`` have passed; at least one."""
    start = time.monotonic()
    reps = [runner.spawn(trace=False)]
    while (time.monotonic() - start < seconds
           and time.monotonic() + 1.5 * reps[-1]["elapsed_s"] < runner.deadline):
        reps.append(runner.spawn(trace=False))
    setups = [r["setup_s"] for r in reps]
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.spawn(trace=False, setup_only=True)["setup_s"])
    return reps, setups


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hylomorph" / "__init__.py").is_file():
        print(f"error: no hylomorph sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.monotonic()
    run_dir = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    runner = Runner(args.workload, args.seed, run_dir, started + DEADLINE_S)
    try:
        if args.trace:
            plain = runner.spawn(trace=False)
            traced = runner.spawn(trace=True)
            reps = [plain, traced]
        else:
            reps, setups = measure(runner, args.seconds)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    digests = [r["digest"] for r in reps]
    mismatched = sum(d != digests[0] for d in digests)
    failed += mismatched

    env = environment()
    env["versions"] = reps[0]["versions"]
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload}, seed {args.seed}: params {json.dumps(reps[0]['params'])}")
    print(f"repetitions: {len(reps)} ({'traced + untraced' if args.trace else 'untraced'}), "
          f"each in a fresh process; digest {digests[0][:16]}, mismatches {mismatched}")
    for r in reps:
        for err in r["errors"]:
            print(f"FAILED: {err}")
    print(f"failed_frac = {failed / attempted if attempted else 1.0:.6g} "
          f"({failed} of {attempted} operations)")

    metrics: dict[str, dict] = {}
    if args.trace:
        layers = traced["layers"]
        for name, unit in spans.metric_names():
            metrics[name] = {"value": layers[name], "unit": unit}
        extra = {"trace.wall_s": traced["wall_s"],
                 "trace.overhead": traced["wall_s"] / plain["wall_s"] - 1.0,
                 "trace.intended_share": traced["intended_s"] / traced["wall_s"],
                 "trace.spans": traced["spans"],
                 "trace.span_cost_s": traced["span_cost_s"]}
        for name, unit in TRACE_EXTRA:
            metrics[name] = {"value": extra[name], "unit": unit}
        print(f"untraced wall {plain['wall_s']:.4f} s, traced wall {traced['wall_s']:.4f} s, "
              f"tracing overhead {extra['trace.overhead']:+.2%}; {traced['spans']} spans "
              f"at the measured wrapper cost add {traced['span_cost_s']:.4f} s "
              f"({traced['span_cost_s'] / plain['wall_s']:.2%} of untraced wall)")
        print(f"intended layer {'+'.join(INTENDED_LAYERS[args.workload])}: "
              f"{traced['intended_s']:.4f} s = {extra['trace.intended_share']:.1%} of traced wall")
        if traced["uninstrumented"]:
            print("WARNING: not found, reported as 0: " + ", ".join(traced["uninstrumented"]))
        top = sorted(traced["self_by_function"].items(), key=lambda kv: -kv[1])[:8]
        print("largest self times: " + ", ".join(f"{n} {t:.3f} s" for n, t in top))
    else:
        values = {"wall_s": _median([r["wall_s"] for r in reps]),
                  "cpu_s": _median([r["cpu_s"] for r in reps]),
                  "setup_s": _median(setups),
                  "peak_rss_mb": _median([r["peak_rss_mb"] for r in reps])}
        for name, unit in END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}
        print("wall_s per repetition: " + ", ".join(f"{r['wall_s']:.4f}" for r in reps))
        print("setup_s per start-up: " + ", ".join(f"{s:.4f}" for s in setups))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"total run time {time.monotonic() - started:.1f} s")

    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

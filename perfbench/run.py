"""Benchmark for su4c: three closed-loop workloads, checked outputs.

    python3 perfbench/run.py --workload compile|paper-bench|process-tomo|all
        --seed N --seconds S --trace 0|1

Run from anywhere; su4c is imported from the src/ directory next to this
one. BLAS and OpenMP threads are pinned to 1, and this process and its
workers to one CPU. Each workload runs in a fresh worker process. With
--trace 0 it reports the end-to-end metrics, every timing scaled to the
reference host speed of hostspeed.py, and setup_s is the median of
SETUP_RUNS extra set-up-only processes. With --trace 1
it reports the per-module metrics of a traced run and writes the spans to
.perfbench-run/. Metric names and units are those of BENCHMARK.json.

Prints the environment, the behaviour fingerprint (computed once per source
tree and cached in .perfbench-run/), every metric with its unit and the
error rate; the last line is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = ROOT / ".perfbench-run"
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
# setup_s is the median of this many set-up-only processes
SETUP_RUNS = 9
# host speed probes run before and after each of them
SPEED_PROBES = 50
# a process may run this long beyond 1.5 times its nominal seconds (set-up,
# the last step, the fingerprint's two runs)
SLACK_S = 60


def python_process(script: str, *args: str, seconds: float = 0.0) -> dict:
    """Run a perfbench script in a fresh interpreter; its last stdout line
    is a JSON object."""
    cmd = [sys.executable, str(HERE / script), *args]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=1.5 * seconds + SLACK_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{script} {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def worker(workload: str, seed: int, seconds: float, trace: int) -> dict:
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    return python_process("worker.py", *args, seconds=seconds)


def setup_seconds(workload: str, seed: int, kernel) -> float:
    """Set-up time of one worker process that stops after set-up, at the
    reference host speed that probes with the hostspeed kernel measure just
    before and after it."""
    import hostspeed  # after main() pinned the BLAS threads

    probes = [hostspeed.probe(kernel) for _ in range(SPEED_PROBES)]
    args = ["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", "0"]
    seconds = python_process("worker.py", *args, "--setup-only", str(time.monotonic_ns()))["setup_s"]
    probes += [hostspeed.probe(kernel) for _ in range(SPEED_PROBES)]
    return seconds * hostspeed.factor_of(kernel, probes)


def fingerprint() -> dict:
    """Cached per source tree, interpreter and numpy: the two seed-0 runs
    take about 20 s."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    digest.update(platform.python_version().encode())
    digest.update(importlib.metadata.version("numpy").encode())
    cache = RUN_DIR / f"fingerprint-{digest.hexdigest()[:16]}.json"
    if cache.is_file():
        return json.loads(cache.read_text())
    result = python_process("fingerprint.py", seconds=60)
    RUN_DIR.mkdir(exist_ok=True)
    tmp = cache.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(result))
    os.replace(tmp, cache)
    return result


def run_workload(name: str, args, wanted: dict, kernel) -> dict:
    """One workload's worker result, with setup_s as a median and the
    metric names and units checked against BENCHMARK.json."""
    if args.trace:
        result = worker(name, args.seed, args.seconds, 1)
    else:
        setups = [setup_seconds(name, args.seed, kernel) for _ in range(SETUP_RUNS)]
        result = worker(name, args.seed, args.seconds, 0)
        result["metrics"]["setup_s"] = (statistics.median(setups), "s")
    got = {k: unit for k, (_, unit) in result["metrics"].items()}
    if got != wanted:
        raise RuntimeError(f"{name}: metrics {got} differ from BENCHMARK.json {wanted}")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, help="a workload of workloads.py, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "su4c" / "__init__.py").is_file():
        print(f"error: no su4c package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import hostspeed
    import workloads

    hostspeed.pin_to_one_cpu()

    if args.workload not in (*workloads.WORKLOADS, "all"):
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)} or all")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args, wanted, workloads.WORKLOADS[name].PROBE)
               for name in names}
    fp = fingerprint()

    env = next(iter(results.values()))["environment"]
    print(f"environment: python {env['python']}, numpy {env['numpy']}, blas {env['blas']}, "
          f"cpus {env['cpu_count']} ({env['cpus_usable']} usable), threads "
          + " ".join(f"{k}={v}" for k, v in env["threads"].items()))
    print("fingerprint: " + " ".join(f"{k}={fp[k]}" for k in fp if k != "problems"))
    problems = [f"fingerprint: {p}" for p in fp["problems"]]
    metrics = {}
    attempted = failed = 0
    for name, result in results.items():
        print(f"workload {name}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
        for metric, (value, unit) in result["metrics"].items():
            print(f"  {metric:<40} {value:.6g} {unit}")
            key = metric if len(results) == 1 else f"{name}.{metric}"
            metrics[key] = {"value": value, "unit": unit}
        print(f"  {'error_rate':<40} {result['failed'] / result['attempted']:.6g} "
              f"({result['failed']} of {result['attempted']} operations failed)")
        attempted += result["attempted"]
        failed += result["failed"]
        problems += [f"{name}: {p}" for p in result["problems"]]
        problems += [f"{name}: selftest: {p}" for p in result["selftest"]]
    for problem in problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

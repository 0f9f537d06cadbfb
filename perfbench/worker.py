"""One workload in one fresh process; run.py starts it.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
        [--setup-only T]

Prints one JSON object: operations attempted and failed, the metrics as
name -> [value, unit], the environment and every problem found. With
--setup-only it stops after set-up and prints only {"setup_s": seconds
since T}, T being the launcher's time.monotonic_ns() just before it started
this process, so setup_s covers interpreter start, importing su4c and
making the inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import su4c  # noqa: E402

if not Path(su4c.__file__).resolve().is_relative_to(ROOT / "src"):
    raise SystemExit(f"su4c imported from {su4c.__file__}, not from {ROOT / 'src'}")

import hostspeed  # noqa: E402
import selftest  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from run import THREAD_VARS  # noqa: E402


def closed_loop(workload, seconds: float | None = None, steps: int | None = None):
    """Run steps until `steps` are done, or until the run is as close to
    `seconds` as whole steps allow. Returns one (ops, failed, s, start, end)
    per step: the step's result and the perf_counter() readings around it."""
    results = []
    start = time.perf_counter()
    while True:
        before = time.perf_counter()
        ops, failed, seconds_in_su4c = workload.step(len(results))
        results.append((ops, failed, seconds_in_su4c, before, time.perf_counter()))
        if steps is not None:
            if len(results) == steps:
                return results
            continue
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(results) >= seconds:
            return results


def end_to_end(results, sampler: hostspeed.Sampler) -> dict:
    """Every step's seconds in su4c are scaled to the reference host speed.
    Latency percentiles are nearest-rank over every step, a step's latency
    being its scaled seconds over its operations. setup_s is added by
    run.py."""
    scaled = [sampler.scale(seconds, start, end) for _, _, seconds, start, end in results]
    ops = sum(r[0] for r in results)
    busy = sum(scaled)
    latencies = [seconds / r[0] for seconds, r in zip(scaled, results)]
    return {
        "ops_per_s": (ops / busy, "1/s"),
        "op_p50_ms": (tracing.nearest_rank(latencies, 50) * 1e3, "ms"),
        "op_p99_ms": (tracing.nearest_rank(latencies, 99) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def traced_run(args, workdir) -> tuple[list, dict, list[str]]:
    """Traced pass over seconds/2, then the same steps untraced."""
    tracer = tracing.Tracer()
    patched = tracing.install(tracer)
    try:
        root = tracer.open(tracing.ROOT)
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        workload.setup()
        results = closed_loop(workload, seconds=args.seconds / 2.0)
        tracer.close(root)
    finally:
        tracing.uninstall(patched)

    start = time.perf_counter()
    untraced = workloads.WORKLOADS[args.workload](args.seed, workdir)
    untraced.setup()
    closed_loop(untraced, steps=len(results))
    untraced_wall = time.perf_counter() - start

    span = tracer.spans[root]
    metrics = tracing.layer_metrics(tracer)
    for name in workloads.Compile.CLASSES:
        seconds = getattr(workload, "latencies", {}).get(name, [])
        metrics[f"compile.{name}.p50_us"] = (tracing.nearest_rank(seconds, 50) * 1e6, "us")
    metrics["trace.wall_s"] = (span[2] - span[1], "s")
    metrics["trace.overhead_s"] = (span[2] - span[1] - untraced_wall, "s")
    problems = workload.problems + untraced.problems
    problems += tracing.trace_problems(tracer, su4c.PULSE_COUNT)

    out_dir = ROOT / ".perfbench-run"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"trace-{args.workload}-seed{args.seed}.json", "w") as fp:
        json.dump(tracer.spans, fp)
    return results, metrics, problems


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", type=int, metavar="T0_NS")
    args = parser.parse_args()

    workdir = ROOT / ".perfbench-run" / f"work-{os.getpid()}"
    try:
        if args.trace:
            results, metrics, problems = traced_run(args, workdir)
        else:
            workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
            workload.setup()
            if args.setup_only is not None:
                print(json.dumps({"setup_s": (time.monotonic_ns() - args.setup_only) / 1e9}))
                return
            sampler = hostspeed.Sampler(workload.PROBE)
            sampler.start()
            try:
                results = closed_loop(workload, seconds=args.seconds)
            finally:
                sampler.stop()
            metrics = end_to_end(results, sampler)
            problems = workload.problems
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({
        "attempted": sum(r[0] for r in results),
        "failed": sum(r[1] for r in results),
        "metrics": metrics,
        "problems": problems,
        "selftest": selftest.run_all(),
        "environment": environment(),
    }))


if __name__ == "__main__":
    main()

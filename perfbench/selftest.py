"""Self-tests of the benchmark's own checks; every run executes them.

    python3 perfbench/selftest.py      # exits 1 if one fails

The compile oracle must reject a program with one perturbed phi, and the
self-time arithmetic and the host speed scaling must give the expected
answers on hand-built inputs.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402


def oracle_rejects_perturbed_phi() -> list[str]:
    from su4c.circuits import lower_to_pulses
    from su4c.compiler import decompose
    from su4c.config import DEFAULT_TOL
    from su4c.haar import SeededRng, sample_su4

    u = sample_su4(SeededRng(0))
    pulses = lower_to_pulses(decompose(u))
    tol = DEFAULT_TOL.verify_distance
    failures = [f"oracle rejects a correct program: {p}" for p in oracle.check_program(u, pulses, tol)]
    index = next(i for i, p in enumerate(pulses) if p.kind == "R")
    bad = list(pulses)
    bad[index] = dataclasses.replace(bad[index], phi=bad[index].phi + 1e-3)
    if not oracle.check_program(u, bad, tol):
        failures.append("oracle accepts a program with a perturbed phi")
    return failures


def self_time_arithmetic() -> list[str]:
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7]
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 5.0, 9.0, 0],
        ["c", 6.0, 7.0, 2],
    ]
    got = tracing.self_times(spans)
    want = [3.0, 3.0, 3.0, 1.0]
    if got != want:
        return [f"self times {got}, expected {want}"]
    return []


def host_speed_scaling() -> list[str]:
    # probes at t = 0, 1, 2, 3 s took 1, 2, 1, 2 reference times
    sampler = hostspeed.Sampler(hostspeed.LINALG)
    sampler.times = [0.0, 1.0, 2.0, 3.0]
    sampler.probes = [r * hostspeed.LINALG.reference_s for r in (1.0, 2.0, 1.0, 2.0)]
    failures = []
    # a long span sees the probes inside it; a short one those within
    # MIN_WINDOW_S / 2 of its middle
    for args, want in (((1.5, 0.9, 2.1), 1.0), ((0.1, 2.99, 3.01), 0.05)):
        got = sampler.scale(*args)
        if abs(got - want) > 1e-12:
            failures.append(f"scale{args} = {got}, expected {want}")
    return failures


def run_all() -> list[str]:
    return oracle_rejects_perturbed_phi() + self_time_arithmetic() + host_speed_scaling()


if __name__ == "__main__":
    failures = run_all()
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest:", "failed" if failures else "ok")
    sys.exit(1 if failures else 0)

"""The benchmark's workloads and their output checks.

Every workload is a closed loop with one caller: step(k) runs operation
batch k, times only the call into su4c, then checks the outputs. A step
returns (operations attempted, operations failed, seconds in su4c). An
exception from su4c fails all of that step's operations. PROBE is the
hostspeed.py kernel that measures the host speed for the workload: the one
whose calls are most like the workload's own. Functions are
looked up on their modules at call time, so the traced run's wrappers see
these calls too.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
import traceback

from su4c import circuits, cli, compiler, haar
from su4c.config import DEFAULT_TOL

import hostspeed
import oracle

# compile: steps k with k % NAMED_EVERY == NAMED_EVERY - 1 get a dressed
# named class (identity, CNOT, SWAP, iSWAP, sqrt(SWAP), in turn), the rest
# Haar draws. Each class is then 2.5 % of the steps, more than the 1 % tail
# that op_p99_ms reads, so a slowdown confined to one class's degenerate
# path moves op_p99_ms onto that class. On the seed code the classes cost
# what Haar draws cost (p50 4.16-4.20 ms against 4.13 ms, p90 4.82-4.93
# against 4.85 ms, 300 of each, one core), so the share moves no metric by
# itself.
NAMED_EVERY = 8
PROCESS_POOL = 64

# paper-bench: a 160-operation calibrated run must land near the paper's
# 0.79. Seeds 0..9 give means of 0.784 to 0.793; one operation's fidelity
# has a standard deviation near 0.035, so the mean's standard error is about
# 0.003 and +-0.015 is five of them.
PAPER_MEAN_FIDELITY = 0.79
PAPER_BAND = 0.015
# process-tomo: over 36 steps as the workload makes them (seeds 0..11, the
# first three pool entries each), entanglement_fidelity was 0.7450 (sd
# 0.0046, range 0.7365-0.7558) and mean_state_fidelity 0.7967 (sd 0.0036,
# range 0.7911-0.8049). The bands are about seven standard deviations wide.
# mean_state_fidelity averages 36 probe states and (4 F_e + 1) / 5 is the
# Haar average: two computations of nearly the same number, which differed
# by -0.0030 to 0.0048 (sd 0.0017). Both bands lie inside [0, 1].
PROCESS_BANDS = {
    "entanglement_fidelity": (0.745, 0.03),
    "mean_state_fidelity": (0.797, 0.025),
}
PROBE_VS_HAAR_TOL = 0.015
# the report's mean_fidelity_from_entanglement must equal (d F_e + 1) / (d + 1)
# with d = 4; only rounding separates the two.
IDENTITY_TOL = 1e-12


def cli_seed(seed: int, k: int) -> int:
    """--seed of the k-th CLI call of a run, readable in reports."""
    return seed * 1000 + k


def run_cli(argv: list[str]) -> tuple[int | str, str, float]:
    """su4c.cli.main in this process: (exit code, or the traceback of what
    it raised, stdout, seconds)."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except (Exception, SystemExit):
        rc = traceback.format_exc()
    return rc, buf.getvalue(), time.perf_counter() - start


def bench_problems(rc: int | str, text: str, n: int) -> tuple[int, list[str]]:
    """(failed operations, reasons) for one `su4c benchmark` report."""
    if rc != 0:
        return n, [f"benchmark failed: {rc}"]
    try:
        report = json.loads(text)
        fids = [op["fidelity"] for op in report["operations"]]
        mean = report["mean_fidelity"]
    except (ValueError, KeyError, TypeError) as exc:
        return n, [f"unreadable report: {exc!r}"]
    if len(fids) != n:
        return n, [f"{len(fids)} operations reported, expected {n}"]
    problems = [f"fidelity {f!r} outside [0, 1]" for f in fids if not 0.0 <= f <= 1.0]
    if not abs(mean - PAPER_MEAN_FIDELITY) <= PAPER_BAND:
        return n, problems + [f"mean_fidelity {mean!r} outside {PAPER_MEAN_FIDELITY} +- {PAPER_BAND}"]
    return len(problems), problems


def process_problems(rc: int | str, text: str) -> list[str]:
    """Reasons one `su4c process-tomo` report is wrong; empty when right."""
    if rc != 0:
        return [f"process-tomo failed: {rc}"]
    try:
        report = json.loads(text)
        f_e = report["entanglement_fidelity"]
        from_f_e = report["mean_fidelity_from_entanglement"]
        probes = report["mean_state_fidelity"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {exc!r}"]
    problems = []
    for key, (centre, half) in PROCESS_BANDS.items():
        if not abs(report[key] - centre) <= half:
            problems.append(f"{key} {report[key]!r} outside {centre} +- {half}")
    implied = (4.0 * f_e + 1.0) / 5.0
    if abs(from_f_e - implied) > IDENTITY_TOL:
        problems.append(f"mean_fidelity_from_entanglement {from_f_e!r} != (4 F_e + 1) / 5 = {implied!r}")
    if not abs(probes - implied) <= PROBE_VS_HAAR_TOL:
        problems.append(
            f"mean_state_fidelity {probes!r} differs from (4 F_e + 1) / 5 = {implied!r}"
            f" by more than {PROBE_VS_HAAR_TOL}"
        )
    return problems


def write_matrix(path, u) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        json.dump([[[z.real, z.imag] for z in row] for row in u.tolist()], fp)


class Compile:
    """decompose -> verify -> lower_to_pulses on a stream of fresh unitaries,
    one at a time. Each input is drawn before its step's timer starts."""

    CLASSES = ("haar", *oracle.NAMED_CLASSES)
    PROBE = hostspeed.LINALG

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.problems: list[str] = []
        self.latencies: dict[str, list[float]] = {name: [] for name in self.CLASSES}

    def setup(self) -> None:
        self.haar_rng, named_rng = haar.SeededRng(self.seed).spawn(2)
        self.named_gen = named_rng.generator

    def next_input(self, k: int):
        """(class name, unitary) of step k; steps must be taken in order."""
        if k % NAMED_EVERY != NAMED_EVERY - 1:
            return "haar", haar.sample_su4(self.haar_rng)
        name = self.CLASSES[1 + (k // NAMED_EVERY) % (len(self.CLASSES) - 1)]
        return name, oracle.dressed(oracle.NAMED_CLASSES[name], self.named_gen)

    def step(self, k: int) -> tuple[int, int, float]:
        name, u = self.next_input(k)
        start = time.perf_counter()
        try:
            params = compiler.decompose(u)
            report = compiler.verify(u, params)
            pulses = circuits.lower_to_pulses(params)
        except Exception:
            self.problems.append(f"step {k} ({name}): {traceback.format_exc()}")
            return 1, 1, time.perf_counter() - start
        elapsed = time.perf_counter() - start
        self.latencies[name].append(elapsed)
        problems = oracle.check_program(u, pulses, DEFAULT_TOL.verify_distance)
        if not report.passed:
            problems.append(f"verify distance {report.distance:.3e}")
        self.problems += [f"step {k} ({name}): {p}" for p in problems]
        return 1, int(bool(problems)), elapsed


class PaperBench:
    """`su4c benchmark --n 160 --shots 100 --noise calibrated --method linear`."""

    N = 160
    PROBE = hostspeed.BATCHED

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.problems: list[str] = []

    def setup(self) -> None:
        """Nothing to make: the CLI draws its operations from --seed."""

    def step(self, k: int) -> tuple[int, int, float]:
        argv = [
            "benchmark", "--n", str(self.N), "--seed", str(cli_seed(self.seed, k)),
            "--shots", "100", "--noise", "calibrated", "--method", "linear",
        ]
        rc, text, elapsed = run_cli(argv)
        failed, problems = bench_problems(rc, text, self.N)
        self.problems += [f"{' '.join(argv)}: {p}" for p in problems]
        return self.N, failed, elapsed


class ProcessTomo:
    """`su4c process-tomo --shots 1000 --noise calibrated --method mle` on
    Haar matrix files written during set-up."""

    PROBE = hostspeed.BATCHED

    def __init__(self, seed: int, workdir):
        self.seed, self.workdir = seed, workdir
        self.problems: list[str] = []

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        rng = haar.SeededRng(self.seed)
        self.paths = []
        for i in range(PROCESS_POOL):
            path = self.workdir / f"unitary-{i}.json"
            write_matrix(path, haar.sample_su4(rng))
            self.paths.append(str(path))

    def step(self, k: int) -> tuple[int, int, float]:
        argv = [
            "process-tomo", "--unitary", self.paths[k % PROCESS_POOL],
            "--seed", str(cli_seed(self.seed, k)),
            "--shots", "1000", "--noise", "calibrated", "--method", "mle",
        ]
        rc, text, elapsed = run_cli(argv)
        problems = process_problems(rc, text)
        self.problems += [f"{' '.join(argv)}: {p}" for p in problems]
        return 1, int(bool(problems)), elapsed


WORKLOADS = {"compile": Compile, "paper-bench": PaperBench, "process-tomo": ProcessTomo}

"""Host speed, measured by a fixed probe while a workload runs.

On a shared host the same code runs up to about 1.8 times slower in some
stretches than in others (process CPU time slows with it, so the time is not
stolen from the process), and the share of slow stretches changes over
minutes. A raw timing therefore says as much about the host's phase as
about su4c. The benchmark reports every timing at a fixed reference speed:
a background thread runs a fixed numpy kernel twice every PERIOD_S seconds
and times the second run, which finds its caches warm, in thread CPU time
(waiting for the interpreter lock does not count), and a span that took t
seconds while the kernel took p seconds on average counts as
t * kernel.reference_s / p.

A slow stretch does not slow every kind of call alike, so each workload
names the kernel whose calls are most like its own: LINALG (4x4 `eigh`
calls, like the compiler's) or BATCHED (products of batches of 4x4
matrices, like the experiment's, with some `eigh` and interpreted Python).
The kernels are benchmark code: a change to su4c does not change them, so
a faster su4c shows in full in the scaled timings.
"""

from __future__ import annotations

import bisect
import os
import threading
import time
from typing import Callable, NamedTuple

import numpy as np

PERIOD_S = 0.02
# a span shorter than this is scaled by the probes in a window this long
# centred on it
MIN_WINDOW_S = 0.2

_rng = np.random.default_rng(12345)
_A = _rng.standard_normal((4, 4)) + 1j * _rng.standard_normal((4, 4))
_H = _A + _A.conj().T
_B = _rng.standard_normal((64, 4, 4)) + 1j * _rng.standard_normal((64, 4, 4))


class Kernel(NamedTuple):
    run: Callable[[], None]
    # warm run time in a fast stretch of the host the benchmark was written
    # on (a shared 2-vCPU host, Python 3.11, numpy 2.4): the scale of the
    # timings it measures
    reference_s: float


def _linalg() -> None:
    for _ in range(6):
        np.linalg.eigh(_H)


def _batched() -> None:
    for _ in range(2):
        np.linalg.eigh(_H)
        _B @ _B
        sum(i * i for i in range(100))


LINALG = Kernel(_linalg, 70e-6)
BATCHED = Kernel(_batched, 110e-6)


def pin_to_one_cpu() -> None:
    """Keep this process, its threads and its children on one CPU, so the
    probe thread runs where the workload runs."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def probe(kernel: Kernel) -> float:
    """Thread CPU seconds of one run of the kernel."""
    start = time.thread_time_ns()
    kernel.run()
    return (time.thread_time_ns() - start) * 1e-9


def factor_of(kernel: Kernel, probes: list[float]) -> float:
    """The kernel's reference time over its mean probe time."""
    return kernel.reference_s * len(probes) / sum(probes)


class Sampler:
    """Runs the probe in a background thread, every PERIOD_S, between
    start() and stop(); scale() turns a span's seconds into seconds at the
    reference speed."""

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self.times: list[float] = []
        self.probes: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="hostspeed", daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            probe(self.kernel)
            seconds = probe(self.kernel)
            self.times.append(time.perf_counter())
            self.probes.append(seconds)

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def scale(self, seconds: float, start: float, end: float) -> float:
        """seconds, spent between perf_counter() readings start and end, at
        the reference speed."""
        pad = max(0.0, (MIN_WINDOW_S - (end - start)) / 2.0)
        lo = bisect.bisect_left(self.times, start - pad)
        hi = bisect.bisect_right(self.times, end + pad)
        if hi == lo:
            raise RuntimeError(f"no host speed probe between {start - pad:.3f} and {end + pad:.3f}")
        return seconds * factor_of(self.kernel, self.probes[lo:hi])

"""Spans around calls into su4c's public functions, for the traced run.

Each traced function is replaced, in every su4c module that imported it, by
a wrapper that opens and closes a span. A call therefore gets the span name
of the function, and its parent is whichever traced call was running: the
compile inside run_experiment becomes a child of the experiment span. Spans
stay in memory as [name, start, end, parent index] until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# span name -> (module that defines the function, function name)
TRACED = {
    "haar.sample_su4": ("su4c.haar", "sample_su4"),
    "compiler.decompose": ("su4c.compiler", "decompose"),
    "compiler.verify": ("su4c.compiler", "verify"),
    "circuits.lower_to_pulses": ("su4c.circuits", "lower_to_pulses"),
    "experiment.run_experiment": ("su4c.experiment", "run_experiment"),
    "tomography.reconstruct_state": ("su4c.tomography", "reconstruct_state"),
    "tomography.reconstruct_process": ("su4c.tomography", "reconstruct_process"),
    "tomography.mean_state_fidelity": ("su4c.tomography", "mean_state_fidelity"),
    "tomography.entanglement_fidelity": ("su4c.tomography", "entanglement_fidelity"),
    "tomography.state_fidelity": ("su4c.tomography", "state_fidelity"),
    "io.dump_json": ("su4c.io", "dump_json"),
    "cli": ("su4c.cli", "main"),
}

# span name -> statistics reported for it (durations are inclusive)
REPORTED = {
    "haar.sample_su4": ("calls", "self_s"),
    "compiler.decompose": ("calls", "self_s", "p50_us"),
    "compiler.verify": ("calls", "self_s", "p50_us"),
    "circuits.lower_to_pulses": ("calls", "self_s", "p50_us"),
    "experiment.run_experiment": ("calls", "self_s", "p50_ms"),
    "tomography.reconstruct_state": ("calls", "self_s", "p50_ms", "p90_ms"),
    "tomography.reconstruct_process": ("self_s",),
    "tomography.mean_state_fidelity": ("self_s",),
    "tomography.entanglement_fidelity": ("self_s",),
    "tomography.state_fidelity": ("calls", "self_s"),
    "io.dump_json": ("calls", "self_s"),
    "cli": ("self_s",),
    "harness": ("self_s",),
}

ROOT = "harness"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters = {
            "circuits.pulses_emitted": 0,
            "experiment.shots_simulated": 0,
            "compiler.verify.distance_max": 0.0,
            "io.report_bytes": 0,
        }
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()


def _count_pulses(tracer, out):
    tracer.counters["circuits.pulses_emitted"] += len(out)


def _count_shots(tracer, out):
    tracer.counters["experiment.shots_simulated"] += sum(rec.shots for rec in out)


def _max_distance(tracer, out):
    c = tracer.counters
    c["compiler.verify.distance_max"] = max(c["compiler.verify.distance_max"], out.distance)


def _count_bytes(tracer, out):
    tracer.counters["io.report_bytes"] += len(out.encode("utf-8"))


_ON_RESULT = {
    "circuits.lower_to_pulses": _count_pulses,
    "experiment.run_experiment": _count_shots,
    "compiler.verify": _max_distance,
    "io.dump_json": _count_bytes,
}


def _wrap(tracer: Tracer, name: str, fn):
    on_result = _ON_RESULT.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if on_result is not None:
            on_result(tracer, out)
        return out

    return traced


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every traced function under each name a su4c module holds it by.

    Returns what uninstall() needs to put the originals back.
    """
    patched = []
    for name, (module, attr) in TRACED.items():
        original = getattr(importlib.import_module(module), attr)
        wrapper = _wrap(tracer, name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "su4c" and not mod_name.startswith("su4c."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    patched.append((mod, key, original))
    return patched


def uninstall(patched: list[tuple]) -> None:
    for mod, key, original in patched:
        setattr(mod, key, original)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for child in sorted(children[index], key=lambda c: spans[c][1]):
            lo = max(spans[child][1], reach)
            hi = min(spans[child][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def nearest_rank(values: list[float], q: float) -> float:
    """q-th percentile (0 < q <= 100) by the nearest-rank rule; 0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-module metrics of a finished trace, as name -> (value, unit)."""
    selfs = self_times(tracer.spans)
    durations: dict[str, list[float]] = {name: [] for name in REPORTED}
    self_sum = dict.fromkeys(REPORTED, 0.0)
    for span, self_s in zip(tracer.spans, selfs):
        durations[span[0]].append(span[2] - span[1])
        self_sum[span[0]] += self_s

    scale = {"p50_us": (50, 1e6, "us"), "p50_ms": (50, 1e3, "ms"), "p90_ms": (90, 1e3, "ms")}
    out: dict[str, tuple[float, str]] = {}
    for name, stats in REPORTED.items():
        for stat in stats:
            key = f"{name}.{stat}"
            if stat == "calls":
                out[key] = (len(durations[name]), "count")
            elif stat == "self_s":
                out[key] = (self_sum[name], "s")
            else:
                q, factor, unit = scale[stat]
                out[key] = (nearest_rank(durations[name], q) * factor, unit)

    c = tracer.counters
    out["compiler.verify.distance_max"] = (c["compiler.verify.distance_max"], "1")
    out["circuits.pulses_emitted"] = (c["circuits.pulses_emitted"], "count")
    out["experiment.shots_simulated"] = (c["experiment.shots_simulated"], "count")
    sim_s = self_sum["experiment.run_experiment"]
    out["experiment.shots_per_s"] = (
        c["experiment.shots_simulated"] / sim_s if sim_s > 0 else 0.0, "1/s"
    )
    out["io.report_bytes"] = (c["io.report_bytes"], "bytes")
    return out


def trace_problems(tracer: Tracer, pulse_count: int) -> list[str]:
    """Consistency checks on a finished trace."""
    problems = []
    roots = [span for span in tracer.spans if span[3] < 0]
    if len(roots) != 1 or roots[0][0] != ROOT:
        problems.append(f"expected one {ROOT} root span, got {len(roots)}")
        return problems
    wall = roots[0][2] - roots[0][1]
    total_self = sum(self_times(tracer.spans))
    if abs(total_self - wall) > 1e-6:
        problems.append(f"self times sum to {total_self:.6f} s, wall is {wall:.6f} s")
    lowered = sum(1 for span in tracer.spans if span[0] == "circuits.lower_to_pulses")
    if tracer.counters["circuits.pulses_emitted"] != pulse_count * lowered:
        problems.append(
            f"{tracer.counters['circuits.pulses_emitted']} pulses from {lowered} programs"
        )
    return problems

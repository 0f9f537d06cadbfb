"""End-to-end acceptance gates, one test per shipped criterion.

Every test prints a single PASS/FAIL line carrying the measured quantity
and its bound, so a log of `pytest tests/test_acceptance.py -v -s` is a
complete audit of the release checks. Tolerances are stated inline; the
statistical criteria run on fixed seeds and are fully deterministic.
"""

import json
import math
import time

import numpy as np

from born import exact_table
from oracles import gate_matrix, r_pulse_triple
from programs import program
from reference_data import PINNED_ROWS, row_to_params
from su4c.circuits import PULSE_COUNT, circuit_to_unitary, lower_to_pulses
from su4c.cli import main
from su4c.compiler import decompose, local_invariants
from su4c.experiment import (
    TOMOGRAPHY_INPUT_LABELS,
    exact_experiment,
)
from su4c.gates import G_GATE, r_gate
from su4c.haar import SeededRng, sample_su4
from su4c.linalg import phase_invariant_distance
from su4c.tomography import (
    entanglement_fidelity,
    mean_fidelity_from_entanglement,
    mean_state_fidelity,
    process_matrix_of_unitary,
    reconstruct_process,
    reconstruct_state,
)

I4 = np.eye(4, dtype=complex)
E_DEPOL = np.eye(16, dtype=complex) / 4.0  # fully depolarizing process


def report(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def random_su2(rng: SeededRng) -> np.ndarray:
    g = rng.generator.standard_normal((2, 2)) + 1j * rng.generator.standard_normal((2, 2))
    q, r = np.linalg.qr(g)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return q / np.sqrt(np.linalg.det(q))


def row_error(row) -> float:
    """Max elementwise gap between a stored row's composition and its matrix."""
    composed = circuit_to_unitary(row_to_params(row))
    return float(np.max(np.abs(composed - row[0])))


def wrap_gap(a, b) -> float:
    a = np.sort(np.angle(np.exp(1j * np.asarray(a))))
    b = np.sort(np.angle(np.exp(1j * np.asarray(b))))
    return float(np.max(np.abs(np.angle(np.exp(1j * (a - b))))))


def test_criterion_01_two_row_regression():
    t0 = time.monotonic()
    rows = PINNED_ROWS[:2]
    phases = [row[6] for row in rows]
    worst = max(row_error(row) for row in rows)
    dt = time.monotonic() - t0
    ok = (
        worst < 5e-3
        and dt < 1.0
        and np.allclose(phases, [-1.0, -1.0j], atol=1e-12)
        and np.array_equal(rows[0][0], rows[1][0])
    )
    report(1, ok, f"two rows, phases (-1, -i), worst error {worst:.2e} < 5e-3 in {dt:.3f}s")


def test_criterion_02_four_row_regression():
    rows = PINNED_ROWS[2:6]
    phases = [row[6] for row in rows]
    worst = max(row_error(row) for row in rows)
    ok = worst < 5e-3 and np.allclose(phases, [1.0j, -1.0j, 1.0j, -1.0j], atol=1e-12)
    report(2, ok, f"rows a-d, phases (i, -i, i, -i), worst error {worst:.2e} < 5e-3")


def test_criterion_03_compiler_round_trip():
    t0 = time.monotonic()
    rng = SeededRng(301)
    targets = [sample_su4(rng) for _ in range(1000)]
    targets += [I4, G_GATE.astype(complex)]
    for _ in range(10):  # forced locally degenerate inputs
        targets.append(np.kron(random_su2(rng), random_su2(rng)))
    worst = 0.0
    for u in targets:
        worst = max(
            worst, phase_invariant_distance(u, circuit_to_unitary(decompose(u)))
        )
    dt = time.monotonic() - t0
    ok = worst < 1e-9 and dt < 30.0
    report(3, ok, f"{len(targets)} round trips, worst distance {worst:.2e} < 1e-9 in {dt:.1f}s")


def test_criterion_04_local_invariance():
    rng = SeededRng(401)
    worst = 0.0
    for _ in range(500):
        u = sample_su4(rng)
        dressed = np.kron(random_su2(rng), random_su2(rng)) @ u @ np.kron(
            random_su2(rng), random_su2(rng)
        )
        worst = max(worst, wrap_gap(local_invariants(u), local_invariants(dressed)))
    ok = worst < 1e-8
    report(4, ok, f"500 dressing pairs, worst invariant gap {worst:.2e} < 1e-8")


def test_criterion_05_pulse_lowering():
    rng = SeededRng(501)
    worst = 0.0
    for _ in range(1000):
        theta = float(rng.generator.uniform(0.0, 2.0 * math.pi))
        phi = float(rng.generator.uniform(0.0, 2.0 * math.pi))
        triple = np.eye(2, dtype=complex)
        for elem in r_pulse_triple(theta, phi):
            triple = gate_matrix(elem) @ triple
        worst = max(worst, float(np.max(np.abs(triple - r_gate(theta, phi)))))

    # fixed schedule: every compiled circuit has the same gate skeleton
    specials = [I4, G_GATE.astype(complex), np.kron(random_su2(rng), random_su2(rng))]
    schedules = [
        lower_to_pulses(decompose(u))
        for u in specials + [sample_su4(rng) for _ in range(25)]
    ]
    skeleton = [(p.kind, p.target) for p in schedules[0]]
    same = all([(p.kind, p.target) for p in s] == skeleton for s in schedules)
    counts_ok = all(len(s) == PULSE_COUNT for s in schedules)
    half_pi = all(
        p.theta == math.pi / 2.0 for s in schedules for p in s if p.kind == "R"
    )
    ok = worst < 1e-10 and same and counts_ok and half_pi
    report(
        5,
        ok,
        f"1000 pulse triples, worst error {worst:.2e} < 1e-10; "
        f"{len(schedules)} schedules share one {PULSE_COUNT}-pulse skeleton",
    )


def test_criterion_06_exact_tomography_inversion():
    rng = SeededRng(601)
    worst_state = 0.0
    for index in range(1000):
        rank = 1 + index % 4
        g = rng.generator.standard_normal((4, rank)) + 1j * rng.generator.standard_normal(
            (4, rank)
        )
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        est = reconstruct_state(exact_table(rho), method="linear")
        worst_state = max(worst_state, float(np.max(np.abs(est - rho))))

    worst_process = 0.0
    for _ in range(100):
        u = sample_su4(rng)
        pulses = program(u)
        outputs = [
            reconstruct_state(exact_experiment(pulses, label), method="linear")
            for label in TOMOGRAPHY_INPUT_LABELS
        ]
        est = reconstruct_process(outputs)
        worst_process = max(
            worst_process, float(np.max(np.abs(est - process_matrix_of_unitary(u))))
        )
    ok = worst_state < 1e-9 and worst_process < 1e-9
    report(
        6,
        ok,
        f"1000 states worst {worst_state:.2e}, 100 processes worst "
        f"{worst_process:.2e}, both < 1e-9",
    )


def test_criterion_07_fidelity_identities():
    # the mean/entanglement fidelity relation compares a channel with an
    # isotropically depolarized copy of itself; it is not an identity for
    # unrelated channel pairs, so the pairs are built in that family
    rng = SeededRng(701)
    worst_mean = 0.0
    for _ in range(50):
        e1 = process_matrix_of_unitary(sample_su4(rng))
        w = float(rng.generator.uniform(0.0, 1.0))
        e2 = w * e1 + (1.0 - w) * E_DEPOL
        f = entanglement_fidelity(e1, e2)
        worst_mean = max(
            worst_mean,
            abs(mean_state_fidelity(e1, e2) - mean_fidelity_from_entanglement(f)),
        )

    worst_unitary = 0.0
    for _ in range(100):
        u = sample_su4(rng)
        v = sample_su4(rng)
        f = entanglement_fidelity(
            process_matrix_of_unitary(u), process_matrix_of_unitary(v)
        )
        worst_unitary = max(
            worst_unitary, abs(f - abs(np.trace(u.conj().T @ v)) ** 2 / 16.0)
        )
    ok = worst_mean < 1e-9 and worst_unitary < 1e-9
    report(
        7,
        ok,
        f"50 depolarized pairs gap {worst_mean:.2e}, 100 unitary pairs gap "
        f"{worst_unitary:.2e}, both < 1e-9",
    )


def test_criterion_08_shot_noise_statistics(tmp_path):
    t0 = time.monotonic()
    stats = {}
    for shots in (100, 10000):
        out = tmp_path / f"bench_{shots}.json"
        code = main(
            ["benchmark", "--n", "160", "--seed", "0", "--shots", str(shots),
             "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        stats[shots] = (doc["mean_fidelity"], doc["std_fidelity"])
    dt = time.monotonic() - t0
    mean_lo, std_lo = stats[100]
    mean_hi, std_hi = stats[10000]
    ok = (
        0.02 <= std_lo <= 0.05
        and std_hi < 0.01
        and mean_hi > mean_lo
        and dt < 300.0
    )
    report(
        8,
        ok,
        f"noiseless 160-op benchmark: std {std_lo:.2%} in [2%, 5%] at 100 shots, "
        f"std {std_hi:.2%} < 1% at 10000 shots, mean {mean_lo:.3f} -> {mean_hi:.3f} "
        f"in {dt:.1f}s",
    )


def test_criterion_09_published_value_consistency():
    value = mean_fidelity_from_entanglement(0.73)
    ok = abs(value - 0.784) < 1e-12 and 0.77 <= value <= 0.81
    report(9, ok, f"(4*0.73 + 1)/5 = {value:.3f}, equals 0.784 and sits inside 79(2)%")


def test_criterion_10_haar_moment():
    rng = SeededRng(42)
    count = 100_000
    total = 0.0
    for _ in range(count):
        total += abs(np.trace(sample_su4(rng))) ** 2
    moment = total / count
    first = [sample_su4(SeededRng(9)) for _ in range(3)]
    second = [sample_su4(SeededRng(9)) for _ in range(3)]
    deterministic = all(np.array_equal(a, b) for a, b in zip(first, second))
    ok = abs(moment - 1.0) <= 0.03 and deterministic
    report(
        10,
        ok,
        f"E|Tr U|^2 = {moment:.4f} over {count} samples, within 1 +/- 0.03; "
        f"seeded draws repeat exactly",
    )

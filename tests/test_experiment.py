"""Noisy pulse-level simulation and projective measurement."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from su4c.circuits import compose_pulses, lower_to_pulses
from su4c.compiler import decompose
from su4c.experiment import (
    CALIBRATED_NOISE,
    MEASUREMENT_SETTINGS,
    STATE_LABELS,
    TOMOGRAPHY_INPUT_LABELS,
    InputStateLabel,
    MeasurementRecord,
    NoiseModel,
    apply_channel,
    exact_experiment,
    input_state,
    measure,
    run_experiment,
    setting_probabilities,
)
from su4c.experiment import _setting_frame  # shared with tomography; pinned here
from su4c.gates import G_GATE, embed, r_gate, rz_gate
from su4c.haar import SeededRng, sample_su4
from su4c.linalg import kron
from programs import program

I4 = np.eye(4, dtype=complex)


def random_density(rng):
    g = rng.generator.standard_normal((4, 4)) + 1j * rng.generator.standard_normal((4, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def ideal_output(u, label):
    psi = u @ input_state(label)
    return np.outer(psi, psi.conj())


def reference_channel(rho, pulses, noise, rng):
    """The noise model as the module docstring states it, on a density
    matrix: conjugation pulse by pulse with one normal draw per R pulse,
    a mix toward I/4 after every G, damping on each qubit at the end."""
    for pulse in pulses:
        if pulse.kind == "R":
            theta = pulse.theta
            if noise.overrotation_sigma > 0.0:
                theta *= 1.0 + rng.generator.normal(0.0, noise.overrotation_sigma)
            u = embed(r_gate(theta, pulse.phi), pulse.target)
        elif pulse.kind == "Rz":
            u = embed(rz_gate(pulse.phiz), pulse.target)
        else:
            u = G_GATE
        rho = u @ rho @ u.conj().T
        if pulse.kind == "G":
            p = noise.depolarizing_per_g
            rho = (1.0 - p) * rho + p * I4 / 4.0
    gamma = noise.damping_per_circuit
    k0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - gamma)]])
    k1 = np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]])
    out = np.zeros((4, 4), dtype=complex)
    for ka in (k0, k1):
        for kb in (k0, k1):
            k = np.kron(ka, kb)
            out += k @ rho @ k.conj().T
    return out


# run_experiment records of fixed cases, captured from the per-setting,
# per-pulse density-matrix simulation: (Haar seed, label, noise, shots,
# rng seed, the nine count tuples). Equal counts pin the order of the draws.
GOLDEN_RECORDS = {
    "sigma-only": (
        11, ("plus", "down"), NoiseModel(overrotation_sigma=0.08), 100, 101,
        (
            (3, 44, 10, 43), (26, 12, 48, 14), (27, 16, 17, 40),
            (11, 74, 6, 9), (68, 20, 6, 6), (32, 60, 0, 8),
            (7, 29, 3, 61), (31, 4, 39, 26), (17, 26, 21, 36),
        ),
    ),
    "depolarizing-only": (
        12, ("minus_i", "up"), NoiseModel(depolarizing_per_g=0.1), 100, 102,
        (
            (21, 29, 19, 31), (11, 51, 35, 3), (20, 28, 26, 26),
            (20, 12, 13, 55), (18, 18, 29, 35), (4, 27, 44, 25),
            (9, 45, 28, 18), (27, 27, 21, 25), (21, 44, 28, 7),
        ),
    ),
    "damping-only": (
        13, ("down", "plus"), NoiseModel(damping_per_circuit=0.2), 100, 103,
        (
            (29, 24, 18, 29), (5, 41, 10, 44), (8, 39, 16, 37),
            (13, 23, 32, 32), (10, 22, 10, 58), (10, 25, 11, 54),
            (30, 50, 10, 10), (19, 66, 1, 14), (19, 71, 5, 5),
        ),
    ),
    "calibrated-100": (
        14, ("up", "minus_i"), CALIBRATED_NOISE, 100, 104,
        (
            (26, 26, 31, 17), (30, 20, 29, 21), (37, 10, 11, 42),
            (18, 38, 37, 7), (46, 14, 15, 25), (27, 24, 30, 19),
            (43, 25, 16, 16), (49, 10, 11, 30), (32, 31, 9, 28),
        ),
    ),
    "noiseless-100": (
        15, ("plus", "plus"), NoiseModel(), 100, 105,
        (
            (71, 18, 3, 8), (74, 11, 8, 7), (36, 50, 14, 0),
            (51, 5, 21, 23), (48, 10, 40, 2), (37, 25, 12, 26),
            (47, 17, 30, 6), (72, 2, 19, 7), (42, 26, 5, 27),
        ),
    ),
    "calibrated-1": (
        16, ("minus_i", "down"), CALIBRATED_NOISE, 1, 106,
        (
            (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 1, 0),
            (0, 1, 0, 0), (0, 0, 0, 1), (1, 0, 0, 0),
            (0, 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, 1),
        ),
    ),
    "calibrated-1500": (
        17, ("down", "up"), CALIBRATED_NOISE, 1500, 107,
        (
            (165, 107, 1153, 75), (123, 132, 679, 566), (119, 126, 513, 742),
            (708, 80, 624, 88), (412, 346, 388, 354), (348, 390, 290, 472),
            (622, 76, 711, 91), (354, 354, 438, 354), (300, 418, 344, 438),
        ),
    ),
    "no-sigma-1500": (
        18, ("up", "plus"),
        NoiseModel(depolarizing_per_g=0.05, damping_per_circuit=0.1), 1500, 108,
        (
            (286, 218, 937, 59), (406, 109, 536, 449), (326, 175, 600, 399),
            (931, 156, 313, 100), (842, 241, 113, 304), (671, 423, 254, 152),
            (671, 187, 535, 107), (557, 330, 398, 215), (727, 176, 215, 382),
        ),
    ),
}


class TestInputStates:
    def test_vectors(self):
        assert np.allclose(input_state(("up", "up")), [1, 0, 0, 0])
        assert np.allclose(input_state(("down", "down")), [0, 0, 0, 1])
        s = 1.0 / math.sqrt(2.0)
        assert np.allclose(input_state(("plus", "down")), [0, s, 0, s])
        assert np.allclose(
            input_state(("minus_i", "plus")), [0.5, 0.5, -0.5j, -0.5j]
        )

    def test_label_dataclass(self):
        lab = InputStateLabel("plus", "down")
        assert np.allclose(input_state(lab), input_state(("plus", "down")))

    def test_all_sixteen_labels(self):
        assert len(TOMOGRAPHY_INPUT_LABELS) == 16
        for pair in TOMOGRAPHY_INPUT_LABELS:
            psi = input_state(pair)
            assert abs(np.linalg.norm(psi) - 1.0) < 1e-12

    def test_invalid_label(self):
        with pytest.raises(ValueError):
            input_state(("up", "sideways"))
        with pytest.raises(ValueError):
            InputStateLabel("left", "up")

    def test_label_set(self):
        assert STATE_LABELS == ("up", "down", "plus", "minus_i")


class TestNoiseModel:
    def test_defaults_are_zero(self):
        noise = NoiseModel()
        assert noise.is_zero
        assert noise.overrotation_sigma == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(overrotation_sigma=-0.1)
        with pytest.raises(ValueError):
            NoiseModel(depolarizing_per_g=1.5)
        with pytest.raises(ValueError):
            NoiseModel(damping_per_circuit=-0.2)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_non_finite_sigma_rejected(self, sigma):
        with pytest.raises(ValueError):
            NoiseModel(overrotation_sigma=sigma)

    def test_is_zero_flag(self):
        assert not NoiseModel(overrotation_sigma=0.01).is_zero
        assert not NoiseModel(depolarizing_per_g=0.01).is_zero
        assert not NoiseModel(damping_per_circuit=0.01).is_zero

    def test_calibrated_profile(self):
        assert not CALIBRATED_NOISE.is_zero
        assert 0.0 < CALIBRATED_NOISE.overrotation_sigma < 0.5
        assert 0.0 < CALIBRATED_NOISE.depolarizing_per_g < 0.5
        assert 0.0 < CALIBRATED_NOISE.damping_per_circuit < 0.5


class TestApplyChannel:
    def test_noiseless_is_unitary_conjugation(self):
        rng = SeededRng(191)
        for _ in range(20):
            u = sample_su4(rng)
            pulses = lower_to_pulses(decompose(u))
            rho = random_density(rng)
            out = apply_channel(rho, pulses, NoiseModel())
            w = compose_pulses(pulses)  # same product up to global phase
            assert np.max(np.abs(out - w @ rho @ w.conj().T)) < 1e-9

    def test_full_depolarizing_ends_maximally_mixed(self):
        pulses = lower_to_pulses(decompose(sample_su4(SeededRng(193))))
        rho = ideal_output(I4, ("up", "up"))
        out = apply_channel(rho, pulses, NoiseModel(depolarizing_per_g=1.0))
        assert np.max(np.abs(out - I4 / 4.0)) < 1e-9

    def test_full_damping_resets_to_ground(self):
        pulses = lower_to_pulses(decompose(sample_su4(SeededRng(197))))
        rho = random_density(SeededRng(199))
        out = apply_channel(rho, pulses, NoiseModel(damping_per_circuit=1.0))
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 1.0
        assert np.max(np.abs(out - expected)) < 1e-9

    def test_small_overrotation_degrades_gently(self):
        u = sample_su4(SeededRng(211))
        pulses = lower_to_pulses(decompose(u))
        rho = ideal_output(I4, ("up", "up"))
        ideal = apply_channel(rho, pulses, NoiseModel())
        rng = SeededRng(223)
        acc = np.zeros((4, 4), dtype=complex)
        n = 200
        for _ in range(n):
            acc += apply_channel(rho, pulses, NoiseModel(overrotation_sigma=0.01), rng)
        mean = acc / n
        overlap = float(np.real(np.trace(ideal @ mean)))
        assert 0.9 < overlap < 1.0  # degraded, but only slightly

    def test_trace_and_positivity_preserved(self):
        # physicality across random circuits, states and noise draws
        rng = SeededRng(313)
        pulses = lower_to_pulses(decompose(sample_su4(rng)))
        for _ in range(1000):
            rho = random_density(rng)
            noise = NoiseModel(
                overrotation_sigma=float(rng.generator.uniform(0.0, 0.2)),
                depolarizing_per_g=float(rng.generator.uniform(0.0, 0.5)),
                damping_per_circuit=float(rng.generator.uniform(0.0, 0.5)),
            )
            out = apply_channel(rho, pulses, noise, rng)
            assert abs(np.trace(out).real - 1.0) < 1e-9
            assert np.linalg.eigvalsh(out)[0] >= -1e-10
            assert np.max(np.abs(out - out.conj().T)) < 1e-12

    def test_stochastic_noise_requires_rng(self):
        pulses = lower_to_pulses(decompose(I4))
        rho = I4 / 4.0
        with pytest.raises(ValueError):
            apply_channel(rho, pulses, NoiseModel(overrotation_sigma=0.1))

    def test_matches_density_matrix_reference(self):
        # the folded end-of-circuit depolarization and the state-vector
        # evolution against per-pulse conjugation, with the same draws
        rng = SeededRng(331)
        for trial in range(200):
            pulses = lower_to_pulses(decompose(sample_su4(rng)))
            rho = random_density(rng)
            on = rng.generator.random(3) < 0.75  # each term sometimes off
            sigma, p, gamma = rng.generator.uniform(0.0, [0.3, 0.5, 0.5]) * on
            noise = NoiseModel(float(sigma), float(p), float(gamma))
            a, b = SeededRng(1000 + trial), SeededRng(1000 + trial)
            out = apply_channel(rho, pulses, noise, a)
            ref = reference_channel(rho, pulses, noise, b)
            assert np.max(np.abs(out - ref)) < 1e-12
            assert a.generator.random() == b.generator.random()  # as many draws

    def test_rejects_invalid_state(self):
        pulses = lower_to_pulses(decompose(I4))
        with pytest.raises(ValueError):
            apply_channel(np.eye(4, dtype=complex), pulses, NoiseModel())  # trace 4
        bad = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            apply_channel(bad, pulses, NoiseModel())  # negative weight


class TestMeasure:
    def test_counts_sum_to_shots(self):
        rho = random_density(SeededRng(227))
        rec = measure(rho, ("Z", "Z"), 500, SeededRng(229))
        assert sum(rec.counts) == 500
        assert rec.shots == 500
        assert rec.setting == ("Z", "Z")

    def test_ground_state_is_deterministic_in_z(self):
        rho = ideal_output(I4, ("up", "up"))
        rec = measure(rho, ("Z", "Z"), 1000, SeededRng(233))
        assert rec.counts == (1000, 0, 0, 0)

    def test_plus_state_is_deterministic_in_x(self):
        # the X prerotation maps the +1 eigenstate onto a basis state
        rho = ideal_output(I4, ("plus", "up"))
        probs = setting_probabilities(rho, ("X", "Z"))
        hot = int(np.argmax(probs))
        assert probs[hot] == pytest.approx(1.0, abs=1e-12)
        rec = measure(rho, ("X", "Z"), 400, SeededRng(239))
        assert rec.counts[hot] == 400

    def test_bell_state_splits_evenly(self):
        psi = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2.0)
        rho = np.outer(psi, psi.conj())
        rec = measure(rho, ("Z", "Z"), 10_000, SeededRng(241))
        assert rec.counts[1] == 0 and rec.counts[2] == 0
        # statistical: fixed seed, even split up to sampling noise
        assert stats.chisquare([rec.counts[0], rec.counts[3]]).pvalue > 0.01

    def test_born_probabilities(self):
        rng = SeededRng(251)
        for _ in range(20):
            rho = random_density(rng)
            for setting in MEASUREMENT_SETTINGS:
                p = setting_probabilities(rho, setting)
                assert p.shape == (4,)
                assert np.all(p >= 0.0)
                assert p.sum() == pytest.approx(1.0, abs=1e-12)
                w = _setting_frame(setting)
                expected = np.real(np.diag(w @ rho @ w.conj().T))
                assert np.max(np.abs(p - np.clip(expected, 0.0, None) / np.sum(np.clip(expected, 0.0, None)))) < 1e-12

    def test_marginal_consistency(self):
        # tracing the record over the second qubit must match the reduced
        # state measured in the first qubit's frame
        rng = SeededRng(257)
        rho = random_density(rng)
        reduced = np.einsum("ijkj->ik", rho.reshape(2, 2, 2, 2))
        for setting in MEASUREMENT_SETTINGS:
            p = setting_probabilities(rho, setting)
            marg = np.array([p[0] + p[1], p[2] + p[3]])
            axis = setting[0]
            from su4c.experiment import _PREROTATION

            w = _PREROTATION[axis]
            expected = np.real(np.diag(w @ reduced @ w.conj().T))
            assert np.max(np.abs(marg - expected)) < 1e-12

    def test_shots_must_be_positive(self):
        with pytest.raises(ValueError):
            measure(I4 / 4.0, ("Z", "Z"), 0, SeededRng(1))


class TestRunExperiment:
    def test_record_layout(self):
        records = run_experiment(
            program(sample_su4(SeededRng(263))), ("up", "up"), NoiseModel(), 100, SeededRng(269)
        )
        assert len(records) == 9
        assert tuple(r.setting for r in records) == MEASUREMENT_SETTINGS
        for r in records:
            assert isinstance(r, MeasurementRecord)
            assert sum(r.counts) == 100

    def test_identity_circuit_leaves_ground_state(self):
        records = run_experiment(program(I4), ("up", "up"), NoiseModel(), 300, SeededRng(271))
        zz = records[0]
        assert zz.setting == ("Z", "Z")
        assert zz.counts == (300, 0, 0, 0)

    def test_deterministic_given_seed(self):
        pulses = program(sample_su4(SeededRng(277)))
        a = run_experiment(pulses, ("plus", "down"), CALIBRATED_NOISE, 50, SeededRng(281))
        b = run_experiment(pulses, ("plus", "down"), CALIBRATED_NOISE, 50, SeededRng(281))
        assert a == b

    def test_noise_changes_counts(self):
        pulses = program(sample_su4(SeededRng(283)))
        clean = run_experiment(pulses, ("up", "down"), NoiseModel(), 2000, SeededRng(293))
        noisy = run_experiment(pulses, ("up", "down"), CALIBRATED_NOISE, 2000, SeededRng(293))
        assert clean != noisy

    def test_rejects_nonpositive_shots(self):
        with pytest.raises(ValueError):
            run_experiment(program(I4), ("up", "up"), NoiseModel(), 0, SeededRng(1))

    @pytest.mark.parametrize("name", sorted(GOLDEN_RECORDS))
    def test_golden_counts(self, name):
        haar, label, noise, shots, seed, expected = GOLDEN_RECORDS[name]
        records = run_experiment(
            program(sample_su4(SeededRng(haar))), label, noise, shots, SeededRng(seed)
        )
        assert tuple(r.counts for r in records) == expected
        assert all(isinstance(c, int) for r in records for c in r.counts)

    def test_memory_bounded_in_shots(self):
        pulses = program(sample_su4(SeededRng(337)))
        label = ("plus", "up")
        run_experiment(pulses, label, CALIBRATED_NOISE, 10, SeededRng(1))  # warm
        tracemalloc.start()
        try:
            run_experiment(pulses, label, CALIBRATED_NOISE, 20_000, SeededRng(347))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestExactExperiment:
    def test_probabilities_match_ideal_output(self):
        u = sample_su4(SeededRng(313))
        records = exact_experiment(program(u), ("minus_i", "plus"))
        rho = ideal_output(u, ("minus_i", "plus"))
        for rec in records:
            p = setting_probabilities(rho, rec.setting)
            assert np.max(np.abs(np.array(rec.counts) - p)) < 1e-9

    def test_frequencies_are_probabilities(self):
        records = exact_experiment(program(sample_su4(SeededRng(317))), ("up", "up"))
        for rec in records:
            f = rec.frequencies()
            assert f.sum() == pytest.approx(1.0, abs=1e-12)


class TestMeasurementRecord:
    def test_frequencies(self):
        rec = MeasurementRecord(("Z", "X"), (10, 20, 30, 40), 100)
        assert np.allclose(rec.frequencies(), [0.1, 0.2, 0.3, 0.4])

    def test_empty_counts_rejected(self):
        rec = MeasurementRecord(("Z", "Z"), (0, 0, 0, 0), 0)
        with pytest.raises(ValueError):
            rec.frequencies()

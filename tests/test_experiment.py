"""Noisy pulse-level simulation and projective measurement."""

import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest

from su4c.circuits import _TEMPLATE, _pulses
from su4c.experiment import (
    CALIBRATED_NOISE,
    MEASUREMENT_SETTINGS,
    STATE_LABELS,
    TOMOGRAPHY_INPUT_LABELS,
    NoiseModel,
    exact_experiment,
    input_state,
    run_experiment,
    run_experiments,
)
from su4c.experiment import (
    _ALL_PAULIS,
    _PREPARED_STATES,
    _PREPARED_TABLES,
    _PREPARED_VECTORS,
    _PREROTATION,
    _SETTING_FRAMES,
    _SIGNS,
    _STATE_VECTORS,
    _STEPS,
    _outcome_probabilities,
    _output_tables,
    _pulse_blocks,
    _sample_counts,
)
from su4c.gates import G_GATE, r_gate, rz_gate
from su4c.haar import SeededRng, sample_su4
from su4c.linalg import _kron
from born import setting_probabilities
from oracles import apply_channel, compose_pulses, embed, reference_output_states, reference_probabilities
from programs import program

I4 = np.eye(4, dtype=complex)


def random_density(rng):
    g = rng.generator.standard_normal((4, 4)) + 1j * rng.generator.standard_normal((4, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def density(tables):
    """The density matrices (M, 4, 4) of Pauli tables (4, 4, M), programs
    last: sum_j T_j P_j / 4."""
    return (tables.reshape(16, -1).T @ _ALL_PAULIS.reshape(16, 16)).reshape(-1, 4, 4) / 4.0


def ideal_output(u, label):
    psi = u @ input_state(label)
    return np.outer(psi, psi.conj())


def reference_channel(rho, angles, noise, rng):
    """The noise model as the module docstring states it, on a density
    matrix: conjugation pulse by pulse of the program's GateElement view
    with one normal draw per R pulse, a mix toward I/4 after every G,
    damping on each qubit at the end."""
    for pulse in _pulses(angles):
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


# run_experiment counts of fixed cases: (Haar seed, label, noise, shots,
# rng seed, the nine count rows). Equal counts pin both the exact outcome
# distribution and the one multinomial draw per program. The noisy entries
# were captured when the counts came to be drawn from the exact averaged
# distribution; noiseless-100 is older and did not move.
GOLDEN_COUNTS = {
    "sigma-only": (
        11, ("plus", "down"), NoiseModel(overrotation_sigma=0.08), 100, 101,
        (
            (7, 38, 10, 45), (27, 18, 40, 15), (22, 26, 14, 38),
            (13, 79, 3, 5), (81, 12, 3, 4), (46, 47, 1, 6),
            (9, 28, 2, 61), (32, 7, 40, 21), (18, 28, 25, 29),
        ),
    ),
    "depolarizing-only": (
        12, ("minus_i", "up"), NoiseModel(depolarizing_per_g=0.1), 100, 102,
        (
            (14, 37, 16, 33), (13, 46, 34, 7), (25, 29, 22, 24),
            (31, 9, 9, 51), (14, 23, 29, 34), (5, 30, 40, 25),
            (12, 45, 26, 17), (39, 23, 16, 22), (18, 42, 34, 6),
        ),
    ),
    "damping-only": (
        13, ("down", "plus"), NoiseModel(damping_per_circuit=0.2), 100, 103,
        (
            (20, 22, 20, 38), (14, 35, 10, 41), (8, 44, 12, 36),
            (6, 27, 33, 34), (4, 28, 10, 58), (6, 22, 14, 58),
            (38, 56, 3, 3), (16, 72, 1, 11), (21, 68, 2, 9),
        ),
    ),
    "calibrated-100": (
        14, ("up", "minus_i"), CALIBRATED_NOISE, 100, 104,
        (
            (24, 27, 36, 13), (21, 20, 37, 22), (41, 9, 12, 38),
            (10, 45, 39, 6), (44, 14, 20, 22), (20, 32, 33, 15),
            (41, 22, 19, 18), (62, 6, 6, 26), (37, 26, 16, 21),
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
            (1, 0, 0, 0), (0, 0, 1, 0), (1, 0, 0, 0),
            (0, 0, 1, 0), (0, 0, 0, 1), (0, 1, 0, 0),
            (0, 0, 1, 0), (0, 0, 1, 0), (1, 0, 0, 0),
        ),
    ),
    "calibrated-1500": (
        17, ("down", "up"), CALIBRATED_NOISE, 1500, 107,
        (
            (139, 91, 1173, 97), (119, 107, 666, 608), (115, 128, 503, 754),
            (676, 65, 645, 114), (394, 368, 389, 349), (367, 409, 298, 426),
            (614, 94, 711, 81), (346, 377, 460, 317), (280, 415, 382, 423),
        ),
    ),
    "no-sigma-1500": (
        18, ("up", "plus"),
        NoiseModel(depolarizing_per_g=0.05, damping_per_circuit=0.1), 1500, 108,
        (
            (308, 217, 907, 68), (391, 124, 550, 435), (333, 206, 609, 352),
            (946, 164, 274, 116), (847, 257, 107, 289), (688, 419, 250, 143),
            (691, 174, 549, 86), (576, 316, 408, 200), (724, 171, 214, 391),
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

    def test_all_sixteen_labels(self):
        assert len(TOMOGRAPHY_INPUT_LABELS) == 16
        for pair in TOMOGRAPHY_INPUT_LABELS:
            psi = input_state(pair)
            assert abs(np.linalg.norm(psi) - 1.0) < 1e-12

    def test_invalid_label(self):
        with pytest.raises(ValueError, match="sideways"):
            input_state(("up", "sideways"))
        with pytest.raises(ValueError, match="left"):
            input_state(("left", "up"))
        # Pauli eigenstates that are not preparations are unknown labels too
        for label in (("minus", "up"), ("up", "plus_i")):
            with pytest.raises(ValueError, match=re.escape(str(STATE_LABELS))):
                input_state(label)

    # a string is not read as its characters, a label of one or three names
    # is not unpacked, and one without a length is no pair either: each
    # entry point names the pair rule and the label
    @pytest.mark.parametrize("label", ["up", "uu", ("up",), ("up", "up", "up"), 5, None])
    @pytest.mark.parametrize("entry", ["input_state", "run_experiment", "run_experiments", "exact_experiment"])
    def test_label_must_be_a_pair(self, entry, label):
        calls = {
            "input_state": lambda: input_state(label),
            "run_experiment": lambda: run_experiment(ORACLE_PROGRAMS[0], label, CALIBRATED_NOISE, 10, SeededRng(1)),
            "run_experiments": lambda: run_experiments(
                ORACLE_PROGRAMS[:1], [label], CALIBRATED_NOISE, 10, [SeededRng(1)]
            ),
            "exact_experiment": lambda: exact_experiment(ORACLE_PROGRAMS[0], label),
        }
        with pytest.raises(ValueError, match=re.escape(f"a pair of state labels, one per qubit; got {label!r}")):
            calls[entry]()

    def test_label_set(self):
        assert STATE_LABELS == ("up", "down", "plus", "minus_i")

    def test_tables_hold_each_outer_product(self):
        # the tables built at import hold, bit for bit, the np.outer of each
        # label's factors that input_state and the pass once built per call
        for k, (a, b) in enumerate(TOMOGRAPHY_INPUT_LABELS):
            psi = np.outer(_STATE_VECTORS[a], _STATE_VECTORS[b]).reshape(4)
            assert _PREPARED_VECTORS[k].tobytes() == psi.tobytes()
            assert _PREPARED_STATES[k].tobytes() == np.outer(psi, psi.conj()).tobytes()
            assert input_state([a, b]).tobytes() == psi.tobytes()

    def test_input_state_is_a_fresh_array(self):
        psi = input_state(("plus", "up"))
        psi[:] = 0.0
        assert np.any(input_state(("plus", "up")) != 0.0)


class TestNoiseModel:
    def test_defaults_are_zero(self):
        noise = NoiseModel()
        assert (noise.overrotation_sigma, noise.depolarizing_per_g, noise.damping_per_circuit) == (0.0, 0.0, 0.0)

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

    def test_calibrated_profile(self):
        assert 0.0 < CALIBRATED_NOISE.overrotation_sigma < 0.5
        assert 0.0 < CALIBRATED_NOISE.depolarizing_per_g < 0.5
        assert 0.0 < CALIBRATED_NOISE.damping_per_circuit < 0.5


class TestApplyChannel:
    def test_noiseless_is_unitary_conjugation(self):
        rng = SeededRng(191)
        for _ in range(20):
            u = sample_su4(rng)
            angles = program(u)
            rho = random_density(rng)
            out = apply_channel(rho, angles, NoiseModel())
            w = compose_pulses(_pulses(angles))  # same product up to global phase
            assert np.max(np.abs(out - w @ rho @ w.conj().T)) < 1e-9

    def test_full_depolarizing_ends_maximally_mixed(self):
        angles = program(sample_su4(SeededRng(193)))
        rho = ideal_output(I4, ("up", "up"))
        out = apply_channel(rho, angles, NoiseModel(depolarizing_per_g=1.0))
        assert np.max(np.abs(out - I4 / 4.0)) < 1e-9

    def test_full_damping_resets_to_ground(self):
        angles = program(sample_su4(SeededRng(197)))
        rho = random_density(SeededRng(199))
        out = apply_channel(rho, angles, NoiseModel(damping_per_circuit=1.0))
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 1.0
        assert np.max(np.abs(out - expected)) < 1e-9

    def test_small_overrotation_degrades_gently(self):
        u = sample_su4(SeededRng(211))
        angles = program(u)
        rho = ideal_output(I4, ("up", "up"))
        ideal = apply_channel(rho, angles, NoiseModel())
        rng = SeededRng(223)
        acc = np.zeros((4, 4), dtype=complex)
        n = 200
        for _ in range(n):
            acc += apply_channel(rho, angles, NoiseModel(overrotation_sigma=0.01), rng)
        mean = acc / n
        overlap = float(np.real(np.trace(ideal @ mean)))
        assert 0.9 < overlap < 1.0  # degraded, but only slightly

    def test_trace_and_positivity_preserved(self):
        # physicality across random circuits, states and noise draws
        rng = SeededRng(313)
        angles = program(sample_su4(rng))
        for _ in range(1000):
            rho = random_density(rng)
            noise = NoiseModel(
                overrotation_sigma=float(rng.generator.uniform(0.0, 0.2)),
                depolarizing_per_g=float(rng.generator.uniform(0.0, 0.5)),
                damping_per_circuit=float(rng.generator.uniform(0.0, 0.5)),
            )
            out = apply_channel(rho, angles, noise, rng)
            assert abs(np.trace(out).real - 1.0) < 1e-9
            assert np.linalg.eigvalsh(out)[0] >= -1e-10
            assert np.max(np.abs(out - out.conj().T)) < 1e-12

    def test_stochastic_noise_requires_rng(self):
        angles = program(I4)
        rho = I4 / 4.0
        with pytest.raises(ValueError):
            apply_channel(rho, angles, NoiseModel(overrotation_sigma=0.1))

    def test_matches_density_matrix_reference(self):
        # the folded end-of-circuit depolarization and the state-vector
        # evolution against per-pulse conjugation, with the same draws
        rng = SeededRng(331)
        for trial in range(200):
            angles = program(sample_su4(rng))
            rho = random_density(rng)
            on = rng.generator.random(3) < 0.75  # each term sometimes off
            sigma, p, gamma = rng.generator.uniform(0.0, [0.3, 0.5, 0.5]) * on
            noise = NoiseModel(float(sigma), float(p), float(gamma))
            a, b = SeededRng(1000 + trial), SeededRng(1000 + trial)
            out = apply_channel(rho, angles, noise, a)
            ref = reference_channel(rho, angles, noise, b)
            assert np.max(np.abs(out - ref)) < 1e-12
            assert a.generator.random() == b.generator.random()  # as many draws

    def test_rejects_invalid_state(self):
        angles = program(I4)
        with pytest.raises(ValueError):
            apply_channel(np.eye(4, dtype=complex), angles, NoiseModel())  # trace 4
        bad = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            apply_channel(bad, angles, NoiseModel())  # negative weight


# A program mapping |+, up> to the Bell state (|00> + |11>) / sqrt(2).
CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)


class TestMeasure:
    """Projective measurement in the nine settings, read from the exact
    probabilities of compiled programs; row 0 is the ZZ setting."""

    def test_ground_state_is_deterministic_in_z(self):
        assert MEASUREMENT_SETTINGS[0] == ("Z", "Z")
        zz = exact_experiment(program(I4), ("up", "up"))[0]
        assert np.max(np.abs(zz - [1, 0, 0, 0])) < 1e-12

    def test_plus_state_is_deterministic_in_x(self):
        # the X prerotation maps the +1 eigenstate onto a basis state
        table = exact_experiment(program(I4), ("plus", "up"))
        probs = table[MEASUREMENT_SETTINGS.index(("X", "Z"))]
        hot = int(np.argmax(probs))
        assert probs[hot] == pytest.approx(1.0, abs=1e-12)

    def test_bell_state_splits_evenly(self):
        zz = exact_experiment(program(CNOT), ("plus", "up"))[0]
        assert np.max(np.abs(zz - [0.5, 0, 0, 0.5])) < 1e-12

    def test_born_probabilities(self):
        # every setting of every label against <k| W rho W^dag |k>
        rng = SeededRng(251)
        for _ in range(5):
            u = sample_su4(rng)
            angles = program(u)
            for label in TOMOGRAPHY_INPUT_LABELS:
                rho = ideal_output(u, label)
                for setting, p in zip(MEASUREMENT_SETTINGS, exact_experiment(angles, label)):
                    assert np.all(p >= 0.0)
                    assert p.sum() == pytest.approx(1.0, abs=1e-12)
                    assert np.max(np.abs(p - setting_probabilities(rho, setting))) < 1e-9

    def test_marginal_consistency(self):
        # tracing each setting's probabilities over the second qubit must
        # match the reduced state measured in the first qubit's frame
        rng = SeededRng(257)
        u = sample_su4(rng)
        rho = ideal_output(u, ("minus_i", "plus"))
        reduced = np.einsum("ijkj->ik", rho.reshape(2, 2, 2, 2))
        for setting, p in zip(MEASUREMENT_SETTINGS, exact_experiment(program(u), ("minus_i", "plus"))):
            marg = np.array([p[0] + p[1], p[2] + p[3]])
            w = _PREROTATION[setting[0]]
            expected = np.real(np.diag(w @ reduced @ w.conj().T))
            assert np.max(np.abs(marg - expected)) < 1e-9


class TestRunExperiment:
    def test_record_layout(self):
        # one row of four outcome counts per setting, each row all the shots
        counts = run_experiment(
            program(sample_su4(SeededRng(263))), ("up", "up"), NoiseModel(), 100, SeededRng(269)
        )
        assert counts.shape == (len(MEASUREMENT_SETTINGS), 4)
        assert counts.dtype == np.int64
        assert np.all(counts.sum(axis=-1) == 100)

    def test_identity_circuit_leaves_ground_state(self):
        counts = run_experiment(program(I4), ("up", "up"), NoiseModel(), 300, SeededRng(271))
        assert MEASUREMENT_SETTINGS[0] == ("Z", "Z")
        assert counts[0].tolist() == [300, 0, 0, 0]

    def test_deterministic_given_seed(self):
        angles = program(sample_su4(SeededRng(277)))
        a = run_experiment(angles, ("plus", "down"), CALIBRATED_NOISE, 50, SeededRng(281))
        b = run_experiment(angles, ("plus", "down"), CALIBRATED_NOISE, 50, SeededRng(281))
        assert np.array_equal(a, b)

    def test_noise_changes_counts(self):
        angles = program(sample_su4(SeededRng(283)))
        clean = run_experiment(angles, ("up", "down"), NoiseModel(), 2000, SeededRng(293))
        noisy = run_experiment(angles, ("up", "down"), CALIBRATED_NOISE, 2000, SeededRng(293))
        assert not np.array_equal(clean, noisy)

    def test_rejects_nonpositive_shots(self):
        with pytest.raises(ValueError):
            run_experiment(program(I4), ("up", "up"), NoiseModel(), 0, SeededRng(1))

    @pytest.mark.parametrize("name", sorted(GOLDEN_COUNTS))
    def test_golden_counts(self, name):
        haar, label, noise, shots, seed, expected = GOLDEN_COUNTS[name]
        counts = run_experiment(
            program(sample_su4(SeededRng(haar))), label, noise, shots, SeededRng(seed)
        )
        assert counts.dtype == np.int64
        assert counts.tolist() == [list(row) for row in expected]

    def test_memory_bounded_in_shots(self):
        angles = program(sample_su4(SeededRng(337)))
        label = ("plus", "up")
        run_experiment(angles, label, CALIBRATED_NOISE, 10, SeededRng(1))  # warm
        tracemalloc.start()
        try:
            run_experiment(angles, label, CALIBRATED_NOISE, 20_000, SeededRng(347))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


# The per-shot executor as it ran before the counts were drawn from the exact
# averaged distribution, kept as the statistical oracle of run_experiments:
# one program per call, its settings in blocks of at most LOOP_BLOCK_SHOTS
# state-vector columns, every shot its own over-rotation draw and outcome.
LOOP_BLOCK_SHOTS = 1024


def loop_damping_kraus(gamma):
    k0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - gamma)]], dtype=complex)
    k1 = np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return np.array([_kron(ka, kb) for ka in (k0, k1) for kb in (k0, k1)])


def loop_overrotations(pulses, noise, rng, shots):
    shape = (sum(pulse.kind == "R" for pulse in pulses), shots)
    if noise.overrotation_sigma == 0.0:
        return np.zeros(shape)
    return rng.generator.normal(0.0, noise.overrotation_sigma, size=shape)


def loop_evolve(psi, pulses, eps):
    q = psi.reshape(2, 2, -1)
    rows = iter(eps)
    for pulse in pulses:
        if pulse.kind == "G":
            q *= np.diag(G_GATE).reshape(2, 2, 1)
            continue
        v = q if pulse.target == 0 else q.swapaxes(0, 1)
        if pulse.kind == "Rz":
            v *= np.diag(rz_gate(pulse.phiz))[:, None, None]
            continue
        half = pulse.theta / 2.0 * (1.0 + next(rows))
        c, s = np.cos(half), np.sin(half)
        x0 = v[0].copy()
        v[0] = c * x0 - 1j * np.exp(-1j * pulse.phi) * s * v[1]
        v[1] = c * v[1] - 1j * np.exp(1j * pulse.phi) * s * x0
    return psi


def loop_probabilities(frame, psi, q):
    a = frame @ psi
    pure = (a.real**2 + a.imag**2).reshape(4, 4, -1).sum(axis=0)
    mixed = (frame.real**2 + frame.imag**2).reshape(4, 4, 4).sum(axis=(0, 2)) / 4.0
    p = (1.0 - q) * pure + q * mixed[:, None]
    return p / p.sum(axis=0)


def loop_run_experiment(angles, label, noise, shots, rng):
    pulses = _pulses(angles)
    frames = (_SETTING_FRAMES[:, None] @ loop_damping_kraus(noise.damping_per_circuit)).reshape(-1, 16, 4)
    psi0 = input_state(label).reshape(4, 1)
    if noise == NoiseModel():
        psi = loop_evolve(psi0, pulses, loop_overrotations(pulses, noise, None, 1))
        p = [loop_probabilities(f, psi, 0.0)[:, 0] for f in frames]
        return [tuple(rng.generator.multinomial(shots, pf).tolist()) for pf in p]
    q = 1.0 - (1.0 - noise.depolarizing_per_g) ** sum(pulse.kind == "G" for pulse in pulses)
    group = max(1, LOOP_BLOCK_SHOTS // shots)
    counts = np.zeros((len(frames), 4), dtype=np.int64)
    n_r = sum(pulse.kind == "R" for pulse in pulses)
    for first in range(0, len(frames), group):
        members = range(first, min(first + group, len(frames)))
        eps = np.empty((n_r, len(members) * shots))
        uniform = np.empty(len(members) * shots)
        for j in range(len(members)):
            cols = slice(j * shots, (j + 1) * shots)
            eps[:, cols] = loop_overrotations(pulses, noise, rng, shots)
            uniform[cols] = rng.generator.random(shots)
        for lo in range(0, len(uniform), LOOP_BLOCK_SHOTS):
            hi = min(lo + LOOP_BLOCK_SHOTS, len(uniform))
            psi = loop_evolve(np.repeat(psi0, hi - lo, axis=1), pulses, eps[:, lo:hi])
            for j, s in enumerate(members):
                a, b = max(lo, j * shots), min(hi, (j + 1) * shots)
                p = loop_probabilities(frames[s], psi[:, a - lo:b - lo], q)
                edges = np.cumsum(p, axis=0)[:-1]
                outcome = np.sum(uniform[a:b] >= edges, axis=0)
                counts[s] += np.bincount(outcome, minlength=4)
    return [tuple(c.tolist()) for c in counts]


# Every noise model of GOLDEN_COUNTS, programs of several operations on
# mixed labels, and shot counts from one to thousands.
ORACLE_NOISE = {
    "sigma-only": NoiseModel(overrotation_sigma=0.08),
    "depolarizing-only": NoiseModel(depolarizing_per_g=0.1),
    "damping-only": NoiseModel(damping_per_circuit=0.2),
    "calibrated": CALIBRATED_NOISE,
    "noiseless": NoiseModel(),
    "no-sigma": NoiseModel(depolarizing_per_g=0.05, damping_per_circuit=0.1),
}
ORACLE_SHOTS = (1, 7, 100, 455, 1000, 1500, 5000)
ORACLE_PROGRAMS = np.array([program(sample_su4(SeededRng(600 + k))) for k in range(5)])
ORACLE_LABELS = [("plus", "down"), ("up", "up"), ("minus_i", "plus"), ("down", "minus_i"), ("up", "plus")]
# The same preparations as rows of TOMOGRAPHY_INPUT_LABELS, as the kernels take them.
ORACLE_ROWS = [TOMOGRAPHY_INPUT_LABELS.index(label) for label in ORACLE_LABELS]
# Programs stacked per run_experiments call, against the shot counts: one
# program per call, or all of them in one.
WIDTH_CASES = [(1, 1), (1, 7), (100, 1), (100, 7), (100, 100), (100, 455), (100, 1000)]


def chi2_pvalue(counts, p, shots, seed, reps=2000):
    """p-value of the Pearson chi^2 of the counts (..., 4), each row drawn at
    shots, against the probabilities p (..., 4), under a seeded parametric
    bootstrap from p, which holds at any shot count. An outcome of
    probability 0 adds nothing, or infinity when it was seen."""
    p = np.asarray(p).reshape(-1, 4)
    expected = shots * p

    def statistic(x):
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(expected > 0, (x - expected) ** 2 / expected, np.where(x > 0, np.inf, 0.0))
        return terms.sum(axis=(-2, -1))

    observed = statistic(np.asarray(counts, dtype=float).reshape(-1, 4))
    null = statistic(np.random.default_rng(seed).multinomial(shots, p, size=(reps, len(p))))
    return (1 + np.sum(null >= observed)) / (reps + 1)


def assert_groupings_agree(programs, labels, noise, shots, seed, *groupings):
    """Each grouping, a list of index lists, runs the programs in one
    run_experiments call per list, every program with the same stream as in
    the other groupings. Every grouping must give each program the same
    counts, the same outcome probabilities to the bit, and leave its rng in
    the same state."""
    runs = []
    for groups in groupings:
        rngs = SeededRng(seed).spawn(len(programs))
        counts = np.empty((len(programs), 9, 4), dtype=np.int64)
        p = np.empty((len(programs), 9, 4))
        for group in groups:
            group_labels = [labels[i] for i in group]
            counts[group] = run_experiments(programs[group], group_labels, noise, shots, [rngs[i] for i in group])
            rows = [TOMOGRAPHY_INPUT_LABELS.index(tuple(label)) for label in group_labels]
            p[group] = _outcome_probabilities(programs[group], rows, noise)
        assert np.all(counts.sum(axis=-1) == shots)
        runs.append((counts.tobytes(), p.tobytes(), [rng.generator.bit_generator.state for rng in rngs]))
    assert all(run == runs[0] for run in runs)


def alone(n):
    """Each of n programs in a call of its own."""
    return [[i] for i in range(n)]


class TestRunExperiments:
    @pytest.mark.parametrize("shots", ORACLE_SHOTS)
    @pytest.mark.parametrize("name", sorted(ORACLE_NOISE))
    def test_matches_per_operation_executor(self, name, shots):
        # the per-shot executor's counts, every program and setting in one
        # Pearson chi^2, against the exact distribution run_experiments draws
        noise = ORACLE_NOISE[name]
        rngs = SeededRng(700 + shots).spawn(len(ORACLE_PROGRAMS))
        counts = [
            loop_run_experiment(angles, label, noise, shots, rng)
            for angles, label, rng in zip(ORACLE_PROGRAMS, ORACLE_LABELS, rngs)
        ]
        p = _outcome_probabilities(ORACLE_PROGRAMS, ORACLE_ROWS, noise)
        assert chi2_pvalue(counts, p, shots, seed=shots) > 1e-3

    def test_chi2_detects_a_wrong_distribution(self):
        # the statistic has the power to see the calibrated over-rotation:
        # counts drawn without it fail against the model with it
        rngs = SeededRng(705).spawn(len(ORACLE_PROGRAMS))
        counts = [
            loop_run_experiment(angles, label, ORACLE_NOISE["no-sigma"], 5000, rng)
            for angles, label, rng in zip(ORACLE_PROGRAMS, ORACLE_LABELS, rngs)
        ]
        noise = NoiseModel(overrotation_sigma=0.06, depolarizing_per_g=0.05, damping_per_circuit=0.1)
        p = _outcome_probabilities(ORACLE_PROGRAMS, ORACLE_ROWS, noise)
        assert chi2_pvalue(counts, p, 5000, seed=1) < 1e-3

    def test_counts_are_one_multinomial_draw_per_program(self):
        rngs, copies = SeededRng(5).spawn(len(ORACLE_PROGRAMS)), SeededRng(5).spawn(len(ORACLE_PROGRAMS))
        results = run_experiments(ORACLE_PROGRAMS, ORACLE_LABELS, CALIBRATED_NOISE, 100, rngs)
        p = _outcome_probabilities(ORACLE_PROGRAMS, ORACLE_ROWS, CALIBRATED_NOISE)
        for counts, pi, rng, copy in zip(results, p, rngs, copies):
            assert np.array_equal(counts, copy.generator.multinomial(100, pi))
            assert rng.generator.bit_generator.state == copy.generator.bit_generator.state

    @pytest.mark.parametrize("width,shots", WIDTH_CASES)
    def test_records_do_not_depend_on_block_width(self, width, shots):
        # calls of at most width programs in order, one call of all of them
        # in reverse order, and each program alone
        n = len(ORACLE_PROGRAMS)
        blocks = [list(range(i, min(i + width, n))) for i in range(0, n, width)]
        for noise in (CALIBRATED_NOISE, ORACLE_NOISE["no-sigma"]):
            assert_groupings_agree(
                ORACLE_PROGRAMS, ORACLE_LABELS, noise, shots, 800 + width + shots,
                blocks, [list(reversed(range(n)))], alone(n),
            )

    def test_same_program_on_every_preparation(self):
        # the process-tomo call: one program, sixteen labels and streams
        n = len(TOMOGRAPHY_INPUT_LABELS)
        assert_groupings_agree(
            ORACLE_PROGRAMS[[1] * n], TOMOGRAPHY_INPUT_LABELS, CALIBRATED_NOISE, 1000, 901,
            [list(range(n))], alone(n),
        )

    def test_one_program_call_is_run_experiment(self):
        angles, label = ORACLE_PROGRAMS[0], ORACLE_LABELS[0]
        a = run_experiment(angles, label, CALIBRATED_NOISE, 100, SeededRng(5))
        (b,) = run_experiments([angles], [label], CALIBRATED_NOISE, 100, [SeededRng(5)])
        assert np.array_equal(a, b)

    def test_no_programs(self):
        counts = run_experiments([], [], CALIBRATED_NOISE, 100, [])
        assert counts.shape == (0, 9, 4) and counts.dtype == np.int64

    @pytest.mark.parametrize("noise", [CALIBRATED_NOISE, NoiseModel()], ids=["noisy", "noiseless"])
    def test_empty_table(self, noise):
        # an empty (0, 32) table through the public call and through the
        # CLI's one-stream sampler: int64 (0, 9, 4) counts and no draw
        counts = run_experiments(np.empty((0, 32)), [], noise, 100, [])
        assert counts.shape == (0, 9, 4) and counts.dtype == np.int64
        rng = SeededRng(3)
        before = rng.generator.bit_generator.state
        counts = _sample_counts(np.empty((0, 32)), np.empty(0, dtype=int), noise, 100, rng)
        assert counts.shape == (0, 9, 4) and counts.dtype == np.int64
        assert rng.generator.bit_generator.state == before

    @pytest.mark.parametrize("noise", [CALIBRATED_NOISE, NoiseModel()], ids=["noisy", "noiseless"])
    def test_bad_label_rejected_before_any_draw(self, noise):
        rngs = SeededRng(4).spawn(2)
        before = [rng.generator.bit_generator.state for rng in rngs]
        with pytest.raises(ValueError, match="sideways"):
            run_experiments(ORACLE_PROGRAMS[:2], [("up", "up"), ("up", "sideways")], noise, 10, rngs)
        assert [rng.generator.bit_generator.state for rng in rngs] == before

    @pytest.mark.parametrize("n_labels,n_rngs", [(1, 2), (2, 1), (3, 2)])
    def test_mismatched_lengths_rejected(self, n_labels, n_rngs):
        with pytest.raises(ValueError, match="one label and one rng per program"):
            run_experiments(
                ORACLE_PROGRAMS[:2], ORACLE_LABELS[:n_labels], CALIBRATED_NOISE, 10,
                SeededRng(1).spawn(n_rngs),
            )


# sha256 of the counts of fixed runs in MEASUREMENT_SETTINGS order: int64
# counts of sampled runs, float64 probabilities of an exact one. Captured
# when the executor returned one record per setting, from those records, so
# equal digests mean the same numbers from the same streams. The exact one
# was re-captured when the letters became quaternions, which moved its
# program's angles, and its probabilities by at most 5.3e-16, and again when
# the exact pass came to carry Pauli tables, which moved them by at most
# 5.6e-16.
COUNT_SHA256 = {
    "run_experiments": "90331eef9b6fdb591d6f2a1273398a504bfa15561df34123ca8313afde4ace20",
    "run_experiment": "bd4cdc06c264c61bf3fc9679bee2024a32b2cbe316855d6a323255de879cd28d",
    "exact_experiment": "a13dbb44211af641b05aef13e47a6d0e504287a5fe86f63afbb8d895b27f4074",
}


def count_digest(tables, dtype):
    """sha256 of a stack of count tables as dtype. A table given as
    per-setting records, the form earlier versions returned, is read by
    their counts field, so the pins run against those versions too."""
    rows = [[getattr(row, "counts", row) for row in table] for table in tables]
    return hashlib.sha256(np.array(rows, dtype=dtype).tobytes()).hexdigest()


class TestCountPins:
    def test_run_experiments(self):
        counts = run_experiments(ORACLE_PROGRAMS, ORACLE_LABELS, CALIBRATED_NOISE, 100, SeededRng(5).spawn(5))
        assert count_digest(counts, np.int64) == COUNT_SHA256["run_experiments"]

    def test_run_experiment(self):
        angles = program(sample_su4(SeededRng(14)))
        counts = run_experiment(angles, ("up", "minus_i"), CALIBRATED_NOISE, 1000, SeededRng(104))
        assert count_digest([counts], np.int64) == COUNT_SHA256["run_experiment"]

    def test_exact_experiment(self):
        table = exact_experiment(program(sample_su4(SeededRng(313))), ("minus_i", "plus"))
        assert count_digest([table], np.float64) == COUNT_SHA256["exact_experiment"]


def with_entry(table, index, value):
    out = np.array(table)
    out[index] = value
    return out


# Angle tables that are not (N, 32) tables of finite angles, and rows that
# are not (32,) rows of them; the pulse lists are the GateElement views.
TABLE, ROW = ORACLE_PROGRAMS[:2], ORACLE_PROGRAMS[0]
BAD_TABLES = {
    "31 columns": TABLE[:, :31],
    "35 columns": np.hstack([TABLE, TABLE[:, :3]]),
    "3-d": TABLE[:, None],
    "ragged": [TABLE[0].tolist(), TABLE[1, :31].tolist()],
    "pulse lists": [_pulses(row) for row in TABLE],
    "nan": with_entry(TABLE, (1, 5), math.nan),
    "inf": with_entry(TABLE, (0, 31), math.inf),
    "-inf": with_entry(TABLE, (1, 0), -math.inf),
}
BAD_ROWS = {
    "31 angles": ROW[:31],
    "35 angles": np.concatenate([ROW, ROW[:3]]),
    "2-d": ROW[None],
    "3-d": ROW[None, None],
    "ragged": [*ROW[:31].tolist(), [0.0, 1.0]],
    "pulse list": _pulses(ROW),
    "nan": with_entry(ROW, 5, math.nan),
    "inf": with_entry(ROW, 31, math.inf),
    "-inf": with_entry(ROW, 0, -math.inf),
}


class TestAngleBoundary:
    """The executor takes angle rows, an (N, 32) table or one (32,) row, and
    rejects any other shape and any non-finite angle with ValueError before
    it draws anything."""

    @pytest.mark.parametrize("noise", [CALIBRATED_NOISE, NoiseModel()], ids=["noisy", "noiseless"])
    @pytest.mark.parametrize("case", sorted(BAD_TABLES))
    def test_run_experiments(self, case, noise):
        rngs = SeededRng(4).spawn(2)
        before = [rng.generator.bit_generator.state for rng in rngs]
        with pytest.raises(ValueError, match="angles"):
            run_experiments(BAD_TABLES[case], ORACLE_LABELS[:2], noise, 10, rngs)
        assert [rng.generator.bit_generator.state for rng in rngs] == before

    @pytest.mark.parametrize("case", sorted(BAD_ROWS))
    def test_one_program_functions(self, case):
        rng = SeededRng(4)
        before = rng.generator.bit_generator.state
        row = BAD_ROWS[case]
        for noise in (CALIBRATED_NOISE, NoiseModel()):
            with pytest.raises(ValueError, match="angles"):
                run_experiment(row, ("up", "up"), noise, 10, rng)
            with pytest.raises(ValueError, match="angles"):
                apply_channel(I4 / 4.0, row, noise, rng)
        with pytest.raises(ValueError, match="angles"):
            exact_experiment(row, ("up", "up"))
        assert rng.generator.bit_generator.state == before


class TestShotCount:
    """The shot count is checked once, at the public boundary, whatever the
    noise model: an int or numpy integer from 1 to 2**63 - 1, the largest
    count Generator.multinomial draws, not a bool."""

    @pytest.mark.parametrize("shots", [2.5, 3.0, True, False, "5", None, 0, -3, np.int64(0), 2**63, np.uint64(2**63)])
    @pytest.mark.parametrize("noise", [NoiseModel(), CALIBRATED_NOISE], ids=["noiseless", "noisy"])
    def test_rejected(self, noise, shots):
        with pytest.raises(ValueError, match="shots_per_setting"):
            run_experiment(program(I4), ("up", "up"), noise, shots, SeededRng(1))
        with pytest.raises(ValueError, match="shots_per_setting"):
            run_experiments([program(I4)], [("up", "up")], noise, shots, [SeededRng(1)])

    @pytest.mark.parametrize("shots", [np.int64(12), np.int32(12), np.uint8(12)])
    @pytest.mark.parametrize("noise", [NoiseModel(), CALIBRATED_NOISE], ids=["noiseless", "noisy"])
    def test_numpy_integer_stored_as_int(self, noise, shots):
        # the counts of a numpy integer are those of the int, as int64
        angles = program(sample_su4(SeededRng(3)))
        counts = run_experiment(angles, ("plus", "up"), noise, shots, SeededRng(2))
        assert np.array_equal(counts, run_experiment(angles, ("plus", "up"), noise, 12, SeededRng(2)))
        assert counts.dtype == np.int64 and np.all(counts.sum(axis=-1) == 12)

    @pytest.mark.parametrize("noise", [NoiseModel(), CALIBRATED_NOISE], ids=["noiseless", "noisy"])
    def test_largest_count(self, noise):
        shots = 2**63 - 1
        counts = run_experiments([program(I4)], [("plus", "up")], noise, shots, [SeededRng(5)])[0]
        assert all(sum(row) == shots for row in counts.tolist())


class TestExactExperiment:
    def test_probabilities_match_ideal_output(self):
        u = sample_su4(SeededRng(313))
        table = exact_experiment(program(u), ("minus_i", "plus"))
        rho = ideal_output(u, ("minus_i", "plus"))
        assert table.shape == (len(MEASUREMENT_SETTINGS), 4)
        for setting, p in zip(MEASUREMENT_SETTINGS, table):
            assert np.max(np.abs(p - setting_probabilities(rho, setting))) < 1e-9

    def test_frequencies_are_probabilities(self):
        table = exact_experiment(program(sample_su4(SeededRng(317))), ("up", "up"))
        assert table.min() >= 0.0
        assert np.max(np.abs(table.sum(axis=-1) - 1.0)) <= 1e-12


class TestOutputStates:
    """The Pauli-transfer pass behind every sampled and exact count table."""

    @pytest.mark.parametrize("target", [0, 1])
    @pytest.mark.parametrize(
        "theta,phi,sigma", [(math.pi / 2, 0.3, 0.06), (math.pi / 2, 4.0, 0.3), (2.2, 1.1, 0.15), (0.7, 5.9, 0.0)]
    )
    def test_r_pulse_is_gauss_hermite_average(self, theta, phi, sigma, target):
        # the R transfer block, with no Rz after it, on the sixteen
        # preparations, which span the operator space and so fix the
        # channel, against the Gaussian average of the over-rotated r_gate
        # conjugation by 60-point Gauss-Hermite quadrature
        block = _pulse_blocks(theta, np.array(phi), np.array(0.0), sigma)
        tables = _PREPARED_TABLES.transpose(1, 2, 0).copy()
        x = tables if target == 0 else tables.swapaxes(0, 1)
        x[1:] = np.einsum("ij,jkm->ikm", block, x[1:])
        nodes, weights = np.polynomial.hermite.hermgauss(60)
        gates = [embed(r_gate(theta * (1.0 + sigma * math.sqrt(2.0) * x), phi), target) for x in nodes]
        for rho, rho_out in zip(_PREPARED_STATES, density(tables)):
            ref = sum(w * g @ rho @ g.conj().T for w, g in zip(weights, gates)) / math.sqrt(math.pi)
            assert np.max(np.abs(rho_out - ref)) < 1e-12

    def test_steps_spell_the_template(self):
        # each slot of the pass is R, Rz, R, Rz on its target, four angles
        pulses = [(("R", t), ("Rz", t)) * 2 if t is not None else (("G", None),) for t in _STEPS]
        assert tuple(p for slot in pulses for p in slot) == _TEMPLATE

    def test_noiseless_probabilities_match_state_vector_evolution(self):
        frames = (_SETTING_FRAMES[:, None] @ loop_damping_kraus(0.0)).reshape(-1, 16, 4)
        for angles in ORACLE_PROGRAMS:
            pulses = _pulses(angles)
            n_r = sum(pulse.kind == "R" for pulse in pulses)
            for label in TOMOGRAPHY_INPUT_LABELS:
                psi = loop_evolve(input_state(label).reshape(4, 1), pulses, np.zeros((n_r, 1)))
                expected = [loop_probabilities(f, psi, 0.0)[:, 0] for f in frames]
                got = exact_experiment(angles, label)
                assert np.max(np.abs(np.array(got) - expected)) < 1e-14

    @pytest.mark.parametrize("name", ["depolarizing-only", "damping-only", "no-sigma", "noiseless"])
    def test_without_overrotation_is_apply_channel(self, name):
        # with nothing to average, the pass is the channel apply_channel
        # applies, the depolarizing mix and the damping included
        noise = ORACLE_NOISE[name]
        for k, angles in enumerate(ORACLE_PROGRAMS[:2]):
            labels = TOMOGRAPHY_INPUT_LABELS
            out = density(_output_tables(ORACLE_PROGRAMS[[k] * len(labels)], np.arange(len(labels)), noise))
            for label, rho_out in zip(labels, out):
                ref = apply_channel(ideal_output(I4, label), angles, noise)
                assert np.max(np.abs(rho_out - ref)) < 1e-12

    def test_overrotation_is_mean_of_apply_channel(self):
        # the averaged state against the mean of independent realizations,
        # within five standard errors entry by entry
        noise = NoiseModel(overrotation_sigma=0.2, depolarizing_per_g=0.05, damping_per_circuit=0.1)
        angles, label = ORACLE_PROGRAMS[2], ORACLE_LABELS[2]
        rng = SeededRng(811)
        draws = np.array([apply_channel(ideal_output(I4, label), angles, noise, rng) for _ in range(1500)])
        (rho_out,) = density(_output_tables(angles[None], ORACLE_ROWS[2:3], noise))
        err = draws.std(axis=0) / math.sqrt(len(draws)) + 1e-15
        assert np.max(np.abs(draws.mean(axis=0) - rho_out) / err) < 5.0

    @pytest.mark.parametrize("n", [1, 16, 160])
    def test_outcome_probabilities_match_one_product(self, n):
        # the four-term sums of the Born rule against the one product of
        # each Pauli table with the whole sign table, clipped and normalized
        # alike
        g = np.random.default_rng(n)
        angles = g.uniform(0.0, 2.0 * math.pi, size=(n, 32))
        prepared = g.integers(0, 16, size=n)
        for noise in (CALIBRATED_NOISE, NoiseModel()):
            tables = _output_tables(angles, prepared, noise).reshape(16, -1).T
            p = np.clip((tables @ _SIGNS.T / 4.0).reshape(-1, 9, 4), 0.0, None)
            want = p / p.sum(axis=-1, keepdims=True)
            assert np.max(np.abs(_outcome_probabilities(angles, prepared, noise) - want)) < 1e-15

    def test_r_channels_match_one_stack(self):
        # the blocks of a stack of pulses are, bit for bit, those of each
        # pulse alone, and each is the turn Z(z) after the pulse's R block
        g = np.random.default_rng(5)
        phi, z = g.uniform(0.0, 7.0, size=(2, 40, 16))
        phi[0, :4], z[0, :4] = [0.0, -0.0, math.pi, 0.0], [0.0, math.pi / 2, -0.0, math.pi]
        for sigma in (0.0, 0.06, 0.3):
            got = _pulse_blocks(math.pi / 2, phi, z, sigma)
            for k in range(40):
                for j in range(16):
                    one = _pulse_blocks(math.pi / 2, phi[k, j], z[k, j], sigma)
                    assert got[:, :, k, j].tobytes() == one.tobytes()
            turns = np.zeros((40, 16, 3, 3))
            turns[..., 0, 0], turns[..., 0, 1], turns[..., 1, 0] = np.cos(z), -np.sin(z), np.sin(z)
            turns[..., 1, 1], turns[..., 2, 2] = np.cos(z), 1.0
            r = _pulse_blocks(math.pi / 2, phi, np.zeros_like(z), sigma).transpose(2, 3, 0, 1)
            assert np.max(np.abs(turns @ r - got.transpose(2, 3, 0, 1))) < 1e-15

    def test_output_states_are_physical(self):
        states = density(_output_tables(ORACLE_PROGRAMS, ORACLE_ROWS, NoiseModel(0.3, 0.2, 0.3)))
        for rho in states:
            assert abs(np.trace(rho).real - 1.0) < 1e-12
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
            assert np.linalg.eigvalsh(rho)[0] > -1e-12


# The complex density-matrix pass of tests/oracles.py against the transfer
# pass: every preparation of the oracle programs and random angle tables,
# under no noise, the calibrated profile, a strong mix of all three terms
# and each term at its largest.
REFERENCE_NOISE = {
    "zero": NoiseModel(),
    "calibrated": CALIBRATED_NOISE,
    "strong": NoiseModel(0.3, 0.2, 0.3),
    "sigma-1": NoiseModel(overrotation_sigma=1.0),
    "depolarizing-1": NoiseModel(depolarizing_per_g=1.0),
    "damping-1": NoiseModel(damping_per_circuit=1.0),
}


class TestTransferPassMatchesReference:
    @pytest.mark.parametrize("name", sorted(REFERENCE_NOISE))
    def test_oracle_programs_on_every_preparation(self, name):
        noise = REFERENCE_NOISE[name]
        n, m = len(ORACLE_PROGRAMS), len(TOMOGRAPHY_INPUT_LABELS)
        angles, prepared = np.repeat(ORACLE_PROGRAMS, m, axis=0), np.tile(np.arange(m), n)
        got = _outcome_probabilities(angles, prepared, noise)
        assert np.max(np.abs(got - reference_probabilities(angles, prepared, noise))) < 1e-14
        states = density(_output_tables(angles, prepared, noise))
        assert np.max(np.abs(states - reference_output_states(angles, prepared, noise))) < 1e-14

    @pytest.mark.parametrize("n", [1, 16, 160])
    @pytest.mark.parametrize("name", sorted(REFERENCE_NOISE))
    def test_random_tables(self, name, n):
        g = np.random.default_rng(900 + n)
        angles = g.uniform(-2.0 * math.pi, 4.0 * math.pi, size=(n, 32))
        prepared = g.integers(0, 16, size=n)
        noise = REFERENCE_NOISE[name]
        got = _outcome_probabilities(angles, prepared, noise)
        assert np.max(np.abs(got - reference_probabilities(angles, prepared, noise))) < 1e-14

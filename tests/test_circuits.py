"""Circuit parameterization and pulse-level lowering."""

import math

import numpy as np
import pytest
from oracles import (
    HADAMARD,
    PAULI_Z,
    SLOT_ROOTS,
    canonical_v,
    compose_pulses,
    gate_matrix,
    quaternion,
    r_pulse_triple,
    slot_matrices,
    su2,
)
from test_compile_corpus import NAMED, _dress, corpus

from su4c import DEFAULT_TOL
from su4c.circuits import (
    _SLOT_MAPS,
    _left,
    _pulses,
    _quaternions,
    _right,
    _slot_quaternions,
    PULSE_COUNT,
    CircuitParams,
    LocalGate,
    circuit_to_unitary,
    lower_to_pulses,
    pulse_angles,
)
from su4c.cli import _compile
from su4c.compiler import _decompose_arrays, decompose
from su4c.gates import _ENTRY_FRAME, G_GATE, ClassParams, r_gate, rz_gate
from su4c.haar import SeededRng, _sample_su4_many, sample_su4
from su4c.linalg import phase_invariant_distance

I2 = np.eye(2, dtype=complex)


def random_su2(rng):
    g = rng.generator.standard_normal((2, 2)) + 1j * rng.generator.standard_normal((2, 2))
    q, r = np.linalg.qr(g)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return q / np.sqrt(np.linalg.det(q))


class TestLocalGate:
    def test_matrix_composition(self):
        g = LocalGate(theta=0.6, phi=1.2, phiz=2.5, sign=-1)
        expected = -1.0 * rz_gate(2.5) @ r_gate(0.6, 1.2)
        assert np.max(np.abs(g.matrix() - expected)) < 1e-15

    def test_sign_validation(self):
        with pytest.raises(ValueError):
            LocalGate(theta=0.1, phi=0.0, phiz=0.0, sign=2)

    def test_frozen(self):
        g = LocalGate(theta=0.1, phi=0.2, phiz=0.3)
        with pytest.raises(Exception):
            g.theta = 1.0


class TestCircuitToUnitary:
    def test_structural_contract(self):
        cp = ClassParams(0.4, 1.9, 5.5)
        a = LocalGate(0.1, 0.2, 0.3)
        b = LocalGate(1.1, 1.2, 1.3, sign=-1)
        c = LocalGate(2.1, 2.2, 2.3)
        d = LocalGate(3.1, 3.2, 3.3)
        params = CircuitParams(cp, a, b, c, d, global_phase=-1j)
        manual = -1j * np.kron(c.matrix(), d.matrix()) @ canonical_v(cp) @ np.kron(a.matrix(), b.matrix())
        assert np.max(np.abs(circuit_to_unitary(params) - manual)) < 1e-14

    def test_global_phase_scales_linearly(self):
        params = decompose(sample_su4(SeededRng(5)))
        doubled = CircuitParams(
            params.class_params, params.a, params.b, params.c, params.d,
            global_phase=2.0 * params.global_phase,
        )
        assert np.allclose(
            circuit_to_unitary(doubled), 2.0 * circuit_to_unitary(params), atol=1e-12
        )


class TestRPulseTriple:
    @staticmethod
    def compose2(seq):
        m = I2
        for elem in seq:
            m = gate_matrix(elem) @ m
        return m

    def test_known_angle_pair(self):
        seq = r_pulse_triple(0.7, 2.0)
        assert np.max(np.abs(self.compose2(seq) - r_gate(0.7, 2.0))) < 1e-12

    def test_zero_angle_collapses_to_identity(self):
        seq = r_pulse_triple(0.0, 1.3)
        assert np.max(np.abs(self.compose2(seq) - I2)) < 1e-12

    def test_shape_of_output(self):
        seq = r_pulse_triple(1.0, 0.5)
        assert [e.kind for e in seq] == ["R", "Rz", "R"]
        assert all(e.target == 0 for e in seq)
        assert seq[0].theta == math.pi / 2.0
        assert seq[2].theta == math.pi / 2.0

    def test_random_angles(self):
        rng = SeededRng(89)
        for _ in range(1000):
            theta, phi = rng.generator.uniform(0.0, 2.0 * math.pi, size=2)
            seq = r_pulse_triple(theta, phi)
            assert np.max(np.abs(self.compose2(seq) - r_gate(theta, phi))) < 1e-10


class TestLowerToPulses:
    def test_fixed_budget(self):
        params = decompose(sample_su4(SeededRng(97)))
        seq = lower_to_pulses(params)
        assert len(seq) == PULSE_COUNT
        kinds = [e.kind for e in seq]
        assert kinds.count("R") == 16
        assert kinds.count("Rz") == 16
        assert kinds.count("G") == 3

    @pytest.mark.parametrize(
        "u",
        [
            np.eye(4, dtype=complex),
            G_GATE,
            np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex),  # controlled phase
        ],
        ids=["identity", "entangler", "cz"],
    )
    def test_degenerate_inputs_same_budget(self, u):
        # the program shape never depends on the target
        seq = lower_to_pulses(decompose(u))
        assert len(seq) == PULSE_COUNT
        assert [e.kind for e in seq].count("G") == 3

    def test_every_r_is_calibrated(self):
        rng = SeededRng(101)
        for _ in range(50):
            seq = lower_to_pulses(decompose(sample_su4(rng)))
            for elem in seq:
                if elem.kind == "R":
                    assert elem.theta == math.pi / 2.0  # exact, not approx
                if elem.kind in ("R", "Rz"):
                    assert elem.target in (0, 1)

    def test_composition_matches_circuit(self):
        rng = SeededRng(103)
        for _ in range(1000):
            params = decompose(sample_su4(rng))
            target = circuit_to_unitary(params)
            composed = compose_pulses(lower_to_pulses(params))
            assert phase_invariant_distance(composed, target) < 1e-9

    def test_composition_matches_local_products(self):
        # dressed products kron(a, b) exercise the angle-snap branches
        rng = SeededRng(107)
        for _ in range(100):
            u = np.kron(random_su2(rng), random_su2(rng))
            params = decompose(u)
            composed = compose_pulses(lower_to_pulses(params))
            assert phase_invariant_distance(composed, u) < 1e-9


class TestSlotRoots:
    """Each slot pulse_angles reads is the unit quaternion of the slot's 2x2
    matrix product (tests/oracles.py slot_matrices) divided by its constant
    root: H or Z enters slots 1, 3, 4 and 7 once and every other factor has
    determinant 1, whatever the class and the letters."""

    @staticmethod
    def assert_slots_are_the_products(classes, letters):
        got = su2(_slot_quaternions(classes, letters)) * SLOT_ROOTS[:, None, None]
        assert np.abs(got - slot_matrices(classes, letters)).max() < 1e-14

    def test_haar_letters(self):
        rng = SeededRng(83)
        us = np.array([sample_su4(rng) for _ in range(200)])
        self.assert_slots_are_the_products(*_decompose_arrays(us)[:2])

    def test_dressed_named_classes(self):
        gen = np.random.default_rng(83)
        us = np.array([_dress(gen, u, perturb=k % 2 == 1) for k in range(8) for u in NAMED])
        self.assert_slots_are_the_products(*_decompose_arrays(us)[:2])

    @pytest.mark.parametrize("theta", [0.0, math.pi])
    def test_letters_at_the_branch_points(self, theta):
        gen = np.random.default_rng(84)
        letters = np.empty((64, 4, 4))
        letters[..., 0] = theta
        letters[..., 1:3] = gen.uniform(0.0, math.tau, (64, 4, 2))
        letters[..., 3] = gen.choice([-1.0, 1.0], (64, 4))
        quaternions = _quaternions(letters.reshape(-1, 4)).reshape(64, 4, 4)
        self.assert_slots_are_the_products(gen.uniform(0.0, math.tau, (64, 3)), quaternions)

    def test_slot_constants(self):
        # each constant map, on random unit quaternions q, against the 2x2
        # product it stands for, with H and Z divided by i
        rz_p, rz_m = rz_gate(math.pi / 2.0), rz_gate(-math.pi / 2.0)
        half_y = r_gate(math.pi / 2.0, math.pi / 2.0)
        products = [
            lambda m: rz_m @ m,
            lambda m: HADAMARD @ rz_m @ _ENTRY_FRAME @ m / 1j,
            lambda m: m @ rz_p,
            lambda m: HADAMARD @ rz_p @ m / 1j,
            lambda m: m @ rz_p @ PAULI_Z / 1j,
            lambda m: HADAMARD @ m @ PAULI_Z,
            lambda m: m @ rz_p,
            lambda m: m @ half_y @ HADAMARD @ rz_p / 1j,
        ]
        q = np.random.default_rng(85).standard_normal((50, 4))
        q /= np.linalg.norm(q, axis=1)[:, None]
        for s, product in enumerate(products):
            for row in q:
                assert np.abs(su2(_SLOT_MAPS[s] @ row) - product(su2(row))).max() < 1e-15, s


class TestQuaternions:
    def test_hamilton_products_are_matrix_products(self):
        p, q = np.random.default_rng(86).standard_normal((2, 200, 4))
        for a, b in zip(p, q):
            assert np.abs(su2(_left(a) @ b) - su2(a) @ su2(b)).max() < 1e-14
            assert np.abs(su2(_right(a) @ b) - su2(b) @ su2(a)).max() < 1e-14

    def test_letters_in_closed_form(self):
        gen = np.random.default_rng(87)
        letters = np.column_stack([
            gen.uniform(0.0, math.pi, 500), gen.uniform(0.0, math.tau, (500, 2)), gen.choice([-1.0, 1.0], 500)
        ])
        for row, q in zip(letters, _quaternions(letters)):
            want = LocalGate(*row[:3], int(row[3])).matrix()
            assert np.abs(su2(q) - want).max() < 1e-15
            assert np.abs(q - quaternion(want)).max() < 1e-15


def test_programs_compose_to_their_inputs():
    # every program benchmark and process-tomo run (_compile), and the
    # object path's, multiplied out by the tests' own gate matrices
    for us in (np.array(corpus()), _sample_su4_many(SeededRng(0), 160)):
        for angles in (_compile(us), pulse_angles([decompose(u) for u in us])):
            for u, row in zip(us, angles):
                distance = phase_invariant_distance(compose_pulses(_pulses(row)), u)
                assert distance < DEFAULT_TOL.verify_distance


class TestComposePulses:
    def test_empty_is_identity(self):
        assert np.array_equal(compose_pulses([]), np.eye(4, dtype=complex))

    def test_application_order(self):
        # Rz after R differs from R after Rz; compose follows list order
        from su4c.gates import GateElement

        seq = [
            GateElement("R", theta=0.7, phi=0.0, target=0),
            GateElement("Rz", phiz=1.1, target=0),
        ]
        expected = np.kron(rz_gate(1.1) @ r_gate(0.7, 0.0), I2)
        assert np.max(np.abs(compose_pulses(seq) - expected)) < 1e-14

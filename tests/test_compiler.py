"""Decomposition pipeline: invariants, class extraction, full compile,
verification. Pinned rows from external tables live in reference_data."""

import math

import numpy as np
import pytest

from oracles import canonical_v
from reference_data import ONE_ROW_PER_MATRIX, PINNED_ROWS, row_to_params
from su4c.circuits import CircuitParams, circuit_to_unitary
from su4c.compiler import (
    _class_angles,
    RealityViolationError,
    VerificationReport,
    class_parameters,
    decompose,
    local_invariants,
    verify,
)
from su4c.gates import G_GATE
from su4c.haar import SeededRng, sample_su4
from su4c.linalg import NotUnitaryError, nearest_unitary, phase_invariant_distance

I4 = np.eye(4, dtype=complex)
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)
CZ = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)


def random_su2(rng):
    g = rng.generator.standard_normal((2, 2)) + 1j * rng.generator.standard_normal((2, 2))
    q, r = np.linalg.qr(g)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return q / np.sqrt(np.linalg.det(q))


def wrap_gap(a, b):
    """Distance between angle arrays modulo 2 pi, after sorting each."""
    a = np.sort(np.angle(np.exp(1j * np.asarray(a))))
    b = np.sort(np.angle(np.exp(1j * np.asarray(b))))
    return float(np.max(np.abs(np.angle(np.exp(1j * (a - b))))))


class TestLocalInvariants:
    def test_identity(self):
        assert np.allclose(local_invariants(I4), 0.0, atol=1e-12)

    def test_entangling_gate(self):
        # det G = -1; after projection onto the special group the invariant
        # phases land at plus and minus a quarter turn, doubly each
        inv = local_invariants(G_GATE)
        expected = [-math.pi / 2.0, -math.pi / 2.0, math.pi / 2.0, math.pi / 2.0]
        assert np.allclose(inv, expected, atol=1e-9)

    def test_sorted_in_branch(self):
        rng = SeededRng(109)
        for _ in range(100):
            inv = local_invariants(sample_su4(rng))
            assert np.all(np.diff(inv) >= -1e-15)
            assert np.all(inv > -math.pi) and np.all(inv <= math.pi + 1e-15)

    def test_invariant_under_local_dressing(self):
        rng = SeededRng(113)
        for _ in range(100):
            u = sample_su4(rng)
            dressed = (
                np.kron(random_su2(rng), random_su2(rng))
                @ u
                @ np.kron(random_su2(rng), random_su2(rng))
            )
            assert wrap_gap(local_invariants(u), local_invariants(dressed)) < 1e-8

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitaryError):
            local_invariants(np.ones((4, 4)))


class TestClassParameters:
    def test_identity(self):
        cp = class_parameters(I4)
        assert np.allclose([cp.alpha, cp.beta, cp.delta], 0.0, atol=1e-9)

    def test_angle_ranges(self):
        rng = SeededRng(127)
        for _ in range(200):
            cp = class_parameters(sample_su4(rng))
            for angle in (cp.alpha, cp.beta, cp.delta):
                assert 0.0 <= angle < 2.0 * math.pi + 1e-12

    def test_pairing_reproduces_invariants(self):
        # the three angles are half-sums of invariant pairs; their synthetic
        # eigenphases must give back the measured phases modulo a full turn
        rng = SeededRng(131)
        for _ in range(200):
            u = sample_su4(rng)
            inv = local_invariants(u)
            cp = class_parameters(u)
            assert wrap_gap(cp.eigenphases(), inv) < 1e-8

    def test_stacked_pair_means_match_the_scalar_form(self):
        # _class_angles on a stack against the three pair means per row, in
        # Python floats, with sums that round to just below 0
        g = np.random.default_rng(132)
        s = np.sort(g.uniform(-math.pi, math.pi, (500, 4)), axis=1)
        s[0] = [-1e-16, 0.0, 1e-16, 1.0]
        for row, got in zip(s.tolist(), _class_angles(s).tolist()):
            pairs = ((0, 1), (0, 2), (1, 2))
            assert got == [0.5 * (row[i] + row[j]) % math.tau for i, j in pairs]

    def test_entangling_gate_class(self):
        cp = class_parameters(G_GATE)
        assert wrap_gap(cp.eigenphases(), local_invariants(G_GATE)) < 1e-9

    def test_representative_sits_in_same_class(self):
        rng = SeededRng(137)
        for _ in range(200):
            u = sample_su4(rng)
            inv_u = local_invariants(u)
            inv_v = local_invariants(canonical_v(class_parameters(u)))
            # the representative may sit on the other determinant sheet,
            # which shifts every phase by a half turn
            gaps = []
            for shift in (0.0, math.pi):
                gaps.append(wrap_gap(inv_u, np.asarray(inv_v) + shift))
            assert min(gaps) < 1e-8


class TestDecompose:
    @pytest.mark.parametrize(
        "u",
        [I4, G_GATE, SWAP, CZ],
        ids=["identity", "entangler", "swap", "cz"],
    )
    def test_named_gates_round_trip(self, u):
        params = decompose(u)
        assert np.max(np.abs(circuit_to_unitary(params) - u)) < 1e-9

    def test_local_product_round_trip(self):
        rng = SeededRng(139)
        for _ in range(50):
            u = np.kron(random_su2(rng), random_su2(rng))
            params = decompose(u)
            assert np.max(np.abs(circuit_to_unitary(params) - u)) < 1e-9

    def test_haar_round_trip(self):
        rng = SeededRng(149)
        worst = 0.0
        for _ in range(200):
            u = sample_su4(rng)
            params = decompose(u)
            worst = max(worst, float(np.max(np.abs(circuit_to_unitary(params) - u))))
        assert worst < 1e-9

    def test_deterministic(self):
        u = sample_su4(SeededRng(151))
        p1 = decompose(u)
        p2 = decompose(u)
        assert p1 == p2  # frozen dataclasses compare by field

    def test_global_phase_is_quarter_root_for_special_inputs(self):
        rng = SeededRng(157)
        roots = np.array([1.0, 1j, -1.0, -1j])
        for _ in range(100):
            params = decompose(sample_su4(rng))
            assert np.min(np.abs(params.global_phase - roots)) < 1e-9

    def test_scaled_phase_absorbed(self):
        u = np.exp(0.37j) * sample_su4(SeededRng(163))
        params = decompose(u)
        assert np.max(np.abs(circuit_to_unitary(params) - u)) < 1e-9

    def test_branch_cut_phases_round_trip_to_rounding(self):
        # iSWAP has two invariants on the +-pi cut: the class angles must
        # come from the spectrum the frames come from, or a phase folded to
        # the other side of the cut leaves the circuit off by about 2e-8
        iswap = np.array(
            [[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]], dtype=complex
        )
        for m in range(16):
            u = np.exp(0.125j * math.pi * m) * iswap
            assert verify(u, decompose(u)).distance < 1e-13, m

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitaryError):
            decompose(np.ones((4, 4)))

    def test_reality_error_is_value_error(self):
        assert issubclass(RealityViolationError, ValueError)


class TestVerify:
    def test_accepts_own_output(self):
        u = sample_su4(SeededRng(167))
        report = verify(u, decompose(u))
        assert isinstance(report, VerificationReport)
        assert report.passed
        assert report.distance < 1e-9
        assert report.invariant_error < 1e-8

    def test_rejects_unrelated_target(self):
        rng = SeededRng(173)
        params = decompose(sample_su4(rng))
        report = verify(sample_su4(rng), params)
        assert not report.passed
        assert report.distance > 0.1

    def test_distance_gates_the_outcome(self):
        u = sample_su4(SeededRng(179))
        params = decompose(u)
        assert not verify(u, params, max_distance=1e-300).passed


class TestPinnedRows:
    """Six externally tabulated parameter sets, quoted to 3 decimals."""

    @pytest.mark.parametrize("idx", range(len(PINNED_ROWS)))
    def test_row_composes_to_matrix(self, idx):
        row = PINNED_ROWS[idx]
        rebuilt = circuit_to_unitary(row_to_params(row))
        assert np.max(np.abs(rebuilt - row[0])) < 5e-3

    @pytest.mark.parametrize("idx", range(len(PINNED_ROWS)))
    def test_row_verifies(self, idx):
        row = PINNED_ROWS[idx]
        report = verify(row[0], row_to_params(row), max_distance=5e-3)
        assert report.passed
        assert report.invariant_error < 5e-3

    def test_same_matrix_two_programs(self):
        # rows 0 and 1 parameterize the same target differently
        assert PINNED_ROWS[0][0] is PINNED_ROWS[1][0]
        u0 = circuit_to_unitary(row_to_params(PINNED_ROWS[0]))
        u1 = circuit_to_unitary(row_to_params(PINNED_ROWS[1]))
        assert np.max(np.abs(u0 - u1)) < 5e-3

    @pytest.mark.parametrize("idx", range(len(ONE_ROW_PER_MATRIX)))
    def test_projected_matrix_round_trips(self, idx):
        m = nearest_unitary(ONE_ROW_PER_MATRIX[idx][0])
        params = decompose(m)
        assert phase_invariant_distance(circuit_to_unitary(params), m) < 1e-9

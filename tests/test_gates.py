"""Gate matrices, the Bell-like change of frame, and class representatives."""

import math

import numpy as np
import pytest

from oracles import PAULI_X, canonical_v, embed, factor_tensor_products, gate_matrix, su2
from su4c.gates import (
    _MAGIC,
    _canonical_phase,
    _class_spectrum,
    _from_magic,
    _magic_factors,
    _to_magic,
    G_GATE,
    ClassParams,
    GateElement,
    r_gate,
    rz_gate,
)
from su4c.haar import SeededRng, sample_su4
from su4c.linalg import NotAProductError, is_unitary

I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)


def class_phases(u):
    """The class spectrum's phases of one det-1 unitary."""
    return _class_spectrum(_to_magic(np.asarray(u, dtype=complex)[None]))[0][0]


def random_su2(rng):
    g = rng.generator.standard_normal((2, 2)) + 1j * rng.generator.standard_normal((2, 2))
    q, r = np.linalg.qr(g)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return q / np.sqrt(np.linalg.det(q))


class TestElementaryGates:
    def test_r_gate_matrix(self):
        theta, phi = 0.9, 2.3
        c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
        expected = np.array(
            [
                [c, -1j * np.exp(-1j * phi) * s],
                [-1j * np.exp(1j * phi) * s, c],
            ]
        )
        assert np.max(np.abs(r_gate(theta, phi) - expected)) < 1e-15

    def test_r_gate_pi_pulse_is_pauli_x(self):
        assert np.allclose(r_gate(math.pi, 0.0), -1j * PAULI_X, atol=1e-12)

    def test_r_gate_zero_is_identity(self):
        assert np.allclose(r_gate(0.0, 1.234), I2, atol=1e-15)

    def test_rz_gate_matrix(self):
        phiz = 0.8
        expected = np.diag([np.exp(-1j * phiz / 2.0), np.exp(1j * phiz / 2.0)])
        assert np.max(np.abs(rz_gate(phiz) - expected)) < 1e-15

    def test_entangling_gate_matrix(self):
        assert np.array_equal(G_GATE, np.diag([1.0, -1j, -1j, 1.0]))
        assert np.linalg.det(G_GATE) == pytest.approx(-1.0)

    def test_determinants(self):
        assert np.linalg.det(r_gate(1.1, 0.3)) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.det(rz_gate(2.7)) == pytest.approx(1.0, abs=1e-12)

    def test_random_angles_stay_unitary(self):
        rng = SeededRng(61)
        for _ in range(1000):
            theta, phi = rng.generator.uniform(0.0, 2.0 * math.pi, size=2)
            assert is_unitary(r_gate(theta, phi), atol=1e-12)
            assert is_unitary(rz_gate(phi), atol=1e-12)


class TestGateElement:
    def test_matrix_dispatch(self):
        # 2x2 for the single-qubit kinds; embed() handles the placement
        elem = GateElement("R", theta=0.5, phi=1.0, target=0)
        assert np.allclose(gate_matrix(elem), r_gate(0.5, 1.0), atol=1e-14)
        assert np.allclose(embed(gate_matrix(elem), 0), np.kron(r_gate(0.5, 1.0), I2), atol=1e-14)
        elem = GateElement("Rz", phiz=0.4, target=1)
        assert np.allclose(gate_matrix(elem), rz_gate(0.4), atol=1e-14)
        assert np.array_equal(gate_matrix(GateElement("G")), G_GATE)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            GateElement("CZ")

    def test_entangling_gate_takes_no_target(self):
        with pytest.raises(ValueError):
            GateElement("G", target=0)

    @pytest.mark.parametrize("target", [None, 2, -1])
    def test_single_qubit_needs_valid_target(self, target):
        with pytest.raises(ValueError):
            GateElement("R", theta=0.1, target=target)

    def test_embed(self):
        m = r_gate(0.3, 0.9)
        assert np.allclose(embed(m, 0), np.kron(m, I2), atol=1e-15)
        assert np.allclose(embed(m, 1), np.kron(I2, m), atol=1e-15)


class TestMagicFrame:
    def test_frame_is_unitary(self):
        assert is_unitary(_MAGIC, atol=1e-12)

    def test_identity_fixed(self):
        assert np.allclose(_to_magic(I4), I4, atol=1e-14)

    def test_entangling_gate_is_diagonal_in_frame(self):
        assert np.allclose(_to_magic(G_GATE), np.diag([1.0, 1.0, -1j, -1j]), atol=1e-12)

    def test_round_trip(self):
        u = sample_su4(SeededRng(67))
        assert np.max(np.abs(_from_magic(_to_magic(u)) - u)) < 1e-12

    def test_local_products_become_real(self):
        # the defining property of the frame: det-1 tensor products map to
        # real orthogonal matrices
        rng = SeededRng(71)
        for _ in range(1000):
            m = _to_magic(np.kron(random_su2(rng), random_su2(rng)))
            assert np.max(np.abs(m.imag)) < 1e-9
            assert np.allclose(m @ m.T, I4, atol=1e-9)


class TestMagicFactors:
    """_magic_factors reads the quaternions of a magic-frame rotation from
    its associate matrix; the block factoring of tests/oracles.py is the
    reference for its sign convention."""

    @staticmethod
    def products(rng, n):
        pairs = [(random_su2(rng), random_su2(rng)) for _ in range(n)]
        # the axes and Clifford corners, where entries of the letters vanish
        # or tie in modulus
        corners = [I2, -1j * PAULI_X, r_gate(math.pi / 2.0, 0.3), rz_gate(math.pi / 2.0), rz_gate(-math.pi)]
        pairs += [(a, b) for a in corners for b in corners]
        return np.array([np.kron(a, b) for a, b in pairs])

    def test_rebuilds_the_product(self):
        m = self.products(SeededRng(73), 2000)
        a, b = _magic_factors(_to_magic(m).real)
        assert np.abs((a * a).sum(axis=1) - 1.0).max() < 1e-14
        rebuilt = np.array([np.kron(x, y) for x, y in zip(su2(a), su2(b))])
        assert np.abs(rebuilt - m).max() < 1e-14

    def test_signs_follow_the_block_factoring(self):
        # the block factoring of _from_magic(O), as the compiler ran it
        # before: on the Haar pairs its aligning phase comes out 1, so its
        # factors are the letters themselves, with the sign _magic_factors
        # picks; a corner whose largest letter entry is imaginary sits on
        # the branch cut of the oracle's square roots, which then moves a
        # sign into its phase
        o = _to_magic(self.products(SeededRng(79), 2000)).real
        a, b = _magic_factors(o)
        fa, fb, phases = factor_tensor_products(_from_magic(o))
        aligned = np.abs(phases - 1.0) < 1e-14
        assert aligned[:2000].all() and aligned.sum() > 2000
        assert np.abs(su2(a) - fa)[aligned].max() < 1e-14
        assert np.abs(su2(b) - fb)[aligned].max() < 1e-14

    def test_rejects_an_improper_rotation(self):
        # det -1: the magic image of SWAP, and a product with one axis flipped
        swap = np.eye(4)[[0, 2, 1, 3]]
        flipped = _to_magic(np.kron(random_su2(SeededRng(83)), random_su2(SeededRng(89)))).real
        flipped[:, 0] = -flipped[:, 0]
        for o in (_to_magic(swap).real, flipped):
            assert np.linalg.det(o) == pytest.approx(-1.0)
            with pytest.raises(NotAProductError, match="residual"):
                _magic_factors(o[None])


class TestClassParams:
    def test_eigenphase_formula(self):
        cp = ClassParams(alpha=1.1, beta=2.2, delta=0.4)
        expected = [1.1 + 2.2 - 0.4, 1.1 - 2.2 + 0.4, -1.1 + 2.2 + 0.4, -1.1 - 2.2 - 0.4]
        assert np.allclose(cp.eigenphases(), expected, atol=1e-15)

    def test_eigenphases_sum_to_zero(self):
        rng = SeededRng(73)
        for _ in range(100):
            a, b, d = rng.generator.uniform(0.0, 2.0 * math.pi, size=3)
            assert abs(ClassParams(a, b, d).eigenphases().sum()) < 1e-12


class TestCanonicalV:
    def test_special_unitary(self):
        rng = SeededRng(79)
        for _ in range(200):
            a, b, d = rng.generator.uniform(0.0, 2.0 * math.pi, size=3)
            v = canonical_v(ClassParams(a, b, d))
            assert is_unitary(v, atol=1e-10)
            assert abs(np.linalg.det(v) - 1.0) < 1e-10

    def test_quarter_turns_follow_the_scalar_rule(self):
        # the stacked i^m against the rule written per row, on random angles
        # and on the grid of eighth turns where alpha >= pi and the rounding
        # of the sum switch
        g = np.random.default_rng(80)
        grid = np.array([[a, b, d] for a in range(8) for b in range(8) for d in range(8)]) * math.pi / 4.0
        angles = np.concatenate([grid, g.uniform(0.0, 2.0 * math.pi, (512, 3))])
        for (alpha, beta, delta), got in zip(angles.tolist(), _canonical_phase(angles).tolist()):
            m = 2 * (alpha >= math.pi) + 3 * math.floor((alpha + beta + delta) / math.pi + 0.5)
            assert got == 1j ** (m % 4)

    def test_deterministic(self):
        cp = ClassParams(0.3, 1.7, 5.1)
        assert np.array_equal(canonical_v(cp), canonical_v(cp))

    def test_spectrum_of_half_turn_class(self):
        v = canonical_v(ClassParams(0.0, math.pi / 2.0, math.pi / 2.0))
        assert np.allclose(np.sort(class_phases(v)), [0.0, 0.0, math.pi, math.pi], atol=1e-9)

    def test_spectrum_matches_eigenphases(self):
        # v v^T in the magic frame carries the class phases, possibly all
        # shifted by the same half turn (determinant-sheet freedom)
        rng = SeededRng(83)
        for _ in range(200):
            cp = ClassParams(*rng.generator.uniform(0.0, 2.0 * math.pi, size=3))
            phases = class_phases(canonical_v(cp))
            want = np.sort(np.angle(np.exp(1j * cp.eigenphases())))
            errors = []
            for shift in (0.0, math.pi):
                got = np.sort(np.angle(np.exp(1j * (phases + shift))))
                errors.append(np.max(np.abs(np.angle(np.exp(1j * (got - want))))))
            assert min(errors) < 1e-9


class TestClassSpectrum:
    def test_identity(self):
        assert np.allclose(class_phases(I4), 0.0, atol=1e-12)

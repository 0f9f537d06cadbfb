"""Dense linear-algebra primitives: projections, joint diagonalization,
tensor factoring, phase-invariant comparison, SU(2) angle readout.

The kernels take stacks and trust their callers; the tests call them on
one-row stacks of valid inputs through the helpers below."""

import math
from typing import NamedTuple

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import PAULI_X, PAULI_Z, factor_tensor_products, quaternion
from su4c.config import DEFAULT_TOL
from su4c.gates import G_GATE, _to_magic, r_gate, rz_gate
from su4c.haar import SeededRng, sample_su4
from su4c.linalg import (
    NotAProductError,
    _canonicalize,
    _joint_real_eigensystem,
    _kron,
    _special_unitary_projection,
    _su2_params,
    is_unitary,
    nearest_unitary,
    phase_invariant_distance,
)

I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)


def _row(m):
    return np.asarray(m, dtype=complex)[None]


def special_unitary_projection(u):
    """(su, phase) of one unitary."""
    su, phases = _special_unitary_projection(_row(u))
    return su[0], complex(phases[0])


class EigenSystem(NamedTuple):
    phases: np.ndarray
    vectors: np.ndarray


def joint_real_diagonalization(w):
    """The sorted, sign-fixed real eigensystem of one unitary symmetric w."""
    phases, vectors = _canonicalize(*_joint_real_eigensystem(_row(w)))
    return EigenSystem(phases[0], vectors[0])


def factor_tensor_product(m):
    """(a, b, phase) of one 4x4 unitary product."""
    a, b, phases = factor_tensor_products(_row(m))
    return a[0], b[0], complex(phases[0])


def su2_params(m):
    """(theta, phi, phiz, sign) of one det-1 2x2 unitary, sign an int."""
    theta, phi, phiz, sign = _su2_params(quaternion(_row(m)))[0].tolist()
    return theta, phi, phiz, int(sign)


def random_orthogonal(rng, n=4):
    # QR of a real Gaussian, det folded to +1
    q, r = np.linalg.qr(rng.generator.standard_normal((n, n)))
    q = q * np.sign(np.diagonal(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_su2(rng):
    g = rng.generator.standard_normal((2, 2)) + 1j * rng.generator.standard_normal((2, 2))
    q, r = np.linalg.qr(g)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return q / np.sqrt(np.linalg.det(q))


class TestKron:
    def test_identity(self):
        assert np.array_equal(_kron(I2, I2), I4)

    def test_pauli_zz(self):
        assert np.allclose(_kron(PAULI_Z, PAULI_Z), np.diag([1, -1, -1, 1]))

    def test_first_factor_acts_on_first_qubit(self):
        # R(pi,0) = -i sigma_x flips the first qubit of |down,up>
        state = np.array([0, 0, 1, 0], dtype=complex)
        out = _kron(r_gate(math.pi, 0.0), I2) @ state
        assert np.allclose(out, [-1j, 0, 0, 0], atol=1e-12)


    def test_matches_numpy_kron_bitwise(self):
        rng = SeededRng(41)
        for _ in range(200):
            a, b = random_su2(rng), random_su2(rng)
            for x, y in ((a, b), (a, I2), (I2, b), (PAULI_X, b)):
                assert _kron(x, y).tobytes() == np.kron(x, y).tobytes()


class TestIsUnitary:
    def test_accepts_unitary(self):
        assert is_unitary(I4)
        assert is_unitary(G_GATE)

    def test_rejects_scaled(self):
        assert not is_unitary(2.0 * I4)

    def test_rejects_rectangular(self):
        assert not is_unitary(np.ones((2, 3)))

    def test_tolerance_argument(self):
        m = I4 + 1e-5
        assert not is_unitary(m)
        assert is_unitary(m, atol=1e-3)


class TestSpecialUnitaryProjection:
    def test_identity_passthrough(self):
        su, phase = special_unitary_projection(I4)
        assert phase == pytest.approx(1.0)
        assert np.allclose(su, I4, atol=1e-14)

    def test_strips_global_phase(self):
        su, phase = special_unitary_projection(np.exp(1j * math.pi / 8.0) * I4)
        assert phase == pytest.approx(np.exp(1j * math.pi / 8.0), abs=1e-12)
        assert np.allclose(su, I4, atol=1e-12)

    def test_g_gate_branch(self):
        # det G = -1; the principal fourth root of -1 has argument pi/4
        su, phase = special_unitary_projection(G_GATE)
        assert phase == pytest.approx(np.exp(1j * math.pi / 4.0), abs=1e-12)
        assert np.allclose(phase * su, G_GATE, atol=1e-12)
        assert np.linalg.det(su) == pytest.approx(1.0, abs=1e-10)

    def test_principal_branch_range(self):
        rng = SeededRng(3)
        for _ in range(200):
            u = sample_su4(rng) * np.exp(1j * rng.generator.uniform(-math.pi, math.pi))
            su, phase = special_unitary_projection(u)
            assert abs(np.linalg.det(su) - 1.0) < 1e-10
            assert -math.pi / 4.0 - 1e-12 < np.angle(phase) <= math.pi / 4.0 + 1e-12
            assert np.allclose(phase * su, u, atol=1e-12)


class TestJointRealDiagonalization:
    def test_identity(self):
        sys = joint_real_diagonalization(I4)
        assert np.allclose(sys.phases, 0.0, atol=1e-12)
        assert np.allclose(sys.vectors @ sys.vectors.T, I4, atol=1e-12)

    def test_real_diagonal_signs(self):
        w = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
        sys = joint_real_diagonalization(w)
        # -1 sits on the +pi side of the branch
        assert np.allclose(np.sort(sys.phases), [0.0, 0.0, math.pi, math.pi], atol=1e-12)
        self._check_reconstruction(w, sys)

    def test_entangling_gate_product(self):
        su, _ = special_unitary_projection(G_GATE)
        m = _to_magic(su)
        w = m @ m.T
        sys = joint_real_diagonalization(w)
        self._check_reconstruction(w, sys)
        assert abs(np.linalg.det(sys.vectors) - 1.0) < 1e-10

    @staticmethod
    def _check_reconstruction(w, sys):
        rebuilt = sys.vectors @ np.diag(np.exp(1j * sys.phases)) @ sys.vectors.T
        assert np.max(np.abs(rebuilt - w)) < 1e-9
        assert np.allclose(sys.vectors.imag, 0.0, atol=1e-12)
        assert np.allclose(sys.vectors @ sys.vectors.T, I4, atol=1e-10)
        assert np.all(sys.phases > -math.pi) and np.all(sys.phases <= math.pi)
        assert np.all(np.diff(sys.phases) >= -1e-15)

    def test_random_synthesized(self):
        rng = SeededRng(17)
        for _ in range(10_000):
            o = random_orthogonal(rng)
            phases = rng.generator.uniform(-math.pi, math.pi, size=4)
            w = (o * np.exp(1j * phases)) @ o.T
            sys = joint_real_diagonalization(w)
            rebuilt = sys.vectors @ np.diag(np.exp(1j * sys.phases)) @ sys.vectors.T
            assert np.max(np.abs(rebuilt - w)) < 1e-9

    @pytest.mark.parametrize(
        "phases",
        [
            (0.3, 0.3, -1.1, 2.0),           # one double
            (0.3, 0.3, 0.3, 0.3),            # fully degenerate
            (-2.0, -2.0, 1.0, 1.0),          # two doubles
            (math.pi, math.pi, -1.0, -1.0),  # degeneracy at the branch cut
            (0.5, 0.5 + 1e-9, 1.5, 1.5 - 1e-9),  # near-degenerate
        ],
    )
    def test_forced_degeneracies(self, phases):
        rng = SeededRng(23)
        for _ in range(50):
            o = random_orthogonal(rng)
            w = (o * np.exp(1j * np.array(phases))) @ o.T
            sys = joint_real_diagonalization(w)
            rebuilt = sys.vectors @ np.diag(np.exp(1j * sys.phases)) @ sys.vectors.T
            assert np.max(np.abs(rebuilt - w)) < 1e-9


def _canonicalize_sorted(phases, vectors):
    """The sorted()-based _canonicalize that the vectorized one replaced."""
    vectors = vectors.copy()
    for j in range(vectors.shape[1]):
        col = vectors[:, j]
        nz = np.nonzero(np.abs(col) > 1e-8)[0]
        if nz.size and col[nz[0]] < 0:
            vectors[:, j] = -col
    order = sorted(
        range(len(phases)),
        key=lambda j: (phases[j], *tuple(np.round(vectors[:, j], 12) + 0.0)),
    )
    phases = phases[order]
    vectors = vectors[:, order]
    if np.linalg.det(vectors) < 0:
        vectors[:, -1] = -vectors[:, -1]
    return phases, vectors


def _canonicalize_one(phases, vectors):
    """_canonicalize on the one-row stack of (phases, vectors)."""
    new_phases, new_vectors = _canonicalize(phases[None], vectors[None])
    return new_phases[0], new_vectors[0]


def _random_signed_permutation(rng):
    gen = rng.generator
    return np.eye(4)[:, gen.permutation(4)] * gen.choice([-1.0, 1.0], size=4)


class TestCanonicalize:
    """The vectorized _canonicalize against the sorted() implementation it
    replaced: same phases and vectors, bit for bit, signs of zeros included,
    one row at a time and as one stack of every case a test makes."""

    @staticmethod
    def assert_same(phases, vectors):
        for new, old in zip(_canonicalize_one(phases, vectors), _canonicalize_sorted(phases, vectors)):
            assert new.tobytes() == old.tobytes()

    def test_random_orthogonal_frames(self):
        rng = SeededRng(61)
        for _ in range(200):
            phases = rng.generator.uniform(-math.pi, math.pi, size=4)
            self.assert_same(phases, random_orthogonal(rng))

    def test_tied_phases_on_permutation_frames(self):
        rng = SeededRng(62)
        for _ in range(200):
            phases = rng.generator.choice([-1.0, 0.5, math.pi], size=4)
            self.assert_same(phases, _random_signed_permutation(rng))

    def test_tied_phases_on_block_rotation_frames(self):
        rng = SeededRng(63)
        for _ in range(200):
            t, s = rng.generator.uniform(-math.pi, math.pi, size=2)
            rot = np.zeros((4, 4))
            rot[:2, :2] = [[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]]
            rot[2:, 2:] = [[math.cos(s), math.sin(s)], [-math.sin(s), math.cos(s)]]
            phases = np.array([0.7, 0.7, -2.0, -2.0])[rng.generator.permutation(4)]
            self.assert_same(phases, rot @ _random_signed_permutation(rng))

    def test_columns_equal_at_12_decimals(self):
        # tied phases and columns that differ below the rounding: the sort
        # must keep their order
        rng = SeededRng(64)
        for _ in range(100):
            o = random_orthogonal(rng)
            vectors = np.column_stack([o[:, 0], o[:, 0] + 1e-14, o[:, 1], o[:, 1] - 2e-14])
            phases = np.array([0.3, 0.3, 0.3, -0.3])
            self.assert_same(phases, vectors[:, rng.generator.permutation(4)])

    def test_leading_entries_below_threshold(self):
        # the sign is fixed by the first entry above 1e-8, not by row 0
        vectors = np.array(
            [
                [1e-9, -1e-9, 0.0, -0.0],
                [-0.6, 0.8, 1e-9, 0.0],
                [0.8, 0.6, -1.0, 0.0],
                [0.0, 0.0, 0.0, -1.0],
            ]
        )
        phases = np.array([1.0, 1.0, -1.0, 1.0])
        self.assert_same(phases, vectors)
        # every column but the last, which the det fix may negate, leads
        # with a positive entry
        _, out = _canonicalize_one(phases, vectors)
        assert np.all(out[np.argmax(np.abs(out) > 1e-8, axis=0), range(4)][:3] > 0)

    def test_det_minus_one_input(self):
        o = random_orthogonal(SeededRng(65))
        o[:, 2] = -o[:, 2]
        assert np.linalg.det(o) < 0
        phases = np.array([0.1, -0.4, 2.5, -3.0])
        self.assert_same(phases, o)
        assert np.linalg.det(_canonicalize_one(phases, o)[1]) > 0

    def test_stack_rows_match_single_rows(self):
        # ties, permutation frames and frames with a negative determinant,
        # mixed in one stack: every row comes out as it does alone
        rng = SeededRng(66)
        cases = []
        for k in range(150):
            if k % 3 == 0:
                frame = random_orthogonal(rng)
            else:
                frame = _random_signed_permutation(rng)
            phases = rng.generator.choice([-1.0, 0.5, math.pi], size=4)
            cases.append((phases, frame))
        phases = np.array([c[0] for c in cases])
        vectors = np.array([c[1] for c in cases])
        got_phases, got_vectors = _canonicalize(phases, vectors)
        for k, (p, v) in enumerate(cases):
            want_phases, want_vectors = _canonicalize_sorted(p, v)
            assert got_phases[k].tobytes() == want_phases.tobytes()
            assert got_vectors[k].tobytes() == want_vectors.tobytes()


class TestNearestUnitary:
    def test_unitary_fixed_point(self):
        u = sample_su4(SeededRng(9))
        assert np.max(np.abs(nearest_unitary(u) - u)) < 1e-12

    def test_matches_polar_factor(self):
        rng = SeededRng(10)
        for _ in range(100):
            m = rng.generator.standard_normal((4, 4)) + 1j * rng.generator.standard_normal((4, 4))
            w, _ = scipy.linalg.polar(m)
            assert np.max(np.abs(nearest_unitary(m) - w)) < 1e-10

    def test_repairs_printed_precision(self):
        u = sample_su4(SeededRng(12))
        rounded = np.round(u, 3)
        fixed = nearest_unitary(rounded)
        assert is_unitary(fixed, atol=1e-12)
        assert np.max(np.abs(fixed - rounded)) < 5e-3

    def test_stack_rows_match_single_rows(self):
        # the benchmark projects a block of draws in one call
        rng = SeededRng(13)
        stack = rng.generator.standard_normal((9, 4, 4)) + 1j * rng.generator.standard_normal((9, 4, 4))
        stack[3] = np.round(sample_su4(rng), 3)
        stack[5] = sample_su4(rng)
        projected = nearest_unitary(stack)
        for k, m in enumerate(stack):
            assert projected[k].tobytes() == nearest_unitary(m).tobytes()


class TestFactorTensorProduct:
    """The block factoring of tests/oracles.py, the reference for the sign
    convention of the magic-frame factoring (test_gates)."""

    def test_identity(self):
        a, b, phase = factor_tensor_product(I4)
        assert np.allclose(phase * _kron(a, b), I4, atol=1e-12)

    def test_single_qubit_embedding(self):
        m = _kron(-1j * PAULI_X, I2)
        a, b, phase = factor_tensor_product(m)
        assert np.allclose(phase * _kron(a, b), m, atol=1e-12)
        assert abs(np.linalg.det(a) - 1.0) < 1e-12
        assert abs(np.linalg.det(b) - 1.0) < 1e-12

    def test_rejects_entangling(self):
        with pytest.raises(NotAProductError):
            factor_tensor_product(G_GATE)

    def test_random_products(self):
        rng = SeededRng(31)
        for _ in range(10_000):
            a = random_su2(rng)
            b = random_su2(rng)
            k = rng.generator.integers(0, 4)
            m = (1j) ** k * _kron(a, b)
            fa, fb, phase = factor_tensor_product(m)
            assert np.max(np.abs(phase * _kron(fa, fb) - m)) < 1e-9
            assert abs(np.linalg.det(fa) - 1.0) < 1e-9
            assert abs(np.linalg.det(fb) - 1.0) < 1e-9


class TestPhaseInvariantDistance:
    def test_zero_on_phase_multiples(self):
        u = sample_su4(SeededRng(41))
        for phi in (0.0, 0.7, math.pi, 4.5):
            assert phase_invariant_distance(u, np.exp(1j * phi) * u) < 1e-12

    def test_traceless_alignment_scan(self):
        # tr(sigma_x) = 0 exercises the scan fallback; every alignment phase
        # leaves some entry at modulus 1
        d = phase_invariant_distance(I2, PAULI_X)
        angles = np.linspace(0.0, 2.0 * math.pi, 360, endpoint=False)
        oracle = min(np.max(np.abs(I2 - np.exp(1j * t) * PAULI_X)) for t in angles)
        assert d == pytest.approx(oracle, abs=1e-12)
        assert d == pytest.approx(1.0, abs=1e-9)

    def test_symmetry_and_triangle(self):
        rng = SeededRng(43)
        for _ in range(300):
            u, v, w = sample_su4(rng), sample_su4(rng), sample_su4(rng)
            duw = phase_invariant_distance(u, w)
            assert duw == pytest.approx(phase_invariant_distance(w, u), abs=1e-12)
            assert duw <= phase_invariant_distance(u, v) + phase_invariant_distance(v, w) + 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            phase_invariant_distance(I2, I4)


def su2_params_loop(m):
    """_su2_params written as a loop over the rows of an (N, 2, 2) stack, one
    tuple per row with an int sign; numpy's arctan2 of the two moduli."""
    m00, m10 = m[:, 0, 0], m[:, 1, 0]
    args00 = np.arctan2(m00.imag, m00.real).tolist()
    args10 = np.arctan2(m10.imag, m10.real).tolist()
    out = []
    for z, w, psi, arg10 in zip(m00, m10, args00, args10):
        theta = 2.0 * float(np.arctan2(abs(w), abs(z)))
        if psi <= 0.0:
            sign, phiz = 1, -2.0 * psi
        else:
            sign, phiz = -1, math.tau - 2.0 * psi
        if phiz >= math.tau:
            sign, phiz = -sign, phiz - math.tau
        if theta < SNAP:
            out.append((0.0, 0.0, phiz % math.tau, sign))
        elif theta > math.pi - SNAP:
            out.append((math.pi, (arg10 + math.pi / 2.0) % math.tau, 0.0, 1))
        else:
            sign_arg = 0.0 if sign == 1 else math.pi
            phi = (arg10 - sign_arg - phiz / 2.0 + math.pi / 2.0) % math.tau
            out.append((theta, phi, phiz % math.tau, sign))
    return out


# Rows at the branch points of su2_params: theta within angle_snap of 0 and
# of pi (and exactly 0 and pi), phiz rounding up to a full turn in each
# branch, signed-zero imaginary parts, and -I with either zero.
SNAP = DEFAULT_TOL.angle_snap
BRANCH_ROWS = [
    rz_gate(0.4) @ r_gate(0.5 * SNAP, 1.1),
    rz_gate(-2.5) @ r_gate(0.0, 0.3),
    rz_gate(2.0) @ r_gate(math.pi - 0.5 * SNAP, 0.7),
    -rz_gate(1.0) @ r_gate(math.pi, -0.2),
    rz_gate(-2e-17) @ r_gate(math.pi / 2.0, 0.3),
    rz_gate(-2e-17) @ r_gate(0.25 * SNAP, 0.3),
    rz_gate(-2e-17) @ r_gate(math.pi, 0.3),
    rz_gate(-2e-17),
    np.array([[complex(0.6, -0.0), complex(-0.0, 0.8)], [complex(0.0, 0.8), complex(0.6, 0.0)]]),
    np.array([[complex(0.6, 0.0), complex(-0.8, 0.0)], [complex(0.8, -0.0), complex(0.6, -0.0)]]),
    np.diag([complex(-1.0, -0.0), complex(-1.0, 0.0)]),
    np.diag([complex(-1.0, 0.0), complex(-1.0, -0.0)]),
    -I2,
]

branch_angles = st.sampled_from([0.0, -0.0, 2e-17, -2e-17, 0.5 * SNAP, math.pi, -math.pi, math.tau])
# sign * Rz(phiz) R(theta, phi) with free angles or branch values, and SU(2)
# rows straight from a unit vector (a, b) as [[a, -b*], [b, a*]]
su2_rows = st.one_of(
    st.tuples(
        st.sampled_from([1.0, -1.0]),
        st.one_of(st.floats(-math.tau, math.tau), branch_angles),
        st.one_of(
            st.floats(0.0, math.pi),
            st.sampled_from([0.0, 0.5 * SNAP, 2.0 * SNAP, math.pi - 0.5 * SNAP, math.pi - 2.0 * SNAP, math.pi]),
        ),
        st.one_of(st.floats(-math.tau, math.tau), branch_angles),
    ).map(lambda t: t[0] * rz_gate(t[1]) @ r_gate(t[2], t[3])),
    st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4)
    .filter(lambda v: math.hypot(*v) > 1e-3)
    .map(lambda v: np.array(v) / math.hypot(*v))
    .map(lambda v: np.array([[complex(v[0], v[1]), -complex(v[2], -v[3])], [complex(v[2], v[3]), complex(v[0], -v[1])]])),
)


def assert_matches_loop(stack):
    got = _su2_params(quaternion(stack))
    want = np.array(su2_params_loop(stack), dtype=float)
    assert got.shape == want.shape
    for k in range(len(stack)):
        assert got[k].tobytes() == want[k].tobytes(), k


class TestSu2Params:
    def test_stacked_matches_loop_at_branch_points(self):
        stack = np.array(BRANCH_ROWS)
        assert_matches_loop(stack)
        for k, row in enumerate(stack):
            assert_matches_loop(row[None])
            assert su2_params(row) == su2_params_loop(row[None])[0], k

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(st.lists(su2_rows, min_size=1, max_size=40))
    def test_stacked_matches_loop(self, rows):
        assert_matches_loop(np.array(rows))

    def test_stacked_matches_loop_on_haar_rows(self):
        rng = SeededRng(59)
        assert_matches_loop(np.array([random_su2(rng) for _ in range(4000)]))

    def test_identity(self):
        theta, phi, phiz, sign = su2_params(I2)
        assert (theta, phi, phiz, sign) == (0.0, 0.0, 0.0, 1)

    def test_pi_pulse(self):
        theta, phi, phiz, sign = su2_params(-1j * PAULI_X)
        assert theta == pytest.approx(math.pi, abs=1e-12)
        assert phi == pytest.approx(0.0, abs=1e-12)
        assert phiz == pytest.approx(0.0, abs=1e-12)
        assert sign == 1

    def test_known_triple_round_trip(self):
        m = rz_gate(1.0) @ r_gate(0.7, 2.0)
        theta, phi, phiz, sign = su2_params(m)
        rebuilt = sign * rz_gate(phiz) @ r_gate(theta, phi)
        assert np.max(np.abs(rebuilt - m)) < 1e-12
        assert theta == pytest.approx(0.7, abs=1e-9)
        assert phi == pytest.approx(2.0, abs=1e-9)

    @pytest.mark.parametrize("t", [1e-7, 2e-8, 1e-8])
    def test_small_angles_keep_their_precision(self, t):
        # |m00| = cos(t/2) rounds to 1 for t near 1e-8, above angle_snap,
        # so theta is read from both moduli, not from |m00| alone
        theta, phi, phiz, sign = su2_params(rz_gate(0.4) @ r_gate(t, 1.1))
        assert abs(theta - t) <= 2 * np.spacing(t)
        assert (phi, phiz, sign) == (pytest.approx(1.1, abs=1e-12), pytest.approx(0.4, abs=1e-12), 1)

    def test_random_round_trips(self):
        rng = SeededRng(53)
        for _ in range(10_000):
            m = random_su2(rng)
            theta, phi, phiz, sign = su2_params(m)
            assert 0.0 <= theta <= math.pi + 1e-12
            assert 0.0 <= phi < 2.0 * math.pi
            assert 0.0 <= phiz < 2.0 * math.pi
            assert sign in (1, -1)
            rebuilt = sign * rz_gate(phiz) @ r_gate(theta, phi)
            assert np.max(np.abs(rebuilt - m)) < 1e-9

    def test_frame_rotation_rounding_to_a_full_turn_flips_the_sign(self):
        # phiz = tau - 4e-17 rounds to tau, and Rz(tau) = -I: dropping the
        # turn without flipping the sign would return -m
        m = rz_gate(-2e-17) @ r_gate(math.pi / 2.0, 0.3)
        theta, phi, phiz, sign = su2_params(m)
        assert (phiz, sign) == (0.0, 1)
        rebuilt = sign * rz_gate(phiz) @ r_gate(theta, phi)
        assert np.max(np.abs(rebuilt - m)) < 1e-12

    def test_minus_identity_keeps_its_sign(self):
        # arg(m00) = -pi on the negative zero gives phiz = tau, so Rz(tau)
        # must carry the -1
        m = np.diag([complex(-1.0, -0.0), complex(-1.0, 0.0)])
        assert su2_params(m) == (0.0, 0.0, 0.0, -1)

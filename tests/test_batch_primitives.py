"""Platform canary: the numpy primitives the stacked kernels rely on give each
row of a stack, bit for bit, what they give that row alone.

decompose_many, pulse_angles, _sample_su4_many, _estimate_states (linear
and MLE) and _state_fidelities are bit-identical to one-at-a-time calls only
because of these equalities; pulse_angles also reduces its phases with
np.remainder where the r_pulse_triple oracle uses Python's %, and
_su2_params reads each modulus with np.hypot. They hold for numpy 2.4 on
OpenBLAS 0.3.31, but they are not promised by numpy or by BLAS, so each one
is asserted here on seeded stacks: an upgrade that breaks one fails the test
named after it, not only an opaque digest in test_compile_corpus.
The Pauli-transfer pass adds its three-term sums in index order, on the
transposed view for qubit 1, and applies G as a gather with fixed signs.
The stacked draws rely on numpy filling a stacked draw row by row: one
(2, 4, 4) standard normal draw gives the normals of two (4, 4) draws, one
(n, 2, 4, 4) draw those of n (2, 4, 4) draws, and one multinomial over an
(N, 9, 4) table the counts of N (9, 4) draws, each leaving the generator
where the draws one at a time leave it. All are
asserted at the end of this module. So are the steps of the compile and
scoring paths that run as one stack with no per-row oracle, each on stacks
of 1, 16 and 160 rows and on the same rows shuffled: np.arctan2 of the
moduli (_su2_params), the array square (state_fidelity), np.remainder of
the pair means (_class_angles), the quarter turns (_canonical_phase), the
magic-frame factoring (_magic_factors), the global phases (decompose) and
the slot quaternions (pulse_angles).
"""

import math
from functools import reduce

import numpy as np
import pytest

from oracles import su2
from su4c.circuits import _quaternions, _slot_quaternions
from su4c.compiler import _class_angles
from su4c.experiment import _G_SIGNS, _G_SOURCE, _SIGNS, _product
from su4c.gates import _canonical_phase, _magic_factors, _rz_gates, _to_magic, r_gate, rz_gate
from su4c.haar import SeededRng
from su4c.tomography import (
    _BORN,
    _BORN_OUTER,
    _BORN_T,
    _PAULI_PHASE,
    _PAULI_SOURCE,
    _operators,
)

N = 64


def gen(seed):
    return np.random.default_rng(seed)


def complex_stack(g, n=4):
    return g.standard_normal((N, n, n)) + 1j * g.standard_normal((N, n, n))


def same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def rows_match(batched, single, stack):
    """batched(stack)[k] equals single(stack[k]) for every k, every output."""
    got = batched(stack)
    for k in range(len(stack)):
        want = single(stack[k])
        if isinstance(want, tuple):
            assert all(same(g[k], w) for g, w in zip(got, want)), k
        else:
            assert same(got[k], want), k


def test_eigh_real_symmetric():
    m = gen(1).standard_normal((N, 4, 4))
    rows_match(np.linalg.eigh, np.linalg.eigh, m + m.swapaxes(1, 2))


def test_eigh_complex_hermitian():
    m = complex_stack(gen(2))
    rows_match(np.linalg.eigh, np.linalg.eigh, m + m.conj().swapaxes(1, 2))


@pytest.mark.parametrize("n", [2, 4])
def test_det_complex(n):
    rows_match(np.linalg.det, np.linalg.det, complex_stack(gen(3), n))


def test_det_real():
    rows_match(np.linalg.det, np.linalg.det, gen(4).standard_normal((N, 4, 4)))


def test_svd_both_modes():
    m = complex_stack(gen(5))
    rows_match(np.linalg.svd, np.linalg.svd, m)
    svals = lambda x: np.linalg.svd(x, compute_uv=False)  # noqa: E731
    rows_match(svals, svals, m)


@pytest.mark.parametrize(
    "product",
    [
        lambda a, b, r: a @ b,  # complex
        lambda a, b, r: r @ r.swapaxes(-1, -2),  # real, transposed operand
        lambda a, b, r: r.swapaxes(-1, -2) @ a @ r,  # real-complex-real
        lambda a, b, r: a @ a.swapaxes(-1, -2),  # one operand twice
        lambda a, b, r: a.conj().swapaxes(-1, -2) @ r @ r.swapaxes(-1, -2) @ b,
    ],
)
def test_matmul(product):
    g = gen(6)
    a, b, r = complex_stack(g), complex_stack(g), g.standard_normal((N, 4, 4))
    got = product(a, b, r)
    for k in range(N):
        assert same(got[k], product(a[k], b[k], r[k])), k


def test_einsum_diagonal_and_trace():
    g = gen(7)
    basis, w = g.standard_normal((N, 4, 4)), complex_stack(g)
    diag = np.einsum("nip,nij,njp->np", basis, w, basis)
    traces = np.trace(w, axis1=1, axis2=2)
    for k in range(N):
        assert same(diag[k], np.einsum("ip,ij,jp->p", basis[k], w[k], basis[k]))
        assert same(traces[k], np.trace(w[k]))


def test_exp_and_complex_sqrt():
    g = gen(8)
    angles = g.uniform(-math.pi, math.pi, size=N)
    z = g.standard_normal(N) + 1j * g.standard_normal(N)
    exps, roots = np.exp(1j * angles), np.sqrt(z)
    for k in range(N):
        assert same(exps[k], np.exp(1j * angles[k]))
        assert same(roots[k], np.sqrt(z[k]))


def test_arctan2_array_against_numpy_scalar():
    z = complex_stack(gen(9)).reshape(-1)
    z[:4] = [0.0, -0.0, 1.0, -1.0]  # the axes, signed zeros included
    got = np.arctan2(z.imag, z.real)
    for k, v in enumerate(z):
        assert same(got[k], np.arctan2(v.imag, v.real)), k


def test_remainder_against_python_mod():
    x = gen(10).uniform(-20.0, 20.0, size=4 * N)
    got = np.remainder(x, math.tau)
    for k, v in enumerate(x.tolist()):
        assert got[k] == v % math.tau
        assert math.copysign(1.0, got[k]) == math.copysign(1.0, v % math.tau)


@pytest.mark.parametrize("n", [1, 4, 9, 37, 2000])
def test_hypot_against_abs_of_complex_scalar(n):
    # on the strided real and imaginary views _su2_params reads the moduli of
    g = gen(12)
    m = g.standard_normal((n, 2, 2)) + 1j * g.standard_normal((n, 2, 2))
    m[: min(n, 4), 0, 0] = [complex(0.6, -0.0), complex(-0.0, 0.0), -1.0, 1j][:n]
    z = m[:, 0, 0]
    got = np.hypot(z.real, z.imag)
    for k, v in enumerate(z.tolist()):
        assert same(got[k], np.float64(abs(v))), k


def test_cos_sin_against_math():
    x = gen(11).uniform(-10.0, 10.0, size=4 * N)
    cos, sin = np.cos(x), np.sin(x)
    for k, v in enumerate(x.tolist()):
        assert cos[k] == math.cos(v) and sin[k] == math.sin(v)


# Beyond the list above, the kernels rely on these.


# The aligning phases of the block factoring that tests/oracles.py keeps as
# the magic-frame factoring's reference, also in _sample_su4_many: row k of
# a stack of N must be what the one-row call gives, at every N up to past
# the SIMD width and at one odd N beyond, so vector tails are covered.
SIZES = [*range(1, 10), 37]


@pytest.mark.parametrize("n", SIZES)
def test_abs_of_complex_vector(n):
    g = gen(20)
    z = g.standard_normal(n) + 1j * g.standard_normal(n)
    sizes = np.abs(z)
    quotients = z / sizes
    for k in range(n):
        one = z[k : k + 1]
        assert same(sizes[k], np.abs(one)[0]), k
        assert same(quotients[k], (one / np.abs(one))[0]), k


# The linear estimate takes its Pauli sums as one stacked product of each
# frequency row (36,) with the sign table (36, 16); row k of a stack of N
# must be the one-row product, at the sizes above and at a stack as large
# as a benchmark's records.


@pytest.mark.parametrize("n", [*SIZES, 2000])
def test_last_axis_multiply_sum(n):
    freqs = gen(27).dirichlet(np.ones(4), size=(n, 9)).reshape(n, 36)
    got = (freqs[:, None, :] @ _SIGNS)[:, 0]
    for k in range(n):
        assert same(got[k], (freqs[k : k + 1, None, :] @ _SIGNS)[0, 0]), k


def test_lexsort_along_rows():
    g = gen(14)
    keys = g.choice([-1.0, 0.0, 0.5], size=(5, N, 4))
    got = np.lexsort(keys, axis=-1)
    for k in range(N):
        assert same(got[k], np.lexsort(keys[:, k]))


def test_row_sums():
    x = gen(15).standard_normal((N, 4))
    got = np.sum(x, axis=1)
    for k in range(N):
        assert same(got[k], np.sum(x[k]))


def test_broadcast_row_scalars_against_scalar_operands():
    # u / phase[:, None, None] and friends against u[k] / phase[k]
    g = gen(16)
    m = complex_stack(g)
    z = g.standard_normal(N) + 1j * g.standard_normal(N)
    r = g.standard_normal(N)
    v = g.standard_normal((N, 4))
    div_c, div_r = m / z[:, None, None], m / r[:, None, None]
    mul_c, mul_v = z[:, None, None] * m, m * v[:, None, :]
    for k in range(N):
        assert same(div_c[k], m[k] / complex(z[k]))
        assert same(div_r[k], m[k] / r[k])
        assert same(mul_c[k], complex(z[k]) * m[k])
        assert same(mul_v[k], m[k] * v[k])


# The stacked MLE solver (_mle_stack) runs each record's products as one
# slice of a stacked matmul, solve, eigh or eigvalsh, a gather, or an
# elementwise sum in a fixed order; each must give row k of a stack what it
# gives a stack of that row alone, for every number n of seen outcomes, the
# other 36 - n at share 0.


def stack_rows_match(fn, *stacks):
    """fn(*stacks)[k] equals fn(*(s[k:k + 1] for s in stacks))[0] for every
    row k, for every output of fn."""
    got = fn(*stacks)
    got = got if isinstance(got, tuple) else (got,)
    for k in range(len(stacks[0])):
        want = fn(*(s[k : k + 1] for s in stacks))
        want = want if isinstance(want, tuple) else (want,)
        for g, w in zip(got, want):
            assert same(g[k], w[0]), k


def hermitian_stack(g, n=4):
    m = complex_stack(g, n)
    return m + m.conj().swapaxes(-1, -2)


@pytest.mark.parametrize("n", [9, 23, 36])
def test_mle_stacked_products(n):
    g = gen(17 + n)
    x, dx = g.standard_normal((N, 15)), g.standard_normal((N, 15))
    shares, probs = g.uniform(0.1, 10.0, (N, 36)), g.uniform(1e-3, 1.0, (N, 36))
    for k in range(N):
        shares[k, g.permutation(36)[n:]] = 0.0  # the outcomes not seen
    ratios = shares / probs
    solved = g.standard_normal((N, 15, 2))
    coordinates = np.concatenate((g.standard_normal((N, 1)), x), axis=1)
    stack_rows_match(_operators, coordinates)  # rho(x), the step in rho, the R operator
    stack_rows_match(lambda x: x[:, None, :] @ _BORN_T, x)  # probabilities, rates
    stack_rows_match(lambda r: r[:, None, :] @ _SIGNS, ratios)  # R's Pauli coordinates
    stack_rows_match(lambda r: r[:, None, :] @ _BORN, ratios)  # likelihood gradient
    stack_rows_match(lambda r, p: (r / p)[:, None, :] @ _BORN_OUTER, ratios, probs)  # Hessian
    # the decrement and the pull read strided columns of the solved pair
    stack_rows_match(lambda x, s: (x[:, None, :] @ s[..., :1], x[:, None, :] @ s[..., 1:]), dx, solved)


def test_mle_triple_products_and_trace():
    g = gen(18)
    vals, vecs = np.linalg.eigh(hermitian_stack(g))
    vals = np.abs(vals) + 0.1
    move = hermitian_stack(g)

    def inverse(vals, vecs):
        return (vecs / vals[:, None, :]) @ vecs.conj().swapaxes(-1, -2)

    def barrier(vals, vecs):
        products = np.take(inverse(vals, vecs), _PAULI_SOURCE, axis=1)
        products *= _PAULI_PHASE
        flat = products.reshape(-1, 15, 16)
        swapped = products.swapaxes(-1, -2).reshape(-1, 15, 16)
        diagonal = products[..., 0, 0] + products[..., 1, 1] + products[..., 2, 2] + products[..., 3, 3]
        return diagonal, flat @ swapped.swapaxes(-1, -2)

    def spread(vals, vecs, move):
        scaled = vecs / np.sqrt(vals)[:, None, :]
        return scaled.conj().swapaxes(-1, -2) @ move @ scaled

    stack_rows_match(inverse, vals, vecs)
    stack_rows_match(barrier, vals, vecs)
    stack_rows_match(spread, vals, vecs, move)


def test_mle_solve_and_eigvalsh():
    g = gen(20)
    a = g.standard_normal((N, 15, 15))
    stack_rows_match(np.linalg.solve, a @ a.swapaxes(-1, -2) + np.eye(15), g.standard_normal((N, 15, 2)))
    stack_rows_match(np.linalg.eigvalsh, hermitian_stack(g))


def test_log_of_stack():
    g = gen(19)
    x = g.uniform(1e-12, 1.0, (N, 36))
    got = np.log(x)
    for k in range(N):
        assert same(got[k], np.log(x[k])), k
    # the gain of a step: log1p of relative changes, summed over each
    # row's 36 outcomes and 4 eigenvalues
    stack_rows_match(lambda y: (y * np.log1p(y - 1.0)).sum(axis=-1), x)
    stack_rows_match(lambda y: np.log1p(y - 1.0).sum(axis=-1), x[:, :4])
    stack_rows_match(lambda y: y / y.sum(axis=-1, keepdims=True), x)


# The stacked Haar draws (_sample_su4_many) factor and phase-fix a whole
# chunk at once; each row must be what the one-draw call gives.


@pytest.mark.parametrize("n", SIZES)
def test_stacked_qr(n):
    m = complex_stack(gen(21))[:n] / math.sqrt(2.0)
    q, r = np.linalg.qr(m)
    for k in range(n):
        q1, r1 = np.linalg.qr(m[k])
        assert same(q[k], q1) and same(r[k], r1), k


@pytest.mark.parametrize("n", SIZES)
def test_diagonal_phases(n):
    _, r = np.linalg.qr(complex_stack(gen(22))[:n])
    d = np.diagonal(r, axis1=-2, axis2=-1)
    phases = d / np.abs(d)
    for k in range(n):
        d1 = np.diagonal(r[k])
        assert same(phases[k], d1 / np.abs(d1)), k


# pulse_angles builds the quaternion of every letter of a batch in one
# closed-form call, _exit_layers every Rz factor in one stacked call and
# multiplies the (N, 2, 2) stack with a constant factor; each row must be
# what the one-row call gives, and r_gate and rz_gate to rounding or bit for
# bit. The angles are Python floats, as the letters hold them, with 0, -0,
# pi/2 and pi mixed in, and phi = pi (the class layers' phase) on every
# other row.


def angle_list(seed, n):
    x = gen(seed).uniform(-2.0 * math.pi, 2.0 * math.pi, size=n).tolist()
    return [[0.0, math.pi, -0.0, math.pi / 2.0][k % 4] if k % 3 == 0 else v for k, v in enumerate(x)]


@pytest.mark.parametrize("n", SIZES)
def test_r_gates_against_r_gate(n):
    # R(theta, phi) is the letter (theta, phi, 0, +1)
    theta, phi = angle_list(23, n), angle_list(24, n)
    phi[::2] = [math.pi] * len(phi[::2])
    letters = np.array([[t, p, 0.0, 1.0] for t, p in zip(theta, phi)])
    got = _quaternions(letters)
    for k in range(n):
        assert same(got[k], _quaternions(letters[k : k + 1])[0]), k
        assert np.abs(su2(got[k]) - r_gate(theta[k], phi[k])).max() < 4 * np.finfo(float).eps, k


@pytest.mark.parametrize("n", SIZES)
def test_rz_gates_against_rz_gate(n):
    phiz = angle_list(25, n)
    got = _rz_gates(np.array(phiz))
    for k in range(n):
        assert same(got[k], rz_gate(phiz[k])), k


@pytest.mark.parametrize("n", SIZES)
def test_signed_2x2_products(n):
    # _exit_layers' stack times a constant 2x2 factor, with a signed zero in
    # the stack
    g = gen(26)
    a, c = complex_stack(g, 2)[:n], complex_stack(g, 2)[-1]
    a[0, 0, 0] = complex(-0.0, 0.0)
    left, right, chain = c @ a, a @ c, a @ c @ c.T
    for k in range(n):
        assert same(left[k], c @ a[k]) and same(right[k], a[k] @ c), k
        assert same(chain[k], a[k] @ c @ c.T), k


# The Pauli-transfer pass (experiment._output_tables) maps a target's rows
# of each table, programs last, by three-term sums of elementwise products
# in index order (experiment._product), qubit 1's on the transposed view, and
# applies G as a gather of the 16 entries times fixed signs. Each must equal
# the products added one after another, and each program's entries must be
# what they are alone and in a shuffled stack, signed zeros included.


def reduced_product(a, b):
    return reduce(np.add, [a[:, k, None] * b[None, k] for k in range(3)])


@pytest.mark.parametrize("target", [0, 1])
@pytest.mark.parametrize("m", [1, 16, 160])
def test_explicit_sums_match_reduce(m, target):
    g = gen(28)
    t, blocks = g.standard_normal((4, 4, m)), g.standard_normal((3, 3, m))
    t[..., 0], blocks[..., 0] = -0.0, 0.0  # program 0's sums are -0.0, which they must keep
    order = g.permutation(m)

    def step(t, blocks):
        # one slot on the target, then G, as the pass takes them
        t = t.copy()
        x = t if target == 0 else t.swapaxes(0, 1)
        x[1:] = _product(blocks, x[1:])
        return t.reshape(16, -1)[_G_SOURCE].reshape(t.shape) * _G_SIGNS[:, :, None]

    rows = (t if target == 0 else t.swapaxes(0, 1))[1:]
    sums = _product(blocks, rows)
    assert same(sums, reduced_product(blocks, rows)) and np.signbit(sums[..., 0]).all()
    got = step(t, blocks)
    assert same(step(t[..., order], blocks[..., order]), got[..., order])
    for k in range(m):
        assert same(step(t[..., k : k + 1], blocks[..., k : k + 1])[..., 0], got[..., k]), k


# _sample_su4_many draws each Ginibre matrix as one (2, 4, 4) standard
# normal draw, where sample_su4 once made two (4, 4) draws, and a chunk's n
# matrices as one (n, 2, 4, 4) draw; _sample_counts draws a chunk's counts
# as one multinomial over its (N, 9, 4) outcome probabilities. Each stacked
# draw must give the rows, and leave the stream where, one draw per row
# would.


@pytest.mark.parametrize("seed", range(5))
def test_one_draw_of_two_matrices(seed):
    one, two = SeededRng(seed).generator, SeededRng(seed).generator
    assert same(one.standard_normal((2, 4, 4)), np.array([two.standard_normal((4, 4)) for _ in range(2)]))
    assert same(one.standard_normal(3), two.standard_normal(3))  # the streams stay in step


@pytest.mark.parametrize("n", [1, 2, 16, 37, 160])
def test_one_draw_of_many_ginibre_pairs(n):
    many, one = SeededRng(n).generator, SeededRng(n).generator
    assert same(many.standard_normal((n, 2, 4, 4)), np.array([one.standard_normal((2, 4, 4)) for _ in range(n)]))
    assert same(many.standard_normal(3), one.standard_normal(3))


@pytest.mark.parametrize("shots", [1, 100, 1000, 2**40])
@pytest.mark.parametrize("n", [1, 16, 160])
def test_one_multinomial_of_many_tables(n, shots):
    # random (9, 4) rows with, as exact outcome probabilities can have, a
    # certain outcome and zero probabilities among them
    p = gen(n).dirichlet(np.ones(4), size=(n, 9))
    p = with_rows(p.reshape(-1, 4), np.array([[0.0, 1.0, 0.0, 0.0], [0.5, 0.0, 0.5, 0.0]])).reshape(n, 9, 4)
    many, one = SeededRng(shots).generator, SeededRng(shots).generator
    assert same(many.multinomial(shots, p), np.array([one.multinomial(shots, row) for row in p]))
    assert same(many.standard_normal(3), one.standard_normal(3))


# The compile and scoring steps that run as one stack with no per-row
# oracle: row k of a stack is what the one-row call gives, at 1, 16 and 160
# rows, and a shuffled stack gives the shuffled rows.
STACKS = [1, 16, 160]


def rows_alone_and_shuffled(batched, x, seed):
    got = batched(x)
    order = gen(seed).permutation(len(x))
    assert same(batched(x[order]), got[order])
    for k in range(len(x)):
        assert same(got[k], batched(x[k : k + 1])[0]), k


def with_rows(x, rows):
    """x with its first rows replaced by the given edge cases, as many as fit."""
    x[: len(rows)] = rows[: len(x)]
    return x


@pytest.mark.parametrize("n", STACKS)
def test_arctan2_of_moduli(n):
    # _su2_params' 2 arctan2(|m10|, |m00|): unit pairs, many with |m10| tiny
    y = 10.0 ** gen(43).uniform(-16.0, 0.0, n)
    edge = [[0.0, 1.0], [1.0, 0.0], [2.0**-1074, 1.0], [0.7071067811865476] * 2, [5e-9, 1.0]]
    pairs = with_rows(np.stack([y, np.sqrt(1.0 - y * y)], axis=1), np.array(edge))
    rows_alone_and_shuffled(lambda v: 2.0 * np.arctan2(v[:, 0], v[:, 1]), pairs, 44)


@pytest.mark.parametrize("n", STACKS)
def test_square_of_norms(n):
    # state_fidelity's squared nuclear norms, around and above 1
    x = with_rows(gen(31).uniform(0.0, 1.2, n), [1.0, 0.0, 1.0 + 2.0**-52])
    rows_alone_and_shuffled(lambda v: np.clip(v**2, 0.0, 1.0), x, 32)


@pytest.mark.parametrize("n", STACKS)
def test_remainder_of_pair_means(n):
    # sorted invariants, with pair means that round to just below 0, to 0
    # and to pi
    s = np.sort(gen(33).uniform(-math.pi, math.pi, (n, 4)), axis=1)
    edge = [[-1e-16, 0.0, 1e-16, 1.0], [-math.pi, 0.0, math.pi, math.pi], [-2.0, -1.0, 1.0, 2.0]]
    rows_alone_and_shuffled(_class_angles, with_rows(s, np.array(edge)), 34)


@pytest.mark.parametrize("n", STACKS)
def test_canonical_quarter_turns(n):
    # class angles in [0, 2 pi), with alpha at pi and sums on the
    # half-integer grid of pi
    angles = gen(35).uniform(0.0, math.tau, (n, 3))
    pi, half = math.pi, math.pi / 2.0
    edge = [[pi, 0.0, 0.0], [pi, half, 0.0], [half, half, half], [0.0, 0.0, 0.0], [3 * half, pi, 0.0]]
    rows_alone_and_shuffled(_canonical_phase, with_rows(angles, np.array(edge)), 36)


def unit_quaternions(g, shape):
    q = g.standard_normal((*shape, 4))
    return q / np.sqrt((q * q).sum(axis=-1))[..., None]


@pytest.mark.parametrize("n", STACKS)
def test_magic_factors(n):
    # the associate sums, the largest row and the sign rule, on magic-frame
    # rotations of products, the first of them I x I, whose rows tie
    pairs = unit_quaternions(gen(37), (n, 2))
    pairs[0] = [[1.0, 0.0, 0.0, 0.0]] * 2
    o = _to_magic(np.array([np.kron(a, b) for a, b in su2(pairs)])).real
    rows_alone_and_shuffled(lambda x: np.concatenate(_magic_factors(x), axis=1), o, 38)


@pytest.mark.parametrize("n", STACKS)
def test_product_of_global_phases(n):
    # decompose's zeta * conj(i^m), on unit-modulus rows
    g = gen(39)
    z = np.exp(1j * g.uniform(-math.pi, math.pi, n))
    mu = np.array([1, 1j, -1, -1j])[g.integers(0, 4, n)]
    stack = np.stack([z, mu], axis=1)
    rows_alone_and_shuffled(lambda r: r[:, 0] * np.conj(r[:, 1]), stack, 40)


@pytest.mark.parametrize("n", STACKS)
def test_slot_quaternions(n):
    # class angles in [0, 2 pi) and unit letters, one row each
    g = gen(41)
    rows = np.concatenate([g.uniform(0.0, math.tau, (n, 3)), unit_quaternions(g, (n, 4)).reshape(n, 16)], axis=1)
    rows_alone_and_shuffled(lambda r: _slot_quaternions(r[:, :3], r[:, 3:].reshape(-1, 4, 4)), rows, 42)

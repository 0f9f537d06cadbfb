"""The stacked compile and reconstruction paths against their one-row cases,
bit for bit.

decompose_many and pulse_angles must give every row what decompose and
lower_to_pulses give it alone, whatever the batch size, the order and the
neighbours of the row, and _sample_su4_many the rows that successive
sample_su4 calls draw from its stream. The exact-output corpus of
test_compile_corpus is run through them in several batch sizes, each angle
row hashed through its GateElement view, and must hash to the same
CORPUS_SHA256.
The linear reconstruction is checked against the one-row Pauli means and
the one-matrix clip, and against a least-squares solve on the executor's
projectors, to rounding; the fidelities against the one-matrix code
written out, the closed-form fidelities against pure states against
state_fidelity to rounding, and the stacked MLE against the same solver
on one table. The public one-table path must give each count table what
the (N, 9, 4) count array core gives its row.
"""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from born import exact_table
from numpy_build import numpy_build
from test_cli import count_calls
from test_compile_corpus import CORPUS_SHA256, NAMED, _dress, _fields, corpus
from test_tomography import random_density

from su4c import (
    CALIBRATED_NOISE,
    TOMOGRAPHY_INPUT_LABELS,
    NotUnitaryError,
    SeededRng,
    decompose,
    decompose_many,
    exact_experiment,
    input_state,
    lower_to_pulses,
    pulse_angles,
    reconstruct_state,
    run_experiments,
    sample_su4,
    state_fidelity,
    verify,
)
from su4c import compiler, tomography
from su4c.circuits import _pulse_angles, _pulses
from su4c.config import DEFAULT_TOL
from su4c.experiment import _ALL_PAULIS, _EFFECTS, _SIGNS, NoiseModel, _outcome_probabilities, _sample_counts
from su4c.haar import _sample_su4_many
from su4c.linalg import _su2_params
from su4c.tomography import (
    _clip_to_density,
    _estimate_states,
    _frequency_rows,
    _linear_estimates,
    _mle_estimates,
    _pure_state_fidelities,
    _state_fidelities,
)

INPUTS = corpus()


def digest(inputs, params, angles) -> str:
    """test_compile_corpus's digest over outputs computed elsewhere, each
    angle row read through its GateElement view."""
    h = hashlib.sha256()
    for u, p, row in zip(inputs, params, angles):
        for out in (p, verify(u, p), _pulses(row)):
            h.update("\n".join(_fields(out)).encode())
            h.update(b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("size", [1, 3, 4, len(INPUTS)])
def test_corpus_in_batches(size):
    params, angles = [], []
    for start in range(0, len(INPUTS), size):
        chunk = decompose_many(np.array(INPUTS[start : start + size]))
        params += chunk
        angles += list(pulse_angles(chunk))
    assert digest(INPUTS, params, angles) == CORPUS_SHA256, numpy_build()


def test_corpus_in_reversed_order():
    params = decompose_many(np.array(INPUTS[::-1]))
    angles = pulse_angles(params)
    assert digest(INPUTS, params[::-1], angles[::-1]) == CORPUS_SHA256, numpy_build()


def same(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("order", [1, -1], ids=["forward", "reversed"])
def test_array_twins_hold_the_object_fields(order):
    # _decompose_arrays and _pulse_angles, which benchmark and process-tomo
    # call, against the objects decompose_many and pulse_angles build, and
    # row for row against the forward stack
    us = np.array(INPUTS[::order])
    classes, letters, phases = compiler._decompose_arrays(us)
    params = decompose_many(us)
    fields = lambda rows: np.array([[float(v) for v in row] for row in rows])  # noqa: E731
    assert same(classes, fields([dataclasses.astuple(p.class_params) for p in params]))
    for k, name in enumerate("abcd"):
        assert same(_su2_params(letters[:, k]), fields([dataclasses.astuple(getattr(p, name)) for p in params]))
    assert same(phases, np.array([p.global_phase for p in params]))
    angles = _pulse_angles(classes, letters)
    # pulse_angles builds each letter's quaternion again from its angles,
    # so the two agree to rounding, modulo 2 pi
    assert np.abs(np.remainder(angles - pulse_angles(params) + math.pi, math.tau) - math.pi).max() < 1e-12
    forward = compiler._decompose_arrays(np.array(INPUTS))
    for got, want in zip((classes, letters, phases, angles), (*forward, _pulse_angles(*forward[:2]))):
        assert same(got, want[::order])


def test_degenerate_rows_do_not_depend_on_neighbours():
    # undressed and dressed named classes (degenerate spectra, the Jacobi
    # polish, tied blocks in the factoring) between Haar draws
    rng = SeededRng(41)
    gen = np.random.default_rng(41)
    named = [*NAMED, _dress(gen, NAMED[1], False), _dress(gen, NAMED[4], True)]
    stack = []
    for u in named:
        stack += [sample_su4(rng), u]
    stack.append(sample_su4(rng))
    for rows in (stack, stack[::-1], stack[1::2]):
        params = decompose_many(np.array(rows))
        for u, p, row in zip(rows, params, pulse_angles(params)):
            alone = decompose(u)
            assert list(_fields(p)) == list(_fields(alone))
            assert list(_fields(_pulses(row))) == list(_fields(lower_to_pulses(alone)))


@pytest.mark.parametrize("n", [1, 2, 5, 16, 37])
def test_stacked_draws_match_one_draw_per_stream(n):
    # row k is the k-th sample_su4 draw of the same stream, and the stream
    # ends where the n draws leave it
    stacked, one = SeededRng(n), SeededRng(n)
    got = _sample_su4_many(stacked, n)
    assert got.shape == (n, 4, 4)
    for k in range(n):
        assert got[k].tobytes() == sample_su4(one).tobytes(), k
    assert stacked.generator.random(4).tobytes() == one.generator.random(4).tobytes()


class TestDecomposeManyBoundary:
    def test_non_unitary_row_is_named(self):
        stack = np.array([sample_su4(SeededRng(k)) for k in range(5)])
        stack[3] *= 1.1
        with pytest.raises(NotUnitaryError, match="row 3 "):
            decompose_many(stack)

    @pytest.mark.parametrize("shape", [(4, 4), (3, 2, 2), (2, 4, 5), (1, 1, 4, 4)])
    def test_other_shapes_raise_value_error(self, shape):
        with pytest.raises(ValueError) as info:
            decompose_many(np.zeros(shape, dtype=complex))
        assert info.type is ValueError

    def test_one_class_spectrum_per_input(self, monkeypatch):
        # the class angles are read from the spectrum the input frames come
        # from, and the representatives' frames are closed form: N rows
        rows = []
        original = compiler._class_spectrum

        def counting(u):
            rows.append(len(u))
            return original(u)

        monkeypatch.setattr(compiler, "_class_spectrum", counting)
        decompose_many([sample_su4(SeededRng(k)) for k in range(5)])
        assert rows == [5]

    def test_empty_stack(self):
        assert decompose_many(np.zeros((0, 4, 4), dtype=complex)) == []

    def test_list_of_matrices(self):
        us = [sample_su4(SeededRng(k)) for k in range(3)]
        assert decompose_many(us) == [decompose(u) for u in us]


def table_frequencies(table):
    """The frequencies (36,) of one count table (9, 4), each setting's
    counts over their total, added left to right."""
    table = np.asarray(table, dtype=float)
    shots = np.cumsum(table, axis=1)[:, -1]
    return (table / shots[:, None]).reshape(36)


def one_matrix_clip(vec):
    """The one-matrix eigenvalue clip that _clip_to_density stacks."""
    m = vec.reshape(4, 4)
    vals, vecs = np.linalg.eigh(0.5 * (m + m.conj().T))
    vals = np.clip(vals, 0.0, None)
    total = float(np.sum(vals))
    return (vecs * (vals / total)) @ vecs.conj().T


def pauli_means(freqs):
    """The Pauli coordinates (N, 16) of the linear estimates of a frequency
    stack (N, 36): each the mean of its estimates over the settings that
    measure it, one stacked product with the sign table."""
    return (freqs[:, None, :] @ _SIGNS)[:, 0] * 4.0 / np.count_nonzero(_SIGNS, axis=0)


def pauli_sums(t):
    """sum_j t_j P_j / 4 (N, 4, 4) of each row of a coordinate stack (N, 16)."""
    return (t[:, None, :] @ (_ALL_PAULIS.reshape(16, 16) / 4.0))[:, 0].reshape(-1, 4, 4)


def one_matrix_linear_freqs(freqs):
    """The linear estimate of one frequency row (36,): its Pauli means
    alone, then the one-matrix clip."""
    return one_matrix_clip(pauli_sums(pauli_means(np.asarray(freqs)[None]))[0])


def lstsq_linear_freqs(freqs):
    """The per-table least-squares solve against the 36 Born rows vec(op^T)
    of the executor's projectors: equal to one_matrix_linear_freqs only to
    rounding."""
    vec, *_ = np.linalg.lstsq(_EFFECTS.reshape(36, 16), np.asarray(freqs, dtype=complex), rcond=None)
    return one_matrix_clip(vec)


def one_matrix_linear(table):
    """The one-matrix linear estimate of one count table (9, 4)."""
    return one_matrix_linear_freqs(table_frequencies(table))


def one_matrix_sqrt(rho):
    vals, vecs = np.linalg.eigh(0.5 * (rho + rho.conj().T))
    cutoff = 16.0 * np.finfo(float).eps * max(float(vals[-1]), 0.0)
    vals = np.where(vals > cutoff, vals, 0.0)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def one_matrix_fidelity(rho1, rho2):
    """state_fidelity of one pair of matrices, written out."""
    norm = np.sum(np.linalg.svd(one_matrix_sqrt(rho1) @ one_matrix_sqrt(rho2), compute_uv=False))
    return min(max(float(norm * norm), 0.0), 1.0)


def mixed_tables():
    """Calibrated 100-shot count tables and exact-probability tables of
    seeded operations, interleaved, with their ideal output states."""
    rng = SeededRng(43)
    us = [sample_su4(rng) for _ in range(8)]
    angles = pulse_angles([decompose(u) for u in us])
    labels = [TOMOGRAPHY_INPUT_LABELS[3 * k % 16] for k in range(8)]
    sampled = run_experiments(angles[:4], labels[:4], CALIBRATED_NOISE, 100, rng.spawn(4))
    exact = [exact_experiment(row, label) for row, label in zip(angles[4:], labels[4:])]
    tables = [t for pair in zip(sampled, exact) for t in pair]
    order = [0, 4, 1, 5, 2, 6, 3, 7]
    ideals = []
    for k in order:
        psi = us[k] @ input_state(labels[k])
        ideals.append(np.outer(psi, psi.conj()))
    return tables, ideals


def test_linear_reconstruction_and_fidelities_match_one_matrix_code():
    tables, ideals = mixed_tables()
    for size in (1, 3, len(tables)):
        for start in range(0, len(tables), size):
            chunk = tables[start : start + size]
            ests = _estimate_states(np.array(chunk, dtype=float), "linear")
            fids = _state_fidelities(ests, np.array(ideals[start : start + size]))
            for k, table in enumerate(chunk):
                want = one_matrix_linear(table)
                assert ests[k].tobytes() == want.tobytes()
                assert np.max(np.abs(want - lstsq_linear_freqs(table_frequencies(table)))) <= 1e-14
                assert ests[k].tobytes() == reconstruct_state(table).tobytes()
                ideal = ideals[start + k]
                assert fids[k] == one_matrix_fidelity(want, ideal)
                assert fids[k] == state_fidelity(ests[k], ideal)


def test_many_random_tables_and_states():
    # enough rows that a rounding difference of a primitive that differs in
    # about 1 case of 1000 would show
    g = np.random.default_rng(44)
    counts = g.multinomial(100, np.full(4, 0.25), size=(2000, 9))
    ests = _linear_estimates(counts)
    for k in range(len(counts)):
        freqs = table_frequencies(counts[k])
        assert ests[k].tobytes() == one_matrix_linear_freqs(freqs).tobytes()
        assert np.max(np.abs(ests[k] - lstsq_linear_freqs(freqs))) <= 1e-14
    half = len(ests) // 2
    fids = _state_fidelities(ests[:half], ests[half:])
    for k in range(half):
        assert fids[k] == one_matrix_fidelity(ests[k], ests[half + k])


@pytest.fixture(scope="module")
def pure_ideal_cases():
    """Estimates of the output states of 160 seeded operations, operation k
    on preparation k % 16 as benchmark stacks them: calibrated 100-shot
    linear and MLE estimates and exact-probability linear estimates; with
    the ideal output vectors U |psi_in>."""
    rng = SeededRng(48)
    us = _sample_su4_many(rng, 160)
    prepared = np.arange(160) % 16
    angles = pulse_angles(decompose_many(us))
    counts = _sample_counts(angles, prepared, CALIBRATED_NOISE, 100, rng.spawn(2)[1])
    exact = _outcome_probabilities(angles, prepared, NoiseModel())
    ests = {
        "calibrated": _estimate_states(counts, "linear"),
        "mle": _estimate_states(counts, "mle"),
        "exact": _estimate_states(exact, "linear"),
    }
    return ests, np.array([u @ input_state(TOMOGRAPHY_INPUT_LABELS[k]) for u, k in zip(us, prepared)])


@pytest.mark.parametrize("kind", ["calibrated", "mle", "exact"])
def test_pure_state_fidelities(pure_ideal_cases, kind):
    # the closed form <psi|rho|psi> is Uhlmann's fidelity against the pure
    # ideal to rounding, and each row's bits are the same alone, in a stack
    # of 3 and in the whole stack
    ests, psis = pure_ideal_cases[0][kind], pure_ideal_cases[1]
    fids = _pure_state_fidelities(ests, psis)
    for k, (est, psi) in enumerate(zip(ests, psis)):
        assert abs(fids[k] - state_fidelity(est, np.outer(psi, psi.conj()))) <= 1e-14, k
    for size in (1, 3):
        for start in range(0, len(ests), size):
            rows = slice(start, start + size)
            got = _pure_state_fidelities(ests[rows], psis[rows])
            assert np.array(got).tobytes() == np.array(fids[rows]).tobytes(), (size, start)


@pytest.mark.parametrize("n", [1, 16, 160])
def test_linear_estimates_match_one_product(n):
    # the estimates are the clip of sum_j t_j P_j / 4 of the Pauli means t,
    # with the means and the operators of all rows one stacked product each
    counts = np.random.default_rng(45 + n).multinomial(100, np.full(4, 0.25), size=(n, 9))
    want = _clip_to_density(pauli_sums(pauli_means(_frequency_rows(counts))))
    assert _linear_estimates(counts).tobytes() == want.tobytes()


def counted(rho, shots, extra=None):
    """The count table of rho with each setting's counts rounded from shots
    times its probabilities; extra = (setting index, outcome) adds one
    count."""
    table = np.round(shots * exact_table(rho))
    if extra is not None:
        table[extra] += 1
    return table


def mle_tables():
    """Count tables whose MLE runs differ in their number of seen outcomes,
    their length and where their maximum lies: calibrated counts at 30, 100
    and 1000 shots, exact probabilities of mixed and of pure states (a
    maximum inside the set and on its boundary), settings with a single
    outcome, 10^6-shot counts of |00> with one stray count, and calibrated
    counts at 2 shots, whose linear estimate, the MLE's start before its
    mixing, is rank-deficient."""
    tables, _ = mixed_tables()
    rng = SeededRng(45)
    us = [sample_su4(rng) for _ in range(4)]
    angles = pulse_angles([decompose(u) for u in us])
    labels = TOMOGRAPHY_INPUT_LABELS[:4]
    for shots in (30, 1000):
        tables += list(run_experiments(angles, labels, CALIBRATED_NOISE, shots, rng.spawn(4)))
    ground = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    states = SeededRng(77)
    mixed = [random_density(states) for _ in range(3)][-1]
    tables += [exact_table(ground), counted(ground, 100), exact_table(mixed)]
    tables.append(counted(ground, 10**6, extra=(1, 0)))
    tables += list(run_experiments(angles[:1], labels[:1], CALIBRATED_NOISE, 2, rng.spawn(1)))
    return tables


def test_mle_reconstruction_matches_one_record_calls():
    # every row of a stacked call gets the bytes of the state, the step
    # count and the certificate it gets alone, in any order and beside any
    # rows; every table is certified, after different numbers of steps
    tables = np.array(mle_tables(), dtype=float)
    assert len({np.count_nonzero(table) for table in tables}) >= 4
    assert np.linalg.eigvalsh(_linear_estimates(tables[-1:]))[0, 0] <= 0.0  # a rank-deficient start
    alone = [_mle_estimates(table[None]) for table in tables]
    for table, fit in zip(tables, alone):
        assert reconstruct_state(table, "mle").tobytes() == fit.states[0].tobytes()
        assert fit.certificates[0] <= DEFAULT_TOL.mle_stop
    assert len({int(fit.steps[0]) for fit in alone}) >= 4
    shuffled = list(np.random.default_rng(46).permutation(len(tables)))
    for order in (range(len(tables)), range(len(tables))[::-1], shuffled):
        stacked = _mle_estimates(tables[list(order)])
        for row, k in enumerate(order):
            for got, want in zip(stacked, alone[k]):
                assert got[row].tobytes() == want[0].tobytes(), (row, k)


def test_one_mle_stack_per_call(monkeypatch):
    # every table reads all 36 outcomes, so tables that saw different
    # numbers of them still iterate as one stack
    ground = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    rng = SeededRng(48)
    angles = pulse_angles([decompose(sample_su4(rng)) for _ in range(3)])
    labels = TOMOGRAPHY_INPUT_LABELS[:3]
    calibrated = run_experiments(angles, labels, CALIBRATED_NOISE, 1000, rng.spawn(3))
    counts = np.array([exact_table(ground), *calibrated, exact_table(ground)])
    assert len({np.count_nonzero(table) for table in counts}) >= 2  # the premise
    calls = count_calls(monkeypatch, tomography._mle_stack)
    _estimate_states(counts, "mle")
    assert [len(args[0]) for args in calls] == [len(counts)]


def public_path_cases():
    """mixed_tables and 29 random 100-shot int64 tables: 37 count tables,
    as given and as one float stack."""
    tables, _ = mixed_tables()
    g = np.random.default_rng(47)
    for p in g.dirichlet(np.ones(4), size=(29, 9)):
        tables.append(np.array([g.multinomial(100, row) for row in p]))
    return tables, np.array(tables, dtype=float)


@pytest.mark.parametrize("method", ["linear", "mle"])
def test_public_path_matches_array_core(method):
    # reconstruct_state(table) is row k of the (N, 9, 4) core, whatever
    # the batch and the order
    given, tables = public_path_cases()
    alone = [reconstruct_state(table, method).tobytes() for table in given]
    for index in (np.arange(len(tables)), np.arange(len(tables))[::-1]):
        for size in (1, 3, 16, 37):
            for start in range(0, len(index), size):
                rows = index[start : start + size]
                ests = _estimate_states(tables[rows], method)
                for k, est in zip(rows, ests):
                    assert est.tobytes() == alone[k], (size, k)


def test_unknown_method_and_empty_list():
    tables, _ = mixed_tables()
    with pytest.raises(ValueError, match="unknown reconstruction method"):
        _estimate_states(np.array(tables, dtype=float), "lsq")
    for method in ("linear", "mle"):
        assert _estimate_states(np.zeros((0, 9, 4)), method).shape == (0, 4, 4)

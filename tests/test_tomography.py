"""State and process reconstruction plus the fidelity metrics.

Statistical thresholds (the > 0.95 and > 0.97 reconstruction floors) were
frozen from pilot runs over larger seed sets; the seeds used here sit well
inside the observed distributions.
"""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from su4c.config import DEFAULT_TOL
from su4c.experiment import (
    CALIBRATED_NOISE,
    MEASUREMENT_SETTINGS,
    TOMOGRAPHY_INPUT_LABELS,
    NoiseModel,
    _EFFECTS,
    _PREPARED_STATES,
    input_state,
    run_experiment,
)
from su4c.haar import SeededRng, sample_su4
from su4c.linalg import nearest_unitary
from su4c import experiment, tomography
from su4c.tomography import (
    _PROBES,
    _born,
    _clip_to_density,
    _mle_estimates,
    _mle_start,
    _apply_process,
    _r_operator,
    entanglement_fidelity,
    mean_fidelity_from_entanglement,
    mean_state_fidelity,
    process_matrix_of_unitary,
    reconstruct_process,
    reconstruct_state,
    state_fidelity,
)
from born import exact_table, setting_probabilities
from oracles import check_density_matrix
from programs import program
from reference_data import M1
from test_cli import count_calls

I4 = np.eye(4, dtype=complex)
E_DEPOL = np.eye(16, dtype=complex) / 4.0  # fully depolarizing process

# The 36 outcome projectors, setting-major, (36, 4, 4): each row of the
# executor's _EFFECTS is vec(op^T) of a Hermitian op, so its conjugate is
# vec(op).
_POVM_STACK = _EFFECTS.conj().reshape(36, 4, 4)


def random_density(rng, rank=4):
    g = rng.generator.standard_normal((4, rank)) + 1j * rng.generator.standard_normal(
        (4, rank)
    )
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def setting_projectors(setting):
    """The four outcome projectors of one setting, (4, 4, 4)."""
    return _POVM_STACK.reshape(9, 4, 4, 4)[MEASUREMENT_SETTINGS.index(tuple(setting))]


def frequencies(counts):
    """One setting's counts divided by their total."""
    return np.asarray(counts, dtype=float) / float(sum(counts))


def raw_linear_inversion(table):
    """Plain least squares with no physicality projection (test oracle)."""
    rows, vals = [], []
    for setting, counts in zip(MEASUREMENT_SETTINGS, table):
        for op, f in zip(setting_projectors(setting), frequencies(counts)):
            rows.append(op.T.reshape(-1))
            vals.append(f)
    sol, *_ = np.linalg.lstsq(np.array(rows), np.array(vals), rcond=None)
    rho = sol.reshape(4, 4)
    return 0.5 * (rho + rho.conj().T)


class TestCheckDensityMatrix:
    def test_accepts_valid(self):
        check_density_matrix(I4 / 4.0)
        check_density_matrix(random_density(SeededRng(1)))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            check_density_matrix(I4)

    def test_rejects_non_hermitian(self):
        m = I4 / 4.0 + 0.01 * np.triu(np.ones((4, 4)), 1)
        with pytest.raises(ValueError):
            check_density_matrix(m)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_density_matrix(np.diag([0.75, 0.75, -0.25, -0.25]).astype(complex))


class TestLinearReconstruction:
    def test_exact_data_inverts_exactly(self):
        rng = SeededRng(347)
        worst = 0.0
        for _ in range(200):
            rho = random_density(rng)
            est = reconstruct_state(exact_table(rho))
            worst = max(worst, float(np.max(np.abs(est - rho))))
        assert worst < 1e-9

    def test_pure_states_invert_too(self):
        rng = SeededRng(349)
        for _ in range(50):
            rho = random_density(rng, rank=1)
            est = reconstruct_state(exact_table(rho))
            assert np.max(np.abs(est - rho)) < 1e-9

    def test_output_is_physical_even_from_noisy_counts(self):
        rng = SeededRng(353)
        for seed in range(20):
            u = sample_su4(rng)
            counts = run_experiment(program(u), ("up", "up"), NoiseModel(), 25, SeededRng(seed))
            est = reconstruct_state(counts)
            check_density_matrix(est, atol=1e-8)

    def test_more_shots_get_closer(self):
        u = sample_su4(SeededRng(359))
        pulses = program(u)
        psi = u @ input_state(("up", "down"))
        target = np.outer(psi, psi.conj())
        med = []
        for shots in (50, 5000):
            fids = []
            for seed in range(15):
                counts = run_experiment(pulses, ("up", "down"), NoiseModel(), shots, SeededRng(seed))
                fids.append(state_fidelity(reconstruct_state(counts), target))
            med.append(float(np.median(fids)))
        assert med[1] > med[0]
        assert med[1] > 0.99

    def test_linear_map_is_the_pseudo_inverse(self, monkeypatch):
        # the unclipped Pauli-mean estimate is the pseudo-inverse of the 36
        # Born rows vec(op^T), built from the executor's projectors, applied
        # to the frequencies; the pseudo-inverse is a table of integers over
        # 36 up to LAPACK's rounding, which the comparison leaves out
        pinv = np.linalg.pinv(_EFFECTS.reshape(36, 16))
        exact = np.rint(36.0 * pinv) / 36.0
        assert np.max(np.abs(pinv - exact)) <= 1e-15
        rng = SeededRng(367)
        tables = [exact_table(random_density(rng)) for _ in range(20)]
        tables += list(rng.generator.multinomial(100, np.full(4, 0.25), size=(20, 9)))
        counts = np.array(tables, dtype=float)
        monkeypatch.setattr(tomography, "_clip_to_density", lambda m: m)
        got = tomography._linear_estimates(counts)
        want = (tomography._frequency_rows(counts) @ exact.T).reshape(-1, 4, 4)
        assert np.max(np.abs(got - want)) <= 1e-15

    @pytest.mark.parametrize("n", [1, 16, 160])
    @pytest.mark.parametrize(
        "noise",
        [NoiseModel(), CALIBRATED_NOISE, NoiseModel(0.3, 0.2, 0.3), NoiseModel(1.0, 1.0, 1.0)],
        ids=["zero", "calibrated", "strong", "full"],
    )
    def test_pauli_means_invert_the_executor(self, monkeypatch, noise, n):
        # the executor and the estimator share one Pauli frame: the unclipped
        # Pauli means of a program's exact outcome probabilities are the
        # executor's Pauli table of its output state, entry for entry
        g = np.random.default_rng(373 + n)
        angles = g.uniform(-2.0 * math.pi, 4.0 * math.pi, size=(n, 32))
        prepared = g.integers(0, 16, size=n)
        tables = experiment._output_tables(angles, prepared, noise).reshape(16, n).T
        probs = experiment._outcome_probabilities(angles, prepared, noise)
        monkeypatch.setattr(tomography, "_clip_to_density", lambda m: m)
        monkeypatch.setattr(tomography, "_operators", lambda t: t)
        assert np.max(np.abs(tomography._linear_estimates(probs) - tables)) <= 1e-14

    def test_import_factors_no_matrix(self):
        # the module tables are built without an SVD, whose LAPACK pages
        # would add about 1.2 MB to the peak memory of importing su4c
        src = str(Path(tomography.__file__).resolve().parents[1])
        code = (
            "import numpy.linalg as la\n"
            "def refuse(*args, **kwargs):\n"
            "    raise AssertionError('factorization at import')\n"
            "la.svd = la.pinv = la.lstsq = refuse\n"
            "import su4c.cli\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        subprocess.run([sys.executable, "-c", code], env=env, check=True)

    def test_missing_setting_rejected(self):
        rho = random_density(SeededRng(367))
        with pytest.raises(ValueError, match=re.escape("(8, 4)")):
            reconstruct_state(exact_table(rho)[:8])

    def test_duplicate_setting_rejected(self):
        # the ZZ row given twice is a tenth row
        table = exact_table(random_density(SeededRng(373)))
        with pytest.raises(ValueError, match=re.escape("(10, 4)")):
            reconstruct_state(np.vstack([table, table[:1]]))

    # the table's own entries in another shape, and one table as a stack
    @pytest.mark.parametrize("method", ["linear", "mle"])
    @pytest.mark.parametrize("shape", [(36,), (4, 9), (1, 9, 4)])
    def test_other_shapes_rejected(self, method, shape):
        table = exact_table(random_density(SeededRng(379)))
        with pytest.raises(ValueError, match=re.escape(f"shape (9, 4), one row per measurement setting, got {shape}")):
            reconstruct_state(table.reshape(shape), method=method)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            reconstruct_state(exact_table(I4 / 4.0), method="bayes")

    # one row of nine with too few or too many counts, a negative or a
    # non-finite count, or no counts: rejected, whatever the method
    @pytest.mark.parametrize("method", ["linear", "mle"])
    @pytest.mark.parametrize(
        "counts",
        [(50, 50), (20, 20, 20, 20, 20), (30, -10, 40, 40), (math.nan, 30, 30, 40),
         (math.inf, 0, 0, 0), (0, 0, 0, 0)],
    )
    def test_malformed_counts_rejected(self, method, counts):
        rows = [(25, 25, 25, 25)] * 9
        rows[5] = counts
        with pytest.raises(ValueError, match="counts must"):
            reconstruct_state(rows, method=method)


class TestMleReconstruction:
    def test_exact_data_close(self):
        # exact probabilities of a full-rank state: the likelihood peaks at
        # that state, inside the set, and the estimate is that state
        rng = SeededRng(379)
        for _ in range(10):
            rho = random_density(rng)
            est = reconstruct_state(exact_table(rho), method="mle")
            assert np.max(np.abs(est - rho)) < 1e-9

    def test_rank_one_exact_state_is_certified(self):
        # a pure state's exact probabilities put the maximum on the boundary
        # of the set, which the barrier path only approaches
        rng = SeededRng(389)
        for _ in range(10):
            rho = random_density(rng, rank=1)
            fit = mle_fit(exact_table(rho))
            assert fit.certificates[0] <= DEFAULT_TOL.mle_stop
            assert fit.steps[0] < DEFAULT_TOL.mle_max_iter
            assert np.linalg.eigvalsh(fit.states[0])[0] > 0.0
            assert state_fidelity(fit.states[0], rho) > 1.0 - 1e-6

    def test_certificate_bounds_the_likelihood_gap(self):
        # lambda_max(R) - 1 at the estimate bounds how much more likely any
        # state is, per shot: here the start, the clipped linear estimate,
        # random states and pure states
        rng = SeededRng(383)
        for seed in range(5):
            table = run_experiment(
                program(sample_su4(rng)), ("up", "up"), NoiseModel(), 40, SeededRng(seed)
            )
            fit = mle_fit(table)
            assert fit.certificates[0] <= DEFAULT_TOL.mle_stop
            ll = per_shot_log_likelihood(fit.states[0], table)
            others = [I4 / 4.0, reconstruct_state(table)]
            others += [random_density(rng, rank) for rank in (1, 2, 4) for _ in range(10)]
            for sigma in others:
                assert per_shot_log_likelihood(sigma, table) <= ll + fit.certificates[0] + 1e-15

    def test_beats_projected_linear_when_raw_is_unphysical(self):
        # at 30 shots the raw inversion has eigenvalues near -0.1; the MLE
        # estimate must be physical and at least as likely as the clipped
        # linear one
        for seed in range(6):
            u = sample_su4(SeededRng(1000 + seed))
            counts = run_experiment(program(u), ("up", "up"), NoiseModel(), 30, SeededRng(seed))
            raw = raw_linear_inversion(counts)
            assert np.linalg.eigvalsh(raw)[0] < -1e-3  # the premise
            lin = reconstruct_state(counts, method="linear")
            mle = reconstruct_state(counts, method="mle")
            assert np.linalg.eigvalsh(mle)[0] > 0.0
            assert per_shot_log_likelihood(mle, counts) >= per_shot_log_likelihood(lin, counts)

    def test_ground_state_fidelity_median(self):
        # 100 shots per setting on the identity circuit; pilot over the same
        # 100 seeds gave median 0.9983, minimum 0.9946
        target = np.zeros((4, 4), dtype=complex)
        target[0, 0] = 1.0
        fids = []
        pulses = program(I4)
        for seed in range(100):
            counts = run_experiment(pulses, ("up", "up"), NoiseModel(), 100, SeededRng(seed))
            fids.append(state_fidelity(reconstruct_state(counts, method="mle"), target))
        assert float(np.median(fids)) > 0.99

    def test_pinned_matrix_state_reconstruction(self):
        # externally tabulated target, prepared from (minus_i, down); pilot
        # median 0.973 at these settings, threshold from the shot-noise study
        u = nearest_unitary(M1)
        pulses = program(u)
        psi = u @ input_state(("minus_i", "down"))
        target = np.outer(psi, psi.conj())
        fids = []
        for seed in range(15):
            counts = run_experiment(pulses, ("minus_i", "down"), NoiseModel(), 100, SeededRng(seed))
            fids.append(state_fidelity(reconstruct_state(counts, method="mle"), target))
        assert float(np.median(fids)) > 0.95

    def test_a_step_rounded_out_of_the_set_is_not_taken(self, monkeypatch):
        # with a margin of 1e-12 a step may end within rounding of the
        # boundary, where an eigenvalue can come out at or below zero; such
        # a step is dropped, and every estimate is still positive definite.
        # Only the solver's own eigh calls are recorded: the clip of the
        # linear estimate sees eigenvalues at or below zero as a matter of
        # course. No step of the first 18 tables leaves the set; steps of
        # the two-shot tables may, and such a row's next step then reaches
        # half as far
        monkeypatch.setattr(tomography, "_BOUNDARY", 1e-12)
        rng = SeededRng(397)
        tables = [exact_table(random_density(rng, rank)) for rank in (1, 2) * 8]
        tables += [mle_case_table("calibrated", 30, seed) for seed in (0, 1)]
        tables.append([(0, 0, 0, 1), (2, 0, 0, 0), (0, 0, 1, 0), (0, 0, 1, 0), (0, 0, 0, 2),
                       (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 2), (0, 0, 0, 2)])
        tables.append([(1, 1, 0, 0), (0, 2, 0, 0), (0, 1, 0, 1), (1, 0, 1, 0), (1, 0, 0, 1),
                       (0, 0, 0, 2), (0, 1, 0, 1), (1, 0, 0, 1), (0, 2, 0, 0)])
        least = []
        eigh, stack = np.linalg.eigh, tomography._mle_stack

        def recording_eigh(m):
            vals, vecs = eigh(m)
            least.append(vals[:, 0].min(initial=1.0))
            return vals, vecs

        def recording_stack(shares, start):
            monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
            return stack(shares, start)

        monkeypatch.setattr(tomography, "_mle_stack", recording_stack)
        fit = _mle_estimates(np.array(tables, dtype=float))
        assert min(least) <= 0.0  # the premise: a step left the set
        assert np.all(np.linalg.eigvalsh(fit.states)[:, 0] > 0.0)
        assert np.all(fit.certificates <= DEFAULT_TOL.mle_stop)


def mle_fit(table):
    """_mle_estimates of one count table (9, 4)."""
    return _mle_estimates(np.asarray(table)[None])


def per_shot_log_likelihood(rho, table):
    """sum_k n_k log p_k / sum_k n_k over the outcomes seen, p_k the Born
    probability of outcome k in rho, summed one setting at a time."""
    total = 0.0
    for setting, counts in zip(MEASUREMENT_SETTINGS, np.asarray(table, dtype=float)):
        for op, n in zip(setting_projectors(setting), counts):
            if n > 0.0:
                total += n * math.log(float(np.real(np.trace(op @ rho))))
    return total / float(np.sum(table))


# Per-outcome reference for the MLE: one trace per outcome, as the kernel
# was written before the projectors were stacked into one matrix, and the
# diluted R rho R iteration (Rehacek et al., PRA 75, 042108, 2007) that the
# package ran before the Newton solver, as an oracle of the maximum.
ORACLE_FLOOR = 1e-12  # least probability inside the oracle's sums
ORACLE_STOP = 1e-10  # the oracle stops once a step gains less than this
ORACLE_MAX_ITER = 2000


def loop_frequencies(table):
    """(outcome projectors, frequencies, weight) per setting."""
    return [
        (setting_projectors(s), frequencies(counts), float(sum(counts)))
        for s, counts in zip(MEASUREMENT_SETTINGS, table)
    ]


def loop_log_likelihood(rho, data, floor):
    total = 0.0
    for ops, freqs, weight in data:
        for op, f in zip(ops, freqs):
            if f <= 0.0:
                continue
            p = max(float(np.real(np.trace(op @ rho))), floor)
            total += weight * f * math.log(p)
    return total


def loop_r_operator(rho, data, floor):
    total_weight = sum(weight for _, _, weight in data)
    r = np.zeros((4, 4), dtype=complex)
    for ops, freqs, weight in data:
        for op, f in zip(ops, freqs):
            if f <= 0.0:
                continue
            p = max(float(np.real(np.trace(op @ rho))), floor)
            r += (weight * f / p) * op
    return r / total_weight


def loop_mle_estimate(data):
    floor = ORACLE_FLOOR
    rho = np.eye(4, dtype=complex) / 4.0
    ll = loop_log_likelihood(rho, data, floor)
    eye = np.eye(4, dtype=complex)
    for _ in range(ORACLE_MAX_ITER):
        r = loop_r_operator(rho, data, floor)
        cand = r @ rho @ r
        cand = cand / np.trace(cand).real
        ll_cand = loop_log_likelihood(cand, data, floor)
        eps = 1.0
        while ll_cand < ll and eps > 1e-12:
            eps *= 0.5
            op = eye + eps * r
            cand = op @ rho @ op.conj().T
            cand = cand / np.trace(cand).real
            ll_cand = loop_log_likelihood(cand, data, floor)
        if ll_cand < ll:
            break
        rho = 0.5 * (cand + cand.conj().T)
        if ll_cand - ll < ORACLE_STOP:
            break
        ll = ll_cand
    return _clip_to_density(rho[None])[0]


def pauli_coordinates(rho):
    """x with rho = (I + sum_j x_j P_j) / 4: x_j = Tr(rho P_j)."""
    return np.array([np.trace(rho @ p).real for p in tomography._PAULIS])


GROUND = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)

# calibrated-noise counts at three shot counts, and exact probabilities
MLE_CASES = [("calibrated", shots, seed) for shots in (30, 100, 1000) for seed in (0, 1)]
MLE_CASES += [("exact", 1, seed) for seed in (0, 1)]


def mle_case_table(kind, shots, seed):
    if kind == "exact":
        return exact_table(random_density(SeededRng(600 + seed)))
    u = sample_su4(SeededRng(500 + seed))
    label = TOMOGRAPHY_INPUT_LABELS[seed]
    return run_experiment(program(u), label, CALIBRATED_NOISE, shots, SeededRng(seed))


def assert_born_and_r_operator_match_loop(rho, table, loop):
    """The Born table's probabilities of rho and the R operator the
    certificate reads against the per-outcome loop."""
    probs = _born(pauli_coordinates(rho)[None])[0]
    want = [float(np.real(np.trace(op @ rho))) for ops, _, _ in loop for op in ops]
    assert np.max(np.abs(probs - want)) <= 1e-15
    shares = table.reshape(1, 36) / np.sum(table)
    r = _r_operator(shares / probs)[0]
    expected = loop_r_operator(rho, loop, 0.0)
    assert np.max(np.abs(r - expected)) <= 1e-12 * np.max(np.abs(expected))


class TestMleMatchesLoop:
    @pytest.mark.parametrize("kind,shots,seed", MLE_CASES)
    def test_likelihood_and_r_operator(self, kind, shots, seed):
        table = mle_case_table(kind, shots, seed)
        loop = loop_frequencies(table)
        rng = SeededRng(700 + seed)
        # positive definite states, the only ones the solver visits
        states = [
            I4 / 4.0,
            random_density(rng),
            0.9 * random_density(rng, rank=1) + 0.1 * I4 / 4.0,
            reconstruct_state(table, method="mle"),
        ]
        for rho in states:
            assert_born_and_r_operator_match_loop(rho, table, loop)
            want = loop_log_likelihood(rho, loop, 0.0) / np.sum(table)
            assert abs(per_shot_log_likelihood(rho, table) - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("kind,shots,seed", MLE_CASES)
    def test_estimate(self, kind, shots, seed):
        # the certified estimate is at least as likely as the R rho R
        # oracle's, up to the certificate bound
        table = mle_case_table(kind, shots, seed)
        fit = mle_fit(table)
        assert fit.certificates[0] <= DEFAULT_TOL.mle_stop
        oracle = loop_mle_estimate(loop_frequencies(table))
        ll = per_shot_log_likelihood(fit.states[0], table)
        assert ll >= per_shot_log_likelihood(oracle, table) - DEFAULT_TOL.mle_stop

    def test_unobserved_outcomes_add_nothing(self):
        # |00> counted exactly: ZZ never sees 01, 10 or 11. An outcome not
        # seen has share 0, so it adds exactly nothing to the R operator,
        # and the estimate of those counts is certified next to |00>
        table = np.array([np.round(100.0 * setting_probabilities(GROUND, s)) for s in MEASUREMENT_SETTINGS])
        loop = loop_frequencies(table)
        assert np.count_nonzero(table) < 36  # the premise
        assert_born_and_r_operator_match_loop(0.99 * GROUND + 0.01 * I4 / 4.0, table, loop)
        fit = mle_fit(table)
        assert fit.certificates[0] <= DEFAULT_TOL.mle_stop
        assert state_fidelity(fit.states[0], GROUND) > 0.99

    @pytest.mark.parametrize("kind,shots,seed", MLE_CASES)
    def test_start_is_the_mixed_linear_estimate(self, kind, shots, seed):
        # the Pauli coordinates of the linear estimate mixed with
        # _START_MIX of I/4, every eigenvalue at least _START_MIX / 4
        table = mle_case_table(kind, shots, seed)
        mix = tomography._START_MIX
        want = (1.0 - mix) * reconstruct_state(table, method="linear") + mix * I4 / 4.0
        start = _mle_start(np.asarray(table, dtype=float)[None])[0]
        assert np.abs(start - pauli_coordinates(want)).max() <= 1e-15
        assert np.linalg.eigvalsh(tomography._states(start[None]))[0, 0] >= mix / 4.0 - 1e-15


def _single_outcome(pick):
    outcome, count = pick
    return tuple(count if k == outcome else 0 for k in range(4))


# one setting's counts: any table with at least one count, or a single
# non-zero outcome
setting_counts = st.one_of(
    st.tuples(*[st.integers(0, 200)] * 4).filter(lambda c: sum(c) > 0),
    st.tuples(st.integers(0, 3), st.integers(1, 200)).map(_single_outcome),
)


# one or two shots a setting, each a single outcome: the linear estimate is
# rank-deficient and the start sits on the mixing floor. A fixed first mu of
# 1e-4 stops here uncertified at 100 steps; the first mu read from the
# start's certificate does not
FEW_SHOT_TABLE = [(1, 0, 0, 0), (0, 0, 0, 1)] + [(1, 0, 0, 0)] * 4 + [(0, 0, 0, 1), (1, 0, 0, 0), (2, 0, 0, 0)]


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.lists(setting_counts, min_size=9, max_size=9))
@example(FEW_SHOT_TABLE)
def test_mle_on_count_tables(table):
    table = np.array(table, dtype=float)
    fit = mle_fit(table)
    assert fit.certificates[0] <= DEFAULT_TOL.mle_stop
    assert fit.steps[0] < DEFAULT_TOL.mle_max_iter
    check_density_matrix(fit.states[0], atol=1e-8)
    assert np.linalg.eigvalsh(fit.states[0])[0] > 0.0
    # twice in one stacked call, beside a neighbour, with the bytes it
    # gets alone
    neighbour = exact_table(GROUND)
    stacked = _mle_estimates(np.array([table, neighbour, table]))
    for k in (0, 2):
        for got, want in zip(stacked, fit):
            assert got[k].tobytes() == want[0].tobytes()


def random_cp_matrix(rng):
    """A random completely positive process matrix of trace 4."""
    g = rng.generator.standard_normal((16, 16)) + 1j * rng.generator.standard_normal((16, 16))
    e = g @ g.conj().T
    return 4.0 * e / np.trace(e).real


# Each axis's +1 and -1 eigenstates: the probe oracle's own table, apart
# from the package's.
_AXIS_EIGENSTATES = {
    "x": (
        np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0),
        np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0),
    ),
    "y": (
        np.array([1.0, 1.0j], dtype=complex) / math.sqrt(2.0),
        np.array([1.0, -1.0j], dtype=complex) / math.sqrt(2.0),
    ),
    "z": (
        np.array([1.0, 0.0], dtype=complex),
        np.array([0.0, 1.0], dtype=complex),
    ),
}


def probe_states():
    """The 36 Pauli product eigenstates as np.outer density matrices: axes
    x, y, z per qubit, +1 eigenstate before -1."""
    probes = []
    for axis0 in ("x", "y", "z"):
        for axis1 in ("x", "y", "z"):
            for v0 in _AXIS_EIGENSTATES[axis0]:
                for v1 in _AXIS_EIGENSTATES[axis1]:
                    psi = np.kron(v0, v1)
                    probes.append(np.outer(psi, psi.conj()))
    return np.array(probes)


def probe_loop_mean_state_fidelity(e1, e2):
    """mean_state_fidelity as the np.mean of 36 state_fidelity calls."""
    blocks = [np.asarray(e, dtype=complex).reshape(4, 4, 4, 4) for e in (e1, e2)]
    fids = []
    for rho in probe_states():
        out1, out2 = (np.einsum("ij,ikjl->kl", rho, b) for b in blocks)
        fids.append(state_fidelity(out1, out2))
    return float(np.mean(fids))


class TestStateFidelity:
    def test_self_fidelity(self):
        rng = SeededRng(389)
        for rank in (1, 2, 4):
            rho = random_density(rng, rank=rank)
            assert state_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_pure_states(self):
        a = np.zeros((4, 4), dtype=complex)
        a[0, 0] = 1.0
        b = np.zeros((4, 4), dtype=complex)
        b[3, 3] = 1.0
        assert state_fidelity(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_known_overlap(self):
        up = np.array([1, 0], dtype=complex)
        plus = np.array([1, 1], dtype=complex) / math.sqrt(2.0)
        rho1 = np.outer(kron_vec := np.kron(up, up), kron_vec.conj())
        psi2 = np.kron(plus, up)
        rho2 = np.outer(psi2, psi2.conj())
        assert state_fidelity(rho1, rho2) == pytest.approx(0.5, abs=1e-12)

    def test_pure_against_maximally_mixed(self):
        rho = random_density(SeededRng(397), rank=1)
        assert state_fidelity(rho, I4 / 4.0) == pytest.approx(0.25, abs=1e-12)

    def test_symmetric(self):
        rng = SeededRng(401)
        for _ in range(20):
            r1, r2 = random_density(rng), random_density(rng, rank=2)
            assert abs(state_fidelity(r1, r2) - state_fidelity(r2, r1)) < 1e-12

    def test_against_matrix_square_root_oracle(self):
        rng = SeededRng(409)
        for _ in range(50):
            r1, r2 = random_density(rng), random_density(rng)
            s = scipy.linalg.sqrtm(r1)
            oracle = float(np.real(np.trace(scipy.linalg.sqrtm(s @ r2 @ s))) ** 2)
            assert abs(state_fidelity(r1, r2) - oracle) < 1e-9


class TestProcessMatrix:
    def test_identity_channel_layout(self):
        e = process_matrix_of_unitary(I4)
        blocks = e.reshape(4, 4, 4, 4)
        for i in range(4):
            for j in range(4):
                expected = np.zeros((4, 4))
                expected[i, j] = 1.0
                assert np.array_equal(blocks[i, :, j, :], expected)

    def test_layout_formula(self):
        u = sample_su4(SeededRng(419))
        e = process_matrix_of_unitary(u).reshape(4, 4, 4, 4)
        for i, k, j, l in ((0, 1, 2, 3), (3, 3, 0, 0), (1, 0, 1, 2)):
            assert e[i, k, j, l] == pytest.approx(u[k, i] * np.conj(u[l, j]), abs=1e-15)

    def test_apply_is_conjugation(self):
        rng = SeededRng(421)
        for _ in range(20):
            u = sample_su4(rng)
            rho = random_density(rng)
            out = _apply_process(process_matrix_of_unitary(u), rho)
            assert np.max(np.abs(out - u @ rho @ u.conj().T)) < 1e-12

    def test_unitary_purity(self):
        u = sample_su4(SeededRng(431))
        e = process_matrix_of_unitary(u)
        assert np.real(np.trace(e @ e)) / 16.0 == pytest.approx(1.0, abs=1e-12)

    def test_depolarizing_constant(self):
        rho = random_density(SeededRng(433))
        assert np.max(np.abs(_apply_process(E_DEPOL, rho) - I4 / 4.0)) < 1e-15


class TestReconstructProcess:
    @staticmethod
    def exact_outputs(u):
        """U rho U^dagger of each preparation, (16, 4, 4)."""
        outputs = []
        for label in TOMOGRAPHY_INPUT_LABELS:
            psi = input_state(label)
            outputs.append(u @ np.outer(psi, psi.conj()) @ u.conj().T)
        return np.array(outputs)

    def test_exact_data_inverts(self):
        rng = SeededRng(439)
        worst = 0.0
        for _ in range(20):
            u = sample_su4(rng)
            e = reconstruct_process(self.exact_outputs(u))
            worst = max(worst, float(np.max(np.abs(e - process_matrix_of_unitary(u)))))
        assert worst < 1e-9

    def test_one_table_and_one_solve(self, monkeypatch):
        # the estimators read the 36 outcome projectors through the
        # experiment's real sign table, holding no complex table of them;
        # the 36 probe states of mean_state_fidelity are the one complex
        # stack of 36. All 16 blocks come from one least-squares solve
        arrays = {name: v for name, v in vars(tomography).items() if isinstance(v, np.ndarray)}
        assert not any(np.shares_memory(v, _EFFECTS) for v in arrays.values())
        complex_36 = {name for name, v in arrays.items() if np.iscomplexobj(v) and 36 in v.shape}
        assert complex_36 == {"_PROBES", "_PROBE_VECTORS"}
        outputs = self.exact_outputs(sample_su4(SeededRng(443)))
        solves = count_calls(monkeypatch, np.linalg.lstsq)
        contractions = count_calls(monkeypatch, np.tensordot)
        reconstruct_process(outputs)
        assert (len(solves), len(contractions)) == (1, 0)

    def test_one_sign_table(self):
        # tomography inverts the Paulis and the sign table the experiment's
        # Born rule reads, not copies of them
        assert np.shares_memory(tomography._SIGNS, experiment._SIGNS)
        assert np.shares_memory(tomography._ALL_PAULIS, experiment._ALL_PAULIS)

    def test_depolarizing_channel_inverts(self):
        e = reconstruct_process([I4 / 4.0] * len(TOMOGRAPHY_INPUT_LABELS))
        assert np.max(np.abs(e - E_DEPOL)) < 1e-9

    def test_too_few_pairs(self):
        u = sample_su4(SeededRng(443))
        with pytest.raises(ValueError, match=re.escape("got shape (10, 4, 4)")):
            reconstruct_process(self.exact_outputs(u)[:10])

    def test_misshapen_outputs_rejected(self):
        # the 16 outputs' entries in any other shape are not the stack
        outputs = self.exact_outputs(sample_su4(SeededRng(443)))
        for shape in ((16, 16), (16, 2, 8), (1, 16, 4, 4), (4, 4, 4, 4)):
            with pytest.raises(ValueError, match=re.escape(f"(16, 4, 4) stack, got shape {shape}")):
                reconstruct_process(outputs.reshape(shape))

    def test_preparations_span_the_operator_space(self):
        # the fixed preparations are independent, so the one solve is
        # determined; no input can make it degenerate
        assert np.linalg.matrix_rank(_PREPARED_STATES.reshape(16, 16)) == 16

    def test_cp_projection_clips_negative_part(self):
        # finite shots leave the raw estimate slightly non positive
        pulses = program(sample_su4(SeededRng(457)))
        streams = SeededRng(0).spawn(16)
        outputs = [
            reconstruct_state(run_experiment(pulses, label, NoiseModel(), 200, srng))
            for label, srng in zip(TOMOGRAPHY_INPUT_LABELS, streams)
        ]
        unclipped = reconstruct_process(outputs, cp_projection=False)
        clipped = reconstruct_process(outputs, cp_projection=True)
        assert np.linalg.eigvalsh(unclipped)[0] < -1e-6
        assert np.linalg.eigvalsh(clipped)[0] > -1e-10
        # both keep trace preservation: partial trace over the output leg is I
        for e in (unclipped, clipped):
            pt = np.einsum("ikjk->ij", e.reshape(4, 4, 4, 4))
            assert np.max(np.abs(pt - I4)) < 1e-9

    def test_sampled_process_tomography_fidelity(self):
        # noiseless circuit, 1000 shots per setting, MLE states; 20-seed
        # pilot gave minimum 0.979, median 0.985
        for seed in range(2):
            u = sample_su4(SeededRng(2000 + seed))
            pulses = program(u)
            streams = SeededRng(seed).spawn(16)
            outputs = [
                reconstruct_state(run_experiment(pulses, label, NoiseModel(), 1000, srng), method="mle")
                for label, srng in zip(TOMOGRAPHY_INPUT_LABELS, streams)
            ]
            e_hat = reconstruct_process(outputs)
            f = entanglement_fidelity(e_hat, process_matrix_of_unitary(u))
            assert f > 0.97


class TestFidelityMetrics:
    def test_entanglement_fidelity_self(self):
        u = sample_su4(SeededRng(461))
        e = process_matrix_of_unitary(u)
        assert entanglement_fidelity(e, e) == pytest.approx(1.0, abs=1e-12)

    def test_identity_versus_depolarizing(self):
        e_i = process_matrix_of_unitary(I4)
        assert entanglement_fidelity(e_i, E_DEPOL) == pytest.approx(1.0 / 16.0, abs=1e-12)

    def test_partial_depolarizing_mixture(self):
        u = sample_su4(SeededRng(463))
        e_u = process_matrix_of_unitary(u)
        e_mix = 0.8 * e_u + 0.2 * E_DEPOL
        assert entanglement_fidelity(e_u, e_mix) == pytest.approx(0.8125, abs=1e-12)

    def test_trace_overlap_formula_for_unitaries(self):
        rng = SeededRng(467)
        for _ in range(50):
            u, v = sample_su4(rng), sample_su4(rng)
            f = entanglement_fidelity(
                process_matrix_of_unitary(u), process_matrix_of_unitary(v)
            )
            expected = abs(np.trace(u.conj().T @ v)) ** 2 / 16.0
            assert abs(f - expected) < 1e-12

    def test_mean_state_fidelity_identical_maps(self):
        u = sample_su4(SeededRng(479))
        e = process_matrix_of_unitary(u)
        assert mean_state_fidelity(e, e) == pytest.approx(1.0, abs=1e-12)

    def test_mean_state_fidelity_against_depolarizing(self):
        u = sample_su4(SeededRng(487))
        e = process_matrix_of_unitary(u)
        assert mean_state_fidelity(e, E_DEPOL) == pytest.approx(0.25, abs=1e-12)

    def test_probes_are_the_outer_products(self):
        assert _PROBES.tobytes() == probe_states().tobytes()

    def test_mean_state_fidelity_matches_36_calls(self):
        # bit for bit what one state_fidelity call per probe state gives
        rng = SeededRng(499)
        for _ in range(4):
            e_u = process_matrix_of_unitary(sample_su4(rng))
            e1, e2 = random_cp_matrix(rng), random_cp_matrix(rng)
            for a, b in ((e1, e2), (e_u, e1), (e2, e_u), (e_u, 0.7 * e_u + 0.3 * E_DEPOL)):
                assert mean_state_fidelity(a, b) == probe_loop_mean_state_fidelity(a, b)

    def test_average_formula_on_aligned_mixtures(self):
        # the linear relation between the 36-state average and the
        # entanglement fidelity holds exactly when the second channel is the
        # first one depolarized; random mixing weights
        rng = SeededRng(491)
        for _ in range(10):
            u = sample_su4(rng)
            e_u = process_matrix_of_unitary(u)
            w = rng.generator.uniform()
            e_mix = w * e_u + (1.0 - w) * E_DEPOL
            fbar = mean_state_fidelity(e_u, e_mix)
            f_e = entanglement_fidelity(e_u, e_mix)
            assert abs(fbar - mean_fidelity_from_entanglement(f_e)) < 1e-9

    def test_conversion_formula_value(self):
        assert mean_fidelity_from_entanglement(0.73) == pytest.approx(0.784, abs=1e-12)

    def test_conversion_formula_shape(self):
        # fixed points: perfect process stays perfect
        assert mean_fidelity_from_entanglement(1.0) == pytest.approx(1.0, abs=1e-15)

"""State and process reconstruction plus the fidelity metrics.

Statistical thresholds (the > 0.95 and > 0.97 reconstruction floors) were
frozen from pilot runs over larger seed sets; the seeds used here sit well
inside the observed distributions.
"""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from su4c.config import DEFAULT_TOL
from su4c.experiment import (
    CALIBRATED_NOISE,
    MEASUREMENT_SETTINGS,
    TOMOGRAPHY_INPUT_LABELS,
    MeasurementRecord,
    NoiseModel,
    input_state,
    run_experiment,
    setting_probabilities,
)
from su4c.haar import SeededRng, sample_su4
from su4c.linalg import kron, nearest_unitary
from su4c.tomography import (
    _POVM_STACK,
    _clip_to_density,
    _collect_frequencies,
    _log_likelihood,
    _mle_estimate,
    _r_operator,
    apply_process,
    check_density_matrix,
    entanglement_fidelity,
    mean_fidelity_from_entanglement,
    mean_state_fidelity,
    process_matrix_of_unitary,
    reconstruct_process,
    reconstruct_state,
    state_fidelity,
)
from programs import program
from reference_data import M1

I4 = np.eye(4, dtype=complex)
E_DEPOL = np.eye(16, dtype=complex) / 4.0  # fully depolarizing process


def random_density(rng, rank=4):
    g = rng.generator.standard_normal((4, rank)) + 1j * rng.generator.standard_normal(
        (4, rank)
    )
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def setting_projectors(setting):
    """The four outcome projectors of one setting, (4, 4, 4)."""
    return _POVM_STACK.reshape(9, 4, 4, 4)[MEASUREMENT_SETTINGS.index(tuple(setting))]


def exact_records(rho):
    return [
        MeasurementRecord(s, tuple(float(p) for p in setting_probabilities(rho, s)), 1)
        for s in MEASUREMENT_SETTINGS
    ]


def raw_linear_inversion(records):
    """Plain least squares with no physicality projection (test oracle)."""
    rows, vals = [], []
    for rec in records:
        for op, f in zip(setting_projectors(rec.setting), rec.frequencies()):
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
            est = reconstruct_state(exact_records(rho))
            worst = max(worst, float(np.max(np.abs(est - rho))))
        assert worst < 1e-9

    def test_pure_states_invert_too(self):
        rng = SeededRng(349)
        for _ in range(50):
            rho = random_density(rng, rank=1)
            est = reconstruct_state(exact_records(rho))
            assert np.max(np.abs(est - rho)) < 1e-9

    def test_output_is_physical_even_from_noisy_counts(self):
        rng = SeededRng(353)
        for seed in range(20):
            u = sample_su4(rng)
            rec = run_experiment(program(u), ("up", "up"), NoiseModel(), 25, SeededRng(seed))
            est = reconstruct_state(rec)
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
                rec = run_experiment(pulses, ("up", "down"), NoiseModel(), shots, SeededRng(seed))
                fids.append(state_fidelity(reconstruct_state(rec), target))
            med.append(float(np.median(fids)))
        assert med[1] > med[0]
        assert med[1] > 0.99

    def test_missing_setting_rejected(self):
        rho = random_density(SeededRng(367))
        with pytest.raises(ValueError):
            reconstruct_state(exact_records(rho)[:8])

    def test_duplicate_setting_rejected(self):
        records = exact_records(random_density(SeededRng(373)))
        records[1] = MeasurementRecord(("Z", "Z"), records[0].counts, records[0].shots)
        with pytest.raises(ValueError):
            reconstruct_state(records)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            reconstruct_state(exact_records(I4 / 4.0), method="bayes")


class TestMleReconstruction:
    def test_exact_data_close(self):
        rng = SeededRng(379)
        for _ in range(10):
            rho = random_density(rng)
            est = reconstruct_state(exact_records(rho), method="mle")
            assert np.max(np.abs(est - rho)) < 1e-3

    def test_likelihood_never_decreases(self):
        rng = SeededRng(383)
        for seed in range(5):
            rec = run_experiment(
                program(sample_su4(rng)), ("up", "up"), NoiseModel(), 40, SeededRng(seed)
            )
            trace = []
            _mle_estimate(_collect_frequencies(rec), DEFAULT_TOL, trace=trace)
            steps = np.diff(np.array(trace))
            assert len(trace) >= 2
            assert np.all(steps >= -1e-12)

    def test_beats_projected_linear_when_raw_is_unphysical(self):
        # at 30 shots the raw inversion has eigenvalues near -0.1; the MLE
        # estimate must be physical and at least as likely as the clipped
        # linear one
        for seed in range(6):
            u = sample_su4(SeededRng(1000 + seed))
            rec = run_experiment(program(u), ("up", "up"), NoiseModel(), 30, SeededRng(seed))
            raw = raw_linear_inversion(rec)
            assert np.linalg.eigvalsh(raw)[0] < -1e-3  # the premise
            lin = reconstruct_state(rec, method="linear")
            mle = reconstruct_state(rec, method="mle")
            assert np.linalg.eigvalsh(mle)[0] > -1e-10
            data = _collect_frequencies(rec)
            floor = DEFAULT_TOL.prob_floor
            assert _log_likelihood(mle, data, floor) >= _log_likelihood(lin, data, floor) - 1e-9

    def test_ground_state_fidelity_median(self):
        # 100 shots per setting on the identity circuit; pilot over the same
        # 100 seeds gave median 0.9983, minimum 0.9946
        target = np.zeros((4, 4), dtype=complex)
        target[0, 0] = 1.0
        fids = []
        pulses = program(I4)
        for seed in range(100):
            rec = run_experiment(pulses, ("up", "up"), NoiseModel(), 100, SeededRng(seed))
            fids.append(state_fidelity(reconstruct_state(rec, method="mle"), target))
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
            rec = run_experiment(pulses, ("minus_i", "down"), NoiseModel(), 100, SeededRng(seed))
            fids.append(state_fidelity(reconstruct_state(rec, method="mle"), target))
        assert float(np.median(fids)) > 0.95


# Per-outcome reference for the MLE kernel: one trace per outcome, as the
# kernel was written before the projectors were stacked into one matrix.


def loop_frequencies(records):
    """(outcome projectors, frequencies, weight) per setting."""
    by_setting = {tuple(rec.setting): rec for rec in records}
    return [
        (setting_projectors(s), by_setting[s].frequencies(), float(sum(by_setting[s].counts)))
        for s in MEASUREMENT_SETTINGS
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


def loop_mle_estimate(data, tol, trace=None):
    floor = tol.prob_floor
    rho = np.eye(4, dtype=complex) / 4.0
    ll = loop_log_likelihood(rho, data, floor)
    if trace is not None:
        trace.append(ll)
    eye = np.eye(4, dtype=complex)
    for _ in range(tol.mle_max_iter):
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
        if trace is not None:
            trace.append(ll_cand)
        if ll_cand - ll < tol.mle_stop:
            ll = ll_cand
            break
        ll = ll_cand
    return _clip_to_density(rho)


GROUND = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)

# calibrated-noise records at three shot counts, and exact probabilities
MLE_CASES = [("calibrated", shots, seed) for shots in (30, 100, 1000) for seed in (0, 1)]
MLE_CASES += [("exact", 1, seed) for seed in (0, 1)]


def mle_case_records(kind, shots, seed):
    if kind == "exact":
        return exact_records(random_density(SeededRng(600 + seed)))
    u = sample_su4(SeededRng(500 + seed))
    label = TOMOGRAPHY_INPUT_LABELS[seed]
    return run_experiment(program(u), label, CALIBRATED_NOISE, shots, SeededRng(seed))


def assert_likelihood_matches_loop(rho, data, loop, floor):
    expected = loop_log_likelihood(rho, loop, floor)
    assert abs(_log_likelihood(rho, data, floor) - expected) <= 1e-12 * abs(expected)


class TestMleMatchesLoop:
    @pytest.mark.parametrize("kind,shots,seed", MLE_CASES)
    def test_likelihood_and_r_operator(self, kind, shots, seed):
        records = mle_case_records(kind, shots, seed)
        data, loop = _collect_frequencies(records), loop_frequencies(records)
        floor = DEFAULT_TOL.prob_floor
        rng = SeededRng(700 + seed)
        # the ground state and the raw inversion put some seen outcomes at
        # or below zero probability, where the floor decides the value
        states = [
            I4 / 4.0,
            random_density(rng),
            random_density(rng, rank=1),
            GROUND,
            raw_linear_inversion(records),
            reconstruct_state(records),
        ]
        for rho in states:
            assert_likelihood_matches_loop(rho, data, loop, floor)
            expected = loop_r_operator(rho, loop, floor)
            gap = np.max(np.abs(_r_operator(rho, data, floor) - expected))
            assert gap <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("kind,shots,seed", MLE_CASES)
    def test_estimate(self, kind, shots, seed):
        records = mle_case_records(kind, shots, seed)
        trace, loop_trace = [], []
        got = _mle_estimate(_collect_frequencies(records), DEFAULT_TOL, trace=trace)
        expected = loop_mle_estimate(loop_frequencies(records), DEFAULT_TOL, loop_trace)
        gap = np.max(np.abs(got - expected))
        if len(trace) == len(loop_trace):
            assert gap <= 1e-12
        else:
            # the stop test ll_cand - ll < mle_stop sits on rounding, so the
            # two may accept one step more or less
            assert abs(len(trace) - len(loop_trace)) == 1
            assert gap <= 1e-6

    def test_unobserved_outcomes_add_nothing(self):
        # |00> counted exactly: ZZ never sees 01, 10 or 11, and the state
        # gives them probability 0, so without a floor those outcomes must
        # still contribute nothing rather than 0 * log(0)
        records = [
            MeasurementRecord(s, tuple(np.round(100.0 * setting_probabilities(GROUND, s))), 100)
            for s in MEASUREMENT_SETTINGS
        ]
        data, loop = _collect_frequencies(records), loop_frequencies(records)
        assert np.isfinite(_log_likelihood(GROUND, data, 0.0))
        assert_likelihood_matches_loop(GROUND, data, loop, 0.0)
        r = _r_operator(GROUND, data, 0.0)
        assert np.max(np.abs(r - loop_r_operator(GROUND, loop, 0.0))) <= 1e-12


def _single_outcome(pick):
    outcome, count = pick
    return tuple(count if k == outcome else 0 for k in range(4))


# one setting's counts: any table with at least one count, or a single
# non-zero outcome
setting_counts = st.one_of(
    st.tuples(*[st.integers(0, 200)] * 4).filter(lambda c: sum(c) > 0),
    st.tuples(st.integers(0, 3), st.integers(1, 200)).map(_single_outcome),
)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.lists(setting_counts, min_size=9, max_size=9))
def test_mle_on_count_tables(table):
    records = [
        MeasurementRecord(s, tuple(float(c) for c in counts), sum(counts))
        for s, counts in zip(MEASUREMENT_SETTINGS, table)
    ]
    data, loop = _collect_frequencies(records), loop_frequencies(records)
    floor = DEFAULT_TOL.prob_floor
    for rho in (I4 / 4.0, GROUND, reconstruct_state(records)):
        assert_likelihood_matches_loop(rho, data, loop, floor)
    trace = []
    est = _mle_estimate(data, DEFAULT_TOL, trace=trace)
    check_density_matrix(est, atol=1e-8)
    assert np.all(np.diff(trace) >= 0.0)


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
            out = apply_process(process_matrix_of_unitary(u), rho)
            assert np.max(np.abs(out - u @ rho @ u.conj().T)) < 1e-12

    def test_unitary_purity(self):
        u = sample_su4(SeededRng(431))
        e = process_matrix_of_unitary(u)
        assert np.real(np.trace(e @ e)) / 16.0 == pytest.approx(1.0, abs=1e-12)

    def test_depolarizing_constant(self):
        rho = random_density(SeededRng(433))
        assert np.max(np.abs(apply_process(E_DEPOL, rho) - I4 / 4.0)) < 1e-15


class TestReconstructProcess:
    @staticmethod
    def exact_pairs(u):
        pairs = []
        for label in TOMOGRAPHY_INPUT_LABELS:
            psi = input_state(label)
            rho_in = np.outer(psi, psi.conj())
            pairs.append((label, u @ rho_in @ u.conj().T))
        return pairs

    def test_exact_data_inverts(self):
        rng = SeededRng(439)
        worst = 0.0
        for _ in range(20):
            u = sample_su4(rng)
            e = reconstruct_process(self.exact_pairs(u))
            worst = max(worst, float(np.max(np.abs(e - process_matrix_of_unitary(u)))))
        assert worst < 1e-9

    def test_depolarizing_channel_inverts(self):
        pairs = [(label, I4 / 4.0) for label in TOMOGRAPHY_INPUT_LABELS]
        e = reconstruct_process(pairs)
        assert np.max(np.abs(e - E_DEPOL)) < 1e-9

    def test_too_few_pairs(self):
        u = sample_su4(SeededRng(443))
        with pytest.raises(ValueError):
            reconstruct_process(self.exact_pairs(u)[:10])

    def test_degenerate_preparations_rejected(self):
        rho = random_density(SeededRng(449))
        pairs = [(("up", "up"), rho)] * 16  # rank-1 preparation set
        with pytest.raises(ValueError):
            reconstruct_process(pairs)

    def test_cp_projection_clips_negative_part(self):
        # finite shots leave the raw estimate slightly non positive
        pulses = program(sample_su4(SeededRng(457)))
        streams = SeededRng(0).spawn(16)
        pairs = []
        for label, srng in zip(TOMOGRAPHY_INPUT_LABELS, streams):
            rec = run_experiment(pulses, label, NoiseModel(), 200, srng)
            pairs.append((label, reconstruct_state(rec)))
        unclipped = reconstruct_process(pairs, cp_projection=False)
        clipped = reconstruct_process(pairs, cp_projection=True)
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
            pairs = []
            for label, srng in zip(TOMOGRAPHY_INPUT_LABELS, streams):
                rec = run_experiment(pulses, label, NoiseModel(), 1000, srng)
                pairs.append((label, reconstruct_state(rec, method="mle")))
            e_hat = reconstruct_process(pairs)
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

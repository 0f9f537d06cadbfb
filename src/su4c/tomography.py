"""State and process tomography for two qubits, plus fidelity measures.

State reconstruction consumes the nine-setting counts of the experiment
module (an (N, 9, 4) array; record lists at the public boundary) and shares
its prerotation convention, so the POVM elements here are by construction
the ones the counts were drawn from.

The process matrix convention: a channel E acting on two qubits is stored
as the 16x16 block matrix whose (i, j) block (rows 4i..4i+3, columns
4j..4j+3, zero-based) is E(|i><j|). Equivalently this is the unnormalized
Choi matrix, so complete positivity is positivity of the stored matrix and
trace preservation fixes the partial trace of its diagonal blocks.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .experiment import (
    MEASUREMENT_SETTINGS,
    MeasurementRecord,
    _EFFECTS,
    _PREPARED_STATES,
    _preparation_index,
    _product_states,
)
from .linalg import _as_complex, _kron

__all__ = [
    "reconstruct_state",
    "state_fidelity",
    "process_matrix_of_unitary",
    "apply_process",
    "reconstruct_process",
    "entanglement_fidelity",
    "mean_state_fidelity",
    "mean_fidelity_from_entanglement",
]


# The 36 outcome projectors op, setting-major, as a (36, 16) matrix of rows
# vec(op^T), so that Tr(op rho) = row . vec(rho) and all 36 Born
# probabilities of rho are one matrix-vector product: a read-only view of
# the experiment's own table, which the counts were drawn from.
_POVM_ROWS = _EFFECTS.reshape(36, 16)


# The linear estimate of a frequency row f (36,) is vec(rho) = _LINEAR_MAP f,
# the least-squares solution against _POVM_ROWS. Every entry of the
# pseudo-inverse is an integer over 36, so the map is that integer table. It
# stays in C order: a row's sum runs along memory, so the order sets its bits.
_LINEAR_MAP = np.rint(36.0 * np.linalg.pinv(_POVM_ROWS)) / 36.0 + 0.0  # + 0.0 drops signed zeros
_LINEAR_MAP.flags.writeable = False


def _count_table(counts, shape: tuple) -> "np.ndarray | None":
    """counts as a float array of shape, or None unless every entry is a
    finite count >= 0 and every row has a positive total."""
    try:
        c = np.array(counts, dtype=float)
    except (TypeError, ValueError):
        return None
    ok = c.shape == shape and np.all((c >= 0.0) & (c < np.inf)) and np.all(c.sum(axis=-1) > 0.0)
    return c if ok else None


def _count_array(records_list: Sequence[Sequence[MeasurementRecord]]) -> np.ndarray:
    """The counts (N, 9, 4) of each list of records, in MEASUREMENT_SETTINGS
    order; every list must hold all nine settings exactly once, each with
    four finite counts >= 0 and a positive total."""
    ordered = []
    for records in records_list:
        seen = {}
        for rec in records:
            setting = (rec.setting[0], rec.setting[1])
            if setting not in MEASUREMENT_SETTINGS:
                raise ValueError(f"unknown measurement setting {setting}")
            if setting in seen:
                raise ValueError(f"duplicate measurement setting {setting}")
            seen[setting] = rec
        missing = [s for s in MEASUREMENT_SETTINGS if s not in seen]
        if missing:
            raise ValueError(f"records missing settings {missing}")
        ordered += [seen[s] for s in MEASUREMENT_SETTINGS]
    counts = _count_table([rec.counts for rec in ordered] or np.zeros((0, 4)), (len(ordered), 4))
    if counts is None:  # name the first bad record
        bad = next(rec for rec in ordered if _count_table(rec.counts, (4,)) is None)
        raise ValueError(
            f"record {bad.setting} has counts {bad.counts!r}, "
            "not four finite counts >= 0 with a positive total"
        )
    return counts.reshape(-1, 9, 4)


def _frequency_rows(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The frequencies (N, 36) of a count array (N, 9, 4) in _POVM_ROWS
    order and the shots (N, 9) of each setting."""
    counts = np.asarray(counts, dtype=float)
    shots = counts.sum(axis=-1)
    return (counts / shots[..., None]).reshape(-1, 36), shots


def _clip_to_density(m: np.ndarray) -> np.ndarray:
    """A density matrix from each row of an (N, 4, 4) stack: hermitize,
    clip negative eigenvalues to 0, renormalize the trace. Not the nearest
    density matrix."""
    h = 0.5 * (m + m.conj().swapaxes(-1, -2))
    vals, vecs = np.linalg.eigh(h)
    vals = np.clip(vals, 0.0, None)
    totals = np.sum(vals, axis=1)
    if np.any(totals <= 0.0):
        raise ValueError("reconstruction collapsed to the zero matrix")
    return (vecs * (vals / totals[:, None])[:, None, :]) @ vecs.conj().swapaxes(-1, -2)


def _linear_estimates(counts: np.ndarray) -> np.ndarray:
    """Linear estimates of the records of a count array (N, 9, 4): the
    fixed pseudo-inverse _LINEAR_MAP applied to each frequency row, then
    the batched clip. The map is an elementwise product and a sum over
    each row's own axis, with no BLAS call, so a row's bits depend neither
    on the batch nor on the BLAS thread count."""
    freqs, _ = _frequency_rows(counts)
    vecs = np.empty((len(freqs), 16), dtype=complex)
    for first in range(0, len(freqs), 16):  # a (16, 16, 36) product at a time
        block = freqs[first : first + 16]
        vecs[first : first + 16] = (block[:, None, :] * _LINEAR_MAP).sum(axis=-1)
    return _clip_to_density(vecs.reshape(-1, 4, 4))


# The functions below take one record (rho (4, 4), weights and floors
# (36,)) or a stack (rho (B, 4, 4), weights and floors (B, 36)) and read
# all 36 outcomes of _POVM_ROWS; an outcome a record did not see has weight
# 0. Every product is a matmul whose slices are the gemv, dot or gemm of the
# one-record call, so a stacked record gets the bits it gets alone;
# tests/test_batch_primitives.py pins each.


def _outcome_floors(weights: np.ndarray, floor: float) -> np.ndarray:
    """The least probability of each outcome: floor where it has weight, 1
    where it has none, so that an outcome not seen adds exactly nothing to
    a log-likelihood or an R operator at any floor, 0 included."""
    return np.where(weights > 0.0, floor, 1.0)


def _probabilities(rho: np.ndarray, floors: np.ndarray) -> np.ndarray:
    """Born probabilities of the 36 outcomes, each raised to its floor."""
    born = (_POVM_ROWS @ rho.reshape(*rho.shape[:-2], 16, 1))[..., 0].real
    return np.maximum(born, floors)


def _log_likelihood(rho: np.ndarray, weights: np.ndarray, floors: np.ndarray) -> np.ndarray:
    logs = np.log(_probabilities(rho, floors))
    return (weights[..., None, :] @ logs[..., None])[..., 0, 0]


def _r_operator(
    rho: np.ndarray, weights: np.ndarray, total_weight, floors: np.ndarray
) -> np.ndarray:
    """sum_k coeff_k op_k over the 36 outcomes, divided by total_weight (a
    float, or (B, 1, 1) for a stack): every projector op is Hermitian, so
    its flattened form is the conjugate of its row vec(op^T)."""
    coeffs = weights / _probabilities(rho, floors)
    return np.conj(coeffs[..., None, :] @ _POVM_ROWS).reshape(rho.shape) / total_weight


def _normalized(m: np.ndarray) -> np.ndarray:
    """Each matrix of a stack divided by the real part of its trace."""
    return m / m.trace(axis1=-2, axis2=-1).real[..., None, None]


def _mle_estimates(
    counts: np.ndarray, tol: Tolerances, traces: "Sequence[list] | None" = None
) -> np.ndarray:
    """MLE state of each record of a count array (N, 9, 4), as an (N, 4, 4)
    stack. traces, if given, holds one list per record, which gets the
    log-likelihood of the start and of every accepted step."""
    freqs, shots = _frequency_rows(counts)
    weights = np.repeat(shots, 4, axis=-1) * freqs
    totals = shots.sum(axis=-1).reshape(-1, 1, 1)
    return _clip_to_density(_mle_stack(weights, totals, tol, traces))


def _mle_stack(
    weights: np.ndarray, totals: np.ndarray, tol: Tolerances, traces: "Sequence[list] | None"
) -> np.ndarray:
    """The diluted R rho R iteration on a stack of records, given their
    outcome weights (B, 36) and total weights (B, 1, 1), unclipped. A
    record leaves the active stack when its gain falls below tol.mle_stop,
    when no dilution of its step ascends, or at tol.mle_max_iter steps; it
    keeps its last ascending state."""
    floors = _outcome_floors(weights, tol.prob_floor)
    eye = np.eye(4, dtype=complex)
    out = np.empty((len(weights), 4, 4), dtype=complex)
    active = np.arange(len(out))  # stack rows still iterating
    rho = np.repeat(eye[None] / 4.0, len(out), axis=0)
    ll = _log_likelihood(rho, weights, floors)
    if traces is not None:
        for trace, value in zip(traces, ll.tolist()):
            trace.append(value)
    for _ in range(tol.mle_max_iter):
        r = _r_operator(rho, weights, totals, floors)
        cand = _normalized(r @ rho @ r)
        ll_cand = _log_likelihood(cand, weights, floors)
        fell = ll_cand < ll
        falling = np.count_nonzero(fell)
        if falling:
            # shrink toward the identity direction until the step ascends;
            # all rows still descending share the same eps
            eps = 1.0
            low = fell.nonzero()[0]
            while low.size and eps > 1e-12:
                eps *= 0.5
                op = eye + eps * r[low]
                diluted = _normalized(op @ rho[low] @ op.conj().swapaxes(-1, -2))
                cand[low] = diluted
                ll_cand[low] = _log_likelihood(diluted, weights[low], floors[low])
                low = low[ll_cand[low] < ll[low]]
            fell = ll_cand < ll
            falling = np.count_nonzero(fell)
        herm = 0.5 * (cand + cand.conj().swapaxes(-1, -2))
        rho = np.where(fell[:, None, None], rho, herm) if falling else herm
        if traces is not None:
            for k in (~fell).nonzero()[0].tolist():
                traces[active[k]].append(float(ll_cand[k]))
        done = fell | (ll_cand - ll < tol.mle_stop)
        ll = ll_cand
        if np.count_nonzero(done):
            out[active[done]] = rho[done]
            keep = ~done
            active, rho, ll = active[keep], rho[keep], ll[keep]
            weights, floors, totals = weights[keep], floors[keep], totals[keep]
            if not active.size:
                return out
    out[active] = rho
    return out


def reconstruct_state(
    records: Sequence[MeasurementRecord],
    method: str = "linear",
    tol: Tolerances = DEFAULT_TOL,
) -> np.ndarray:
    """Density matrix from counts over the nine measurement settings.

    method "linear": the least-squares inversion of the Born equations,
    applied as one fixed pseudo-inverse, then its negative eigenvalues
    clipped to 0 and the trace renormalized, which gives a density matrix
    but not the nearest one.
    method "mle": maximum likelihood by iterated R rho R updates, with the
    step diluted toward the identity whenever it would lower the
    likelihood, so the log-likelihood is non-decreasing.
    """
    return _estimate_states(_count_array([records]), method, tol)[0]


def _estimate_states(counts: np.ndarray, method: str, tol: Tolerances) -> np.ndarray:
    """The estimated states (N, 4, 4) of a count array (N, 9, 4)."""
    if method == "linear":
        return _linear_estimates(counts)
    if method == "mle":
        return _mle_estimates(counts, tol)
    raise ValueError(f"unknown reconstruction method {method!r}")


def _psd_sqrt(rho: np.ndarray) -> np.ndarray:
    """Square root of each row of an (N, 4, 4) stack of PSD matrices."""
    vals, vecs = np.linalg.eigh(0.5 * (rho + rho.conj().swapaxes(-1, -2)))
    # eigenvalues below the solver's own resolution are zero in disguise;
    # letting them through puts sqrt(eps)-sized junk into the root
    cutoff = 16.0 * np.finfo(float).eps * np.maximum(vals[:, -1], 0.0)
    vals = np.where(vals > cutoff[:, None], vals, 0.0)
    return (vecs * np.sqrt(vals)[:, None, :]) @ vecs.conj().swapaxes(-1, -2)


def state_fidelity(rho1: np.ndarray, rho2: np.ndarray) -> float:
    """Uhlmann fidelity [Tr sqrt(sqrt(rho1) rho2 sqrt(rho1))]^2.

    Evaluated as the squared nuclear norm of sqrt(rho1) sqrt(rho2), which
    is the same quantity but avoids square roots of eigenvalues that are
    zero up to rounding."""
    return float(_state_fidelities(_as_complex(rho1)[None], _as_complex(rho2)[None])[0])


def _state_fidelities(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """state_fidelity(a[k], b[k]) for each row of two (N, 4, 4) stacks."""
    s1 = _psd_sqrt(a)
    s2 = _psd_sqrt(b)
    norms = np.sum(np.linalg.svd(s1 @ s2, compute_uv=False), axis=1)
    return np.clip(norms**2, 0.0, 1.0)


def _pure_state_fidelities(rhos: np.ndarray, psis: np.ndarray) -> list[float]:
    """state_fidelity(rhos[k], outer(psis[k], psis[k].conj())) for each row
    of an (N, 4, 4) stack of states and an (N, 4) stack of unit vectors, to
    rounding, in closed form: against a pure state, Uhlmann's fidelity is
    <psi|rho|psi>.

    Written as elementwise products and four-term sums over each row's own
    axes, with no BLAS call, so a row's bits depend neither on the stack nor
    on the BLAS thread count."""
    terms = rhos * psis[:, None, :]
    images = terms[..., 0] + terms[..., 1] + terms[..., 2] + terms[..., 3]  # rho psi
    terms = psis.conj() * images
    overlaps = (terms[:, 0] + terms[:, 1] + terms[:, 2] + terms[:, 3]).real
    return np.clip(overlaps, 0.0, 1.0).tolist()


def process_matrix_of_unitary(u: np.ndarray) -> np.ndarray:
    """Block process matrix of rho -> U rho U^dag."""
    m = _as_complex(u)
    blocks = np.einsum("ki,lj->ikjl", m, m.conj())
    return np.ascontiguousarray(blocks.reshape(16, 16))


def apply_process(e: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Channel output sum_ij rho[i, j] E(|i><j|), of one state or of each
    state of an (N, 4, 4) stack."""
    blocks = np.asarray(e, dtype=complex).reshape(4, 4, 4, 4)
    return np.einsum("...ij,ikjl->...kl", np.asarray(rho, dtype=complex), blocks)


def reconstruct_process(
    pairs: Sequence[tuple],
    cp_projection: bool = True,
) -> np.ndarray:
    """Process matrix from reconstructed outputs of spanning preparations.

    pairs: (input label, output density matrix) for preparations that span
    the operator space, normally the 16 labels in TOMOGRAPHY_INPUT_LABELS.
    Each output is linear in its input, so all 16 blocks E(|i><j|) are one
    least-squares solve against the prepared inputs. The result is then
    hermitized and shifted onto the trace-preserving set; with cp_projection
    a clip of the negative part (complete positivity) and that shift then
    alternate until the clip has nothing left to do, or for at most 200
    rounds, which is not reported. On exact data of a unitary channel each
    step is a no-op.
    """
    if len(pairs) < 16:
        raise ValueError("need at least 16 input/output pairs")
    x = _PREPARED_STATES[[_preparation_index(label) for label, _ in pairs]].reshape(-1, 16)
    outs = np.stack([_as_complex(rho_out) for _, rho_out in pairs])
    if outs.shape[1:] != (4, 4):
        raise ValueError(f"each output must be a 4x4 matrix, got shape {outs.shape[1:]}")
    outs = outs.reshape(-1, 16)
    # row 4i + j of blocks is vec E(|i><j|)
    blocks, _, rank, _ = np.linalg.lstsq(x, outs, rcond=None)
    if rank < 16:
        raise ValueError("input preparations do not span the operator space")
    e = blocks.reshape(4, 4, 4, 4).swapaxes(1, 2).reshape(16, 16)
    e = 0.5 * (e + e.conj().T)
    e = _tp_correct(e)
    if cp_projection:
        # alternate the PSD clip with the trace-preservation shift, each the
        # orthogonal projection onto its set: the pair lands on some CPTP
        # matrix, not the nearest one, and a run cut at 200 rounds returns
        # where it stopped without saying so. Exact data breaks out at the
        # first check.
        for _ in range(200):
            vals, vecs = np.linalg.eigh(e)
            if vals[0] > -1e-12:
                break
            e = (vecs * np.clip(vals, 0.0, None)) @ vecs.conj().T
            e = _tp_correct(e)
    return e


_I4 = np.eye(4, dtype=complex)


def _tp_correct(e: np.ndarray) -> np.ndarray:
    """Shift onto the trace-preserving set: block partial trace equals I."""
    tr = np.einsum("ikjk->ij", e.reshape(4, 4, 4, 4))
    return e + _kron(_I4 - tr, _I4) / 4.0


def entanglement_fidelity(e1: np.ndarray, e2: np.ndarray) -> float:
    """Overlap Tr(E1 E2) / 16 of two process matrices.

    For unitary channels this equals |Tr(U^dag V)|^2 / 16.
    """
    val = np.trace(_as_complex(e1) @ _as_complex(e2)) / 16.0
    if abs(val.imag) > 1e-6:
        raise ValueError("process overlap has a large imaginary part")
    return float(val.real)


# The 36 products of single-qubit Pauli eigenstates as a (36, 4, 4) stack
# of density matrices, fixed order: axes x, y, z per qubit, +1 eigenstate
# before -1.
_AXES = (("plus", "minus"), ("plus_i", "minus_i"), ("up", "down"))
_, _PROBES = _product_states(
    [(a, b) for axis0 in _AXES for axis1 in _AXES for a in axis0 for b in axis1]
)


def mean_state_fidelity(e1: np.ndarray, e2: np.ndarray) -> float:
    """Average output-state fidelity over the 36 Pauli product eigenstates."""
    return float(_state_fidelities(apply_process(e1, _PROBES), apply_process(e2, _PROBES)).mean())


_DIM = 4  # Hilbert-space dimension of two qubits


def mean_fidelity_from_entanglement(f_e: float) -> float:
    """Haar-average two-qubit state fidelity implied by f_e."""
    return (_DIM * f_e + 1.0) / (_DIM + 1.0)

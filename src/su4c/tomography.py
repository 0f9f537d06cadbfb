"""State and process tomography for two qubits, plus fidelity measures.

State reconstruction consumes the nine-setting measurement records produced
by the experiment module and shares its prerotation convention, so the
POVM elements here are by construction the ones the counts were drawn from.

The process matrix convention: a channel E acting on two qubits is stored
as the 16x16 block matrix whose (i, j) block (rows 4i..4i+3, columns
4j..4j+3, zero-based) is E(|i><j|). Equivalently this is the unnormalized
Choi matrix, so complete positivity is positivity of the stored matrix and
trace preservation fixes the partial trace of its diagonal blocks.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .experiment import (
    MEASUREMENT_SETTINGS,
    MeasurementRecord,
    _SETTING_FRAMES,
    input_state,
)
from .linalg import _as_complex, check_density_matrix

__all__ = [
    "check_density_matrix",
    "reconstruct_state",
    "state_fidelity",
    "process_matrix_of_unitary",
    "apply_process",
    "reconstruct_process",
    "entanglement_fidelity",
    "mean_state_fidelity",
    "mean_fidelity_from_entanglement",
]


# The 36 outcome projectors, setting-major, as a (36, 4, 4) stack and as a
# (36, 16) matrix of rows vec(op^T), so that Tr(op rho) = row . vec(rho) and
# all 36 Born probabilities of rho are one matrix-vector product. Outcome k
# of a setting with frame W projects onto W^dagger |k>, whose conjugate is
# row k of W.
_POVM_STACK = np.array([np.outer(w[k].conj(), w[k]) for w in _SETTING_FRAMES for k in range(4)])
_POVM_ROWS = np.ascontiguousarray(_POVM_STACK.transpose(0, 2, 1).reshape(36, 16))
_POVM_STACK.flags.writeable = False
_POVM_ROWS.flags.writeable = False


class _Frequencies(NamedTuple):
    """Nine records stacked in _POVM_STACK order. The likelihood terms keep
    only the outcomes that occurred, each weighted by its record's shot
    count."""

    freqs: np.ndarray  # (36,) every outcome, for the linear estimate
    rows: np.ndarray  # (n, 16) rows of _POVM_ROWS of the outcomes seen
    ops: np.ndarray  # (n, 16) their projectors, flattened
    weights: np.ndarray  # (n,) record weight times frequency
    total_weight: float


def _collect_frequencies(records: Sequence[MeasurementRecord]) -> _Frequencies:
    """Stacked frequencies and weights; all nine settings must be present
    exactly once."""
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
    ordered = [seen[s] for s in MEASUREMENT_SETTINGS]
    freqs = np.concatenate([rec.frequencies() for rec in ordered])
    shots = [float(sum(rec.counts)) for rec in ordered]
    keep = freqs > 0.0
    return _Frequencies(
        freqs=freqs,
        rows=_POVM_ROWS[keep],
        ops=_POVM_STACK[keep].reshape(-1, 16),
        weights=(np.repeat(shots, 4) * freqs)[keep],
        total_weight=sum(shots),
    )


def _clip_to_density(m: np.ndarray) -> np.ndarray:
    """Nearest-in-spirit physical state: hermitize, drop negative
    eigenvalues, renormalize the trace."""
    h = 0.5 * (m + m.conj().T)
    vals, vecs = np.linalg.eigh(h)
    vals = np.clip(vals, 0.0, None)
    total = float(np.sum(vals))
    if total <= 0.0:
        raise ValueError("reconstruction collapsed to the zero matrix")
    return (vecs * (vals / total)) @ vecs.conj().T


def _linear_estimate(data: _Frequencies) -> np.ndarray:
    vec, *_ = np.linalg.lstsq(
        _POVM_ROWS, np.asarray(data.freqs, dtype=complex), rcond=None
    )
    return _clip_to_density(vec.reshape(4, 4))


def _probabilities(rho: np.ndarray, data: _Frequencies, floor: float) -> np.ndarray:
    """Born probabilities of the outcomes seen, floored."""
    return np.maximum((data.rows @ rho.reshape(16)).real, floor)


def _log_likelihood(rho: np.ndarray, data: _Frequencies, floor: float) -> float:
    return float(data.weights @ np.log(_probabilities(rho, data, floor)))


def _r_operator(rho: np.ndarray, data: _Frequencies, floor: float) -> np.ndarray:
    coeffs = data.weights / _probabilities(rho, data, floor)
    return (coeffs @ data.ops).reshape(4, 4) / data.total_weight


def _mle_estimate(
    data: _Frequencies, tol: Tolerances, trace: "list | None" = None
) -> np.ndarray:
    floor = tol.prob_floor
    rho = np.eye(4, dtype=complex) / 4.0
    ll = _log_likelihood(rho, data, floor)
    if trace is not None:
        trace.append(ll)
    eye = np.eye(4, dtype=complex)
    for _ in range(tol.mle_max_iter):
        r = _r_operator(rho, data, floor)
        cand = r @ rho @ r
        cand = cand / np.trace(cand).real
        ll_cand = _log_likelihood(cand, data, floor)
        eps = 1.0
        while ll_cand < ll and eps > 1e-12:
            # shrink toward the identity direction until the step ascends
            eps *= 0.5
            op = eye + eps * r
            cand = op @ rho @ op.conj().T
            cand = cand / np.trace(cand).real
            ll_cand = _log_likelihood(cand, data, floor)
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


def reconstruct_state(
    records: Sequence[MeasurementRecord],
    method: str = "linear",
    tol: Tolerances = DEFAULT_TOL,
) -> np.ndarray:
    """Density matrix from counts over the nine measurement settings.

    method "linear": least-squares inversion of the Born equations followed
    by a projection to the physical set (eigenvalue clip + renormalize).
    method "mle": maximum likelihood by iterated R rho R updates, with the
    step diluted toward the identity whenever it would lower the
    likelihood, so the log-likelihood is non-decreasing.
    """
    data = _collect_frequencies(records)
    if method == "linear":
        return _linear_estimate(data)
    if method == "mle":
        return _mle_estimate(data, tol)
    raise ValueError(f"unknown reconstruction method {method!r}")


def _psd_sqrt(rho: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(0.5 * (rho + rho.conj().T))
    # eigenvalues below the solver's own resolution are zero in disguise;
    # letting them through puts sqrt(eps)-sized junk into the root
    cutoff = 16.0 * np.finfo(float).eps * max(float(vals[-1]), 0.0)
    vals = np.where(vals > cutoff, vals, 0.0)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def state_fidelity(rho1: np.ndarray, rho2: np.ndarray) -> float:
    """Uhlmann fidelity [Tr sqrt(sqrt(rho1) rho2 sqrt(rho1))]^2.

    Evaluated as the squared nuclear norm of sqrt(rho1) sqrt(rho2), which
    is the same quantity but avoids square roots of eigenvalues that are
    zero up to rounding."""
    s1 = _psd_sqrt(_as_complex(rho1))
    s2 = _psd_sqrt(_as_complex(rho2))
    f = float(np.sum(np.linalg.svd(s1 @ s2, compute_uv=False)) ** 2)
    return min(max(f, 0.0), 1.0)


def process_matrix_of_unitary(u: np.ndarray) -> np.ndarray:
    """Block process matrix of rho -> U rho U^dag."""
    m = _as_complex(u)
    blocks = np.einsum("ki,lj->ikjl", m, m.conj())
    return np.ascontiguousarray(blocks.reshape(16, 16))


def apply_process(e: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Channel output sum_ij rho[i, j] E(|i><j|)."""
    blocks = np.asarray(e, dtype=complex).reshape(4, 4, 4, 4)
    return np.einsum("ij,ikjl->kl", np.asarray(rho, dtype=complex), blocks)


def reconstruct_process(
    pairs: Sequence[tuple],
    cp_projection: bool = True,
    tol: Tolerances = DEFAULT_TOL,
) -> np.ndarray:
    """Process matrix from reconstructed outputs of spanning preparations.

    pairs: (input label, output density matrix) for preparations that span
    the operator space, normally the 16 labels in TOMOGRAPHY_INPUT_LABELS.
    The linear inversion is followed by hermitization, an optional clip of
    the negative part (complete positivity), and a trace-preservation
    correction. On exact data of a unitary channel all three are no-ops.
    """
    if len(pairs) < 16:
        raise ValueError("need at least 16 input/output pairs")
    ins = []
    outs = []
    for label, rho_out in pairs:
        psi = input_state(label)
        ins.append(np.outer(psi, psi.conj()).reshape(-1))
        outs.append(_as_complex(rho_out))
    x = np.asarray(ins)
    if np.linalg.matrix_rank(x, tol=1e-8) < 16:
        raise ValueError("input preparations do not span the operator space")
    # coefficients expressing each |i><j| in the prepared inputs
    coeff, *_ = np.linalg.lstsq(x.T, np.eye(16, dtype=complex), rcond=None)
    e = np.zeros((16, 16), dtype=complex)
    stacked = np.stack(outs)
    for i in range(4):
        for j in range(4):
            block = np.tensordot(coeff[:, 4 * i + j], stacked, axes=(0, 0))
            e[4 * i : 4 * i + 4, 4 * j : 4 * j + 4] = block
    e = 0.5 * (e + e.conj().T)
    e = _tp_correct(e)
    if cp_projection:
        # alternate the PSD clip with the trace-preservation shift: each is
        # the orthogonal projection onto its constraint set, so the pair
        # converges to a matrix satisfying both. Exact data breaks out at
        # the first check.
        for _ in range(200):
            vals, vecs = np.linalg.eigh(e)
            if vals[0] > -1e-12:
                break
            e = (vecs * np.clip(vals, 0.0, None)) @ vecs.conj().T
            e = _tp_correct(e)
    return e


def _tp_correct(e: np.ndarray) -> np.ndarray:
    """Shift onto the trace-preserving set: block partial trace equals I."""
    tr = np.einsum("ikjk->ij", e.reshape(4, 4, 4, 4))
    delta = np.eye(4, dtype=complex) - tr
    return e + np.kron(delta, np.eye(4, dtype=complex)) / 4.0


def entanglement_fidelity(e1: np.ndarray, e2: np.ndarray) -> float:
    """Overlap Tr(E1 E2) / 16 of two process matrices.

    For unitary channels this equals |Tr(U^dag V)|^2 / 16.
    """
    val = np.trace(_as_complex(e1) @ _as_complex(e2)) / 16.0
    if abs(val.imag) > 1e-6:
        raise ValueError("process overlap has a large imaginary part")
    return float(val.real)


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


def _probe_states() -> list[np.ndarray]:
    """The 36 products of single-qubit Pauli eigenstates, fixed order:
    axes x, y, z per qubit, +1 eigenstate before -1."""
    probes = []
    for axis0 in ("x", "y", "z"):
        for axis1 in ("x", "y", "z"):
            for v0 in _AXIS_EIGENSTATES[axis0]:
                for v1 in _AXIS_EIGENSTATES[axis1]:
                    probes.append(np.kron(v0, v1))
    return probes


_PROBES = _probe_states()


def mean_state_fidelity(e1: np.ndarray, e2: np.ndarray) -> float:
    """Average output-state fidelity over the 36 Pauli product eigenstates."""
    total = 0.0
    for psi in _PROBES:
        rho = np.outer(psi, psi.conj())
        total += state_fidelity(apply_process(e1, rho), apply_process(e2, rho))
    return total / len(_PROBES)


def mean_fidelity_from_entanglement(f_e: float, dim: int = 4) -> float:
    """Haar-average state fidelity implied by an entanglement fidelity."""
    return (dim * f_e + 1.0) / (dim + 1.0)

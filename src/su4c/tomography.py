"""State and process tomography for two qubits, plus fidelity measures.

State reconstruction consumes the nine-setting counts of the experiment
module, a (9, 4) table per state with rows in MEASUREMENT_SETTINGS order
and the package's stacks (N, 9, 4) inside, and shares its prerotation
convention, so the outcome projectors here, read through the executor's
sign table, are by construction the ones the counts were drawn from.
Process reconstruction consumes the 16 output states of the preparations
in TOMOGRAPHY_INPUT_LABELS order, a (16, 4, 4) stack.

The process matrix convention: a channel E acting on two qubits is stored
as the 16x16 block matrix whose (i, j) block (rows 4i..4i+3, columns
4j..4j+3, zero-based) is E(|i><j|). Equivalently this is the unnormalized
Choi matrix, so complete positivity is positivity of the stored matrix and
trace preservation fixes the partial trace of its diagonal blocks.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .config import DEFAULT_TOL
from .experiment import _ALL_PAULIS, _PREPARED_STATES, _SIGNS, _product_states
from .linalg import _as_complex, _kron, _require_shape

__all__ = [
    "reconstruct_state",
    "state_fidelity",
    "process_matrix_of_unitary",
    "reconstruct_process",
    "entanglement_fidelity",
    "mean_state_fidelity",
    "mean_fidelity_from_entanglement",
]


# Every operator the estimators build is held as its 16 real Pauli
# coordinates t, the operator sum_j t_j P_j / 4 over the experiment's Paulis
# _ALL_PAULIS, identity first; outcome projector op_k has as coordinates
# row k of the sign table _SIGNS[k, j] = Tr(op_k P_j) that the experiment's
# Born rule reads. _PAULI_MATRICES holds the rows vec(P_j) / 4.
_PAULI_MATRICES = _ALL_PAULIS.reshape(16, 16) / 4.0

# The number of settings that measure each P_j, 9, 3 or 1, each with four
# outcomes.
_SETTING_COUNTS = np.count_nonzero(_SIGNS, axis=0) // 4


def _operators(t: np.ndarray) -> np.ndarray:
    """The operator sum_j t_j P_j / 4 (B, 4, 4) of each row of a stack (B,
    16) of real Pauli coordinates, identity first: one stacked product,
    whose slices are the calls one row makes alone."""
    return (t[:, None, :] @ _PAULI_MATRICES)[:, 0].reshape(-1, 4, 4)


def _count_table(counts) -> np.ndarray:
    """counts as a float (9, 4) table; ValueError unless every entry is a
    finite count >= 0 and every row has a positive total."""
    try:
        c = np.array(counts, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"counts must be an array of numbers: {exc}") from None
    if c.shape != (9, 4):
        raise ValueError(f"counts must have shape (9, 4), one row per measurement setting, got {c.shape}")
    if not (np.all((c >= 0.0) & (c < np.inf)) and np.all(c.sum(axis=-1) > 0.0)):
        raise ValueError("counts must be finite and >= 0, with a positive total in every row")
    return c


def _frequency_rows(counts: np.ndarray) -> np.ndarray:
    """The frequencies (N, 36) of a count array (N, 9, 4), setting-major,
    in the row order of _SIGNS."""
    counts = np.asarray(counts, dtype=float)
    return (counts / counts.sum(axis=-1, keepdims=True)).reshape(-1, 36)


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
    """Linear estimates of the tables of a count array (N, 9, 4): the
    least-squares solution of each table's Born equations, then the batched
    clip. Its Pauli coordinate t_j = Tr(rho P_j) is the mean, over the
    settings that measure P_j, of their estimates sum_k _SIGNS[k, j] f_k
    from the frequencies f: one stacked product of each frequency row with
    _SIGNS, whose slices are the calls one row makes alone, over the
    setting count."""
    freqs = _frequency_rows(counts)
    means = (freqs[:, None, :] @ _SIGNS)[:, 0] / _SETTING_COUNTS
    return _clip_to_density(_operators(means))


# MLE works on trace-one Hermitian 4x4 matrices in 15 real coordinates,
# rho(x) = (I + sum_j x_j P_j) / 4 over the 15 two-qubit Paulis P_j other
# than the identity: each P_j has one entry in each row, P_j[a,
# _PAULI_SOURCE[j, a]] = _PAULI_PHASE[j, a], so P_j X is a gather of the
# rows of X.
_PAULIS = _ALL_PAULIS[1:]
_PAULI_SOURCE = _PAULIS.nonzero()[-1].reshape(15, 4)
_PAULI_PHASE = _PAULIS[_PAULIS != 0].reshape(15, 4, 1)

# The Born map of rho(x): the 36 outcome probabilities are 1/4 + _BORN @ x,
# with _BORN[k, j] = Tr(op_k P_j) / 4, one of 0 and +-1/4; row k of
# _BORN_OUTER is the outer product of row k of _BORN with itself, so that
# sum_k w_k outer(born_k, born_k) is one product with a (36,) row.
_BORN = _SIGNS[:, 1:] / 4.0 + 0.0
_BORN_T = np.ascontiguousarray(_BORN.T)
_BORN_OUTER = (_BORN[:, :, None] * _BORN[:, None, :]).reshape(36, 225)

# The barrier path of _mle_stack. A row starts at its linear estimate mixed
# with _START_MIX of I/4, positive definite with every eigenvalue at least
# _START_MIX / 4, near the maximum, and the weight mu of log det rho starts
# at _MU_SHRINK times the certificate there, the start's bound on its gap
# to the maximum, held between mle_stop / 16 and _MU_START. A row is
# centred once its Newton decrement is below _CENTRED * mu; its mu then
# shrinks by _MU_SHRINK, or further, to mu^2 times the pull of the barrier
# gradient over _CENTRED, the least mu whose centre the decrement predicts
# to be within _CENTRED * mu of the row; never below mle_stop / 16, where
# the certificate at the centre is at most 4 mu. A step keeps every
# eigenvalue of rho above _BOUNDARY times its value, and is halved up to
# _HALVINGS times until the barrier objective rises by _ARMIJO times the
# decrement the step predicts; a step that rounding takes out of the set is
# dropped, and the row's next step reaches at most half as far.
_START_MIX = 0.05
_MU_START = 1e-2
_MU_SHRINK = 0.05
_CENTRED = 1.0
_BOUNDARY = 0.1
_ARMIJO = 0.25
_HALVINGS = 50

# Every product below is an elementwise operation or a stacked matmul,
# eigh, eigvalsh or solve whose slices are the calls one table makes
# alone, and every step size and mu is a row's own, so a stacked table
# gets the bits it gets alone; tests/test_batch_primitives.py pins each.


class _MleFit(NamedTuple):
    """What _mle_estimates returns for a stack of N count tables."""

    states: np.ndarray  # (N, 4, 4) positive definite, trace one
    steps: np.ndarray  # (N,) Newton steps each table took
    certificates: np.ndarray  # (N,) lambda_max(R(rho)) - 1 at the state returned


def _states(x: np.ndarray) -> np.ndarray:
    """rho(x) of each row of a (B, 15) coordinate stack, as (B, 4, 4)."""
    return _operators(np.concatenate((np.ones((len(x), 1)), x), axis=1))


def _born(x: np.ndarray) -> np.ndarray:
    """The 36 outcome probabilities (B, 36) of rho(x)."""
    return 0.25 + (x[:, None, :] @ _BORN_T)[:, 0]


def _r_operator(ratios: np.ndarray) -> np.ndarray:
    """R = sum_k ratio_k op_k over the 36 outcomes, (B, 4, 4), from the
    ratios (B, 36) of each outcome's share of the shots to its probability:
    its Pauli coordinates are sum_k ratio_k _SIGNS[k, j]."""
    return _operators((ratios[:, None, :] @ _SIGNS)[:, 0])


def _log_det_terms(vals: np.ndarray, vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The gradient (B, 15) of log det rho, Tr(P_j rho^-1) / 4, and minus
    its Hessian (B, 15, 15), Tr(P_i rho^-1 P_j rho^-1) / 16, from the
    eigenvalues (B, 4) and eigenvectors (B, 4, 4) of each rho."""
    inverse = (vecs / vals[:, None, :]) @ vecs.conj().swapaxes(-1, -2)
    products = np.take(inverse, _PAULI_SOURCE, axis=1)  # P_j rho^-1, (B, 15, 4, 4)
    products *= _PAULI_PHASE
    # the trace as an explicit four-term sum: np.trace's order of addition
    # depends on the stack
    diagonal = products[..., 0, 0] + products[..., 1, 1] + products[..., 2, 2] + products[..., 3, 3]
    swapped = products.swapaxes(-1, -2).reshape(-1, 15, 16)
    curvature = products.reshape(-1, 15, 16) @ swapped.swapaxes(-1, -2)
    return diagonal.real / 4.0, curvature.real / 16.0


def _newton_step(shares, probs, mu, vals, vecs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Newton step (B, 15) of sum_k share_k log p_k + mu log det rho at
    each row, from its shares (B, 36), probabilities (B, 36), weights mu (B,)
    and the eigenvalues (B, 4) and eigenvectors (B, 4, 4) of its rho; the
    decrement g . H^-1 g (B,) the step predicts, and the pull b . H^-1 b
    (B,) of the barrier gradient b."""
    ratios = shares / probs
    barrier, curvature = _log_det_terms(vals, vecs)
    gradient = (ratios[:, None, :] @ _BORN)[:, 0] + mu[:, None] * barrier
    hessian = ((ratios / probs)[:, None, :] @ _BORN_OUTER).reshape(-1, 15, 15)
    hessian += mu[:, None, None] * curvature
    solved = np.linalg.solve(hessian, np.stack([gradient, barrier], axis=-1))
    step = solved[..., 0]
    decrement = (gradient[:, None, :] @ solved[..., :1])[:, 0, 0]
    pull = (barrier[:, None, :] @ solved[..., 1:])[:, 0, 0]
    return step, decrement, pull


def _step_sizes(shares, probs, mu, vals, vecs, step, decrement, reach) -> np.ndarray:
    """The size t (B,) of each row's step: at most its reach (B,), no
    eigenvalue of rho below _BOUNDARY times its value, and halved until the
    barrier objective rises by _ARMIJO t times the decrement; 0 for a row
    whose objective never rises that much."""
    # rho + t D = rho^1/2 (I + t M) rho^1/2 with M = rho^-1/2 D rho^-1/2, so
    # the eigenvalues of M bound the step and give the change of log det
    scaled = vecs / np.sqrt(vals)[:, None, :]
    move = _operators(np.concatenate((np.zeros((len(step), 1)), step), axis=1))
    spread = np.linalg.eigvalsh(scaled.conj().swapaxes(-1, -2) @ move @ scaled)
    rates = (step[:, None, :] @ _BORN_T)[:, 0] / probs
    with np.errstate(divide="ignore"):
        sizes = np.minimum(reach, (1.0 - _BOUNDARY) / np.maximum(-spread[:, 0], 0.0))
    for _ in range(_HALVINGS):
        # each log1p reads a relative change, so a short step's gain keeps
        # its digits
        gain = (shares * np.log1p(sizes[:, None] * rates)).sum(axis=-1)
        gain += mu * np.log1p(sizes[:, None] * spread).sum(axis=-1)
        short = ~(gain >= _ARMIJO * sizes * decrement)
        if not short.any():
            return sizes
        sizes = np.where(short, 0.5 * sizes, sizes)
    return np.where(short, 0.0, sizes)


def _mle_estimates(counts: np.ndarray) -> _MleFit:
    """MLE state of each table of a count array (N, 9, 4), with the steps
    and the certificate of each, started at its linear estimate mixed with
    _START_MIX of I/4."""
    counts = np.asarray(counts, dtype=float)
    flat = counts.reshape(-1, 36)
    return _mle_stack(flat / flat.sum(axis=-1, keepdims=True), _mle_start(counts))


def _mle_start(counts: np.ndarray) -> np.ndarray:
    """The Pauli coordinates (N, 15), x_j = Tr(P_j rho), of each table's
    linear estimate mixed with _START_MIX of I/4, from its counts (N, 9, 4)."""
    rho = (1.0 - _START_MIX) * _linear_estimates(counts) + _START_MIX * np.eye(4) / 4.0
    # Tr(P_j rho) = sum_a P_j[a, s] rho[s, a] with s = _PAULI_SOURCE[j, a],
    # as an explicit four-term sum over each row's own entries
    terms = rho[:, _PAULI_SOURCE, np.arange(4)] * _PAULI_PHASE[..., 0]
    return (terms[..., 0] + terms[..., 1] + terms[..., 2] + terms[..., 3]).real


def _mle_stack(shares: np.ndarray, start: np.ndarray) -> _MleFit:
    """Maximise the per-shot log-likelihood sum_k share_k log p_k of each
    row of a stack of outcome shares (B, 36) (each outcome's count over the
    table's total) over positive definite trace-one rho, by damped Newton
    steps on the barrier objective log-likelihood + mu log det rho, from the
    Pauli coordinates start (B, 15) of a positive definite rho. A row's first
    mu is _MU_SHRINK times its certificate at the start, held between
    mle_stop / 16 and _MU_START.

    For every density matrix sigma, concavity gives L(sigma) - L(rho) <=
    Tr(R(rho) sigma) - Tr(R(rho) rho) <= lambda_max(R(rho)) - 1, as Tr(R(rho)
    rho) = 1. A row leaves the stack once that certificate is at most
    mle_stop, or after mle_max_iter steps, uncertified; both are read from
    DEFAULT_TOL."""
    stop, max_iter = DEFAULT_TOL.mle_stop, DEFAULT_TOL.mle_max_iter
    n = len(shares)
    found = np.empty((n, 15))
    steps = np.zeros(n, dtype=int)
    certificates = np.empty(n)
    active = np.arange(n)
    x = start
    reach = np.ones(n)
    vals, vecs = np.linalg.eigh(_states(x))
    for count in range(max_iter + 1):
        probs = _born(x)
        certificate = np.linalg.eigvalsh(_r_operator(shares / probs))[:, -1] - 1.0
        if count == 0:
            mu = np.clip(_MU_SHRINK * certificate, stop / 16.0, _MU_START)
        done = certificate <= stop if count < max_iter else np.ones(len(x), bool)
        if done.any():
            rows = active[done]
            found[rows], steps[rows], certificates[rows] = x[done], count, certificate[done]
            keep = ~done
            active, x, mu, reach = active[keep], x[keep], mu[keep], reach[keep]
            vals, vecs = vals[keep], vecs[keep]
            shares, probs = shares[keep], probs[keep]
        if not active.size:
            break
        step, decrement, pull = _newton_step(shares, probs, mu, vals, vecs)
        sizes = _step_sizes(shares, probs, mu, vals, vecs, step, decrement, reach)
        centred = (sizes == 0.0) | ((sizes == 1.0) & (decrement < _CENTRED * mu))
        shrunk = np.minimum(_MU_SHRINK * mu, mu * mu * pull / _CENTRED)
        mu = np.where(centred, np.maximum(shrunk, stop / 16.0), mu)
        moved = x + sizes[:, None] * step
        moved_vals, moved_vecs = np.linalg.eigh(_states(moved))
        kept = moved_vals[:, 0] > 0.0
        reach = np.where(kept, 1.0, 0.5 * sizes)
        x = np.where(kept[:, None], moved, x)
        vals = np.where(kept[:, None], moved_vals, vals)
        vecs = np.where(kept[:, None, None], moved_vecs, vecs)
    return _MleFit(_states(found), steps, certificates)


def reconstruct_state(counts: np.ndarray, method: str = "linear") -> np.ndarray:
    """Density matrix from the counts (9, 4) of the nine measurement
    settings, rows in MEASUREMENT_SETTINGS order, as run_experiment returns
    them; only the frequencies are read, so exact_experiment's
    probabilities stand in for infinite-shot counts.

    method "linear": the least-squares inversion of the Born equations,
    each Pauli expectation the mean of its estimates over the settings
    that measure it, then its negative eigenvalues clipped to 0 and the
    trace renormalized, which gives a density matrix but not the nearest
    one.
    method "mle": maximum likelihood (Hradil et al., LNP 649, 2004) by
    damped Newton steps on a log-det barrier path, started at the linear
    estimate mixed with 5 % of I/4, with a first barrier weight in
    proportion to the certificate there. The estimate is positive
    definite, and its per-shot log-likelihood is within
    DEFAULT_TOL.mle_stop of the maximum over all density matrices,
    certified by lambda_max(R(rho)) - 1 <= mle_stop; an estimate not
    certified after DEFAULT_TOL.mle_max_iter steps returns its last state.
    Both are the package's constants, printed in every report.
    """
    return _estimate_states(_count_table(counts)[None], method)[0]


def _estimate_states(counts: np.ndarray, method: str) -> np.ndarray:
    """The estimated states (N, 4, 4) of a count array (N, 9, 4)."""
    if method == "linear":
        return _linear_estimates(counts)
    if method == "mle":
        return _mle_estimates(counts).states
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
    zero up to rounding. ValueError unless both are square matrices of one
    shape."""
    a, b = _as_complex(rho1), _as_complex(rho2)
    _require_shape(a)
    _require_shape(b, a.shape[0])
    return float(_state_fidelities(a[None], b[None])[0])


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
    """Block process matrix of rho -> U rho U^dag, for a 4x4 matrix U."""
    m = _as_complex(u)
    _require_shape(m, 4)
    blocks = np.einsum("ki,lj->ikjl", m, m.conj())
    return np.ascontiguousarray(blocks.reshape(16, 16))


def _apply_process(e: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Channel output sum_ij rho[i, j] E(|i><j|) of a process matrix e, of
    one state or of each state of an (N, 4, 4) stack."""
    blocks = np.asarray(e, dtype=complex).reshape(4, 4, 4, 4)
    return np.einsum("...ij,ikjl->...kl", np.asarray(rho, dtype=complex), blocks)


def _process_pair(e1, e2) -> tuple[np.ndarray, np.ndarray]:
    """e1 and e2 as complex arrays; ValueError unless each is a 16x16
    process matrix."""
    e1, e2 = _as_complex(e1), _as_complex(e2)
    _require_shape(e1, 16)
    _require_shape(e2, 16)
    return e1, e2


def reconstruct_process(
    outputs: np.ndarray,
    cp_projection: bool = True,
) -> np.ndarray:
    """Process matrix from the reconstructed output states (16, 4, 4) of the
    16 preparations, in TOMOGRAPHY_INPUT_LABELS order.

    The preparations span the operator space and each output is linear in
    its input, so all 16 blocks E(|i><j|) are one least-squares solve
    against the prepared inputs. The result is then hermitized and shifted
    onto the trace-preserving set; with cp_projection a clip of the
    negative part (complete positivity) and that shift then alternate until
    the clip has nothing left to do, or for at most 200 rounds, which is not
    reported. On exact data of a unitary channel each step is a no-op.
    """
    outs = _as_complex(outputs)
    if outs.shape != (16, 4, 4):
        raise ValueError(f"outputs must be the 16 output states as a (16, 4, 4) stack, got shape {outs.shape}")
    # row 4i + j of blocks is vec E(|i><j|)
    blocks = np.linalg.lstsq(_PREPARED_STATES.reshape(16, 16), outs.reshape(16, 16), rcond=None)[0]
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
    e1, e2 = _process_pair(e1, e2)
    val = np.trace(e1 @ e2) / 16.0
    if abs(val.imag) > 1e-6:
        raise ValueError("process overlap has a large imaginary part")
    return float(val.real)


# The 36 products of single-qubit Pauli eigenstates as a (36, 4, 4) stack
# of density matrices, fixed order: axes x, y, z per qubit, +1 eigenstate
# before -1.
_AXES = (("plus", "minus"), ("plus_i", "minus_i"), ("up", "down"))
_PROBE_VECTORS, _PROBES = _product_states(
    [(a, b) for axis0 in _AXES for axis1 in _AXES for a in axis0 for b in axis1]
)


def mean_state_fidelity(e1: np.ndarray, e2: np.ndarray) -> float:
    """Average output-state fidelity over the 36 Pauli product eigenstates,
    of two 16x16 process matrices."""
    e1, e2 = _process_pair(e1, e2)
    return float(_state_fidelities(_apply_process(e1, _PROBES), _apply_process(e2, _PROBES)).mean())


def _mean_pure_state_fidelity(e: np.ndarray, u: np.ndarray) -> float:
    """mean_state_fidelity(e, process_matrix_of_unitary(u)) to rounding, for
    a completely positive e, in closed form: each ideal output U|probe> is
    pure."""
    ideals = (u @ _PROBE_VECTORS[..., None])[..., 0]
    return float(np.mean(_pure_state_fidelities(_apply_process(e, _PROBES), ideals)))


_DIM = 4  # Hilbert-space dimension of two qubits


def mean_fidelity_from_entanglement(f_e: float) -> float:
    """Haar-average two-qubit state fidelity implied by f_e."""
    return (_DIM * f_e + 1.0) / (_DIM + 1.0)

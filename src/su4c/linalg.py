"""Matrix utilities underpinning the two-qubit compiler.

The routines here are deliberately convention-heavy: canonical orderings,
branch cuts and sign fixes are all pinned down so that the decomposition
built on top of them is deterministic. Everything operates on plain numpy
arrays.

Each public function checks its input. Its private twin of the same name
with a leading underscore is the same computation without the checks, for
matrices the package built itself and knows to be valid. The twins take a
stack of matrices with a leading batch axis, and a public function is their
one-row case. Each row of a stack gets, bit for bit, what it gets alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL, Tolerances

__all__ = [
    "NotUnitaryError",
    "NotAProductError",
    "EigenSystem",
    "check_density_matrix",
    "kron",
    "is_unitary",
    "nearest_unitary",
    "special_unitary_projection",
    "joint_real_diagonalization",
    "factor_tensor_product",
    "phase_invariant_distance",
    "su2_params",
]


class NotUnitaryError(ValueError):
    """Raised when an input fails its unitarity precondition."""


class NotAProductError(ValueError):
    """Raised when a 4x4 matrix is not a tensor product of 2x2 factors."""


@dataclass(frozen=True)
class EigenSystem:
    """Real orthogonal eigenvectors and unit-circle eigenphases.

    ``vectors[:, j]`` belongs to phase ``phases[j]``. Phases live in
    (-pi, pi], sorted ascending, and ``vectors`` has determinant +1.
    """

    phases: np.ndarray
    vectors: np.ndarray


def _as_complex(m) -> np.ndarray:
    return np.asarray(m, dtype=complex)


def _unitarity_defects(m: np.ndarray) -> np.ndarray:
    """max |m @ m^dag - I| of a square matrix, or of each row of a stack."""
    eye = np.eye(m.shape[-1])
    return np.abs(m @ m.conj().swapaxes(-1, -2) - eye).max(axis=(-2, -1))


def is_unitary(m, atol: float = DEFAULT_TOL.unitarity) -> bool:
    """True if ``m @ m.conj().T`` is the identity within ``atol`` (max norm)."""
    m = _as_complex(m)
    return m.ndim == 2 and m.shape[0] == m.shape[1] and bool(_unitarity_defects(m) < atol)


def _require_shape(m: np.ndarray, n: int | None = None) -> None:
    """ValueError unless m is an n x n matrix; with n None, any square one."""
    if m.ndim != 2 or m.shape[0] != m.shape[1] or n not in (None, m.shape[0]):
        what = "square" if n is None else f"{n}x{n}"
        raise ValueError(f"expected a {what} matrix, got shape {m.shape}")


def _require_unitary(m: np.ndarray, atol: float, what: str) -> None:
    """NotUnitaryError unless is_unitary holds for a square matrix, or for
    every row of an (N, n, n) stack; for a stack the error names the first
    row that fails."""
    defects = _unitarity_defects(m)
    if not (defects < atol).all():
        k = int(np.argmin(defects < atol))
        where = f"{what} row {k}" if m.ndim == 3 else what
        raise NotUnitaryError(
            f"{where} is not unitary (defect {defects.flat[k]:.3e}, atol {atol:.1e})"
        )


def kron(a, b) -> np.ndarray:
    """The package's Kronecker product of two 2x2 matrices, first factor on
    qubit 0; every two-qubit product in su4c is its unchecked twin _kron."""
    a = _as_complex(a)
    b = _as_complex(b)
    if a.shape != (2, 2) or b.shape != (2, 2):
        raise ValueError(f"kron expects 2x2 factors, got {a.shape} and {b.shape}")
    return _kron(a, b)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # The elementwise multiply np.kron performs, without its shape handling;
    # on stacks of square matrices, row by row.
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    n = out.shape[-1] * out.shape[-2]
    return out.reshape(*out.shape[:-4], n, n)


def check_density_matrix(rho: np.ndarray, atol: float = 1e-10) -> np.ndarray:
    """Validate shape, Hermiticity, unit trace, and positivity; returns the
    array."""
    m = _as_complex(rho)
    _require_shape(m)
    if np.max(np.abs(m - m.conj().T)) > atol:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(m) - 1.0) > atol:
        raise ValueError("density matrix trace is not 1")
    if np.min(np.linalg.eigvalsh(m)) < -atol:
        raise ValueError("density matrix has a negative eigenvalue")
    return m


def nearest_unitary(m) -> np.ndarray:
    """Polar projection onto the unitary group (drops singular-value spread).

    A stack of matrices is projected row by row: ``nearest_unitary(ms)[k]``
    equals ``nearest_unitary(ms[k])`` bit for bit."""
    m = _as_complex(m)
    w, _, vh = np.linalg.svd(m)
    return w @ vh


def special_unitary_projection(
    u, tol: Tolerances = DEFAULT_TOL
) -> tuple[np.ndarray, complex]:
    """Split a unitary into ``(su, phase)`` with ``det(su) = 1``.

    The phase is the principal n-th root of ``det(u)`` for an n x n input,
    i.e. the root whose argument lies in (-pi/n, pi/n]. Returns ``su`` such
    that ``u = phase * su`` exactly.
    """
    u = _as_complex(u)
    _require_shape(u)
    _require_unitary(u, tol.unitarity, "special_unitary_projection input")
    su, phase = _special_unitary_projection(u[None], tol)
    return su[0], complex(phase[0])


def _special_unitary_projection(
    u: np.ndarray, tol: Tolerances
) -> tuple[np.ndarray, np.ndarray]:
    """(N, n, n) -> (su, phases) with ``u[k] = phases[k] * su[k]``."""
    n = u.shape[-1]
    det = np.linalg.det(u)
    # Principal root: divide the argument, fold ties at -pi/n up to +pi/n.
    arg = np.arctan2(det.imag, det.real) / n
    tie = arg <= -math.pi / n + tol.branch_tie / n
    if tie.any():
        arg[tie] += 2.0 * math.pi / n
    phase = np.exp(1j * arg)
    return u / phase[:, None, None], phase


# ---------------------------------------------------------------------------
# Joint real diagonalization of unitary symmetric matrices
# ---------------------------------------------------------------------------

# Weight mixing real and imaginary parts in the fast path. A single linear
# combination has blind spots where its derivative on the unit circle
# vanishes; the Jacobi polish below repairs those cases.
_MIX = math.sqrt(2.0) / 2.0


def _pair_angle(z: complex, b: complex) -> float:
    """Rotation half-angle zeroing the off-diagonal of a 2x2 complex
    symmetric block [[p, b], [b, q]] with z = (p - q) / 2.

    For a block that is real-orthogonally diagonalizable, (z, b) is a complex
    multiple of a real direction (cos 2t, sin 2t); recover it from whichever
    real component pair is larger to avoid cancellation.
    """
    re = math.hypot(z.real, b.real)
    im = math.hypot(z.imag, b.imag)
    if re >= im:
        return 0.5 * math.atan2(b.real, z.real)
    return 0.5 * math.atan2(b.imag, z.imag)


# Off-diagonal level at which the Jacobi polish stops, relative to the
# largest entry.
_POLISH_FLOOR = 1e-13


def _jacobi_polish(w: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Drive the off-diagonal of ``basis.T @ w @ basis`` to the noise floor
    with exact-angle real Jacobi rotations. Returns the updated basis."""
    floor = _POLISH_FLOOR
    n = w.shape[0]
    cur = basis.T @ w @ basis
    scale = max(1.0, float(np.max(np.abs(cur))))
    for _ in range(30):
        off = np.abs(cur)
        np.fill_diagonal(off, 0.0)
        if np.max(off) < floor * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                b = 0.5 * (cur[p, q] + cur[q, p])
                if abs(b) < 0.25 * floor * scale:
                    continue
                z = 0.5 * (cur[p, p] - cur[q, q])
                t = _pair_angle(z, b)
                c, s = math.cos(t), math.sin(t)
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = -s
                rot[q, p] = s
                basis = basis @ rot
                cur = rot.T @ cur @ rot
    return basis


# The column-sign rule of every real eigenframe in su4c is _lead_positive,
# then _proper; _canonicalize sorts the columns between the two steps.


def _lead_positive(vectors: np.ndarray) -> np.ndarray:
    """Each column of an (N, n, n) stack negated where its first entry above
    1e-8 in size is below -1e-8, i.e. negative; a column without such an
    entry keeps its sign."""
    rows, cols = np.arange(len(vectors))[:, None], np.arange(vectors.shape[-1])
    lead = vectors[rows, (np.abs(vectors) > 1e-8).argmax(axis=1), cols]
    return np.where((lead < -1e-8)[:, None, :], -vectors, vectors)


def _proper(vectors: np.ndarray) -> np.ndarray:
    """An (N, n, n) stack of orthogonal matrices with the last column
    negated, in place, where the determinant is -1."""
    improper = np.linalg.det(vectors) < 0
    vectors[improper, :, -1] = -vectors[improper, :, -1]
    return vectors


def _canonicalize(phases: np.ndarray, vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Apply the deterministic ordering to (N, n) phases and (N, n, n)
    vectors: sign-fix columns, sort by phase with a lexicographic tie-break,
    then restore det +1 on the last column."""
    n, size = phases.shape
    rows, cols = np.arange(n)[:, None], np.arange(size)
    vectors = _lead_positive(vectors)
    # Sort by phase, ties by the column's entries rounded to 12 decimals, in
    # row order. lexsort takes its primary key last and is stable, so the
    # order of each row is the one it gets alone.
    keys = vectors.round(12).transpose(1, 0, 2)
    order = np.lexsort((*keys[::-1], phases), axis=-1)
    phases = phases[rows, order]
    return phases, _proper(vectors[rows[:, :, None], cols[:, None], order[:, None, :]])


def joint_real_diagonalization(
    w, tol: Tolerances = DEFAULT_TOL
) -> EigenSystem:
    """Diagonalize a unitary symmetric matrix with a real orthogonal basis.

    A unitary symmetric ``w`` has commuting real and imaginary parts, hence a
    shared real eigenbasis: ``w = O @ diag(exp(i phases)) @ O.T``. The fast
    path diagonalizes ``Re(w) + c Im(w)``; because any single combination is
    blind to pairs aligned with its circle extremum, the result is polished
    with exact-angle Jacobi rotations on the complex symmetric form, which
    is accurate regardless of eigenphase gaps.

    Returns phases in (-pi, pi], ascending, ties at -pi folded to +pi, with
    sign-canonicalized, det +1 eigenvectors.
    """
    w = _as_complex(w)
    _require_shape(w)
    if np.max(np.abs(w - w.T)) > tol.symmetry:
        raise ValueError("input is not symmetric")
    _require_unitary(w, tol.unitarity, "joint_real_diagonalization input")
    phases, vectors = _canonicalize(*_joint_real_eigensystem(w[None], tol))
    return EigenSystem(phases=phases[0], vectors=vectors[0])


def _joint_real_eigensystem(
    w: np.ndarray, tol: Tolerances
) -> tuple[np.ndarray, np.ndarray]:
    """The phases (N, n) and real orthogonal eigenvectors (N, n, n) of each
    row of an (N, n, n) stack, column j with phase j, as the eigen-solve and
    the polish leave them: phases folded into (-pi, pi] but not sorted, and
    no sign or determinant convention on the columns."""
    w = 0.5 * (w + w.swapaxes(-1, -2))

    mix = w.real + _MIX * w.imag  # exactly symmetric, as w is
    _, basis = np.linalg.eigh(mix)
    # The first off-diagonal test of _jacobi_polish, on every row at once;
    # only the rows that fail it are polished.
    off = np.abs(basis.swapaxes(-1, -2) @ w @ basis)
    scale = np.maximum(1.0, off.max(axis=(1, 2)))
    off.reshape(len(off), -1)[:, :: w.shape[-1] + 1] = 0.0  # the diagonals
    converged = off.max(axis=(1, 2)) < _POLISH_FLOOR * scale
    if not converged.all():
        for k in (~converged).nonzero()[0]:
            basis[k] = _jacobi_polish(w[k], basis[k])

    diag = np.einsum("nip,nij,njp->np", basis, w, basis)
    phases = np.angle(diag)
    return np.where(phases <= -math.pi + tol.branch_tie, math.pi, phases), basis


# ---------------------------------------------------------------------------
# Tensor-product factoring
# ---------------------------------------------------------------------------


def factor_tensor_product(
    m, tol: Tolerances = DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray, complex]:
    """Factor a 4x4 unitary as ``phase * kron(a, b)`` with det-1 factors.

    Views ``m`` as a 2x2 grid of 2x2 blocks ``m[2i:2i+2, 2j:2j+2] = a[i, j] b``.
    The largest block fixes ``b`` up to normalization, the block overlaps fix
    ``a``, and both factors are then rescaled to determinant one with the
    residual scalar returned as ``phase``. For det-1 inputs the phase is a
    fourth root of unity.

    Raises NotAProductError when the rebuilt product misses ``m`` by more
    than the configured residual.
    """
    m = _as_complex(m)
    _require_shape(m, 4)
    _require_unitary(m, tol.unitarity, "factor_tensor_product input")
    a, b, phases = _factor_tensor_product(m[None], tol)
    return a[0], b[0], complex(phases[0])


def _factor_tensor_product(
    m: np.ndarray, tol: Tolerances
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(N, 4, 4) -> (a (N, 2, 2), b (N, 2, 2), phases (N,)), each row as
    factor_tensor_product returns it."""
    n = m.shape[0]
    rows = np.arange(n)
    # blocks[k, i, j] is the view m[k, 2i:2i+2, 2j:2j+2].
    blocks = m.reshape(n, 2, 2, 2, 2).transpose(0, 1, 3, 2, 4)
    norms = np.linalg.norm(blocks, axis=(3, 4))
    bi, bj = np.divmod(norms.reshape(n, 4).argmax(axis=1), 2)
    # A unitary product has every nonzero block proportional to b with
    # |a[i,j]| * ||b||_F and ||b||_F = sqrt(2) after normalization.
    b = blocks[rows, bi, bj] / (norms[rows, bi, bj] / math.sqrt(2.0))[:, None, None]
    a = (b.conj().swapaxes(-1, -2)[:, None, None] @ blocks).trace(axis1=3, axis2=4) / 2.0

    # a and b as one stack of 2n factors
    factors = np.concatenate([a, b])
    dets = factors[:, 0, 0] * factors[:, 1, 1] - factors[:, 0, 1] * factors[:, 1, 0]
    if (np.abs(dets) < 1e-12).any():
        raise NotAProductError("block structure is singular; not a tensor product")
    factors = factors / np.sqrt(dets)[:, None, None]  # principal square roots
    a, b = factors[:n], factors[n:]

    prod = _kron(a, b)
    overlaps = (prod.conj().swapaxes(-1, -2) @ m).trace(axis1=1, axis2=2) / 4.0
    sizes = np.abs(overlaps)
    if (sizes < 1e-12).any():
        raise NotAProductError("no phase aligns the factors with the input")
    phases = overlaps / sizes
    residual = np.abs(phases[:, None, None] * prod - m).max(axis=(1, 2))
    if (residual >= tol.product_residual).any():
        raise NotAProductError(f"tensor-product residual {residual.max():.3e}")
    return a, b, phases


# ---------------------------------------------------------------------------
# Phase-invariant distance
# ---------------------------------------------------------------------------


def phase_invariant_distance(u, w) -> float:
    """Max-norm distance between unitaries modulo global phase.

    The aligning phase is ``Tr(w^dag u) / |Tr(w^dag u)|``; when the trace
    vanishes the phase is found by a 360-point scan.
    """
    u = _as_complex(u)
    w = _as_complex(w)
    if u.shape != w.shape:
        raise ValueError(f"shape mismatch: {u.shape} vs {w.shape}")
    tr = np.trace(w.conj().T @ u)
    if abs(tr) > 1e-12:
        c = tr / abs(tr)
        return float(np.max(np.abs(u - c * w)))
    angles = np.linspace(0.0, 2.0 * math.pi, 360, endpoint=False)
    return float(min(np.max(np.abs(u - np.exp(1j * t) * w)) for t in angles))


# ---------------------------------------------------------------------------
# SU(2) angle extraction
# ---------------------------------------------------------------------------


def su2_params(
    m, tol: Tolerances = DEFAULT_TOL
) -> tuple[float, float, float, int]:
    """Write a det-1 2x2 unitary as ``sign * Rz(phiz) @ R(theta, phi)``.

    Returns ``(theta, phi, phiz, sign)`` with theta in [0, pi], phi and phiz
    in [0, 2 pi), sign in {+1, -1}. The sign absorbs the Rz double cover so
    that phiz can stay in a single turn.

    Conventions at the branch points: theta below the snap threshold forces
    phi = 0; theta within snap of pi forces phiz = 0 and sign = +1.
    """
    m = _as_complex(m)
    _require_shape(m, 2)
    _require_unitary(m, tol.unitarity, "su2_params input")
    if abs(np.linalg.det(m) - 1.0) > tol.su2_det:
        raise ValueError("su2_params requires determinant 1")
    theta, phi, phiz, sign = _su2_params(m[None], tol)[0].tolist()
    return theta, phi, phiz, int(sign)


def _su2_params(m: np.ndarray, tol: Tolerances) -> np.ndarray:
    """(N, 2, 2) -> (N, 4): the (theta, phi, phiz, sign) of su2_params for
    each row, the sign as +-1.0."""
    # sign * Rz(phiz) R(theta, phi) has entries
    #   m00 = s e^{-i phiz/2} cos(theta/2)
    #   m10 = s e^{+i phiz/2} (-i e^{i phi}) sin(theta/2)
    m00, m10 = m[:, 0, 0], m[:, 1, 0]
    psi = np.arctan2(m00.imag, m00.real)  # arg(sign) - phiz/2
    arg10 = np.arctan2(m10.imag, m10.real)
    theta = 2.0 * np.arctan2(np.hypot(m10.real, m10.imag), np.hypot(m00.real, m00.imag))
    negative = psi > 0.0  # sign -1, arg(sign) = pi
    twice = 2.0 * psi
    phiz = np.where(negative, math.tau - twice, -twice)
    full = phiz >= math.tau
    if full.any():
        # phiz rounded up to a full turn, and Rz(tau) = -I
        negative ^= full
        phiz[full] -= math.tau
    phi = (arg10 - negative * math.pi - phiz / 2.0 + math.pi / 2.0) % math.tau
    out = np.array([theta, phi, phiz % math.tau, np.where(negative, -1.0, 1.0)]).T
    low = theta < tol.angle_snap
    if low.any():
        # Diagonal matrix: all rotation is in Rz.
        out[low, :2] = 0.0
    high = ~low & (theta > math.pi - tol.angle_snap)
    if high.any():
        # Anti-diagonal matrix: phiz is degenerate with phi, push it to 0.
        out[high, 0] = math.pi
        out[high, 1] = (arg10[high] + math.pi / 2.0) % math.tau
        out[high, 2:] = (0.0, 1.0)
    return out

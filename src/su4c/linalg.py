"""Matrix utilities underpinning the two-qubit compiler.

The routines here are deliberately convention-heavy: canonical orderings,
branch cuts and sign fixes are all pinned down so that the decomposition
built on top of them is deterministic. Everything operates on plain numpy
arrays.

The kernels are private: they take a stack of matrices with a leading batch
axis, trust their callers, and give each row, bit for bit, what it gets
alone. Their inputs are matrices the package built itself or ones a public
entry point checked once, with the two gates here: one shape rule and one
unitarity defect, which is_unitary reads too.
"""

from __future__ import annotations

import math

import numpy as np

from .config import DEFAULT_TOL

__all__ = ["NotUnitaryError", "NotAProductError", "is_unitary", "nearest_unitary", "phase_invariant_distance"]


class NotUnitaryError(ValueError):
    """Raised when an input fails its unitarity precondition."""


class NotAProductError(ValueError):
    """Raised when a 4x4 matrix is not a tensor product of 2x2 factors."""


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


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The package's Kronecker product, first factor on qubit 0: the
    elementwise multiply np.kron performs, and its bits, without its shape
    handling; on stacks of square matrices, row by row."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    n = out.shape[-1] * out.shape[-2]
    return out.reshape(*out.shape[:-4], n, n)


def nearest_unitary(m) -> np.ndarray:
    """Polar projection onto the unitary group (drops singular-value spread).

    A stack of matrices is projected row by row: ``nearest_unitary(ms)[k]``
    equals ``nearest_unitary(ms[k])`` bit for bit."""
    m = _as_complex(m)
    w, _, vh = np.linalg.svd(m)
    return w @ vh


def _special_unitary_projection(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split each unitary of an (N, n, n) stack as ``u[k] = phases[k] *
    su[k]`` with ``det(su[k]) = 1``: the phase is the principal n-th root of
    ``det(u[k])``, the root whose argument lies in (-pi/n, pi/n]."""
    n = u.shape[-1]
    det = np.linalg.det(u)
    # Principal root: divide the argument, fold ties at -pi/n up to +pi/n.
    arg = np.arctan2(det.imag, det.real) / n
    tie = arg <= -math.pi / n + DEFAULT_TOL.branch_tie / n
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


def _joint_real_eigensystem(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize each unitary symmetric matrix of an (N, n, n) stack with a
    real orthogonal basis.

    A unitary symmetric ``w`` has commuting real and imaginary parts, hence a
    shared real eigenbasis: ``w = O @ diag(exp(i phases)) @ O.T``. The fast
    path diagonalizes ``Re(w) + c Im(w)``; because any single combination is
    blind to pairs aligned with its circle extremum, the rows it leaves
    unconverged are polished with exact-angle Jacobi rotations on the complex
    symmetric form, which is accurate regardless of eigenphase gaps.

    Returns the phases (N, n), folded into (-pi, pi] with ties at -pi taken
    to +pi, and the eigenvectors (N, n, n), column j with phase j, as the
    solve leaves them: unsorted, with no sign or determinant convention.
    _canonicalize sorts them and fixes the columns."""
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
    return np.where(phases <= -math.pi + DEFAULT_TOL.branch_tie, math.pi, phases), basis


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


def _su2_params(q: np.ndarray) -> np.ndarray:
    """Write each unit quaternion (q0, q1, q2, q3) of an (N, 4) stack, the
    SU(2) element q0 I - i (q1 X + q2 Y + q3 Z), as ``sign * Rz(phiz) @
    R(theta, phi)``, the row (theta, phi, phiz, sign) of an (N, 4) array.

    theta lies in [0, pi], read as 2 arctan2(|m10|, |m00|) so small angles
    keep their digits; phi and phiz lie in [0, 2 pi) and sign is +-1.0, which
    absorbs the Rz double cover so that phiz can stay in a single turn. At
    the branch points, theta below the angle_snap threshold forces phi = 0,
    and theta within it of pi forces phiz = 0 and sign = +1."""
    # the matrix has m00 = q0 - i q3 and m10 = q2 - i q1, and sign * Rz(phiz)
    # R(theta, phi) has entries
    #   m00 = s e^{-i phiz/2} cos(theta/2)
    #   m10 = s e^{+i phiz/2} (-i e^{i phi}) sin(theta/2)
    q0, q1, q2, q3 = q.T
    psi = np.arctan2(-q3, q0)  # arg(sign) - phiz/2
    arg10 = np.arctan2(-q1, q2)
    theta = 2.0 * np.arctan2(np.hypot(q2, q1), np.hypot(q0, q3))
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
    low = theta < DEFAULT_TOL.angle_snap
    if low.any():
        # Diagonal matrix: all rotation is in Rz.
        out[low, :2] = 0.0
    high = ~low & (theta > math.pi - DEFAULT_TOL.angle_snap)
    if high.any():
        # Anti-diagonal matrix: phiz is degenerate with phi, push it to 0.
        out[high, 0] = math.pi
        out[high, 1] = (arg10[high] + math.pi / 2.0) % math.tau
        out[high, 2:] = (0.0, 1.0)
    return out

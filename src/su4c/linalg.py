"""Matrix utilities underpinning the two-qubit compiler.

The routines here are deliberately convention-heavy: canonical orderings,
branch cuts and sign fixes are all pinned down so that the decomposition
built on top of them is deterministic. Everything operates on plain numpy
arrays.

Each public function checks its input. Its private twin of the same name
with a leading underscore is the same computation without the checks, for
matrices the package built itself and knows to be valid.
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


def is_unitary(m, atol: float = DEFAULT_TOL.unitarity) -> bool:
    """True if ``m @ m.conj().T`` is the identity within ``atol`` (max norm)."""
    m = _as_complex(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    eye = np.eye(m.shape[0])
    return bool(np.max(np.abs(m @ m.conj().T - eye)) < atol)


def _require_unitary(m: np.ndarray, atol: float, what: str) -> None:
    if not is_unitary(m, atol):
        defect = np.max(np.abs(m @ m.conj().T - np.eye(m.shape[0])))
        raise NotUnitaryError(f"{what} is not unitary (defect {defect:.3e}, atol {atol:.1e})")


def kron(a, b) -> np.ndarray:
    """Tensor product of two 2x2 matrices, first factor acting on qubit 0."""
    a = _as_complex(a)
    b = _as_complex(b)
    if a.shape != (2, 2) or b.shape != (2, 2):
        raise ValueError(f"kron expects 2x2 factors, got {a.shape} and {b.shape}")
    return np.kron(a, b)


def check_density_matrix(rho: np.ndarray, atol: float = 1e-10) -> np.ndarray:
    """Validate Hermiticity, unit trace, and positivity; returns the array."""
    m = _as_complex(rho)
    if np.max(np.abs(m - m.conj().T)) > atol:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(m) - 1.0) > atol:
        raise ValueError("density matrix trace is not 1")
    if np.min(np.linalg.eigvalsh(m)) < -atol:
        raise ValueError("density matrix has a negative eigenvalue")
    return m


def nearest_unitary(m) -> np.ndarray:
    """Polar projection onto the unitary group (drops singular-value spread)."""
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
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {u.shape}")
    _require_unitary(u, tol.unitarity, "special_unitary_projection input")
    return _special_unitary_projection(u, tol)


def _special_unitary_projection(u: np.ndarray, tol: Tolerances) -> tuple[np.ndarray, complex]:
    n = u.shape[0]
    det = np.linalg.det(u)
    # Principal root: divide the argument, fold ties at -pi/n up to +pi/n.
    arg = np.angle(det) / n
    if arg <= -math.pi / n + tol.branch_tie / n:
        arg += 2.0 * math.pi / n
    phase = complex(np.exp(1j * arg))
    return u / phase, phase


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


def _jacobi_polish(w: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Drive the off-diagonal of ``basis.T @ w @ basis`` to the noise floor
    with exact-angle real Jacobi rotations. Returns the updated basis."""
    floor = 1e-13  # off-diagonal level, relative to the largest entry
    n = w.shape[0]
    basis = basis.copy()
    cur = basis.T @ w @ basis
    scale = max(1.0, float(np.max(np.abs(cur))))
    for _ in range(30):
        off = cur - np.diag(np.diag(cur))
        if np.max(np.abs(off)) < floor * scale:
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


def _canonicalize(phases: np.ndarray, vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Apply the deterministic ordering: sign-fix columns, sort by phase with
    a lexicographic tie-break, then restore det +1 on the last column."""
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
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {w.shape}")
    if np.max(np.abs(w - w.T)) > tol.symmetry:
        raise ValueError("input is not symmetric")
    _require_unitary(w, tol.unitarity, "joint_real_diagonalization input")
    return _joint_real_diagonalization(w, tol)


def _joint_real_diagonalization(w: np.ndarray, tol: Tolerances) -> EigenSystem:
    w = 0.5 * (w + w.T)

    mix = w.real + _MIX * w.imag  # exactly symmetric, as w is
    _, basis = np.linalg.eigh(mix)
    basis = _jacobi_polish(w, basis)

    diag = np.einsum("ip,ij,jp->p", basis, w, basis)
    phases = np.angle(diag)
    phases = np.where(phases <= -math.pi + tol.branch_tie, math.pi, phases)
    phases, vectors = _canonicalize(phases, basis)
    return EigenSystem(phases=phases, vectors=vectors)


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
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
    _require_unitary(m, tol.unitarity, "factor_tensor_product input")
    return _factor_tensor_product(m, tol)


def _factor_tensor_product(
    m: np.ndarray, tol: Tolerances
) -> tuple[np.ndarray, np.ndarray, complex]:
    blocks = [[m[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] for j in range(2)] for i in range(2)]
    norms = np.array([[np.linalg.norm(blocks[i][j]) for j in range(2)] for i in range(2)])
    bi, bj = np.unravel_index(int(np.argmax(norms)), (2, 2))
    # A unitary product has every nonzero block proportional to b with
    # |a[i,j]| * ||b||_F and ||b||_F = sqrt(2) after normalization.
    b = blocks[bi][bj] / (norms[bi, bj] / math.sqrt(2.0))
    a = np.array(
        [[np.trace(b.conj().T @ blocks[i][j]) / 2.0 for j in range(2)] for i in range(2)],
        dtype=complex,
    )

    det_a = np.linalg.det(a)
    det_b = np.linalg.det(b)
    if abs(det_a) < 1e-12 or abs(det_b) < 1e-12:
        raise NotAProductError("block structure is singular; not a tensor product")
    ra = np.sqrt(det_a)  # principal square root
    rb = np.sqrt(det_b)
    a = a / ra
    b = b / rb

    prod = np.kron(a, b)
    overlap = np.trace(prod.conj().T @ m) / 4.0
    if abs(overlap) < 1e-12:
        raise NotAProductError("no phase aligns the factors with the input")
    phase = complex(overlap / abs(overlap))
    residual = np.max(np.abs(phase * prod - m))
    if residual >= tol.product_residual:
        raise NotAProductError(f"tensor-product residual {residual:.3e}")
    return a, b, phase


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
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    _require_unitary(m, tol.unitarity, "su2_params input")
    if abs(np.linalg.det(m) - 1.0) > tol.su2_det:
        raise ValueError("su2_params requires determinant 1")
    return _su2_params(m, tol)


def _su2_params(m: np.ndarray, tol: Tolerances) -> tuple[float, float, float, int]:
    # sign * Rz(phiz) R(theta, phi) has entries
    #   m00 = s e^{-i phiz/2} cos(theta/2)
    #   m10 = s e^{+i phiz/2} (-i e^{i phi}) sin(theta/2)
    theta = 2.0 * math.acos(min(1.0, max(0.0, abs(m[0, 0]))))

    if theta < tol.angle_snap:
        # Diagonal matrix: all rotation is in Rz.
        psi = float(np.angle(m[0, 0]))
        if psi <= 0.0:
            sign, phiz = 1, -2.0 * psi
        else:
            sign, phiz = -1, math.tau - 2.0 * psi
        return 0.0, 0.0, phiz % math.tau, sign

    if theta > math.pi - tol.angle_snap:
        # Anti-diagonal matrix: phiz is degenerate with phi, push it to 0.
        phi = (float(np.angle(m[1, 0])) + math.pi / 2.0) % math.tau
        return math.pi, phi, 0.0, 1

    psi = float(np.angle(m[0, 0]))  # equals arg(sign) - phiz/2
    if psi <= 0.0:
        sign, phiz = 1, -2.0 * psi
    else:
        sign, phiz = -1, math.tau - 2.0 * psi
    sign_arg = 0.0 if sign == 1 else math.pi
    phi = (float(np.angle(m[1, 0])) - sign_arg - phiz / 2.0 + math.pi / 2.0) % math.tau
    return theta, phi, phiz % math.tau, sign

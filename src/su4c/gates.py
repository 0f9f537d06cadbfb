"""Gate library, magic-basis machinery and canonical class representatives.

Computational basis order is |uu>, |ud>, |du>, |dd> with |u> = (1, 0). The
two-qubit library consists of equatorial rotations R(theta, phi), frame
rotations Rz(phiz) and one fixed entangling phase gate G applied to both
qubits at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .linalg import (
    EigenSystem,
    _as_complex,
    _joint_real_diagonalization,
    joint_real_diagonalization,
)

__all__ = [
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "G_GATE",
    "MAGIC",
    "GateElement",
    "gate_matrix",
    "r_gate",
    "rz_gate",
    "to_magic",
    "from_magic",
    "ClassParams",
    "canonical_v",
]

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# Entangling gate: exp(-i pi/4) exp(i pi/4 Z x Z). Determinant -1, so it is
# not special unitary on its own.
G_GATE = np.diag([1.0, -1j, -1j, 1.0]).astype(complex)

# Basis change to the magic (Bell-phase) frame in which local gates become
# real orthogonal and the entangling content of a unitary sits in the
# symmetric form u @ u.T.
MAGIC = np.array(
    [
        [1, 1j, 0, 0],
        [0, 0, 1j, 1],
        [0, 0, 1j, -1],
        [1, -1j, 0, 0],
    ],
    dtype=complex,
) / math.sqrt(2.0)


def r_gate(theta: float, phi: float) -> np.ndarray:
    """Equatorial rotation exp(-i theta (cos phi X + sin phi Y) / 2)."""
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    return np.array(
        [
            [c, -1j * np.exp(-1j * phi) * s],
            [-1j * np.exp(1j * phi) * s, c],
        ],
        dtype=complex,
    )


def rz_gate(phiz: float) -> np.ndarray:
    """Frame rotation diag(exp(-i phiz / 2), exp(i phiz / 2))."""
    return np.diag([np.exp(-0.5j * phiz), np.exp(0.5j * phiz)]).astype(complex)


@dataclass(frozen=True)
class GateElement:
    """One element of a pulse program.

    kind is "R", "Rz" or "G". R carries (theta, phi), Rz carries phiz, and
    both act on a single qubit given by target (0 or 1). G takes no
    parameters and acts on both qubits.
    """

    kind: str
    theta: float = 0.0
    phi: float = 0.0
    phiz: float = 0.0
    target: int | None = None

    def __post_init__(self):
        if self.kind not in ("R", "Rz", "G"):
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if self.kind == "G":
            if self.target is not None:
                raise ValueError("G acts on both qubits; target must be None")
        else:
            if self.target not in (0, 1):
                raise ValueError(f"single-qubit gate needs target 0 or 1, got {self.target}")


def gate_matrix(elem: GateElement) -> np.ndarray:
    """Matrix of a library element: 2x2 for R/Rz, 4x4 for G."""
    if elem.kind == "R":
        return r_gate(elem.theta, elem.phi)
    if elem.kind == "Rz":
        return rz_gate(elem.phiz)
    return G_GATE.copy()


def embed(m: np.ndarray, target: int) -> np.ndarray:
    """Promote a 2x2 matrix to the two-qubit space on the given qubit."""
    eye = np.eye(2, dtype=complex)
    return np.kron(m, eye) if target == 0 else np.kron(eye, m)


def to_magic(u) -> np.ndarray:
    """Conjugate into the magic frame: MAGIC^dag @ u @ MAGIC."""
    return MAGIC.conj().T @ _as_complex(u) @ MAGIC


def from_magic(u) -> np.ndarray:
    """Inverse of to_magic."""
    return MAGIC @ _as_complex(u) @ MAGIC.conj().T


@dataclass(frozen=True)
class ClassParams:
    """Three angles (alpha, beta, delta) labeling a local-equivalence class.

    The four class eigenphases are the linear combinations below; their sum
    vanishes identically, so the canonical representative always has unit
    determinant.
    """

    alpha: float
    beta: float
    delta: float

    def eigenphases(self) -> np.ndarray:
        a, b, d = self.alpha, self.beta, self.delta
        return np.array([a + b - d, a - b + d, -a + b + d, -a - b - d])


def _interaction_core(alpha: float, beta: float, delta: float) -> np.ndarray:
    """exp(i (beta XX + alpha YY + delta ZZ) / 2), built from its magic-frame
    diagonal so no matrix exponential is needed."""
    half = ClassParams(delta, beta, alpha).eigenphases() / 2.0
    return from_magic(np.diag(np.exp(1j * half)))


# Fixed single-qubit dressing applied to qubit 1 before the interaction core.
def _entry_frame() -> np.ndarray:
    return rz_gate(-math.pi / 2.0) @ r_gate(math.pi / 2.0, math.pi / 2.0) @ rz_gate(-math.pi)


def _exit_frame(delta: float) -> np.ndarray:
    return rz_gate(delta) @ r_gate(math.pi / 2.0, math.pi / 2.0)


def _canonical_phase(params: ClassParams) -> complex:
    """Quarter-turn phase convention of the canonical representative.

    i^m with m = 2*[alpha >= pi] + 3*round((alpha+beta+delta)/pi), all angles
    taken as stored in [0, 2pi). Half-up rounding keeps the rule exact on the
    branch grid.
    """
    s = params.alpha + params.beta + params.delta
    m = 2 * (1 if params.alpha >= math.pi else 0)
    m += 3 * int(math.floor(s / math.pi + 0.5))
    return (1j) ** (m % 4)


def canonical_v(params: ClassParams) -> np.ndarray:
    """Canonical entangling representative of a class.

    The representative is not a bare magic-frame diagonal: it carries fixed
    single-qubit dressing on qubit 1,

        V = i^m * (I x E1(delta)) @ exp(i (beta XX + alpha YY + delta ZZ) / 2)
                @ (I x E0)

    with E1(delta) = Rz(delta) R(pi/2, pi/2), E0 = Rz(-pi/2) R(pi/2, pi/2)
    Rz(-pi) and the quarter turn i^m from _canonical_phase. det V = 1 always
    (every factor has unit determinant and the phase is a fourth root of
    unity). The eigenvalues of v v^T in the magic frame equal
    exp(i eigenphases) up to one shared half-turn when i^m is imaginary.
    """
    a, b, d = params.alpha, params.beta, params.delta
    eye = np.eye(2, dtype=complex)
    left = np.kron(eye, _exit_frame(d))
    right = np.kron(eye, _entry_frame())
    return _canonical_phase(params) * (left @ _interaction_core(a, b, d) @ right)


def class_spectrum(u, tol: Tolerances = DEFAULT_TOL) -> EigenSystem:
    """Eigensystem of u @ u.T in the magic frame (u must be det-1 unitary).

    The eigenphases are the local-equivalence invariants; the eigenvectors
    feed the single-qubit factor extraction.
    """
    m = to_magic(u)
    det = np.linalg.det(m)
    if abs(det - 1.0) > tol.determinant:
        raise ValueError(f"class_spectrum needs determinant 1, got {det}")
    return joint_real_diagonalization(m @ m.T, tol)


def _class_spectrum(u: np.ndarray, tol: Tolerances) -> EigenSystem:
    m = to_magic(u)
    return _joint_real_diagonalization(m @ m.T, tol)

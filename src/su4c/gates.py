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

from .linalg import _canonicalize, _joint_real_eigensystem, _kron

__all__ = ["G_GATE", "GateElement", "r_gate", "rz_gate", "ClassParams"]

_PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# Entangling gate: exp(-i pi/4) exp(i pi/4 Z x Z). Determinant -1, so it is
# not special unitary on its own.
G_GATE = np.diag([1.0, -1j, -1j, 1.0]).astype(complex)

# Basis change to the magic (Bell-phase) frame in which local gates become
# real orthogonal and the entangling content of a unitary sits in the
# symmetric form u @ u.T.
_MAGIC = np.array(
    [
        [1, 1j, 0, 0],
        [0, 0, 1j, 1],
        [0, 0, 1j, -1],
        [1, -1j, 0, 0],
    ],
    dtype=complex,
) / math.sqrt(2.0)
_MAGIC_DAG = _MAGIC.conj().T

_I2 = np.eye(2, dtype=complex)


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
    return np.array([[np.exp(-0.5j * phiz), 0.0], [0.0, np.exp(0.5j * phiz)]], dtype=complex)


def _r_gates(theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """r_gate of each (theta, phi) pair, as an (N, 2, 2) stack; each row
    is built with r_gate's operations in r_gate's order."""
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    out = np.empty((len(theta), 2, 2), dtype=complex)
    out[:, 0, 0] = out[:, 1, 1] = c
    out[:, 0, 1] = -1j * np.exp(-1j * phi) * s
    out[:, 1, 0] = -1j * np.exp(1j * phi) * s
    return out


def _rz_gates(phiz: np.ndarray) -> np.ndarray:
    """rz_gate of each angle, as an (N, 2, 2) stack."""
    out = np.zeros((len(phiz), 2, 2), dtype=complex)
    out[:, 0, 0] = np.exp(-0.5j * phiz)
    out[:, 1, 1] = np.exp(0.5j * phiz)
    return out


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


def _to_magic(u: np.ndarray) -> np.ndarray:
    """Conjugate into the magic frame: _MAGIC^dag @ u @ _MAGIC (row by row
    on a stack of matrices)."""
    return _MAGIC_DAG @ u @ _MAGIC


def _from_magic(u: np.ndarray) -> np.ndarray:
    """Inverse of _to_magic, row by row on a stack too."""
    return _MAGIC @ u @ _MAGIC_DAG


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


_R_HALF_Y = r_gate(math.pi / 2.0, math.pi / 2.0)
# Fixed single-qubit dressing applied to qubit 1 before the interaction core.
_ENTRY_FRAME = rz_gate(-math.pi / 2.0) @ _R_HALF_Y @ rz_gate(-math.pi)
_ENTRY_LAYER = _kron(_I2, _ENTRY_FRAME)


_QUARTER_TURNS = np.array([1, 1j, -1, -1j])


def _canonical_phase(angles: np.ndarray) -> np.ndarray:
    """The quarter turn i^m of the canonical representative (_canonical_vs),
    for each row (alpha, beta, delta) of an (N, 3) angle array, as (N,).

    i^m with m = 2*[alpha >= pi] + 3*round((alpha+beta+delta)/pi), all angles
    taken as stored in [0, 2pi). Half-up rounding keeps the rule exact on the
    branch grid.
    """
    alpha, beta, delta = angles.T
    m = 2 * (alpha >= math.pi) + 3 * np.floor((alpha + beta + delta) / math.pi + 0.5).astype(int)
    return _QUARTER_TURNS[m % 4]


def _canonical_vs(angles: np.ndarray, exits: np.ndarray) -> np.ndarray:
    """The canonical entangling representative of each class (alpha, beta,
    delta), a row of an (N, 3) angle array, without its quarter turn, as an
    (N, 4, 4) stack; exits are the rows' _exit_layers.

    The representative is not a bare magic-frame diagonal: it carries fixed
    single-qubit dressing on qubit 1,

        V = i^m * (I x E1(delta)) @ exp(i (beta XX + alpha YY + delta ZZ) / 2)
                @ (I x E0)

    with E1(delta) = Rz(delta) R(pi/2, pi/2), E0 = Rz(-pi/2) R(pi/2, pi/2)
    Rz(-pi) and the quarter turn i^m from _canonical_phase. det V = 1 always
    (every factor has unit determinant and the phase is a fourth root of
    unity). The eigenvalues of V V^T in the magic frame equal
    exp(i eigenphases) up to one shared half-turn when i^m is imaginary.
    """
    n = len(angles)
    alpha, beta, delta = angles.T
    # The interaction core exp(i (beta XX + alpha YY + delta ZZ) / 2), built
    # from its magic-frame diagonal so no matrix exponential is needed: the
    # eigenphases of ClassParams(delta, beta, alpha), halved.
    half = np.stack(
        [
            delta + beta - alpha,
            delta - beta + alpha,
            -delta + beta + alpha,
            -delta - beta - alpha,
        ],
        axis=1,
    ) / 2.0
    diagonal = np.arange(4)
    core = np.zeros((n, 4, 4), dtype=complex)
    core[:, diagonal, diagonal] = np.exp(1j * half)
    return exits @ _from_magic(core) @ _ENTRY_LAYER


def _exit_layers(delta: np.ndarray) -> np.ndarray:
    """The exit frames I x E1(delta) = I x Rz(delta) R(pi/2, pi/2) of
    _canonical_vs, one per angle, as an (N, 4, 4) stack."""
    return _kron(_I2, _rz_gates(delta) @ _R_HALF_Y)


def _class_spectrum(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The eigensystem of u @ u.T in the magic frame, for each det-1 unitary
    u of an (N, 4, 4) stack: the phases (N, 4), ascending in (-pi, pi], are
    the local-equivalence invariants; the real eigenvectors (N, 4, 4), det
    +1 and sign-fixed by _canonicalize, feed the single-qubit factor
    extraction."""
    return _canonicalize(*_class_eigensystem(u))


def _class_eigensystem(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_class_spectrum of each row before its columns are ordered and
    signed: the same phases, unsorted."""
    m = _to_magic(u)
    return _joint_real_eigensystem(m @ m.swapaxes(-1, -2))

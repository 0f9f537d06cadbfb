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

from .config import DEFAULT_TOL
from .linalg import NotAProductError, _canonicalize, _joint_real_eigensystem, _kron

__all__ = ["G_GATE", "GateElement", "r_gate", "rz_gate", "ClassParams"]

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


# The letters of the quaternion units 1, i, j, k: the quaternion q is the
# SU(2) element q0 I - i (q1 X + q2 Y + q3 Z), and Hamilton products are
# matrix products.
_UNIT_LETTERS = np.array([[[1, 0], [0, 1]], [[0, -1j], [-1j, 0]], [[0, -1], [1, 0]], [[-1j, 0], [0, 1j]]])
# Row 4k + l of _ASSOCIATE is the magic-frame image of kron(unit k, unit l),
# flattened: real, with four entries +-1, and _ASSOCIATE.T @ _ASSOCIATE = 4 I.
# So O = _to_magic(kron(a, b)) for unit quaternions a, b is linear in the
# associate matrix a b^T, and a b^T = (_ASSOCIATE @ O.ravel()) / 4, each
# entry a sum of four entries of O.
_ASSOCIATE = _to_magic(_kron(_UNIT_LETTERS[:, None], _UNIT_LETTERS[None])).real.round().reshape(16, 16)
# the four terms of entry (k, l) of the associate matrix: term t of every
# entry sits in column 4k + l of row t of these
_ASSOCIATE_INDEX = _ASSOCIATE.nonzero()[1].reshape(16, 4).T
_ASSOCIATE_SIGN = _ASSOCIATE[np.arange(16), _ASSOCIATE_INDEX] / 4.0


def _four_term_sum(t: np.ndarray) -> np.ndarray:
    """t[:, 0] + t[:, 1] + t[:, 2] + t[:, 3], added in that order."""
    return t[:, 0] + t[:, 1] + t[:, 2] + t[:, 3]


def _magic_factors(o: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit quaternions a, b (N, 4) with _to_magic(kron(a, b)) = O, for each
    real det +1 orthogonal O of an (N, 4, 4) stack: a on qubit 0, b on
    qubit 1.

    The associate matrix K = a b^T is one four-term sum per entry. b is
    K's largest row, normalized, and a = K b. Of the two signs (a, b) and
    (-a, -b), the one kept gives a's letter a positive real part in m00,
    or in m01 when |m01| is the larger (a0^2 + a3^2 < a1^2 + a2^2).

    Raises NotAProductError when K misses a b^T by
    DEFAULT_TOL.product_residual or more, as it does for det -1 input."""
    k = _four_term_sum(o.reshape(-1, 16)[:, _ASSOCIATE_INDEX] * _ASSOCIATE_SIGN).reshape(-1, 4, 4)
    rows = np.arange(len(k))
    norms = _four_term_sum((k * k).swapaxes(1, 2))  # a_i^2 |b|^2
    top = norms.argmax(axis=1)
    b = k[rows, top] / np.sqrt(norms[rows, top])[:, None]
    a = _four_term_sum((k * b[:, None, :]).swapaxes(1, 2))  # a_top > 0
    diagonal = norms[:, 0] + norms[:, 3] >= norms[:, 1] + norms[:, 2]
    sign = np.where(np.where(diagonal, a[:, 0] < 0.0, a[:, 2] > 0.0), -1.0, 1.0)[:, None]
    a, b = sign * a, sign * b
    residual = np.abs(k - a[:, :, None] * b[:, None, :]).max(axis=(1, 2))
    if not (residual < DEFAULT_TOL.product_residual).all():
        raise NotAProductError(f"tensor-product residual {residual.max():.3e}")
    return a, b


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
_ENTRY_MAGIC = _to_magic(_kron(_I2, _ENTRY_FRAME)).real  # real, as the layer is local


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
    return _from_magic(_canonical_vms(angles, _to_magic(exits).real))


def _canonical_vms(angles: np.ndarray, exit_frames: np.ndarray) -> np.ndarray:
    """_canonical_vs in the magic frame, from the rows' magic-frame exit
    layers (real, as the layers are local): the interaction core is
    diagonal there, with the eigenphases of ClassParams(delta, beta, alpha),
    halved, so no matrix exponential is needed."""
    alpha, beta, delta = angles.T
    halves = [delta + beta - alpha, delta - beta + alpha, -delta + beta + alpha, -delta - beta - alpha]
    return exit_frames @ (np.exp(1j * np.stack(halves, axis=1) / 2.0)[:, :, None] * _ENTRY_MAGIC)


def _exit_layers(delta: np.ndarray) -> np.ndarray:
    """The exit frames I x E1(delta) = I x Rz(delta) R(pi/2, pi/2) of
    _canonical_vs, one per angle, as an (N, 4, 4) stack."""
    return _kron(_I2, _rz_gates(delta) @ _R_HALF_Y)


def _class_spectrum(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The eigensystem of m @ m.T, for the magic-frame image m =
    _to_magic(u) of each det-1 unitary u of an (N, 4, 4) stack: the phases
    (N, 4), ascending in (-pi, pi], are the local-equivalence invariants;
    the real eigenvectors (N, 4, 4), det +1 and sign-fixed by
    _canonicalize, feed the single-qubit factor extraction."""
    return _canonicalize(*_class_eigensystem(m))


def _class_eigensystem(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_class_spectrum of each magic-frame image before its columns are
    ordered and signed: the same phases, unsorted."""
    return _joint_real_eigensystem(m @ m.swapaxes(-1, -2))

"""Circuit parameterization and lowering to calibrated pulse programs.

A compiled two-qubit unitary is stored as four single-qubit corrections
around one canonical entangling block:

    U = global_phase * (C x D) @ V(alpha, beta, delta) @ (A x B)

with A, C on qubit 0 and B, D on qubit 1. Lowering rewrites this with three
applications of the entangling gate G and a fixed grid of pi/2 pulses, so
every compiled circuit has the same pulse count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gates import (
    GateElement,
    ClassParams,
    _canonical_phase,
    _canonical_vs,
    _exit_layers,
    _four_term_sum,
    r_gate,
    rz_gate,
)
from .linalg import _kron, _su2_params

__all__ = ["LocalGate", "CircuitParams", "circuit_to_unitary", "pulse_angles", "lower_to_pulses", "PULSE_COUNT"]


@dataclass(frozen=True)
class LocalGate:
    """Single-qubit correction sign * Rz(phiz) @ R(theta, phi).

    The sign tracks the Rz double cover explicitly so phiz stays in one turn.
    """

    theta: float
    phi: float
    phiz: float
    sign: int = 1

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")

    def matrix(self) -> np.ndarray:
        return self.sign * rz_gate(self.phiz) @ r_gate(self.theta, self.phi)


@dataclass(frozen=True)
class CircuitParams:
    """Full parameterization of a compiled two-qubit unitary."""

    class_params: ClassParams
    a: LocalGate
    b: LocalGate
    c: LocalGate
    d: LocalGate
    global_phase: complex = 1.0 + 0.0j


def circuit_to_unitary(params: CircuitParams) -> np.ndarray:
    """Compose the stored parameterization back into a 4x4 matrix, with the
    canonical representative of its class (gates._canonical_vs) and that
    representative's quarter turn."""
    pre = _kron(params.a.matrix(), params.b.matrix())
    post = _kron(params.c.matrix(), params.d.matrix())
    cp = params.class_params
    rows = np.array([[cp.alpha, cp.beta, cp.delta]], dtype=float)
    v = _canonical_phase(rows)[0] * _canonical_vs(rows, _exit_layers(rows[:, 2]))[0]
    return params.global_phase * post @ v @ pre


def _left(p) -> np.ndarray:
    """The matrix of q -> p q, the Hamilton product by p on the left."""
    p0, p1, p2, p3 = p
    return np.array([[p0, -p1, -p2, -p3], [p1, p0, -p3, p2], [p2, p3, p0, -p1], [p3, -p2, p1, p0]])


def _right(p) -> np.ndarray:
    """The matrix of q -> q p, the Hamilton product by p on the right."""
    p0, p1, p2, p3 = p
    return np.array([[p0, -p1, -p2, -p3], [p1, p0, p3, -p2], [p2, -p3, p0, p1], [p3, p2, -p1, p0]])


# The constant factors of the eight slots of pulse_angles, in application
# order, as one matrix each, the left factor's times the right factor's
# (unit quaternions, see _su2_params; H and Z enter divided by i, so the
# scalar dropped only shifts the global phase): slot s is _SLOT_MAPS[s]
# applied to the slot's one varying quaternion.
_R2 = math.sqrt(0.5)
_SLOT_MAPS = np.array([
    _left([_R2, 0.0, 0.0, -_R2]),  # Rz(-pi/2) A
    _left([0.0, -1.0, 0.0, 0.0]),  # H Rz(-pi/2) E0 B, E0 of _canonical_vs
    _right([_R2, 0.0, 0.0, _R2]),  # R(alpha, pi) Rz(pi/2)
    _left([-0.5, 0.5, -0.5, 0.5]),  # H Rz(pi/2) 1
    _right([-_R2, 0.0, 0.0, _R2]),  # R(beta, pi) Rz(pi/2) Z
    _left([0.0, -_R2, 0.0, -_R2]) @ _right([0.0, 0.0, 0.0, 1.0]),  # H Rz(-delta) Z, with i^2 = -1
    _right([_R2, 0.0, 0.0, _R2]),  # C Rz(pi/2)
    _right([0.0, _R2, -_R2, 0.0]),  # D Rz(delta) R(pi/2, pi/2) H Rz(pi/2)
])
# _SLOT_COLUMNS[j, s] is column j of _SLOT_MAPS[s]
_SLOT_COLUMNS = _SLOT_MAPS.transpose(2, 0, 1).copy()

# (kind, target) of each pulse of every program in application order: 4
# slots of [R, Rz, R, Rz] on qubit 0 and on qubit 1, with G between slots.
_SLOT = tuple((kind, target) for target in (0, 1) for kind in ("R", "Rz", "R", "Rz"))
_TEMPLATE = (*_SLOT, ("G", None)) * 3 + _SLOT
PULSE_COUNT = len(_TEMPLATE)  # 8 slots x (R, Rz, R, Rz) + 3 G applications
_R_THETA = math.pi / 2.0  # of every R pulse


def pulse_angles(params: list[CircuitParams]) -> np.ndarray:
    """The pulse programs of the circuits as an angle table (N, 32): row k
    holds, in _TEMPLATE order, the phase of each R and the angle of each Rz
    pulse of lower_to_pulses(params[k]).

    The canonical block is realized, up to global phase, as

        V ~ L0 . G . L1 . G . L2 . G . L3     (matrix order)

    with single-qubit layers (qubit 0, qubit 1)

        L0 = (Rz(pi/2),             Rz(delta) R(pi/2, pi/2) H Rz(pi/2))
        L1 = (R(beta, pi) Rz(pi/2) Z, H Rz(-delta) Z)
        L2 = (R(alpha, pi) Rz(pi/2), H Rz(pi/2))
        L3 = (Rz(-pi/2),            H Rz(-pi/2) E0)      (E0 of _canonical_vs)

    The interaction core exp(i (beta XX + alpha YY + delta ZZ) / 2) comes
    from the identities (C = CNOT(control 0) = (1 x H) CZ (1 x H),
    CZ = i (Rz(pi/2) x Rz(pi/2)) G):

        exp(i(b XX + d ZZ)/2)  = C (R(b, pi) x Rz(-d)) C
        exp(i a YY / 2)        = (S x S) C (R(a, pi) x 1) C (S x S)^dag

    whose two inner CNOTs collapse through
    C (Rz(pi/2) x Rz(pi/2)) C = (Rz(pi/2) x 1) exp(-i pi/4 ZZ), with
    exp(-i pi/4 ZZ) = e^{-i pi/4} (Z x Z) G. The canonical block's fixed
    entry and exit frames on qubit 1 are merged into L3 and L0, and L3 and
    L0 into the corrections (A, B) and (C, D), leaving four slots per qubit
    around three G applications for every class.

    Each slot is a unit quaternion (see _su2_params): the Hamilton product
    of one varying quaternion, a letter or a class rotation built from its
    angles in closed form, with the slot's constant factors (_SLOT_MAPS).
    It is written as sign * Rz(phiz) R(theta, phi), and R(theta, phi) as
    the triple

        R(theta, phi) = R(pi/2, phi + pi/2) Rz(theta) R(pi/2, phi - pi/2),

    which is exact for every (theta, phi).

    pulse_angles is the object view of _pulse_angles, which takes the
    arrays _decompose_arrays returns, with letters from _quaternions.
    """
    letters = [v for p in params for g in (p.a, p.b, p.c, p.d) for v in (g.theta, g.phi, g.phiz, g.sign)]
    classes = [v for p in params for v in (p.class_params.alpha, p.class_params.beta, p.class_params.delta)]
    quaternions = _quaternions(np.array(letters, dtype=float).reshape(-1, 4))
    return _pulse_angles(np.array(classes, dtype=float).reshape(-1, 3), quaternions.reshape(-1, 4, 4))


def _quaternions(letters: np.ndarray) -> np.ndarray:
    """The unit quaternion (N, 4) of each letter sign * Rz(phiz) R(theta,
    phi), a (theta, phi, phiz, sign) row of an (N, 4) array, in closed form:
    sign (cos(phiz/2) cos(theta/2), sin(theta/2) cos(phi + phiz/2),
    sin(theta/2) sin(phi + phiz/2), sin(phiz/2) cos(theta/2))."""
    theta, phi, phiz, sign = letters.T
    cos, sin = np.cos(theta / 2.0), np.sin(theta / 2.0)
    turn = phi + phiz / 2.0
    return sign[:, None] * np.array(
        [np.cos(phiz / 2.0) * cos, sin * np.cos(turn), sin * np.sin(turn), np.sin(phiz / 2.0) * cos]
    ).T


def _pulse_angles(classes: np.ndarray, letters: np.ndarray) -> np.ndarray:
    """pulse_angles of the circuits with class angles (alpha, beta, delta),
    (N, 3), and letters A, B, C, D as unit quaternions, (N, 4, 4): each
    slot of _slot_quaternions read as an R triple and an Rz."""
    theta, phi, phiz, _ = _su2_params(_slot_quaternions(classes, letters).reshape(-1, 4)).T
    out = np.empty((len(theta), 4))
    out[:, 0] = (phi - _R_THETA) % math.tau
    out[:, 1] = theta % math.tau
    out[:, 2] = (phi + _R_THETA) % math.tau
    out[:, 3] = phiz
    return out.reshape(-1, 32)


# D k = (-d3, d2, -d1, d0): the Hamilton product of D by the unit k
_TIMES_K = np.array([-1.0, 1.0, -1.0, 1.0])


def _slot_quaternions(classes: np.ndarray, letters: np.ndarray) -> np.ndarray:
    """The eight slots (N, 8, 4) of each program of _pulse_angles, in
    application order, as unit quaternions: each slot's varying quaternion,
    the class rotations built from their angles in closed form, under the
    slot's _SLOT_MAPS matrix, as four-term sums."""
    n = len(classes)
    cos, sin = np.cos(classes / 2.0), np.sin(classes / 2.0)
    varying = np.zeros((n, 8, 4))
    varying[:, [0, 1, 6]] = letters[:, :3]
    varying[:, 3, 0] = 1.0
    varying[:, [2, 4], 0] = cos[:, :2]  # R(alpha, pi) and R(beta, pi)
    varying[:, [2, 4], 1] = -sin[:, :2]
    varying[:, 5, 0], varying[:, 5, 3] = cos[:, 2], -sin[:, 2]  # Rz(-delta)
    d = letters[:, 3]
    varying[:, 7] = cos[:, 2:] * d + sin[:, 2:] * d[:, ::-1] * _TIMES_K  # D Rz(delta)
    return _four_term_sum(varying.swapaxes(1, 2)[..., None] * _SLOT_COLUMNS)


def _pulses(row: np.ndarray) -> list[GateElement]:
    """The GateElement view of one angle row."""
    angles = iter(row.tolist())
    return [GateElement("R", theta=_R_THETA, phi=next(angles), target=target) if kind == "R"
            else GateElement("Rz", phiz=next(angles), target=target) if kind == "Rz" else GateElement("G")
            for kind, target in _TEMPLATE]


def lower_to_pulses(params: CircuitParams) -> list[GateElement]:
    """The calibrated pulse program of a compiled circuit, the GateElement
    view of its pulse_angles row, in application order; composing it
    reproduces circuit_to_unitary(params) up to global phase."""
    return _pulses(pulse_angles([params])[0])


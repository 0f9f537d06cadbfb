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
    _ENTRY_FRAME,
    _PAULI_Z,
    _R_HALF_Y,
    _canonical_phase,
    _canonical_vs,
    _exit_layers,
    _r_gates,
    _rz_gates,
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


# Fixed 2x2 ingredients of the entangling-block template.
_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
_RZ_P = rz_gate(math.pi / 2.0)
_RZ_M = rz_gate(-math.pi / 2.0)
_H_RZ_P = _HADAMARD @ _RZ_P
# The qubit-1 factor of layer L3 (see pulse_angles), which no class changes.
_L3_1 = _HADAMARD @ _RZ_M @ _ENTRY_FRAME


# (kind, target) of each pulse of every program in application order: 4
# slots of [R, Rz, R, Rz] on qubit 0 and on qubit 1, with G between slots.
_SLOT = tuple((kind, target) for target in (0, 1) for kind in ("R", "Rz", "R", "Rz"))
_TEMPLATE = (*_SLOT, ("G", None)) * 3 + _SLOT
PULSE_COUNT = len(_TEMPLATE)  # 8 slots x (R, Rz, R, Rz) + 3 G applications
_R_THETA = math.pi / 2.0  # of every R pulse
# The square root of each slot's determinant: H and Z (det -1) enter slots
# 1, 3, 4 and 7 once each, and every other factor has det 1.
_SLOT_ROOTS = np.array([1, 1j, 1, 1j, 1j, 1, 1, 1j])


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
    around three G applications for every class. Each slot is
    divided by the square root of its fixed determinant (the dropped scalar
    only shifts the global phase), written as sign * Rz(phiz) R(theta, phi),
    and R(theta, phi) as the triple

        R(theta, phi) = R(pi/2, phi + pi/2) Rz(theta) R(pi/2, phi - pi/2),

    which is exact for every (theta, phi).

    pulse_angles is the object view of _pulse_angles, which takes the
    arrays _decompose_arrays returns.
    """
    letters = [v for p in params for g in (p.a, p.b, p.c, p.d) for v in (g.theta, g.phi, g.phiz, g.sign)]
    classes = [v for p in params for v in (p.class_params.alpha, p.class_params.beta, p.class_params.delta)]
    return _pulse_angles(
        np.array(classes, dtype=float).reshape(-1, 3), np.array(letters, dtype=float).reshape(-1, 4, 4)
    )


def _pulse_angles(classes: np.ndarray, letters: np.ndarray) -> np.ndarray:
    """pulse_angles of the circuits with class angles (alpha, beta, delta),
    (N, 3), and letters A, B, C, D as (theta, phi, phiz, sign) rows,
    (N, 4, 4): each slot divided by its entry of _SLOT_ROOTS, read as an R
    triple and an Rz."""
    su = _slots(classes, letters) / _SLOT_ROOTS[:, None, None]
    theta, phi, phiz, _ = _su2_params(su.reshape(-1, 2, 2)).T
    out = np.empty((len(theta), 4))
    out[:, 0] = (phi - _R_THETA) % math.tau
    out[:, 1] = theta % math.tau
    out[:, 2] = (phi + _R_THETA) % math.tau
    out[:, 3] = phiz
    return out.reshape(-1, 32)


def _slots(classes: np.ndarray, letters: np.ndarray) -> np.ndarray:
    """The eight slots (N, 8, 2, 2) of each program of _pulse_angles, in
    application order, before _SLOT_ROOTS; every R and Rz factor of the
    batch comes from one _r_gates and one _rz_gates call."""
    n = len(classes)
    flat = letters.reshape(4 * n, 4)
    alpha, beta, delta = classes.T
    # rows: the angles of R, their phases and the angles of Rz; columns:
    # the 4N letters, then R(beta, pi), Rz(-delta), then R(alpha, pi),
    # Rz(delta)
    table = np.empty((3, 6 * n))
    table[:, : 4 * n] = flat[:, :3].T
    table[0, 4 * n : 5 * n], table[0, 5 * n :] = beta, alpha
    table[1, 4 * n :] = math.pi
    table[2, 4 * n : 5 * n], table[2, 5 * n :] = -delta, delta
    r, rz = _r_gates(table[0], table[1]), _rz_gates(table[2])
    signs = flat[:, 3]
    local = (signs[:, None, None] * rz[: 4 * n]) @ r[: 4 * n]
    a, b, c, d = local.reshape(n, 4, 2, 2).swapaxes(0, 1)
    r_beta, r_alpha = r[4 * n : 5 * n], r[5 * n :]
    rz_minus_delta, rz_delta = rz[4 * n : 5 * n], rz[5 * n :]
    # application order: L3 after (A, B), L2, L1, then (C, D) after L0
    slots = np.empty((n, 8, 2, 2), dtype=complex)
    slots[:, 0] = _RZ_M @ a
    slots[:, 1] = _L3_1 @ b
    slots[:, 2] = r_alpha @ _RZ_P
    slots[:, 3] = _H_RZ_P
    slots[:, 4] = r_beta @ _RZ_P @ _PAULI_Z
    slots[:, 5] = _HADAMARD @ rz_minus_delta @ _PAULI_Z
    slots[:, 6] = c @ _RZ_P
    slots[:, 7] = d @ (rz_delta @ _R_HALF_Y @ _H_RZ_P)
    return slots


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


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

from .config import DEFAULT_TOL
from .gates import (
    GateElement,
    PAULI_Z,
    ClassParams,
    _entry_frame,
    _exit_frame,
    canonical_v,
    embed,
    gate_matrix,
    r_gate,
    rz_gate,
)
from .linalg import _special_unitary_projection, _su2_params

__all__ = [
    "LocalGate",
    "CircuitParams",
    "circuit_to_unitary",
    "r_pulse_triple",
    "lower_to_pulses",
    "compose_pulses",
    "PULSE_COUNT",
]


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
    """Compose the stored parameterization back into a 4x4 matrix."""
    pre = np.kron(params.a.matrix(), params.b.matrix())
    post = np.kron(params.c.matrix(), params.d.matrix())
    v = canonical_v(params.class_params)
    return params.global_phase * post @ v @ pre


def r_pulse_triple(theta: float, phi: float, target: int = 0) -> list[GateElement]:
    """R(theta, phi) out of two calibrated pi/2 pulses and a frame advance:

        R(theta, phi) = R(pi/2, phi + pi/2) Rz(theta) R(pi/2, phi - pi/2)

    Returned in application order, on qubit target. Exact for every (theta, phi).
    """
    return [
        GateElement("R", theta=math.pi / 2.0, phi=(phi - math.pi / 2.0) % math.tau, target=target),
        GateElement("Rz", phiz=theta % math.tau, target=target),
        GateElement("R", theta=math.pi / 2.0, phi=(phi + math.pi / 2.0) % math.tau, target=target),
    ]


def _slot_pulses(m: np.ndarray, target: int) -> list[GateElement]:
    """Lower an arbitrary 2x2 unitary to [R, Rz, R, Rz] on one qubit.

    The slot is phase-normalized first; the dropped scalar only shifts the
    program's global phase. Emits a fixed element count regardless of angles.
    """
    su, _ = _special_unitary_projection(m, DEFAULT_TOL)
    theta, phi, phiz, _ = _su2_params(su, DEFAULT_TOL)
    out = r_pulse_triple(theta, phi, target)
    out.append(GateElement("Rz", phiz=phiz, target=target))
    return out


# Fixed 2x2 ingredients of the entangling-block template.
_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
_RZ_P = rz_gate(math.pi / 2.0)
_RZ_M = rz_gate(-math.pi / 2.0)


def _v_template_layers(cp: ClassParams) -> list[tuple[np.ndarray, np.ndarray]]:
    """Single-qubit layers (qubit0, qubit1) realizing the canonical block as

        V ~ L0 . G . L1 . G . L2 . G . L3     (matrix order, ~ global phase)

    The interaction core exp(i (beta XX + alpha YY + delta ZZ) / 2) comes
    from the identities (C = CNOT(control 0) = (1 x H) CZ (1 x H),
    CZ = i (Rz(pi/2) x Rz(pi/2)) G):

        exp(i(b XX + d ZZ)/2)  = C (R(b, pi) x Rz(-d)) C
        exp(i a YY / 2)        = (S x S) C (R(a, pi) x 1) C (S x S)^dag

    whose two inner CNOTs collapse through
    C (Rz(pi/2) x Rz(pi/2)) C = (Rz(pi/2) x 1) exp(-i pi/4 ZZ), with
    exp(-i pi/4 ZZ) = e^{-i pi/4} (Z x Z) G. The canonical block's fixed
    entry/exit frames on qubit 1 are merged into the boundary layers. Three
    G applications for every class.
    """
    a, b, d = cp.alpha, cp.beta, cp.delta
    h_rzp = _HADAMARD @ _RZ_P
    layer0 = (_RZ_P, _exit_frame(d) @ h_rzp)
    layer1 = (r_gate(b, math.pi) @ _RZ_P @ PAULI_Z, _HADAMARD @ rz_gate(-d) @ PAULI_Z)
    layer2 = (r_gate(a, math.pi) @ _RZ_P, h_rzp)
    layer3 = (_RZ_M, _HADAMARD @ _RZ_M @ _entry_frame())
    return [layer0, layer1, layer2, layer3]


def lower_to_pulses(params: CircuitParams) -> list[GateElement]:
    """Lower a compiled circuit to the calibrated pulse program.

    The outermost template layers are merged into the single-qubit
    corrections, leaving four R slots per qubit around three G applications.
    Elements are listed in application order; composing them reproduces
    circuit_to_unitary(params) up to global phase (signs and the stored
    phase are intentionally dropped).
    """
    layers = _v_template_layers(params.class_params)
    first = (layers[3][0] @ params.a.matrix(), layers[3][1] @ params.b.matrix())
    last = (params.c.matrix() @ layers[0][0], params.d.matrix() @ layers[0][1])

    seq: list[GateElement] = []
    for mats in (first, layers[2], layers[1], last):
        seq.extend(_slot_pulses(mats[0], 0))
        seq.extend(_slot_pulses(mats[1], 1))
        if mats is not last:
            seq.append(GateElement("G"))
    return seq


PULSE_COUNT = 35  # 8 slots x (R, Rz, R, Rz) + 3 G applications


def compose_pulses(seq: list[GateElement]) -> np.ndarray:
    """Multiply a pulse program into a 4x4 matrix (application order)."""
    out = np.eye(4, dtype=complex)
    for elem in seq:
        m = gate_matrix(elem)
        out = (m if elem.kind == "G" else embed(m, elem.target)) @ out
    return out

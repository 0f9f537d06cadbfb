"""Two-qubit compiler: arbitrary 4x4 unitary -> single-qubit letters around
the canonical entangling block.

The pipeline works in the magic frame, where the entangling content of a
det-1 unitary u sits in the symmetric unitary u @ u.T. Its eigenphases are
invariant under single-qubit dressing and label the local-equivalence class;
its real orthogonal eigenframes, compared against those of the canonical
class representative, yield the four single-qubit corrections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuits import CircuitParams, LocalGate, circuit_to_unitary
from .config import DEFAULT_TOL
from .gates import (
    ClassParams,
    _canonical_phase,
    _canonical_vms,
    _class_eigensystem,
    _class_spectrum,
    _exit_layers,
    _magic_factors,
    _to_magic,
)
from .linalg import (
    _as_complex,
    _lead_positive,
    _proper,
    _require_shape,
    _require_unitary,
    _special_unitary_projection,
    _su2_params,
    nearest_unitary,
    phase_invariant_distance,
)

__all__ = [
    "RealityViolationError",
    "VerificationReport",
    "local_invariants",
    "class_parameters",
    "decompose",
    "decompose_many",
    "verify",
]


class RealityViolationError(ValueError):
    """The magic-frame factors that must be real came out complex.

    This signals a fault in the compiler, a representative frame that does
    not diagonalize its symmetric product with the input's phases, not a
    recoverable input problem.
    """


def _wrap_distance(a: float, b: float) -> float:
    """Circular distance between two phases."""
    return abs(math.remainder(a - b, math.tau))


def local_invariants(u) -> np.ndarray:
    """Sorted eigenphases of the magic-frame symmetric product, in (-pi, pi].

    Two unitaries are equivalent up to single-qubit operations exactly when
    these four phases agree. The input is projected to determinant 1 first;
    note the projection has a four-fold sheet ambiguity, so a global phase
    on the input can shift all four invariants by pi together.
    """
    m = _as_complex(u)
    _require_shape(m, 4)
    _require_unitary(m, DEFAULT_TOL.unitarity, "local_invariants input")
    return _local_invariants(m[None])[0]


def _local_invariants(m: np.ndarray) -> np.ndarray:
    """Sorted invariants of each row of an (N, 4, 4) stack, as (N, 4): the
    phases of the class spectrum. Sorting them alone gives the values the
    spectrum's ordering gives, as its tie-break only orders equal phases."""
    su, _ = _special_unitary_projection(m)
    return np.sort(_class_eigensystem(_to_magic(su))[0], axis=-1)


def class_parameters(u) -> ClassParams:
    """Class angles (alpha, beta, delta) from the sorted invariants.

    Uses pair means of the first three sorted phases; any valid pairing
    labels the same class, this fixed one keeps the output deterministic.
    Results are wrapped into [0, 2pi).
    """
    return ClassParams(*_class_angles(local_invariants(u)[None])[0].tolist())


def _class_angles(s: np.ndarray) -> np.ndarray:
    """(alpha, beta, delta), (N, 3), of each row of sorted invariants (N, 4):
    the means of phase pairs (0, 1), (0, 2) and (1, 2)."""
    return 0.5 * (s[:, [0, 0, 1]] + s[:, [1, 2, 2]]) % math.tau


def decompose(u) -> CircuitParams:
    """Factor a two-qubit unitary into letters around the canonical block.

    Returns CircuitParams such that circuit_to_unitary reproduces the input
    exactly (all projection and factoring scalars are folded into
    global_phase). The construction: project to det 1, read off the class,
    build the canonical representative, align the real eigenframes of both
    symmetric products, and split the two resulting magic-frame rotations
    into tensor products. decompose_many does the same for a stack.
    """
    m = _as_complex(u)
    _require_shape(m, 4)
    _require_unitary(m, DEFAULT_TOL.unitarity, "decompose input")
    return _circuit_params(*_decompose_arrays(m[None]))[0]


def decompose_many(us) -> list[CircuitParams]:
    """decompose for each matrix of an (N, 4, 4) stack, in one pass of
    stacked kernels. Entry k is decompose(us[k]) bit for bit, whatever the
    other rows are. Raises NotUnitaryError naming the first row that is not
    unitary, and ValueError on any other shape.
    """
    ms = _unitary_stack(us)
    return _circuit_params(*_decompose_arrays(ms)) if len(ms) else []


def _unitary_stack(us) -> np.ndarray:
    """us as a complex (N, 4, 4) stack; NotUnitaryError names the first row
    that is not unitary, ValueError any other shape."""
    ms = _as_complex(us)
    if ms.ndim != 3 or ms.shape[1:] != (4, 4):
        raise ValueError(f"expected an (N, 4, 4) stack, got shape {ms.shape}")
    _require_unitary(ms, DEFAULT_TOL.unitarity, "decompose_many input")
    return ms


def _circuit_params(classes, letters, phases) -> list[CircuitParams]:
    """The CircuitParams view of _decompose_arrays' arrays, one per row:
    each letter's quaternion read as (theta, phi, phiz, sign)."""
    rows = _su2_params(letters.reshape(-1, 4)).reshape(-1, 4, 4)
    return [
        CircuitParams(
            class_params=ClassParams(*angles),
            a=LocalGate(*a[:3], int(a[3])),
            b=LocalGate(*b[:3], int(b[3])),
            c=LocalGate(*c[:3], int(c[3])),
            d=LocalGate(*d[:3], int(d[3])),
            global_phase=phase,
        )
        for angles, (a, b, c, d), phase in zip(classes, rows.tolist(), phases.tolist())
    ]


def _representatives(classes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The magic-frame canonical representatives of (N, 3) class angles
    without their quarter turns, and their real eigenframes, column k paired
    with phase k of the sorted invariants the angles were read from.

    Both local layers are real orthogonal in the magic frame, so vm @ vm.T
    is O diag(exp(2i half)) O.T with O the exit layer's magic-frame matrix,
    and 2 half of _canonical_vms is (s2, s1, s0, s3) modulo 2 pi.
    """
    exits = _to_magic(_exit_layers(classes[:, 2])).real
    return _canonical_vms(classes, exits), _proper(_lead_positive(exits[:, :, [2, 1, 0, 3]]))


def _decompose_arrays(ms: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """decompose of each row of a non-empty (N, 4, 4) stack of unitaries, as
    arrays: the class angles (alpha, beta, delta), (N, 3); the letters A, B,
    C, D as unit quaternions (see _su2_params), (N, 4, 4); and the global
    phases, (N,)."""
    n = len(ms)
    su, zeta = _special_unitary_projection(ms)
    um = _to_magic(su)
    # the phases ascend, so they are the sorted invariants; frame_u has
    # det +1 by construction
    phases_u, frame_u = _class_spectrum(um)
    classes = _class_angles(phases_u)
    vm, frame_v = _representatives(classes)
    post_m = frame_u @ frame_v.swapaxes(-1, -2)
    pre_m = vm.conj().swapaxes(-1, -2) @ post_m.swapaxes(-1, -2) @ um

    imag_residue = np.abs(pre_m.imag).max(axis=(1, 2))
    if (imag_residue >= DEFAULT_TOL.reality).any():
        raise RealityViolationError(
            f"pre-rotation has imaginary residue {imag_residue.max():.3e}"
        )

    # both rotations are one stack, post rows then pre rows; each is
    # kron(a, b) in the magic frame, so no factoring scalar is left over
    a, b = _magic_factors(np.concatenate([post_m, pre_m.real]))
    letters = np.stack([a[n:], b[n:], a[:n], b[:n]], axis=1)
    global_phases = zeta * np.conj(_canonical_phase(classes))
    return classes, letters, global_phases


@dataclass(frozen=True)
class VerificationReport:
    distance: float
    invariant_error: float
    passed: bool


def verify(
    u, params: CircuitParams, max_distance: float = DEFAULT_TOL.verify_distance
) -> VerificationReport:
    """Check a compiled circuit against its target.

    distance ignores global phase; invariant_error compares the sorted class
    phases modulo the shared half-turn that a determinant-sheet flip
    introduces. passed is distance < max_distance, the package's one
    threshold a caller sets. Targets quoted to a few decimals are accepted:
    the invariant comparison works on the nearest unitary, while distance
    is measured against the matrix as given.
    """
    m = _as_complex(u)
    _require_shape(m, 4)
    composed = circuit_to_unitary(params)
    distance = phase_invariant_distance(m, composed)

    _require_unitary(m, DEFAULT_TOL.input_unitarity, "verify target")
    inv_u, inv_c = _local_invariants(np.stack([nearest_unitary(m), composed]))
    errors = []
    for shift in (0.0, math.pi):
        shifted = np.sort([math.remainder(p + shift, math.tau) for p in inv_c])
        errors.append(
            max(_wrap_distance(a, b) for a, b in zip(inv_u, shifted))
        )
    invariant_error = min(errors)
    return VerificationReport(
        distance=float(distance),
        invariant_error=float(invariant_error),
        passed=bool(distance < max_distance),
    )

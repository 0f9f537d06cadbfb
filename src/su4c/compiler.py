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
from .config import DEFAULT_TOL, Tolerances
from .gates import (
    ClassParams,
    _canonical_phase,
    _class_spectrum,
    canonical_v,
    from_magic,
    to_magic,
)
from .linalg import (
    _as_complex,
    _factor_tensor_product,
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
    "verify",
]


class RealityViolationError(ValueError):
    """The magic-frame factors that must be real came out complex.

    This signals an eigenvalue-pairing failure between the input and the
    canonical representative, not a recoverable input problem.
    """


def _wrap_distance(a: float, b: float) -> float:
    """Circular distance between two phases."""
    return abs(math.remainder(a - b, math.tau))


def local_invariants(u, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Sorted eigenphases of the magic-frame symmetric product, in (-pi, pi].

    Two unitaries are equivalent up to single-qubit operations exactly when
    these four phases agree. The input is projected to determinant 1 first;
    note the projection has a four-fold sheet ambiguity, so a global phase
    on the input can shift all four invariants by pi together.
    """
    m = _as_complex(u)
    _require_unitary(m, tol.unitarity, "local_invariants input")
    return _local_invariants(m, tol)


def _local_invariants(m: np.ndarray, tol: Tolerances) -> np.ndarray:
    su, _ = _special_unitary_projection(m, tol)
    return np.sort(_class_spectrum(su, tol).phases)


def class_parameters(u, tol: Tolerances = DEFAULT_TOL) -> ClassParams:
    """Class angles (alpha, beta, delta) from the sorted invariants.

    Uses pair means of the first three sorted phases; any valid pairing
    labels the same class, this fixed one keeps the output deterministic.
    Results are wrapped into [0, 2pi).
    """
    return _class_angles(local_invariants(u, tol))


def _class_angles(s: np.ndarray) -> ClassParams:
    alpha = 0.5 * (s[0] + s[1]) % math.tau
    beta = 0.5 * (s[0] + s[2]) % math.tau
    delta = 0.5 * (s[1] + s[2]) % math.tau
    return ClassParams(alpha, beta, delta)


def _match_columns(
    ref_phases: np.ndarray, phases: np.ndarray, tol: float
) -> np.ndarray:
    """Permutation aligning a second eigenphase list to a reference.

    Greedy nearest-circular-phase assignment; within degenerate groups the
    choice is arbitrary and harmless because the eigenvalues are equal.
    """
    n = len(ref_phases)
    used = np.zeros(n, dtype=bool)
    perm = np.zeros(n, dtype=int)
    for i, target in enumerate(ref_phases):
        best, best_j = math.inf, -1
        for j in range(n):
            if used[j]:
                continue
            d = _wrap_distance(target, phases[j])
            if d < best:
                best, best_j = d, j
        if best > tol:
            raise RealityViolationError(
                f"class eigenvalue mismatch {best:.3e} while pairing frames"
            )
        used[best_j] = True
        perm[i] = best_j
    return perm


def decompose(u, tol: Tolerances = DEFAULT_TOL) -> CircuitParams:
    """Factor a two-qubit unitary into letters around the canonical block.

    Returns CircuitParams such that circuit_to_unitary reproduces the input
    exactly (all projection and factoring scalars are folded into
    global_phase). The construction: project to det 1, read off the class,
    build the canonical representative, align the real eigenframes of both
    symmetric products, and split the two resulting magic-frame rotations
    into tensor products.
    """
    m = _as_complex(u)
    _require_unitary(m, tol.unitarity, "decompose input")
    su, zeta = _special_unitary_projection(m, tol)

    # su is re-projected here on purpose: doing so moves phases that sit on
    # the branch cut, and reusing the spectrum below would change the output.
    params = _class_angles(_local_invariants(su, tol))
    mu = _canonical_phase(params)
    # conj(mu) puts the representative on the same determinant sheet as su,
    # so the two symmetric products have identical eigenvalues.
    v_comp = np.conj(mu) * canonical_v(params)

    eig_u = _class_spectrum(su, tol)
    eig_v = _class_spectrum(v_comp, tol)
    perm = _match_columns(eig_u.phases, eig_v.phases, 1e-6)

    frame_u = eig_u.vectors  # det +1 by construction
    frame_v = eig_v.vectors[:, perm]
    # The permutation can make frame_v improper; negating one column restores
    # a rotation without disturbing the diagonalization.
    if np.linalg.det(frame_v) < 0:
        frame_v[:, -1] = -frame_v[:, -1]

    um = to_magic(su)
    vm = to_magic(v_comp)
    post_m = frame_u @ frame_v.T
    pre_m = vm.conj().T @ frame_v @ frame_u.T @ um

    imag_residue = float(np.max(np.abs(pre_m.imag)))
    if imag_residue >= tol.reality:
        raise RealityViolationError(
            f"pre-rotation has imaginary residue {imag_residue:.3e}"
        )
    pre_m = pre_m.real.astype(complex)

    post = from_magic(post_m)
    pre = from_magic(pre_m)
    c_mat, d_mat, phase_cd = _factor_tensor_product(post, tol)
    a_mat, b_mat, phase_ab = _factor_tensor_product(pre, tol)

    letters = [
        LocalGate(*_su2_params(x, tol)) for x in (a_mat, b_mat, c_mat, d_mat)
    ]
    global_phase = complex(zeta * phase_cd * phase_ab * np.conj(mu))
    return CircuitParams(
        class_params=params,
        a=letters[0],
        b=letters[1],
        c=letters[2],
        d=letters[3],
        global_phase=global_phase,
    )


@dataclass(frozen=True)
class VerificationReport:
    distance: float
    invariant_error: float
    passed: bool


def verify(
    u, params: CircuitParams, tol: Tolerances = DEFAULT_TOL
) -> VerificationReport:
    """Check a compiled circuit against its target.

    distance ignores global phase; invariant_error compares the sorted class
    phases modulo the shared half-turn that a determinant-sheet flip
    introduces. passed gates on distance alone. Targets quoted to a few
    decimals are accepted: the invariant comparison works on the nearest
    unitary, while distance is measured against the matrix as given.
    """
    m = _as_complex(u)
    composed = circuit_to_unitary(params)
    distance = phase_invariant_distance(m, composed)

    _require_unitary(m, tol.input_unitarity, "verify target")
    inv_u = _local_invariants(nearest_unitary(m), tol)
    inv_c = _local_invariants(composed, tol)
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
        passed=bool(distance < tol.verify_distance),
    )

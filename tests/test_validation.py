"""Input validation happens at the public entry points.

The package's own calls go to unchecked kernels, so each public function
that takes a matrix must still reject a bad input itself, with the exception
type it has always raised. A non-unitary input is a unitary scaled by 1.1:
far outside every unitarity bound, including the loose one verify applies
to targets quoted to a few decimals.
"""

import numpy as np
import pytest
from oracles import check_density_matrix

from su4c import (
    NotUnitaryError,
    SeededRng,
    class_parameters,
    decompose,
    entanglement_fidelity,
    local_invariants,
    mean_state_fidelity,
    process_matrix_of_unitary,
    sample_su4,
    state_fidelity,
    verify,
)
from su4c.gates import _from_magic

U = sample_su4(SeededRng(11))
# complex orthogonal in the magic frame, det 1 and not unitary: its
# magic-frame product u @ u.T is the identity, so only a test of u itself
# keeps it from reading as the identity's class
COMPLEX_ORTHOGONAL = np.eye(4, dtype=complex)
COMPLEX_ORTHOGONAL[:2, :2] = [[np.cosh(0.7), 1j * np.sinh(0.7)], [-1j * np.sinh(0.7), np.cosh(0.7)]]

CASES = {
    "decompose": (lambda: decompose(1.1 * U), NotUnitaryError),
    "verify": (lambda: verify(1.1 * U, decompose(U)), NotUnitaryError),
    "local_invariants": (lambda: local_invariants(1.1 * U), NotUnitaryError),
    "class_parameters": (lambda: class_parameters(1.1 * U), NotUnitaryError),
    "local_invariants_complex_orthogonal": (
        lambda: local_invariants(_from_magic(COMPLEX_ORTHOGONAL)), NotUnitaryError
    ),
}


@pytest.mark.parametrize("name", list(CASES))
def test_public_function_rejects_bad_input(name):
    call, expected = CASES[name]
    with pytest.raises(ValueError) as info:
        call()
    assert info.type is expected


# Wrong shapes are named as such, before any unitarity test or matrix
# product can fail on them.
SHAPE_CASES = {
    "decompose_stack": lambda: decompose(np.stack([U, U])),
    "decompose_vector": lambda: decompose(U[0]),
    "local_invariants": lambda: local_invariants(np.eye(2)),
    "class_parameters": lambda: class_parameters(np.eye(2)),
    "verify_target": lambda: verify(np.eye(2), decompose(U)),
}


@pytest.mark.parametrize("name", list(SHAPE_CASES))
def test_public_function_names_a_wrong_shape(name):
    with pytest.raises(ValueError, match="expected a 4x4 matrix, got shape") as info:
        SHAPE_CASES[name]()
    assert info.type is ValueError


# The density-matrix check of tests/oracles.py takes a matrix of any size,
# but one square matrix: a stack holding a valid state, or a non-square
# array, is named as a wrong shape rather than failing the Hermiticity test
# or a broadcast.
DENSITY_SHAPE_CASES = {
    "stack": np.eye(4)[None] / 4.0,
    "non_square": np.zeros((2, 3)),
    "vector": np.full(4, 0.25),
}


@pytest.mark.parametrize("name", list(DENSITY_SHAPE_CASES))
def test_check_density_matrix_names_a_wrong_shape(name):
    with pytest.raises(ValueError, match="expected a square matrix, got shape") as info:
        check_density_matrix(DENSITY_SHAPE_CASES[name])
    assert info.type is ValueError


# The scores name a wrong shape as well: a process matrix is 16x16, the
# unitary of process_matrix_of_unitary 4x4, and the two states of
# state_fidelity square matrices of one shape.
SCORE_SHAPE_CASES = {
    "entanglement_fidelity": (lambda: entanglement_fidelity(np.eye(4), np.eye(4)), "16x16"),
    "entanglement_fidelity_second": (lambda: entanglement_fidelity(np.eye(16), np.eye(4)), "16x16"),
    "mean_state_fidelity": (lambda: mean_state_fidelity(np.eye(4), np.eye(4)), "16x16"),
    "process_matrix_of_unitary": (lambda: process_matrix_of_unitary(np.eye(2)), "4x4"),
    "state_fidelity_vectors": (lambda: state_fidelity(np.full(4, 0.5), np.full(4, 0.5)), "square"),
    "state_fidelity_mismatch": (lambda: state_fidelity(np.eye(4) / 4.0, np.eye(2) / 2.0), "4x4"),
}


@pytest.mark.parametrize("name", list(SCORE_SHAPE_CASES))
def test_score_names_a_wrong_shape(name):
    call, what = SCORE_SHAPE_CASES[name]
    with pytest.raises(ValueError, match=f"expected a {what} matrix, got shape") as info:
        call()
    assert info.type is ValueError


def test_cases_are_valid_without_the_defect():
    # the same calls on the repaired inputs succeed, so each case above is
    # rejected for its defect and nothing else
    params = decompose(U)
    assert verify(U, params).passed
    local_invariants(U)
    class_parameters(U)
    check_density_matrix(np.eye(4) / 4.0)
    check_density_matrix(np.eye(2) / 2.0)
    e = process_matrix_of_unitary(U)
    assert entanglement_fidelity(e, e) == pytest.approx(1.0)
    assert mean_state_fidelity(e, e) == pytest.approx(1.0)
    assert state_fidelity(np.eye(4) / 4.0, np.eye(4) / 4.0) == pytest.approx(1.0)
    assert state_fidelity(np.eye(2) / 2.0, np.eye(2) / 2.0) == pytest.approx(1.0)


def test_bound_is_the_documented_one():
    # a unitarity defect of 2e-9 is inside Tolerances.unitarity (1e-8): the
    # compiler accepts it, and the recomposition misses the input by about
    # that much; an internal determinant check no longer narrows the bound
    near = (1.0 + 1e-9) * U
    params = decompose(near)
    assert verify(near, params).distance < 1e-8
    assert np.max(np.abs(local_invariants(near) - local_invariants(U))) < 1e-12
    a, b = class_parameters(near), class_parameters(U)
    assert max(abs(a.alpha - b.alpha), abs(a.beta - b.beta), abs(a.delta - b.delta)) < 1e-12

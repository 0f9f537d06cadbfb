"""Input validation happens at the public entry points.

The package's own calls go to unchecked kernels, so each public function
that takes a matrix must still reject a bad input itself, with the exception
type it has always raised. A non-unitary input is a unitary scaled by 1.1:
far outside every unitarity bound, including the loose one verify applies
to targets quoted to a few decimals.
"""

import numpy as np
import pytest

from su4c import (
    NotUnitaryError,
    SeededRng,
    check_density_matrix,
    class_parameters,
    class_spectrum,
    decompose,
    factor_tensor_product,
    from_magic,
    joint_real_diagonalization,
    local_invariants,
    r_gate,
    rz_gate,
    sample_su4,
    special_unitary_projection,
    su2_params,
    to_magic,
    verify,
)

U = sample_su4(SeededRng(11))
LOCAL = np.kron(r_gate(0.4, 1.2) @ rz_gate(0.3), r_gate(2.0, -0.7))
SU2 = rz_gate(0.9) @ r_gate(1.3, 0.2)
# symmetric (u @ u.T in the magic frame) but not unitary
SYMMETRIC = 1.1 * to_magic(U) @ to_magic(U).T
# det 1 but not unitary: the determinant gate passes, the unitarity one fires
DET_ONE = np.diag([1.1, 1.0 / 1.1, 1.0, 1.0]).astype(complex)
# complex orthogonal in the magic frame, det 1 and not unitary: its
# magic-frame product u @ u.T is the identity, so only a test of u itself
# rejects it
COMPLEX_ORTHOGONAL = np.eye(4, dtype=complex)
COMPLEX_ORTHOGONAL[:2, :2] = [[np.cosh(0.7), 1j * np.sinh(0.7)], [-1j * np.sinh(0.7), np.cosh(0.7)]]

CASES = {
    "decompose": (lambda: decompose(1.1 * U), NotUnitaryError),
    "verify": (lambda: verify(1.1 * U, decompose(U)), NotUnitaryError),
    "local_invariants": (lambda: local_invariants(1.1 * U), NotUnitaryError),
    "class_parameters": (lambda: class_parameters(1.1 * U), NotUnitaryError),
    "special_unitary_projection": (lambda: special_unitary_projection(1.1 * U), NotUnitaryError),
    "joint_real_diagonalization": (lambda: joint_real_diagonalization(SYMMETRIC), NotUnitaryError),
    "factor_tensor_product": (lambda: factor_tensor_product(1.1 * LOCAL), NotUnitaryError),
    "su2_params": (lambda: su2_params(1.1 * SU2), NotUnitaryError),
    "su2_params_det": (lambda: su2_params(1j * SU2), ValueError),
    "class_spectrum": (lambda: class_spectrum(1.1 * U), ValueError),
    "class_spectrum_det_one": (lambda: class_spectrum(DET_ONE), NotUnitaryError),
    "class_spectrum_det": (lambda: class_spectrum(1j ** 0.5 * U), ValueError),
    "class_spectrum_complex_orthogonal": (
        lambda: class_spectrum(from_magic(COMPLEX_ORTHOGONAL)), NotUnitaryError
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
    "local_invariants": lambda: local_invariants(SU2),
    "class_parameters": lambda: class_parameters(SU2),
    "class_spectrum": lambda: class_spectrum(SU2),
    "verify_target": lambda: verify(np.eye(2), decompose(U)),
}


@pytest.mark.parametrize("name", list(SHAPE_CASES))
def test_public_function_names_a_wrong_shape(name):
    with pytest.raises(ValueError, match="expected a 4x4 matrix, got shape") as info:
        SHAPE_CASES[name]()
    assert info.type is ValueError


# A density matrix may be any size, but must be one square matrix: a stack
# holding a valid state, or a non-square array, is named as a wrong shape
# rather than failing the Hermiticity test or a broadcast.
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


def test_cases_are_valid_without_the_defect():
    # the same calls on the repaired inputs succeed, so each case above is
    # rejected for its defect and nothing else
    params = decompose(U)
    assert verify(U, params).passed
    local_invariants(U)
    class_parameters(U)
    special_unitary_projection(U)
    joint_real_diagonalization(SYMMETRIC / 1.1)
    factor_tensor_product(LOCAL)
    su2_params(SU2)
    class_spectrum(U)
    check_density_matrix(np.eye(4) / 4.0)
    check_density_matrix(np.eye(2) / 2.0)


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

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
    class_parameters,
    class_spectrum,
    decompose,
    factor_tensor_product,
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
}


@pytest.mark.parametrize("name", list(CASES))
def test_public_function_rejects_bad_input(name):
    call, expected = CASES[name]
    with pytest.raises(ValueError) as info:
        call()
    assert info.type is expected


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

"""Golden compiler outputs: decompose must return these CircuitParams exactly.

The literals were captured from the compiler before its internal calls
stopped re-validating the matrices it builds itself, so a change to the
arithmetic of the decomposition shows up here as a bit-level difference.
Four were re-captured once, when decompose began to read the class angles
from the spectrum it pairs the frames against (one diagonalization fewer)
and the factoring began to take its block norms and aligning phases as one
array expression: haar_1, iswap and identity_branch_cut moved by at most
9e-16 in any angle or phase; cnot, whose eigenspaces are degenerate, got a
different letter set that recomposes the input as closely (8.5e-16 against
9.0e-16). All were re-captured again when the representative's eigenframe
became closed form (no second eigen-solve): the three Haar entries moved by
at most 8.9e-16; the five named classes, whose eigenspaces are degenerate,
got different letter sets that recompose their inputs, global phase
included, to at most 1.3e-15. All were re-captured once more when the
compile steps became plain stacked arithmetic (numpy's arccos for the
letter angles, ad - bc for the factors' determinants, the global phases as
one array product): every angle and phase moved by at most 2.3e-15, and no
class angle, sign or letter set changed. Twenty-two letter thetas were
re-captured when su2_params came to read theta as 2 arctan2(|m10|, |m00|)
rather than 2 arccos|m00|: each moved by at most 8.9e-16, and no class
angle, phi, phiz, sign or letter set changed. CHANGES.md lists the old and
the new values.
The inputs are seeded Haar draws and locally dressed named classes, some of
them on the branch cuts of the determinant root and of the invariants.
"""

import math

import numpy as np
import pytest

from su4c import (
    CircuitParams,
    ClassParams,
    LocalGate,
    SeededRng,
    decompose,
    r_gate,
    rz_gate,
    sample_su4,
)

CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
ISWAP = np.array([[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]], dtype=complex)
_S, _T = (1 + 1j) / 2, (1 - 1j) / 2
SQRT_SWAP = np.array([[1, 0, 0, 0], [0, _S, _T, 0], [0, _T, _S, 0], [0, 0, 0, 1]], dtype=complex)


def _local(a, b, c, d, e, f):
    return np.kron(rz_gate(a) @ r_gate(b, c), rz_gate(d) @ r_gate(e, f))


def _dressed(u, phase=1.0):
    return phase * _local(0.3, 1.1, -0.4, 2.2, 0.7, 1.9) @ u @ _local(-1.3, 0.5, 2.8, 0.9, 2.4, -0.6)


def _inputs():
    rng = SeededRng(2026)
    return {
        "haar_0": sample_su4(rng),
        "haar_1": sample_su4(rng),
        "haar_phased": np.exp(0.9j) * sample_su4(rng),
        "cnot": _dressed(CNOT),
        "swap_phased": _dressed(SWAP, np.exp(-2.1j)),
        # two invariants on the +-pi cut; alpha wraps to just below 2 pi
        "iswap": _dressed(ISWAP),
        "sqrt_swap": _dressed(SQRT_SWAP, 1j),
        # det = -1 from below: the determinant root sits on its -pi/4 cut
        # and all four invariants on the +-pi cut
        "identity_branch_cut": _dressed(np.eye(4, dtype=complex), np.exp(-0.25j * math.pi)),
    }


GOLDEN = {
    "haar_0": CircuitParams(
        ClassParams(4.628761651598054, 5.59654655128224, 0.00457819232846679),
        LocalGate(2.297706300040264, 3.1499820493801294, 2.910913809280289, 1),
        LocalGate(1.80666709495617, 4.2354479619797045, 0.04766743425925858, 1),
        LocalGate(1.9075873916621504, 0.8925777124394321, 1.7428616499574225, -1),
        LocalGate(0.7253080111419056, 2.3065934297223514, 5.360407508644514, 1),
        complex(-5.898059818321145e-17, 1.0),
    ),
    "haar_1": CircuitParams(
        ClassParams(5.17420666270715, 5.42961978674143, 0.056268219553616494),
        LocalGate(1.4051627572650227, 1.8912547203641283, 3.813275479012367, -1),
        LocalGate(2.273470263149773, 5.135424003184827, 0.8640763667564194, 1),
        LocalGate(1.6246047582508145, 2.8839282669999413, 4.452257425940994, 1),
        LocalGate(1.9439445345993456, 5.170085120871427, 1.6732397633341467, -1),
        complex(4.857225732735062e-17, 1.0),
    ),
    "haar_phased": CircuitParams(
        ClassParams(4.562737011157667, 5.305519410950179, 5.944820475396389),
        LocalGate(1.373783118698058, 3.646017359391691, 4.533840599690854, -1),
        LocalGate(2.1133587580674535, 0.9445605098167285, 0.9800529922883916, -1),
        LocalGate(1.171789199049549, 3.532623310596984, 1.4211991995932098, 1),
        LocalGate(1.9254374711714493, 1.9725627828172438, 1.5677188581795223, -1),
        complex(-0.6216099682706644, -0.7833269096274834),
    ),
    "cnot": CircuitParams(
        ClassParams(4.71238898038469, 1.1102230246251565e-16, 1.1102230246251565e-16),
        LocalGate(1.9758417246898934, 2.131621542354864, 1.3116323082348478, -1),
        LocalGate(1.369833351221652, 4.336654558766813, 0.6364084819279769, -1),
        LocalGate(2.60077622915486, 0.49271975967668347, 5.1309596851603665, -1),
        LocalGate(1.8269863726927293, 5.394188373217295, 2.7952767451027847, 1),
        complex(0.7071067811865476, 0.7071067811865475),
    ),
    "swap_phased": CircuitParams(
        ClassParams(1.5707963267948966, 1.5707963267948966, 1.5707963267948966),
        LocalGate(2.3590245477765084, 1.7075031562379532, 1.2123038703135283, -1),
        LocalGate(1.9019674936491644, 1.6326670013440445, 4.00578243399474, -1),
        LocalGate(1.4596242851384187, 1.5146480177707824, 4.518501643913332, -1),
        LocalGate(2.8965318492241776, 2.202546803921446, 1.8746305362172466, 1),
        complex(-0.9673613007593358, -0.25340109272299094),
    ),
    "iswap": CircuitParams(
        ClassParams(6.283185307179586, 1.5707963267948966, 1.5707963267948966),
        LocalGate(1.1873737291194948, 5.201482888089172, 3.89407011878175, -1),
        LocalGate(0.7415926535897933, 2.5415926535897935, 5.66624767517001, -1),
        LocalGate(2.02689919163364, 5.2420540232403585, 2.259555158743135, -1),
        LocalGate(0.9681241377098503, 1.951495637240578, 5.9048745218831815, 1),
        complex(-1.0408340855860852e-16, 1.0),
    ),
    "sqrt_swap": CircuitParams(
        ClassParams(0.7853981633974483, 0.7853981633974483, 2.356194490192345),
        LocalGate(2.3306038734393972, 3.096982559534245, 1.9173246515429752, 1),
        LocalGate(0.39930011254335995, 5.726176659465111, 3.426498354380009, -1),
        LocalGate(2.180678001166942, 0.06117994082895084, 4.534366782933329, -1),
        LocalGate(0.5193935169320933, 0.15868286762069195, 3.0592709466024126, 1),
        complex(-0.38268343236508995, 0.9238795325112867),
    ),
    "identity_branch_cut": CircuitParams(
        ClassParams(3.141592653589793, 3.141592653589793, 3.141592653589793),
        LocalGate(1.507810798792118, 5.148910882544868, 3.043483703218887, 1),
        LocalGate(1.35307653114931, 4.651825498836178, 1.2483062710787003, 1),
        LocalGate(2.1423479833198225, 4.226890237108192, 3.574141427466447, 1),
        LocalGate(0.7423194416746938, 4.092929906927478, 0.46660389008858516, -1),
        complex(-0.7071067811865475, 0.7071067811865476),
    ),
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_golden_params(name):
    assert decompose(_inputs()[name]) == GOLDEN[name]

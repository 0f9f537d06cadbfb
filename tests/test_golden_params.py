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
angle, phi, phiz, sign or letter set changed. All were re-captured again
when the letters came to be read as unit quaternions from the associate
matrix of each magic-frame rotation, in place of the block factoring of its
4x4 image: every angle moved by at most 8.9e-16 and every global phase by
at most 1.7e-16, and no class angle, sign or letter set changed.
CHANGES.md lists the old and the new values.
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
        LocalGate(2.297706300040264, 3.149982049380129, 2.9109138092802893, 1),
        LocalGate(1.8066670949561696, 4.2354479619797045, 0.047667434259258915, 1),
        LocalGate(1.9075873916621502, 0.892577712439433, 1.7428616499574217, -1),
        LocalGate(0.7253080111419049, 2.3065934297223514, 5.360407508644514, 1),
        complex(-0.0, 1.0),
    ),
    "haar_1": CircuitParams(
        ClassParams(5.17420666270715, 5.42961978674143, 0.056268219553616494),
        LocalGate(1.4051627572650225, 1.8912547203641283, 3.8132754790123666, -1),
        LocalGate(2.273470263149773, 5.135424003184828, 0.8640763667564187, 1),
        LocalGate(1.6246047582508143, 2.8839282669999413, 4.452257425940994, 1),
        LocalGate(1.9439445345993454, 5.170085120871427, 1.6732397633341467, -1),
        complex(-5.551115123125783e-17, 1.0),
    ),
    "haar_phased": CircuitParams(
        ClassParams(4.562737011157667, 5.305519410950179, 5.944820475396389),
        LocalGate(1.373783118698058, 3.6460173593916902, 4.533840599690854, -1),
        LocalGate(2.1133587580674527, 0.9445605098167293, 0.9800529922883907, -1),
        LocalGate(1.1717891990495488, 3.5326233105969846, 1.4211991995932096, 1),
        LocalGate(1.9254374711714497, 1.9725627828172447, 1.5677188581795214, -1),
        complex(-0.6216099682706644, -0.7833269096274834),
    ),
    "cnot": CircuitParams(
        ClassParams(4.71238898038469, 1.1102230246251565e-16, 1.1102230246251565e-16),
        LocalGate(1.9758417246898932, 2.131621542354864, 1.3116323082348478, -1),
        LocalGate(1.369833351221652, 4.336654558766812, 0.6364084819279778, -1),
        LocalGate(2.60077622915486, 0.49271975967668347, 5.1309596851603665, -1),
        LocalGate(1.8269863726927291, 5.394188373217295, 2.795276745102785, 1),
        complex(0.7071067811865476, 0.7071067811865475),
    ),
    "swap_phased": CircuitParams(
        ClassParams(1.5707963267948966, 1.5707963267948966, 1.5707963267948966),
        LocalGate(2.3590245477765084, 1.7075031562379532, 1.2123038703135283, -1),
        LocalGate(1.9019674936491644, 1.6326670013440445, 4.00578243399474, -1),
        LocalGate(1.459624285138419, 1.5146480177707824, 4.518501643913332, -1),
        LocalGate(2.8965318492241776, 2.2025468039214458, 1.8746305362172473, 1),
        complex(-0.9673613007593358, -0.253401092722991),
    ),
    "iswap": CircuitParams(
        ClassParams(6.283185307179586, 1.5707963267948966, 1.5707963267948966),
        LocalGate(1.187373729119495, 5.201482888089172, 3.89407011878175, -1),
        LocalGate(0.7415926535897931, 2.5415926535897935, 5.666247675170009, -1),
        LocalGate(2.0268991916336403, 5.242054023240358, 2.259555158743135, -1),
        LocalGate(0.9681241377098503, 1.951495637240578, 5.9048745218831815, 1),
        complex(-1.3877787807814454e-17, 1.0),
    ),
    "sqrt_swap": CircuitParams(
        ClassParams(0.7853981633974483, 0.7853981633974483, 2.356194490192345),
        LocalGate(2.3306038734393977, 3.0969825595342444, 1.9173246515429752, 1),
        LocalGate(0.39930011254335984, 5.726176659465112, 3.426498354380009, -1),
        LocalGate(2.1806780011669424, 0.06117994082895084, 4.534366782933329, -1),
        LocalGate(0.5193935169320935, 0.1586828676206924, 3.059270946602412, 1),
        complex(-0.3826834323650898, 0.9238795325112867),
    ),
    "identity_branch_cut": CircuitParams(
        ClassParams(3.141592653589793, 3.141592653589793, 3.141592653589793),
        LocalGate(1.507810798792118, 5.148910882544868, 3.0434837032188864, 1),
        LocalGate(1.35307653114931, 4.651825498836179, 1.2483062710787007, 1),
        LocalGate(2.1423479833198225, 4.226890237108192, 3.574141427466447, 1),
        LocalGate(0.742319441674694, 4.092929906927479, 0.46660389008858427, -1),
        complex(-0.7071067811865475, 0.7071067811865476),
    ),
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_golden_params(name):
    assert decompose(_inputs()[name]) == GOLDEN[name]

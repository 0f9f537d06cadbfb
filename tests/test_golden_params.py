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
9.0e-16). CHANGES.md lists the old and the new values.
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
        LocalGate(2.2977063000402644, 3.149982049380129, 2.9109138092802893, 1),
        LocalGate(1.8066670949561694, 4.2354479619797045, 0.047667434259258776, 1),
        LocalGate(1.9075873916621502, 0.8925777124394321, 1.7428616499574225, -1),
        LocalGate(0.7253080111419069, 2.3065934297223514, 5.360407508644514, 1),
        complex(1.3877787807814438e-17, 1.0),
    ),
    "haar_1": CircuitParams(
        ClassParams(5.17420666270715, 5.42961978674143, 0.056268219553616494),
        LocalGate(1.4051627572650223, 1.8912547203641283, 3.8132754790123666, -1),
        LocalGate(2.273470263149773, 5.135424003184827, 0.8640763667564194, 1),
        LocalGate(1.624604758250814, 2.8839282669999413, 4.452257425940994, 1),
        LocalGate(1.943944534599346, 5.170085120871427, 1.6732397633341467, -1),
        complex(6.938893903907259e-18, 1.0),
    ),
    "haar_phased": CircuitParams(
        ClassParams(4.562737011157667, 5.305519410950179, 5.944820475396389),
        LocalGate(1.3737831186980585, 3.6460173593916902, 4.533840599690855, -1),
        LocalGate(2.113358758067453, 0.9445605098167289, 0.9800529922883907, -1),
        LocalGate(1.1717891990495488, 3.5326233105969838, 1.4211991995932105, 1),
        LocalGate(1.92543747117145, 1.9725627828172438, 1.5677188581795232, -1),
        complex(-0.6216099682706642, -0.7833269096274836),
    ),
    "cnot": CircuitParams(
        ClassParams(4.71238898038469, 1.1102230246251565e-16, 1.1102230246251565e-16),
        LocalGate(1.9026428662992068, 3.6882556061699443, 5.3553369058175315, -1),
        LocalGate(1.3698333512216532, 4.336654558766812, 0.49525371827958264, 1),
        LocalGate(1.9409048239281095, 5.220514805677767, 2.334686820001424, -1),
        LocalGate(1.935364652369554, 5.42327773224779, 2.6711482082568927, -1),
        complex(0.7071067811865476, 0.7071067811865475),
    ),
    "swap_phased": CircuitParams(
        ClassParams(1.5707963267948966, 1.5707963267948966, 1.5707963267948966),
        LocalGate(0.364847209939378, 0.3419931559849103, 0.24679343728416842, 1),
        LocalGate(1.6132130898634525, 2.276039147549362, 3.079394107356599, 1),
        LocalGate(1.2961923785282412, 1.646044535659227, 3.7328533565047524, -1),
        LocalGate(1.783839771839174, 4.773055308173406, 0.8233658870540648, -1),
        complex(-0.9673613007593358, -0.25340109272299094),
    ),
    "iswap": CircuitParams(
        ClassParams(6.283185307179586, 1.5707963267948966, 1.5707963267948966),
        LocalGate(2.0405273754952504, 2.4214624078396616, 4.0398406869243, 1),
        LocalGate(2.4, 5.683185307179587, 0.5859782146688017, -1),
        LocalGate(0.9476013622759683, 2.163497597276846, 5.9649950247644075, -1),
        LocalGate(1.123653059237212, 5.270540371527315, 2.936162958880236, 1),
        complex(-4.3368086899420196e-17, 1.0),
    ),
    "sqrt_swap": CircuitParams(
        ClassParams(0.7853981633974483, 0.7853981633974483, 2.356194490192345),
        LocalGate(0.9808935821970988, 0.40002601145774963, 2.8321495547297864, 1),
        LocalGate(2.1079942552404893, 5.830068947460079, 0.09660424904028397, 1),
        LocalGate(0.654506656650174, 1.8500401990330495, 6.213830407238723, -1),
        LocalGate(1.920073835710552, 2.879350827619117, 5.971020142732222, -1),
        complex(-0.3826834323650898, 0.9238795325112867),
    ),
    "identity_branch_cut": CircuitParams(
        ClassParams(3.141592653589793, 3.141592653589793, 3.141592653589793),
        LocalGate(1.1933634808188627, 0.438961715064373, 2.235357567766818, 1),
        LocalGate(1.2899728036845446, 2.3378830884096513, 4.621827490343861, 1),
        LocalGate(0.6877899225625895, 4.685270860502562, 3.7216535681829446, -1),
        LocalGate(0.6584741727771478, 2.6078238791540502, 3.345433329963446, 1),
        complex(-0.7071067811865475, 0.7071067811865476),
    ),
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_golden_params(name):
    assert decompose(_inputs()[name]) == GOLDEN[name]

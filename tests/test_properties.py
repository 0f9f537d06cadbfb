"""Property tests over the named classes, the Weyl-chamber faces and their
neighbourhoods.

Each drawn input is a named class (identity, CNOT, SWAP, iSWAP, sqrt-SWAP)
or a class on a face, edge or corner of the Weyl chamber (two class angles
equal, or one of them 0 or pi/2; built with scipy, see chamber.py), with
random single-qubit dressing on both sides, a random global phase and a
random perturbation of size 1e-9 to 1e-5, passed through nearest_unitary.
The perturbations run from nearly degenerate to clearly split
eigenphases. These are the inputs where degenerate invariants and branch
cuts live.
"""

import math

import numpy as np
from chamber import FACE_PATTERNS, face_angles, interaction
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import compose_pulses

from su4c import (
    DEFAULT_TOL,
    decompose,
    local_invariants,
    lower_to_pulses,
    nearest_unitary,
    phase_invariant_distance,
    r_gate,
    rz_gate,
    verify,
)

_S, _T = (1 + 1j) / 2, (1 - 1j) / 2
NAMED = {
    "identity": np.eye(4, dtype=complex),
    "cnot": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
    "swap": np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex),
    "iswap": np.array([[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]], dtype=complex),
    "sqrt_swap": np.array([[1, 0, 0, 0], [0, _S, _T, 0], [0, _T, _S, 0], [0, 0, 0, 1]], dtype=complex),
}

PROPERTY_SETTINGS = settings(
    derandomize=True, database=None, max_examples=100, deadline=None
)

angle = st.floats(-math.pi, math.pi)
# three angles per qubit cover SU(2): Rz(a) R(b, c)
local_gates = st.tuples(*[angle] * 6).map(
    lambda t: np.kron(rz_gate(t[0]) @ r_gate(t[1], t[2]), rz_gate(t[3]) @ r_gate(t[4], t[5]))
)
# a Hermitian direction (16 real entries) and a size 10^-9 ... 10^-5
perturbations = st.tuples(
    st.lists(st.floats(-1.0, 1.0), min_size=16, max_size=16),
    st.floats(-9.0, -5.0),
)


def _perturb(u, perturbation):
    entries, log_size = perturbation
    h = np.array(entries).reshape(4, 4)
    h = h + h.T + 1j * (h - h.T)  # Hermitian
    vals, vecs = np.linalg.eigh(h)
    step = (vecs * np.exp(1j * 10.0**log_size * vals)) @ vecs.conj().T
    return nearest_unitary(step @ u)


def _dress_and_perturb(draw, u):
    u = draw(local_gates) @ u @ draw(local_gates)
    u = np.exp(1j * draw(angle)) * u
    return _perturb(u, draw(perturbations))


@st.composite
def named_class_inputs(draw):
    return _dress_and_perturb(draw, NAMED[draw(st.sampled_from(sorted(NAMED)))])


quarter_turn = st.floats(0.0, math.pi / 2.0)


@st.composite
def chamber_face_inputs(draw):
    pattern = draw(st.sampled_from(FACE_PATTERNS))
    u = interaction(*face_angles(pattern, draw(quarter_turn), draw(quarter_turn)))
    return _dress_and_perturb(draw, u)


def _check_round_trip(u):
    params = decompose(u)
    assert verify(u, params).passed
    pulses = compose_pulses(lower_to_pulses(params))
    assert phase_invariant_distance(pulses, u) < DEFAULT_TOL.verify_distance


@PROPERTY_SETTINGS
@given(named_class_inputs())
def test_round_trip_through_pulses(u):
    _check_round_trip(u)


@PROPERTY_SETTINGS
@given(chamber_face_inputs())
def test_chamber_faces_round_trip_through_pulses(u):
    _check_round_trip(u)


def _circular_mismatch(a, b):
    """Largest circular distance from a phase in one list to the other list."""
    d = np.abs(np.remainder(a[:, None] - b[None, :] + math.pi, math.tau) - math.pi)
    return max(d.min(axis=1).max(), d.min(axis=0).max())


def _check_invariance(u, left, right):
    dressed = nearest_unitary(left @ u @ right)
    # the dressing has det 1, so both inputs share a determinant sheet and
    # the invariants agree up to rounding (wrapped at +-pi)
    assert _circular_mismatch(local_invariants(u), local_invariants(dressed)) < 1e-9


@PROPERTY_SETTINGS
@given(named_class_inputs(), local_gates, local_gates)
def test_invariants_ignore_local_dressing(u, left, right):
    _check_invariance(u, left, right)


@PROPERTY_SETTINGS
@given(chamber_face_inputs(), local_gates, local_gates)
def test_chamber_face_invariants_ignore_local_dressing(u, left, right):
    _check_invariance(u, left, right)

"""Exact-output corpus: decompose, verify and lower_to_pulses, bit for bit.

Every field of every CircuitParams, VerificationReport and pulse list the
compile path returns on a fixed corpus is written out with repr, which
round-trips floats exactly, and the whole is hashed with sha256. No value is
rounded, so a change in the last bit of any angle, phase or distance changes
the digest. This makes "faster, same output" a checked claim: a change that
only means to speed the compiler up must leave CORPUS_SHA256 as it is.

The corpus is 200 sample_su4 draws of SeededRng(2024), then seeded named
classes and Weyl-chamber face, edge and corner classes, each with random
single-qubit dressing and a random global phase, half of them perturbed by
1e-9 to 1e-5, from nearly degenerate to clearly split eigenphases.

PULSE_SHA256 pins the raw bytes of the (368, 32) angle table pulse_angles
returns for the whole corpus in one stacked call, so its lowering is checked
on every degenerate class, not only through the one-row GateElement view.

Re-capture a literal only in a change that means to move compiler outputs,
and record the old and the new digest in CHANGES.md. The digests hold for
one numpy build on one CPU family: numpy's arccos, arctan2, exp and hypot
round differently from the C library, and which of numpy's SIMD kernels
runs depends on the CPU, so a failure message names the numpy version and
the SIMD targets it dispatched.
"""

import dataclasses
import hashlib
import math

import numpy as np
from chamber import FACE_PATTERNS, face_angles, interaction
from numpy_build import numpy_build

from su4c import (
    DEFAULT_TOL,
    SeededRng,
    circuit_to_unitary,
    decompose,
    lower_to_pulses,
    nearest_unitary,
    pulse_angles,
    sample_su4,
    verify,
)
from su4c.compiler import _class_angles, _representatives
from su4c.gates import _class_spectrum, _to_magic
from su4c.linalg import _special_unitary_projection

CORPUS_SHA256 = "0cfbe966a5e7fa4a47977b9e2d66cbb647423d963ba0db9041ab7c467bf1979c"
PULSE_SHA256 = "76cc5fad31291a4374425eeff5bb0ddc8d2462c8649cb9d56c6d2e76cf330054"

_S, _T = (1 + 1j) / 2, (1 - 1j) / 2
NAMED = (
    np.eye(4, dtype=complex),
    np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
    np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex),
    np.array([[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]], dtype=complex),
    np.array([[1, 0, 0, 0], [0, _S, _T, 0], [0, _T, _S, 0], [0, 0, 0, 1]], dtype=complex),
)


def _su2(gen):
    """Haar SU(2) from a normalized quaternion, built without su4c."""
    q = gen.standard_normal(4)
    a, b = complex(*q[:2]), complex(*q[2:])
    norm = math.hypot(abs(a), abs(b))
    return np.array([[a, -b.conjugate()], [b, a.conjugate()]]) / norm


def _dress(gen, u, perturb):
    """Random local dressing and global phase, then optionally a unitary
    step of size 1e-9 to 1e-5 in a random Hermitian direction."""
    left = np.kron(_su2(gen), _su2(gen))
    right = np.kron(_su2(gen), _su2(gen))
    u = np.exp(1j * gen.uniform(-math.pi, math.pi)) * (left @ u @ right)
    if not perturb:
        return u
    h = gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4))
    vals, vecs = np.linalg.eigh(h + h.conj().T)
    size = 10.0 ** gen.uniform(-9.0, -5.0)
    return nearest_unitary((vecs * np.exp(1j * size * vals)) @ vecs.conj().T @ u)


def corpus():
    rng = SeededRng(2024)
    inputs = [sample_su4(rng) for _ in range(200)]
    gen = np.random.default_rng(2024)
    for k in range(40):
        inputs.append(_dress(gen, NAMED[k % len(NAMED)], perturb=k % 2 == 1))
    for pattern in FACE_PATTERNS:
        a, b = gen.uniform(0.0, math.pi / 2.0, size=2)
        u = interaction(*face_angles(pattern, a, b))
        inputs.extend(_dress(gen, u, perturb) for perturb in (False, True))
    return inputs


def _fields(obj):
    """repr of every leaf field, in declaration order, as Python scalars."""
    if dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _fields(getattr(obj, f.name))
    elif isinstance(obj, list):
        for item in obj:
            yield from _fields(item)
    elif isinstance(obj, (bool, int, str, type(None))):
        yield repr(obj)
    elif isinstance(obj, (complex, np.complexfloating)):
        yield repr(complex(obj))
    else:
        yield repr(float(obj))


def corpus_digest(inputs) -> str:
    h = hashlib.sha256()
    for u in inputs:
        params = decompose(u)
        for out in (params, verify(u, params), lower_to_pulses(params)):
            h.update("\n".join(_fields(out)).encode())
            h.update(b"\n")
    return h.hexdigest()


def test_compile_outputs_are_unchanged():
    assert corpus_digest(corpus()) == CORPUS_SHA256, numpy_build()


def test_pulse_angle_table_is_unchanged():
    angles = pulse_angles([decompose(u) for u in corpus()])
    assert angles.shape == (368, 32) and angles.dtype == np.float64
    assert hashlib.sha256(angles.tobytes()).hexdigest() == PULSE_SHA256, numpy_build()


def test_round_trip_keeps_the_global_phase():
    # verify's distance ignores the global phase, so a letter that comes out
    # as -m shows only here
    for k, u in enumerate(corpus()):
        got = circuit_to_unitary(decompose(u))
        assert np.max(np.abs(got - nearest_unitary(u))) < 1e-9, k


def test_closed_form_representative_frames():
    # the frames decompose writes in closed form diagonalize each
    # representative's magic-frame symmetric product with the phases of
    # its input, and on classes whose phases are well apart they are the
    # vectors an eigen-solve of the representative returns
    su, _ = _special_unitary_projection(np.array(corpus()))
    phases, _ = _class_spectrum(_to_magic(su))
    vm, frames = _representatives(_class_angles(phases))
    diagonal = frames.swapaxes(-1, -2) @ vm @ vm.swapaxes(-1, -2) @ frames
    want = np.zeros_like(diagonal)
    want[:, range(4), range(4)] = np.exp(1j * phases)
    assert np.abs(diagonal - want).max() < 1e-12
    assert (np.linalg.det(frames) > 0).all()

    gaps = np.abs(np.remainder(phases[:, :, None] - phases[:, None, :] + math.pi, math.tau) - math.pi)
    gaps[:, range(4), range(4)] = math.inf
    apart = gaps.min(axis=(1, 2)) > 1e-3
    assert apart.sum() >= 200
    solved_phases, solved = _class_spectrum(vm[apart])
    assert np.abs(np.exp(1j * solved_phases) - np.exp(1j * phases[apart])).max() < 1e-12
    assert np.abs(solved - frames[apart]).max() < 1e-12

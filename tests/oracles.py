"""Reference implementations the tests check the package against.

Each is the plain, one-matrix-at-a-time form of something su4c computes in
stacked form, written from the gate definitions: the matrix of a pulse and
of a pulse list, the R triple of the pulse template, a density-matrix check,
and one noise realization of a program applied to a density matrix. None of
them is part of the package's pipeline.
"""

import math
from dataclasses import replace

import numpy as np

from su4c.circuits import _pulses
from su4c.experiment import NoiseModel, _angle_table, _depolarizing_weight, _IS_R, _qubit_damping
from su4c.gates import G_GATE, ClassParams, GateElement, _canonical_phase, _canonical_vs, _exit_layers, r_gate, rz_gate
from su4c.haar import SeededRng
from su4c.linalg import _as_complex, _kron, _require_shape

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)

_I2 = np.eye(2, dtype=complex)


def gate_matrix(elem: GateElement) -> np.ndarray:
    """Matrix of a library element: 2x2 for R/Rz, 4x4 for G."""
    if elem.kind == "R":
        return r_gate(elem.theta, elem.phi)
    if elem.kind == "Rz":
        return rz_gate(elem.phiz)
    return G_GATE.copy()


def embed(m: np.ndarray, target: int) -> np.ndarray:
    """Promote a 2x2 matrix to the two-qubit space on the given qubit."""
    return _kron(m, _I2) if target == 0 else _kron(_I2, m)


def r_pulse_triple(theta: float, phi: float, target: int = 0) -> list[GateElement]:
    """R(theta, phi) out of two calibrated pi/2 pulses and a frame advance:

        R(theta, phi) = R(pi/2, phi + pi/2) Rz(theta) R(pi/2, phi - pi/2)

    Returned in application order, on qubit target. Exact for every (theta, phi).
    """
    return [
        GateElement("R", theta=math.pi / 2.0, phi=(phi - math.pi / 2.0) % math.tau, target=target),
        GateElement("Rz", phiz=theta % math.tau, target=target),
        GateElement("R", theta=math.pi / 2.0, phi=(phi + math.pi / 2.0) % math.tau, target=target),
    ]


def compose_pulses(seq: list[GateElement]) -> np.ndarray:
    """Multiply a pulse program into a 4x4 matrix (application order)."""
    out = np.eye(4, dtype=complex)
    for elem in seq:
        m = gate_matrix(elem)
        out = (m if elem.kind == "G" else embed(m, elem.target)) @ out
    return out


def check_density_matrix(rho: np.ndarray, atol: float = 1e-10) -> np.ndarray:
    """Validate shape, Hermiticity, unit trace, and positivity; returns the
    array."""
    m = _as_complex(rho)
    _require_shape(m)
    if np.max(np.abs(m - m.conj().T)) > atol:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(m) - 1.0) > atol:
        raise ValueError("density matrix trace is not 1")
    if np.min(np.linalg.eigvalsh(m)) < -atol:
        raise ValueError("density matrix has a negative eigenvalue")
    return m


def apply_channel(
    rho: np.ndarray,
    angles: np.ndarray,
    noise: NoiseModel,
    rng: SeededRng | None = None,
) -> np.ndarray:
    """One noise realization of the program, an angle row (32,), acting on
    rho: its GateElement view after one normal(size=(n_R, 1)) draw of
    relative over-rotations, one per R pulse.

    rng may be omitted only when the noise model draws nothing
    (overrotation_sigma == 0).
    """
    m = check_density_matrix(rho, atol=1e-9)
    pulses = _pulses(_angle_table(angles, 1))
    if noise.overrotation_sigma > 0.0 and rng is None:
        raise ValueError("stochastic noise requires an rng")
    if noise.overrotation_sigma > 0.0:
        draws = iter(rng.generator.normal(0.0, noise.overrotation_sigma, size=(_IS_R.sum(), 1))[:, 0])
        pulses = [replace(p, theta=p.theta * (1.0 + next(draws))) if p.kind == "R" else p for p in pulses]
    u = compose_pulses(pulses)
    q = _depolarizing_weight(noise)
    out = (1.0 - q) * (u @ m @ u.conj().T) + q * np.eye(4) / 4.0
    k = _qubit_damping(noise.damping_per_circuit)
    kraus = np.array([_kron(ka, kb) for ka in k for kb in k])
    out = np.sum(kraus @ out @ kraus.conj().transpose(0, 2, 1), axis=0)
    return 0.5 * (out + out.conj().T)


def canonical_v(params: ClassParams) -> np.ndarray:
    """The canonical representative of one class, its quarter turn
    included: the one-row case of the compiler's stacked kernels."""
    rows = np.array([[params.alpha, params.beta, params.delta]], dtype=float)
    return _canonical_phase(rows)[0] * _canonical_vs(rows, _exit_layers(rows[:, 2]))[0]

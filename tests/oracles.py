"""Reference implementations the tests check the package against.

Each is the plain, one-matrix-at-a-time form of something su4c computes in
stacked form, written from the gate definitions: the matrix of a pulse and
of a pulse list, the R triple of the pulse template, a density-matrix check,
one noise realization of a program applied to a density matrix, the complex
density-matrix pass of the executor, the 2x2 matrix of a quaternion, the
block factoring of a tensor product and the matrix slots of the pulse
template. None of them is part of the package's pipeline.
"""

import math
from dataclasses import replace

import numpy as np

from su4c.circuits import _R_THETA, _TEMPLATE, _pulses
from su4c.experiment import (
    _EFFECTS,
    _IS_R,
    _PREPARED_STATES,
    NoiseModel,
    _angle_table,
    _depolarizing_weight,
)
from su4c.config import DEFAULT_TOL
from su4c.gates import (
    _ENTRY_FRAME,
    G_GATE,
    ClassParams,
    GateElement,
    _canonical_phase,
    _canonical_vs,
    _exit_layers,
    r_gate,
    rz_gate,
)
from su4c.haar import SeededRng
from su4c.linalg import NotAProductError, _as_complex, _kron, _require_shape

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.diag([1.0, -1.0]).astype(complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)

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
    k = qubit_damping(noise.damping_per_circuit)
    kraus = np.array([_kron(ka, kb) for ka in k for kb in k])
    out = np.sum(kraus @ out @ kraus.conj().transpose(0, 2, 1), axis=0)
    return 0.5 * (out + out.conj().T)


def qubit_damping(gamma: float) -> np.ndarray:
    """The two Kraus operators of amplitude damping on one qubit, (2, 2, 2)."""
    return np.array(
        [[[1.0, 0.0], [0.0, math.sqrt(1.0 - gamma)]], [[0.0, math.sqrt(gamma)], [0.0, 0.0]]], dtype=complex
    )


# The exact pass on complex density matrices, the reference the executor's
# Pauli-transfer pass is held to: each R pulse is a superoperator on its
# target's (row, column) index pair, Rz and G are phases, and the outcome
# probabilities are one product with the effects of each setting.


def pass_layout(m: np.ndarray) -> np.ndarray:
    """X[(a, a'), (b, b')] = m[(a, b), (a', b')] of each matrix of a stack
    (m, 4, 4): the layout of the density-matrix pass, qubit 0's row and
    column index first. Its own inverse."""
    return m.reshape(-1, 2, 2, 2, 2).swapaxes(2, 3).reshape(m.shape)


# G's diagonal conjugation in the pass layout: X *= g_ab conj(g_a'b').
G_PHASES = pass_layout((np.diag(G_GATE)[:, None] * np.diag(G_GATE).conj()).reshape(1, 4, 4))[0]

# I/4 in the pass layout.
MIXED = pass_layout(np.eye(4, dtype=complex).reshape(1, 4, 4) / 4.0)[0]

# The 16 entries of an R channel's superoperator, row-major, as indices
# into the eight distinct values r_channel_values returns.
R_ENTRIES = np.array([0, 1, 2, 3, 4, 0, 5, 2, 6, 7, 0, 1, 3, 6, 4, 0])


def r_channel_values(theta, phi: np.ndarray, sigma: float) -> np.ndarray:
    """The eight distinct entries (..., 8) of R(theta, phi) averaged over a
    relative over-rotation drawn from N(0, sigma), a superoperator on the
    target's (row, column) index pair that R_ENTRIES spreads over 4x4:

        rho -> (1 + c)/2 rho + (1 - c)/2 n rho n + (s/2) i [rho, n],

    c = k cos(theta), s = k sin(theta), k = exp(-theta^2 sigma^2 / 2)."""
    k = np.exp(-0.5 * (theta * sigma) ** 2)
    c, s = k * np.cos(theta), k * np.sin(theta)
    a, b = 0.5 * (1.0 + c), 0.5 * (1.0 - c)
    u = np.exp(-1j * phi)  # n = [[0, u], [conj(u), 0]]
    p, q = 0.5j * s * u, 0.5j * s * u.conj()
    values = np.empty((*p.shape, 8), dtype=complex)
    values[..., 0], values[..., 1], values[..., 2], values[..., 3] = a, q, -p, b
    values[..., 4], values[..., 5], values[..., 6] = p, b * u * u, -q
    values[..., 7] = b * (u * u).conj()
    return values


def apply_superoperator(x: np.ndarray, op: np.ndarray, target: int) -> np.ndarray:
    """x (M, 4, 4) in the pass layout after the 4x4 superoperator op, one
    per state (M, 4, 4) or one for all, on the target's (row, column) index
    pair: qubit 0's pair indexes the rows of x, qubit 1's its columns."""
    if target == 1:
        return apply_superoperator(x.swapaxes(-1, -2), op, 0).swapaxes(-1, -2)
    out = op[..., :, 0, None] * x[:, None, 0, :]
    for k in (1, 2, 3):
        out += op[..., :, k, None] * x[:, None, k, :]
    return out


def reference_output_states(angles, prepared, noise: NoiseModel) -> np.ndarray:
    """The exact output states (M, 4, 4) of each angle row (M, 32) run on its
    preparation row, an index into TOMOGRAPHY_INPUT_LABELS, under noise,
    averaged over the over-rotations, by the complex density-matrix pass."""
    x = pass_layout(_PREPARED_STATES[prepared])
    r_values = r_channel_values(_R_THETA, angles[:, _IS_R], noise.overrotation_sigma)
    r_ops = (values[:, R_ENTRIES].reshape(-1, 4, 4) for values in r_values.swapaxes(0, 1))
    rz = iter(np.exp(-1j * angles[:, ~_IS_R]).T)
    for kind, target in _TEMPLATE:
        if kind == "G":
            x = x * G_PHASES
        elif kind == "Rz":
            e = next(rz)
            phases = np.stack([np.ones_like(e), e, e.conj(), np.ones_like(e)], axis=-1)
            x = x * (phases[:, :, None] if target == 0 else phases[:, None, :])
        else:
            x = apply_superoperator(x, next(r_ops), target)
    q = _depolarizing_weight(noise)
    damping = sum(_kron(k, k.conj()) for k in qubit_damping(noise.damping_per_circuit))
    x = apply_superoperator(apply_superoperator((1.0 - q) * x + q * MIXED, damping, 0), damping, 1)
    return pass_layout(x)


def reference_probabilities(angles, prepared, noise: NoiseModel) -> np.ndarray:
    """The exact outcome probabilities (M, 9, 4) of each angle row run on its
    preparation row under noise: each reference_output_states state's
    product with the nine settings' effects, one setting at a time, clipped
    at 0 and normalized per setting."""
    rho = reference_output_states(angles, prepared, noise).reshape(-1, 1, 16)
    p = np.empty((len(rho), 9, 4))
    for k, effects in enumerate(_EFFECTS):
        p[:, k] = (rho * effects).sum(axis=-1).real
    p = np.clip(p, 0.0, None)
    return p / p.sum(axis=-1, keepdims=True)


def canonical_v(params: ClassParams) -> np.ndarray:
    """The canonical representative of one class, its quarter turn
    included: the one-row case of the compiler's stacked kernels."""
    rows = np.array([[params.alpha, params.beta, params.delta]], dtype=float)
    return _canonical_phase(rows)[0] * _canonical_vs(rows, _exit_layers(rows[:, 2]))[0]


def quaternion(m) -> np.ndarray:
    """The quaternion (q0, q1, q2, q3) of a det-1 2x2 unitary, or of each
    matrix of a stack: m00 = q0 - i q3 and m10 = q2 - i q1."""
    m = np.asarray(m)
    return np.stack([m[..., 0, 0].real, -m[..., 1, 0].imag, m[..., 1, 0].real, -m[..., 0, 0].imag], axis=-1)


def su2(q) -> np.ndarray:
    """The 2x2 matrix q0 I - i (q1 X + q2 Y + q3 Z) of a quaternion, or of
    each row of an (..., 4) array; quaternion's inverse on SU(2)."""
    q = np.asarray(q, dtype=float)
    m00, m10 = q[..., 0] - 1j * q[..., 3], q[..., 2] - 1j * q[..., 1]
    return np.stack([np.stack([m00, -m10.conj()], axis=-1), np.stack([m10, m00.conj()], axis=-1)], axis=-2)


def factor_tensor_products(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Factor each unitary of an (N, 4, 4) stack as ``phases[k] *
    kron(a[k], b[k])`` with det-1 factors a, b (N, 2, 2), from its 2x2
    blocks ``m[2i:2i+2, 2j:2j+2] = a[i, j] b``.

    The largest block fixes ``b`` up to normalization, the block overlaps
    fix ``a``, and both factors are then rescaled to determinant one with
    the residual scalar returned as the phase. For det-1 inputs the phase
    is a fourth root of unity. Raises NotAProductError when a rebuilt
    product misses its row by DEFAULT_TOL.product_residual or more."""
    n = m.shape[0]
    rows = np.arange(n)
    # blocks[k, i, j] is the view m[k, 2i:2i+2, 2j:2j+2].
    blocks = m.reshape(n, 2, 2, 2, 2).transpose(0, 1, 3, 2, 4)
    norms = np.linalg.norm(blocks, axis=(3, 4))
    bi, bj = np.divmod(norms.reshape(n, 4).argmax(axis=1), 2)
    # A unitary product has every nonzero block proportional to b with
    # |a[i,j]| * ||b||_F and ||b||_F = sqrt(2) after normalization.
    b = blocks[rows, bi, bj] / (norms[rows, bi, bj] / math.sqrt(2.0))[:, None, None]
    a = (b.conj().swapaxes(-1, -2)[:, None, None] @ blocks).trace(axis1=3, axis2=4) / 2.0
    factors = np.concatenate([a, b])
    dets = factors[:, 0, 0] * factors[:, 1, 1] - factors[:, 0, 1] * factors[:, 1, 0]
    if (np.abs(dets) < 1e-12).any():
        raise NotAProductError("block structure is singular; not a tensor product")
    factors = factors / np.sqrt(dets)[:, None, None]  # principal square roots
    a, b = factors[:n], factors[n:]
    prod = _kron(a, b)
    overlaps = (prod.conj().swapaxes(-1, -2) @ m).trace(axis1=1, axis2=2) / 4.0
    sizes = np.abs(overlaps)
    if (sizes < 1e-12).any():
        raise NotAProductError("no phase aligns the factors with the input")
    phases = overlaps / sizes
    residual = np.abs(phases[:, None, None] * prod - m).max(axis=(1, 2))
    if (residual >= DEFAULT_TOL.product_residual).any():
        raise NotAProductError(f"tensor-product residual {residual.max():.3e}")
    return a, b, phases


# the square root of each slot's determinant: H and Z (det -1) enter slots
# 1, 3, 4 and 7 once each, and every other factor has det 1
SLOT_ROOTS = np.array([1, 1j, 1, 1j, 1j, 1, 1, 1j])


def slot_matrices(classes: np.ndarray, letters: np.ndarray) -> np.ndarray:
    """The eight slots (N, 8, 2, 2) of the pulse template of each circuit
    with class angles (alpha, beta, delta), (N, 3), and letters A, B, C, D
    as quaternions, (N, 4, 4), as 2x2 matrix products in application order,
    before division by SLOT_ROOTS (see su4c.circuits.pulse_angles)."""
    rz_p, rz_m = rz_gate(math.pi / 2.0), rz_gate(-math.pi / 2.0)
    half_y = r_gate(math.pi / 2.0, math.pi / 2.0)
    out = []
    for (alpha, beta, delta), (a, b, c, d) in zip(classes.tolist(), su2(letters)):
        out.append([
            rz_m @ a,
            HADAMARD @ rz_m @ _ENTRY_FRAME @ b,
            r_gate(alpha, math.pi) @ rz_p,
            HADAMARD @ rz_p,
            r_gate(beta, math.pi) @ rz_p @ PAULI_Z,
            HADAMARD @ rz_gate(-delta) @ PAULI_Z,
            c @ rz_p,
            d @ rz_gate(delta) @ half_y @ HADAMARD @ rz_p,
        ])
    return np.array(out).reshape(-1, 8, 2, 2)

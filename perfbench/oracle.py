"""Independent output check for compiled pulse programs.

The gate matrices are written here from the library's published definitions
instead of being taken from su4c, so a defect shared by the compiler and its
own composition code cannot hide:

    R(theta, phi) = exp(-i theta (cos(phi) X + sin(phi) Y) / 2)
    Rz(phiz)      = diag(exp(-i phiz / 2), exp(i phiz / 2))
    G             = diag(1, -i, -i, 1)

Basis order is |uu>, |ud>, |du>, |dd>: qubit 0 is the first tensor factor.
Pulses are listed in application order.
"""

from __future__ import annotations

import math

import numpy as np

EXPECTED_KINDS = {"R": 16, "Rz": 16, "G": 3}
R_THETA = math.pi / 2.0
THETA_TOL = 1e-12

_I2 = np.eye(2, dtype=complex)
_G = np.diag([1.0, -1j, -1j, 1.0])


def r_matrix(theta: float, phi: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array(
        [[c, -1j * s * complex(math.cos(phi), -math.sin(phi))],
         [-1j * s * complex(math.cos(phi), math.sin(phi)), c]]
    )


def rz_matrix(phiz: float) -> np.ndarray:
    return np.diag([np.exp(-0.5j * phiz), np.exp(0.5j * phiz)])


def pulse_matrix(pulse) -> np.ndarray:
    if pulse.kind == "G":
        return _G
    m = r_matrix(pulse.theta, pulse.phi) if pulse.kind == "R" else rz_matrix(pulse.phiz)
    return np.kron(m, _I2) if pulse.target == 0 else np.kron(_I2, m)


def program_matrix(pulses) -> np.ndarray:
    out = np.eye(4, dtype=complex)
    for pulse in pulses:
        out = pulse_matrix(pulse) @ out
    return out


def phase_invariant_distance(u: np.ndarray, w: np.ndarray) -> float:
    """Max-norm distance after aligning w's global phase to u by Tr(w^dag u)."""
    tr = np.trace(w.conj().T @ u)
    return float(np.max(np.abs(u - (tr / abs(tr)) * w)))


def check_program(u: np.ndarray, pulses, max_distance: float) -> list[str]:
    """Problems with a pulse program compiled from u; empty when it is right."""
    problems = []
    kinds = {kind: 0 for kind in EXPECTED_KINDS}
    for pulse in pulses:
        kinds[pulse.kind] = kinds.get(pulse.kind, 0) + 1
        if pulse.kind == "R" and abs(pulse.theta - R_THETA) > THETA_TOL:
            problems.append(f"R pulse with theta {pulse.theta!r}")
    if kinds != EXPECTED_KINDS:
        problems.append(f"pulse kinds {kinds}, expected {EXPECTED_KINDS}")
    distance = phase_invariant_distance(u, program_matrix(pulses))
    if not distance < max_distance:
        problems.append(f"program distance {distance:.3e} >= {max_distance:g}")
    return problems


# Named local-equivalence classes with degenerate magic-frame spectra.
_S = 0.5 + 0.5j
_T = 0.5 - 0.5j
NAMED_CLASSES = {
    "identity": np.eye(4, dtype=complex),
    "cnot": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
    "swap": np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    ),
    "iswap": np.array(
        [[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]], dtype=complex
    ),
    "sqrt_swap": np.array(
        [[1, 0, 0, 0], [0, _S, _T, 0], [0, _T, _S, 0], [0, 0, 0, 1]], dtype=complex
    ),
}


def haar_u2(gen: np.random.Generator) -> np.ndarray:
    z = (gen.standard_normal((2, 2)) + 1j * gen.standard_normal((2, 2))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def dressed(core: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    """core with Haar single-qubit gates on both sides and a random global phase."""
    pre = np.kron(haar_u2(gen), haar_u2(gen))
    post = np.kron(haar_u2(gen), haar_u2(gen))
    return np.exp(1j * gen.uniform(0.0, 2.0 * math.pi)) * (post @ core @ pre)

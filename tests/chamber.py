"""Two-qubit unitaries on the faces, edges and corners of the Weyl chamber.

A class (alpha, beta, delta) is built as expm(i (beta XX + alpha YY + delta
ZZ) / 2) with scipy, independently of su4c's canonical representative. The
faces are where two class angles are equal or one is 0 or pi/2; edges and
corners are where several of these hold at once. FACE_PATTERNS lists every
such pattern: each slot is a free angle "a" or "b" (slots with the same
letter share the value) or a fixed 0 or pi/2.
"""

import math
from itertools import product

import numpy as np
from scipy.linalg import expm

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_XX, _YY, _ZZ = (np.kron(p, p) for p in (_X, _Y, _Z))

# Three slots from two letters and two fixed values: every pattern puts two
# angles equal or one on 0 or pi/2, so none is a generic interior point.
FACE_PATTERNS = tuple(product(("a", "b", 0.0, math.pi / 2.0), repeat=3))


def face_angles(pattern, a: float, b: float) -> tuple[float, float, float]:
    """(alpha, beta, delta) of a pattern with its free angles set to a, b."""
    free = {"a": a, "b": b}
    return tuple(free[s] if isinstance(s, str) else s for s in pattern)


def interaction(alpha: float, beta: float, delta: float) -> np.ndarray:
    """expm(i (beta XX + alpha YY + delta ZZ) / 2)."""
    return expm(0.5j * (beta * _XX + alpha * _YY + delta * _ZZ))

"""Reproducible Haar-uniform sampling on SU(4).

Sampling uses the Ginibre + QR construction: a complex Gaussian matrix is
QR-factored and Q's columns are rescaled by the phases of R's diagonal,
which removes the sign/phase convention QR imposes and leaves Q exactly
Haar-distributed on U(4). A final determinant projection lands in SU(4).
"""

from __future__ import annotations

import math

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .linalg import _special_unitary_projection

__all__ = ["SeededRng", "sample_su4"]


class SeededRng:
    """Deterministic random stream: PCG64 seeded through a SeedSequence.

    Child streams from spawn() are independent and reproducible, so batch
    work can fan out without sharing generator state.
    """

    def __init__(self, seed: int, _sequence: np.random.SeedSequence | None = None):
        self.seed = int(seed)
        self._sequence = (
            _sequence if _sequence is not None else np.random.SeedSequence(self.seed)
        )
        self.generator = np.random.Generator(np.random.PCG64(self._sequence))

    def spawn(self, n: int) -> list["SeededRng"]:
        return [SeededRng(self.seed, s) for s in self._sequence.spawn(n)]

    def __repr__(self) -> str:  # pragma: no cover
        return f"SeededRng(seed={self.seed})"


def sample_su4(rng: SeededRng, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """One Haar sample from SU(4).

    Ginibre -> QR -> rescale Q's columns by the phases of diag(R) -> project
    out the determinant phase. Without the rescaling step QR's implicit
    diagonal convention biases the distribution.
    """
    g = rng.generator
    z = (g.standard_normal((4, 4)) + 1j * g.standard_normal((4, 4))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    su, _ = _special_unitary_projection(q, tol)
    return su

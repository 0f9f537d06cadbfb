"""Reproducible Haar-uniform sampling on SU(4).

Sampling uses the Ginibre + QR construction: a complex Gaussian matrix is
QR-factored and Q's columns are rescaled by the phases of R's diagonal,
which removes the sign/phase convention QR imposes and leaves Q exactly
Haar-distributed on U(4). A final determinant projection lands in SU(4).
"""

from __future__ import annotations

import math

import numpy as np

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


def sample_su4(rng: SeededRng) -> np.ndarray:
    """One Haar sample from SU(4).

    Ginibre -> QR -> rescale Q's columns by the phases of diag(R) -> project
    out the determinant phase. Without the rescaling step QR's implicit
    diagonal convention biases the distribution.
    """
    return _sample_su4_many(rng, 1)[0]


def _sample_su4_many(rng: SeededRng, n: int) -> np.ndarray:
    """n successive sample_su4 draws from rng, as an (n, 4, 4) stack.

    The Ginibre matrices are one (n, 2, 4, 4) standard normal draw, real
    parts first, which numpy fills row by row: row i is the (2, 4, 4) draw
    the i-th sample_su4 call would make, and the stream ends where n such
    calls leave it. The QR, the phase fix and the projection then run once
    on the stack, and each row comes out bit for bit as sample_su4 gives it.
    """
    draws = rng.generator.standard_normal((n, 2, 4, 4))
    z = draws[:, 0] + 1j * draws[:, 1]
    q, r = np.linalg.qr(z / math.sqrt(2.0))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    su, _ = _special_unitary_projection(q * (d / np.abs(d))[:, None, :])
    return su

"""Central tolerance configuration.

The thresholds a caller may want to tune live in one frozen record, so the
whole stack can be tightened or relaxed coherently. A few internal limits
with a single sensible value (eigenphase pairing, sign fixes, singular
blocks, the Jacobi floor) stay literals next to the code that uses them.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

__all__ = ["Tolerances", "DEFAULT_TOL", "tolerances_from_env"]


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds shared across the package.

    Attributes
    ----------
    unitarity:
        Max-norm bound on ``M @ M.conj().T - I`` for matrices required to be
        unitary on input.
    symmetry:
        Max-norm bound on ``M - M.T`` for matrices required to be symmetric.
    determinant:
        Acceptable deviation of a determinant from its target value.
    su2_det:
        Determinant gate for 2x2 special-unitary inputs.
    angle_snap:
        Below this, a rotation angle is treated as exactly 0 or pi for the
        purpose of convention special cases.
    branch_tie:
        Phases within this distance of -pi are reported as +pi.
    product_residual:
        Max-norm residual above which a 4x4 matrix is rejected as not being
        a tensor product of 2x2 factors.
    reality:
        Max allowed imaginary magnitude for matrices expected to be real.
    verify_distance:
        Default pass threshold for compiled-circuit verification.
    input_unitarity:
        Looser gate applied by the CLI to user-supplied matrices (which may
        be printed to few decimals) before projecting to the nearest unitary.
    mle_stop:
        Log-likelihood improvement below which the iterative reconstruction
        stops.
    mle_max_iter:
        Iteration cap for the iterative reconstruction.
    prob_floor:
        Probabilities are clamped to at least this value inside likelihood
        computations.
    """

    unitarity: float = 1e-8
    symmetry: float = 1e-8
    determinant: float = 1e-10
    su2_det: float = 1e-9
    angle_snap: float = 1e-9
    branch_tie: float = 1e-12
    product_residual: float = 1e-6
    reality: float = 1e-6
    verify_distance: float = 1e-6
    input_unitarity: float = 2e-2
    mle_stop: float = 1e-10
    mle_max_iter: int = 2000
    prob_floor: float = 1e-12


DEFAULT_TOL = Tolerances()

ENV_TOLERANCE = "SU4C_TOLERANCE"


def tolerances_from_env(base: Tolerances = DEFAULT_TOL) -> Tolerances:
    """Return ``base`` with the verification threshold overridden by the
    ``SU4C_TOLERANCE`` environment variable when it is set."""
    raw = os.environ.get(ENV_TOLERANCE)
    if raw is None:
        return base
    try:
        value = float(raw)
    except ValueError as exc:
        raise ValueError(f"{ENV_TOLERANCE} must be a float, got {raw!r}") from exc
    return _with_verify_distance(base, value, ENV_TOLERANCE)


def _with_verify_distance(base: Tolerances, value: float, source: str) -> Tolerances:
    """``base`` with the verification threshold set to ``value``, the one
    check of every route that sets it; ``source`` names the route."""
    if not math.isfinite(value) or value <= 0:
        raise ValueError(f"{source} must be finite and positive, got {value}")
    return replace(base, verify_distance=value)

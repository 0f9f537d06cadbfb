"""The package's numerical thresholds.

The thresholds are the fields of one frozen record, DEFAULT_TOL: constants
the kernels read where they use them, and the record every report prints.
The one a caller sets is the verification threshold, verify_distance:
verify's max_distance parameter, the SU4C_TOLERANCE environment variable
and compile --tolerance.

Some thresholds are still literals, next to the functions that use them:

- linalg: _lead_positive 1e-8; _canonicalize 12 decimals; _jacobi_polish
  1e-13 (_POLISH_FLOOR) and 30 sweeps; phase_invariant_distance 1e-12,
  else a 360-point scan.
- tomography: _mle_stack's barrier path (a start at the linear estimate
  mixed with _START_MIX 0.05 of I/4; a first mu of _MU_SHRINK times the
  certificate there, at most _MU_START 1e-2; _MU_SHRINK 0.05, _CENTRED 1,
  _BOUNDARY 0.1, _ARMIJO 0.25, _HALVINGS 50, and a floor of mle_stop / 16
  under mu); _psd_sqrt 16 eps; reconstruct_process 200 CP
  rounds and -1e-12; entanglement_fidelity 1e-6.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

__all__ = ["Tolerances", "DEFAULT_TOL", "tolerances_from_env"]


@dataclass(frozen=True)
class Tolerances:
    """The package's numerical thresholds, the record every report prints.

    The kernels read each field from DEFAULT_TOL. verify_distance is the
    one a caller sets, through verify's max_distance, SU4C_TOLERANCE or
    compile --tolerance; tolerances_from_env gives the record with it set.

    Attributes
    ----------
    unitarity:
        Max-norm bound on ``M @ M.conj().T - I`` for matrices required to be
        unitary on input.
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
        Looser gate applied to user-supplied matrices (which may be printed
        to few decimals) before projecting to the nearest unitary.
    mle_stop:
        Certificate at which a maximum-likelihood estimate is accepted: the
        estimate's log-likelihood per shot is within this much of the
        maximum over all density matrices. A bound per shot, so it means
        the same at any shot count.
    mle_max_iter:
        Safety cap on the Newton steps of one maximum-likelihood estimate;
        an estimate that reaches it is returned uncertified.
    """

    unitarity: float = 1e-8
    angle_snap: float = 1e-9
    branch_tie: float = 1e-12
    product_residual: float = 1e-6
    reality: float = 1e-6
    verify_distance: float = 1e-6
    input_unitarity: float = 2e-2
    mle_stop: float = 1e-12
    mle_max_iter: int = 100


DEFAULT_TOL = Tolerances()

ENV_TOLERANCE = "SU4C_TOLERANCE"


def tolerances_from_env() -> Tolerances:
    """DEFAULT_TOL with the verification threshold overridden by the
    ``SU4C_TOLERANCE`` environment variable when it is set."""
    raw = os.environ.get(ENV_TOLERANCE)
    if raw is None:
        return DEFAULT_TOL
    try:
        value = float(raw)
    except ValueError as exc:
        raise ValueError(f"{ENV_TOLERANCE} must be a float, got {raw!r}") from exc
    return _with_verify_distance(value, ENV_TOLERANCE)


def _with_verify_distance(value: float, source: str) -> Tolerances:
    """DEFAULT_TOL with the verification threshold set to ``value``, the one
    check of every route that sets it; ``source`` names the route."""
    if not math.isfinite(value) or value <= 0:
        raise ValueError(f"{source} must be finite and positive, got {value}")
    return replace(DEFAULT_TOL, verify_distance=value)

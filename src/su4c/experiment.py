"""Simulated two-qubit experiments: product-state preparation, noisy
execution of pulse programs, and projective measurement in the nine
two-qubit Pauli settings.

run_experiments samples the nine settings' counts of many programs in one
call, as an int64 array (N, 9, 4), and run_experiment is its one-program
case, (9, 4); exact_experiment returns the exact Born probabilities (9, 4)
of a noiseless program. Rows follow MEASUREMENT_SETTINGS and columns the
four outcomes, the form the estimators of the tomography module read.
These public entry points check their arguments once; the kernels below
them name each preparation by its row in TOMOGRAPHY_INPUT_LABELS and trust
their callers. A program is its row of 32 angles on the fixed pulse
template, as pulse_angles emits it, compiled by the caller once per
operation.

Noise model, applied to a lowered pulse sequence:
  * every R pulse's rotation angle is scaled by (1 + eps) with eps drawn
    fresh per pulse from N(0, overrotation_sigma); Rz is a frame change
    and stays exact
  * a depolarizing mix toward I/4 with weight depolarizing_per_g follows
    every entangling G application
  * single-qubit amplitude damping toward the first basis state acts once
    on each qubit at the end of the circuit, with probability
    damping_per_circuit

Every shot draws its over-rotations independently of the other shots and
then one outcome, so the counts of a setting are exactly Multinomial(shots,
p), where p is the setting's outcome distribution averaged over the
over-rotations. That average is closed-form. R(theta, phi) =
exp(-i theta n / 2), with n = cos(phi) X + sin(phi) Y on its target qubit,
averages over a Gaussian eps to the channel

    rho -> (1 + c)/2 rho + (1 - c)/2 n rho n + (s/2) i [rho, n],
    c = k cos(theta), s = k sin(theta), k = exp(-theta^2 sigma^2 / 2),

k being the mean of cos(theta eps). Rz and G are diagonal and conjugate
rho exactly. The mixes after the n_G applications of G, each of weight
d = depolarizing_per_g, are applied as one mix toward I/4 of weight
1 - (1 - d)^n_G before the damping at the end, which is exact because every
pulse channel maps I/4 to itself, so each mix commutes with every later
pulse. One density-matrix pass per (program, preparation) thus gives the
exact p of all nine settings at any shot count. run_experiments draws each
program's counts as one multinomial from that program's own rng, so a
program's counts do not depend on the others in the call; the pass runs
the programs together along the template, with no sum across programs. The
CLI's runs instead draw the counts of a whole stack of programs as one
multinomial from one stream (_sample_counts), in program order.

Measurement settings are labeled by a Pauli letter per qubit. X and Y are
read out by prerotating with R(pi/2, pi/2) and R(pi/2, 0) respectively and
then measuring in the computational basis; outcome order follows the basis
order (first basis state of qubit 0 first).
"""

from __future__ import annotations

import math
from collections.abc import Sequence, Sized
from dataclasses import dataclass
from itertools import product

import numpy as np

from .circuits import _R_THETA, _TEMPLATE
from .gates import G_GATE, r_gate
from .haar import SeededRng
from .linalg import _kron

__all__ = [
    "STATE_LABELS",
    "TOMOGRAPHY_INPUT_LABELS",
    "MEASUREMENT_SETTINGS",
    "CALIBRATED_NOISE",
    "NoiseModel",
    "input_state",
    "run_experiments",
    "run_experiment",
    "exact_experiment",
]

# The six single-qubit Pauli eigenstates. The preparations use four of them;
# the probes of mean_state_fidelity use all six.
_STATE_VECTORS = {
    "up": np.array([1.0, 0.0], dtype=complex),
    "down": np.array([0.0, 1.0], dtype=complex),
    "plus": np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0),
    "minus": np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0),
    "plus_i": np.array([1.0, 1.0j], dtype=complex) / math.sqrt(2.0),
    "minus_i": np.array([1.0, -1.0j], dtype=complex) / math.sqrt(2.0),
}

STATE_LABELS = ("up", "down", "plus", "minus_i")

# 16 product preparations spanning the two-qubit operator space, in the
# fixed order used by process tomography and benchmark state assignment.
TOMOGRAPHY_INPUT_LABELS = tuple(product(STATE_LABELS, repeat=2))

MEASUREMENT_SETTINGS = tuple(product(("Z", "X", "Y"), repeat=2))

_PREROTATION = {
    "Z": np.eye(2, dtype=complex),
    "X": r_gate(math.pi / 2.0, math.pi / 2.0),
    "Y": r_gate(math.pi / 2.0, 0.0),
}

# Prerotation frame of each entry of MEASUREMENT_SETTINGS, in order, (9, 4, 4).
_SETTING_FRAMES = np.array(
    [_kron(_PREROTATION[a], _PREROTATION[b]) for a, b in MEASUREMENT_SETTINGS]
)
_SETTING_FRAMES.flags.writeable = False


def _product_states(labels) -> tuple[np.ndarray, np.ndarray]:
    """The products of _STATE_VECTORS named by label pairs, in order, as
    read-only state vectors (n, 4) and density matrices (n, 4, 4), each entry
    the np.outer of its factors."""
    vectors = np.array([np.outer(_STATE_VECTORS[a], _STATE_VECTORS[b]).reshape(4) for a, b in labels])
    states = vectors[:, :, None] * vectors[:, None, :].conj()
    vectors.flags.writeable = False
    states.flags.writeable = False
    return vectors, states


# The 16 preparations in TOMOGRAPHY_INPUT_LABELS order.
_PREPARED_VECTORS, _PREPARED_STATES = _product_states(TOMOGRAPHY_INPUT_LABELS)
_PREPARATION_INDEX = {label: k for k, label in enumerate(TOMOGRAPHY_INPUT_LABELS)}


def _preparation_index(label: Sequence[str]) -> int:
    """Row of a product preparation, one label per qubit, in the tables above."""
    if isinstance(label, str) or not isinstance(label, Sized) or len(label) != 2:
        raise ValueError(f"a preparation label is a pair of state labels, one per qubit; got {label!r}")
    a, b = (str(name) for name in label)
    for name in (a, b):
        if name not in STATE_LABELS:
            raise ValueError(f"unknown state label {name!r}; choose from {STATE_LABELS}")
    return _PREPARATION_INDEX[a, b]


def input_state(label: Sequence[str]) -> np.ndarray:
    """State vector of a product preparation, one label per qubit."""
    return _PREPARED_VECTORS[_preparation_index(label)].copy()


@dataclass(frozen=True)
class NoiseModel:
    overrotation_sigma: float = 0.0
    depolarizing_per_g: float = 0.0
    damping_per_circuit: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.overrotation_sigma) and self.overrotation_sigma >= 0.0):
            raise ValueError("overrotation_sigma must be finite and >= 0")
        for name in ("depolarizing_per_g", "damping_per_circuit"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")


def _pass_layout(m: np.ndarray) -> np.ndarray:
    """X[(a, a'), (b, b')] = m[(a, b), (a', b')] of each matrix of a stack
    (m, 4, 4): the layout of the density-matrix pass, qubit 0's row and
    column index first. Its own inverse."""
    return m.reshape(-1, 2, 2, 2, 2).swapaxes(2, 3).reshape(m.shape)


# G's diagonal conjugation in the pass layout: X *= g_ab conj(g_a'b').
_G_PHASES = _pass_layout((np.diag(G_GATE)[:, None] * np.diag(G_GATE).conj()).reshape(1, 4, 4))[0]

# Per setting and outcome o, W[o, i] conj(W[o, j]) for the setting's frame
# W, (9, 4, 16): the outcome's probability is Re sum(effect * rho.ravel()).
# Outcome o projects onto W^dagger |o>, so each row is vec(op^T) of its
# projector op; tomography reads the same table as its 36 Born rows.
_EFFECTS = (_SETTING_FRAMES[..., :, None] * _SETTING_FRAMES[..., None, :].conj()).reshape(9, 4, 16)
_EFFECTS.flags.writeable = False

# I/4 in the pass layout.
_MIXED = _pass_layout(np.eye(4, dtype=complex).reshape(1, 4, 4) / 4.0)[0]


# Whether each column of an angle row is an R pulse's phase, not an Rz angle.
_IS_R = np.array([kind == "R" for kind, _ in _TEMPLATE if kind != "G"])


def _angle_table(angles, ndim: int) -> np.ndarray:
    """angles as an ndim-dimensional float array of rows of 32 finite angles, or ValueError."""
    try:
        table = np.asarray(angles, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"angles must be an array of floats: {exc}") from None
    if ndim == 2 and table.shape == (0,):
        table = table.reshape(0, len(_IS_R))  # no programs
    if table.ndim != ndim or table.shape[-1] != len(_IS_R):
        raise ValueError(f"angles must have shape {'(N, 32)' if ndim == 2 else '(32,)'}, got {table.shape}")
    if not np.isfinite(table).all():
        raise ValueError("angles must be finite")
    return table


# The 16 entries of an R channel's superoperator, row-major, as indices
# into the eight distinct values _r_channel_values returns.
_R_ENTRIES = np.array([0, 1, 2, 3, 4, 0, 5, 2, 6, 7, 0, 1, 3, 6, 4, 0])


def _r_channel_values(theta: "float | np.ndarray", phi: np.ndarray, sigma: float) -> np.ndarray:
    """The eight distinct entries (..., 8) of R(theta, phi) averaged over a
    relative over-rotation drawn from N(0, sigma), a superoperator on the
    target's (row, column) index pair that _R_ENTRIES spreads over 4x4; each
    is written into one array as it is made, so no stack of all sixteen is
    held. theta may be one angle for all phases."""
    k = np.exp(-0.5 * (theta * sigma) ** 2)  # the Gaussian mean of cos(theta eps)
    c, s = k * np.cos(theta), k * np.sin(theta)
    a, b = 0.5 * (1.0 + c), 0.5 * (1.0 - c)
    u = np.exp(-1j * phi)  # n = [[0, u], [conj(u), 0]]
    p, q = 0.5j * s * u, 0.5j * s * u.conj()
    values = np.empty((*p.shape, 8), dtype=complex)
    values[..., 0], values[..., 1], values[..., 2], values[..., 3] = a, q, -p, b
    values[..., 4], values[..., 5], values[..., 6] = p, b * u * u, -q
    values[..., 7] = b * (u * u).conj()
    return values


def _qubit_damping(gamma: float) -> np.ndarray:
    """The two Kraus operators of amplitude damping on one qubit, (2, 2, 2)."""
    return np.array(
        [[[1.0, 0.0], [0.0, math.sqrt(1.0 - gamma)]], [[0.0, math.sqrt(gamma)], [0.0, 0.0]]], dtype=complex
    )


def _depolarizing_weight(noise: NoiseModel) -> float:
    """Weight of the end-of-circuit mix equal to the mixes after every G."""
    return 1.0 - (1.0 - noise.depolarizing_per_g) ** _TEMPLATE.count(("G", None))


def _apply(x: np.ndarray, op: np.ndarray, target: int) -> np.ndarray:
    """x (M, 4, 4) in the pass layout after the 4x4 superoperator op, one
    per state (M, 4, 4) or one for all, on the target's (row, column) index
    pair: qubit 0's pair indexes the rows of x, qubit 1's its columns.

    Each entry is four elementwise products added in place, in index
    order; target 1 is target 0 on the transposes."""
    if target == 1:
        return _apply(x.swapaxes(-1, -2), op, 0).swapaxes(-1, -2)
    out = op[..., :, 0, None] * x[:, None, 0, :]
    for k in (1, 2, 3):
        out += op[..., :, k, None] * x[:, None, k, :]
    return out


def _rz_phases(angles: np.ndarray) -> np.ndarray:
    """Per Rz pulse of each angle row (M, 32), its phases on the target's
    (row, column) index pair, (16, M, 4)."""
    e = np.exp(-1j * angles[:, ~_IS_R]).T
    out = np.ones((*e.shape, 4), dtype=complex)
    out[..., 1], out[..., 2] = e, e.conj()
    return out


def _output_states(angles, prepared, noise: NoiseModel) -> np.ndarray:
    """The exact output states (M, 4, 4) of each angle row run on its
    preparation row, an index into _PREPARED_STATES, under noise, averaged
    over the over-rotations. Elementwise products and sums along one
    state's axes only, with no BLAS call, so a program's bits depend
    neither on the others nor on the BLAS thread count. Each R
    pulse's (M, 4, 4) channel is spread from its eight values when the
    pulse comes; the phases of all 16 Rz pulses are built once, (16, M, 4)."""
    # a copy (fancy index), so the G and Rz pulses multiply it in place
    x = _pass_layout(_PREPARED_STATES[prepared])
    phi = angles[:, _IS_R]
    r_values = _r_channel_values(_R_THETA, phi, noise.overrotation_sigma)
    r_ops = (values[:, _R_ENTRIES].reshape(-1, 4, 4) for values in r_values.swapaxes(0, 1))
    rz = iter(_rz_phases(angles))
    for kind, target in _TEMPLATE:
        if kind == "G":
            x *= _G_PHASES
        elif kind == "Rz":
            phases = next(rz)
            x *= phases[:, :, None] if target == 0 else phases[:, None, :]
        else:
            x = _apply(x, next(r_ops), target)
    q = _depolarizing_weight(noise)
    damping = sum(_kron(k, k.conj()) for k in _qubit_damping(noise.damping_per_circuit))
    x = _apply(_apply((1.0 - q) * x + q * _MIXED, damping, 0), damping, 1)
    return _pass_layout(x)


def _outcome_probabilities(angles, prepared, noise: NoiseModel) -> np.ndarray:
    """The exact outcome probabilities (M, 9, 4) of each angle row run on
    its preparation row under noise: the nine settings of each
    _output_states state."""
    rho = _output_states(angles, prepared, noise).reshape(-1, 1, 16)
    p = np.empty((len(rho), 9, 4))
    for k, effects in enumerate(_EFFECTS):  # one (M, 4, 16) product per setting
        p[:, k] = (rho * effects).sum(axis=-1).real
    p = np.clip(p, 0.0, None)
    return p / p.sum(axis=-1, keepdims=True)


def _sample_counts(angles, prepared, noise: NoiseModel, shots: int, rng: SeededRng) -> np.ndarray:
    """The counts (N, 9, 4) of the program angles[i] run on the preparation
    row prepared[i]: one multinomial of shots per setting, all drawn from rng
    in one call, which numpy fills program by program and setting by
    setting."""
    return rng.generator.multinomial(shots, _outcome_probabilities(angles, prepared, noise))


def _shot_count(shots, what: str = "shots_per_setting") -> int:
    """shots as an int from 1 to 2**63 - 1, the largest count
    Generator.multinomial draws; ValueError naming what otherwise, a bool
    included."""
    if isinstance(shots, bool) or not isinstance(shots, (int, np.integer)) or not 0 < shots < 2**63:
        raise ValueError(f"{what} must be an int from 1 to 2**63 - 1, got {shots!r}")
    return int(shots)


def run_experiments(
    angles: np.ndarray,
    labels: Sequence[Sequence[str]],
    noise: NoiseModel,
    shots_per_setting: int,
    rngs: Sequence[SeededRng],
) -> np.ndarray:
    """Prepare each labeled product state, execute its pulse program, and
    sample the counts of all nine settings: the counts (N, 9, 4), int64, of
    the program angles[i], a row of the (N, 32) table pulse_angles returns,
    run on labels[i] with rngs[i].

    Every shot sees a fresh noise realization, so each setting's counts are
    Multinomial(shots, p) with p its exact outcome distribution under the
    noise model; each program draws them as one multinomial over its nine
    settings from its own rng. Each program's counts depend only on its own
    arguments, not on the others in the call.
    """
    shots = _shot_count(shots_per_setting)
    table = _angle_table(angles, 2)
    prepared = [_preparation_index(label) for label in labels]
    if not len(table) == len(prepared) == len(rngs):
        raise ValueError(
            f"{len(table)} programs, {len(prepared)} labels and {len(rngs)} rngs: "
            "one label and one rng per program"
        )
    p = _outcome_probabilities(table, prepared, noise)
    counts = [rng.generator.multinomial(shots, pi) for pi, rng in zip(p, rngs)]
    return np.array(counts, dtype=np.int64).reshape(-1, 9, 4)


def run_experiment(
    angles: np.ndarray,
    label: Sequence[str],
    noise: NoiseModel,
    shots_per_setting: int,
    rng: SeededRng,
) -> np.ndarray:
    """Prepare the labeled product state, execute the program, an angle row
    (32,), and sample the counts (9, 4) of all nine settings: run_experiments
    of one program."""
    return run_experiments(_angle_table(angles, 1)[None], [label], noise, shots_per_setting, [rng])[0]


def exact_experiment(angles: np.ndarray, label: Sequence[str]) -> np.ndarray:
    """The exact Born probabilities (9, 4) of the noiseless program, an
    angle row (32,), on the labeled preparation: the infinite-shot limit of
    the frequencies, which the estimators read in place of counts."""
    table = _angle_table(angles, 1)[None]
    return _outcome_probabilities(table, [_preparation_index(label)], NoiseModel())[0]


# Stored profile for demonstration runs: tuned so the packaged benchmark's
# mean reconstructed-state fidelity lands near 0.79 at 100 shots per
# setting (0.780 to 0.795 over seeds 0-9 at 160 operations).
CALIBRATED_NOISE = NoiseModel(
    overrotation_sigma=0.06,
    depolarizing_per_g=0.07,
    damping_per_circuit=0.05,
)

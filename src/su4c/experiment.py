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
over-rotations. That average is closed-form on the real Pauli table T[a, b]
= Tr(rho s_a (x) s_b) of a state. R(theta, phi) = exp(-i theta n / 2), with
n = cos(phi) X + sin(phi) Y on its target qubit, averages over a Gaussian
eps to a map of the target's Bloch vector r (a row of T for qubit 0, a
column for qubit 1),

    r -> c r + (1 - c) (n . r) n + s n x r,
    c = k cos(theta), s = k sin(theta), k = exp(-theta^2 sigma^2 / 2),

k being the mean of cos(theta eps). Rz turns r about the z axis, and G
permutes the 16 entries of T with fixed signs. The mixes after the n_G
applications of G, each of weight d = depolarizing_per_g, are applied as
one mix toward I/4 of weight 1 - (1 - d)^n_G before the damping at the end,
which is exact because every pulse channel maps I/4 to itself; it scales
every entry but T[0, 0] = 1. Damping with probability g scales x and y by
sqrt(1 - g) and maps z to (1 - g) z + g. An outcome's probability is then a
four-term sum of +-T[a, b] / 4. One pass per (program, preparation) thus
gives the exact p of all nine settings at any shot count. run_experiments
draws each program's counts as one multinomial from that program's own
rng, so a program's counts do not depend on the others in the call; the
pass runs the programs together along the template, with no sum across
programs. The CLI's runs instead draw the counts of a whole stack of
programs as one multinomial from one stream (_sample_counts), in program
order.

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


# The 16 two-qubit Paulis P_j = s_a (x) s_b, identity first, j = 4 a + b. The
# pass carries each state as its real Pauli table T[a, b] = Tr(rho P_j),
# rho = sum_j T_j P_j / 4: qubit 0's Pauli indexes the rows, and T[0, 0] = 1.
_SIGMAS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
_ALL_PAULIS = _kron(_SIGMAS[:, None], _SIGMAS[None, :]).reshape(16, 4, 4)
_ALL_PAULIS.flags.writeable = False

# Per setting and outcome o, W[o, i] conj(W[o, j]) for the setting's frame
# W, (9, 4, 16): the outcome's probability is Re sum(effect * rho.ravel()).
# Outcome o projects onto W^dagger |o>, so each row is vec(op^T) of its
# projector op; tomography reads the same table as its 36 Born rows.
_EFFECTS = (_SETTING_FRAMES[..., :, None] * _SETTING_FRAMES[..., None, :].conj()).reshape(9, 4, 16)
_EFFECTS.flags.writeable = False

# _SIGNS[k, j] = Tr(op_k P_j) (36, 16): the eigenvalue +-1 of P_j that
# outcome k reads when its setting measures P_j, and 0 when it does not.
# Each row has four nonzero entries, so the Born rule Tr(op_k rho) is the
# four-term sum of T_j _SIGNS[k, j] / 4 over them: _BORN_COLUMNS lists their
# columns row by row, (144,), and _BORN_WEIGHTS holds _SIGNS / 4 there.
_SIGNS = np.rint((_EFFECTS.reshape(36, 16) @ _ALL_PAULIS.reshape(16, 16).T).real)
_SIGNS.flags.writeable = False
_BORN_COLUMNS = _SIGNS.nonzero()[1]
_BORN_WEIGHTS = _SIGNS[_SIGNS != 0].reshape(36, 4) / 4.0


def _pauli_table(ops: np.ndarray) -> np.ndarray:
    """Tr(op P_j) (n, 16) of each Hermitian op (n, 4, 4) with integer Pauli
    coordinates: vec(op) . conj(vec(P_j)), rounded, signed zeros dropped."""
    return np.rint((ops.reshape(-1, 16) @ _ALL_PAULIS.reshape(16, 16).conj().T).real) + 0.0


# The Pauli tables (16, 4, 4) of the preparations, and G's transfer matrix
# Tr(P_i G P_j G^dagger) / 4, a signed permutation: entry i of a table after
# G is _G_SIGNS[i] times entry _G_SOURCE[i] before.
_PREPARED_TABLES = _pauli_table(_PREPARED_STATES).reshape(16, 4, 4)
_PREPARED_TABLES.flags.writeable = False
_G_TRANSFER = _pauli_table(G_GATE @ _ALL_PAULIS @ G_GATE.conj()).T / 4.0
_G_SOURCE = np.abs(_G_TRANSFER).argmax(axis=1)
_G_SIGNS = _G_TRANSFER[np.arange(16), _G_SOURCE].reshape(4, 4)

# Whether each column of an angle row is an R pulse's phase, not an Rz angle.
_IS_R = np.array([kind == "R" for kind, _ in _TEMPLATE if kind != "G"])

# _TEMPLATE as the pass runs it: the target of each slot of pulses R, Rz, R,
# Rz on one qubit, four consecutive angles of a row, or None for a G.
_STEPS = (0, 1, None) * 3 + (0, 1)


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


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b of 3x3 blocks a (3, 3, ...) and blocks b (3, n, ...), stacked
    along the trailing axes: each entry three elementwise products added in
    index order, so its bits depend on its own operands only."""
    return a[:, 0, None] * b[None, 0] + a[:, 1, None] * b[None, 1] + a[:, 2, None] * b[None, 2]


def _pulse_blocks(theta: float, phi: np.ndarray, z: np.ndarray, sigma: float) -> np.ndarray:
    """The Bloch-vector map (3, 3, ...) of R(theta, phi) averaged over a
    relative over-rotation drawn from N(0, sigma), as the module docstring
    gives it, then Rz(z), the turn Z(z) by z about the z axis, for each phase
    phi and angle z. With (p, q) = Z(z) (cos phi, sin phi), each entry is a
    sum of at most two products."""
    k = np.exp(-0.5 * (theta * sigma) ** 2)  # the Gaussian mean of cos(theta eps)
    c, s = k * np.cos(theta), k * np.sin(theta)
    x, y, u, v = np.cos(phi), np.sin(phi), np.cos(z), np.sin(z)
    p, q = u * x - v * y, v * x + u * y
    bx, by = (1.0 - c) * x, (1.0 - c) * y
    out = np.empty((3, 3, *x.shape))
    out[0, 0], out[0, 1], out[0, 2] = u * c + bx * p, by * p - v * c, s * q
    out[1, 0], out[1, 1], out[1, 2] = v * c + bx * q, u * c + by * q, -s * p
    out[2, 0], out[2, 1], out[2, 2] = -s * y, s * x, c
    return out


def _slot_blocks(angles: np.ndarray, sigma: float) -> np.ndarray:
    """The Bloch-vector map (3, 3, 8, M) of each slot of each angle row (M,
    32), programs last: its two R pulses, averaged over the over-rotations,
    each followed by its Rz."""
    pairs = np.ascontiguousarray(angles.T).reshape(8, 2, 2, -1)  # slot, pulse, (R phase, Rz angle), program
    blocks = _pulse_blocks(_R_THETA, pairs[:, :, 0], pairs[:, :, 1], sigma)
    return _product(blocks[:, :, :, 1], blocks[:, :, :, 0])


def _depolarizing_weight(noise: NoiseModel) -> float:
    """Weight of the end-of-circuit mix equal to the mixes after every G."""
    return 1.0 - (1.0 - noise.depolarizing_per_g) ** _TEMPLATE.count(("G", None))


def _output_tables(angles, prepared, noise: NoiseModel) -> np.ndarray:
    """The exact output states, as Pauli tables (4, 4, M), programs last, of
    each angle row run on its preparation row, an index into
    _PREPARED_TABLES, under noise, averaged over the over-rotations. Each
    step is elementwise, a three-term sum in a fixed order or a gather, with
    no BLAS call, so a program's bits depend neither on the others nor on
    the BLAS thread count."""
    t = _PREPARED_TABLES.transpose(1, 2, 0)[:, :, prepared]  # a copy (fancy index), updated in place
    slots = iter(_slot_blocks(angles, noise.overrotation_sigma).transpose(2, 0, 1, 3))
    for target in _STEPS:
        if target is None:
            t = t.reshape(16, -1)[_G_SOURCE].reshape(t.shape) * _G_SIGNS[:, :, None]
        else:
            x = t if target == 0 else t.swapaxes(0, 1)  # the target's Pauli first
            x[1:] = _product(next(slots), x[1:])
    keep = 1.0 - _depolarizing_weight(noise)  # the mix toward I/4 keeps T[0, 0]
    t[1:] *= keep
    t[0, 1:] *= keep
    gamma = noise.damping_per_circuit
    for x in (t, t.swapaxes(0, 1)):  # on qubit 0, then qubit 1
        x[1:3] *= math.sqrt(1.0 - gamma)
        x[3] = (1.0 - gamma) * x[3] + gamma * x[0]
    return t


def _outcome_probabilities(angles, prepared, noise: NoiseModel) -> np.ndarray:
    """The exact outcome probabilities (M, 9, 4) of each angle row run on
    its preparation row under noise: the nine settings of each
    _output_tables state, by the four-term sums of the Born rule."""
    terms = _output_tables(angles, prepared, noise).reshape(16, -1)[_BORN_COLUMNS].reshape(36, 4, -1)
    terms *= _BORN_WEIGHTS[:, :, None]
    p = np.clip(terms[:, 0] + terms[:, 1] + terms[:, 2] + terms[:, 3], 0.0, None).reshape(9, 4, -1)
    p /= p.sum(axis=1, keepdims=True)
    return np.ascontiguousarray(p.transpose(2, 0, 1))


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

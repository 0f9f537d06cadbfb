"""Simulated two-qubit experiments: product-state preparation, noisy
execution of pulse programs, and projective measurement in the nine
two-qubit Pauli settings.

run_experiments samples the nine settings' counts of many programs in one
call, and run_experiment is its one-program case; exact_experiment returns
the exact Born probabilities of a noiseless program. All of them run pulse
programs as lower_to_pulses emits them; compiling a matrix into that program
is the caller's step, done once per operation. apply_channel is the same
noise model on a density matrix, the reference the executor is tested
against.

Noise model, applied to a lowered pulse sequence:
  * every R pulse's rotation angle is scaled by (1 + eps) with eps drawn
    fresh per pulse from N(0, overrotation_sigma); Rz is a frame change
    and stays exact
  * a depolarizing mix toward I/4 with weight depolarizing_per_g follows
    every entangling G application
  * single-qubit amplitude damping toward the first basis state acts once
    on each qubit at the end of the circuit, with probability
    damping_per_circuit

The simulation runs on state vectors: each shot is a pure 4-vector pushed
through the pulses under its own over-rotation draw. The k per-G mixes are
applied as one mix toward I/4 of weight 1 - (1 - p)^k before the damping at
the end, which is exact because a unitary maps I/4 to itself, so each mix
commutes with every later pulse.

One kernel, _evolve, runs every path. The programs of one call share one
template of pulse kinds and targets (lower_to_pulses always emits the same
one), so a call first builds a pulse table: per R pulse the half-angle
theta / 2 and the two phase factors of r_gate, per Rz pulse its diagonal,
one entry per program. Shots then run in blocks of at most _BLOCK_COLUMNS
state-vector columns that hold several programs at once, each program's
table entries broadcast over its own columns: the nine settings of each of
several programs while they fit, otherwise one setting of each of several
programs, and a setting wider than a block is evolved in slices. So memory
stays bounded at any shot count. Every program draws from its own rng, one
normal(size=(n_R, shots)) and then one random(size=shots) per setting in
setting order, so how the programs are grouped into blocks changes no draw
and no count.

Measurement settings are labeled by a Pauli letter per qubit. X and Y are
read out by prerotating with R(pi/2, pi/2) and R(pi/2, 0) respectively and
then measuring in the computational basis; outcome order follows the basis
order (first basis state of qubit 0 first).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import NamedTuple, Sequence

import numpy as np

from .circuits import GateElement
from .gates import G_GATE, r_gate
from .haar import SeededRng
from .linalg import _kron, check_density_matrix

__all__ = [
    "STATE_LABELS",
    "TOMOGRAPHY_INPUT_LABELS",
    "MEASUREMENT_SETTINGS",
    "CALIBRATED_NOISE",
    "NoiseModel",
    "MeasurementRecord",
    "input_state",
    "apply_channel",
    "run_experiments",
    "run_experiment",
    "exact_experiment",
]

_STATE_VECTORS = {
    "up": np.array([1.0, 0.0], dtype=complex),
    "down": np.array([0.0, 1.0], dtype=complex),
    "plus": np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0),
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

# G on the two qubit axes of a block (2, 2, m, n).
_G_DIAG = np.diag(G_GATE).reshape(2, 2, 1, 1)

# Most state-vector columns evolved at once, over all programs of a block:
# bounds memory at any shot count. 4096 ran fastest (2048 and 8192 were
# slower); it holds the nine settings of four 100-shot programs.
_BLOCK_COLUMNS = 4096


def input_state(label: Sequence[str]) -> np.ndarray:
    """State vector of a product preparation, one label per qubit."""
    a, b = (str(name) for name in label)
    for name in (a, b):
        if name not in _STATE_VECTORS:
            raise ValueError(f"unknown state label {name!r}; choose from {STATE_LABELS}")
    return np.outer(_STATE_VECTORS[a], _STATE_VECTORS[b]).reshape(4)


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

    @property
    def is_zero(self) -> bool:
        return (
            self.overrotation_sigma == 0.0
            and self.depolarizing_per_g == 0.0
            and self.damping_per_circuit == 0.0
        )


@dataclass(frozen=True)
class MeasurementRecord:
    """Counts for one measurement setting.

    counts follows the computational-basis outcome order after the setting's
    prerotations. Reconstruction reads only the frequencies, so exact
    (infinite-shot) surrogates can carry probabilities instead of counts.
    """

    setting: tuple[str, str]
    counts: tuple[float, float, float, float]
    shots: int

    def frequencies(self) -> np.ndarray:
        total = float(sum(self.counts))
        if total <= 0.0:
            raise ValueError("record has no counts")
        return np.asarray(self.counts, dtype=float) / total


class _PulseTable(NamedTuple):
    """Programs on their shared template of (kind, target) pairs: per R
    pulse the half-angle theta / 2 (n_R, m, 1) and the factors
    1j exp(-1j phi) and 1j exp(1j phi) of r_gate (n_R, m, 1), per Rz pulse
    its diagonal (n_Rz, 2, 1, m, 1); axis m runs over the programs."""

    template: tuple
    half: np.ndarray
    minus: np.ndarray
    plus: np.ndarray
    rz: np.ndarray

    def rows(self, ops: slice) -> "_PulseTable":
        """The table of the programs ops."""
        return _PulseTable(
            self.template, self.half[:, ops], self.minus[:, ops],
            self.plus[:, ops], self.rz[:, :, :, ops],
        )


def _pulse_table(programs: Sequence[Sequence[GateElement]]) -> _PulseTable:
    """The table of programs; ValueError unless they share one template."""
    template = tuple((pulse.kind, pulse.target) for pulse in programs[0])
    for pulses in programs[1:]:
        if tuple((pulse.kind, pulse.target) for pulse in pulses) != template:
            raise ValueError("the programs of one call must share one template of pulse kinds and targets")

    def angles(kind: str, name: str) -> np.ndarray:
        """(pulses of kind, programs, 1): the named angle of each."""
        return np.array([[getattr(p, name) for p in pulses if p.kind == kind] for pulses in programs]).T[..., None]

    phi, phiz = angles("R", "phi"), angles("Rz", "phiz")
    return _PulseTable(
        template,
        angles("R", "theta") / 2.0,
        1j * np.exp(-1j * phi),
        1j * np.exp(1j * phi),
        np.stack([np.exp(-0.5j * phiz), np.exp(0.5j * phiz)], axis=1)[:, :, None],
    )


def _damping_kraus(gamma: float) -> np.ndarray:
    """The four Kraus operators of amplitude damping on both qubits, (4, 4, 4)."""
    k0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - gamma)]], dtype=complex)
    k1 = np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return np.array([_kron(ka, kb) for ka in (k0, k1) for kb in (k0, k1)])


def _depolarizing_weight(table: _PulseTable, noise: NoiseModel) -> float:
    """Weight of the end-of-circuit mix equal to the mixes after every G."""
    n_g = sum(kind == "G" for kind, _ in table.template)
    return 1.0 - (1.0 - noise.depolarizing_per_g) ** n_g


def _overrotations(n_r: int, noise: NoiseModel, rng, shots: int) -> np.ndarray:
    """Relative over-rotations (n_r, shots), one row per R pulse; zeros,
    with nothing drawn, when the model has none."""
    if noise.overrotation_sigma == 0.0:
        return np.zeros((n_r, shots))
    return rng.generator.normal(0.0, noise.overrotation_sigma, size=(n_r, shots))


def _evolve(psi: np.ndarray, table: _PulseTable, eps: np.ndarray) -> np.ndarray:
    """Apply the programs of table in place to psi (4, m, n), program j to
    the columns psi[:, j], with over-rotations eps (n_R, m, n), or
    (n_R, m, 1) for one draw shared by a program's columns."""
    q = psi.reshape(2, 2, *psi.shape[1:])
    r = z = 0
    for kind, target in table.template:
        if kind == "G":
            q *= _G_DIAG
            continue
        v = q if target == 0 else q.swapaxes(0, 1)  # target qubit first
        if kind == "Rz":
            v *= table.rz[z]
            z += 1
            continue
        half = table.half[r] * (1.0 + eps[r])
        c, s = np.cos(half), np.sin(half)
        x0 = v[0].copy()  # r_gate(theta, phi) with one theta per column
        v[0] = c * x0 - table.minus[r] * s * v[1]
        v[1] = c * v[1] - table.plus[r] * s * x0
        r += 1
    return psi


def _frames(gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """(9, 16, 4): per setting, the products W K of its frame W with each
    damping Kraus operator K, rows stacked; and (9, 4): per setting, the
    outcome probabilities of I/4 under them."""
    frames = (_SETTING_FRAMES[:, None] @ _damping_kraus(gamma)).reshape(-1, 16, 4)
    mixed = [(f.real**2 + f.imag**2).reshape(4, 4, 4).sum(axis=(0, 2)) / 4.0 for f in frames]
    return frames, np.array(mixed)


def _probabilities(frames: np.ndarray, mixed: np.ndarray, psi: np.ndarray, q: float) -> np.ndarray:
    """Born probabilities (g, 4, n) in the settings of frames (g, 16, 4), of
    the states psi (g, 4, n) or (4, n) after a mix of weight q toward I/4
    and the damping in frames; mixed (g, 4) is I/4's share from _frames."""
    a = frames @ psi
    pure = (a.real**2 + a.imag**2).reshape(len(a), 4, 4, -1).sum(axis=1)
    p = (1.0 - q) * pure + q * mixed[:, :, None]
    return p / p.sum(axis=1, keepdims=True)


def apply_channel(
    rho: np.ndarray,
    pulses: Sequence[GateElement],
    noise: NoiseModel,
    rng: SeededRng | None = None,
) -> np.ndarray:
    """One noise realization of the pulse sequence acting on rho.

    rng may be omitted only when the noise model draws nothing
    (overrotation_sigma == 0).
    """
    m = check_density_matrix(rho, atol=1e-9)
    if noise.overrotation_sigma > 0.0 and rng is None:
        raise ValueError("stochastic noise requires an rng")
    table = _pulse_table([pulses])
    eps = _overrotations(len(table.half), noise, rng, 1)[:, None]  # one draw for every column
    u = _evolve(np.eye(4, dtype=complex).reshape(4, 1, 4), table, eps).reshape(4, 4)
    q = _depolarizing_weight(table, noise)
    out = (1.0 - q) * (u @ m @ u.conj().T) + q * np.eye(4) / 4.0
    kraus = _damping_kraus(noise.damping_per_circuit)
    out = np.sum(kraus @ out @ kraus.conj().transpose(0, 2, 1), axis=0)
    return 0.5 * (out + out.conj().T)


def _sample_counts(frames, mixed, psi, uniform, q: float) -> np.ndarray:
    """Counts (g, 4) in the settings of frames (g, 16, 4) of the states psi
    (g, 4, n), one outcome per column: the first whose cumulative
    probability exceeds the column's uniform draw in uniform (g, n)."""
    p = _probabilities(frames, mixed, psi, q)
    edges = np.cumsum(p, axis=1)[:, :-1]
    outcome = np.sum(uniform[:, None] >= edges, axis=1) + 4 * np.arange(len(p))[:, None]
    return np.bincount(outcome.ravel(), minlength=4 * len(p)).reshape(-1, 4)


def _records(counts, shots: int) -> list[MeasurementRecord]:
    return [
        MeasurementRecord(setting, tuple(np.asarray(c).tolist()), shots)
        for setting, c in zip(MEASUREMENT_SETTINGS, counts)
    ]


def _born_table(table: _PulseTable, state: np.ndarray, frames) -> np.ndarray:
    """The four outcome probabilities of each setting (9, 4), in order, for
    the one noiseless program of table run on the state vector state;
    frames is _frames(0.0)."""
    psi = _evolve(state.reshape(4, 1, 1).copy(), table, np.zeros((len(table.half), 1, 1)))
    return _probabilities(*frames, psi.reshape(4, 1), 0.0)[:, :, 0]


def _check_shots(shots_per_setting) -> int:
    if (
        isinstance(shots_per_setting, bool)
        or not isinstance(shots_per_setting, (int, np.integer))
        or shots_per_setting <= 0
    ):
        raise ValueError(f"shots_per_setting must be a positive int, got {shots_per_setting!r}")
    return int(shots_per_setting)


def run_experiments(
    programs: Sequence[Sequence[GateElement]],
    labels: Sequence[Sequence[str]],
    noise: NoiseModel,
    shots_per_setting: int,
    rngs: Sequence[SeededRng],
) -> list[list[MeasurementRecord]]:
    """Prepare each labeled product state, execute its pulse program, and
    sample the counts of all nine settings: the records of programs[i] run
    on labels[i] with rngs[i].

    The programs must share one template of pulse kinds and targets, as
    every lower_to_pulses program does. Every shot sees a fresh noise
    realization; with a noiseless model each final state is deterministic
    and its shots are sampled in one batch. Each program's records depend
    only on its own arguments, not on the others in the call.
    """
    shots = _check_shots(shots_per_setting)
    if not len(programs) == len(labels) == len(rngs):
        raise ValueError(
            f"{len(programs)} programs, {len(labels)} labels and {len(rngs)} rngs: "
            "one label and one rng per program"
        )
    if not programs:
        return []
    table = _pulse_table(programs)
    states = [input_state(label) for label in labels]
    if noise.is_zero:
        frames = _frames(0.0)
        out = []
        for i, (state, rng) in enumerate(zip(states, rngs)):
            p = _born_table(table.rows(slice(i, i + 1)), state, frames)
            out.append(_records([rng.generator.multinomial(shots, pf) for pf in p], shots))
        return out

    psi0 = np.array(states).T[:, :, None]  # (4, M, 1)
    frames, mixed = _frames(noise.damping_per_circuit)
    q = _depolarizing_weight(table, noise)
    n_r = len(table.half)
    n_set = len(frames) if len(frames) * shots <= _BLOCK_COLUMNS else 1
    width = n_set * shots  # columns of one program in one group of settings
    per_block = max(1, _BLOCK_COLUMNS // width)
    counts = np.zeros((len(programs), len(frames), 4), dtype=np.int64)
    for first in range(0, len(programs), per_block):
        ops = slice(first, min(first + per_block, len(programs)))
        m = ops.stop - first
        block = table.rows(ops)
        for s0 in range(0, len(frames), n_set):
            sets = slice(s0, s0 + n_set)
            eps = np.empty((n_r, m, width))
            uniform = np.empty((m, width))
            for j, rng in enumerate(rngs[ops]):  # per setting: over-rotations, then uniforms
                for k in range(0, width, shots):
                    eps[:, j, k:k + shots] = _overrotations(n_r, noise, rng, shots)
                    uniform[j, k:k + shots] = rng.generator.random(shots)
            for lo in range(0, width, _BLOCK_COLUMNS):
                hi = min(lo + _BLOCK_COLUMNS, width)
                psi = _evolve(np.repeat(psi0[:, ops], hi - lo, axis=2), block, eps[:, :, lo:hi])
                for j in range(m):  # one program's settings in one product
                    cols = psi[:, j].reshape(4, n_set, -1).swapaxes(0, 1)
                    u = uniform[j, lo:hi].reshape(n_set, -1)
                    counts[first + j, sets] += _sample_counts(frames[sets], mixed[sets], cols, u, q)
    return [_records(c, shots) for c in counts]


def run_experiment(
    pulses: Sequence[GateElement],
    label: Sequence[str],
    noise: NoiseModel,
    shots_per_setting: int,
    rng: SeededRng,
) -> list[MeasurementRecord]:
    """Prepare the labeled product state, execute the pulse program, and
    sample the counts of all nine settings: run_experiments of one program.
    """
    return run_experiments([pulses], [label], noise, shots_per_setting, [rng])[0]


def exact_experiment(
    pulses: Sequence[GateElement],
    label: Sequence[str],
) -> list[MeasurementRecord]:
    """Infinite-shot records of the noiseless pulse program: the records
    carry exact Born probabilities instead of sampled counts."""
    return _records(_born_table(_pulse_table([pulses]), input_state(label), _frames(0.0)), 1)


# Stored profile for demonstration runs: tuned so the packaged benchmark's
# mean reconstructed-state fidelity lands near 0.79 at 100 shots per
# setting (0.789 to 0.793 over several seeds at 160 operations).
CALIBRATED_NOISE = NoiseModel(
    overrotation_sigma=0.06,
    depolarizing_per_g=0.07,
    damping_per_circuit=0.05,
)

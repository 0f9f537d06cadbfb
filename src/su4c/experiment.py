"""Simulated two-qubit experiments: product-state preparation, noisy
execution of a pulse program, and projective measurement in the nine
two-qubit Pauli settings.

run_experiment samples the nine settings' counts; exact_experiment returns
their exact Born probabilities for a noiseless program. Both run a pulse
program as lower_to_pulses emits it; compiling a matrix into that program is
the caller's step, done once per operation. apply_channel is the same noise
model on a density matrix, the reference the executor is tested against.

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
commutes with every later pulse. Shots run in blocks of at most _BLOCK_SHOTS,
so memory stays bounded at any shot count; the draws keep the order of one
normal(size=shots) per R pulse, then one random(size=shots), per setting.

Measurement settings are labeled by a Pauli letter per qubit. X and Y are
read out by prerotating with R(pi/2, pi/2) and R(pi/2, 0) respectively and
then measuring in the computational basis; outcome order follows the basis
order (first basis state of qubit 0 first).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np

from .circuits import GateElement
from .gates import G_GATE, r_gate, rz_gate
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

# Most shots evolved at once: bounds memory at any shot count and still
# runs the nine settings of a 100-shot experiment as one block.
_BLOCK_SHOTS = 1024


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
    prerotations. frequencies() is what reconstruction consumes, so exact
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


def _damping_kraus(gamma: float) -> np.ndarray:
    """The four Kraus operators of amplitude damping on both qubits, (4, 4, 4)."""
    k0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - gamma)]], dtype=complex)
    k1 = np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return np.array([_kron(ka, kb) for ka in (k0, k1) for kb in (k0, k1)])


def _depolarizing_weight(pulses: Sequence[GateElement], noise: NoiseModel) -> float:
    """Weight of the end-of-circuit mix equal to the mixes after every G."""
    n_g = sum(pulse.kind == "G" for pulse in pulses)
    return 1.0 - (1.0 - noise.depolarizing_per_g) ** n_g


def _overrotations(pulses, noise: NoiseModel, rng, shots: int) -> np.ndarray:
    """Relative over-rotations (n_R, shots), one row per R pulse; zeros,
    with nothing drawn, when the model has none."""
    shape = (sum(pulse.kind == "R" for pulse in pulses), shots)
    if noise.overrotation_sigma == 0.0:
        return np.zeros(shape)
    return rng.generator.normal(0.0, noise.overrotation_sigma, size=shape)


def _evolve(psi: np.ndarray, pulses, eps: np.ndarray) -> np.ndarray:
    """Apply the pulses in place to the columns of psi (4, n) with the
    over-rotations eps from _overrotations, n columns or 1 shared by all."""
    q = psi.reshape(2, 2, -1)
    rows = iter(eps)  # one row per R pulse
    for pulse in pulses:
        if pulse.kind == "G":
            q *= np.diag(G_GATE).reshape(2, 2, 1)
            continue
        v = q if pulse.target == 0 else q.swapaxes(0, 1)  # target qubit first
        if pulse.kind == "Rz":
            v *= np.diag(rz_gate(pulse.phiz))[:, None, None]
            continue
        half = pulse.theta / 2.0 * (1.0 + next(rows))
        c, s = np.cos(half), np.sin(half)
        x0 = v[0].copy()  # r_gate(theta, phi) with one theta per column
        v[0] = c * x0 - 1j * np.exp(-1j * pulse.phi) * s * v[1]
        v[1] = c * v[1] - 1j * np.exp(1j * pulse.phi) * s * x0
    return psi


def _frames(gamma: float) -> np.ndarray:
    """(9, 16, 4): per setting, the products W K of its frame W with each
    damping Kraus operator K, rows stacked."""
    return (_SETTING_FRAMES[:, None] @ _damping_kraus(gamma)).reshape(-1, 16, 4)


def _probabilities(frame: np.ndarray, psi: np.ndarray, q: float) -> np.ndarray:
    """Born probabilities (4, n) in one setting of the states psi (4, n)
    after a mix of weight q toward I/4 and the damping in frame."""
    a = frame @ psi
    pure = (a.real**2 + a.imag**2).reshape(4, 4, -1).sum(axis=0)
    mixed = (frame.real**2 + frame.imag**2).reshape(4, 4, 4).sum(axis=(0, 2)) / 4.0
    p = (1.0 - q) * pure + q * mixed[:, None]
    return p / p.sum(axis=0)


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
    eps = _overrotations(pulses, noise, rng, 1)  # one draw for every column
    u = _evolve(np.eye(4, dtype=complex), pulses, eps)
    q = _depolarizing_weight(pulses, noise)
    out = (1.0 - q) * (u @ m @ u.conj().T) + q * np.eye(4) / 4.0
    kraus = _damping_kraus(noise.damping_per_circuit)
    out = np.sum(kraus @ out @ kraus.conj().transpose(0, 2, 1), axis=0)
    return 0.5 * (out + out.conj().T)


def _records(counts, shots: int) -> list[MeasurementRecord]:
    return [
        MeasurementRecord(setting, tuple(np.asarray(c).tolist()), shots)
        for setting, c in zip(MEASUREMENT_SETTINGS, counts)
    ]


def _born_table(pulses: Sequence[GateElement], label: Sequence[str]) -> list[np.ndarray]:
    """The four outcome probabilities of each setting, in order, for the
    noiseless program run on the labeled preparation."""
    psi = input_state(label).reshape(4, 1)
    psi = _evolve(psi, pulses, _overrotations(pulses, NoiseModel(), None, 1))
    return [_probabilities(f, psi, 0.0)[:, 0] for f in _frames(0.0)]


def run_experiment(
    pulses: Sequence[GateElement],
    label: Sequence[str],
    noise: NoiseModel,
    shots_per_setting: int,
    rng: SeededRng,
) -> list[MeasurementRecord]:
    """Prepare the labeled product state, execute the pulse program, and
    sample the counts of all nine settings.

    Every shot sees a fresh noise realization; with a noiseless model the
    final state is deterministic and shots are sampled in one batch.
    """
    if shots_per_setting <= 0:
        raise ValueError("shots_per_setting must be positive")
    shots = shots_per_setting
    if noise.is_zero:
        p = _born_table(pulses, label)
        return _records([rng.generator.multinomial(shots, pf) for pf in p], shots)

    psi0 = input_state(label).reshape(4, 1)
    frames = _frames(noise.damping_per_circuit)
    q = _depolarizing_weight(pulses, noise)

    # whole settings per block, or one setting over several blocks
    group = max(1, _BLOCK_SHOTS // shots)
    counts = np.zeros((len(frames), 4), dtype=np.int64)
    n_r = sum(pulse.kind == "R" for pulse in pulses)
    for first in range(0, len(frames), group):
        members = range(first, min(first + group, len(frames)))
        eps = np.empty((n_r, len(members) * shots))
        uniform = np.empty(len(members) * shots)
        for j in range(len(members)):  # over-rotations pulse by pulse, then uniforms
            cols = slice(j * shots, (j + 1) * shots)
            eps[:, cols] = _overrotations(pulses, noise, rng, shots)
            uniform[cols] = rng.generator.random(shots)
        for lo in range(0, len(uniform), _BLOCK_SHOTS):
            hi = min(lo + _BLOCK_SHOTS, len(uniform))
            psi = _evolve(np.repeat(psi0, hi - lo, axis=1), pulses, eps[:, lo:hi])
            for j, s in enumerate(members):  # the columns of setting s in this block
                a, b = max(lo, j * shots), min(hi, (j + 1) * shots)
                p = _probabilities(frames[s], psi[:, a - lo:b - lo], q)
                edges = np.cumsum(p, axis=0)[:-1]
                outcome = np.sum(uniform[a:b] >= edges, axis=0)
                counts[s] += np.bincount(outcome, minlength=4)
    return _records(counts, shots)


def exact_experiment(
    pulses: Sequence[GateElement],
    label: Sequence[str],
) -> list[MeasurementRecord]:
    """Infinite-shot records of the noiseless pulse program: the records
    carry exact Born probabilities instead of sampled counts."""
    return _records(_born_table(pulses, label), 1)


# Stored profile for demonstration runs: tuned so the packaged benchmark's
# mean reconstructed-state fidelity lands near 0.79 at 100 shots per
# setting (0.789 to 0.793 over several seeds at 160 operations).
CALIBRATED_NOISE = NoiseModel(
    overrotation_sigma=0.06,
    depolarizing_per_g=0.07,
    damping_per_circuit=0.05,
)

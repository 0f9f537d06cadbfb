"""JSON serialization for matrices, compiled circuits, measurement records,
and process matrices, plus the content hash embedded in reports.

Complex numbers are stored as [re, im] pairs; matrix files may also use
bare numbers for real entries. Floats go through Python's shortest
round-trip repr, so dump -> load reproduces arrays bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import sys
from typing import Any, Sequence

import numpy as np

from .circuits import CircuitParams, LocalGate
from .experiment import MeasurementRecord
from .gates import ClassParams

__all__ = [
    "content_hash",
    "matrix_to_obj",
    "matrix_from_obj",
    "load_matrix",
    "save_matrix",
    "circuit_to_obj",
    "circuit_from_obj",
    "record_to_obj",
    "record_from_obj",
    "records_to_obj",
    "records_from_obj",
    "dump_json",
]


def content_hash(data: "bytes | str") -> str:
    """git blob hash (sha1 over a 'blob <len>\\0' header plus the bytes)."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    h = hashlib.sha1()
    h.update(b"blob %d\0" % len(data))
    h.update(data)
    return h.hexdigest()


def matrix_to_obj(m: np.ndarray) -> list:
    """Nested lists of [re, im] pairs."""
    a = np.asarray(m, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in a]


def _entry_to_complex(x: Any) -> complex:
    parts = x if isinstance(x, (list, tuple)) and len(x) == 2 else (x, 0)
    # bool is an int in Python, but JSON true/false is not a number
    if not all(isinstance(p, (int, float)) and not isinstance(p, bool) for p in parts):
        raise ValueError(f"matrix entry {x!r} is neither a number nor an [re, im] pair")
    # false for NaN and infinities, exact for integers beyond the float range
    if not all(abs(p) <= sys.float_info.max for p in parts):
        raise ValueError(f"matrix entry {x!r} is not a finite number")
    return complex(*parts)


def matrix_from_obj(obj: Any, shape: "tuple[int, int] | None" = None) -> np.ndarray:
    if isinstance(obj, dict) and "matrix" in obj:
        obj = obj["matrix"]
    if not isinstance(obj, (list, tuple)) or not obj:
        raise ValueError("matrix JSON must be a non-empty array of rows")
    rows = []
    for row in obj:
        if not isinstance(row, (list, tuple)):
            raise ValueError("matrix JSON rows must be arrays")
        rows.append([_entry_to_complex(x) for x in row])
    m = np.asarray(rows, dtype=complex)
    if m.ndim != 2 or (shape is not None and m.shape != shape):
        want = f"{shape[0]}x{shape[1]}" if shape else "2-d"
        raise ValueError(f"expected a {want} matrix, got shape {m.shape}")
    return m


def load_matrix(path: str, shape: "tuple[int, int] | None" = (4, 4)) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fp:
        return matrix_from_obj(json.load(fp), shape)


def save_matrix(m: np.ndarray, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(matrix_to_obj(m), fp, indent=2)
        fp.write("\n")


def _letter_to_obj(g: LocalGate) -> dict:
    return {
        "theta": float(g.theta),
        "phi": float(g.phi),
        "phiz": float(g.phiz),
        "sign": int(g.sign),
    }


def _letter_from_obj(obj: dict) -> LocalGate:
    return LocalGate(
        theta=float(obj["theta"]),
        phi=float(obj["phi"]),
        phiz=float(obj["phiz"]),
        sign=int(obj.get("sign", 1)),
    )


def circuit_to_obj(params: CircuitParams) -> dict:
    cp = params.class_params
    return {
        "alpha": float(cp.alpha),
        "beta": float(cp.beta),
        "delta": float(cp.delta),
        "A": _letter_to_obj(params.a),
        "B": _letter_to_obj(params.b),
        "C": _letter_to_obj(params.c),
        "D": _letter_to_obj(params.d),
        "global_phase": [
            float(params.global_phase.real),
            float(params.global_phase.imag),
        ],
    }


def circuit_from_obj(obj: dict) -> CircuitParams:
    try:
        cp = ClassParams(float(obj["alpha"]), float(obj["beta"]), float(obj["delta"]))
        letters = {k: _letter_from_obj(obj[k.upper()]) for k in ("a", "b", "c", "d")}
        re, im = obj["global_phase"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed circuit JSON: {exc}") from None
    return CircuitParams(
        class_params=cp, global_phase=complex(float(re), float(im)), **letters
    )


def record_to_obj(rec: MeasurementRecord) -> dict:
    counts = [
        int(c) if float(c).is_integer() else float(c) for c in rec.counts
    ]
    return {"setting": list(rec.setting), "counts": counts, "shots": int(rec.shots)}


def record_from_obj(obj: dict) -> MeasurementRecord:
    try:
        setting = tuple(str(s) for s in obj["setting"])
        counts = tuple(
            int(c) if float(c).is_integer() else float(c) for c in obj["counts"]
        )
        shots = int(obj["shots"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed measurement record: {exc}") from None
    if len(setting) != 2 or len(counts) != 4:
        raise ValueError("measurement record needs 2 setting axes and 4 counts")
    if any(axis not in ("Z", "X", "Y") for axis in setting):
        raise ValueError(f"unknown measurement axes {setting}")
    return MeasurementRecord(setting=(setting[0], setting[1]), counts=counts, shots=shots)


def dump_json(obj: Any, path: "str | None") -> str:
    """Serialize with a stable layout; write to path unless it is None."""
    text = json.dumps(obj, indent=2, sort_keys=True)
    if path is not None:
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(text)
            fp.write("\n")
    return text


def records_to_obj(records: Sequence[MeasurementRecord]) -> list:
    return [record_to_obj(r) for r in records]


def records_from_obj(obj: Sequence[dict]) -> list:
    return [record_from_obj(r) for r in obj]

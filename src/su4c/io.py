"""JSON for the CLI: matrices in and out, compiled circuits and reports
out, the finite-number check on every number read from a JSON file, and
the content hash embedded in reports.

Complex numbers are stored as [re, im] pairs; matrix files may also use
bare numbers for real entries. Floats go through Python's shortest
round-trip repr, so save_matrix -> matrix_from_obj reproduces arrays bit
for bit.
"""

from __future__ import annotations

import hashlib
import json
import sys
from typing import Any

import numpy as np

from .circuits import CircuitParams, LocalGate

__all__ = [
    "content_hash",
    "matrix_to_obj",
    "matrix_from_obj",
    "save_matrix",
    "circuit_to_obj",
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


def _is_finite_number(x: Any) -> bool:
    """Whether a value read from JSON is a finite number."""
    # bool is an int in Python, but JSON true/false is not a number; the
    # comparison is false for NaN and infinities, and exact for integers
    # beyond the float range
    return (
        isinstance(x, (int, float))
        and not isinstance(x, bool)
        and abs(x) <= sys.float_info.max
    )


def _entry_to_complex(x: Any) -> complex:
    parts = x if isinstance(x, (list, tuple)) and len(x) == 2 else (x, 0)
    if not all(_is_finite_number(p) for p in parts):
        raise ValueError(
            f"matrix entry {x!r} is neither a finite number nor an [re, im] pair of them"
        )
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
        if any(isinstance(x, (list, tuple)) and any(isinstance(p, (list, tuple)) for p in x) for x in row):
            raise ValueError("matrix JSON nests arrays too deep for one matrix: it reads as an array of matrices")
        rows.append([_entry_to_complex(x) for x in row])
    if len({len(row) for row in rows}) > 1:
        raise ValueError(f"matrix JSON rows differ in length: {[len(row) for row in rows]}")
    m = np.asarray(rows, dtype=complex)
    if shape is not None and m.shape != shape:
        raise ValueError(f"expected a {shape[0]}x{shape[1]} matrix, got shape {m.shape}")
    return m


def save_matrix(m: np.ndarray, path: str) -> None:
    dump_json(matrix_to_obj(m), path)


def _letter_to_obj(g: LocalGate) -> dict:
    return {
        "theta": float(g.theta),
        "phi": float(g.phi),
        "phiz": float(g.phiz),
        "sign": int(g.sign),
    }


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


def dump_json(obj: Any, path: "str | None") -> str:
    """Serialize with a stable layout; write to path unless it is None."""
    text = json.dumps(obj, indent=2, sort_keys=True)
    if path is not None:
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(text)
            fp.write("\n")
    return text

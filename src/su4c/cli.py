"""Command line interface.

Subcommands
  compile       matrix JSON -> compiled circuit JSON (letters + class
                parameters + global phase), verified against the input
  sample        reproducible batch of Haar-random SU(4) matrices
  benchmark     compile/execute/reconstruct cycle over a batch of random
                operations, reporting per-operation state fidelities
  process-tomo  full process tomography of one operation, reporting
                entanglement fidelity and mean state fidelity

Exit codes: 0 success, 2 bad arguments, unreadable input or an unwritable
output path, 3 input matrix not unitary within the input tolerance, 4 compiled
circuit failed verification.

Every command is deterministic for a fixed --seed. Reports embed the seed,
a content hash of the inputs, and the tolerance configuration. The
SU4C_TOLERANCE environment variable overrides the default verification
threshold; --tolerance overrides both.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict
from functools import partial

import numpy as np

from .circuits import lower_to_pulses
from .compiler import decompose, verify
from .config import DEFAULT_TOL, Tolerances, _with_verify_distance, tolerances_from_env
from .experiment import (
    CALIBRATED_NOISE,
    TOMOGRAPHY_INPUT_LABELS,
    NoiseModel,
    _block_layout,
    exact_experiment,
    input_state,
    run_experiments,
)
from .haar import SeededRng, sample_su4
from .io import (
    _is_finite_number,
    circuit_to_obj,
    content_hash,
    dump_json,
    matrix_from_obj,
    matrix_to_obj,
    save_matrix,
)
from .linalg import is_unitary, nearest_unitary
from .tomography import (
    entanglement_fidelity,
    mean_fidelity_from_entanglement,
    mean_state_fidelity,
    process_matrix_of_unitary,
    reconstruct_process,
    reconstruct_state,
    state_fidelity,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NOT_UNITARY = 3
EXIT_VERIFY = 4


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _resolve_tolerances(args) -> Tolerances:
    tol = tolerances_from_env(DEFAULT_TOL)
    if getattr(args, "tolerance", None) is not None:
        tol = _with_verify_distance(tol, args.tolerance, "--tolerance")
    return tol


def _resolve_noise(source: str) -> tuple[NoiseModel, dict]:
    """Noise model plus a source entry for the report."""
    if source == "zero":
        return NoiseModel(), {"source": "zero"}
    if source == "calibrated":
        return CALIBRATED_NOISE, {"source": "calibrated"}
    with open(source, "rb") as fp:
        raw = fp.read()
    obj = json.loads(raw.decode("utf-8"))
    if not isinstance(obj, dict):
        raise ValueError("noise JSON must be an object")
    allowed = {"overrotation_sigma", "depolarizing_per_g", "damping_per_circuit"}
    unknown = set(obj) - allowed
    if unknown:
        raise ValueError(f"unknown noise fields {sorted(unknown)}")
    for k, v in obj.items():
        if not _is_finite_number(v):
            raise ValueError(f"noise field {k!r} is {v!r}, not a finite number")
    model = NoiseModel(**{k: float(v) for k, v in obj.items()})
    return model, {"source": "file", "hash": content_hash(raw)}


def _write_outputs(report: dict, out: "str | None", *files) -> int:
    """Print the report, or write it to out, then write each (path, write)
    of files whose path is set; exit 2 naming a path that cannot be written."""
    path = out
    try:
        text = dump_json(report, out)
        if out is None:
            print(text)
        for path, write in files:
            if path is not None:
                write(path)
    except OSError as exc:
        where = "stdout" if path is None else path
        return _fail(EXIT_PARSE, f"cannot write {where}: {exc.strerror or exc}")
    return EXIT_OK


def _write_csv(operations: list, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fp:
        writer = csv.writer(fp)
        writer.writerow(["index", "qubit0_state", "qubit1_state", "fidelity"])
        writer.writerows(
            [op["index"], *op["input_state"], repr(op["fidelity"])] for op in operations
        )


def _pulse_obj(pulse) -> dict:
    out = {"kind": pulse.kind, "target": pulse.target}
    if pulse.kind == "R":
        out["theta"] = pulse.theta
        out["phi"] = pulse.phi
    elif pulse.kind == "Rz":
        out["phiz"] = pulse.phiz
    return out


def _load_matrix(path: str, tol: Tolerances):
    """Read and gate a user matrix; returns (matrix as read, hash), the
    matrix None when it is not unitary within the input tolerance."""
    with open(path, "rb") as fp:
        raw = fp.read()
    try:
        obj = json.loads(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot parse {path}: {exc}") from None
    m = matrix_from_obj(obj, (4, 4))
    return (m if is_unitary(m, tol.input_unitarity) else None), content_hash(raw)


def _not_unitary(tol: Tolerances) -> int:
    return _fail(EXIT_NOT_UNITARY, f"input matrix is not unitary within {tol.input_unitarity:g}")


def _compile(m, tol: Tolerances):
    """Circuit of the nearest unitary of a gated matrix: the one compilation
    each operation gets."""
    return decompose(nearest_unitary(m), tol)


def _cmd_compile(args) -> int:
    try:
        tol = _resolve_tolerances(args)
        m, input_hash = _load_matrix(args.matrix, tol)
    except (OSError, ValueError) as exc:
        return _fail(EXIT_PARSE, str(exc))
    if m is None:
        return _not_unitary(tol)
    params = _compile(m, tol)
    # against the file's matrix, so a rounded input reports how far it is
    # from the compiled circuit
    report = verify(m, params, tol)
    out = {
        "command": "compile",
        "input_hash": input_hash,
        "tolerances": asdict(tol),
        "circuit": circuit_to_obj(params),
        "verify": {
            "distance": report.distance,
            "invariant_error": report.invariant_error,
            "passed": report.passed,
        },
    }
    if args.pulses:
        out["pulses"] = [_pulse_obj(p) for p in lower_to_pulses(params)]
    code = _write_outputs(out, args.out)
    if code != EXIT_OK:
        return code
    if not report.passed:
        return _fail(
            EXIT_VERIFY,
            f"verification failed: distance {report.distance:.3e} "
            f"exceeds {tol.verify_distance:g}",
        )
    return EXIT_OK


def _cmd_sample(args) -> int:
    rng = SeededRng(args.seed)
    matrices = [matrix_to_obj(sample_su4(rng)) for _ in range(args.n)]
    return _write_outputs(matrices, args.out)


def _run_all(programs, labels, noise, args, rngs):
    """The records of each program run on its label, as the arguments ask."""
    if args.exact_probabilities:
        return [exact_experiment(p, label) for p, label in zip(programs, labels)]
    return run_experiments(programs, labels, noise, args.shots, rngs)


def _cmd_benchmark(args) -> int:
    try:
        tol = _resolve_tolerances(args)
        noise, noise_meta = _resolve_noise(args.noise)
    except (OSError, ValueError) as exc:
        return _fail(EXIT_PARSE, str(exc))
    if args.exact_probabilities and not noise.is_zero:
        return _fail(EXIT_PARSE, "--exact-probabilities requires zero noise")

    header = {
        "command": "benchmark",
        "seed": args.seed,
        "n": args.n,
        "shots": args.shots,
        "method": args.method,
        "exact_probabilities": args.exact_probabilities,
        "noise": asdict(noise),
        "noise_meta": noise_meta,
    }
    input_hash = content_hash(json.dumps(header, sort_keys=True))

    streams = SeededRng(args.seed).spawn(args.n + 1)
    # random assignment under the equal-usage constraint: every preparation
    # appears exactly n/16 times, in a seed-determined order
    labels = [
        label
        for _ in range(args.n // len(TOMOGRAPHY_INPUT_LABELS))
        for label in TOMOGRAPHY_INPUT_LABELS
    ]
    order = streams[-1].generator.permutation(args.n)
    operations = []
    fidelities = []
    # draw, compile, run and reconstruct one executor block at a time, so
    # memory stays bounded in n; each operation keeps its own stream
    per_block = _block_layout(args.shots)[1]
    for first in range(0, args.n, per_block):
        block = range(first, min(first + per_block, args.n))
        block_labels = [labels[order[index]] for index in block]
        us = [sample_su4(streams[index], tol) for index in block]
        programs = [lower_to_pulses(_compile(u, tol)) for u in us]
        results = _run_all(programs, block_labels, noise, args, streams[first:block.stop])
        for index, u, label, records in zip(block, us, block_labels, results):
            est = reconstruct_state(records, args.method, tol)
            psi = u @ input_state(label)
            ideal = np.outer(psi, psi.conj())
            f = state_fidelity(est, ideal)
            fidelities.append(f)
            operations.append(
                {"index": index, "input_state": list(label), "fidelity": f}
            )

    arr = np.asarray(fidelities)
    out = dict(header)
    out.update(
        {
            "input_hash": input_hash,
            "tolerances": asdict(tol),
            "operations": operations,
            "mean_fidelity": float(arr.mean()),
            "std_fidelity": float(arr.std()),
            "min_fidelity": float(arr.min()),
            "max_fidelity": float(arr.max()),
        }
    )
    return _write_outputs(out, args.out, (args.csv, partial(_write_csv, operations)))


def _cmd_process_tomo(args) -> int:
    try:
        tol = _resolve_tolerances(args)
        noise, noise_meta = _resolve_noise(args.noise)
        m, input_hash = _load_matrix(args.unitary, tol)
    except (OSError, ValueError) as exc:
        return _fail(EXIT_PARSE, str(exc))
    if m is None:
        return _not_unitary(tol)
    u = nearest_unitary(m)
    if args.exact_probabilities and not noise.is_zero:
        return _fail(EXIT_PARSE, "--exact-probabilities requires zero noise")

    # one program for all 16 preparations, compiled from u as benchmark
    # compiles its draws
    pulses = lower_to_pulses(_compile(u, tol))
    labels = TOMOGRAPHY_INPUT_LABELS
    streams = SeededRng(args.seed).spawn(len(labels))
    results = _run_all([pulses] * len(labels), labels, noise, args, streams)
    pairs = [
        (label, reconstruct_state(records, args.method, tol))
        for label, records in zip(labels, results)
    ]
    est = reconstruct_process(pairs, cp_projection=not args.no_cp_projection, tol=tol)
    ideal = process_matrix_of_unitary(u)
    f_ent = entanglement_fidelity(est, ideal)
    out = {
        "command": "process-tomo",
        "seed": args.seed,
        "shots": args.shots,
        "method": args.method,
        "exact_probabilities": args.exact_probabilities,
        "noise": asdict(noise),
        "noise_meta": noise_meta,
        "input_hash": input_hash,
        "tolerances": asdict(tol),
        "entanglement_fidelity": f_ent,
        "mean_state_fidelity": mean_state_fidelity(est, ideal),
        "mean_fidelity_from_entanglement": mean_fidelity_from_entanglement(f_ent),
    }
    return _write_outputs(out, args.out, (args.process_out, partial(save_matrix, est)))


def _add_common(parser, shots_default: int) -> None:
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument(
        "--shots", type=int, default=shots_default,
        help="shots per measurement setting",
    )
    parser.add_argument(
        "--noise", default="zero",
        help="'zero', 'calibrated', or a path to a noise JSON file",
    )
    parser.add_argument(
        "--method", choices=("linear", "mle"), default="linear",
        help="state reconstruction method",
    )
    parser.add_argument(
        "--exact-probabilities", action="store_true",
        help="skip sampling and feed exact Born probabilities (zero noise only)",
    )
    parser.add_argument("--tolerance", type=float, default=None,
                        help="verification distance threshold")
    parser.add_argument("--out", default=None, help="write report JSON here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="su4c",
        description="two-qubit gate compiler and verification toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="decompose a 4x4 unitary")
    p.add_argument("matrix", help="path to the matrix JSON file")
    p.add_argument("--pulses", action="store_true",
                   help="include the lowered pulse sequence")
    p.add_argument("--tolerance", type=float, default=None,
                   help="verification distance threshold")
    p.add_argument("--out", default=None, help="write report JSON here")
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("sample", help="Haar-random SU(4) batch")
    p.add_argument("--n", type=int, default=1, help="number of samples")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.add_argument("--out", default=None, help="write the JSON array here")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser(
        "benchmark",
        help="fidelity benchmark over random operations",
    )
    p.add_argument("--n", type=int, default=160,
                   help="number of operations (multiple of 16)")
    _add_common(p, shots_default=100)
    p.add_argument("--csv", default=None,
                   help="also write per-operation fidelities as CSV")
    p.set_defaults(func=_cmd_benchmark)

    p = sub.add_parser("process-tomo", help="process tomography of one unitary")
    p.add_argument("--unitary", required=True, help="path to the matrix JSON file")
    _add_common(p, shots_default=1000)
    p.add_argument("--no-cp-projection", action="store_true",
                   help="skip the positivity projection of the process matrix")
    p.add_argument("--process-out", default=None,
                   help="write the reconstructed process matrix here")
    p.set_defaults(func=_cmd_process_tomo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "benchmark":
        if args.n <= 0 or args.n % 16 != 0:
            parser.error("--n must be a positive multiple of 16")
        if args.shots <= 0:
            parser.error("--shots must be positive")
    if args.command == "process-tomo" and args.shots <= 0:
        parser.error("--shots must be positive")
    if args.command == "sample" and args.n <= 0:
        parser.error("--n must be positive")
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

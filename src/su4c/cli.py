"""Command line interface.

Subcommands
  compile       matrix JSON -> compiled circuit JSON (letters + class
                parameters + global phase), verified against the input
  sample        reproducible batch of Haar-random SU(4) matrices
  benchmark     compile/execute/reconstruct cycle over a batch of random
                operations, reporting per-operation state fidelities
  process-tomo  full process tomography of one operation, reporting
                entanglement fidelity and mean state fidelity

Exit codes: 0 success, 2 bad arguments (a --shots outside 1..2**63 - 1, the
counts the multinomial sampler draws, included), unreadable input or an
unwritable output path, 3 input matrix not unitary within the input
tolerance, 4 compiled circuit failed verification.

Every command is deterministic for a fixed --seed. Reports embed the seed,
a content hash of the inputs, and the tolerance configuration; with
--exact-probabilities no shot is drawn, so shots is null, and so is
process-tomo's seed, as it reads no stream. The
verification threshold applies to compile: the SU4C_TOLERANCE environment
variable overrides its default, and compile --tolerance overrides both.
benchmark and process-tomo run with the default tolerances; with --method
mle they warn on stderr, and still exit 0, when an estimate stops at
mle_max_iter without its certificate.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict
from functools import cache, partial

import numpy as np

from .circuits import _pulse_angles, _pulses
from .compiler import _circuit_params, _decompose_arrays, verify
from .config import DEFAULT_TOL, _with_verify_distance, tolerances_from_env
from .experiment import (
    CALIBRATED_NOISE,
    TOMOGRAPHY_INPUT_LABELS,
    NoiseModel,
    _PREPARED_VECTORS,
    _outcome_probabilities,
    _sample_counts,
    _shot_count,
)
from .haar import SeededRng, _sample_su4_many
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
    _estimate_states,
    _mean_pure_state_fidelity,
    _mle_estimates,
    _pure_state_fidelities,
    entanglement_fidelity,
    mean_fidelity_from_entanglement,
    mean_state_fidelity,
    process_matrix_of_unitary,
    reconstruct_process,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NOT_UNITARY = 3
EXIT_VERIFY = 4

# benchmark operations drawn, compiled, run and reconstructed per stacked
# call: a multiple of the 16 preparations, so the paper's 160 operations are
# one stack and a larger --n streams in stacks of this size, whose
# temporaries peak near 4.2 KiB per operation (16.8 KiB with --method mle;
# tracemalloc's peak over a second in-process run of --n 256)
_CHUNK = 256


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _resolve_noise(source: str) -> tuple[NoiseModel, dict]:
    """Noise model plus a source entry for the report."""
    if source == "zero":
        return NoiseModel(), {"source": "zero"}
    if source == "calibrated":
        return CALIBRATED_NOISE, {"source": "calibrated"}
    obj, input_hash = _read_json(source)
    try:
        if not isinstance(obj, dict):
            raise ValueError("noise JSON must be an object")
        unknown = set(obj) - {"overrotation_sigma", "depolarizing_per_g", "damping_per_circuit"}
        if unknown:
            raise ValueError(f"unknown noise fields {sorted(unknown)}")
        for k, v in obj.items():
            if not _is_finite_number(v):
                raise ValueError(f"noise field {k!r} is {v!r}, not a finite number")
        model = NoiseModel(**{k: float(v) for k, v in obj.items()})
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None
    return model, {"source": "file", "hash": input_hash}


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
    names = {"R": ("theta", "phi"), "Rz": ("phiz",), "G": ()}[pulse.kind]
    return {"kind": pulse.kind, "target": pulse.target, **{name: getattr(pulse, name) for name in names}}


def _read_json(path: str) -> tuple[object, str]:
    """The JSON value of a user file and the content hash of its bytes;
    ValueError naming the path when the file is not UTF-8 JSON."""
    with open(path, "rb") as fp:
        raw = fp.read()
    try:
        obj = json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError alike
        raise ValueError(f"cannot parse {path}: {exc}") from None
    return obj, content_hash(raw)


def _load_matrix(path: str):
    """Read and gate a user matrix; returns (matrix as read, hash), the
    matrix None when it is not unitary within the input tolerance."""
    obj, input_hash = _read_json(path)
    m = matrix_from_obj(obj, (4, 4))
    return (m if is_unitary(m, DEFAULT_TOL.input_unitarity) else None), input_hash


def _not_unitary() -> int:
    return _fail(EXIT_NOT_UNITARY, f"input matrix is not unitary within {DEFAULT_TOL.input_unitarity:g}")


def _cmd_compile(args) -> int:
    try:
        tol = tolerances_from_env()
        if args.tolerance is not None:
            tol = _with_verify_distance(args.tolerance, "--tolerance")
        m, input_hash = _load_matrix(args.matrix)
    except (OSError, ValueError) as exc:
        return _fail(EXIT_PARSE, str(exc))
    if m is None:
        return _not_unitary()
    # a file's matrix may be rounded, so compile its nearest unitary, kept
    # as arrays for the pulse program
    classes, letters, phases = _decompose_arrays(nearest_unitary(m)[None])
    params = _circuit_params(classes, letters, phases)[0]
    # against the file's matrix, so a rounded input reports how far it is
    # from the compiled circuit
    report = verify(m, params, tol.verify_distance)
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
        out["pulses"] = [_pulse_obj(p) for p in _pulses(_pulse_angles(classes, letters)[0])]
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
    matrices = [matrix_to_obj(u) for u in _sample_su4_many(SeededRng(args.seed), args.n)]
    return _write_outputs(matrices, args.out)


def _prepare_run(args) -> tuple[NoiseModel, dict]:
    """Noise model of a benchmark or process-tomo run, and the report keys
    of its arguments that both commands write; an exact run draws no shot,
    so its shots is None."""
    noise, noise_meta = _resolve_noise(args.noise)
    keys = {name: getattr(args, name) for name in ("seed", "shots", "method", "exact_probabilities")}
    if args.exact_probabilities:
        keys["shots"] = None
    return noise, {**keys, "noise": asdict(noise), "noise_meta": noise_meta}


def _compile(us: np.ndarray) -> np.ndarray:
    """The pulse angle table (N, 32) of a non-empty complex (N, 4, 4) stack
    of unitaries that the package built, kept as arrays from the compiler to
    the pulse template; the stack is not checked again."""
    classes, letters, _ = _decompose_arrays(us)
    return _pulse_angles(classes, letters)


def _estimates(angles, prepared, rng, noise, args, name) -> np.ndarray:
    """Reconstructed output states (N, 4, 4) of each program run on its
    preparation row under noise, from counts drawn from rng in program order
    or from the exact outcome probabilities, as the arguments ask. An MLE
    estimate that stopped at mle_max_iter uncertified is named, by
    name(row), in a warning on stderr."""
    if args.exact_probabilities:
        counts = _outcome_probabilities(angles, prepared, noise)
    else:
        counts = _sample_counts(angles, prepared, noise, args.shots, rng)
    if args.method == "linear":
        return _estimate_states(counts, "linear")
    fit = _mle_estimates(counts)
    late = np.flatnonzero(fit.certificates > DEFAULT_TOL.mle_stop)
    if late.size:
        print(
            f"warning: {late.size} MLE estimate(s) stopped uncertified at mle_max_iter "
            f"{DEFAULT_TOL.mle_max_iter}, largest lambda_max(R) - 1 "
            f"{fit.certificates[late].max():.3e} > mle_stop {DEFAULT_TOL.mle_stop:g}: "
            + ", ".join(name(k) for k in late),
            file=sys.stderr,
        )
    return fit.states


def _cmd_benchmark(args) -> int:
    try:
        noise, keys = _prepare_run(args)
    except (OSError, ValueError) as exc:
        return _fail(EXIT_PARSE, str(exc))

    header = {"command": "benchmark", "n": args.n, **keys}
    input_hash = content_hash(json.dumps(header, sort_keys=True))

    # one stream per purpose, each read in operation order: the seed's own
    # stream draws the unitaries, so operation i's is entry i of `sample
    # --seed`; child 0 assigns the preparations under the equal-usage
    # constraint, operation i getting preparation order[i] % 16 of a random
    # permutation order of range(n), so each appears exactly n/16 times;
    # child 1 draws the counts
    unitary_rng = SeededRng(args.seed)
    preparation_rng, count_rng = unitary_rng.spawn(2)
    preparations = preparation_rng.generator.permutation(args.n) % len(TOMOGRAPHY_INPUT_LABELS)
    operations = []
    # draw, compile, run and reconstruct _CHUNK operations at a time, each
    # stage as one stacked call, so memory stays bounded in n; numpy fills
    # each stacked draw row by row, so the chunk size sets no byte
    for first in range(0, args.n, _CHUNK):
        chunk = range(first, min(first + _CHUNK, args.n))
        kinds = preparations[first : chunk.stop]
        us = _sample_su4_many(unitary_rng, len(chunk))
        angles = _compile(us)
        ests = _estimates(angles, kinds, count_rng, noise, args, lambda k: f"operation {chunk[k]}")
        # the ideal outputs are pure: U applied to each preparation
        psis = (us @ _PREPARED_VECTORS[kinds, :, None])[..., 0]
        for index, k, f in zip(chunk, kinds, _pure_state_fidelities(ests, psis)):
            label = list(TOMOGRAPHY_INPUT_LABELS[k])
            operations.append({"index": index, "input_state": label, "fidelity": f})

    arr = np.array([op["fidelity"] for op in operations])
    out = {
        **header,
        "input_hash": input_hash,
        "tolerances": asdict(DEFAULT_TOL),
        "operations": operations,
        "mean_fidelity": float(arr.mean()),
        "std_fidelity": float(arr.std()),
        "min_fidelity": float(arr.min()),
        "max_fidelity": float(arr.max()),
    }
    return _write_outputs(out, args.out, (args.csv, partial(_write_csv, operations)))


def _cmd_process_tomo(args) -> int:
    try:
        noise, keys = _prepare_run(args)
        m, input_hash = _load_matrix(args.unitary)
    except (OSError, ValueError) as exc:
        return _fail(EXIT_PARSE, str(exc))
    if m is None:
        return _not_unitary()
    if args.exact_probabilities:
        keys["seed"] = None  # no stream is read
    u = nearest_unitary(m)
    # one program for all 16 preparations, whose counts are one draw
    angles = _compile(u[None])
    labels = TOMOGRAPHY_INPUT_LABELS
    ests = _estimates(
        angles.repeat(len(labels), axis=0), np.arange(len(labels)), SeededRng(args.seed), noise, args,
        lambda k: "preparation {},{}".format(*labels[k]),
    )
    cp_projection = not args.no_cp_projection
    est = reconstruct_process(ests, cp_projection=cp_projection)
    ideal = process_matrix_of_unitary(u)
    f_ent = entanglement_fidelity(est, ideal)
    # the ideal outputs U|probe> are pure, so a completely positive estimate
    # is scored in closed form; without the CP projection a probe output
    # need not be a state, and the Uhlmann score, which clips it, is kept
    if cp_projection:
        probes = _mean_pure_state_fidelity(est, u)
    else:
        probes = mean_state_fidelity(est, ideal)
    out = {
        "command": "process-tomo",
        **keys,
        "cp_projection": cp_projection,
        "input_hash": input_hash,
        "tolerances": asdict(DEFAULT_TOL),
        "entanglement_fidelity": f_ent,
        "mean_state_fidelity": probes,
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
        help="skip sampling and feed the exact outcome probabilities under --noise",
    )
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


@cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), built once per process."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command == "benchmark" and (args.n <= 0 or args.n % 16 != 0):
        parser.error("--n must be a positive multiple of 16")
    if args.command == "sample" and args.n <= 0:
        parser.error("--n must be positive")
    if hasattr(args, "shots"):
        try:
            _shot_count(args.shots, "--shots")
        except ValueError as exc:
            parser.error(str(exc))
    if getattr(args, "seed", 0) < 0:
        parser.error("--seed must be non-negative")
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

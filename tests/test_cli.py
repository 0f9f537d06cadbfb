"""Command-line interface, exercised in process through main(argv)."""

import csv
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy_build import numpy_build
from oracles import apply_channel
from programs import program

from su4c import circuits, cli, compiler, experiment, gates, haar, tomography
from su4c.cli import EXIT_NOT_UNITARY, EXIT_OK, EXIT_PARSE, EXIT_VERIFY, main
from su4c.compiler import decompose, verify
from su4c.config import DEFAULT_TOL, ENV_TOLERANCE
from su4c.experiment import NoiseModel
from su4c.gates import GateElement
from su4c.haar import SeededRng, sample_su4
from su4c.io import dump_json, matrix_from_obj, matrix_to_obj, save_matrix
from su4c.linalg import nearest_unitary


# A noise model whose channel draws nothing: depolarizing and damping only.
NO_SIGMA_NOISE = {"overrotation_sigma": 0.0, "depolarizing_per_g": 0.07, "damping_per_circuit": 0.05}


@pytest.fixture
def unitary_file(tmp_path):
    path = tmp_path / "u.json"
    save_matrix(sample_su4(SeededRng(541)), str(path))
    return str(path)


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv(ENV_TOLERANCE, raising=False)


def count_calls(monkeypatch, original) -> list:
    """Replace original under every name a su4c module, or the module that
    exports it (numpy.linalg for np.linalg.lstsq), holds it by with a
    wrapper that records each call; returns the list of recorded args."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "su4c" or name.startswith("su4c.") or name == original.__module__:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counting)
    return calls


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Matrix files whose entries are not finite numbers, with the entry the
# error must name. JSON true/false parse to bool, an int in Python; NaN and
# Infinity are tokens Python's json module accepts.
BAD_ENTRY_FILES = {
    "bool": (
        "[[true,false,false,false],[false,true,false,false],"
        "[false,false,true,false],[false,false,false,true]]",
        "True",
    ),
    "infinity": ("[[Infinity,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]]", "inf"),
    "nan": ("[[1,0,0,0],[0,1,0,0],[0,0,[1,NaN],0],[0,0,0,1]]", "[1, nan]"),
}


class TestCompile:
    def test_success(self, capsys, unitary_file):
        code, out, _ = run_cli(capsys, "compile", unitary_file)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["command"] == "compile"
        assert doc["verify"]["passed"] is True
        assert doc["verify"]["distance"] < 1e-9
        assert set(doc["circuit"]) == {
            "alpha", "beta", "delta", "A", "B", "C", "D", "global_phase",
        }
        assert len(doc["input_hash"]) == 40

    def test_pulse_listing(self, capsys, unitary_file):
        code, out, _ = run_cli(capsys, "compile", unitary_file, "--pulses")
        assert code == EXIT_OK
        pulses = json.loads(out)["pulses"]
        assert len(pulses) == 35
        kinds = [p["kind"] for p in pulses]
        assert kinds.count("G") == 3
        assert kinds.count("R") == 16
        for p in pulses:
            if p["kind"] == "R":
                assert p["theta"] == pytest.approx(np.pi / 2.0)

    def test_pulses_are_the_lowered_circuit(self, capsys, tmp_path):
        # compile lowers the arrays its decomposition returned; the object
        # path rebuilds each letter from its angles, so the two agree to
        # rounding, modulo 2 pi
        rng = SeededRng(547)
        for k in range(20):
            u = sample_su4(rng)
            path = tmp_path / f"u{k}.json"
            save_matrix(u, str(path))
            code, out, _ = run_cli(capsys, "compile", str(path), "--pulses")
            assert code == EXIT_OK
            got = [p.get("phi", p.get("phiz")) for p in json.loads(out)["pulses"] if p["kind"] != "G"]
            lowered = circuits.lower_to_pulses(decompose(nearest_unitary(u)))
            want = [p.phi if p.kind == "R" else p.phiz for p in lowered if p.kind != "G"]
            assert np.abs(np.remainder(np.array(got) - want + np.pi, 2 * np.pi) - np.pi).max() < 1e-12

    def test_output_file(self, capsys, unitary_file, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "compile", unitary_file, "--out", str(out_path))
        assert code == EXIT_OK
        assert out == ""  # quiet when writing to a file
        doc = json.loads(out_path.read_text())
        assert doc["verify"]["passed"] is True

    def test_non_unitary_input(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(matrix_to_obj(np.ones((4, 4), dtype=complex))))
        code, _, err = run_cli(capsys, "compile", str(path))
        assert code == EXIT_NOT_UNITARY
        assert "not unitary" in err

    def test_unparseable_input(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{this is not json")
        code, _, err = run_cli(capsys, "compile", str(path))
        assert code == EXIT_PARSE

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "compile", str(tmp_path / "nope.json"))
        assert code == EXIT_PARSE

    @pytest.mark.parametrize("case", sorted(BAD_ENTRY_FILES))
    def test_non_finite_entry_rejected(self, capsys, tmp_path, case):
        text, entry = BAD_ENTRY_FILES[case]
        path = tmp_path / "m.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "compile", str(path))
        assert code == EXIT_PARSE
        assert out == ""
        assert f"matrix entry {entry} " in err

    @pytest.mark.parametrize("command", ["compile", "process-tomo"])
    def test_array_of_matrices_named(self, capsys, tmp_path, command):
        # `su4c sample` writes an array of matrices, even of one
        path = tmp_path / "m.json"
        assert run_cli(capsys, "sample", "--n", "1", "--out", str(path))[0] == EXIT_OK
        argv = ["compile", str(path)] if command == "compile" else [command, "--unitary", str(path)]
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_PARSE and out == ""
        assert "array of matrices" in err
        assert "neither" not in err

    def test_ragged_rows_named(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("[[1,0,0,0],[0,1,0,0],[0,0,1],[0,0,0,1]]")
        code, out, err = run_cli(capsys, "compile", str(path))
        assert code == EXIT_PARSE and out == ""
        assert "rows differ in length: [4, 4, 3, 4]" in err
        assert "inhomogeneous" not in err

    def test_wrong_shape(self, capsys, tmp_path):
        path = tmp_path / "m2.json"
        path.write_text(json.dumps([[1, 0], [0, 1]]))
        code, _, _ = run_cli(capsys, "compile", str(path))
        assert code == EXIT_PARSE

    def test_env_tolerance_can_fail_verification(self, capsys, unitary_file, monkeypatch):
        # machine-precision distance still exceeds an absurdly tight bar
        monkeypatch.setenv(ENV_TOLERANCE, "1e-300")
        code, out, err = run_cli(capsys, "compile", unitary_file)
        assert code == EXIT_VERIFY
        doc = json.loads(out)  # report still written before the failure exit
        assert doc["verify"]["passed"] is False

    def test_flag_overrides_env(self, capsys, unitary_file, monkeypatch):
        monkeypatch.setenv(ENV_TOLERANCE, "1e-300")
        code, _, _ = run_cli(capsys, "compile", unitary_file, "--tolerance", "1e-6")
        assert code == EXIT_OK

    @pytest.mark.parametrize("route", ["flag", "env"])
    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_bad_tolerance_rejected(self, capsys, unitary_file, monkeypatch, route, value):
        argv = ["compile", unitary_file]
        if route == "flag":
            argv += ["--tolerance", value]
        else:
            monkeypatch.setenv(ENV_TOLERANCE, value)
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_PARSE
        assert out == ""
        assert "finite and positive" in err

    @pytest.mark.parametrize("case", sorted(BAD_ENTRY_FILES))
    def test_non_finite_entry_rejected(self, capsys, tmp_path, case):
        text, entry = BAD_ENTRY_FILES[case]
        path = tmp_path / "m.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "process-tomo", "--unitary", str(path))
        assert code == EXIT_PARSE
        assert out == ""
        assert f"matrix entry {entry} " in err

    def test_printed_precision_accepted(self, capsys, tmp_path):
        rounded = np.round(sample_su4(SeededRng(547)), 3)
        path = tmp_path / "r.json"
        save_matrix(rounded, str(path))
        code, out, _ = run_cli(
            capsys, "compile", str(path), "--tolerance", "5e-3"
        )
        assert code == EXIT_OK
        assert json.loads(out)["verify"]["distance"] < 5e-3

    def test_distance_is_to_the_matrix_as_read(self, capsys, tmp_path):
        # the circuit is compiled from the nearest unitary, but the reported
        # distance is to the rounded matrix in the file
        path = tmp_path / "r.json"
        save_matrix(np.round(sample_su4(SeededRng(9)), 3), str(path))
        raw = matrix_from_obj(json.loads(path.read_text()), (4, 4))
        expected = verify(raw, decompose(nearest_unitary(raw))).distance
        code, out, err = run_cli(capsys, "compile", str(path))
        assert code == EXIT_VERIFY
        assert "verification failed" in err
        doc = json.loads(out)  # report still written before the failure exit
        assert doc["verify"]["distance"] == expected
        assert doc["verify"]["distance"] > 1e-6
        assert doc["verify"]["passed"] is False


class TestSample:
    def test_bare_array_output(self, capsys):
        code, out, _ = run_cli(capsys, "sample", "--n", "3", "--seed", "5")
        assert code == EXIT_OK
        arr = json.loads(out)
        assert len(arr) == 3
        for obj in arr:
            m = matrix_from_obj(obj, (4, 4))
            assert np.max(np.abs(m @ m.conj().T - np.eye(4))) < 1e-10

    def test_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, "sample", "--n", "2", "--seed", "9")
        _, out2, _ = run_cli(capsys, "sample", "--n", "2", "--seed", "9")
        assert out1 == out2

    def test_seed_changes_output(self, capsys):
        _, out1, _ = run_cli(capsys, "sample", "--n", "1", "--seed", "1")
        _, out2, _ = run_cli(capsys, "sample", "--n", "1", "--seed", "2")
        assert out1 != out2

    def test_rejects_nonpositive_n(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["sample", "--n", "0"])
        assert info.value.code == EXIT_PARSE

    def test_batch_is_successive_draws_of_one_stream(self, capsys):
        # entry i is the i-th sample_su4 draw of the seed's stream, the
        # stream benchmark draws its unitaries from, byte for byte
        code, out, _ = run_cli(capsys, "sample", "--n", "37", "--seed", "4")
        assert code == EXIT_OK
        rng = SeededRng(4)
        assert out == dump_json([matrix_to_obj(sample_su4(rng)) for _ in range(37)], None) + "\n"


class TestBenchmark:
    def test_small_noiseless_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "benchmark", "--n", "16", "--shots", "50", "--seed", "3"
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["n"] == 16
        assert len(doc["operations"]) == 16
        assert 0.0 < doc["mean_fidelity"] <= 1.0
        assert doc["min_fidelity"] <= doc["mean_fidelity"] <= doc["max_fidelity"]
        labels = [tuple(op["input_state"]) for op in doc["operations"]]
        assert len(set(labels)) == 16  # each preparation appears once per block

    def test_deterministic_report(self, capsys):
        args = ("benchmark", "--n", "16", "--shots", "25", "--seed", "11")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_exact_probabilities_recover_unity(self, capsys):
        code, out, _ = run_cli(
            capsys, "benchmark", "--n", "16", "--exact-probabilities"
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert abs(doc["mean_fidelity"] - 1.0) < 1e-9
        assert doc["std_fidelity"] < 1e-9

    def test_exact_report_writes_no_shots(self, capsys):
        # an exact run draws no shot, so --shots changes no byte; the seed
        # still draws the unitaries and the preparations
        runs = [
            run_cli(capsys, "benchmark", "--n", "16", "--exact-probabilities", "--noise", "calibrated", *argv)
            for argv in (("--shots", "5"), ("--shots", "5000"), ("--seed", "1"))
        ]
        assert runs[0] == runs[1]
        first, other = (json.loads(out) for _, out, _ in runs[1:])
        assert first["shots"] is None and first["seed"] == 0
        assert other["seed"] == 1 and other["operations"] != first["operations"]

    def test_paper_runs_land_in_the_paper_band(self, capsys):
        # the paper's 160-operation calibrated linear run at seeds 0 to 9:
        # every mean lies within 0.79 +- 0.015, the band the benchmark
        # checks each of its paper-size runs against (0.7805 to 0.7946)
        for seed in range(10):
            code, out, _ = run_cli(capsys, "benchmark", "--n", "160", "--seed", str(seed), "--noise", "calibrated")
            assert code == EXIT_OK
            assert abs(json.loads(out)["mean_fidelity"] - 0.79) <= 0.015, seed

    # a calibrated 100-shot run, exact runs without and with noise and a
    # calibrated MLE run, one operation per chunk and two chunks of 16,
    # against the default chunk, which holds all 32 operations
    @pytest.mark.parametrize(
        "argv",
        [
            ("--noise", "calibrated", "--seed", "2"),
            ("--exact-probabilities",),
            ("--exact-probabilities", "--noise", "calibrated"),
            ("--noise", "calibrated", "--shots", "100", "--method", "mle"),
        ],
    )
    def test_report_does_not_depend_on_chunk_size(self, capsys, monkeypatch, argv):
        args = ("benchmark", "--n", "32", *argv)
        _, expected, _ = run_cli(capsys, *args)
        for chunk in (1, 16):
            monkeypatch.setattr(cli, "_CHUNK", chunk)
            assert run_cli(capsys, *args) == (EXIT_OK, expected, "")

    def test_block_size_enforced(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["benchmark", "--n", "10"])
        assert info.value.code == EXIT_PARSE

    def test_noisy_exact_run_is_the_channel(self, capsys, tmp_path):
        # with no over-rotation the noise draws nothing, so each exact
        # fidelity is <U psi| E(|psi><psi|) |U psi> for the channel E that
        # apply_channel applies
        noise_path = tmp_path / "noise.json"
        noise_path.write_text(json.dumps(NO_SIGMA_NOISE))
        code, out, _ = run_cli(
            capsys, "benchmark", "--n", "16", "--seed", "5", "--exact-probabilities",
            "--method", "linear", "--noise", str(noise_path),
        )
        assert code == EXIT_OK
        operations = json.loads(out)["operations"]
        stream = SeededRng(5)  # U_i is the i-th draw of the seed's stream
        for op in operations:
            u = sample_su4(stream)
            psi = experiment.input_state(op["input_state"])
            rho = apply_channel(np.outer(psi, psi.conj()), program(u), NoiseModel(**NO_SIGMA_NOISE))
            assert abs(op["fidelity"] - np.vdot(u @ psi, rho @ u @ psi).real) < 1e-12
        assert max(op["fidelity"] for op in operations) < 0.95  # the noise bites

    def test_draws_are_compiled_as_drawn(self, capsys, monkeypatch):
        # sample_su4 draws are unitary already; none is projected again
        calls = count_calls(monkeypatch, nearest_unitary)
        code, _, _ = run_cli(capsys, "benchmark", "--n", "32", "--noise", "calibrated")
        assert code == EXIT_OK
        assert calls == []

    @pytest.mark.parametrize("command", ["benchmark", "process-tomo"])
    def test_compiled_programs_stay_arrays(self, capsys, monkeypatch, unitary_file, command):
        # the compiled circuits go from the compiler to the executor as
        # arrays: no per-row objects are built on the way
        classes = (circuits.CircuitParams, circuits.LocalGate, gates.ClassParams)
        calls = [count_calls(monkeypatch, cls) for cls in classes]
        argv = ["--n", "32"] if command == "benchmark" else ["--unitary", unitary_file]
        code, _, _ = run_cli(capsys, command, *argv, "--noise", "calibrated", "--shots", "10")
        assert code == EXIT_OK
        assert calls == [[], [], []]
        # the same wrappers count the objects the public compiler builds
        decompose(sample_su4(SeededRng(1)))
        assert [len(made) for made in calls] == [1, 4, 1]

    # the paper's 160 operations are one stack; twice the chunk is two
    @pytest.mark.parametrize("n,rows", [(160, [160]), (2 * cli._CHUNK, [cli._CHUNK] * 2)])
    def test_one_call_per_stacked_kernel_per_chunk(self, capsys, monkeypatch, n, rows):
        kernels = (
            haar._sample_su4_many,
            compiler._decompose_arrays,
            circuits._pulse_angles,
            experiment._sample_counts,
            tomography._estimate_states,
            tomography._pure_state_fidelities,
        )
        calls = [count_calls(monkeypatch, kernel) for kernel in kernels]
        code, _, _ = run_cli(capsys, "benchmark", "--n", str(n), "--noise", "calibrated")
        assert code == EXIT_OK
        # _sample_su4_many(rng, n) takes its row count as n
        sizes = [[args[1] for args in calls[0]]] + [[len(args[0]) for args in made] for made in calls[1:]]
        for kernel, got in zip(kernels, sizes):
            assert got == rows, kernel.__name__

    def test_scores_against_pure_ideals_in_closed_form(self, capsys, monkeypatch):
        # every ideal output is a pure state, so no fidelity takes a
        # square root of a state or a singular value decomposition
        roots = count_calls(monkeypatch, tomography._psd_sqrt)
        svds = []
        svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            svds.append(args)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        code, _, _ = run_cli(capsys, "benchmark", "--n", "160", "--noise", "calibrated")
        assert code == EXIT_OK
        assert (roots, svds) == ([], [])

    def test_csv_export(self, capsys, tmp_path):
        csv_path = tmp_path / "ops.csv"
        code, out, _ = run_cli(
            capsys, "benchmark", "--n", "16", "--shots", "20",
            "--csv", str(csv_path),
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        with open(csv_path, newline="") as fp:
            rows = list(csv.reader(fp))
        assert rows[0] == ["index", "qubit0_state", "qubit1_state", "fidelity"]
        assert len(rows) == 17
        # repr round trip keeps the fidelities bit-exact
        for row, op in zip(rows[1:], doc["operations"]):
            assert float(row[3]) == op["fidelity"]

    def test_calibrated_noise_profile_runs(self, capsys):
        code, out, _ = run_cli(
            capsys, "benchmark", "--n", "16", "--shots", "30",
            "--noise", "calibrated", "--seed", "7",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["noise"]["overrotation_sigma"] > 0.0
        assert doc["mean_fidelity"] < 0.95  # noise must actually bite

    def test_noise_file(self, capsys, tmp_path):
        noise_path = tmp_path / "noise.json"
        noise_path.write_text(json.dumps({
            "overrotation_sigma": 0.01,
            "depolarizing_per_g": 0.02,
            "damping_per_circuit": 0.03,
        }))
        code, out, _ = run_cli(
            capsys, "benchmark", "--n", "16", "--shots", "10",
            "--noise", str(noise_path),
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["noise"]["depolarizing_per_g"] == 0.02
        assert doc["noise_meta"]["source"] != "zero"

    def test_bad_noise_file(self, capsys, tmp_path):
        noise_path = tmp_path / "noise.json"
        noise_path.write_text(json.dumps({"overrotation_sigma": -1.0}))
        code, _, _ = run_cli(
            capsys, "benchmark", "--n", "16", "--noise", str(noise_path)
        )
        assert code == EXIT_PARSE

    # JSON null, an array, a bool (an int in Python) and a numeric string:
    # each is a value, not a finite number
    @pytest.mark.parametrize("value", [None, [0.1], True, "0.05"])
    def test_non_number_noise_value_rejected(self, capsys, tmp_path, value):
        noise_path = tmp_path / "noise.json"
        noise_path.write_text(json.dumps({"depolarizing_per_g": value}))
        code, out, err = run_cli(
            capsys, "benchmark", "--n", "16", "--noise", str(noise_path)
        )
        assert code == EXIT_PARSE
        assert out == ""
        assert "depolarizing_per_g" in err

    def test_nan_noise_file(self, capsys, tmp_path):
        noise_path = tmp_path / "noise.json"
        noise_path.write_text(json.dumps({"overrotation_sigma": float("nan")}))
        assert "NaN" in noise_path.read_text()  # non-standard JSON json.loads reads
        code, out, _ = run_cli(
            capsys, "benchmark", "--n", "16", "--seed", "1", "--noise", str(noise_path)
        )
        assert code == EXIT_PARSE
        assert out == ""

    # a trailing comma and a byte that is not UTF-8: the error names the
    # file, as it does for a matrix file
    @pytest.mark.parametrize("raw", [b'{"overrotation_sigma": 0.1,}', b'{"overrotation_sigma": 0.1\xff}'])
    def test_unparseable_noise_file_is_named(self, capsys, tmp_path, raw):
        noise_path = tmp_path / "noise.json"
        noise_path.write_bytes(raw)
        code, out, err = run_cli(capsys, "benchmark", "--n", "16", "--noise", str(noise_path))
        assert code == EXIT_PARSE
        assert out == ""
        assert err.startswith(f"error: cannot parse {noise_path}: ")

    # a file that parses but holds no noise model: an array, an unknown
    # field, a value outside its range; the error names the file
    @pytest.mark.parametrize(
        "obj,reason",
        [([0.1], "noise JSON must be an object"), ({"sigma": 0.1}, "unknown noise fields ['sigma']"),
         ({"depolarizing_per_g": 1.5}, "depolarizing_per_g must lie in [0, 1]")],
    )
    def test_wrong_noise_file_is_named(self, capsys, tmp_path, obj, reason):
        noise_path = tmp_path / "noise.json"
        noise_path.write_text(json.dumps(obj))
        code, out, err = run_cli(capsys, "benchmark", "--n", "16", "--noise", str(noise_path))
        assert code == EXIT_PARSE
        assert out == ""
        assert err == f"error: {noise_path}: {reason}\n"


class TestProcessTomo:
    def test_exact_probabilities_recover_process(self, capsys, unitary_file):
        code, out, _ = run_cli(
            capsys, "process-tomo", "--unitary", unitary_file, "--exact-probabilities"
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["entanglement_fidelity"] == pytest.approx(1.0, abs=1e-9)
        assert doc["mean_state_fidelity"] == pytest.approx(1.0, abs=1e-9)
        assert doc["mean_fidelity_from_entanglement"] == pytest.approx(1.0, abs=1e-9)

    def test_exact_report_reads_no_shots_or_seed(self, capsys, unitary_file):
        # an exact run draws no shot and reads no stream: both are null,
        # and runs that differ only in them write the same bytes
        runs = [
            run_cli(capsys, "process-tomo", "--unitary", unitary_file, "--exact-probabilities",
                    "--noise", "calibrated", "--shots", shots, "--seed", seed)
            for shots, seed in (("5", "1"), ("5000", "2"))
        ]
        assert runs[0] == runs[1]
        doc = json.loads(runs[0][1])
        assert doc["shots"] is None and doc["seed"] is None

    def test_process_matrix_export(self, capsys, unitary_file, tmp_path):
        proc_path = tmp_path / "e.json"
        code, _, _ = run_cli(
            capsys, "process-tomo", "--unitary", unitary_file, "--exact-probabilities",
            "--process-out", str(proc_path),
        )
        assert code == EXIT_OK
        e = matrix_from_obj(json.loads(proc_path.read_text()), (16, 16))
        assert abs(np.trace(e) - 4.0) < 1e-6  # unitary channel trace

    def test_sampled_run_is_deterministic(self, capsys, unitary_file):
        args = ("process-tomo", "--unitary", unitary_file, "--shots", "40", "--seed", "2")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_non_unitary_input(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(matrix_to_obj(np.zeros((4, 4), dtype=complex))))
        code, _, _ = run_cli(capsys, "process-tomo", "--unitary", str(path))
        assert code == EXIT_NOT_UNITARY

    @pytest.mark.parametrize("case", sorted(BAD_ENTRY_FILES))
    def test_non_finite_entry_rejected(self, capsys, tmp_path, case):
        text, entry = BAD_ENTRY_FILES[case]
        path = tmp_path / "m.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "process-tomo", "--unitary", str(path))
        assert code == EXIT_PARSE
        assert out == ""
        assert f"matrix entry {entry} " in err

    def test_printed_precision_accepted(self, capsys, tmp_path):
        path = tmp_path / "r.json"
        save_matrix(np.round(sample_su4(SeededRng(307)), 3), str(path))  # unitary to ~1e-3
        code, out, _ = run_cli(
            capsys, "process-tomo", "--unitary", str(path), "--exact-probabilities"
        )
        assert code == EXIT_OK
        # the program is compiled from the nearest unitary, the ideal too
        assert json.loads(out)["entanglement_fidelity"] == pytest.approx(1.0, abs=1e-9)

    def test_compiles_once(self, capsys, unitary_file, monkeypatch):
        # one program for all 16 preparations
        calls = count_calls(monkeypatch, compiler._decompose_arrays)
        code, _, _ = run_cli(
            capsys, "process-tomo", "--unitary", unitary_file, "--shots", "10"
        )
        assert code == EXIT_OK
        assert [len(args[0]) for args in calls] == [1]

    def test_projects_once(self, capsys, unitary_file, monkeypatch):
        # the nearest unitary of the file's matrix is both the compiled
        # target and the ideal process
        calls = count_calls(monkeypatch, nearest_unitary)
        code, _, _ = run_cli(
            capsys, "process-tomo", "--unitary", unitary_file, "--shots", "10"
        )
        assert code == EXIT_OK
        assert len(calls) == 1

    def test_noisy_exact_run_is_the_channel(self, capsys, unitary_file, tmp_path):
        # F_e of the process reconstructed from the 16 output states that
        # apply_channel gives, with no over-rotation to draw
        noise_path = tmp_path / "noise.json"
        noise_path.write_text(json.dumps(NO_SIGMA_NOISE))
        code, out, _ = run_cli(
            capsys, "process-tomo", "--unitary", unitary_file, "--exact-probabilities",
            "--method", "linear", "--noise", str(noise_path),
        )
        assert code == EXIT_OK
        u = nearest_unitary(matrix_from_obj(json.loads(Path(unitary_file).read_text()), (4, 4)))
        outputs = [
            apply_channel(np.outer(psi, psi.conj()), program(u), NoiseModel(**NO_SIGMA_NOISE))
            for psi in map(experiment.input_state, experiment.TOMOGRAPHY_INPUT_LABELS)
        ]
        process = tomography.reconstruct_process(outputs)
        want = tomography.entanglement_fidelity(process, tomography.process_matrix_of_unitary(u))
        assert abs(json.loads(out)["entanglement_fidelity"] - want) < 1e-12
        assert want < 0.95  # the noise bites

    def test_report_records_the_cp_setting(self, capsys, unitary_file):
        # two reports whose F_e differ only by the projection say so
        args = ("process-tomo", "--unitary", unitary_file, "--shots", "100", "--noise", "calibrated")
        docs = [json.loads(run_cli(capsys, *args, *flag)[1]) for flag in ((), ("--no-cp-projection",))]
        assert [doc["cp_projection"] for doc in docs] == [True, False]
        assert docs[0]["entanglement_fidelity"] != docs[1]["entanglement_fidelity"]

    def test_full_depolarizing_noise_collapses_fidelity(
        self, capsys, unitary_file, tmp_path
    ):
        # every circuit contains entangling gates, so depolarizing with
        # probability 1 turns the whole channel into the maximally mixing
        # one: entanglement fidelity against any unitary is 1/16
        noise_path = tmp_path / "noise.json"
        noise_path.write_text(json.dumps({"depolarizing_per_g": 1.0}))
        code, out, _ = run_cli(
            capsys, "process-tomo", "--unitary", unitary_file,
            "--noise", str(noise_path), "--seed", "0",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["entanglement_fidelity"] == pytest.approx(1 / 16, abs=0.02)


# sha256 of the stdout report of two seeded runs, captured when the counts
# came to be drawn from the exact averaged outcome distribution (the
# benchmark's again when linear estimates became one constant map, and when
# it came to score against its pure ideal states in closed form), and of
# the public pulse view, captured before programs became angle rows (a numpy
# float in the view would change its bytes) and again when the compiler's
# representative frames became closed form; the process-tomo and pulse
# digests again when the compile and scoring steps became plain stacked
# arithmetic (mean_state_fidelity and the angles moved by at most 9e-16);
# and of an exact-probability benchmark under the calibrated noise,
# captured when exact runs came to take any noise model. The pulse and
# exact-benchmark digests were re-captured when su2_params came to read
# theta from both moduli (pulse angles moved by at most 8.9e-16, exact
# fidelities by at most 1.3e-15; sampled reports kept their bytes), and the
# process-tomo digest when its report came to record cp_projection. All
# four were re-captured when MLE became a certified Newton solver: the
# tolerance block every report writes lost prob_floor and took mle_stop
# 1e-12 and mle_max_iter 100, which is all that moved in the benchmark,
# exact-benchmark and pulse reports, and process-tomo's fidelities moved by
# at most 3.3e-8, the MLE states with them and mean_state_fidelity to its
# closed form against the pure ideal outputs. The benchmark, exact-benchmark
# and process-tomo digests were re-captured when each run came to read one
# stream per purpose (unitaries, preparations, counts) and exact runs came
# to write null for the shots they do not draw. All four were re-captured
# when the tolerance block lost symmetry, determinant and su2_det, which no
# check read; nothing else in any report moved. The process-tomo digest was
# re-captured when MLE came to start at the linear estimate: its three
# fidelities moved by at most 3.3e-16 (entanglement_fidelity). The
# exact-benchmark digest was re-captured when the exact pass came to carry
# Pauli tables: 34 of its values moved, by at most 1.2e-15 (a fidelity).
# A change to the executor, the compiler or reconstruction that moves one
# count or one digit of a fidelity or an angle changes a digest; only a
# change that sets out to move outputs re-captures them, and records the old
# and the new digest in CHANGES.md. The digests hold for one numpy build and
# CPU family, so a failure names both (numpy_build).
GOLDEN_REPORTS = {
    "benchmark": (
        ("benchmark", "--n", "32", "--seed", "0", "--noise", "calibrated"),
        "b959b1d9e0a172cb51ae42232a28ac0e0be2358acfa2417648972a36e97701de",
    ),
    "benchmark-exact": (
        ("benchmark", "--n", "32", "--exact-probabilities", "--noise", "calibrated"),
        "f6ce94d7cf974c8f21aa1a199abad0d8c8839c35c42a2a2afaca4a58091343b6",
    ),
    "process-tomo": (
        ("process-tomo", "--unitary", None, "--shots", "1000", "--noise", "calibrated",
         "--method", "mle"),
        "2e62b2fa3aa63c7ff44d4ddb3224672882d5d226214aab3d785e31a99f098d02",
    ),
    "compile-pulses": (
        ("compile", None, "--pulses"),
        "97ff970144e3f05462111decd9285acd87d55787cd421210466268e0cbf8d850",
    ),
}


def recorded_fits(monkeypatch) -> list:
    """Record the fit of every MLE call the CLI makes."""
    fits = []

    def recording(counts):
        fits.append(tomography._mle_estimates(counts))
        return fits[-1]

    monkeypatch.setattr(cli, "_mle_estimates", recording)
    return fits


def process_tomo_files(tmp_path, n):
    """The first n Haar draws of SeededRng(0) as matrix files, as the
    benchmark's process-tomo workload writes its pool; the first is the
    fingerprint's matrix."""
    rng = SeededRng(0)
    paths = []
    for i in range(n):
        path = tmp_path / f"unitary-{i}.json"
        save_matrix(sample_su4(rng), str(path))
        paths.append(str(path))
    return paths


MLE_RUNS = {
    "benchmark": ("benchmark", "--n", "32", "--shots", "100", "--noise", "calibrated", "--method", "mle"),
    "process-tomo": ("process-tomo", "--unitary", None, "--shots", "1000", "--noise", "calibrated", "--method", "mle"),
}

# The most Newton steps of one MLE stack in the survey below (40 process-tomo
# runs and 10 MLE benchmark runs, certified at mle_stop 1e-12), started at
# the linear estimate: 8 and 27. The budgets leave a quarter more.
MLE_STEP_BUDGET = {"process-tomo": 10, "benchmark": 33}


class TestMleRuns:
    @pytest.mark.parametrize("command", sorted(MLE_RUNS))
    def test_warns_when_a_record_stops_uncertified(self, capsys, monkeypatch, unitary_file, command):
        # the report and the warning read cli's record, the MLE kernel
        # tomography's
        capped = dataclasses.replace(DEFAULT_TOL, mle_max_iter=2)
        monkeypatch.setattr(cli, "DEFAULT_TOL", capped)
        monkeypatch.setattr(tomography, "DEFAULT_TOL", capped)
        argv = [unitary_file if a is None else a for a in MLE_RUNS[command]]
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_OK
        assert json.loads(out)["tolerances"]["mle_max_iter"] == 2
        n = 32 if command == "benchmark" else 16
        first = "operation 0" if command == "benchmark" else "preparation up,up"
        assert err.startswith(f"warning: {n} MLE estimate(s) stopped uncertified at mle_max_iter 2, ")
        assert f"> mle_stop 1e-12: {first}, " in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", sorted(MLE_RUNS))
    def test_default_run_is_silent(self, capsys, unitary_file, command):
        argv = [unitary_file if a is None else a for a in MLE_RUNS[command]]
        assert run_cli(capsys, *argv)[::2] == (EXIT_OK, "")

    def test_survey_is_certified_below_the_cap(self, capsys, monkeypatch, tmp_path):
        # 40 process-tomo runs on the benchmark's pool of Haar files and the
        # paper's 160-operation MLE benchmark at seeds 0 to 9: every record
        # is certified, none near the cap
        fits = recorded_fits(monkeypatch)
        for k, path in enumerate(process_tomo_files(tmp_path, 40)):
            argv = ("process-tomo", "--unitary", path, "--seed", str(k), "--shots", "1000",
                    "--noise", "calibrated", "--method", "mle")
            assert run_cli(capsys, *argv)[::2] == (EXIT_OK, "")
        for seed in range(10):
            argv = ("benchmark", "--n", "160", "--seed", str(seed), "--shots", "100",
                    "--noise", "calibrated", "--method", "mle")
            assert run_cli(capsys, *argv)[::2] == (EXIT_OK, "")
        assert [len(fit.steps) for fit in fits] == [16] * 40 + [160] * 10
        for fit in fits:
            assert np.all(fit.certificates <= DEFAULT_TOL.mle_stop)
        assert max(fit.steps.max() for fit in fits[:40]) <= MLE_STEP_BUDGET["process-tomo"]
        assert max(fit.steps.max() for fit in fits[40:]) <= MLE_STEP_BUDGET["benchmark"]

    def test_step_budget(self, capsys, monkeypatch, tmp_path):
        # the fingerprint's process-tomo run and the seed-0 MLE benchmark
        # each finish their one stack within the budget, so a convergence
        # regression fails here
        fits = recorded_fits(monkeypatch)
        argv = ("process-tomo", "--unitary", process_tomo_files(tmp_path, 1)[0], "--seed", "0",
                "--shots", "1000", "--noise", "calibrated", "--method", "mle")
        assert run_cli(capsys, *argv)[0] == EXIT_OK
        argv = ("benchmark", "--n", "160", "--seed", "0", "--shots", "100",
                "--noise", "calibrated", "--method", "mle")
        assert run_cli(capsys, *argv)[0] == EXIT_OK
        process, bench = fits
        assert process.steps.max() <= MLE_STEP_BUDGET["process-tomo"]
        assert bench.steps.max() <= MLE_STEP_BUDGET["benchmark"]


class TestGoldenReports:
    @pytest.mark.parametrize("name", sorted(GOLDEN_REPORTS))
    def test_report_digest(self, capsys, unitary_file, name):
        argv, digest = GOLDEN_REPORTS[name]
        code, out, _ = run_cli(capsys, *(unitary_file if a is None else a for a in argv))
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, numpy_build()

    @pytest.mark.parametrize("name", sorted(GOLDEN_REPORTS))
    def test_report_does_not_depend_on_blas_threads(self, unitary_file, name):
        # the same bytes from a fresh interpreter whether BLAS and OpenMP
        # run on one thread or two, so no kernel on the path lets the
        # thread split change its rounding
        argv, digest = GOLDEN_REPORTS[name]
        argv = [unitary_file if a is None else a for a in argv]
        src = str(Path(cli.__file__).resolve().parents[1])
        outs = []
        for threads in ("1", "2"):
            env = {
                **os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
                "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
            }
            done = subprocess.run(
                [sys.executable, "-c", "import sys; from su4c.cli import main; sys.exit(main(sys.argv[1:]))", *argv],
                env=env, capture_output=True, check=True,
            )
            outs.append(done.stdout)
        assert outs[0] == outs[1], numpy_build()
        assert hashlib.sha256(outs[0]).hexdigest() == digest, numpy_build()


class TestAngleTablePath:
    @pytest.mark.parametrize(
        "argv",
        [
            ("benchmark", "--n", "16", "--noise", "calibrated"),
            GOLDEN_REPORTS["process-tomo"][0],
            ("process-tomo", "--unitary", None, "--exact-probabilities"),
        ],
        ids=["benchmark", "process-tomo", "process-tomo-exact"],
    )
    def test_builds_no_gate_element(self, capsys, unitary_file, monkeypatch, argv):
        # the angle table goes from the compiler to the executor as it is:
        # with GateElement refusing to be built, the same bytes come out
        argv = [unitary_file if a is None else a for a in argv]
        code, want, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK

        def refuse(self):
            raise AssertionError("GateElement built")

        monkeypatch.setattr(GateElement, "__post_init__", refuse)
        with pytest.raises(AssertionError, match="GateElement built"):
            main(["compile", unitary_file, "--pulses"])  # the patch bites
        capsys.readouterr()
        code, got, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        assert got == want


class TestMemory:
    def test_benchmark_memory_bounded_in_n(self, capsys):
        # operations are drawn, compiled, run and reconstructed up to
        # _CHUNK = 256 at a time, so ten times the operations add only their
        # report entries and the 192 more rows of a full stack: 0.96 MiB
        # measured, against several MiB when every program is compiled
        # before any runs
        def peak(n):
            tracemalloc.start()
            try:
                code, _, _ = run_cli(capsys, "benchmark", "--n", str(n), "--noise", "calibrated")
                high = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == EXIT_OK
            return high

        peak(16)  # warm
        assert peak(640) - peak(64) < 2 * 2**20


class TestParser:
    def test_built_once_per_process(self, capsys, monkeypatch):
        builds = count_calls(monkeypatch, cli.build_parser)
        cli._parser.cache_clear()
        try:
            for _ in range(3):
                assert run_cli(capsys, "sample", "--n", "1")[0] == EXIT_OK
            with pytest.raises(SystemExit):
                main(["benchmark", "--n", "10"])
        finally:
            cli._parser.cache_clear()
        assert len(builds) == 1

    def test_no_subcommand(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == EXIT_PARSE

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == EXIT_PARSE

    def test_bad_method(self, unitary_file):
        with pytest.raises(SystemExit) as info:
            main(["process-tomo", "--unitary", unitary_file, "--method", "bayes"])
        assert info.value.code == EXIT_PARSE

    @pytest.mark.parametrize("argv", [["benchmark", "--n", "16"], ["process-tomo", "--unitary", None]])
    def test_tolerance_is_a_compile_option(self, capsys, unitary_file, monkeypatch, argv):
        # only compile verifies, so only compile takes --tolerance; the
        # runs report the default tolerances whatever SU4C_TOLERANCE says
        argv = [unitary_file if a is None else a for a in argv]
        with pytest.raises(SystemExit) as info:
            main([*argv, "--tolerance", "1e-3"])
        assert info.value.code == EXIT_PARSE
        monkeypatch.setenv(ENV_TOLERANCE, "1e-3")
        code, out, _ = run_cli(capsys, *argv, "--shots", "10")
        assert code == EXIT_OK
        assert json.loads(out)["tolerances"] == dataclasses.asdict(DEFAULT_TOL)

    def test_shots_must_be_positive(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["benchmark", "--n", "16", "--shots", "0"])
        assert info.value.code == EXIT_PARSE

    @pytest.mark.parametrize("argv", [["benchmark", "--n", "16"], ["process-tomo", "--unitary", None]])
    def test_shots_beyond_the_sampler(self, unitary_file, tmp_path, argv):
        # 10**19 shots is above 2**63 - 1, the largest count the multinomial
        # sampler draws: a parser error from a fresh interpreter, with no
        # traceback and no report
        report = tmp_path / "report.json"
        argv = [unitary_file if a is None else a for a in argv]
        src = str(Path(cli.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", "import sys; from su4c.cli import main; sys.exit(main(sys.argv[1:]))",
             *argv, "--shots", "10000000000000000000", "--out", str(report)],
            env={**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])},
            capture_output=True, text=True,
        )
        assert done.returncode == EXIT_PARSE
        assert "--shots must be an int from 1 to 2**63 - 1, got 10000000000000000000" in done.stderr
        assert "Traceback" not in done.stderr
        assert not report.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["sample", "--seed", "-1"],
            ["benchmark", "--n", "16", "--seed", "-3"],
            ["process-tomo", "--unitary", None, "--seed", "-2"],
        ],
    )
    def test_seed_must_be_non_negative(self, capsys, unitary_file, argv):
        with pytest.raises(SystemExit) as info:
            main([unitary_file if a is None else a for a in argv])
        assert info.value.code == EXIT_PARSE
        assert "--seed must be non-negative" in capsys.readouterr().err


class TestOutputs:
    @pytest.mark.parametrize(
        "command,flag",
        [
            ("compile", "--out"),
            ("sample", "--out"),
            ("benchmark", "--out"),
            ("benchmark", "--csv"),
            ("process-tomo", "--out"),
            ("process-tomo", "--process-out"),
        ],
    )
    def test_unwritable_path(self, capsys, unitary_file, tmp_path, command, flag):
        target = str(tmp_path / "missing" / "out.json")
        argv = {
            "compile": ["compile", unitary_file],
            "sample": ["sample"],
            "benchmark": ["benchmark", "--n", "16", "--shots", "10"],
            "process-tomo": ["process-tomo", "--unitary", unitary_file,
                             "--exact-probabilities"],
        }[command]
        code, _, err = run_cli(capsys, *argv, flag, target)
        assert code == EXIT_PARSE
        assert target in err

"""Command-line interface, exercised in process through main(argv)."""

import csv
import hashlib
import json
import sys
import tracemalloc

import numpy as np
import pytest

from su4c import compiler
from su4c.cli import EXIT_NOT_UNITARY, EXIT_OK, EXIT_PARSE, EXIT_VERIFY, main
from su4c.compiler import decompose, verify
from su4c.config import ENV_TOLERANCE
from su4c.haar import SeededRng, sample_su4
from su4c.io import matrix_from_obj, matrix_to_obj, save_matrix
from su4c.linalg import nearest_unitary


@pytest.fixture
def unitary_file(tmp_path):
    path = tmp_path / "u.json"
    save_matrix(sample_su4(SeededRng(541)), str(path))
    return str(path)


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv(ENV_TOLERANCE, raising=False)


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

    def test_block_size_enforced(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["benchmark", "--n", "10"])
        assert info.value.code == EXIT_PARSE

    def test_exact_probabilities_need_zero_noise(self, capsys):
        code, _, err = run_cli(
            capsys, "benchmark", "--n", "16", "--exact-probabilities",
            "--noise", "calibrated",
        )
        assert code == EXIT_PARSE
        assert "zero noise" in err

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
        # one program for all 16 preparations: count decompose under every
        # name a su4c module holds it by
        calls = []
        original = compiler.decompose

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name == "su4c" or name.startswith("su4c."):
                for key, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, key, counting)
        code, _, _ = run_cli(
            capsys, "process-tomo", "--unitary", unitary_file, "--shots", "10"
        )
        assert code == EXIT_OK
        assert len(calls) == 1

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


# sha256 of the stdout report of two seeded runs, captured before the
# executor ran operations in blocks. A change to the executor, the compiler
# or reconstruction that moves one count or one digit of a fidelity changes
# a digest; only a change that sets out to move outputs re-captures them,
# and records the old and the new digest in CHANGES.md.
GOLDEN_REPORTS = {
    "benchmark": (
        ("benchmark", "--n", "32", "--seed", "0", "--noise", "calibrated"),
        "76bf39c7b0d2e848ef7cd328396dd9fd547f7a263cfed689c0dbba0ec1677440",
    ),
    "process-tomo": (
        ("process-tomo", "--unitary", None, "--shots", "1000", "--noise", "calibrated",
         "--method", "mle"),
        "650ebd73f96afc81a321c467816a826673802e4624c81043a80f6a17dba342f9",
    ),
}


class TestGoldenReports:
    @pytest.mark.parametrize("name", sorted(GOLDEN_REPORTS))
    def test_report_digest(self, capsys, unitary_file, name):
        argv, digest = GOLDEN_REPORTS[name]
        code, out, _ = run_cli(capsys, *(unitary_file if a is None else a for a in argv))
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


class TestMemory:
    def test_benchmark_memory_bounded_in_n(self, capsys):
        # operations are drawn, compiled, run and reconstructed one executor
        # block at a time, so ten times the operations add only their
        # report entries: 0.8 MiB measured, against several MiB when every
        # program is compiled before any runs
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

    def test_shots_must_be_positive(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["benchmark", "--n", "16", "--shots", "0"])
        assert info.value.code == EXIT_PARSE


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

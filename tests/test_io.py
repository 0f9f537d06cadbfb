"""JSON serialization of matrices, circuits and reports, and content
hashing."""

import json
import math

import numpy as np
import pytest

from su4c.circuits import CircuitParams, LocalGate
from su4c.compiler import decompose
from su4c.gates import ClassParams
from su4c.haar import SeededRng, sample_su4
from su4c.io import (
    circuit_to_obj,
    content_hash,
    dump_json,
    matrix_from_obj,
    matrix_to_obj,
    save_matrix,
)


class TestContentHash:
    def test_matches_git_blob_convention(self):
        # frozen oracle: `git hash-object` of this exact payload
        assert content_hash(b"hello world\n") == "3b18e512dba79e4c8300dd08aeb37f8e728b8dad"

    def test_str_and_bytes_agree(self):
        assert content_hash("abc") == content_hash(b"abc")

    def test_distinct_payloads(self):
        assert content_hash(b"a") != content_hash(b"b")


class TestMatrixObj:
    def test_round_trip_bit_exact(self):
        u = sample_su4(SeededRng(499))
        again = matrix_from_obj(matrix_to_obj(u))
        assert np.array_equal(u, again)  # no tolerance: identical floats

    def test_json_round_trip_bit_exact(self):
        u = sample_su4(SeededRng(503))
        again = matrix_from_obj(json.loads(json.dumps(matrix_to_obj(u))))
        assert np.array_equal(u, again)

    def test_bare_reals_accepted(self):
        m = matrix_from_obj([[1, 0], [0, -1]])
        assert np.array_equal(m, np.diag([1.0, -1.0]).astype(complex))

    def test_wrapper_object_accepted(self):
        obj = {"matrix": [[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, -1.0]]]}
        m = matrix_from_obj(obj)
        assert np.array_equal(m, np.diag([1j, -1j]))

    def test_shape_enforced(self):
        with pytest.raises(ValueError):
            matrix_from_obj([[1, 0], [0, 1]], shape=(4, 4))

    def test_ragged_rejected(self):
        with pytest.raises(ValueError, match=r"rows differ in length: \[2, 1\]"):
            matrix_from_obj([[1, 0], [0]])

    def test_array_of_matrices_named(self):
        u = sample_su4(SeededRng(499))
        with pytest.raises(ValueError, match="array of matrices"):
            matrix_from_obj([matrix_to_obj(u)], (4, 4))
        with pytest.raises(ValueError, match="array of matrices"):
            matrix_from_obj({"matrix": [matrix_to_obj(u), matrix_to_obj(u)]})

    def test_bad_entry_rejected(self):
        with pytest.raises(ValueError):
            matrix_from_obj([["x", 0], [0, 1]])

    @pytest.mark.parametrize(
        "entry",
        [True, False, [1.0, True], math.nan, -math.inf, [0.0, math.inf], 10**400, ["1", 0]],
    )
    def test_non_finite_entry_rejected(self, entry):
        with pytest.raises(ValueError, match="matrix entry"):
            matrix_from_obj([[entry, 0], [0, 1]])

    def test_file_round_trip(self, tmp_path):
        u = sample_su4(SeededRng(509))
        path = tmp_path / "u.json"
        save_matrix(u, str(path))
        with open(path, encoding="utf-8") as fp:
            assert np.array_equal(matrix_from_obj(json.load(fp), (4, 4)), u)


class TestCircuitObj:
    def test_round_trip_bit_exact(self):
        # every float of the circuit comes back unchanged through JSON text
        params = decompose(sample_su4(SeededRng(521)))
        obj = json.loads(json.dumps(circuit_to_obj(params)))
        cp = params.class_params
        assert [obj["alpha"], obj["beta"], obj["delta"]] == [cp.alpha, cp.beta, cp.delta]
        for key, letter in zip("ABCD", (params.a, params.b, params.c, params.d)):
            assert obj[key] == {
                "theta": letter.theta, "phi": letter.phi,
                "phiz": letter.phiz, "sign": letter.sign,
            }
        assert complex(*obj["global_phase"]) == params.global_phase

    def test_sign_survives(self):
        params = CircuitParams(
            ClassParams(0.1, 0.2, 0.3),
            LocalGate(0.4, 0.5, 0.6, sign=-1),
            LocalGate(0.7, 0.8, 0.9),
            LocalGate(1.0, 1.1, 1.2, sign=-1),
            LocalGate(1.3, 1.4, 1.5),
            global_phase=-1j,
        )
        obj = circuit_to_obj(params)
        assert set(obj) == {"alpha", "beta", "delta", "A", "B", "C", "D", "global_phase"}
        assert [obj[key]["sign"] for key in "ABCD"] == [-1, 1, -1, 1]
        assert all(type(obj[key]["sign"]) is int for key in "ABCD")
        assert obj["A"] == {"theta": 0.4, "phi": 0.5, "phiz": 0.6, "sign": -1}
        assert obj["global_phase"] == [-0.0, -1.0]


class TestDumpJson:
    def test_returns_text_and_writes_file(self, tmp_path):
        path = str(tmp_path / "out.json")
        text = dump_json({"b": 1, "a": 2}, path)
        # the file gets a trailing newline; the return value does not
        assert (tmp_path / "out.json").read_text() == text + "\n"
        assert json.loads(text) == {"a": 2, "b": 1}

    def test_none_path_only_returns(self):
        text = dump_json([1, 2, 3], None)
        assert json.loads(text) == [1, 2, 3]

    def test_keys_sorted_deterministically(self):
        assert dump_json({"z": 0, "a": 1}, None) == dump_json({"a": 1, "z": 0}, None)

"""JSON serialization round trips and content hashing."""

import json
import math

import numpy as np
import pytest

from su4c.circuits import CircuitParams, LocalGate
from su4c.compiler import decompose
from su4c.experiment import MeasurementRecord
from su4c.gates import ClassParams
from su4c.haar import SeededRng, sample_su4
from su4c.io import (
    circuit_from_obj,
    circuit_to_obj,
    content_hash,
    dump_json,
    load_matrix,
    matrix_from_obj,
    matrix_to_obj,
    record_from_obj,
    record_to_obj,
    records_from_obj,
    records_to_obj,
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
        with pytest.raises(ValueError):
            matrix_from_obj([[1, 0], [0]])

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
        path = str(tmp_path / "u.json")
        save_matrix(u, path)
        assert np.array_equal(load_matrix(path), u)

    def test_load_enforces_default_shape(self, tmp_path):
        path = str(tmp_path / "m.json")
        path_obj = tmp_path / "m.json"
        path_obj.write_text(json.dumps([[1, 0], [0, 1]]))
        with pytest.raises(ValueError):
            load_matrix(path)
        assert np.array_equal(load_matrix(path, shape=(2, 2)), np.eye(2))


class TestCircuitObj:
    def test_round_trip_bit_exact(self):
        params = decompose(sample_su4(SeededRng(521)))
        again = circuit_from_obj(json.loads(json.dumps(circuit_to_obj(params))))
        assert again == params

    def test_sign_survives(self):
        params = CircuitParams(
            ClassParams(0.1, 0.2, 0.3),
            LocalGate(0.4, 0.5, 0.6, sign=-1),
            LocalGate(0.7, 0.8, 0.9),
            LocalGate(1.0, 1.1, 1.2, sign=-1),
            LocalGate(1.3, 1.4, 1.5),
            global_phase=-1j,
        )
        assert circuit_from_obj(circuit_to_obj(params)) == params

    def test_missing_field_rejected(self):
        obj = circuit_to_obj(decompose(sample_su4(SeededRng(523))))
        del obj["alpha"]
        with pytest.raises((KeyError, ValueError)):
            circuit_from_obj(obj)


class TestRecordObj:
    def test_integer_counts_stay_integers(self):
        rec = MeasurementRecord(("Z", "X"), (5, 0, 3, 2), 10)
        obj = json.loads(json.dumps(record_to_obj(rec)))
        again = record_from_obj(obj)
        assert again == rec
        assert all(isinstance(c, int) for c in again.counts)

    def test_probability_records_keep_floats(self):
        rec = MeasurementRecord(("Z", "Z"), (0.5, 0.25, 0.125, 0.125), 1)
        again = record_from_obj(json.loads(json.dumps(record_to_obj(rec))))
        assert again == rec

    def test_record_list_round_trip(self):
        recs = [
            MeasurementRecord(("Z", "Z"), (1, 2, 3, 4), 10),
            MeasurementRecord(("X", "Y"), (4, 3, 2, 1), 10),
        ]
        assert records_from_obj(records_to_obj(recs)) == recs

    def test_bad_setting_rejected(self):
        obj = record_to_obj(MeasurementRecord(("Z", "Z"), (1, 0, 0, 0), 1))
        obj["setting"] = ["Q", "Z"]
        with pytest.raises(ValueError):
            record_from_obj(obj)


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

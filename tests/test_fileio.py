"""JSON schemas, strict field checking, and angle parsing."""

import json
import math

import numpy as np
import pytest

from spinaxes import HalfInt, SpinDensityMatrix, TensorParams, ValidationError, maximally_mixed, rho_to_t
from spinaxes.fileio import (
    detect_kind,
    dump_state,
    dump_tensor,
    load_ensemble,
    load_expansion,
    load_state,
    load_tensor,
    parse_angle,
)

from oracles import random_density

h = HalfInt


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return p


class TestParseAngle:
    def test_plain_numbers(self):
        assert parse_angle(0.75) == 0.75
        assert parse_angle(2) == 2.0
        assert parse_angle("0.75") == 0.75
        assert parse_angle("-1.5e-1") == -0.15

    def test_pi_fractions(self):
        assert parse_angle("pi") == pytest.approx(math.pi)
        assert parse_angle("pi/2") == pytest.approx(math.pi / 2)
        assert parse_angle("3pi/4") == pytest.approx(3 * math.pi / 4)
        assert parse_angle("-2*pi/3") == pytest.approx(-2 * math.pi / 3)
        assert parse_angle("2pi") == pytest.approx(2 * math.pi)
        assert parse_angle("0.5pi") == pytest.approx(math.pi / 2)
        assert parse_angle(" PI / 2 ") == pytest.approx(math.pi / 2)

    def test_rejects_junk(self):
        for bad in ("pie", "", "pi/0", "two", None, [1.0], True):
            with pytest.raises(ValidationError):
                parse_angle(bad)


class TestStateFile:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(41)
        rho = SpinDensityMatrix(h(3), random_density(rng, 4))
        p = write(tmp_path, "state.json", dump_state(rho))
        back = load_state(p)
        assert back.j == rho.j
        assert np.array_equal(back.matrix, rho.matrix)

    def test_dimension_mismatch(self, tmp_path):
        doc = dump_state(maximally_mixed(h(2)))
        doc["j_doubled"] = 3
        with pytest.raises(ValidationError, match="4x4"):
            load_state(write(tmp_path, "bad.json", doc))

    def test_non_hermitian_rejected(self, tmp_path):
        doc = {
            "schema_version": 1,
            "j_doubled": 1,
            "matrix": [[[0.6, 0.0], [0.2, 0.1]], [[0.2, 0.3], [0.4, 0.0]]],
        }
        with pytest.raises(ValidationError, match="hermiticity"):
            load_state(write(tmp_path, "nh.json", doc))

    def test_unknown_field_rejected(self, tmp_path):
        doc = dump_state(maximally_mixed(h(1)))
        doc["comment"] = "hello"
        with pytest.raises(ValidationError, match="unknown"):
            load_state(write(tmp_path, "extra.json", doc))

    def test_missing_field_rejected(self, tmp_path):
        doc = dump_state(maximally_mixed(h(1)))
        del doc["matrix"]
        with pytest.raises(ValidationError, match="missing"):
            load_state(write(tmp_path, "missing.json", doc))

    def test_wrong_schema_version(self, tmp_path):
        doc = dump_state(maximally_mixed(h(1)))
        doc["schema_version"] = 2
        with pytest.raises(ValidationError, match="schema_version"):
            load_state(write(tmp_path, "v2.json", doc))

    def test_entry_must_be_pair(self, tmp_path):
        doc = {"schema_version": 1, "j_doubled": 1, "matrix": [[0.5, [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]}
        with pytest.raises(ValidationError, match="re, im"):
            load_state(write(tmp_path, "pair.json", doc))


class TestEnsembleFile:
    def test_loads(self, tmp_path):
        doc = {
            "schema_version": 1,
            "n_qubits": 2,
            "terms": [
                {"weight": 0.5, "theta": 0.0, "phi": 0.0},
                {"weight": 0.5, "theta": math.pi / 2, "phi": 1.0},
            ],
        }
        ens = load_ensemble(write(tmp_path, "ens.json", doc))
        assert ens.n_qubits == 2
        assert ens.terms[1][1].theta == pytest.approx(math.pi / 2)

    def test_angles_in_files_must_be_numbers(self, tmp_path):
        doc = {
            "schema_version": 1,
            "n_qubits": 2,
            "terms": [{"weight": 1.0, "theta": "pi/2", "phi": 0.0}],
        }
        with pytest.raises(ValidationError, match="number"):
            load_ensemble(write(tmp_path, "str.json", doc))

    def test_term_unknown_field(self, tmp_path):
        doc = {
            "schema_version": 1,
            "n_qubits": 2,
            "terms": [{"weight": 1.0, "theta": 0.0, "phi": 0.0, "label": "x"}],
        }
        with pytest.raises(ValidationError, match="unknown"):
            load_ensemble(write(tmp_path, "lab.json", doc))

    def test_term_missing_field(self, tmp_path):
        doc = {"schema_version": 1, "n_qubits": 2, "terms": [{"weight": 1.0, "theta": 0.0}]}
        with pytest.raises(ValidationError, match="missing"):
            load_ensemble(write(tmp_path, "short.json", doc))

    def test_boolean_weight_rejected(self, tmp_path):
        doc = {"schema_version": 1, "n_qubits": 2, "terms": [{"weight": True, "theta": 0.0, "phi": 0.0}]}
        with pytest.raises(ValidationError, match="number"):
            load_ensemble(write(tmp_path, "bool.json", doc))

    def test_weights_must_sum_to_one(self, tmp_path):
        doc = {
            "schema_version": 1,
            "n_qubits": 2,
            "terms": [{"weight": 0.4, "theta": 0.0, "phi": 0.0}],
        }
        with pytest.raises(ValidationError, match="sum"):
            load_ensemble(write(tmp_path, "sum.json", doc))


class TestTensorFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(43)
        t = rho_to_t(SpinDensityMatrix(h(3), random_density(rng, 4)))
        back = load_tensor(write(tmp_path, "t.json", dump_tensor(t)))
        assert back.j == t.j
        assert t.max_abs_diff(back) == 0.0

    def test_sparse_table_defaults(self, tmp_path):
        doc = {"schema_version": 1, "j_doubled": 2, "entries": []}
        t = load_tensor(write(tmp_path, "sparse.json", doc))
        assert t.item(0, 0) == 1.0
        assert abs(t.rank(1)).max() == 0.0

    def test_duplicate_entry_rejected(self, tmp_path):
        doc = {
            "schema_version": 1,
            "j_doubled": 2,
            "entries": [
                {"k": 1, "q": 0, "re": 0.1, "im": 0.0},
                {"k": 1, "q": 0, "re": 0.2, "im": 0.0},
            ],
        }
        with pytest.raises(ValidationError, match="duplicate"):
            load_tensor(write(tmp_path, "dup.json", doc))

    def test_entry_field_check(self, tmp_path):
        doc = {"schema_version": 1, "j_doubled": 2, "entries": [{"k": 1, "q": 0, "re": 0.1}]}
        with pytest.raises(ValidationError, match="k, q, re, im"):
            load_tensor(write(tmp_path, "fields.json", doc))

    def test_out_of_range_rank(self, tmp_path):
        doc = {"schema_version": 1, "j_doubled": 2, "entries": [{"k": 5, "q": 0, "re": 0.1, "im": 0.0}]}
        with pytest.raises(ValidationError, match="rank"):
            load_tensor(write(tmp_path, "rank.json", doc))


class TestExpansionFile:
    def test_loads_and_validates_reality(self, tmp_path):
        a = 1.0 / math.sqrt(4.0 * math.pi)
        good = {
            "schema_version": 1,
            "l_max": 1,
            "coeffs": [
                {"l": 0, "m": 0, "re": a, "im": 0.0},
                {"l": 1, "m": 0, "re": 0.2, "im": 0.0},
            ],
        }
        lam = load_expansion(write(tmp_path, "e.json", good))
        assert lam.l_max == 1
        assert lam.item(1, 0) == pytest.approx(0.2)
        bad = {
            "schema_version": 1,
            "l_max": 1,
            "coeffs": [
                {"l": 0, "m": 0, "re": a, "im": 0.0},
                {"l": 1, "m": 1, "re": 0.2, "im": 0.0},
            ],
        }
        with pytest.raises(ValidationError, match="reality"):
            load_expansion(write(tmp_path, "bad.json", bad))

    def test_duplicate_coefficient(self, tmp_path):
        doc = {
            "schema_version": 1,
            "l_max": 0,
            "coeffs": [
                {"l": 0, "m": 0, "re": 0.1, "im": 0.0},
                {"l": 0, "m": 0, "re": 0.1, "im": 0.0},
            ],
        }
        with pytest.raises(ValidationError, match="duplicate"):
            load_expansion(write(tmp_path, "dup.json", doc))


@pytest.mark.parametrize(
    "load, head, field, noun, a, b",
    [
        (load_tensor, {"j_doubled": 2}, "entries", "entry", "k", "q"),
        (load_expansion, {"l_max": 1}, "coeffs", "coefficient", "l", "m"),
    ],
)
def test_entry_list_messages(tmp_path, load, head, field, noun, a, b):
    # the two entry-list schemas share one reader; each keeps its own wording
    def reject(entries, message):
        doc = {"schema_version": 1, **head, field: entries}
        with pytest.raises(ValidationError) as caught:
            load(write(tmp_path, "doc.json", doc))
        assert str(caught.value) == message

    one = {a: 1, b: 0, "re": 0.1, "im": 0.0}
    reject({}, f"{field} must be a list")
    reject([one, {a: 1, b: 0, "re": 0.1}], f"{noun} 1 must have exactly the fields {a}, {b}, re, im")
    reject([one, one], f"duplicate {noun} for {a} = 1, {b} = 0")
    reject([{**one, b: 0.5}], f"{b} must be an integer, got 0.5")
    reject([{**one, "im": "x"}], "im must be a number, got 'x'")


class TestDetectKind:
    def test_each_schema(self, tmp_path):
        rng = np.random.default_rng(47)
        rho = SpinDensityMatrix(h(1), random_density(rng, 2))
        cases = {
            "state": dump_state(rho),
            "tensor": dump_tensor(rho_to_t(rho)),
            "ensemble": {"schema_version": 1, "n_qubits": 1, "terms": []},
            "expansion": {"schema_version": 1, "l_max": 0, "coeffs": []},
        }
        for kind, doc in cases.items():
            assert detect_kind(write(tmp_path, f"{kind}.json", doc)) == kind

    def test_no_match(self, tmp_path):
        with pytest.raises(ValidationError, match="no known schema"):
            detect_kind(write(tmp_path, "x.json", {"schema_version": 1}))

    def test_missing_file(self):
        with pytest.raises(ValidationError, match="cannot read"):
            detect_kind("/nonexistent/state.json")

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        with pytest.raises(ValidationError, match="not valid JSON"):
            detect_kind(p)

    def test_non_object_top_level(self, tmp_path):
        p = tmp_path / "list.json"
        p.write_text("[1, 2]")
        with pytest.raises(ValidationError, match="object"):
            detect_kind(p)

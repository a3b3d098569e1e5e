"""The one complex-value format of records.py, in JSON, CSV and the states file."""

import ast
import json
import math
from pathlib import Path

import pytest

from worldlineqm.cli import run
from worldlineqm.records import ResultRecord, decode_value, emit, encode_value, load_record

SRC = Path(__file__).resolve().parents[1] / "src" / "worldlineqm"


def _round_trip(tmp_path, outputs):
    path = tmp_path / "r.json"
    emit(ResultRecord("kernel", inputs={}, outputs=outputs), path, "json")
    return json.loads(path.read_text(encoding="utf-8")), load_record(path).outputs


def test_a_real_two_vector_round_trips_as_a_list(tmp_path):
    # a list of two numbers was read back as the complex 0.5+1.5j
    raw, loaded = _round_trip(tmp_path, {"vector": [0.5, 1.5], "ints": [1, 2]})
    assert raw["outputs"]["vector"] == [0.5, 1.5]
    assert loaded == {"vector": [0.5, 1.5], "ints": [1, 2]}


@pytest.mark.parametrize("value", [0.25 - 0.5j, complex(-0.0, 1e-300), complex(1e308, -0.0),
                                   complex(float("inf"), 2.0), 0j])
def test_a_complex_value_round_trips_exactly(tmp_path, value):
    raw, loaded = _round_trip(tmp_path, {"value": value, "nested": [{"z": value}]})
    # a non-finite part is written as its string ("inf"), so the record is standard JSON
    parts = [part if math.isfinite(part) else repr(part) for part in (value.real, value.imag)]
    assert raw["outputs"]["value"] == {"re": parts[0], "im": parts[1]}
    got = loaded["value"]
    assert type(got) is complex
    assert (repr(got.real), repr(got.imag)) == (repr(value.real), repr(value.imag))
    assert loaded["nested"] == [{"z": value}]


def test_only_the_exact_object_decodes_to_complex():
    assert decode_value({"re": 1.0, "im": -2.0}) == 1.0 - 2.0j
    for value in ({"re": 1.0}, {"re": 1.0, "im": 2.0, "tag": "x"}, [1.0, 2.0]):
        assert decode_value(value) == value
    assert encode_value((1j, 2.0)) == [{"re": 0.0, "im": 1.0}, 2.0]


def test_csv_splits_each_complex_cell(tmp_path):
    record = ResultRecord("kernel", inputs={},
                          outputs={"value": 1 - 2j, "count": 3, "closed_form": 0.5j})
    out = tmp_path / "r.csv"
    emit(record, out, "csv")
    assert out.read_text(encoding="utf-8") == (
        "closed_form_re,closed_form_im,count,value_re,value_im\n0.0,0.5,3,1.0,-2.0\n")


def _states(tmp_path, coefficient):
    payload = {"types": {"A": {"mass": 1.0}},
               "bra": {"entries": [{"site": [0, 1], "type": "A"}], "coefficient": coefficient},
               "ket": {"entries": [{"site": [1, 1], "type": "A"}]}}
    path = tmp_path / "states.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def test_states_coefficient_is_the_record_object(tmp_path):
    values = []
    for coefficient in ({"re": 1.0, "im": 0.0}, {"re": 0.0, "im": 2.0}):
        out = tmp_path / "fock.json"
        assert run(["fock", "--states", str(_states(tmp_path, coefficient)),
                    "--output", str(out)]) == 0
        values.append(load_record(out).outputs["inner_product"])
    assert values[0] != 0 and values[1] == 2j * values[0]


@pytest.mark.parametrize("coefficient, message", [
    ([1.0, 0.0], "states.bra.coefficient must be a JSON object"),
    ({"re": 1.0, "im": "x"}, "states.bra.coefficient.im must be a number"),
    ({"re": 1.0, "im": float("nan")}, "states.bra.coefficient.im must not be NaN"),
    ({"re": 1.0}, "states.bra.coefficient needs the key 'im'"),
], ids=["old_list", "text", "nan", "missing_im"])
def test_a_malformed_coefficient_exits_2(capsys, tmp_path, coefficient, message):
    out = tmp_path / "fock.json"
    assert run(["fock", "--states", str(_states(tmp_path, coefficient)),
                "--output", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def _complex_format_strings(path):
    return [node.value for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and (node.value in ("re", "im") or node.value.endswith(("_re", "_im")))]


def test_records_is_the_one_owner_of_the_complex_format():
    users = {path.name: _complex_format_strings(path) for path in sorted(SRC.glob("*.py"))}
    assert users.pop("records.py")
    assert {name: found for name, found in users.items() if found} == {}


def _no_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_an_infinite_input_writes_standard_json(tmp_path):
    # the cutoff was written as the bare token Infinity, which strict parsers reject
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert run(["selfenergy", "--dim", "2", "--cutoff", "inf", "--output", str(first)]) == 0
    text = first.read_text(encoding="utf-8")
    raw = json.loads(text, parse_constant=_no_constant)
    assert raw["inputs"]["cutoff"] == "inf"
    reloaded = tmp_path / "reloaded.json"
    emit(load_record(first), reloaded, "json")
    assert reloaded.read_text(encoding="utf-8") == text
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw["inputs"]), encoding="utf-8")
    assert run(["selfenergy", "--config", str(config), "--output", str(second)]) == 0
    assert second.read_text(encoding="utf-8") == text


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_a_nonfinite_output_round_trips_as_its_string(tmp_path, value):
    raw, loaded = _round_trip(tmp_path, {"x": value, "z": complex(value, 1.0), "s": repr(value)})
    assert raw["outputs"]["x"] == repr(value)
    assert repr(loaded["x"]) == repr(value) and repr(loaded["z"]) == repr(complex(value, 1.0))
    assert type(loaded["s"]) is float  # the string is the float's encoding, so it decodes

"""The CLI's records pinned by the golden records in tests/golden/.

Each case's config is rerun and compared with its committed records: keys,
structure, inputs and strings exactly, numbers to 1e-12 relative, or to the
route's oracle tolerance where that is looser.  After a deliberate change,
`PYTHONPATH=src python tests/golden/regenerate.py` rewrites the records that
fail this comparison and prints every value that failed.
"""

import json

import pytest

from golden.regenerate import cases, differences, failures, records, refresh, run

CASES = [(case, path) for case in cases() for path in records(case)]
IDS = [path.name for _, path in CASES]


@pytest.mark.parametrize("case, path", CASES, ids=IDS)
def test_record_matches_its_golden_record(case, path):
    assert failures(case, run(case, path.suffix[1:]), path) == []


@pytest.mark.parametrize("case, path", CASES, ids=IDS)
def test_two_runs_in_one_process_give_identical_bytes(case, path):
    fmt = path.suffix[1:]
    assert run(case, fmt) == run(case, fmt)


def test_every_subcommand_has_a_golden_record():
    from worldlineqm.cli import PARAMETERS
    assert {case.split("-")[0] for case in cases()} == set(PARAMETERS)


def test_differences_names_each_kind_of_change():
    want = {"inputs": {"p": "0,1"}, "outputs": {"v": [1.0, 0.5], "n": 2, "r": "cutoff"}}
    assert list(differences(want, want)) == []
    moved = {"inputs": {"p": "0,1"}, "outputs": {"v": [1.0, 0.5 + 1e-13], "n": 2, "r": "cutoff"}}
    assert list(differences(moved, want, rtol=1e-12)) == []
    assert [d[0] for d in differences(moved, want)] == ["record.outputs.v"]
    changed = {"inputs": {"p": "0,1.0"}, "outputs": {"v": [1.0, 0.5], "n": 3, "r": "lambda"}}
    assert [d[0] for d in differences(changed, want, rtol=1.0)] == [
        "record.inputs", "record.outputs.n", "record.outputs.r"]
    assert [d[0] for d in differences({"inputs": {"p": "0,1"}, "outputs": {}}, want)] == [
        "record.outputs"]
    mixed = {"inputs": {"p": "0,1"}, "outputs": {"v": [1.0, "x"], "n": 2, "r": "cutoff"}}
    assert [d[0] for d in differences(mixed, want)] == ["record.outputs.v"]


def test_regenerate_rewrites_only_the_records_that_fail(tmp_path):
    # a move inside the tolerance keeps the record's bytes; a changed input
    # or a move past the tolerance rewrites it with the new text
    golden = records("evolve")[0]
    path = tmp_path / golden.name
    record = json.loads(golden.read_text(encoding="utf-8"))

    def text(**outputs):
        return json.dumps({**record, "outputs": {**record["outputs"], **outputs}})

    inside = text(norm_drift=record["outputs"]["norm_drift"] + 5e-13)
    path.write_bytes(golden.read_bytes())
    assert refresh("evolve", path, inside) == []
    assert path.read_bytes() == golden.read_bytes()
    outside = text(norm_drift=record["outputs"]["norm_drift"] + 1e-11)
    assert [d[0] for d in refresh("evolve", path, outside)] == ["record.outputs"]
    assert path.read_text(encoding="utf-8") == outside
    changed = json.dumps({**json.loads(outside), "inputs": {**record["inputs"], "steps": 51}})
    assert [d[0] for d in refresh("evolve", path, changed)] == ["record.inputs"]
    assert path.read_text(encoding="utf-8") == changed
    fresh = tmp_path / "new.record.json"
    assert refresh("evolve", fresh, changed) == [] and fresh.read_text(encoding="utf-8") == changed

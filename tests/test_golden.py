"""The CLI's records pinned by the golden records in tests/golden/.

Each case's config is rerun and compared with its committed records: keys,
structure, inputs and strings exactly, numbers to 1e-12 relative, or to the
route's oracle tolerance where that is looser.  After a deliberate change,
`PYTHONPATH=src python tests/golden/regenerate.py` rewrites the records and
prints every value that moved.
"""

import pytest

from golden.regenerate import cases, differences, parse, records, run

# routes whose oracle tolerance is looser than 1e-12: (rtol, atol)
TOLERANCES = {
    "evolve": (1e-12, 1e-12),  # norm conservation, an absolute 1e-12
    "propagator-position-euclidean": (1e-9, 0.0),  # K_0(m r) / 2 pi at 1e-9
    "propagator-position-minkowski": (1e-8, 0.0),  # reference values at 1e-8
    "selfenergy-mass-spectrum": (1e-10, 0.0),  # per-node bubbles at 1e-10
}
CASES = [(case, path) for case in cases() for path in records(case)]
IDS = [path.name for _, path in CASES]


@pytest.mark.parametrize("case, path", CASES, ids=IDS)
def test_record_matches_its_golden_record(case, path):
    fmt = path.suffix[1:]
    rtol, atol = TOLERANCES.get(case, (1e-12, 0.0))
    got = parse(run(case, fmt), fmt)
    want = parse(path.read_text(encoding="utf-8"), fmt)
    assert list(differences(got, want, rtol, atol)) == []


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

"""Every benchmark workload runs its cases against the library with no
unexpected failed check.

The workloads call library functions positionally, so a signature change
that breaks a call in bench/ fails here, in the test suite, and not only in
a benchmark run.  Each workload declared in BENCHMARK.json runs its
`setup(seed, "tiny", workdir)` and its CASES in-process through
bench/checks.Checks, from the repository root; the bench files are only read.
Known defects (checks.KNOWN_DEFECTS) are counted apart, as the benchmark does.
The `spectral` pass is also held to its budget of full-grid transforms.
"""

import importlib
import json
from pathlib import Path

import pytest
from test_evolution import _count_transforms

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _run_cases(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    monkeypatch.chdir(ROOT)
    checks = importlib.import_module("checks")
    module = importlib.import_module(workload)
    ctx = module.setup(3, "tiny", tmp_path)
    chk = checks.Checks()
    try:
        for name, case in module.CASES:
            chk.run_case(f"{workload}.{name}", case, ctx)
    finally:
        if hasattr(module, "teardown"):
            module.teardown(ctx)
    return chk.summary()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_bench_workload_cases_pass(workload, tmp_path, monkeypatch):
    summary = _run_cases(workload, tmp_path, monkeypatch)
    assert summary["attempted"] > 0
    assert summary["failed"] == 0, summary["failures"]


def test_the_spectral_pass_runs_no_full_grid_transform(tmp_path, monkeypatch):
    # the packet is born as D one-axis spectra and its evolution keeps them
    # so, so setup and cases run no full-grid fftn, and the positions read by
    # the group-property check come from 1-D iffts, not from an ifftn
    calls = _count_transforms(monkeypatch)
    summary = _run_cases("spectral", tmp_path, monkeypatch)
    assert summary["failed"] == 0, summary["failures"]
    assert calls == {"fftn": 0, "ifftn": 0}

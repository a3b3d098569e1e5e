"""Tests of the benchmark itself (not part of the library's tier-1 suite).

    python3 -m pytest -q bench/test_bench.py

Every workload runs at a tiny size through the same entry point as a real
run; negative controls perturb one library result in-process and require
the pass to report a failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def last_json(proc) -> dict:
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.per_layer_units()
    assert SPEC["command"] == ["python3", "bench/run.py"] and SPEC["paths"] == ["bench"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_passes_its_oracles(workload):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0",
                 "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    result = last_json(proc)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 5
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "failed_frac" in proc.stdout and "note:" in proc.stdout
    if workload == "cli_batch":
        assert "FAILED (known defect) cli.scatter_d3.roundtrip" in proc.stdout


def test_tiny_traced_run_reports_every_layer_metric():
    proc = bench("--workload", "cli_batch", "--seed", "4", "--seconds", "1", "--trace", "1",
                 "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc)
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == tracing.per_layer_units()
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["cli.kernel.p50_ms"] > 0 and metrics["records.emit.bytes"] > 0
    assert metrics["trace.accounted_frac"] > 0.99


def test_traced_pass_counts_layers_and_restores_the_library():
    from worldlineqm import evolution, lattice
    original = lattice.spectral_transform
    result = worker.run_pass("spectral", 5, "tiny", True, perf_counter(), [])
    steps = 3
    layers = result["layers"]
    assert layers["evolution.evolve.calls"] == steps + 1
    # two transforms per step, one per residual probe
    assert layers["lattice.spectral_transform.calls"] == 2 * (steps + 1) + 2
    assert layers["lattice.p_squared.calls"] == (steps + 1) + 4 + 2
    assert lattice.spectral_transform is original
    assert evolution.spectral_transform is original


PERTURBATIONS = {
    "spectral": ("evolution", "evolve", lambda out: type(out)(
        type(out.field)(out.field.spec, out.field.values * (1 + 1e-9)), out.lam, out.mass)),
    "sector": ("fock", "permanent_ryser", lambda out: out * (1 + 1e-6)),
    "proper_time": ("kernel", "kernel_discretized", lambda out: out * (1 + 1e-8)),
    "cli_batch": ("kernel", "kernel_closed", lambda out: out * (1 + 1e-8)),
}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_negative_control_raises_failed_frac(workload, monkeypatch):
    import importlib
    module_name, attr, perturb = PERTURBATIONS[workload]
    module = importlib.import_module(f"worldlineqm.{module_name}")
    original = getattr(module, attr)
    clean = worker.run_pass(workload, 6, "tiny", False, perf_counter(), [])
    assert clean["failed"] == 0
    monkeypatch.setattr(module, attr, lambda *a, **k: perturb(original(*a, **k)))
    broken = worker.run_pass(workload, 6, "tiny", False, perf_counter(), [])
    assert broken["failed"] >= 1
    assert broken["attempted"] == clean["attempted"]


def test_host_speed_correction_scales_gaps_by_probe_time():
    import hostspeed
    speed = hostspeed.HostSpeed.__new__(hostspeed.HostSpeed)
    ref = hostspeed.REF_PROBE_S
    # probes at 0, 1, 2 s; the host runs at half speed throughout
    speed.samples = [(t, 2 * ref) for t in (0.0, 1.0, 2.0)]
    raw, corrected = speed.window(0.5, 1.5)
    assert raw == pytest.approx(1.0 - 2 * ref)  # the probe at 1 s is not work
    assert corrected == pytest.approx(raw / 2)
    # before the first and after the last probe the nearest speed holds
    assert speed.window(-1.0, 0.0) == pytest.approx((1.0, 0.5))
    assert speed.window(3.0, 4.0) == pytest.approx((1.0, 0.5))


def test_untraced_pass_reports_corrected_and_raw_times():
    import hostspeed
    speed = hostspeed.HostSpeed()
    speed.start()
    try:
        result = worker.run_pass("cli_batch", 7, "tiny", False, perf_counter(), [], speed)
    finally:
        speed.stop()
    assert result["failed"] == 0 and result["probe_ms"] > 0
    assert 0 < result["raw_wall_s"] and 0 < result["raw_setup_s"] < 60
    ratio = result["wall_s"] / result["raw_wall_s"]
    assert 1 / 5 < ratio < 5


def test_known_defect_is_reported_apart_from_failures():
    name = next(iter(checks.KNOWN_DEFECTS))
    chk = checks.Checks()
    chk.record(name, False, "differs")
    chk.record("other", True)
    summary = chk.summary()
    assert (summary["attempted"], summary["failed"], summary["known_defects"]) == (2, 0, 1)
    fixed = checks.Checks()
    fixed.record(name, True)
    assert fixed.summary()["no_longer_reproducing"] == [name]


def test_raising_case_is_a_failed_check():
    chk = checks.Checks()
    chk.run_case("boom", lambda c: 1 / 0)
    assert chk.summary()["failed"] == 1


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "spectral", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

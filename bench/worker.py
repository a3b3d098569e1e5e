"""One benchmark pass in a fresh interpreter: set up, run every case once, report.

Started by run.py, one process at a time.  Prints one JSON object as its
last line of standard output.  Setup (import, input generation, oracles) is
outside the timed pass; the pass runs the workload's cases in order, each
starting when the previous one returns, with no warm-up.  Untraced passes
time a host-speed probe throughout (hostspeed.py) and report wall_s and
setup_s corrected to the reference host speed, next to the raw times.

    python3 bench/worker.py --workload spectral --seed 1 --size full \
        --trace 0 --spawned-at <perf_counter of the parent at spawn>
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import resource
import sys
import warnings
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def import_library():
    """Import worldlineqm from this checkout's src/ and nowhere else."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import worldlineqm
    origin = Path(worldlineqm.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise SystemExit(f"worldlineqm imported from {origin}, not from {ROOT / 'src'}")
    return worldlineqm


def run_pass(workload: str, seed: int, size: str, trace: bool, spawned_at: float,
             warning_log: list, speed=None, setup_only: bool = False) -> dict:
    """Set up and run one pass.  With a started HostSpeed `speed`, wall_s and
    setup_s are corrected to the reference host speed and the raw times are
    reported beside them; without one (the traced pass) both are raw."""
    from checks import Checks

    import_library()
    module = importlib.import_module(workload)
    workdir = ROOT / ".bench_out" / f"{workload}_{os.getpid()}"
    ctx = module.setup(seed, size, workdir)
    setup_end = perf_counter()
    if speed:
        speed.sample()  # bounds the set-up window; outside both windows
        raw_setup, setup_s = speed.window(spawned_at, setup_end)
    else:
        raw_setup = setup_s = setup_end - spawned_at
    if setup_only:
        if hasattr(module, "teardown"):
            module.teardown(ctx)
        return {"setup_s": setup_s, "raw_setup_s": raw_setup}
    from tracing import ROOT_SPAN, Tracer
    tracer = None
    if trace:
        tracer = Tracer(f"{workload}-seed{seed}-pid{os.getpid()}", warning_log)
        tracer.install()
    span = tracer.span if tracer else lambda name: contextlib.nullcontext()
    chk = Checks()
    warnings_before = len(warning_log)
    cpu0 = _cpu_seconds()
    t0 = perf_counter()
    try:
        with span(ROOT_SPAN):
            for name, case in module.CASES:
                with span(f"case.{name}"):
                    chk.run_case(f"{workload}.{name}", case, ctx)
    finally:
        t1 = perf_counter()
        cpu = _cpu_seconds() - cpu0
        if speed:
            speed.sample()
            speed.stop()
            raw_wall, wall = speed.window(t0, t1)
            cpu -= (t1 - t0) - raw_wall  # the probes' own time, single-threaded
        else:
            raw_wall = wall = t1 - t0
        if tracer:
            tracer.uninstall()
        if hasattr(module, "teardown"):
            module.teardown(ctx)
    pass_warnings = warning_log[warnings_before:]
    from scipy.integrate import IntegrationWarning
    result = {
        "wall_s": wall,
        "raw_wall_s": raw_wall,
        "setup_s": setup_s,
        "raw_setup_s": raw_setup,
        "probe_ms": 1e3 * speed.median_probe_s(t0, t1) if speed else None,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "integration_warnings": sum(issubclass(w.category, IntegrationWarning)
                                    for w in pass_warnings),
        "other_warnings": sum(not issubclass(w.category, IntegrationWarning)
                              for w in pass_warnings),
        **chk.summary(),
    }
    if tracer:
        from tracing import layer_metrics, top_self_times
        result["layers"] = layer_metrics(tracer)
        result["top_self"] = top_self_times(tracer)
        spans_path = ROOT / ".bench_out" / f"spans_{workload}_seed{seed}.jsonl"
        spans_path.parent.mkdir(exist_ok=True)
        tracer.dump(spans_path)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload module of bench/")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after setup and report setup_s only")
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    # capture every warning so the benchmark's stderr stays clean; they are counted
    with warnings.catch_warnings(record=True) as log:
        warnings.simplefilter("always")
        speed = None
        if not args.trace:  # the traced pass reports raw times
            from hostspeed import HostSpeed
            speed = HostSpeed()
            speed.start()
        try:
            result = run_pass(args.workload, args.seed, args.size, bool(args.trace),
                              args.spawned_at, log, speed, args.setup_only)
        finally:
            if speed:
                speed.stop()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

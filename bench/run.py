"""worldlineqm benchmark: one workload per run, every pass checked against its oracles.

    python3 bench/run.py --workload {spectral,sector,proper_time,cli_batch} \
        --seed N --seconds S --trace {0,1} [--size {full,tiny}]

Run from anywhere; the library is imported from this checkout's src/.  A
run is a closed loop with one caller: passes run one after another, each in
a fresh single-process interpreter (bench/worker.py) that pays every cold
cost again, with BLAS threads capped at nproc.  No new pass starts once the
next one would end after --seconds.  At least one pass always runs.

--trace 0 reports the end-to-end metrics as medians over the passes:
  wall_s       time of the timed pass, input to checked answer, corrected to
               the reference host speed (s; see hostspeed.py)
  setup_s      process spawn until the timed pass begins: interpreter start,
               import, input generation and oracles, corrected likewise (s)
  peak_rss_mb  ru_maxrss of the pass's process (MiB)
  failed_frac  failed checks / checks attempted; printed with both counts
--trace 1 runs one untraced pass, then one pass with spans around every
layer (bench/tracing.py), and reports the per-layer metrics of the traced
pass and the tracing overhead (traced wall - untraced raw median).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  `failed` counts unexpected
failures; the known defects of checks.KNOWN_DEFECTS are reported by name
above it and in failed_frac, not in `failed`.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from hostspeed import REF_PROBE_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("spectral", "sector", "proper_time", "cli_batch")
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
RUN_LIMIT_S = 170.0  # the whole run ends within this, whatever --seconds says
SETUPS = 3  # set-up times per run, taken from extra set-up-only runs if passes are fewer
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def child_env() -> dict:
    env = dict(os.environ)
    cores = nproc()
    for var in THREAD_VARS:
        try:
            threads = int(env.get(var, cores))
        except ValueError:
            threads = cores
        env[var] = str(min(max(threads, 1), cores))
    env["PYTHONHASHSEED"] = "0"
    return env


def commit() -> str:
    """HEAD of the checkout if it is a git work tree, else a note saying it is not."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(env: dict) -> list[str]:
    versions = subprocess.run(
        [sys.executable, "-c", "import numpy, scipy; print(numpy.__version__, scipy.__version__)"],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=60).stdout.split()
    numpy_v, scipy_v = versions if len(versions) == 2 else ("?", "?")
    threads = ", ".join(f"{v}={env[v]}" for v in THREAD_VARS)
    return [
        f"environment: commit {commit()}, src sha256 {source_digest()}",
        f"environment: nproc {nproc()}, cpu {cpu_model()}, python {platform.python_version()}, "
        f"numpy {numpy_v}, scipy {scipy_v}",
        f"environment: blas threads {threads}; fft threads 1 (numpy.fft pocketfft)",
        f"note: {nproc()} vCPU shared VM, no perf counters; "
        "flops/bytes are computed from array sizes, not measured",
    ]


def run_worker(workload, seed, size, trace, env, timeout, setup_only=False) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--size", size, "--trace", str(int(trace))]
    if setup_only:
        cmd.append("--setup-only")
    spawned = perf_counter()  # CLOCK_MONOTONIC: comparable across processes
    proc = subprocess.run(cmd + ["--spawned-at", repr(spawned)], capture_output=True,
                          text=True, env=env, cwd=ROOT, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"pass of {workload} exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    result["elapsed_s"] = perf_counter() - spawned
    return result


def run_passes(args, env) -> tuple[list[dict], dict | None, list[dict]]:
    """Untraced passes (and one traced pass with --trace 1) within --seconds,
    then set-up-only runs until SETUPS set-up times are known."""
    start = perf_counter()
    plain, traced = [], None
    while True:
        elapsed = perf_counter() - start
        want_trace = bool(args.trace and traced is None and plain)
        budget = RUN_LIMIT_S - elapsed
        result = run_worker(args.workload, args.seed, args.size, want_trace, env, budget)
        if want_trace:
            traced = result
        else:
            plain.append(result)
        elapsed = perf_counter() - start
        typical = statistics.median(r["elapsed_s"] for r in plain)
        if args.trace and traced is None:
            continue
        if elapsed + typical > min(args.seconds, RUN_LIMIT_S):
            break
    setups = list(plain)
    while len(setups) < SETUPS:
        budget = RUN_LIMIT_S - (perf_counter() - start)
        setups.append(run_worker(args.workload, args.seed, args.size, False, env, budget,
                                 setup_only=True))
    return plain, traced, setups


def report(args, plain, traced, setup_runs, passes) -> dict:
    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    known = sum(r["known_defects"] for r in passes)
    n = len(plain)
    print(f"workload {args.workload}, seed {args.seed}, size {args.size}: {n} untraced "
          f"pass(es){' + 1 traced' if traced else ''}, closed loop, one caller")
    medians = {}
    for name, unit in END_TO_END.items():
        values = [r[name] for r in (setup_runs if name == "setup_s" else plain)]
        medians[name] = statistics.median(values)
        print(f"  {name} {medians[name]:.6g} {unit}  (median of {len(values)}: "
              + ", ".join(f"{v:.4g}" for v in values) + ")")
        if name in ("wall_s", "setup_s"):
            raw = [r[f"raw_{name}"] for r in (setup_runs if name == "setup_s" else plain)]
            print(f"    raw {name} before host-speed correction: median "
                  f"{statistics.median(raw):.6g} {unit}  ("
                  + ", ".join(f"{v:.4g}" for v in raw) + ")")
    print("  host probe per pass (ms, reference "
          f"{1e3 * REF_PROBE_S:.4g}): " + ", ".join(f"{r['probe_ms']:.4g}" for r in plain))
    print(f"  failed_frac {(failed + known) / attempted:.6g} ratio  ({failed + known} of "
          f"{attempted} checks failed: {failed} unexpected, {known} known defect)")
    for r in passes:
        for line in r["failures"]:
            print(f"  FAILED {line}")
    for line in sorted({k for r in passes for k in r["known"]}):
        print(f"  FAILED (known defect) {line}")
    for name in sorted({k for r in passes for k in r["no_longer_reproducing"]}):
        print(f"  known defect no longer reproduces: {name}")
    print(f"  scipy IntegrationWarnings per pass: {plain[0]['integration_warnings']}; "
          f"other warnings per pass: {plain[0]['other_warnings']}")
    if plain[0]["zscores"]:
        print("  Monte Carlo z-scores (first pass): "
              + ", ".join(f"{k} {v:+.2f}" for k, v in sorted(plain[0]["zscores"].items())))
    if not traced:
        return {name: {"value": medians[name], "unit": unit} for name, unit in END_TO_END.items()}

    from tracing import per_layer_units
    layers = dict(traced["layers"])
    raw_median = statistics.median(r["raw_wall_s"] for r in plain)
    layers["trace.overhead_s"] = traced["wall_s"] - raw_median
    layers["process.cpu_s"] = statistics.median(r["cpu_s"] for r in plain)
    print(f"  traced wall_s {traced['wall_s']:.6g} s, overhead {layers['trace.overhead_s']:+.4g} s; "
          f"non-root spans account for {layers['trace.accounted_frac']:.4%} of it; "
          f"spans in {traced['spans_file']}")
    print("  top self times (traced pass): "
          + "; ".join(f"{name} {calls}x {t:.4g}s" for name, calls, t in traced["top_self"]))
    units = per_layer_units()
    return {name: {"value": layers[name], "unit": unit} for name, unit in units.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs every case on small inputs (for the benchmark's tests)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "worldlineqm" / "__init__.py").is_file():
        print(f"error: no worldlineqm package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # byte-compile once so the first pass does not pay it in setup_s
    for directory in (ROOT / "src", BENCH):
        compileall.compile_dir(directory, quiet=2)
    env = child_env()
    for line in environment(env):
        print(line)
    try:
        plain, traced, setups = run_passes(args, env)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    passes = plain + ([traced] if traced else [])
    metrics = report(args, plain, traced, setups, passes)
    failed = sum(r["failed"] for r in passes)
    print(json.dumps({"correct": failed == 0, "attempted": sum(r["attempted"] for r in passes),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Workload `cli_batch`: a seeded parameter sweep through `worldlineqm.cli.run`.

Small inputs, so per-call overhead dominates: argparse, config merge, record
encode and emit, a p^2 rebuild per evolution step, tiny FFTs.  Every round
calls the 8 subcommands (13 calls: three kernel methods, three propagator
kinds, scatter in D=2 and D=3) on the committed configs in configs/, with
dlam, dx and p drawn per round.  Each record is reloaded with
records.load_record; its outputs are checked against an independent oracle
and its inputs against the parameters that went in.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from pathlib import Path

import numpy as np

from worldlineqm import cli, records

import oracles

SIZES = {"full": {"rounds": 20}, "tiny": {"rounds": 1}}
CONFIGS = Path(__file__).resolve().parent / "configs"
GRID_POINTS, GRID_SPACING = 9, 0.5


def _load(name: str) -> dict:
    return json.loads((CONFIGS / name).read_text(encoding="utf-8"))


def _fmt(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _scatter_legs(rng, d):
    """Two-in two-out momenta on the grid with total momentum conserved."""
    axis = GRID_SPACING * (np.arange(GRID_POINTS) - (GRID_POINTS - 1) / 2)
    while True:
        p1, p2, q1 = (rng.choice(axis, size=d) for _ in range(3))
        q2 = p1 + p2 - q1
        if np.all(np.abs(q2) <= axis[-1]):
            return [[float(x) for x in v] for v in (p1, p2, q1, q2)]


class Call:
    """One CLI invocation: argv, the inputs the record must echo, an oracle."""

    def __init__(self, label, sub, config, flags, check):
        self.label, self.sub, self.check = label, sub, check
        self.argv = [sub, "--config", str(config)]
        self.inputs = json.loads(Path(config).read_text(encoding="utf-8"))
        for key, value in flags.items():
            self.argv.append(f"--{key}={value}")  # '=' keeps '-0.5,...' a value
            self.inputs[key] = value


def setup(seed: int, size: str, workdir: Path) -> dict:
    rng = np.random.default_rng(seed)
    out_dir = workdir
    out_dir.mkdir(parents=True, exist_ok=True)
    fock_cfg = _load("fock.json")
    states = _load("fock_states.json")
    pairing = oracles.LatticePairing(
        (4, 4), (4.0, 4.0), {k: v["mass"] for k, v in states["types"].items()},
        {k: v["conjugate"] for k, v in states["types"].items()}, fock_cfg["epsilon"])
    entries = lambda side: [(tuple(e["site"]), e["type"]) for e in states[side]["entries"]]
    fock_oracle = pairing.brute_inner(entries("bra"), entries("ket"))
    scatter = _load("scatter.json")

    calls = []
    for r in range(SIZES[size]["rounds"]):
        dx = rng.uniform(-1.0, 1.0, 2)
        seed_mc = int(rng.integers(0, 2 ** 31))
        k_oracle = oracles.heat_kernel(dx, 1.0, 1.0)
        calls.append(Call("kernel_closed", "kernel", CONFIGS / "kernel.json",
                          {"dx": _fmt(dx), "method": "closed"},
                          lambda c, o, k=k_oracle: c.close("value", o["value"], k, 1e-10)))
        calls.append(Call("kernel_discretized", "kernel", CONFIGS / "kernel.json",
                          {"dx": _fmt(dx), "method": "discretized"},
                          lambda c, o, k=k_oracle: c.close("value", o["value"], k, 1e-10)))
        calls.append(Call("kernel_mc", "kernel", CONFIGS / "kernel.json",
                          {"dx": _fmt(dx), "method": "mc", "seed": seed_mc},
                          lambda c, o, k=k_oracle: c.zscore("value", o["value"], k, o["stderr"])))

        t, z = rng.uniform(-1.0, 1.0), rng.uniform(0.3, 1.5)
        e_oracle = oracles.euclidean_propagator_d2(float(np.hypot(t, z)), 1.0)
        calls.append(Call("propagator_position", "propagator", CONFIGS / "propagator.json",
                          {"kind": "position", "mode": "euclidean", "dx": _fmt((t, z)),
                           "epsilon": 1e-10},
                          lambda c, o, k=e_oracle: c.close("value", o["value"].real, k, 1e-6)))
        p = rng.uniform(-1.0, 1.0, 2)
        m_oracle = oracles.feynman_momentum(p, 1.0, 1e-3)
        calls.append(Call("propagator_momentum", "propagator", CONFIGS / "propagator.json",
                          {"kind": "momentum", "p": _fmt(p), "epsilon": 1e-3},
                          lambda c, o, k=m_oracle: c.close("value", o["value"], k, 1e-12)))
        sign = int(rng.choice([-1, 1]))
        dt, r_ = rng.uniform(0.2, 1.5), rng.uniform(-1.0, 1.0)
        s_oracle = oracles.onshell_part_d2(dt, r_, 1.0, sign, 1e-2)
        calls.append(Call("propagator_onshell", "propagator", CONFIGS / "propagator.json",
                          {"kind": "onshell-part", "dx": _fmt((dt, r_)), "sign": sign,
                           "damping": 1e-2},
                          lambda c, o, k=s_oracle: c.close("value", o["value"], k, 1e-10)))

        dlam = float(rng.uniform(0.005, 0.05))
        lam_final = 100 * dlam

        def check_evolve(c, o, lam=lam_final):
            c.below("norm_drift", o["norm_drift"], 1e-12)
            c.close("norm", o["norm_initial"], 1.0, 1e-12)
            c.close("lambda", o["lambda_final"], lam, 1e-12)
        calls.append(Call("evolve", "evolve", CONFIGS / "evolve.json", {"dlam": dlam}, check_evolve))

        p1 = float(rng.uniform(-1.0, 1.0))
        conc = (2 / np.pi) * np.arctan(1.0 / 1e-2)

        def check_onshell(c, o, e=float(np.hypot(p1, 1.0))):
            c.close("energy", o["energy"], e, 1e-12)
            c.close("concentration", o["concentration"], conc, 1e-2)
        calls.append(Call("onshell", "onshell", CONFIGS / "onshell.json", {"p": repr(p1)},
                          check_onshell))

        calls.append(Call("fock", "fock", CONFIGS / "fock.json", {},
                          lambda c, o: c.close("value", o["inner_product"], fock_oracle, 1e-12)))

        for d in (1, 2):
            legs = _scatter_legs(rng, d)
            config = dict(scatter, grid=dict(scatter["grid"], spatial_dimension=d),
                          incoming=[{"p": legs[0], "type": "A"}, {"p": legs[1], "type": "A"}],
                          outgoing=[{"p": legs[2], "type": "A"}, {"p": legs[3], "type": "A"}])
            path = out_dir / f"scatter_d{d + 1}_{r}.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            amp = oracles.tree_2to2(legs[:2], legs[2:], config["coupling"], config["mass_a"],
                                    config["mass_b"], config["epsilon"])
            calls.append(Call(f"scatter_d{d + 1}", "scatter", path, {},
                              lambda c, o, k=amp: c.close("value", o["amplitude"], k, 1e-10)))

        pe = rng.uniform(-0.5, 0.5, 2)
        b_oracle = oracles.bubble_d2(float(pe @ pe), 1.0)
        calls.append(Call("selfenergy", "selfenergy", CONFIGS / "selfenergy.json", {"p": _fmt(pe)},
                          lambda c, o, k=b_oracle: c.close("value", o["value"].real, k, 1e-6)))

        def check_scan(c, o):
            c.record("r_squared", o["r_squared"] > 0.99, f"r^2 {o['r_squared']:.5f} > 0.99")
            c.close("slope", 2 * o["slope"], 2 * np.pi ** 2, 0.1)
        calls.append(Call("scan", "scan", CONFIGS / "scan.json", {}, check_scan))
    return {"calls": calls, "out_dir": out_dir}


class _Named:
    """Prefix every check name of one call with `cli.<label>.`."""

    def __init__(self, chk, prefix):
        self.chk, self.prefix = chk, prefix

    def __getattr__(self, attr):
        method = getattr(self.chk, attr)
        return lambda name, *args: method(f"{self.prefix}.{name}", *args)


def _run_call(chk, call, path):
    prefix = f"cli.{call.label}"
    # the CLI reports to stdout/stderr; keep the benchmark's own streams clean
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(call.argv + ["--output", str(path)])
    if not chk.record(f"{prefix}.exit", code == 0, f"exit code {code}"):
        return
    record = records.load_record(path)
    call.check(_Named(chk, prefix), record.outputs)
    chk.record(f"{prefix}.roundtrip", record.subcommand == call.sub and record.inputs == call.inputs,
               "" if record.inputs == call.inputs else "record inputs differ from the parameters written")


def case_sweep(chk, ctx):
    for i, call in enumerate(ctx["calls"]):
        chk.run_case(f"cli.{call.label}", _run_call, call, ctx["out_dir"] / f"{i:04d}_{call.label}.json")


def teardown(ctx):
    shutil.rmtree(ctx["out_dir"], ignore_errors=True)


CASES = (("sweep", case_sweep),)

"""Spans and counters around the library's layers, installed from outside.

The package source is not touched: `install` replaces each traced function
with a wrapper in every worldlineqm module namespace that holds it (a name
imported with `from .lattice import spectral_transform` is a separate
binding), and each traced method on its class, so nested layer calls
become child spans.  Functions called more than ~1e4 times per pass are
counted, not spanned.  `geometry` gets no span: FourVector is built
everywhere and its cost stays in the callers' self time.
scipy.integrate.quad is wrapped too; its calls, integrand evaluations and
IntegrationWarnings are attributed to the enclosing layer span.

Spans carry (name, start, end, parent, run id), are kept in memory and are
written out after the pass.  Self time is a span's duration minus that of
its direct children.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from math import log2
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy.integrate

ROOT_SPAN = "pass"


def _arg(args, kwargs, index, name, default):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


# (module, attribute, options).  Options: "name" overrides the span name,
# "count" counts calls only, "suffix" splits the span name by an argument,
# "attrs" records numbers from (args, kwargs, result) on the span.
LAYERS = (
    ("lattice", "spectral_transform", {"attrs": lambda a, k, r: {"sites": r.values.size}}),
    ("lattice", "LatticeSpec.p_squared", {"name": "lattice.p_squared"}),
    ("evolution", "evolve", {"attrs": lambda a, k, r: {"sites": r.field.values.size}}),
    ("evolution", "stueckelberg_residual", {}),
    ("onshell", "momentum_state_profile", {"attrs": lambda a, k, r: {"points": r.p0.size}}),
    ("onshell", "concentration", {}),
    ("kernel", "kernel_closed", {}),
    ("kernel", "kernel_discretized", {}),
    ("kernel", "kernel_mc", {
        "suffix": lambda a, k: "const" if _arg(a, k, 7, "mass_sq_fn", None) is None else "thinned",
        "attrs": lambda a, k, r: {"samples": r.samples, "stderr": r.stderr}}),
    ("kernel", "propagator_position", {"suffix": lambda a, k: _arg(a, k, 5, "mode", "euclidean")}),
    ("kernel", "propagator_momentum", {}),
    ("kernel", "propagator_onshell_part", {}),
    ("kernel", "kernel_mass_superposition", {}),
    ("kernel", "euclidean_mass_propagator_batch", {}),
    ("kernel", "lattice_momentum_phase", {}),
    ("kernel", "lattice_propagator", {}),
    ("kernel", "lattice_onshell_part", {}),
    ("paths", "action", {}),
    ("paths", "action_restrict", {}),
    ("regularization", "self_energy_regulated", {
        "suffix": lambda a, k: _arg(a, k, 5, "route", "lambda").replace("-", "_")}),
    ("regularization", "divergence_scan", {}),
    ("interaction", "self_energy_unregulated", {}),
    ("interaction", "Sector.__post_init__", {
        "name": "interaction.Sector", "attrs": lambda a, k, r: {"dimension": a[0].dimension}}),
    ("interaction", "represent", {"attrs": lambda a, k, r: {
        "nnz": int(np.count_nonzero(r.matrix)), "leaky_columns": len(r.leaky_columns)}}),
    ("interaction", "dyson_truncated", {"attrs": lambda a, k, r: {
        "n": r.sector.dimension, "order": r.order}}),
    ("interaction", "DysonOperator.unitarity_residual_orders", {}),
    ("interaction", "amplitude_order_m", {}),
    ("interaction", "scatter_tree_2to2", {}),
    ("fock", "apply_generator", {"count": True}),
    ("fock", "FieldAlgebra.two_point", {"count": True}),
    ("fock", "fock_inner", {}),
    ("fock", "permanent_naive", {"name": "fock.permanent",
                                 "attrs": lambda a, k, r: {"n": len(a[0])}}),
    ("fock", "permanent_ryser", {"name": "fock.permanent",
                                 "attrs": lambda a, k, r: {"n": len(a[0])}}),
    ("cli", "run", {"attrs": lambda a, k, r: {"subcommand": a[0][0]}}),
    ("records", "emit", {"attrs": lambda a, k, r: {"bytes": _file_size(a[1])}}),
    ("records", "load_record", {}),
)


def _file_size(path) -> int:
    return Path(path).stat().st_size


class Tracer:
    """In-memory spans, call counters and per-parent quadrature counters."""

    def __init__(self, run_id: str, warning_log: list):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index, attrs]
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.quad: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        self.warning_log = warning_log
        self._restore: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        self.spans.append([name, perf_counter(), None, self.stack[-1] if self.stack else -1, {}])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, fn, name, suffix, attrs):
        def wrapper(*args, **kwargs):
            index = self.open(f"{name}.{suffix(args, kwargs)}" if suffix else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if attrs:
                self.spans[index][4] = attrs(args, kwargs, result)
            return result
        return wrapper

    def _count_wrapper(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _quad_wrapper(self, quad):
        def wrapper(func, *args, **kwargs):
            parent = self.spans[self.stack[-1]][0] if self.stack else ROOT_SPAN
            evals = [0]

            def counted(*a):
                evals[0] += 1
                return func(*a)
            seen = len(self.warning_log)
            try:
                return quad(counted, *args, **kwargs)
            finally:
                row = self.quad[parent]
                row[0] += 1
                row[1] += evals[0]
                row[2] += sum(issubclass(w.category, scipy.integrate.IntegrationWarning)
                              for w in self.warning_log[seen:])
        return wrapper

    def _patch(self, owner, attr, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        for module_name, _, _ in LAYERS:
            importlib.import_module(f"worldlineqm.{module_name}")
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "worldlineqm" or n.startswith("worldlineqm.")]
        for module_name, attr, opts in LAYERS:
            module = sys.modules[f"worldlineqm.{module_name}"]
            name = opts.get("name", f"{module_name}.{attr}")
            if opts.get("count"):
                make = lambda fn: self._count_wrapper(fn, name)
            else:
                make = lambda fn: self._span_wrapper(fn, name, opts.get("suffix"), opts.get("attrs"))
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, method, make(cls.__dict__[method]))
                continue
            original = getattr(module, attr)
            wrapper = make(original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapper)
        self._patch(scipy.integrate, "quad", self._quad_wrapper(scipy.integrate.quad))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "run": self.run_id,
                                     "attrs": attrs}) + "\n")


# -- per-layer metrics ---------------------------------------------------------

CLI_SUBCOMMANDS = ("kernel", "propagator", "evolve", "onshell", "fock", "scatter",
                   "selfenergy", "scan")
QUAD_PARENTS = ("kernel.propagator_position.euclidean", "kernel.propagator_position.minkowski",
                "kernel.propagator_onshell_part", "regularization.self_energy_regulated.lambda",
                "regularization.self_energy_regulated.mass_spectrum",
                "interaction.self_energy_unregulated")
PERMANENT_BUCKETS = ((1, 4), (5, 8), (9, 14))


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}

    def add(unit, *names):
        units.update({n: unit for n in names})

    add("count", "lattice.spectral_transform.calls")
    add("s", "lattice.spectral_transform.self_s")
    add("GFLOP/s", "lattice.spectral_transform.gflop_per_s_computed")
    add("count", "lattice.p_squared.calls")
    add("s", "lattice.p_squared.self_s")
    add("count", "evolution.evolve.calls")
    add("s", "evolution.evolve.self_s")
    add("1/s", "evolution.evolve.site_steps_per_s")
    add("s", "evolution.stueckelberg_residual.busy_s")
    add("s", "onshell.momentum_state_profile.busy_s")
    add("1/s", "onshell.momentum_state_profile.points_per_s")
    add("s", "onshell.concentration.busy_s")
    for split in ("const", "thinned"):
        add("s", f"kernel.kernel_mc.busy_s.{split}")
        add("1/s", f"kernel.kernel_mc.samples_per_s.{split}")
        add("s", f"kernel.kernel_mc.var_x_s.{split}")
    add("s", "kernel.propagator_position.euclidean.busy_s",
        "kernel.propagator_position.minkowski.busy_s", "kernel.propagator_onshell_part.busy_s",
        "kernel.kernel_mass_superposition.busy_s", "kernel.euclidean_mass_propagator_batch.self_s",
        "kernel.kernel_discretized.busy_s")
    add("count", "quad.calls", "quad.evals", "quad.warnings")
    for parent in QUAD_PARENTS:
        short = parent.split(".", 1)[1]
        add("count", f"quad.{short}.calls", f"quad.{short}.evals", f"quad.{short}.warnings")
    add("s", "regularization.self_energy_regulated.lambda.busy_s",
        "regularization.self_energy_regulated.mass_spectrum.busy_s",
        "regularization.divergence_scan.busy_s", "interaction.self_energy_unregulated.busy_s",
        "paths.action.busy_s", "interaction.Sector.busy_s")
    add("count", "interaction.Sector.dimension", "interaction.represent.calls")
    add("s", "interaction.represent.self_s")
    add("count", "interaction.represent.nnz", "interaction.represent.leaky_columns")
    add("s", "interaction.dyson_truncated.self_s",
        "interaction.DysonOperator.unitarity_residual_orders.busy_s")
    add("GFLOP", "interaction.dyson_truncated.matmul_gflop_computed")
    add("count", "fock.apply_generator.calls", "fock.FieldAlgebra.two_point.calls",
        "fock.fock_inner.calls")
    add("s", "fock.fock_inner.self_s")
    for lo, hi in PERMANENT_BUCKETS:
        add("count", f"fock.permanent.n{lo}-{hi}.calls")
        add("s", f"fock.permanent.n{lo}-{hi}.self_s")
    add("s", "interaction.amplitude_order_m.busy_s")
    add("count", "kernel.lattice_propagator.calls")
    add("s", "kernel.lattice_propagator.busy_s")
    add("count", "kernel.lattice_onshell_part.calls")
    add("s", "kernel.lattice_onshell_part.busy_s")
    add("s", "cli.run.self_s")
    for sub in CLI_SUBCOMMANDS:
        add("ms", f"cli.{sub}.p50_ms", f"cli.{sub}.p75_ms")
    add("s", "records.emit.busy_s")
    add("bytes", "records.emit.bytes")
    add("s", "records.load_record.busy_s")
    add("ratio", "trace.accounted_frac")
    add("s", "trace.wall_s", "trace.overhead_s", "process.cpu_s")
    return units


class _Layer:
    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.durations: list[float] = []
        self.attrs: list[dict] = []


def summarize(tracer: Tracer) -> dict[str, _Layer]:
    """Calls, busy time (outermost spans of a name) and self time per span name."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    layers: dict[str, _Layer] = defaultdict(_Layer)
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        layer = layers[name]
        duration = end - start
        layer.calls += 1
        layer.self_time += duration - child_time[i]
        layer.durations.append(duration)
        layer.attrs.append(attrs)
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            layer.busy += duration
    return layers


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced pass (all but the run-level ones)."""
    layers = summarize(tracer)
    get = lambda name: layers.get(name, _Layer())
    total = lambda name, key: sum(a.get(key, 0) for a in get(name).attrs)
    rate = lambda work, seconds: work / seconds if seconds > 0 else 0.0
    out = {}

    fft = get("lattice.spectral_transform")
    flops = sum(5 * a["sites"] * log2(a["sites"]) for a in fft.attrs)
    out["lattice.spectral_transform.calls"] = fft.calls
    out["lattice.spectral_transform.self_s"] = fft.self_time
    out["lattice.spectral_transform.gflop_per_s_computed"] = rate(flops / 1e9, fft.self_time)
    for name in ("lattice.p_squared", "evolution.evolve", "interaction.represent",
                 "fock.fock_inner", "kernel.lattice_propagator", "kernel.lattice_onshell_part"):
        out[f"{name}.calls"] = get(name).calls
    for name in ("lattice.p_squared", "evolution.evolve", "interaction.represent",
                 "fock.fock_inner", "kernel.euclidean_mass_propagator_batch",
                 "interaction.dyson_truncated"):
        out[f"{name}.self_s"] = get(name).self_time
    for name in ("evolution.stueckelberg_residual", "onshell.momentum_state_profile",
                 "onshell.concentration", "kernel.propagator_position.euclidean",
                 "kernel.propagator_position.minkowski", "kernel.propagator_onshell_part",
                 "kernel.kernel_mass_superposition", "kernel.kernel_discretized",
                 "regularization.self_energy_regulated.lambda",
                 "regularization.self_energy_regulated.mass_spectrum",
                 "regularization.divergence_scan", "interaction.self_energy_unregulated",
                 "paths.action", "interaction.Sector",
                 "interaction.DysonOperator.unitarity_residual_orders",
                 "interaction.amplitude_order_m", "kernel.lattice_propagator",
                 "kernel.lattice_onshell_part", "records.emit", "records.load_record"):
        out[f"{name}.busy_s"] = get(name).busy
    evolve = get("evolution.evolve")
    out["evolution.evolve.site_steps_per_s"] = rate(total("evolution.evolve", "sites"), evolve.busy)
    profile = get("onshell.momentum_state_profile")
    out["onshell.momentum_state_profile.points_per_s"] = rate(
        total("onshell.momentum_state_profile", "points"), profile.busy)

    for split in ("const", "thinned"):
        mc = get(f"kernel.kernel_mc.{split}")
        samples = total(f"kernel.kernel_mc.{split}", "samples")
        out[f"kernel.kernel_mc.busy_s.{split}"] = mc.busy
        out[f"kernel.kernel_mc.samples_per_s.{split}"] = rate(samples, mc.busy)
        # stderr^2 x time: lower means less time to a given accuracy
        out[f"kernel.kernel_mc.var_x_s.{split}"] = sum(
            a["stderr"] ** 2 * d for a, d in zip(mc.attrs, mc.durations))

    quad_totals = np.zeros(3, dtype=int)
    for parent, row in tracer.quad.items():
        quad_totals += row
    for key, value in zip(("calls", "evals", "warnings"), quad_totals):
        out[f"quad.{key}"] = int(value)
    for parent in QUAD_PARENTS:
        row = tracer.quad.get(parent, (0, 0, 0))
        short = parent.split(".", 1)[1]
        for key, value in zip(("calls", "evals", "warnings"), row):
            out[f"quad.{short}.{key}"] = value

    sector = get("interaction.Sector")
    out["interaction.Sector.dimension"] = max((a["dimension"] for a in sector.attrs), default=0)
    out["interaction.represent.nnz"] = total("interaction.represent", "nnz")
    out["interaction.represent.leaky_columns"] = total("interaction.represent", "leaky_columns")
    # V and V-dagger powers: 2 dense complex n^3 products (8 real flops each) per order
    out["interaction.dyson_truncated.matmul_gflop_computed"] = sum(
        2 * a["order"] * 8 * a["n"] ** 3 for a in get("interaction.dyson_truncated").attrs) / 1e9

    out["fock.apply_generator.calls"] = tracer.counts["fock.apply_generator"]
    out["fock.FieldAlgebra.two_point.calls"] = tracer.counts["fock.FieldAlgebra.two_point"]
    perm = get("fock.permanent")
    for lo, hi in PERMANENT_BUCKETS:
        picked = [i for i, a in enumerate(perm.attrs) if lo <= a["n"] <= hi]
        out[f"fock.permanent.n{lo}-{hi}.calls"] = len(picked)
        out[f"fock.permanent.n{lo}-{hi}.self_s"] = sum(perm.durations[i] for i in picked)

    run = get("cli.run")
    out["cli.run.self_s"] = run.self_time
    for sub in CLI_SUBCOMMANDS:
        ms = [d * 1e3 for d, a in zip(run.durations, run.attrs) if a["subcommand"] == sub]
        p50, p75 = np.percentile(ms, [50, 75]) if ms else (0.0, 0.0)
        out[f"cli.{sub}.p50_ms"], out[f"cli.{sub}.p75_ms"] = float(p50), float(p75)
    out["records.emit.bytes"] = total("records.emit", "bytes")

    root = get(ROOT_SPAN)
    out["trace.wall_s"] = root.busy
    out["trace.accounted_frac"] = rate(root.busy - root.self_time, root.busy)
    return out


def top_self_times(tracer: Tracer, limit: int = 15) -> list[tuple[str, int, float]]:
    layers = summarize(tracer)
    rows = sorted(((n, l.calls, l.self_time) for n, l in layers.items()),
                  key=lambda row: -row[2])
    return rows[:limit]

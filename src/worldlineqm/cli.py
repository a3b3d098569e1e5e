"""Batch command-line front end.

Subcommands map one-to-one onto module operations; parameters come from
flags or a JSON config file (flags override file values).  The PARAMETERS
table below is the reference for every key, its kind and its default.  Each
choice has one key: the `selfenergy` route ("cutoff" is the unregulated
bubble), and the propagator weight its `dlam` and `delta` (inf and 0, the
uniform weight, by default).  _cast casts each value by one rule per kind at
every depth; a malformed value exits 2 naming its path (`dx`,
`grid.points`).  Four-vectors are comma-separated with the time component
first; the only complex input is the Fock state `coefficient` in the states
file, which records.py decodes.
Results are written as JSON records or CSV tables (see records.py); outputs
are byte-stable for fixed inputs and seed.  Exit codes: 0 success, 2
configuration error, 3 numerical-accuracy or I/O error, 4 domain or contract
violation.  WORLDLINEQM_OUTDIR names the default output directory.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import evolution, fock, interaction, kernel, onshell, regularization
from .errors import (
    AccuracyError,
    ContractViolation,
    DegeneratePathError,
    DomainError,
    LeakageError,
    SectorOverflowError,
    UnsupportedSpecError,
)
from .geometry import MODES, SIGNS, FourVector, ParticleType, onshell_energy
from .lattice import LatticeSpec
from .records import COMPLEX_KEYS, FORMATS, ResultRecord, decode_value, emit

_DOMAIN_ERRORS = (ContractViolation, DomainError, UnsupportedSpecError,
                  DegeneratePathError, SectorOverflowError, LeakageError)


def _float(value, where: str) -> float:
    """A number or numeric text as a float; true/false, NaN and overflow are
    rejected, +-inf kept."""
    if isinstance(value, bool):
        raise ContractViolation(f"{where} must be a number, not {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ContractViolation(f"{where} is too large for a float") from None
    except (TypeError, ValueError):
        raise ContractViolation(f"{where} must be a number, not {value!r}") from None
    if np.isnan(number):
        raise ContractViolation(f"{where} must not be NaN")
    return number


def _whole(value, where: str) -> int:
    """A whole number (2, 2.0 or "2") as an int; 2.7, "2.5", true and NaN are rejected."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    number = _float(value, where)
    if not number.is_integer():
        raise ContractViolation(f"{where} must be a whole number, not {value!r}")
    return int(number)


def _index(value, where: str) -> int:
    """A whole number no larger in size than sys.maxsize, so that it can size
    a vector or bound a loop."""
    number = _whole(value, where)
    if abs(number) > sys.maxsize:
        raise ContractViolation(f"{where} must be at most {sys.maxsize} in magnitude")
    return number


def _floats(text, where: str) -> tuple[float, ...]:
    return tuple(_float(v, where) for v in str(text).split(","))


def _ints(text, where: str) -> tuple[int, ...]:
    return tuple(_index(v, where) for v in str(text).split(","))


def _cast(value, kind, where: str):
    """The value cast to its kind, or a ContractViolation naming its path.

    A kind is a leaf: int (_index), float (_float), str, or a function of
    (value, where) such as _floats or _whole (an unbounded whole number, for
    seeds); a tuple of allowed values; [k] for a list of k; or a dict for an
    object, where a key ending in "?" is optional, the key `str` stands for
    every key, and other keys are rejected.
    """
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise ContractViolation(f"{where} must be a list")
        return [_cast(item, kind[0], f"{where}[{i}]") for i, item in enumerate(value)]
    if isinstance(kind, dict):
        if not isinstance(value, dict):
            raise ContractViolation(f"{where} must be a JSON object")
        fields = {key if key is str else key.rstrip("?"): sub for key, sub in kind.items()}
        for key in kind:
            if key is not str and not key.endswith("?") and key not in value:
                raise ContractViolation(f"{where} needs the key {key!r}")
        for name in value:
            if name not in fields and str not in fields:
                raise ContractViolation(f"{where}.{name} is not a known key")
        return {name: _cast(item, fields.get(name, fields.get(str)), f"{where}.{name}")
                for name, item in value.items()}
    if isinstance(kind, tuple):
        value = _cast(value, type(kind[0]), where)
        if value not in kind:
            raise ContractViolation(f"{where} must be one of {list(kind)}, not {value!r}")
        return value
    if kind is str:
        if not isinstance(value, str):
            raise ContractViolation(f"{where} must be str, not {type(value).__name__}")
        return value
    return {int: _index, float: _float}.get(kind, kind)(value, where)


_LEG = {"p": [float], "type?": str, "sign?": int}
_COMPLEX = dict.fromkeys(COMPLEX_KEYS, float)
_STATE = {"entries": [{"site": [int], "type": str, "tag?": str}],
          "coefficient?": lambda value, where: decode_value(_cast(value, _COMPLEX, where))}
_STATES_SHAPE = {"types": {str: {"mass": float, "conjugate?": str}}, "bra": _STATE, "ket": _STATE}


def _states_file(path, where: str) -> dict:
    """The Fock states file, read and cast before the run."""
    payload = json.loads(Path(_cast(path, str, where)).read_text(encoding="utf-8"))
    return _cast(payload, _STATES_SHAPE, where)


# subcommand -> key -> (kind, static default[, flag help]); a kind as in _cast.
# A dict or list kind is structured JSON, settable from a config file only.
# A key with default None is left out of the typed values when not given: it is
# required (the runner's KeyError exits 2), or the runner derives its default.
PARAMETERS = {
    "kernel": {
        "dim": (int, 2), "mode": (MODES, "euclidean"), "mass": (float, 1.0),
        "tau": (float, 1.0, "intrinsic length T"),
        "dx": (_floats, None, "separation, time first: t,x[,y,z]"),
        "method": (("closed", "discretized", "mc"), "closed"),
        "segments": (int, 8), "samples": (int, 10000), "seed": (_whole, 0),
    },
    "propagator": {
        "kind": (("position", "momentum", "onshell-part"), "position"),
        "dim": (int, 2), "mode": (MODES, "euclidean"), "mass": (float, 1.0),
        "dx": (_floats, None), "p": (_floats, None), "epsilon": (float, 1e-6),
        "dlam": (float, np.inf), "delta": (float, 0.0), "damping": (float, None),
        "sign": (SIGNS, 1),
    },
    "evolve": {
        "shape": (_ints, (16, 16)), "extent": (_floats, (8.0, 8.0)),
        "mass": (float, 1.0), "dlam": (float, 0.01), "steps": (int, 100),
        "center": (_floats, None), "width": (float, 1.0), "momentum": (_floats, None),
    },
    "onshell": {
        "p": (_floats, (0.0,), "spatial momentum components"), "mass": (float, 1.0),
        "sign": (SIGNS, 1), "epsilon": (float, 1e-2), "t": (float, 0.0),
        "window": (float, 1.0), "p0_halfrange": (float, 60.0), "p0_points": (int, 120001),
    },
    "fock": {
        "states": (_states_file, None, "JSON file with types, bra, ket"),
        "shape": (_ints, (4, 4)), "extent": (_floats, (4.0, 4.0)), "epsilon": (float, 1e-2),
    },
    "scatter": {
        "coupling": (float, None), "mass_a": (float, 1.0), "mass_b": (float, 1.0),
        "epsilon": (float, 1e-3),
        "grid": ({"points": int, "spacing": float, "spatial_dimension?": int}, None),
        "incoming": ([_LEG], None), "outgoing": ([_LEG], None),
    },
    "selfenergy": {
        "dim": (regularization.DIMENSIONS, 2), "p": (_floats, None),
        "ma": (float, 1.0), "mb": (float, 1.0),
        "cutoff": (float, np.inf), "dlam": (float, 10.0), "delta": (float, 0.01),
        "route": (("cutoff", *regularization.ROUTES), "cutoff"),
    },
    "scan": {
        "dim": (regularization.DIMENSIONS, 4), "p": (_floats, None),
        "ma": (float, 1.0), "mb": (float, 1.0),
        "deltas": (_floats, (0.02, 0.01, 0.005, 0.0025),
                   "comma-separated decreasing thresholds"),
        "dlam": (float, 1e3), "cutoff": (float, np.inf),
    },
}


def _output_path(args, default_name: str) -> Path:
    if args.output:
        return Path(args.output)
    base = Path(os.environ.get("WORLDLINEQM_OUTDIR", "."))
    return base / default_name


def _merge_config(args, subcommand: str) -> dict:
    """File values first, then flag overrides; unknown file keys rejected."""
    keys = PARAMETERS[subcommand]
    params = {}
    if args.config:
        raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if not isinstance(raw, dict):
            raise ContractViolation("config file must hold a JSON object")
        unknown = set(raw) - set(keys)
        if unknown:
            raise ContractViolation(
                f"unknown config keys for {subcommand}: {sorted(unknown)}")
        params.update(raw)
    for key in keys:
        value = getattr(args, key, None)
        if value is not None:
            params[key] = value
    return params


def _resolve(params: dict, subcommand: str) -> dict:
    """Each given key cast by _cast; a null or absent key takes its default."""
    typed = {}
    for key, (kind, default, *_) in PARAMETERS[subcommand].items():
        value = default if params.get(key) is None else _cast(params[key], kind, key)
        if value is not None:
            typed[key] = value
    return typed


# ---------------------------------------------------------------------------
# subcommand implementations; each takes the typed values from _resolve


def _run_kernel(c):
    dim, tau = c["dim"], c["tau"]
    origin = FourVector((0.0,) * dim)
    dx = FourVector(c["dx"]) if "dx" in c else origin
    kp = kernel.KernelParams(c["mass"], tau, dim, c["mode"])
    outputs, provenance = {}, {"module": "kernel"}
    seed = None
    if c["method"] == "closed":
        outputs["value"] = kernel.kernel_closed(dx, kp)
        provenance["operation"] = "kernel_closed"
    elif c["method"] == "discretized":
        n = c["segments"]
        outputs["value"] = kernel.kernel_discretized(dx, origin, np.full(n, tau / n), kp)
        provenance["operation"] = "kernel_discretized"
        provenance["oracle_checks"] = ["closed-form kernel at equal T"]
        outputs["closed_form"] = kernel.kernel_closed(dx, kp)
    else:
        seed = c["seed"]
        res = kernel.kernel_mc(dx, origin, kp, c["segments"], c["samples"], seed)
        outputs["value"] = res.estimate
        outputs["stderr"] = res.stderr
        outputs["closed_form"] = kernel.kernel_closed(dx, kp)
        provenance["operation"] = "kernel_mc"
        provenance["oracle_checks"] = ["closed-form kernel at equal T"]
    return outputs, provenance, seed, None


def _run_propagator(c):
    kind, dim, mass, eps = c["kind"], c["dim"], c["mass"], c["epsilon"]
    damping = c.get("damping", 1e-2 if kind == "onshell-part" else 0.0)
    provenance = {"module": "kernel"}
    outputs = {}
    if kind == "momentum":
        outputs["value"] = kernel.propagator_momentum(FourVector(c["p"]), mass, eps)
        provenance["operation"] = "propagator_momentum"
    elif kind == "position":
        weight = kernel.WeightFunction(c["dlam"], c["delta"])
        outputs["value"] = kernel.propagator_position(
            FourVector(c["dx"]), mass, eps, weight, dim, c["mode"], damping=damping)
        provenance["operation"] = "propagator_position"
    else:
        outputs["value"] = kernel.propagator_onshell_part(
            FourVector(c["dx"]), mass, c["sign"], damping, dim)
        provenance["operation"] = "propagator_onshell_part"
    return outputs, provenance, None, None


def _run_evolve(c):
    shape, extent = c["shape"], c["extent"]
    spec = LatticeSpec(shape, extent)
    center = c.get("center", tuple(e / 2 for e in extent))
    momentum = c.get("momentum", (0.0,) * len(shape))
    psi = evolution.gaussian_packet(spec, center, c["width"], momentum, c["mass"])
    n0 = evolution.norm(psi)
    psi = evolution.evolve(psi, c["dlam"], c["steps"])
    n1 = evolution.norm(psi)
    outputs = {"norm_initial": n0, "norm_final": n1, "norm_drift": abs(n1 - n0),
               "lambda_final": psi.lam,
               "residual_probe": evolution.stueckelberg_residual(psi, 1e-3)}
    return outputs, {"module": "evolution", "operation": "evolve",
                     "oracle_checks": ["norm conservation"]}, None, None


def _run_onshell(c):
    p_spatial, mass, sign, eps = c["p"], c["mass"], c["sign"], c["epsilon"]
    halfrange, window = c["p0_halfrange"], c["window"]
    if not 0 < halfrange < np.inf:
        raise ValueError(f"p0_halfrange must be positive and finite, not {halfrange!r}")
    if c["p0_points"] < 2:
        raise ValueError(f"p0_points must be at least 2, not {c['p0_points']!r}")
    e = float(onshell_energy(p_spatial, mass))
    grid = sign * e + np.linspace(-halfrange, halfrange, c["p0_points"])
    prof = onshell.momentum_state_profile(p_spatial, mass, sign, c["t"], eps, grid)
    conc = onshell.concentration(prof, window)
    peak = prof.p0[int(np.argmax(np.abs(prof.amplitude)))]
    pole = onshell.onshell_propagator_momentum((sign * e,) + tuple(p_spatial),
                                               mass, sign, eps)
    outputs = {"energy": e, "profile_peak": float(peak), "concentration": conc,
               "lorentzian_oracle": (2 / np.pi) * float(np.arctan(window / eps)),
               "pole_value": pole}
    return outputs, {"module": "onshell",
                     "operation": "momentum_state_profile/concentration",
                     "oracle_checks": ["lorentzian concentration"]}, None, None


def _parse_state(data, tag_default):
    entries = [fock.Entry(tuple(e["site"]), e["type"], e.get("tag", tag_default))
               for e in data["entries"]]
    return fock.symmetrize(entries, data.get("coefficient", 1.0))


def _run_fock(c):
    payload = c["states"]
    spec = LatticeSpec(c["shape"], c["extent"])
    types = {name: ParticleType(name, spc["mass"], spc.get("conjugate", "plain"))
             for name, spc in payload["types"].items()}
    algebra = fock.FieldAlgebra(spec, types, epsilon=c["epsilon"])
    bra = _parse_state(payload["bra"], "integrated")
    ket = _parse_state(payload["ket"], "start")
    outputs = {"inner_product": fock.fock_inner(bra, ket, algebra),
               "bra_particles": bra.n_particles, "ket_particles": ket.n_particles}
    return outputs, {"module": "fock", "operation": "fock_inner"}, None, None


def _run_scatter(c):
    g = c["grid"]
    grid = onshell.MomentumGrid(g.get("spatial_dimension", 1), g["points"], g["spacing"])
    model = interaction.InteractionModel.ab_model(c["coupling"], c["mass_a"], c["mass_b"])
    def legs(name):
        return tuple(interaction.ScatterLeg(tuple(r["p"]), r.get("type", "A"), r.get("sign", 1))
                     for r in c[name])
    spec = interaction.ScatterSpec(legs("incoming"), legs("outgoing"), grid)
    amp = interaction.scatter_tree_2to2(spec, model, c["epsilon"])
    return ({"amplitude": amp},
            {"module": "interaction", "operation": "scatter_tree_2to2"}, None, None)


def _run_selfenergy(c):
    dim, m_a, m_b, cutoff = c["dim"], c["ma"], c["mb"], c["cutoff"]
    p = FourVector(c.get("p", (0.0,) * dim))
    if c["route"] == "cutoff":
        res = interaction.self_energy_unregulated(p, m_a, m_b, dim, cutoff)
        operation = "self_energy_unregulated"
    else:
        spec = regularization.RegulatorSpec(c["dlam"], c["delta"], m_a)
        res = regularization.self_energy_regulated(
            p, m_a, m_b, dim, spec, c["route"], cutoff=cutoff)
        operation = "self_energy_regulated"
    outputs = {"value": res.value, "error": res.error, "route": res.route}
    return outputs, {"module": "interaction/regularization",
                     "operation": operation}, None, None


def _run_scan(c):
    dim = c["dim"]
    p = FourVector(c.get("p", (0.0,) * dim))
    scan = regularization.divergence_scan(
        p, c["ma"], c["mb"], dim, list(c["deltas"]),
        correlation_length=c["dlam"], cutoff=c["cutoff"])
    outputs = {"slope": scan.slope, "slope_stderr": scan.slope_stderr,
               "intercept": scan.intercept, "r_squared": scan.r_squared}
    return (outputs, {"module": "regularization", "operation": "divergence_scan"},
            None, scan.table())


_SUBCOMMANDS = {
    "kernel": (_run_kernel, "fixed-length kernel values"),
    "propagator": (_run_propagator, "proper-time and momentum propagators"),
    "evolve": (_run_evolve, "parameter evolution of a packet"),
    "onshell": (_run_onshell, "frequency profiles and concentration"),
    "fock": (_run_fock, "multiparticle pairings from a state file"),
    "scatter": (_run_scatter, "tree-level 2->2 amplitude"),
    "selfenergy": (_run_selfenergy, "one-loop self-energy"),
    "scan": (_run_scan, "threshold divergence scan (CSV table)"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing does not change it, and
    argparse reads the streams and terminal width only when it prints."""
    parser = argparse.ArgumentParser(
        prog="worldlineqm",
        description="Worldline relativistic quantum mechanics batch runner.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, help_text) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--output", help="output file path")
        p.add_argument("--format", choices=FORMATS, default="json")
        p.add_argument("--timing", action="store_true",
                       help="embed wall time in the record (breaks byte stability)")
        for key, (kind, _, *flag_help) in PARAMETERS[name].items():
            if isinstance(kind, (dict, list)):
                continue
            opts = {"dest": key, "help": flag_help[0] if flag_help else None}
            if isinstance(kind, tuple):
                opts.update(choices=kind, type=int if isinstance(kind[0], int) else None)
            else:
                opts["type"] = {int: int, _whole: int, float: float}.get(kind)
            p.add_argument("--" + key.replace("_", "-"), **opts)
    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        params = _merge_config(args, args.subcommand)
        values = _resolve(params, args.subcommand)
    except (ContractViolation, OSError, TypeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    try:
        outputs, provenance, seed, table = _SUBCOMMANDS[args.subcommand][0](values)
    except _DOMAIN_ERRORS as exc:
        print(f"domain/contract error: {exc}", file=sys.stderr)
        return 4
    except KeyError as exc:
        print(f"config error: missing key {exc}", file=sys.stderr)
        return 2
    except (OSError, OverflowError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # e.g. a `dim` that sizes a vector beyond memory before any check
        print("config error: the inputs need more memory than there is", file=sys.stderr)
        return 2
    except AccuracyError as exc:
        print(f"accuracy error: {exc}", file=sys.stderr)
        return 3
    elapsed = time.perf_counter() - started
    record = ResultRecord(args.subcommand, inputs=params, outputs=outputs,
                          provenance=provenance, table=table, seed=seed,
                          wall_time_s=elapsed)
    path = _output_path(args, f"{args.subcommand}.{args.format}")
    try:
        emit(record, path, args.format, include_timing=bool(args.timing))
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {path} ({elapsed:.3f}s)", file=sys.stderr)
    for name, value in outputs.items():
        print(f"{name}: {value}")
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))

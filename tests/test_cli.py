import argparse
import json
import sys
import warnings

import numpy as np
import pytest
from scipy import special

from worldlineqm import cli, quadrature
from worldlineqm.cli import PARAMETERS, _cast, _floats, _ints, _whole, run
from worldlineqm.errors import AccuracyError, ContractViolation
from worldlineqm.geometry import FourVector
from worldlineqm.interaction import self_energy_unregulated
from worldlineqm.kernel import WeightFunction, propagator_position
from worldlineqm.records import ResultRecord, emit, load_record
from worldlineqm.regularization import RegulatorSpec, self_energy_regulated


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def test_kernel_subcommand_value(tmp_path):
    out = tmp_path / "kernel.json"
    code = run(["kernel", "--dim", "2", "--mode", "euclidean", "--mass", "1",
                "--tau", "1", "--dx", "0,0", "--output", str(out)])
    assert code == 0
    record = read_json(out)
    value = record["outputs"]["value"]
    assert value["re"] == pytest.approx(np.exp(-1) / (4 * np.pi), rel=1e-10)
    assert value["re"] == pytest.approx(2.9276e-2, rel=1e-3)
    assert value["im"] == 0.0
    assert record["provenance"]["operation"] == "kernel_closed"


def test_selfenergy_subcommand_value(tmp_path):
    out = tmp_path / "se.json"
    code = run(["selfenergy", "--dim", "2", "--p", "0,0", "--ma", "1",
                "--mb", "1", "--cutoff", "200", "--output", str(out)])
    assert code == 0
    value = read_json(out)["outputs"]["value"]
    assert abs(value["re"] - np.pi) < 1e-3 * np.pi


def test_malformed_config_exits_2_without_output(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    out = tmp_path / "x.json"
    code = run(["kernel", "--config", str(bad), "--output", str(out)])
    assert code == 2
    assert not out.exists()


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mass": 1.0, "bogus": 3}), encoding="utf-8")
    code = run(["kernel", "--config", str(cfg), "--output", str(tmp_path / "x.json")])
    assert code == 2


def test_unknown_subcommand_exits_2(capsys):
    assert run(["frobnicate"]) == 2


def test_flags_override_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dim": 2, "mode": "euclidean", "mass": 1.0,
                               "tau": 2.0, "dx": "0,0"}), encoding="utf-8")
    out = tmp_path / "k.json"
    assert run(["kernel", "--config", str(cfg), "--tau", "1.0",
                "--output", str(out)]) == 0
    record = read_json(out)
    assert record["inputs"]["tau"] == 1.0
    assert record["outputs"]["value"]["re"] == pytest.approx(
        np.exp(-1) / (4 * np.pi), rel=1e-10)


def test_domain_error_exit_code(tmp_path):
    code = run(["kernel", "--dim", "2", "--mode", "euclidean", "--tau", "-1",
                "--output", str(tmp_path / "x.json")])
    assert code == 4


def test_mc_determinism_byte_identical(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    argv = ["kernel", "--method", "mc", "--dim", "2", "--mode", "euclidean",
            "--mass", "1", "--tau", "1", "--dx", "0,0", "--samples", "5000",
            "--seed", "11"]
    assert run(argv + ["--output", str(a)]) == 0
    assert run(argv + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_scan_csv_columns_and_rows(tmp_path):
    out = tmp_path / "scan.csv"
    code = run(["scan", "--dim", "2", "--p", "0,0", "--deltas", "0.02,0.01",
                "--dlam", "100", "--format", "csv", "--output", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "parameter,value_re,value_im,error,route"
    assert len(lines) == 3


def test_empty_table_emits_an_empty_csv(tmp_path):
    # the header comes from the first row, so an empty table has none; the
    # scan never makes one, since it needs two thresholds
    record = ResultRecord("scan", inputs={}, outputs={}, table=[])
    out = tmp_path / "empty.csv"
    emit(record, out, "csv")
    assert out.read_text() == ""


def test_scan_with_one_threshold_exits_4_without_a_record(capsys, tmp_path):
    # it exited 2 with "config error: Singular matrix" from the fit
    out = tmp_path / "scan.csv"
    assert run(["scan", "--deltas", "0.02", "--format", "csv", "--output", str(out)]) == 4
    assert "delta_sequence needs at least two thresholds" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("dim, dx", [("2", "0.3,0.4,0.5,0.6"), ("4", "0.3,0.4")],
                         ids=["long_dx", "short_dx"])
def test_propagator_dx_of_the_wrong_length_exits_4_without_a_record(capsys, tmp_path, dim, dx):
    # the long dx gave the value of its first two components, the short one
    # an IndexError traceback
    out = tmp_path / "propagator.json"
    assert run(["propagator", "--dim", dim, "--dx", dx, "--output", str(out)]) == 4
    assert "dx has dimension" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, dim, p", [
    ("selfenergy", "2", "0.3,0.4,0,0"), ("selfenergy", "4", "0.3,0.4"),
    ("scan", "2", "0.3,0.4,0,0"), ("scan", "4", "0.3,0.4"),
], ids=["selfenergy_long_p", "selfenergy_short_p", "scan_long_p", "scan_short_p"])
def test_self_energy_p_of_the_wrong_length_exits_4_without_a_record(capsys, tmp_path,
                                                                     command, dim, p):
    # the long p gave the value at |p| over all four components; the short
    # one ran at D=4 on a 2-vector
    out = tmp_path / f"{command}.json"
    args = [command, "--dim", dim, "--p", p, "--output", str(out)]
    if command == "selfenergy" and dim == "4":
        args += ["--cutoff", "100"]
    assert run(args) == 4
    assert f"p has dimension {len(p.split(','))}, expected {dim}" in capsys.readouterr().err
    assert not out.exists()


def test_json_round_trip_lossless(tmp_path):
    record = ResultRecord("kernel", inputs={"tau": 1.0},
                          outputs={"value": 0.25 - 0.5j, "count": 3},
                          provenance={"module": "kernel"}, seed=7)
    path = tmp_path / "r.json"
    emit(record, path, "json")
    loaded = load_record(path)
    assert loaded.outputs["value"] == 0.25 - 0.5j
    assert loaded.outputs["count"] == 3
    assert loaded.seed == 7
    assert loaded.wall_time_s is None


def test_json_to_csv_preserves_rows(tmp_path):
    rows = [{"parameter": 0.1 * k, "value": complex(k, -0.5), "error": 1e-9,
             "route": "lambda"} for k in range(5)]
    record = ResultRecord("scan", inputs={}, outputs={}, table=rows)
    jpath = tmp_path / "r.json"
    cpath = tmp_path / "r.csv"
    emit(record, jpath, "json")
    emit(load_record(jpath), cpath, "csv")
    lines = cpath.read_text().strip().splitlines()
    assert len(lines) == 1 + len(rows)
    # JSON sorts the keys of a row, so the reloaded columns come in name order
    assert lines[0] == "error,parameter,route,value_re,value_im"
    assert lines[3] == "1e-09,0.2,lambda,2.0,-0.5"
    emit(record, cpath, "csv")
    assert cpath.read_text().splitlines()[:4:3] == [
        "parameter,value_re,value_im,error,route", "0.2,2.0,-0.5,1e-09,lambda"]


def test_scatter_subcommand_with_config(tmp_path):
    cfg = tmp_path / "scatter.json"
    cfg.write_text(json.dumps({
        "coupling": 0.9, "mass_a": 1.0, "mass_b": 1.5, "epsilon": 1e-3,
        "grid": {"spatial_dimension": 1, "points": 9, "spacing": 0.5},
        "incoming": [{"p": [1.0], "type": "A"}, {"p": [-0.5], "type": "A"}],
        "outgoing": [{"p": [0.5], "type": "A"}, {"p": [0.0], "type": "A"}],
    }), encoding="utf-8")
    out = tmp_path / "amp.json"
    assert run(["scatter", "--config", str(cfg), "--output", str(out)]) == 0
    amp = read_json(out)["outputs"]["amplitude"]
    assert abs(complex(amp["re"], amp["im"])) > 0


def test_fock_subcommand_states_file(tmp_path):
    states = tmp_path / "states.json"
    states.write_text(json.dumps({
        "types": {"A": {"mass": 1.0, "conjugate": "plain"}},
        "bra": {"coefficient": {"re": 1.0, "im": 0.0},
                "entries": [{"site": [2, 3], "type": "A", "tag": "integrated"}]},
        "ket": {"coefficient": {"re": 1.0, "im": 0.0},
                "entries": [{"site": [0, 1], "type": "A", "tag": "start"}]},
    }), encoding="utf-8")
    out = tmp_path / "fock.json"
    assert run(["fock", "--states", str(states), "--shape", "4,4",
                "--extent", "4,4", "--epsilon", "0.01",
                "--output", str(out)]) == 0
    record = read_json(out)
    from worldlineqm.kernel import lattice_propagator
    from worldlineqm.lattice import LatticeSpec
    table = lattice_propagator(LatticeSpec((4, 4), (4.0, 4.0)), 1.0, 0.01)
    got = record["outputs"]["inner_product"]
    assert complex(got["re"], got["im"]) == pytest.approx(table[2, 2], rel=1e-12)


def test_evolve_subcommand_norm_drift(tmp_path):
    out = tmp_path / "evolve.json"
    assert run(["evolve", "--shape", "8,8", "--extent", "8,8", "--mass", "1",
                "--dlam", "0.05", "--steps", "200", "--width", "1.2",
                "--output", str(out)]) == 0
    record = read_json(out)
    assert record["outputs"]["norm_drift"] < 1e-12



@pytest.mark.parametrize("flag, value, message", [
    ("--steps", "-3", "steps must be non-negative"),
    ("--width", "-1", "width must be positive and finite"),
    ("--width", "0", "width must be positive and finite"),
    ("--dlam", "inf", "dlam must be finite"),
    ("--dlam", "1e308", "dlam must be finite"),
    ("--momentum", "0,0.5,7", "momentum has dimension 3, expected 2"),
    ("--momentum", "0", "momentum has dimension 1, expected 2"),
    ("--center", "4", "center has dimension 1, expected 2"),
], ids=["negative_steps", "negative_width", "zero_width", "infinite_dlam", "huge_dlam", "long_momentum",
        "short_momentum", "short_center"])
def test_evolve_rejects_bad_steps_and_widths_with_exit_4_and_no_record(capsys, tmp_path,
                                                                     flag, value, message):
    # each exited 0 with a record, or 4 after three RuntimeWarnings; an infinite
    # or overflowing dlam was caught only by the residual's finiteness scan, a
    # long momentum lost its last component and a short one raised IndexError
    out = tmp_path / "evolve.json"
    assert run(["evolve", "--shape", "8,8", "--extent", "8,8", flag, value,
                "--output", str(out)]) == 4
    err = capsys.readouterr().err
    assert message in err
    assert "Warning" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["--momentum=inf,0"], "momentum must be finite"),
    (["--center=4,-inf"], "center must be finite"),
    (["--width=0.001", "--center=4.25,4"], "packet factor on axis 0 is not finite or has zero norm"),
    (["--momentum=0,1e308"], "packet factor on axis 1 is not finite or has zero norm"),
], ids=["infinite_momentum", "infinite_center", "narrow_width_off_site", "overflowing_momentum"])
def test_evolve_packet_that_is_not_finite_exits_4_with_no_warning(capsys, tmp_path, argv,
                                                                  message):
    # each exited 4 only after RuntimeWarnings, at the finite check of the first fftn
    out = tmp_path / "evolve.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(["evolve", "--shape", "16,16", "--extent", "8,8", *argv,
                    "--output", str(out)])
    assert code == 4
    assert caught == []
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_propagator_subcommand_momentum(tmp_path):
    out = tmp_path / "prop.json"
    assert run(["propagator", "--kind", "momentum", "--p", "0,0", "--mass", "1",
                "--epsilon", "1e-9", "--output", str(out)]) == 0
    value = read_json(out)["outputs"]["value"]
    assert complex(value["re"], value["im"]) == pytest.approx(-1j, rel=1e-8)


def test_unwritable_output_exits_3(tmp_path):
    target = tmp_path / "no_such_dir" / "x.json"
    code = run(["kernel", "--dim", "2", "--mode", "euclidean", "--mass", "1",
                "--tau", "1", "--dx", "0,0", "--output", str(target)])
    assert code == 3


def test_onshell_subcommand_concentration(tmp_path):
    out = tmp_path / "onshell.json"
    assert run(["onshell", "--p", "0.3", "--mass", "1", "--sign", "1",
                "--epsilon", "0.01", "--window", "1.0",
                "--output", str(out)]) == 0
    record = read_json(out)
    conc = record["outputs"]["concentration"]
    oracle = record["outputs"]["lorentzian_oracle"]
    assert abs(conc - oracle) / oracle < 1e-2


# an infinite t once wrote a NaN concentration after RuntimeWarnings (the
# config cast rejects NaN with exit 2)
@pytest.mark.parametrize("t", ["inf", "-inf"])
def test_onshell_infinite_t_exits_4_without_a_record(capsys, tmp_path, t):
    out = tmp_path / "onshell.json"
    assert run(["onshell", "--p0-points", "201", f"--t={t}", "--output", str(out)]) == 4
    assert "t must be finite" in capsys.readouterr().err
    assert not out.exists()


# an infinite halfrange raised a RuntimeWarning out of np.linspace, no points
# failed on an empty argmax, and a negative halfrange wrote a record
@pytest.mark.parametrize("argv, message", [
    (["--p0-halfrange", "inf"], "p0_halfrange must be positive and finite"),
    (["--p0-halfrange", "-5"], "p0_halfrange must be positive and finite"),
    (["--p0-halfrange", "0"], "p0_halfrange must be positive and finite"),
    (["--p0-points", "0"], "p0_points must be at least 2"),
    (["--p0-points", "1"], "p0_points must be at least 2"),
], ids=["inf_halfrange", "negative_halfrange", "zero_halfrange", "no_points", "one_point"])
def test_onshell_grid_keys_exit_2_naming_the_key(capsys, tmp_path, argv, message):
    out = tmp_path / "onshell.json"
    assert run(["onshell", "--p0-points", "201"] + argv + ["--output", str(out)]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_scatter_d3_inputs_round_trip(tmp_path):
    config = {
        "coupling": 0.9, "mass_a": 1.0, "mass_b": 1.5, "epsilon": 1e-3,
        "grid": {"spatial_dimension": 2, "points": 9, "spacing": 0.5},
        "incoming": [{"p": [1.0, 0.5], "type": "A"}, {"p": [-0.5, 0.0], "type": "A"}],
        "outgoing": [{"p": [0.5, 0.5], "type": "A"}, {"p": [0.0, 0.0], "type": "A"}],
    }
    cfg = tmp_path / "scatter.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "amp.json"
    assert run(["scatter", "--config", str(cfg), "--output", str(out)]) == 0
    assert load_record(out).inputs == config


@pytest.mark.parametrize("subcommand, config", [
    ("propagator", {"kind": "position", "dx": "0.5,1", "mode": "euclidian"}),
    ("kernel", {"method": "montecarlo"}),
    ("selfenergy", {"route": "mass_spectrum"}),
])
def test_config_file_values_checked_against_choices(capsys, tmp_path, subcommand, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "x.json"
    assert run([subcommand, "--config", str(cfg), "--output", str(out)]) == 2
    assert " must be one of " in capsys.readouterr().err
    assert not out.exists()


def test_unreadable_states_file_exits_2(tmp_path):
    out = tmp_path / "fock.json"
    code = run(["fock", "--states", str(tmp_path / "missing.json"), "--output", str(out)])
    assert code == 2
    assert not out.exists()


_SCATTER_STRUCTURE = {
    "grid": {"spatial_dimension": 1, "points": 9, "spacing": 0.5},
    "incoming": [{"p": [1.0], "type": "A"}, {"p": [-0.5], "type": "A"}],
    "outgoing": [{"p": [0.5], "type": "A"}, {"p": [0.0], "type": "A"}],
}


def _exits_2_with_config_error(capsys, tmp_path, argv):
    out = tmp_path / "x.json"
    assert run(argv + ["--output", str(out)]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("structure", [
    dict(_SCATTER_STRUCTURE, grid=[1]),
    {"grid": _SCATTER_STRUCTURE["grid"], "incoming": "ab"},
    dict(_SCATTER_STRUCTURE, incoming="ab"),
    dict(_SCATTER_STRUCTURE, outgoing=[{"p": 0.5}, {"p": [0.0]}]),
    dict(_SCATTER_STRUCTURE, grid={"points": [9], "spacing": 0.5}),
], ids=["grid_list", "incoming_str_no_outgoing", "incoming_str", "leg_p_scalar", "points_list"])
def test_scatter_structure_shape_is_checked(capsys, tmp_path, structure):
    config = {"coupling": 0.9, "mass_a": 1.0, "mass_b": 1.5, "epsilon": 1e-3, **structure}
    cfg = tmp_path / "scatter.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    _exits_2_with_config_error(capsys, tmp_path, ["scatter", "--config", str(cfg)])


_STATES = {"types": {"A": {"mass": 1.0}},
           "bra": {"entries": [{"site": [0, 1], "type": "A"}]},
           "ket": {"entries": [{"site": [1, 1], "type": "A"}],
                   "coefficient": {"re": 0.5, "im": 0.0}}}


@pytest.mark.parametrize("payload", [
    dict(_STATES, types=[1]),
    [1],
    dict(_STATES, ket={"entries": [{"site": [1, 1], "type": "A"}], "coefficient": {"re": 0.5}}),
    dict(_STATES, bra={"entries": [{"site": 3, "type": "A"}]}),
], ids=["types_list", "not_object", "short_coefficient", "site_scalar"])
def test_states_file_shape_is_checked(capsys, tmp_path, payload):
    states = tmp_path / "states.json"
    states.write_text(json.dumps(payload), encoding="utf-8")
    _exits_2_with_config_error(capsys, tmp_path, ["fock", "--states", str(states)])


def test_states_file_of_the_checked_shape_runs(tmp_path):
    states = tmp_path / "states.json"
    states.write_text(json.dumps(_STATES), encoding="utf-8")
    out = tmp_path / "fock.json"
    assert run(["fock", "--states", str(states), "--output", str(out)]) == 0
    assert read_json(out)["outputs"]["ket_particles"] == 1


# a site off the lattice is a domain error (4); a fractional coordinate is
# not a whole number, so the cast rejects it before the run (2)
@pytest.mark.parametrize("site, code",
                         [([1, 2, 3], 4), ([5, 6], 4), ([1.7, 2], 2), ([1, "2.5"], 2)],
                         ids=["three_coordinates", "off_lattice", "fraction", "fraction_string"])
def test_fock_bra_site_off_the_lattice_exits_4(tmp_path, site, code):
    states = tmp_path / "states.json"
    states.write_text(json.dumps(dict(_STATES, bra={"entries": [{"site": site, "type": "A"}]})),
                      encoding="utf-8")
    out = tmp_path / "fock.json"
    assert run(["fock", "--states", str(states), "--output", str(out)]) == code
    assert not out.exists()


def test_fock_undeclared_bra_type_exits_4(capsys, tmp_path):
    # bra type B against ket type A: the labels differ, so the pairing would
    # be 0j if the undeclared label were not checked first
    states = tmp_path / "states.json"
    states.write_text(json.dumps(dict(_STATES, bra={"entries": [{"site": [0, 1], "type": "B"}]})),
                      encoding="utf-8")
    out = tmp_path / "fock.json"
    assert run(["fock", "--states", str(states), "--output", str(out)]) == 4
    assert "unknown particle type 'B'" in capsys.readouterr().err
    assert not out.exists()


def test_fock_whole_number_sites_give_the_integer_site_record(tmp_path):
    outputs = []
    for i, site in enumerate([[0, 1], [0.0, 1.0], ["0", "1"]]):
        states = tmp_path / f"states{i}.json"
        states.write_text(json.dumps(dict(_STATES, bra={"entries": [{"site": site, "type": "A"}]})),
                          encoding="utf-8")
        out = tmp_path / f"fock{i}.json"
        assert run(["fock", "--states", str(states), "--output", str(out)]) == 0
        outputs.append(read_json(out)["outputs"])
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


_FLOAT_KEYS = [(sub, key) for sub, keys in PARAMETERS.items()
               for key, (kind, *_) in keys.items() if kind in (float, _floats)]


@pytest.mark.parametrize("source", ["flag", "file"])
@pytest.mark.parametrize("subcommand, key", _FLOAT_KEYS,
                         ids=[f"{sub}.{key}" for sub, key in _FLOAT_KEYS])
def test_nan_float_parameters_exit_2_naming_the_key(capsys, tmp_path, subcommand, key, source):
    if source == "flag":
        argv = [subcommand, f"--{key.replace('_', '-')}=nan"]
    else:
        (tmp_path / "nan.json").write_text(json.dumps({key: float("nan")}), encoding="utf-8")
        argv = [subcommand, "--config", str(tmp_path / "nan.json")]
    out = tmp_path / "x.json"
    assert run(argv + ["--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and f"{key} must not be NaN" in err
    assert not out.exists()


def test_infinite_cutoff_stays_legal(tmp_path):
    out = tmp_path / "se.json"
    assert run(["selfenergy", "--dim", "2", "--p", "0,0", "--cutoff", "inf",
                "--output", str(out)]) == 0


# every flag of each subcommand, with the value argparse gives it
_ALL_FLAGS = {
    "kernel": {"dim": 2, "mode": "euclidean", "mass": 1.0, "tau": 1.0, "dx": "0.5,0.2",
               "method": "mc", "segments": 4, "samples": 2000, "seed": 5},
    "propagator": {"kind": "onshell-part", "dim": 2, "mode": "euclidean", "mass": 1.0,
                   "dx": "0.5,0.2", "p": "0,0", "epsilon": 1e-6, "dlam": 10.0,
                   "delta": 0.01, "damping": 0.01, "sign": -1},
    "evolve": {"shape": "8,8", "extent": "8,8", "mass": 1.0, "dlam": 0.05, "steps": 5,
               "center": "4,4", "width": 1.2, "momentum": "0,0.5"},
    "onshell": {"p": "0.3", "mass": 1.0, "sign": 1, "epsilon": 0.01, "t": 0.0,
                "window": 1.0, "p0_halfrange": 20.0, "p0_points": 2001},
    "fock": {"states": None, "shape": "4,4", "extent": "4,4", "epsilon": 0.01},
    "scatter": {"coupling": 0.9, "mass_a": 1.0, "mass_b": 1.5, "epsilon": 0.001},
    "selfenergy": {"dim": 2, "p": "0.1,0", "ma": 1.0, "mb": 1.0, "cutoff": 200.0,
                   "dlam": 10.0, "delta": 0.01, "route": "lambda"},
    "scan": {"dim": 2, "p": "0,0", "ma": 1.0, "mb": 1.0, "deltas": "0.02,0.01",
             "dlam": 100.0, "cutoff": 200.0},
}


@pytest.mark.parametrize("subcommand", sorted(_ALL_FLAGS))
def test_flag_and_file_records_identical(tmp_path, subcommand):
    values = dict(_ALL_FLAGS[subcommand])
    if subcommand == "fock":
        values["states"] = str(tmp_path / "states.json")
        (tmp_path / "states.json").write_text(json.dumps({
            "types": {"A": {"mass": 1.0}},
            "bra": {"entries": [{"site": [2, 3], "type": "A"}]},
            "ket": {"entries": [{"site": [0, 1], "type": "A"}]},
        }), encoding="utf-8")
    structure = _SCATTER_STRUCTURE if subcommand == "scatter" else {}
    assert set(values) | set(structure) == set(PARAMETERS[subcommand])
    flags = [f"--{key.replace('_', '-')}={value}" for key, value in values.items()]
    (tmp_path / "structure.json").write_text(json.dumps(structure), encoding="utf-8")
    (tmp_path / "all.json").write_text(json.dumps({**values, **structure}), encoding="utf-8")
    by_flags, by_file = tmp_path / "flags.json", tmp_path / "file.json"
    assert run([subcommand, "--config", str(tmp_path / "structure.json"), *flags,
                "--output", str(by_flags)]) == 0
    assert run([subcommand, "--config", str(tmp_path / "all.json"),
                "--output", str(by_file)]) == 0
    assert by_flags.read_bytes() == by_file.read_bytes()


_INT_KEYS = [(sub, key) for sub, keys in PARAMETERS.items()
             for key, (kind, *_) in keys.items()
             if kind in (int, _whole) or isinstance(kind, tuple) and isinstance(kind[0], int)]


@pytest.mark.parametrize("value", [2.7, "2.5"])
@pytest.mark.parametrize("subcommand, key", _INT_KEYS,
                         ids=[f"{sub}.{key}" for sub, key in _INT_KEYS])
def test_fractional_integer_parameters_exit_2_naming_the_key(capsys, tmp_path, subcommand,
                                                             key, value):
    # int() used to truncate them: {"dim": 2.7} computed the D=2 kernel
    (tmp_path / "frac.json").write_text(json.dumps({key: value}), encoding="utf-8")
    out = tmp_path / "x.json"
    assert run([subcommand, "--config", str(tmp_path / "frac.json"), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and f"{key} must be a whole number" in err
    assert not out.exists()


@pytest.mark.parametrize("subcommand, config, key, values", [
    ("kernel", {"dx": "0.1,0.2"}, "dim", [2, 2.0, "2"]),
    ("propagator", {"kind": "onshell-part", "dx": "0.5,0.2"}, "sign", [-1, -1.0, "-1"]),
])
def test_whole_number_integer_parameters_are_kept(tmp_path, subcommand, config, key, values):
    outputs = []
    for i, value in enumerate(values):
        cfg, out = tmp_path / f"cfg{i}.json", tmp_path / f"out{i}.json"
        cfg.write_text(json.dumps({**config, key: value}), encoding="utf-8")
        assert run([subcommand, "--config", str(cfg), "--output", str(out)]) == 0
        outputs.append(read_json(out)["outputs"])
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def _scatter_config(path, **changes):
    config = {"coupling": 0.9, "mass_a": 1.0, "mass_b": 1.5, "epsilon": 1e-3,
              **_SCATTER_STRUCTURE, **changes}
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


@pytest.mark.parametrize("changes, key", [
    ({"grid": {"spatial_dimension": 1, "points": 9.5, "spacing": 0.5}}, "grid.points"),
    ({"grid": {"spatial_dimension": 1.5, "points": 9, "spacing": 0.5}},
     "grid.spatial_dimension"),
    ({"incoming": [{"p": [1.0]}, {"p": [-0.5], "sign": 1.5}]}, "incoming[1].sign"),
    ({"outgoing": [{"p": [0.5], "sign": "0.5"}, {"p": [0.0]}]}, "outgoing[0].sign"),
], ids=["points", "spatial_dimension", "incoming_sign", "outgoing_sign"])
def test_scatter_fractional_integers_exit_4_naming_the_key(capsys, tmp_path, changes, key):
    # the runner's cast used to reject these (exit 4); the config cast now does (exit 2)
    out = tmp_path / "amp.json"
    cfg = _scatter_config(tmp_path / "scatter.json", **changes)
    assert run(["scatter", "--config", str(cfg), "--output", str(out)]) == 2
    assert f"config error: {key} must be a whole number" in capsys.readouterr().err
    assert not out.exists()


def test_scatter_whole_number_grid_and_sign_are_kept(tmp_path):
    outputs = []
    for i, (points, sign) in enumerate([(9, 1), (9.0, 1.0), ("9", "1")]):
        grid = {"spatial_dimension": 1, "points": points, "spacing": 0.5}
        incoming = [{"p": [1.0], "sign": sign}, {"p": [-0.5]}]
        cfg = _scatter_config(tmp_path / f"scatter{i}.json", grid=grid, incoming=incoming)
        out = tmp_path / f"amp{i}.json"
        assert run(["scatter", "--config", str(cfg), "--output", str(out)]) == 0
        outputs.append(read_json(out)["outputs"])
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def test_scatter_antiparticle_leg_exits_4(capsys, tmp_path):
    out = tmp_path / "amp.json"
    cfg = _scatter_config(tmp_path / "scatter.json",
                          outgoing=[{"p": [0.5], "sign": -1}, {"p": [0.0]}])
    assert run(["scatter", "--config", str(cfg), "--output", str(out)]) == 4
    assert "antiparticle" in capsys.readouterr().err
    assert not out.exists()


def test_scatter_legs_of_an_unconserved_line_exit_4(capsys, tmp_path):
    out = tmp_path / "amp.json"
    cfg = _scatter_config(tmp_path / "scatter.json",
                          incoming=[{"p": [1.0], "type": "B"}, {"p": [-0.5], "type": "B"}],
                          outgoing=[{"p": [0.5], "type": "B"}, {"p": [0.0], "type": "B"}])
    assert run(["scatter", "--config", str(cfg), "--output", str(out)]) == 4
    assert "not a line every vertex conserves" in capsys.readouterr().err
    assert not out.exists()


def test_missing_required_key_exits_2_at_run_time(capsys, tmp_path):
    # coupling and dx have no default; the runner's KeyError is a config error
    for subcommand, config, key in [("scatter", _SCATTER_STRUCTURE, "coupling"),
                                    ("propagator", {}, "dx")]:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "x.json"
        assert run([subcommand, "--config", str(cfg), "--output", str(out)]) == 2
        assert f"config error: missing key '{key}'" in capsys.readouterr().err
        assert not out.exists()


def test_runner_overflow_exits_2(capsys, tmp_path):
    # the runner once failed to size a vector with it ("cannot fit 'int' into
    # an index-sized integer"); the cast now rejects it and names the key
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dim": 10 ** 30}), encoding="utf-8")
    out = tmp_path / "x.json"
    assert run(["kernel", "--config", str(cfg), "--output", str(out)]) == 2
    assert f"config error: dim must be at most {sys.maxsize}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "file"])
def test_seed_beyond_the_index_bound_still_runs(tmp_path, source):
    # seeds keep the unbounded whole-number rule; only index-sized ints are bounded
    seed = 2 ** 64
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": seed}), encoding="utf-8")
    given = ["--seed", str(seed)] if source == "flag" else ["--config", str(cfg)]
    out = tmp_path / "mc.json"
    assert run(["kernel", "--method", "mc", "--samples", "1000", "--dx", "0.3,0.1", *given,
                "--output", str(out)]) == 0
    assert read_json(out)["seed"] == seed


def test_accuracy_error_exits_3(capsys, monkeypatch, tmp_path):
    def fails(values):
        raise AccuracyError("quadrature missed its tolerance")
    monkeypatch.setitem(cli._SUBCOMMANDS, "kernel", (fails, "kernel"))
    out = tmp_path / "x.json"
    assert run(["kernel", "--output", str(out)]) == 3
    assert "accuracy error: quadrature missed" in capsys.readouterr().err
    assert not out.exists()


def test_onshell_part_at_small_damping_exits_3_without_a_record(capsys, tmp_path):
    # the adaptive rule reaches its 400-interval limit at error 1.74e-7; the
    # Bessel form of the on-shell part (ROADMAP item 16) will give this route
    # a value
    out = tmp_path / "propagator.json"
    assert run(["propagator", "--kind", "onshell-part", "--dx", "1.2,0.4",
                "--damping", "1e-5", "--output", str(out)]) == 3
    assert "accuracy error" in capsys.readouterr().err
    assert not out.exists()


def test_euclidean_position_propagator_exits_3_when_the_interval_budget_is_cut(
        capsys, monkeypatch, tmp_path):
    # the half-line heat-kernel integral needs more than two intervals
    monkeypatch.setattr(quadrature, "LIMIT", 2)
    out = tmp_path / "propagator.json"
    assert run(["propagator", "--kind", "position", "--mode", "euclidean", "--dx", "0.3,0.4",
                "--output", str(out)]) == 3
    assert "accuracy error" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(AccuracyError, match="reached its limit of 2 intervals") as info:
        propagator_position(FourVector((0.3, 0.4)), 1.0, 1e-10, WeightFunction.uniform(), 2,
                            "euclidean")
    assert info.value.achieved > 0


def test_euclidean_position_propagator_with_damping_exits_4_without_a_record(capsys,
                                                                            tmp_path):
    # it exited 0 with the undamped value and echoed damping -5 in the record
    out = tmp_path / "propagator.json"
    assert run(["propagator", "--kind", "position", "--mode", "euclidean", "--dx", "0.3,0.4",
                "--damping", "-5", "--output", str(out)]) == 4
    assert "takes no damping" in capsys.readouterr().err
    assert not out.exists()


def test_main_exits_with_the_code_of_run(monkeypatch, tmp_path):
    monkeypatch.setattr("sys.argv", ["worldlineqm", "kernel", "--tau", "-1",
                                     "--output", str(tmp_path / "x.json")])
    with pytest.raises(SystemExit) as info:
        cli.main()
    assert info.value.code == 4


def test_default_output_goes_to_worldlineqm_outdir(monkeypatch, tmp_path):
    monkeypatch.setenv("WORLDLINEQM_OUTDIR", str(tmp_path))
    assert run(["kernel", "--dx", "0.1,0.2"]) == 0
    assert load_record(tmp_path / "kernel.json").subcommand == "kernel"


def test_kernel_discretized_subcommand_equals_closed_form(tmp_path):
    out = tmp_path / "k.json"
    assert run(["kernel", "--method", "discretized", "--segments", "5", "--dim", "2",
                "--mode", "minkowski", "--tau", "0.7", "--dx", "0.3,-0.4",
                "--output", str(out)]) == 0
    record = read_json(out)
    value, closed = (complex(record["outputs"][k]["re"], record["outputs"][k]["im"])
                     for k in ("value", "closed_form"))
    assert value == pytest.approx(closed, rel=1e-12)
    assert record["provenance"]["operation"] == "kernel_discretized"


@pytest.mark.parametrize("weight, rel", [
    ([], 1e-9), (["--dlam", "1000", "--delta", "1e-6"], 1e-6),
], ids=["uniform", "gaussian"])
def test_propagator_position_subcommand(tmp_path, weight, rel):
    out = tmp_path / "p.json"
    assert run(["propagator", "--kind", "position", *weight, "--dx", "0.3,0.4",
                "--epsilon", "1e-10", "--output", str(out)]) == 0
    value = read_json(out)["outputs"]["value"]
    value = complex(value["re"], value["im"])
    # the euclidean D=2 propagator K_0(m |dx|) / 2 pi; the wide gaussian
    # weight exp(-T^2 / 2 dlam^2) lowers it by about T^2 / 2 dlam^2 ~ 1e-7
    assert value.real == pytest.approx(special.k0(0.5) / (2 * np.pi), rel=rel)
    assert value.imag == 0.0


def _value(argv, tmp_path):
    out = tmp_path / "record.json"
    assert run(argv + ["--output", str(out)]) == 0
    return load_record(out).outputs


@pytest.mark.parametrize("route", PARAMETERS["selfenergy"]["route"][0])
def test_selfenergy_route_equals_its_library_call(tmp_path, route):
    p = FourVector((0.3, 0.4))
    if route == "cutoff":
        want = self_energy_unregulated(p, 1.0, 1.2, 2, 50.0)
    else:
        want = self_energy_regulated(p, 1.0, 1.2, 2, RegulatorSpec(5.0, 0.02, 1.0), route,
                                     cutoff=50.0)
    got = _value(["selfenergy", "--route", route, "--p", "0.3,0.4", "--mb", "1.2",
                  "--cutoff", "50", "--dlam", "5", "--delta", "0.02"], tmp_path)
    assert (got["value"], got["error"], got["route"]) == (want.value, want.error, route)


@pytest.mark.parametrize("mode, dlam, delta, damping", [
    ("euclidean", np.inf, 0.0, 0.0), ("euclidean", 1000.0, 1e-6, 0.0),
    ("minkowski", 10.0, 0.01, 1e-2),
])
def test_propagator_weight_is_its_dlam_and_delta(tmp_path, mode, dlam, delta, damping):
    want = propagator_position(FourVector((1.2, 0.3)), 1.0, 1e-6, WeightFunction(dlam, delta),
                               2, mode, damping=damping)
    got = _value(["propagator", "--mode", mode, "--dx", "1.2,0.3", "--dlam", str(dlam),
                  "--delta", str(delta), "--damping", str(damping)], tmp_path)
    assert got["value"] == want


def test_propagator_delta_alone_thresholds_the_uniform_weight(tmp_path):
    # --delta without --dlam is the threshold on the uniform weight; it was
    # ignored while a separate weight choice defaulted to uniform
    dx = FourVector((0.3, 0.4))
    want = propagator_position(dx, 1.0, 1e-6, WeightFunction(np.inf, 0.5), 2, "euclidean")
    got = _value(["propagator", "--dx", "0.3,0.4", "--delta", "0.5"], tmp_path)["value"]
    assert got == want
    assert got != propagator_position(dx, 1.0, 1e-6, WeightFunction(), 2, "euclidean")


@pytest.mark.parametrize("subcommand, flag, key, value", [
    ("selfenergy", ["--regulated"], "regulated", True),
    ("propagator", ["--weight", "gaussian"], "weight", "gaussian"),
])
def test_removed_choice_keys_exit_2(capsys, tmp_path, subcommand, flag, key, value):
    # the route and the weight's dlam and delta are the one key of each choice
    out = tmp_path / "x.json"
    assert run([subcommand, *flag, "--output", str(out)]) == 2
    (tmp_path / "cfg.json").write_text(json.dumps({key: value}), encoding="utf-8")
    assert run([subcommand, "--config", str(tmp_path / "cfg.json"), "--output", str(out)]) == 2
    assert f"unknown config keys for {subcommand}: ['{key}']" in capsys.readouterr().err
    assert not out.exists()


_INF = float("inf")
# kind, value, the typed value, or the error after the path when rejected
_CAST_CASES = [
    (int, 2, 2, None), (int, 2.0, 2, None), (int, "2", 2, None),
    (int, 2.7, None, " must be a whole number"), (int, "2.5", None, " must be a whole number"),
    (int, float("nan"), None, " must not be NaN"), (int, [2], None, " must be a number"),
    (int, True, None, " must be a number, not True"),
    (float, 0.5, 0.5, None), (float, 1, 1.0, None), (float, "0.5", 0.5, None),
    (float, _INF, _INF, None), (float, "-inf", -_INF, None),
    (float, float("nan"), None, " must not be NaN"), (float, "nan", None, " must not be NaN"),
    (float, 10 ** 400, None, " is too large for a float"), (float, "x", None, " must be a number"),
    (float, None, None, " must be a number"), (float, False, None, " must be a number, not False"),
    (str, True, None, " must be str, not bool"), (str, None, None, " must be str, not NoneType"),
    (("a", "b"), False, None, " must be str, not bool"), (("a", "b"), "false", None, " must be one of"),
    (str, "A", "A", None), (str, 1, None, " must be str, not int"),
    (("a", "b"), "b", "b", None), (("a", "b"), "c", None, " must be one of ['a', 'b']"),
    ((-1, 1), -1.0, -1, None), ((-1, 1), "1", 1, None), ((-1, 1), 0, None, " must be one of"),
    ((-1, 1), 0.5, None, " must be a whole number"), ((-1, 1), True, None, " must be a number"),
    (_floats, "0.5,1", (0.5, 1.0), None), (_floats, 2, (2.0,), None),
    (_floats, "0.5,nan", None, " must not be NaN"), (_floats, "0.5,", None, " must be a number"),
    (_ints, "4,8", (4, 8), None), (_ints, "4,8.0", (4, 8), None),
    (_ints, "4,8.5", None, " must be a whole number"),
    ([float], [1, "2"], [1.0, 2.0], None), ([float], [], [], None),
    ([float], 1, None, " must be a list"), ([float], [1, "y"], None, "[1] must be a number"),
    ([[int]], [[1, "2"], []], [[1, 2], []], None),
    ({"a": int, "b?": float}, {"a": "3"}, {"a": 3}, None),
    ({"a": int, "b?": float}, {"b": 1}, None, " needs the key 'a'"),
    ({"a": int}, {"a": 1, "c": 2}, None, ".c is not a known key"),
    ({"a": int}, [1], None, " must be a JSON object"),
    ({str: {"m": float}}, {"A": {"m": "1"}}, {"A": {"m": 1.0}}, None),
    ({str: {"m": float}}, {"A": {"m": "y"}}, None, ".A.m must be a number"),
    (int, sys.maxsize, sys.maxsize, None), (int, -sys.maxsize, -sys.maxsize, None),
    (int, 10 ** 30, None, f" must be at most {sys.maxsize} in magnitude"),
    (int, -10 ** 30, None, " must be at most"), (int, "1e30", None, " must be at most"),
    (_ints, "4,1e30", None, " must be at most"),
    (_whole, 2 ** 64, 2 ** 64, None), (_whole, 1e30, int(1e30), None),
]


@pytest.mark.parametrize("nested", [False, True], ids=["top", "nested"])
@pytest.mark.parametrize("kind, value, typed, error", _CAST_CASES,
                         ids=[f"{getattr(k, '__name__', type(k).__name__)}-{i}"
                              for i, (k, *_) in enumerate(_CAST_CASES)])
def test_cast_applies_one_rule_per_kind_at_every_depth(kind, value, typed, error, nested):
    # nested, the case sits at x.k[0]: the same rule, and the path grows
    if nested:
        kind, value, typed, path = {"k": [kind]}, {"k": [value]}, {"k": [typed]}, "x.k[0]"
    else:
        path = "x"
    if error is None:
        assert repr(_cast(value, kind, "x")) == repr(typed)
    else:
        with pytest.raises(ContractViolation) as info:
            _cast(value, kind, "x")
        assert path + error in str(info.value)


# each of these once exited 0 (or 1) with a result from a malformed value
@pytest.mark.parametrize("subcommand, config, message", [
    ("selfenergy", '{"route": false, "dim": 2, "p": "0,0"}', "route must be str, not bool"),
    ("kernel", '{"mass": 1' + "0" * 400 + "}", "mass is too large for a float"),
    ("kernel", '{"dim": true, "dx": "0.1"}', "dim must be a number, not True"),
    ("scatter", '{"coupling": 0.9, "grid": {"spatial_dimension": 1, "points": 9, "spacing": NaN},'
                ' "incoming": [{"p": [1.0]}, {"p": [-0.5]}],'
                ' "outgoing": [{"p": [0.5]}, {"p": [0.0]}]}', "grid.spacing must not be NaN"),
    ("scatter", json.dumps(dict(_SCATTER_STRUCTURE, coupling=0.9,
                                grid={"points": 9, "spacing": 0.5, "bogus": 1})),
     "grid.bogus is not a known key"),
    ("kernel", '{"dim": 1' + "0" * 30 + "}", "dim must be at most"),
    ("evolve", '{"shape": "16,1' + "0" * 30 + '"}', "shape must be at most"),
    ("scatter", json.dumps(dict(_SCATTER_STRUCTURE, coupling=0.9,
                                grid={"points": 10 ** 30, "spacing": 0.5})),
     "grid.points must be at most"),
], ids=["bool_route", "huge_mass", "bool_dim", "nan_spacing", "unknown_nested_key",
        "huge_dim", "huge_shape_item", "huge_grid_points"])
def test_malformed_values_exit_2_naming_their_path(capsys, tmp_path, subcommand, config, message):
    (tmp_path / "cfg.json").write_text(config, encoding="utf-8")
    out = tmp_path / "x.json"
    assert run([subcommand, "--config", str(tmp_path / "cfg.json"), "--output", str(out)]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


def _help_text(capsys, parser, argv):
    with pytest.raises(SystemExit) as info:
        parser.parse_args(argv)
    assert info.value.code == 0
    return capsys.readouterr().out


def test_cached_parser_gives_the_same_records_and_help_in_any_order(capsys, tmp_path):
    argv = ["kernel", "--method", "mc", "--samples", "1000", "--seed", "3", "--dx", "0.3,0.1"]
    first, later = tmp_path / "first.json", tmp_path / "later.json"
    cli.build_parser.cache_clear()
    assert run(argv + ["--output", str(first)]) == 0
    assert run(["kernel", "--mode", "bogus", "--output", str(tmp_path / "bad.json")]) == 2
    assert run(["--help"]) == 0
    assert run(argv + ["--output", str(later)]) == 0
    assert later.read_bytes() == first.read_bytes()
    assert not (tmp_path / "bad.json").exists()
    capsys.readouterr()
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    fresh = cli.build_parser.__wrapped__()
    assert parser.format_help() == fresh.format_help()
    for name in cli._SUBCOMMANDS:
        assert _help_text(capsys, parser, [name, "--help"]) == \
            _help_text(capsys, fresh, [name, "--help"])


def test_cli_builds_its_parser_once_per_process(monkeypatch, tmp_path):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser.cache_clear()
    out = str(tmp_path / "x.json")
    for argv in (["kernel", "--dx", "0.1,0.2"], ["propagator", "--kind", "momentum", "--p", "1,0"],
                 ["evolve", "--shape", "8,8", "--steps", "2"], ["kernel", "--mode", "bogus"],
                 ["onshell", "--p0-points", "201", "--p0-halfrange", "5"], ["bogus"],
                 ["kernel", "--method", "discretized", "--dx", "0.1,0.2"], ["evolve", "--help"],
                 ["propagator", "--kind", "momentum", "--p", "2,0"], ["--help"]):
        run(argv + ["--output", out])
    # one root parser and one per subcommand, against 90 when each run built its own
    assert len(built) == 1 + len(cli._SUBCOMMANDS)


def test_huge_steps_exit_2_before_the_runner_loops(capsys, monkeypatch, tmp_path):
    # {"steps": 10**30} once passed the cast and looped without end; the stub
    # turns a regression into a failure instead of a hang
    def runs(values):
        pytest.fail(f"the evolve runner started with steps={values['steps']}")
    monkeypatch.setitem(cli._SUBCOMMANDS, "evolve", (runs, "evolve"))
    (tmp_path / "cfg.json").write_text('{"steps": 1' + "0" * 30 + "}", encoding="utf-8")
    out = tmp_path / "x.json"
    assert run(["evolve", "--config", str(tmp_path / "cfg.json"), "--output", str(out)]) == 2
    assert f"config error: steps must be at most {sys.maxsize}" in capsys.readouterr().err
    assert not out.exists()


# an infinite correlation length is the uniform weight, which does not regulate:
# the lambda route read NaN and the mass-spectrum route died on a ZeroDivisionError
@pytest.mark.parametrize("argv", [
    ["selfenergy", "--route", "lambda"],
    ["selfenergy", "--route", "mass-spectrum", "--cutoff", "50"],
    ["scan", "--dim", "2", "--deltas", "0.02,0.01"],
], ids=["selfenergy_lambda", "selfenergy_mass_spectrum", "scan"])
def test_infinite_correlation_length_exits_4_without_a_record(capsys, tmp_path, argv):
    out = tmp_path / "x.json"
    assert run(argv + ["--dlam", "inf", "--output", str(out)]) == 4
    assert "correlation_length must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_selfenergy_d4_without_a_cutoff_exits_4_without_a_record(capsys, tmp_path):
    # it wrote value 3492.77 with error 4.4e-8 for a divergent bubble
    out = tmp_path / "se.json"
    assert run(["selfenergy", "--dim", "4", "--output", str(out)]) == 4
    assert "needs a finite cutoff" in capsys.readouterr().err
    assert not out.exists()


# (0.0,) * sys.maxsize raises MemoryError before it allocates anything; the
# kernel runner sizes its origin so, the self-energy runners size a default p so
@pytest.mark.parametrize("subcommand, message", [
    ("kernel", "config error: the inputs need more memory"),
    ("selfenergy", f"config error: dim must be one of [2, 4], not {sys.maxsize}"),
    ("scan", f"config error: dim must be one of [2, 4], not {sys.maxsize}"),
], ids=["kernel", "selfenergy", "scan"])
def test_index_sized_dim_exits_2(capsys, tmp_path, subcommand, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dim": sys.maxsize}), encoding="utf-8")
    out = tmp_path / "x.json"
    assert run([subcommand, "--config", str(cfg), "--output", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()

"""geometry.metric owns the signature: every signed square, phase and action
in the package agrees with it."""

import ast
import itertools
from pathlib import Path

import numpy as np
import pytest

from worldlineqm.errors import ContractViolation
from worldlineqm.evolution import gaussian_packet
from worldlineqm.geometry import FourVector, euclidean_dot, metric, minkowski_dot, wick_factor
from worldlineqm.kernel import lattice_momentum_phase
from worldlineqm.lattice import LatticeSpec, spectral_transform
from worldlineqm.paths import DiscretePath, action

SRC = Path(__file__).resolve().parents[1] / "src" / "worldlineqm"


def test_metric_values_in_both_modes():
    np.testing.assert_array_equal(metric(4), [-1.0, 1.0, 1.0, 1.0])
    np.testing.assert_array_equal(metric(2, "minkowski"), [-1.0, 1.0])
    np.testing.assert_array_equal(metric(3, "euclidean"), [1.0, 1.0, 1.0])
    np.testing.assert_array_equal(metric(1), [-1.0])
    assert (wick_factor("minkowski"), wick_factor("euclidean")) == (1j, 1.0)
    assert metric(4) is metric(4)  # cached and immutable: built once, not per quadrature node
    assert isinstance(metric(4), tuple)


@pytest.mark.parametrize("call", [lambda: metric(2, "lorentzian"),
                                  lambda: wick_factor("lorentzian")])
def test_unknown_mode_is_rejected(call):
    with pytest.raises(ContractViolation, match="unknown mode 'lorentzian'"):
        call()


@pytest.mark.parametrize("dimension", [0, -1])
def test_a_dimension_below_one_is_rejected(dimension):
    with pytest.raises(ContractViolation, match="dimension must be at least 1"):
        metric(dimension)


def _grid_momenta(spec):
    axes = [spec.momentum_axis(mu) for mu in range(spec.dimension)]
    for index in itertools.product(*(range(n) for n in spec.shape)):
        yield index, FourVector(tuple(axis[k] for axis, k in zip(axes, index)))


def test_lattice_squares_and_phases_follow_the_metric():
    spec = LatticeSpec((4, 8, 2), (3.0, 5.0, 7.0))
    dlam, mass = 0.3, 0.8
    p_squared = spec.p_squared()
    phase = lattice_momentum_phase(spec, dlam, mass)
    for index, p in _grid_momenta(spec):
        pp = minkowski_dot(p, p)
        assert p_squared[index] == pytest.approx(pp, rel=1e-14, abs=0.0)
        expected = np.exp(-1j * dlam * (pp + mass * mass))
        assert abs(phase[index] - expected) <= 1e-14 * abs(expected)


@pytest.mark.parametrize("mode, dot", [("minkowski", minkowski_dot), ("euclidean", euclidean_dot)])
def test_straight_path_action_uses_the_metric_of_its_mode(mode, dot):
    # q(lam) = x0 + v lam on an uneven grid: S = sum dlam ((1/4) v.v - m^2) = T ((1/4) v.v - m^2)
    lam = np.array([0.0, 0.1, 0.35, 0.5, 1.2])
    v = np.array([1.5, 0.4, -0.3, 0.2])
    points = np.array([0.2, -1.0, 0.5, 3.0]) + lam[:, None] * v
    mass = 0.7
    velocity = FourVector(tuple(v))
    expected = lam[-1] * (0.25 * dot(velocity, velocity) - mass * mass)
    assert action(DiscretePath(lam, points, mode), mass) == pytest.approx(expected, rel=1e-13)


def test_packet_momentum_is_where_its_transform_peaks():
    spec = LatticeSpec((16, 16), (8.0, 8.0))
    k = (spec.momentum_axis(0)[3], spec.momentum_axis(1)[-2])  # a nonzero time component
    psi = gaussian_packet(spec, center=(4.0, 4.0), width=1.5, momentum=k, mass=1.0)
    tilde = np.abs(spectral_transform(psi.field, "forward").values)
    assert np.unravel_index(np.argmax(tilde), spec.shape) == (3, 14)


def test_the_mode_names_are_written_once():
    # a tuple or list literal holding both mode names appears only in geometry.py
    owners = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Tuple, ast.List)):
                names = {e.value for e in node.elts if isinstance(e, ast.Constant)}
                if {"minkowski", "euclidean"} <= names:
                    owners.add(path.name)
    assert owners == {"geometry.py"}

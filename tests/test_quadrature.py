import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate

from worldlineqm import quadrature
from worldlineqm.errors import AccuracyError
from worldlineqm.geometry import FourVector
from worldlineqm.regularization import RegulatorSpec, self_energy_regulated

SRC = Path(__file__).resolve().parents[1] / "src" / "worldlineqm"


def test_panels_exact_for_degree_19_on_uneven_edges():
    rng = np.random.default_rng(5)
    coeffs = rng.normal(size=20)  # degree 19: the highest a 10-point rule integrates exactly
    edges = [-1.3, -1.1, 0.05, 0.4, 2.0, 2.25]
    nodes, weights = quadrature.panels(edges)
    assert nodes.shape == weights.shape == (10 * (len(edges) - 1),)
    poly = np.polynomial.Polynomial(coeffs)
    exact = poly.integ()(edges[-1]) - poly.integ()(edges[0])
    assert abs(np.sum(weights * poly(nodes)) - exact) < 1e-13 * max(1.0, abs(exact))


def test_table_gauss_rule_is_the_10_point_gauss_legendre_rule():
    # the G10 row of the qk21 table, which both rules read, against the
    # exact moments of x^k on [-1, 1] and against numpy's Gauss-Legendre rule
    x, w = quadrature._NODES[1:20:2], quadrature._GAUSS[1:20:2]
    for k in range(19):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(w @ x ** k - exact) <= 1e-15, k
    x_ref, w_ref = np.polynomial.legendre.leggauss(10)
    assert np.abs(x - x_ref).max() <= 1e-15
    assert np.abs(w / w_ref - 1).max() <= 2e-15
    nodes, weights = quadrature.panels([-1.0, 1.0])
    assert nodes.tolist() == x.tolist() and weights.tolist() == w.tolist()


def test_adaptive_real_integrand():
    value, err = quadrature.adaptive(lambda x: np.exp(-x), 0.0, np.inf)
    assert isinstance(value, complex) and isinstance(err, float)
    assert value.imag == 0.0
    assert value.real == pytest.approx(1.0, rel=1e-12)
    assert 0.0 <= err < 1e-8


def test_adaptive_evaluates_each_node_once():
    calls = []

    def integrand(x):
        return np.exp(1j * x) / (1.0 + x * x)

    value, _ = quadrature.adaptive(lambda x: calls.append(x.copy()) or integrand(x),
                                   0.0, 10.0)
    nodes = np.concatenate([x.ravel() for x in calls])
    assert len(calls) > 1 and nodes.size == np.unique(nodes).size
    reference = scipy.integrate.quad(integrand, 0.0, 10.0, limit=50, complex_func=True)[0]
    assert abs(value - reference) < 1e-12 * abs(reference)


def test_adaptive_is_exact_for_degree_31_in_one_round():
    # the 21-point Kronrod rule integrates degree 3 * 10 + 1 exactly; with
    # no tolerance to meet, the rule runs once
    poly = np.polynomial.Polynomial(np.random.default_rng(7).normal(size=32))
    calls = []

    def integrand(x):
        calls.append(x.size)
        return poly(x)

    value, err = quadrature.adaptive(integrand, -1.3, 0.9, epsabs=np.inf)
    exact = poly.integ()(0.9) - poly.integ()(-1.3)
    assert calls == [21]
    assert abs(value - exact) < 1e-13 * abs(exact)
    assert err >= abs(value - exact)


@pytest.mark.parametrize("func, a, b, points, exact", [
    (lambda x: np.exp(-x), 0.0, np.inf, None, 1.0),
    (lambda x: np.abs(x - 0.3), 0.0, 1.0, [0.3], 0.29),
    (lambda x: np.exp(-np.abs(x - 2.3)) * (1 + 1j), 1.0, np.inf, [2.3],
     (2.0 - np.exp(-1.3)) * (1 + 1j)),
], ids=["exp-half-line", "kink-at-a-point", "complex-kink-on-half-line"])
def test_adaptive_against_closed_forms(func, a, b, points, exact):
    value, err = quadrature.adaptive(func, a, b, points=points)
    assert abs(value - exact) < 1e-13 * abs(exact)
    assert abs(value - exact) <= err < 1e-8


def test_adaptive_raises_when_the_limit_is_reached(monkeypatch):
    # |I| = |sin(400)| / 40 < 1, so the tolerance is epsabs
    epsabs = 1e-10
    with monkeypatch.context() as patch, pytest.raises(AccuracyError) as info:
        patch.setattr(quadrature, "LIMIT", 2)
        quadrature.adaptive(lambda x: np.cos(40 * x), 0.0, 10.0, epsabs=epsabs)
    assert info.value.achieved > epsabs
    value, err = quadrature.adaptive(lambda x: np.cos(40 * x), 0.0, 10.0, epsabs=epsabs)
    assert abs(value - np.sin(400.0) / 40) <= err <= epsabs


def test_mass_spectrum_route_is_one_adaptive_quadrature(monkeypatch):
    calls = []
    adaptive = quadrature.adaptive

    def counting(*args, **kwargs):
        calls.append(1)
        return adaptive(*args, **kwargs)

    monkeypatch.setattr(quadrature, "adaptive", counting)
    spec = RegulatorSpec(10.0, 0.01, 1.0)
    self_energy_regulated(FourVector((0.3, 0.4)), 1.0, 1.0, 2, spec, "mass-spectrum")
    assert len(calls) == 1
    self_energy_regulated(FourVector((0.0,) * 4), 1.0, 1.0, 4, spec, "mass-spectrum",
                          cutoff=60.0)
    assert len(calls) == 2


def test_quadrature_module_is_the_only_caller_of_quad_and_leggauss():
    # QUADPACK is gone from the package: no module names scipy.integrate or
    # its quad, and the one Gauss-Legendre rule is the qk21 table's G10
    quadpack = re.compile(r"scipy\.integrate|integrate\.quad|from scipy import[^\n]*\bintegrate\b")
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        assert not quadpack.search(text), path.name
        assert "leggauss" not in text, path.name


def _fresh_process_loads_quadpack(code):
    code = f"import sys\n{code}\nprint('scipy.integrate' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout.strip() == "True"


def test_importing_the_cli_leaves_quadpack_unloaded():
    assert not _fresh_process_loads_quadpack("import worldlineqm.cli")


def test_minkowski_propagator_leaves_quadpack_unloaded():
    # the minkowski tail ran on QUADPACK's QAWF, imported on call
    assert not _fresh_process_loads_quadpack(
        "from worldlineqm.geometry import FourVector\n"
        "from worldlineqm.kernel import WeightFunction, propagator_position\n"
        "propagator_position(FourVector((1.2, 0.3)), 1.0, 1e-3, WeightFunction.uniform(), 2,\n"
        "                    'minkowski', damping=1e-3)")

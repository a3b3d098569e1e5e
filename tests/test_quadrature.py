from pathlib import Path

import numpy as np
import pytest
import scipy.integrate

from worldlineqm import quadrature
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


def test_adaptive_real_integrand():
    value, err = quadrature.adaptive(lambda x: np.exp(-x), 0.0, np.inf, limit=50)
    assert isinstance(value, complex) and isinstance(err, float)
    assert value.imag == 0.0
    assert value.real == pytest.approx(1.0, rel=1e-12)
    assert 0.0 <= err < 1e-8


def test_adaptive_evaluates_each_node_once():
    nodes = []

    def integrand(x):
        nodes.append(x)
        return np.exp(1j * x) / (1.0 + x * x)

    value, _ = quadrature.adaptive(integrand, 0.0, 10.0, limit=50)
    assert len(nodes) == len(set(nodes))
    reference = scipy.integrate.quad(integrand, 0.0, 10.0, limit=50, complex_func=True)[0]
    assert value == reference


def test_mass_spectrum_route_is_one_adaptive_quadrature(monkeypatch):
    calls = []
    quad = scipy.integrate.quad

    def counting(*args, **kwargs):
        calls.append(1)
        return quad(*args, **kwargs)

    monkeypatch.setattr(scipy.integrate, "quad", counting)
    spec = RegulatorSpec(10.0, 0.01, 1.0)
    self_energy_regulated(FourVector((0.3, 0.4)), 1.0, 1.0, 2, spec, "mass-spectrum")
    assert len(calls) == 1
    self_energy_regulated(FourVector((0.0,) * 4), 1.0, 1.0, 4, spec, "mass-spectrum",
                          cutoff=60.0)
    assert len(calls) == 2


def test_quadrature_module_is_the_only_caller_of_quad_and_leggauss():
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        if path.name == "quadrature.py":
            assert "integrate.quad" in text and "leggauss" in text
            continue
        assert "integrate.quad" not in text, path.name
        assert "leggauss" not in text, path.name

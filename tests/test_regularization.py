import warnings

import numpy as np
import pytest
from scipy import integrate, special

from worldlineqm import quadrature, regularization
from worldlineqm.errors import ContractViolation, DomainError
from worldlineqm.geometry import FourVector
from worldlineqm.interaction import self_energy_unregulated
from worldlineqm.kernel import WeightFunction
from worldlineqm.regularization import (
    DivergenceScan,
    RegulatorSpec,
    bubble,
    divergence_scan,
    pv_conditions,
    self_energy_regulated,
    spectral_density,
)

P2 = FourVector((0.0, 0.0))
P4 = FourVector((0.0, 0.0, 0.0, 0.0))


# ---------------------------------------------------------------------------
# spectral density


def half_gaussian_oracle(spec):
    # (2 pi)^-1 Int_delta^inf exp(-lam^2 / 2 dlam^2) dlam in erfc form
    dlam = spec.correlation_length
    return dlam / (2 * np.sqrt(2 * np.pi)) * special.erfc(
        spec.threshold / (np.sqrt(2) * dlam))


def test_spectral_density_peak_value():
    spec = RegulatorSpec(2.0, 0.05, 1.0)
    value = spectral_density(1.0, spec)  # m^2 = m_a^2
    oracle = half_gaussian_oracle(spec)
    assert value.real == pytest.approx(oracle, rel=1e-10)
    assert abs(value.imag) < oracle  # small shift from the threshold
    wide = RegulatorSpec(50.0, 1e-6, 1.0)
    assert spectral_density(1.0, wide).real == pytest.approx(
        wide.correlation_length / (2 * np.sqrt(2 * np.pi)), rel=1e-6)


def test_spectral_density_fourier_localization():
    spec = RegulatorSpec(5.0, 0.01, 1.0)
    near = abs(spectral_density(1.0 + 0.05, spec))
    far = abs(spectral_density(1.0 + 20.0 / spec.correlation_length, spec))
    assert far < 0.2 * near


def test_spectral_density_vanishing_support():
    spec = RegulatorSpec(1e-4, 0.0, 1.0)
    assert abs(spectral_density(1.0, spec)) < 1e-4
    assert abs(spectral_density(3.0, spec)) < 1e-4


def test_closed_form_matches_quadrature_on_contour():
    spec = RegulatorSpec(10.0, 0.01, 1.0)
    for omega in (0.0, 0.3, 2.0, 11.0):
        q = spectral_density(1.0 + omega, spec)
        c = spec.transform(-1j * omega) / (2 * np.pi)  # F(omega) = T(-i omega) / 2 pi
        assert abs(q - c) < 1e-10


@pytest.mark.parametrize("mass_squared", [-2.0, 0.5, 1.0, 3.0, 30.0])
def test_spectral_density_on_the_half_line_matches_the_closed_form(mass_squared):
    # F(m^2) = T(-i (m^2 - m_a^2)) / 2 pi, with no truncation of the tail
    spec = RegulatorSpec(10.0, 0.01, 1.0)
    exact = spec.transform(-1j * (mass_squared - spec.mass ** 2)) / (2 * np.pi)
    assert abs(spectral_density(mass_squared, spec) - exact) <= 1e-10 * abs(exact)


def test_regulator_is_the_weight_plus_the_line_mass():
    spec = RegulatorSpec(10.0, 0.01, 1.3)
    weight = WeightFunction(10.0, 0.01)
    t = np.linspace(0.0, 60.0, 601)
    assert isinstance(spec, WeightFunction)
    assert spec(t).tolist() == weight(t).tolist()
    assert spec.transform(2.5) == weight.transform(2.5)
    with pytest.raises(ContractViolation, match="correlation_length must be finite"):
        RegulatorSpec(np.inf, 0.01, 1.0)
    with pytest.raises(ContractViolation, match="correlation_length must be finite"):
        divergence_scan(P2, 1.0, 1.0, 2, [0.02, 0.01], correlation_length=np.inf)


@pytest.mark.parametrize("route", ["lambda", "mass-spectrum"])
def test_self_energy_rejects_a_spec_for_another_line_mass(route):
    # both routes once ignored spec.mass: 1.0 and 2.0 gave equal values at m_a = 1
    with pytest.raises(ContractViolation, match="spec.mass 2.0 is not the line mass m_a 1.0"):
        self_energy_regulated(P2, 1.0, 1.0, 2, RegulatorSpec(10.0, 0.01, 2.0), route)


def test_lambda_line_factor_is_the_spectral_density_at_imaginary_frequency(monkeypatch):
    # line(k^2) = M(w) = 2 pi F(i w) at w = k^2 + m_a^2: against the quadrature
    # of the weight itself, and bitwise against the scaled-erfc form
    # M = sqrt(pi)/(2 sqrt(a)) erfcx(z) exp(-a delta^2 - delta w),
    # a = 1/(2 dlam^2), z = sqrt(a) delta + w/(2 sqrt(a))
    lines = []
    monkeypatch.setattr(regularization, "bubble",
                        lambda line, *args, **kwargs: lines.append(line) or (0j, 0.0))
    m_a = 1.3
    spec = RegulatorSpec(10.0, 0.01, m_a)
    self_energy_regulated(P2, m_a, 1.0, 2, spec, "lambda")
    line = lines[0]
    for ksq in (0.0, 0.5, 3.0, 40.0):
        reference = 2 * np.pi * spectral_density(m_a ** 2 + 1j * (ksq + m_a ** 2), spec)
        assert abs(line(ksq) - reference) < 1e-10 * abs(reference)
    a, delta = 1.0 / (2.0 * 10.0 ** 2), 0.01
    sqrt_a = np.sqrt(a)
    for ksq in np.geomspace(1e-6, 1e6, 400):
        w = ksq + m_a * m_a
        z = sqrt_a * delta + w / (2.0 * sqrt_a)
        erfc_form = (np.sqrt(np.pi) / (2.0 * sqrt_a) * special.erfcx(z)
                     * np.exp(-a * delta * delta - delta * w))
        assert line(float(ksq)) == complex(erfc_form)


# ---------------------------------------------------------------------------
# regulated self-energy


def test_wide_regulator_recovers_unregulated_d2():
    spec = RegulatorSpec(1e3, 1e-6, 1.0)
    res = self_energy_regulated(P2, 1.0, 1.0, 2, spec, "lambda")
    assert abs(res.value.real - np.pi) / np.pi < 1e-2


def test_d4_regulated_stable_under_cutoff_doubling():
    spec = RegulatorSpec(10.0, 0.01, 1.0)
    a = self_energy_regulated(P4, 1.0, 1.0, 4, spec, "lambda", cutoff=60.0)
    b = self_energy_regulated(P4, 1.0, 1.0, 4, spec, "lambda", cutoff=120.0)
    assert abs(a.value.real - b.value.real) / abs(b.value.real) < 1e-3


def test_dual_route_agreement_d2():
    spec = RegulatorSpec(10.0, 0.01, 1.0)
    for p in (P2, FourVector((0.3, 0.4))):
        lam = self_energy_regulated(p, 1.0, 1.0, 2, spec, "lambda")
        ms = self_energy_regulated(p, 1.0, 1.0, 2, spec, "mass-spectrum")
        assert abs(lam.value.real - ms.value.real) / abs(lam.value.real) < 1e-2


def test_dual_route_agreement_d4():
    spec = RegulatorSpec(10.0, 0.01, 1.0)
    lam = self_energy_regulated(P4, 1.0, 1.0, 4, spec, "lambda", cutoff=120.0)
    ms = self_energy_regulated(P4, 1.0, 1.0, 4, spec, "mass-spectrum", cutoff=120.0)
    assert abs(lam.value.real - ms.value.real) / abs(lam.value.real) < 2e-2


def _mass_spectrum_by_bubbles(p, m_a, m_b, dimension, spec, cutoff):
    """Contour sum of separately integrated fixed-mass bubbles.

    T' = 2 Re sum_i c_i I(p; m_a^2 + i w_i) over 10-point Gauss-Legendre
    nodes on 80 geometric panels of [0, W], W = max(1000, cutoff^2) (1000
    for an infinite cutoff), with one adaptive k-quadrature per node.
    """
    window = max(1000.0, cutoff ** 2) if np.isfinite(cutoff) else 1000.0
    edges = np.concatenate(([0.0], np.geomspace(window * 1e-5, window, 80)))
    x, wts = np.polynomial.legendre.leggauss(10)
    p_norm = float(np.linalg.norm(p.as_array()))

    def bubble(m_prime_sq):
        def radial(k):
            ksq = k * k
            a = ksq + p_norm ** 2 + m_b ** 2
            b = 2.0 * k * p_norm
            if dimension == 2:
                return k / (ksq + m_prime_sq) * 2 * np.pi / np.sqrt(a * a - b * b)
            angular = (2 * np.pi ** 2 / a if b == 0.0
                       else 4 * np.pi ** 2 * (a - np.sqrt(a * a - b * b)) / (b * b))
            return k ** 3 / (ksq + m_prime_sq) * angular
        return integrate.quad(radial, 0.0, cutoff, complex_func=True, limit=300)[0]

    total = 0j
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        for xi, wi in zip(x, wts):
            w = mid + half * xi
            density = spec.transform(-1j * w) / (2 * np.pi)
            total += half * wi * density * bubble(m_a ** 2 + 1j * w)
    return 2 * total.real


@pytest.mark.parametrize("p, dimension, cutoff", [
    (P2, 2, np.inf),
    (FourVector((0.3, 0.4)), 2, np.inf),
    (P4, 4, 60.0),
])
def test_mass_spectrum_matches_per_node_bubbles(p, dimension, cutoff):
    spec = RegulatorSpec(10.0, 0.01, 1.0)
    res = self_energy_regulated(p, 1.0, 1.0, dimension, spec, "mass-spectrum",
                                cutoff=cutoff)
    oracle = _mass_spectrum_by_bubbles(p, 1.0, 1.0, dimension, spec, cutoff)
    assert res.value.imag == 0.0
    assert abs(res.value.real - oracle) / abs(oracle) < 1e-10
    assert res.metadata["window"] == (max(1000.0, cutoff ** 2) if cutoff < np.inf else 1000.0)


def test_mass_spectrum_error_is_the_real_part_error():
    # the route keeps 2 Re of the radial integral, so the error of the
    # discarded imaginary part (about 2.4e-8 here) must not be reported
    spec = RegulatorSpec(10.0, 0.01, 1.0)
    res = self_energy_regulated(FourVector((0.3, 0.4)), 1.0, 1.0, 2, spec, "mass-spectrum")
    assert res.error < 1e-9


# ---------------------------------------------------------------------------
# the bubble's closed-form angular factor


def test_d4_bubble_is_continuous_at_small_momentum():
    # 4 pi^2 (A - sqrt(A^2 - B^2)) / B^2 cancels at B = 2 k |p| << A: at
    # |p| = 1e-7 it read 54.03 with two IntegrationWarnings, against 81.03 at p = 0
    at_rest = self_energy_unregulated(P4, 1.0, 1.0, 4, 100.0).value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        small = self_energy_unregulated(FourVector((1e-7, 0.0, 0.0, 0.0)), 1.0, 1.0, 4,
                                        100.0).value
    assert small == pytest.approx(at_rest, rel=1e-10)


@pytest.mark.parametrize("p_norm, k", [(0.3, 0.05), (0.3, 0.7), (0.3, 3.0), (0.3, 50.0),
                                       (0.01, 50.0)])
def test_d4_angular_factor_matches_quadrature(monkeypatch, p_norm, k):
    # the radial integrand with line = 1 is k^3 times the angular factor
    radial = []
    monkeypatch.setattr(quadrature, "adaptive",
                        lambda func, *args, **kwargs: radial.append(func) or (0j, 0.0))
    bubble(lambda ksq: 1.0, p_norm, 1.0, 4, 100.0)
    a, b = k * k + p_norm ** 2 + 1.0, 2 * k * p_norm
    oracle, _ = integrate.quad(lambda psi: 4 * np.pi * np.sin(psi) ** 2 / (a - b * np.cos(psi)),
                               0.0, np.pi, epsabs=0.0, epsrel=1e-13)
    assert radial[0](k) / k ** 3 == pytest.approx(oracle, rel=1e-12)


def test_d4_needs_threshold_and_finite_cutoff():
    with pytest.raises(DomainError):
        self_energy_regulated(P4, 1.0, 1.0, 4, RegulatorSpec(10.0, 0.0, 1.0),
                              "lambda")
    with pytest.raises(DomainError):
        self_energy_regulated(P4, 1.0, 1.0, 4, RegulatorSpec(10.0, 0.01, 1.0),
                              "mass-spectrum")


def test_regulated_monotone_in_correlation_length():
    values = []
    for dlam in (2.0, 5.0, 10.0, 30.0):
        spec = RegulatorSpec(dlam, 0.01, 1.0)
        values.append(self_energy_regulated(P4, 1.0, 1.0, 4, spec, "lambda",
                                            cutoff=120.0).value.real)
    assert all(b >= a for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# cancellation conditions


def test_pv_conditions_pass_with_threshold():
    report = pv_conditions(RegulatorSpec(10.0, 0.01, 1.0))
    assert report.passed
    assert report.f_tilde_at_zero == 0j
    assert report.f_tilde_slope_at_zero == 0j
    # independent of the correlation length
    wide = pv_conditions(RegulatorSpec(1e6, 0.01, 1.0))
    assert wide.passed


def test_pv_conditions_fail_without_threshold():
    report = pv_conditions(RegulatorSpec(10.0, 0.0, 1.0))
    assert not report.passed
    assert report.f_tilde_at_zero == pytest.approx(1.0 + 0j)


# ---------------------------------------------------------------------------
# divergence scans


def test_d4_scan_is_log_linear():
    deltas = [0.02 / 2 ** k for k in range(7)]  # about two decades
    scan = divergence_scan(P4, 1.0, 1.0, 4, deltas, correlation_length=1e3)
    assert scan.r_squared > 0.99
    assert scan.slope > 0
    # halving-delta increments approach a constant
    values = [r.value.real for r in scan.rows]
    increments = np.diff(values)
    spread = (increments.max() - increments.min()) / increments.mean()
    assert spread < 0.1


def test_d4_scan_slope_matches_cutoff_scan_rate():
    # per e-fold of momentum scale both scans grow by 2 pi^2; the threshold
    # enters through k ~ delta^(-1/2), so the delta-slope is half of that
    deltas = [0.02 / 2 ** k for k in range(7)]
    scan = divergence_scan(P4, 1.0, 1.0, 4, deltas, correlation_length=1e3)
    a = self_energy_unregulated(P4, 1.0, 1.0, 4, 200.0).value.real
    b = self_energy_unregulated(P4, 1.0, 1.0, 4, 200.0 * np.e).value.real
    cutoff_rate = b - a
    assert abs(2 * scan.slope - cutoff_rate) / cutoff_rate < 0.1


def test_d2_scan_converges():
    deltas = [0.02 / 2 ** k for k in range(6)]
    scan = divergence_scan(P2, 1.0, 1.0, 2, deltas, correlation_length=1e3)
    # convergent case: slope a sub-percent fraction of the D=4 rate pi^2
    assert abs(scan.slope) < 0.05 * np.pi ** 2
    values = np.array([r.value.real for r in scan.rows])
    increments = np.abs(np.diff(values))
    assert all(b < a for a, b in zip(increments, increments[1:]))
    assert increments[-1] / abs(values[-1]) < 1e-2


def test_scan_table_columns():
    deltas = [0.02, 0.01]
    scan = divergence_scan(P2, 1.0, 1.0, 2, deltas, correlation_length=100.0)
    rows = scan.table()
    assert list(rows[0]) == ["parameter", "value", "error", "route"]
    assert rows[0]["value"] == scan.rows[0].value
    assert rows[0]["route"] == "lambda"
    with pytest.raises(ContractViolation):
        divergence_scan(P2, 1.0, 1.0, 2, [0.01, 0.02], 100.0)


@pytest.mark.parametrize("deltas", [[], [0.02]])
def test_scan_needs_two_thresholds(deltas):
    with pytest.raises(ContractViolation, match="delta_sequence needs at least two"):
        divergence_scan(P2, 1.0, 1.0, 2, deltas, correlation_length=100.0)

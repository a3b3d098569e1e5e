"""Weight-function regularization of the one-loop self-energy.

Replacing the uniform path-length weight with the thresholded Gaussian

    f(lam) = exp(-lam^2 / 2 dlam^2) * [lam > delta]

turns the divergent euclidean bubble into the regulated amplitude

    T'(p) = Int d^Dk  M(k^2 + m_a^2)  [(p-k)^2 + m_b^2]^(-1),
    M(w)  = Int_delta^inf dlam f(lam) exp(-lam w),

where the inner lambda integral is done analytically (scaled-erfc form) and
the outer momentum integral by adaptive radial quadrature with the angular
part in closed form.  M(w) decays like exp(-delta w)/w at large w, so the
threshold delta > 0 makes the D=4 integral absolutely convergent.

Equivalently, expanding the weight over fixed-mass propagators gives the
mass-spectrum route

    T'(p) = Int dm'^2 F(m'^2) I(p; m'^2)

with the spectral density F the half-line Fourier transform of f.  In
euclidean signature the mass-squared contour runs through m_a^2 parallel to
the imaginary axis (m'^2 = m_a^2 + i w), where every propagator is off its
pole; the real-axis form would hit the k-integral poles for m'^2 < 0.  The
contour integral over w in [0, W] is a fixed Gauss-Legendre sum over 80
geometric panels, and the sum sits inside the line factor of one radial
k-integral: line(k^2) = sum_i c_i / (k^2 + m_a^2 + i w_i), with c_i the
node weight times F.  The window is W = max(1000, cutoff^2) for a finite
cutoff, so the contour reaches past the largest k^2 in the integral, and
W = 1000 otherwise.  The spectral density with the threshold satisfies the
continuous Pauli-Villars cancellation conditions F~(0) = 0 and F~'(0) = 0.

Both routes, and the unregulated bubble in ``interaction``, are one call of
``bubble`` with their own line factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import special

from . import quadrature
from .errors import ContractViolation, DomainError
from .geometry import FourVector


@dataclass(frozen=True)
class RegulatorSpec:
    """Thresholded-Gaussian weight parameters (units of mass^-2) plus the
    line mass."""

    correlation_length: float  # dlam
    threshold: float           # delta
    mass: float = 1.0          # m_a of the regulated line

    def __post_init__(self):
        if not self.correlation_length > 0:
            raise ContractViolation("correlation_length must be positive")
        if not self.threshold >= 0:
            raise ContractViolation("threshold must be >= 0")
        if not self.mass > 0:
            raise ContractViolation("mass must be positive")


@dataclass(frozen=True)
class SelfEnergyResult:
    value: complex
    error: float
    route: str
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.error < 0:
            raise ContractViolation("error estimate must be >= 0")


def spectral_density(mass_squared: float, spec: RegulatorSpec) -> complex:
    """F(m^2) = (2 pi)^-1 Int_delta^inf dlam exp(i lam (m^2 - m_a^2)) f(lam).

    Quadrature with the Gaussian tail truncated at 8 dlam (tail < 1e-14 of
    the peak).
    """
    dlam = spec.correlation_length
    omega = mass_squared - spec.mass ** 2

    def integrand(lam):
        return np.exp(1j * lam * omega - lam * lam / (2 * dlam * dlam))

    value, _ = quadrature.adaptive(integrand, spec.threshold, 8 * dlam, limit=800)
    return value / (2 * np.pi)


def _spectral_density_closed(omega, spec: RegulatorSpec):
    """Half-line Gaussian Fourier transform in stable Faddeeva form.

    (2 pi)^-1 Int_delta^inf exp(-a lam^2 + i omega lam) dlam with
    a = 1/(2 dlam^2) equals
    (2 pi)^-1 exp(-a delta^2 + i omega delta) (1/2) sqrt(pi/a) w(z),
    z = (omega + 2 i a delta) / (2 sqrt(a)), Im z >= 0.  Used on the
    euclidean-continued contour where the truncated oscillatory quadrature
    of spectral_density would need excessively many panels.
    """
    a = 1.0 / (2.0 * spec.correlation_length ** 2)
    sqrt_a = np.sqrt(a)
    delta = spec.threshold
    z = (omega + 2j * a * delta) / (2.0 * sqrt_a)
    head = np.exp(-a * delta * delta + 1j * omega * delta)
    return head * 0.5 * np.sqrt(np.pi / a) * special.wofz(z) / (2 * np.pi)


def _inner_lambda_analytic(w, spec: RegulatorSpec):
    """M(w) = Int_delta^inf exp(-lam^2/2 dlam^2 - lam w) dlam, scaled-erfc form.

    With a = 1/(2 dlam^2) and z = sqrt(a) delta + w/(2 sqrt(a)):
    M = sqrt(pi)/(2 sqrt(a)) erfcx(z) exp(-a delta^2 - delta w), stable for
    large w where the naive erfc underflows.
    """
    a = 1.0 / (2.0 * spec.correlation_length ** 2)
    sqrt_a = np.sqrt(a)
    delta = spec.threshold
    z = sqrt_a * delta + w / (2.0 * sqrt_a)
    return (np.sqrt(np.pi) / (2.0 * sqrt_a) * special.erfcx(z)
            * np.exp(-a * delta * delta - delta * w))


def bubble(line, p_norm: float, m_b: float, dimension: int, top: float,
           points=None) -> tuple[complex, float]:
    """Int_{|k|<top} d^Dk line(k^2) [(p-k)^2 + m_b^2]^(-1), |p| = p_norm.

    Adaptive radial quadrature with the angular integral in closed form:
    D=2: Int dtheta / (A - B cos) = 2 pi / sqrt(A^2 - B^2);
    D=4: 4 pi Int sin^2 / (A - B cos) dpsi = 4 pi^2 / (A + sqrt(A^2 - B^2)),
    which does not cancel at small B, with A = k^2 + p^2 + m_b^2 and
    B = 2 k |p|.  Returns (value, error).
    """
    def radial(k):
        ksq = k * k
        a = ksq + p_norm * p_norm + m_b * m_b
        b = 2.0 * k * p_norm
        if dimension == 2:
            return k * line(ksq) * (2 * np.pi / np.sqrt(a * a - b * b))
        return k ** 3 * line(ksq) * (4 * np.pi ** 2 / (a + np.sqrt(a * a - b * b)))

    return quadrature.adaptive(radial, 0.0, top, limit=400, points=points)


def self_energy_regulated(p: FourVector, m_a: float, m_b: float, dimension: int,
                          spec: RegulatorSpec, route: str = "lambda",
                          cutoff: float | None = None) -> SelfEnergyResult:
    """Regulated self-energy T'(p) by the lambda route or the mass-spectrum
    route (euclidean-continued contour m'^2 = m_a^2 + i w); the two agree
    within combined quadrature tolerances.
    """
    if dimension not in (2, 4):
        raise ContractViolation("dimension must be 2 or 4")
    if dimension == 4 and spec.threshold == 0.0:
        raise DomainError("D=4 without a threshold is not absolutely convergent")
    top = np.inf if cutoff is None else cutoff
    p_norm = float(np.sqrt(p.as_array() @ p.as_array()))
    metadata = {"dimension": dimension, "cutoff": top, "spec": spec}

    if route == "lambda":
        value, err = bubble(lambda ksq: _inner_lambda_analytic(ksq + m_a * m_a, spec),
                            p_norm, m_b, dimension, top)
        return SelfEnergyResult(value, err, "lambda", metadata)
    if route == "mass-spectrum":
        if dimension == 4 and not np.isfinite(top):
            raise DomainError(
                "the D=4 fixed-mass bubbles diverge individually; the "
                "mass-spectrum route needs a common finite cutoff")
        # conjugate symmetry halves the contour: T' = 2 Re Int_0^W dw H(w) I(w)
        window = max(1000.0, top * top) if np.isfinite(top) else 1000.0
        w, wts = quadrature.panels(
            np.concatenate(([0.0], np.geomspace(window * 1e-5, window, 80))))
        coef = wts * _spectral_density_closed(w, spec)
        shift = m_a * m_a + 1j * w
        # only the real part is kept, so only the real part is integrated
        value, err = bubble(lambda ksq: np.sum(coef / (ksq + shift)).real,
                            p_norm, m_b, dimension, top)
        return SelfEnergyResult(complex(2 * value.real), 2 * err, "mass-spectrum",
                                {**metadata, "window": window})
    raise ContractViolation(f"unknown route {route!r}")


@dataclass(frozen=True)
class PVReport:
    f_tilde_at_zero: complex
    f_tilde_slope_at_zero: complex
    passed: bool


def pv_conditions(spec: RegulatorSpec) -> PVReport:
    """Cancellation conditions on F~(lam) = f(lam) exp(-i lam m_a^2) [lam > delta].

    With delta > 0 the function vanishes identically on [0, delta], so
    F~(0) = 0 and the one-sided derivative F~'(0) = 0 exactly.  With
    delta = 0 the threshold is gone: F~(0+) = 1 and the report fails.
    """
    if spec.threshold > 0:
        return PVReport(0j, 0j, True)
    msq = spec.mass ** 2
    # f(0+) = 1; d/dlam [f exp(-i lam m^2)] at 0+ = -i m^2
    return PVReport(1.0 + 0j, -1j * msq, False)


@dataclass(frozen=True)
class ScanRow:
    parameter: float
    value: complex
    error: float
    route: str


@dataclass(frozen=True)
class DivergenceScan:
    rows: tuple[ScanRow, ...]
    slope: float
    slope_stderr: float
    intercept: float
    r_squared: float

    def table(self):
        """Rows as dicts matching the CSV column contract."""
        return [{"parameter": r.parameter, "value_re": r.value.real,
                 "value_im": r.value.imag, "error": r.error, "route": r.route}
                for r in self.rows]


def divergence_scan(p: FourVector, m_a: float, m_b: float, dimension: int,
                    delta_sequence, correlation_length: float = 1e3,
                    cutoff: float | None = None) -> DivergenceScan:
    """Regulated values along a decreasing threshold sequence.

    In D=4 the values grow linearly in log(1/delta) (the unregulated
    logarithmic divergence re-emerges as delta -> 0); the linear fit in
    log(1/delta) is reported with its standard error and R^2.  In D=2 the
    values converge and the fitted slope tends to zero.
    """
    deltas = list(delta_sequence)
    if any(d2 >= d1 for d1, d2 in zip(deltas, deltas[1:])):
        raise ContractViolation("delta_sequence must be strictly decreasing")
    rows = []
    for delta in deltas:
        spec = RegulatorSpec(correlation_length, delta, m_a)
        res = self_energy_regulated(p, m_a, m_b, dimension, spec, "lambda",
                                    cutoff=cutoff)
        rows.append(ScanRow(float(delta), res.value, res.error, res.route))
    x = np.log(1.0 / np.asarray(deltas))
    y = np.array([r.value.real for r in rows])
    design = np.vstack([x, np.ones_like(x)]).T
    coef, residuals, _, _ = np.linalg.lstsq(design, y, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    fitted = design @ coef
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    dof = max(len(deltas) - 2, 1)
    sigma2 = ss_res / dof
    cov = sigma2 * np.linalg.inv(design.T @ design)
    return DivergenceScan(tuple(rows), slope, float(np.sqrt(cov[0, 0])),
                          intercept, r_squared)

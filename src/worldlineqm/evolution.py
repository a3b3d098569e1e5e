"""Parameter evolution of spacetime wavefunctions.

The structural commitment here differs from every textbook Schroedinger
solver: coordinate time x0 is one of the lattice axes, and the external
evolution variable is the path parameter lambda.  A wavefunction psi(x;
lambda) advances by the exact spectral step

    psi~(p; lambda + dlam) = exp(-i dlam (p.p + m^2)) psi~(p; lambda),

with p.p the signed square.  The generator is diagonal in momentum, so the
step is a pure phase for any dlam (no stability constraint, unitary even
though p.p + m^2 is indefinite on a spacetime lattice).  On the lattice one
step is ifftn(phase * fftn(psi)) (`lattice.spectral_multiply`): the phase
depends on p0 only through p0^2, so the time-axis sign reflection of the
unitary transform drops out, and its two scale factors cancel exactly.
The phase itself is a broadcast product of one 1-D factor per axis.

The equivalent differential statement, checked by the finite-difference
residual below, is

    -i d/dlam psi = (box - m^2) psi,   box = eta^{mu nu} d_mu d_nu.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .geometry import metric
from .kernel import lattice_momentum_phase
from .lattice import ComplexField, LatticeSpec, spectral_multiply, spectral_transform


@dataclass(frozen=True)
class ParametrizedWavefunction:
    """Complex amplitude field over the spacetime lattice at parameter lam."""

    field: ComplexField
    lam: float
    mass: float

    def __post_init__(self):
        if self.field.representation != "position":
            raise ContractViolation("wavefunction field must be in position representation")
        if self.mass <= 0:
            raise ContractViolation("mass must be positive")

    @property
    def spec(self) -> LatticeSpec:
        return self.field.spec


def norm(psi: ParametrizedWavefunction) -> float:
    """Position-representation norm sum |psi|^2 * cell volume."""
    return psi.field.norm_squared()


def evolve(psi: ParametrizedWavefunction, dlam: float,
           steps: int = 1) -> ParametrizedWavefunction:
    """Advance psi by `steps` steps of dlam (any sign) with the exact spectral
    phase, built once; bitwise equal to `steps` single-step calls."""
    phase = lattice_momentum_phase(psi.spec, dlam, psi.mass)
    field, lam = psi.field, psi.lam
    for _ in range(steps):
        field = spectral_multiply(field, phase)
        lam += dlam
    return ParametrizedWavefunction(field, lam, psi.mass)


def inner_product(a: ParametrizedWavefunction, b: ParametrizedWavefunction) -> complex:
    """<a|b> = sum conj(a) b * cell volume on a common lattice."""
    if a.spec != b.spec:
        raise ContractViolation("wavefunctions live on different lattices")
    return complex(np.sum(np.conj(a.field.values) * b.field.values) * a.spec.cell_volume)


def stueckelberg_residual(psi: ParametrizedWavefunction, dlam_probe: float) -> float:
    """L2 misfit between the centered lambda-derivative and (box - m^2) psi.

    Returns || -i (psi(lam+h) - psi(lam-h)) / 2h  -  (box - m^2) psi(lam) ||
    with the d'Alembertian applied spectrally.  Second-order small in h: the
    exact-phase step makes the mode-wise misfit (p.p + m^2) - sin(h W)/h
    with W = p.p + m^2, so the residual scales like h^2.
    """
    if not dlam_probe > 0:
        raise ContractViolation("dlam_probe must be positive")
    spec = psi.spec
    w = spec.p_squared("minkowski") + psi.mass ** 2
    tilde = spectral_transform(psi.field, "forward")
    # -i times centered difference of exp(-i h W) phases: -sin(h W)/h
    diff_mult = -np.sin(dlam_probe * w) / dlam_probe
    # (box - m^2) in momentum space is -(p.p + m^2)
    residual_tilde = (diff_mult + w) * tilde.values
    res = ComplexField(spec, residual_tilde, "momentum")
    return float(np.sqrt(res.norm_squared()))


def gaussian_packet(spec: LatticeSpec, center, width, momentum, mass: float,
                    lam: float = 0.0) -> ParametrizedWavefunction:
    """Normalized Gaussian wavepacket exp(-(x-c)^2/4w^2 + i p.x) on the lattice.

    The phase uses the signed pairing p.x, so `momentum` labels a point of the
    dual grid in the evolution's own convention.  The packet is a product of
    one 1-D complex factor per axis, broadcast to the full grid.
    """
    center = np.asarray(center, dtype=float)
    width = np.broadcast_to(np.asarray(width, dtype=float), (spec.dimension,))
    momentum = np.asarray(momentum, dtype=float)
    g = metric(spec.dimension)
    values = np.ones((1,) * spec.dimension, dtype=complex)
    for mu in range(spec.dimension):
        x = spec.axis_coordinates(mu)
        factor = np.exp(-(x - center[mu]) ** 2 / (4 * width[mu] ** 2)
                        + 1j * g[mu] * momentum[mu] * x)
        values = values * spec.along(mu, factor)
    field = ComplexField(spec, values, "position")
    field.values /= np.sqrt(field.norm_squared())
    return ParametrizedWavefunction(field, lam, mass)


def lattice_delta(spec: LatticeSpec, site, mass: float,
                  lam: float = 0.0) -> ParametrizedWavefunction:
    """Unit-impulse state 1/cellvolume at one site (a lattice delta function)."""
    values = np.zeros(spec.shape, dtype=complex)
    values[tuple(site)] = 1.0 / spec.cell_volume
    return ParametrizedWavefunction(ComplexField(spec, values, "position"), lam, mass)

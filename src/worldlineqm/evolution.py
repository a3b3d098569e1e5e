"""Parameter evolution of spacetime wavefunctions.

The structural commitment here differs from every textbook Schroedinger
solver: coordinate time x0 is one of the lattice axes, and the external
evolution variable is the path parameter lambda.  A wavefunction psi(x;
lambda) advances by the exact spectral step

    psi~(p; lambda + dlam) = exp(-i dlam (p.p + m^2)) psi~(p; lambda),

with p.p the signed square.  The generator is diagonal in momentum, so the
step is a pure phase for any dlam (no stability constraint, unitary even
though p.p + m^2 is indefinite on a spacetime lattice).  On the lattice it
multiplies the plain spectrum fftn(psi) (`lattice.plain_fftn`): the phase
depends on p0 only through p0^2, so the time-axis sign reflection of the
unitary transform drops out, and its two scale factors cancel exactly.
The phase is a product of one 1-D factor per axis
(`kernel.lattice_momentum_phase_factors`), so a spectrum held as a product
of broadcast-shaped factors stays one under it: each factor takes the phase
over its own axes.  An evolved wavefunction holds its spectrum this way and
transforms back only when its position values are read, one factor at a
time (`lattice.plain_ifftn`).  A Gaussian packet is born as D one-axis
factors, from one 1-D fft per axis (`lattice.product_spectrum`), so a chain
of k steps from a packet builds no full grid until its positions are read,
and then only the product of D 1-D iffts; from a position field it costs
one fftn, the k full-grid phase products and one ifftn.

The equivalent differential statement, checked by the finite-difference
residual below, is

    -i d/dlam psi = (box - m^2) psi,   box = eta^{mu nu} d_mu d_nu.
"""

from __future__ import annotations

import copy
from functools import reduce
from math import prod
from operator import mul

import numpy as np

from .errors import ContractViolation
from .geometry import metric
from .kernel import lattice_momentum_phase_factors
from .lattice import ComplexField, LatticeSpec, plain_fftn, plain_ifftn, product_spectrum


def _positive(mass: float) -> float:
    if not mass > 0:
        raise ContractViolation("mass must be positive")
    return mass


class ParametrizedWavefunction:
    """Complex amplitude field over the spacetime lattice at parameter lam.

    Built on a position field, or, as `evolve` and `gaussian_packet` build
    it, on a plain spectrum held as the product of broadcast-shaped factors
    that span disjoint axes in axis order: D one-axis factors for a packet,
    one full grid otherwise.  A held spectrum stays the state: `field` is
    computed from it on first read (one 1-D ifft per one-axis factor, one
    ifftn per full-grid one) and cached with read-only values, and the
    factors stand for `field` only while `field.values` is that array, so
    binding a new array there makes the next step transform forward again.
    """

    def __init__(self, field: ComplexField, lam: float, mass: float):
        if field.representation != "position":
            raise ContractViolation("a wavefunction is built from a position field, "
                                    f"not a {field.representation!r} one")
        self.spec, self.lam, self.mass = field.spec, lam, _positive(mass)
        self._factors, self._field = None, field

    @classmethod
    def _holding(cls, spec: LatticeSpec, factors: tuple, lam: float,
                 mass: float) -> ParametrizedWavefunction:
        """The wavefunction whose plain spectrum is the product of `factors`,
        at a mass already checked."""
        psi = cls.__new__(cls)
        psi.spec, psi.lam, psi.mass, psi._factors, psi._field = spec, lam, mass, factors, None
        return psi

    @property
    def field(self) -> ComplexField:
        if self._field is None:
            self._field = plain_ifftn(self.spec, self._factors)
            self._positions = self._field.values
            self._positions.flags.writeable = False
        return self._field

    def _held(self) -> tuple:
        """Factors whose product is the plain spectrum of `field`: the held
        ones while they stand for it, else the one fftn, which is not kept."""
        if self._factors is not None and (
                self._field is None or self._field.values is self._positions):
            return self._factors
        return (plain_fftn(self.field).values,)

    def _spectrum(self) -> ComplexField:
        """The plain spectrum of `field` as one grid: the held one itself if
        it is a single factor."""
        return ComplexField(self.spec, reduce(mul, self._held()), "plain")


def norm(psi: ParametrizedWavefunction) -> float:
    """Position-representation norm sum |psi|^2 * cell volume, or Parseval
    on a held spectrum whose positions are not read: the product of the
    factors' sums |f|^2 times the plain cell volume prod(a) / N."""
    if psi._field is not None:
        return psi._field.norm_squared()
    sums = reduce(mul, (np.vdot(f, f).real for f in psi._factors))
    return float(sums * (psi.spec.cell_volume / prod(psi.spec.shape)))


def evolve(psi: ParametrizedWavefunction, dlam: float,
           steps: int = 1) -> ParametrizedWavefunction:
    """Advance psi by `steps` steps of dlam (any finite sign) with the exact
    spectral phase.  Each factor of psi's held spectrum (one fftn of its
    positions if it holds none) is multiplied `steps` times by the phase over
    its own axes, built once; no ifftn is run.  Bitwise equal to `steps`
    single-step calls; zero steps return psi's held state at the new lam.
    """
    if steps < 0:
        raise ContractViolation(f"steps must be non-negative, got {steps}")
    lam = psi.lam
    for _ in range(steps):
        lam += dlam
    # the phase's largest exponent is dlam times m^2 or a Nyquist (pi / a_mu)^2
    top = max(psi.mass * psi.mass, *((np.pi / a) ** 2 for a in psi.spec.spacings))
    if not (np.isfinite(lam) and np.isfinite(dlam * top)):
        raise ContractViolation(f"dlam must be finite, as must lambda and dlam (p.p + m^2), "
                                f"got dlam {dlam}")
    if not steps:
        out = copy.copy(psi)
        out.lam = lam
        return out
    phases = lattice_momentum_phase_factors(psi.spec, dlam, psi.mass)
    factors = []
    for held in psi._held():
        # the phase over this factor's axes; the first factor, which spans
        # axis 0, takes the scalar exp(-i dlam m^2)
        phase = reduce(mul, (p for p, n in zip(phases, held.shape) if n > 1))
        values = held * phase  # a new array: psi's spectrum is kept
        for _ in range(steps - 1):
            values *= phase
        factors.append(values)
    return ParametrizedWavefunction._holding(psi.spec, tuple(factors), lam, psi.mass)


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
    w = spec.p_squared("minkowski")
    w += psi.mass ** 2
    # -i times centered difference of exp(-i h W) phases is -sin(h W)/h, and
    # (box - m^2) in momentum space is -W: the misfit W - sin(h W)/h, in one buffer
    r = np.multiply(w, dlam_probe)
    np.sin(r, out=r)
    r /= -dlam_probe
    r += w
    res = ComplexField(spec, r * psi._spectrum().values, "plain")
    return float(np.sqrt(res.norm_squared()))


def gaussian_packet(spec: LatticeSpec, center, width, momentum, mass: float,
                    lam: float = 0.0) -> ParametrizedWavefunction:
    """Normalized Gaussian wavepacket exp(-(x-c)^2/4w^2 + i p.x) on the lattice.

    The phase uses the signed pairing p.x, so `momentum` labels a point of the
    dual grid in the evolution's own convention.  `center` and `momentum`
    have one finite component per axis, and `width` one or one per axis, each
    positive and finite.

    The packet is a product of one 1-D complex factor per axis, each
    normalized by its own norm sum |f_mu|^2 a_mu (the norm of the product is
    the product of the norms), and is held as its plain spectrum in D
    one-axis factors, the factors' 1-D ffts (`lattice.product_spectrum`).
    No full grid is built, and none is held until `field` is read: that
    costs D 1-D iffts and leaves one grid held.  The mass and every factor
    are checked before any factor's spectrum is built: a factor that is not
    finite or has zero norm (a width far below the spacing, off the sites)
    is rejected.
    """
    _positive(mass)
    d = spec.dimension
    center, width, momentum = (np.asarray(v, dtype=float) for v in (center, width, momentum))
    for name, v in (("center", center), ("width", width), ("momentum", momentum)):
        if v.shape != (d,) and not (name == "width" and v.ndim == 0):
            raise ContractViolation(f"{name} has dimension {v.size}, expected {d}")
    width = np.broadcast_to(width, (d,))
    if not np.all((width > 0) & np.isfinite(width)):
        raise ContractViolation(f"width must be positive and finite, got {width.tolist()}")
    for name, v in (("center", center), ("momentum", momentum)):
        if not np.all(np.isfinite(v)):
            raise ContractViolation(f"{name} must be finite, got {v.tolist()}")
    g = metric(d)
    factors = []
    for mu in range(d):
        x = spec.axis_coordinates(mu)
        with np.errstate(all="ignore"):
            factor = np.exp(-(x - center[mu]) ** 2 / (4 * width[mu] ** 2)
                            + 1j * g[mu] * momentum[mu] * x)
            norm_squared = np.vdot(factor, factor).real * spec.spacings[mu]
        if not norm_squared > 0:  # also False for NaN: no non-finite factor passes
            raise ContractViolation(
                f"packet factor on axis {mu} is not finite or has zero norm: width "
                f"{width[mu]}, center {center[mu]}, momentum {momentum[mu]}")
        factors.append(factor / np.sqrt(norm_squared))
    return ParametrizedWavefunction._holding(spec, product_spectrum(spec, factors), lam, mass)

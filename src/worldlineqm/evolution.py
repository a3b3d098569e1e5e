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
The phase itself is a broadcast product of one 1-D factor per axis.  An
evolved wavefunction holds that spectrum as its state and transforms back
only when its position values are read.  A Gaussian packet is born as its
spectrum, from one 1-D fft per axis (`lattice.product_spectrum`), so a chain
of k steps from a packet costs no fftn, the k phase products, and one ifftn
when positions are first read; from a position field it costs one fftn.

The equivalent differential statement, checked by the finite-difference
residual below, is

    -i d/dlam psi = (box - m^2) psi,   box = eta^{mu nu} d_mu d_nu.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation
from .geometry import metric
from .kernel import lattice_momentum_phase
from .lattice import ComplexField, LatticeSpec, plain_fftn, plain_ifftn, product_spectrum


class ParametrizedWavefunction:
    """Complex amplitude field over the spacetime lattice at parameter lam.

    Built on a position field, or on its plain spectrum as `evolve` and
    `gaussian_packet` build it.  A spectrum stays the state: `field` is
    computed from it by one ifftn on first read and cached with read-only
    values, so two grids are held from then on, and the spectrum stands
    for `field` only while `field.values` is that array, so binding a new
    array there makes the next step transform forward again.
    """

    def __init__(self, field: ComplexField, lam: float, mass: float):
        if field.representation == "momentum":
            raise ContractViolation("wavefunction field must be positions or their plain spectrum")
        if not mass > 0:
            raise ContractViolation("mass must be positive")
        self.lam, self.mass, self._state = lam, mass, field
        self._field = field if field.representation == "position" else None

    @property
    def spec(self) -> LatticeSpec:
        return self._state.spec

    @property
    def field(self) -> ComplexField:
        if self._field is None:
            self._field = plain_ifftn(self._state)
            self._positions = self._field.values
            self._positions.flags.writeable = False
        return self._field

    def _spectrum(self) -> ComplexField:
        """The plain spectrum of `field`: the state while it stands for it,
        else one fftn that is not kept."""
        if self._state.representation == "plain" and (
                self._field is None or self._field.values is self._positions):
            return self._state
        return plain_fftn(self.field)


def norm(psi: ParametrizedWavefunction) -> float:
    """Position-representation norm sum |psi|^2 * cell volume (Parseval on a
    held spectrum)."""
    return (psi._state if psi._field is None else psi._field).norm_squared()


def evolve(psi: ParametrizedWavefunction, dlam: float,
           steps: int = 1) -> ParametrizedWavefunction:
    """Advance psi by `steps` steps of dlam (any finite sign) with the exact
    spectral phase, built once and multiplied `steps` times into psi's plain
    spectrum (one fftn unless psi holds it, and no ifftn); bitwise equal to
    `steps` single-step calls."""
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
        return ParametrizedWavefunction(psi.field, lam, psi.mass)
    phase = lattice_momentum_phase(psi.spec, dlam, psi.mass)
    values = psi._spectrum().values * phase  # a new array: psi's spectrum is kept
    for _ in range(steps - 1):
        values *= phase
    return ParametrizedWavefunction(ComplexField(psi.spec, values, "plain"), lam, psi.mass)


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
    the product of the norms), and is held as its plain spectrum: the product
    of the factors' 1-D ffts (`lattice.product_spectrum`).  No position grid
    is built; the first read of `field` costs one ifftn and leaves two grids
    held.  A factor that is not finite or has zero norm (a width far below
    the spacing, off the sites) is rejected before any full grid is built.
    """
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
    return ParametrizedWavefunction(product_spectrum(spec, factors), lam, mass)

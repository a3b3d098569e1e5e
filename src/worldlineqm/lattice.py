"""Periodic spacetime lattices and unitary spectral transforms.

The transform convention matches the continuum pairing exp(i p.x) with
p.x = -p0 x0 + p_vec . x_vec, so the frequency sign on the time axis is
flipped relative to the space axes.  Forward maps position amplitudes to
momentum amplitudes:

    psi~(p) = (2 pi)^(-D/2) * prod(a_mu) * sum_x psi(x) exp(-i p.x)

and the inverse uses the conjugate kernel with the momentum cell volume
prod(2 pi / L_mu).  Both directions are unitary with respect to the
cell-volume weighted norms (Parseval).

A multiplier that depends on p0 only through p0^2, such as the evolution
phase exp(-i dlam (p.p + m^2)), acts on the plain spectrum F = fftn(psi)
(`plain_fftn`, unscaled, inverted by `plain_ifftn`) as on the unitary
momentum amplitudes: ifftn(multiplier * fftn(psi)) equals

    spectral_transform(multiplier * spectral_transform(psi, "forward"), "inverse").

The signed time axis is the index reflection k0 -> -k0 of a plain fftn, and
that reflection leaves such a multiplier unchanged (fftfreq's Nyquist entry
maps to itself), so it drops out of forward-then-inverse.  The two scale
factors cancel too: prod(a) * prod(2 pi / L) * (2 pi)^(-D) * N = 1, with N
the site count that ifftn divides by.  For the same reasons the norm of
multiplier * psi~ is that of multiplier * F with the cell volume prod(a) / N
of the "plain" representation (Parseval).  `spatial_momentum_sum` is the
unscaled inverse over the spatial axes alone.

The DFT is separable, so a plain spectrum can be held as broadcast-shaped
factors that span disjoint axes, whose product it is: `product_spectrum`
gives those of a product of one 1-D factor per axis from one 1-D fft per
axis, and `plain_ifftn` inverts each factor over its own axes (one 1-D ifft
for a one-axis factor, ifftn for a full-grid one), so only the product of
the inverses is a full grid.  The package calls fft, ifft, fftn and ifftn
here and nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import mul

import numpy as np
import scipy.fft

from .errors import ContractViolation, UnsupportedSpecError
from .geometry import metric


def _is_power_of_two(n: int) -> bool:
    return n >= 2 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class LatticeSpec:
    """Periodic D-dimensional lattice: shape N_mu (powers of two), extents L_mu."""

    shape: tuple[int, ...]
    extents: tuple[float, ...]

    def __post_init__(self):
        shape = tuple(int(n) for n in self.shape)
        extents = tuple(float(x) for x in self.extents)
        if len(shape) != len(extents):
            raise ContractViolation("shape and extents must have equal length")
        if not all(_is_power_of_two(n) for n in shape):
            raise UnsupportedSpecError(f"axis sizes must be powers of two >= 2, got {shape}")
        if not all(x > 0 for x in extents):
            raise ContractViolation("all extents must be positive")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "extents", extents)

    @property
    def dimension(self) -> int:
        return len(self.shape)

    @property
    def spacings(self) -> tuple[float, ...]:
        return tuple(L / n for L, n in zip(self.extents, self.shape))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacings))

    @property
    def momentum_spacings(self) -> tuple[float, ...]:
        return tuple(2 * np.pi / L for L in self.extents)

    @property
    def momentum_cell_volume(self) -> float:
        return float(np.prod(self.momentum_spacings))

    def axis_coordinates(self, mu: int) -> np.ndarray:
        """Position samples along axis mu: x_j = j * a_mu."""
        a = self.spacings[mu]
        return a * np.arange(self.shape[mu])

    def momentum_axis(self, mu: int) -> np.ndarray:
        """Momentum samples along axis mu in FFT order, spacing 2 pi / L_mu."""
        return 2 * np.pi * np.fft.fftfreq(self.shape[mu], d=self.spacings[mu])

    def along(self, mu: int, values: np.ndarray) -> np.ndarray:
        """1-D values on axis mu, shaped to broadcast against the full grid."""
        shape = [1] * self.dimension
        shape[mu] = self.shape[mu]
        return np.reshape(values, shape)

    def p_squared(self, mode: str = "minkowski") -> np.ndarray:
        """Grid of p.p = sum_mu g_mu p_mu^2 with the metric g of the mode.

        Each signed square is broadcast along its own dimension, so no full
        grid is built until the final sum.  Summing the time axis last rounds
        as sum_i p_i^2 + g_0 p_0^2.
        """
        g = metric(self.dimension, mode)
        return sum(self.along(mu, g[mu] * self.momentum_axis(mu) ** 2)
                   for mu in (*range(1, self.dimension), 0))


@dataclass
class ComplexField:
    """Complex amplitudes on a lattice: position values, unitary momentum
    amplitudes, or the plain spectrum fftn(position values) (`plain_fftn`)."""

    spec: LatticeSpec
    values: np.ndarray
    representation: str = "position"  # "position" | "momentum" | "plain"

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        if values.shape != self.spec.shape:
            raise ContractViolation(
                f"field shape {values.shape} does not match lattice {self.spec.shape}"
            )
        if self.representation not in ("position", "momentum", "plain"):
            raise ContractViolation(f"unknown representation {self.representation!r}")
        self.values = values

    def norm_squared(self) -> float:
        """Sum of |amplitude|^2 times the cell volume of this representation,
        as one dot product: no |v| or |v|^2 grid is built."""
        spec = self.spec
        w = {"position": spec.cell_volume, "momentum": spec.momentum_cell_volume,
             "plain": spec.cell_volume / self.values.size}[self.representation]
        return float(np.vdot(self.values, self.values).real * w)


def _check_finite(field: ComplexField) -> None:
    if not np.all(np.isfinite(field.values)):
        raise ContractViolation("field amplitudes must be finite")


def spectral_transform(field: ComplexField, direction: str) -> ComplexField:
    """Unitary lattice Fourier transform with the signed time-axis convention.

    direction "forward" requires a position-representation field and returns
    momentum amplitudes; "inverse" does the opposite.  Round trip is the
    identity to machine precision.
    """
    spec = field.spec
    _check_finite(field)
    space = tuple(range(1, spec.dimension))
    if direction == "forward":
        if field.representation != "position":
            raise ContractViolation("forward transform expects a position-representation field")
        # time axis: kernel exp(+i p0 x0) -> unscaled inverse FFT
        out = scipy.fft.ifft(field.values, axis=0, norm="forward")
        out = scipy.fft.fftn(out, axes=space, overwrite_x=True)
        out *= spec.cell_volume * (2 * np.pi) ** (-spec.dimension / 2)
        return ComplexField(spec, out, "momentum")
    if direction == "inverse":
        if field.representation != "momentum":
            raise ContractViolation("inverse transform expects a momentum-representation field")
        out = scipy.fft.fft(field.values, axis=0)
        out = scipy.fft.ifftn(out, axes=space, norm="forward", overwrite_x=True)
        out *= spec.momentum_cell_volume * (2 * np.pi) ** (-spec.dimension / 2)
        return ComplexField(spec, out, "position")
    raise ContractViolation(f"unknown direction {direction!r}")


def plain_fftn(field: ComplexField) -> ComplexField:
    """The plain spectrum fftn(values) of a finite position field."""
    if field.representation != "position":
        raise ContractViolation("plain_fftn expects a position-representation field")
    _check_finite(field)
    return ComplexField(field.spec, scipy.fft.fftn(field.values), "plain")


def product_spectrum(spec: LatticeSpec, factors) -> tuple[np.ndarray, ...]:
    """The plain spectrum of the broadcast product of one 1-D factor per axis,
    as the broadcast-shaped factors whose product it is.

    The DFT is separable, fftn(f_0 x ... x f_{D-1}) = fft(f_0) x ... x
    fft(f_{D-1}), so D one-axis transforms replace the full-grid fftn and no
    full grid is built.
    """
    if [np.shape(f) for f in factors] != [(n,) for n in spec.shape]:
        raise ContractViolation(f"product_spectrum needs one factor of length N_mu per axis "
                                f"of {spec.shape}")
    return tuple(spec.along(mu, scipy.fft.fft(factor)) for mu, factor in enumerate(factors))


def plain_ifftn(spec: LatticeSpec, factors) -> ComplexField:
    """The position field ifftn(F) of the plain spectrum F held as the product
    of broadcast-shaped factors that span disjoint axes.

    ifftn is separable like fftn: each factor is inverted over its own axes,
    by one 1-D ifft if it spans one, and the inverses are multiplied in
    order.  A single full-grid factor F gives ifftn(F) itself.
    """
    inverses = []
    for factor in factors:
        own = [mu for mu, n in enumerate(factor.shape) if n > 1]
        inverses.append(scipy.fft.ifft(factor, axis=own[0]) if len(own) == 1
                        else scipy.fft.ifftn(factor))
    return ComplexField(spec, reduce(mul, inverses), "position")


def spatial_momentum_sum(values: np.ndarray) -> np.ndarray:
    """sum_{p_vec} values[t, p_vec] exp(i p_vec . u_vec) at each u_vec = j a mod L,
    for spatial momenta in FFT order on axes 1..; axis 0 (t) is untouched."""
    return scipy.fft.ifftn(values, axes=range(1, np.ndim(values)), norm="forward")

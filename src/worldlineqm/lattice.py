"""Periodic spacetime lattices and the one lattice Fourier convention.

Every lattice object is a Fourier sum over the momentum grid in the plain,
unscaled convention of fftn/ifftn:

- `plain_fftn` and `plain_ifftn` are one transform pair over a spectrum
  held as broadcast-shaped factors that span disjoint axes, whose product it
  is.  The DFT is separable, so each factor is transformed over its own
  axes: one 1-D fft or ifft for a one-axis factor, fftn or ifftn for a
  full-grid one, and only the product of the results is a full grid.  A
  product of one 1-D factor per axis (a Gaussian packet) thus has its
  spectrum from D one-axis ffts.
- `momentum_sum` is the continuum-normalised momentum integral

      (1 / prod L_mu) sum_p values(p) exp(i p.u)

  over the chosen axes, one unscaled ifftn divided by the volume of those
  axes: the lattice kernel, the lattice propagator and the frequency parts
  are each one call of it.

The continuum pairing is exp(i p.x) with p.x = -p0 x0 + p_vec . x_vec, so
the unitary transform of this pairing flips the frequency sign on the time
axis relative to the space axes.  `spectral_transform` keeps that unitary
transform as the reference the tests compare against.  Its forward maps
position amplitudes to momentum amplitudes,

    psi~(p) = (2 pi)^(-D/2) * prod(a_mu) * sum_x psi(x) exp(-i p.x),

and its inverse uses the conjugate kernel with the momentum cell volume
prod(2 pi / L_mu).  Both directions are unitary with respect to the
cell-volume weighted norms (Parseval).

The plain convention is enough for every multiplier that depends on p0 only
through p0^2, such as the evolution phase exp(-i dlam (p.p + m^2)) and the
propagator -i / (p.p + m^2 - i epsilon).  The signed time axis is the index
reflection k0 -> -k0 of a plain fftn, and that reflection leaves such a
multiplier unchanged (fftfreq's Nyquist entry maps to itself), so it drops
out: ifftn(multiplier * fftn(psi)) equals

    spectral_transform(multiplier * spectral_transform(psi, "forward"), "inverse"),

since the two scale factors cancel too, prod(a) * prod(2 pi / L) *
(2 pi)^(-D) * N = 1 with N the site count that ifftn divides by.  For the
same reasons the inverse unitary transform of (2 pi)^(-D/2) * multiplier is
`momentum_sum` of the multiplier, and the norm of multiplier * psi~ is that
of multiplier * fftn(psi) with the cell volume prod(a) / N (Parseval).
The package calls fft, ifft, fftn and ifftn here and nowhere else.
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
    """Complex amplitudes on a lattice: position values, or the unitary
    momentum amplitudes of `spectral_transform`."""

    spec: LatticeSpec
    values: np.ndarray
    representation: str = "position"  # "position" | "momentum"

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        if values.shape != self.spec.shape:
            raise ContractViolation(
                f"field shape {values.shape} does not match lattice {self.spec.shape}"
            )
        if self.representation not in ("position", "momentum"):
            raise ContractViolation(f"unknown representation {self.representation!r}")
        self.values = values

    def norm_squared(self) -> float:
        """Sum of |amplitude|^2 times the cell volume of this representation,
        as one dot product: no |v| or |v|^2 grid is built."""
        w = {"position": self.spec.cell_volume,
             "momentum": self.spec.momentum_cell_volume}[self.representation]
        return float(np.vdot(self.values, self.values).real * w)


def _check_finite(values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)):
        raise ContractViolation("field amplitudes must be finite")


def spectral_transform(field: ComplexField, direction: str) -> ComplexField:
    """Unitary lattice Fourier transform with the signed time-axis convention.

    direction "forward" requires a position-representation field and returns
    momentum amplitudes; "inverse" does the opposite.  Round trip is the
    identity to machine precision.
    """
    spec = field.spec
    _check_finite(field.values)
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


def _per_factor(one_axis, full_grid, factors) -> list[np.ndarray]:
    """Each broadcast-shaped factor transformed over its own axes: by
    `one_axis` along the one it spans, else by `full_grid`."""
    out = []
    for factor in factors:
        own = [mu for mu, n in enumerate(factor.shape) if n > 1]
        out.append(one_axis(factor, axis=own[0]) if len(own) == 1 else full_grid(factor))
    return out


def plain_fftn(factors) -> tuple[np.ndarray, ...]:
    """The plain spectrum fftn(f) of the product f of finite broadcast-shaped
    factors that span disjoint axes, as the factors' own transforms, whose
    product it is: one 1-D fft per one-axis factor, fftn per full-grid one.

    fftn is separable, fftn(f_0 x ... x f_{D-1}) = fft(f_0) x ... x
    fft(f_{D-1}), so D one-axis factors build no full grid, and a single
    full-grid factor gives (fftn(f),).
    """
    for factor in factors:
        _check_finite(factor)
    return tuple(_per_factor(scipy.fft.fft, scipy.fft.fftn, factors))


def plain_ifftn(spec: LatticeSpec, factors) -> ComplexField:
    """The position field ifftn(F) of the plain spectrum F held as the product
    of broadcast-shaped factors that span disjoint axes: the inverse of
    `plain_fftn`.  Each factor is inverted over its own axes and the
    inverses are multiplied in order, so a single full-grid factor F gives
    ifftn(F) itself.
    """
    return ComplexField(spec, reduce(mul, _per_factor(scipy.fft.ifft, scipy.fft.ifftn, factors)),
                        "position")


def momentum_sum(spec: LatticeSpec, values: np.ndarray, axes=None) -> np.ndarray:
    """(1 / prod L_mu) sum_p values[p] exp(i p.u) over the momenta of `axes`
    (all by default) in FFT order, at each displacement u = j a mod L on
    those axes; any other axis is untouched.  The sum pairs every axis with
    exp(+i p_mu u_mu), so where axis 0 is summed it is the signed pairing
    only for values even in p0, as every multiplier of the package is.
    """
    axes = range(spec.dimension) if axes is None else axes
    volume = float(np.prod([spec.extents[mu] for mu in axes]))
    return scipy.fft.ifftn(values, axes=axes, norm="forward") / volume

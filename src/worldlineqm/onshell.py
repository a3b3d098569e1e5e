"""On-shell particle and antiparticle states from the large-time limit.

A state of fixed spatial momentum at time t spreads over frequencies p0 with
an amplitude profile that sharpens onto the mass shell p0 = sign * E_p as the
time-integral regulator epsilon goes to zero; E_p is always
geometry.onshell_energy.  The on-shell kets are never materialized directly,
only the dual pairings below.  Pairing on-shell bras against time-indexed
kets gives a bi-orthonormal system with weight 1/(2 E_p) (the "induced"
pairing, dual_pairing_time_state); inserting
sum_p d^dp (2 E_p) |t0,p><p| resolves the identity on the grid
(identity_resolution_apply).  Wavefunctions of localized states then come
out as plane waves, versus the conventional symmetric sqrt(2 E_p) dual
convention which reproduces the Newton-Wigner profile.

Continuum delta functions are represented on grids as Kronecker / dp^d; all
pairing identities are grid-exact under that dictionary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, DomainError
from .geometry import onshell_energy

INDUCED_2E = "induced-2E"
SYMMETRIC_SQRT2E = "symmetric-sqrt2E"
_CONVENTIONS = (INDUCED_2E, SYMMETRIC_SQRT2E)


@dataclass(frozen=True)
class MomentumGrid:
    """Uniform spatial momentum grid, symmetric about zero."""

    spatial_dimension: int
    points_per_axis: int
    spacing: float

    def __post_init__(self):
        if not self.spacing > 0:
            raise ContractViolation("spacing must be positive")
        if self.points_per_axis < 1:
            raise ContractViolation("need at least one point per axis")

    def axis(self) -> np.ndarray:
        n = self.points_per_axis
        return self.spacing * (np.arange(n) - (n - 1) / 2.0)

    def mesh(self) -> list[np.ndarray]:
        return list(np.meshgrid(*[self.axis()] * self.spatial_dimension, indexing="ij"))

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points_per_axis,) * self.spatial_dimension

    @property
    def cell_volume(self) -> float:
        return self.spacing ** self.spatial_dimension


@dataclass(frozen=True)
class OnShellState:
    """Particle (+) or antiparticle (-) label of spatial momentum p_vec."""

    sign: int
    p_spatial: tuple[float, ...]
    mass: float

    def __post_init__(self):
        if self.sign not in (+1, -1):
            raise ContractViolation("sign must be +1 or -1")
        if not self.mass > 0:
            raise ContractViolation("mass must be positive")
        object.__setattr__(self, "p_spatial", tuple(float(p) for p in self.p_spatial))


def onshell_propagator_momentum(p, mass: float, sign: int, epsilon: float) -> complex:
    """Frequency-part propagator (2E)^-1 i s / (p0 - s E + i s eps), s = sign,
    at the momentum sequence p = (p0, p_1, ..., p_d).

    This is the epsilon-regularized one-sided time integral
    (2E)^-1 Int dt theta(s t) exp(i (p0 - s E) t).
    """
    if sign not in (+1, -1):
        raise ContractViolation("sign must be +1 or -1")
    if not epsilon > 0:
        raise DomainError("epsilon must be positive")
    p0, *p_spatial = p
    e = float(onshell_energy(p_spatial, mass))
    return (1j * sign / (p0 - sign * e + 1j * sign * epsilon)) / (2 * e)


@dataclass(frozen=True)
class FrequencyProfile:
    """Amplitude over a p0 grid for a fixed spatial momentum state."""

    p0: np.ndarray
    amplitude: np.ndarray
    center: float  # sign * E_p
    epsilon: float


def momentum_state_profile(p_spatial, mass: float, sign: int, t: float,
                           epsilon: float, p0_grid) -> FrequencyProfile:
    """Frequency content of the momentum state at time t.

    Closed-form evaluation of
    exp(-i s E t) (2E)^-1 Int dt0 exp(i (p0 - s E) t0 - eps |t0|)
    with the t0 range (-inf, t] for particles (s = +1) and [t, inf) for
    antiparticles (s = -1).  At t = 0 the squared profile is a Lorentzian of
    half-width eps centered at p0 = s E.  `t` and every p0 must be finite.

    Beyond p0_grid itself the evaluation holds one complex grid at t = 0, the
    amplitude, and two otherwise.
    """
    if sign not in (+1, -1):
        raise ContractViolation("sign must be +1 or -1")
    if not epsilon > 0:
        raise DomainError("epsilon must be positive")
    if not np.isfinite(t):
        raise DomainError(f"t must be finite, got {t}")
    p0 = np.asarray(p0_grid, dtype=float)
    if p0.ndim != 1:
        raise ContractViolation("p0_grid must be one-dimensional")
    if not np.all(np.isfinite(p0)):
        raise DomainError("p0_grid entries must be finite")
    e = float(onshell_energy(np.atleast_1d(p_spatial), mass))
    # t0 -> -t0 maps the antiparticle range [t, inf) onto (-inf, -t] and flips
    # p0 - s E: both signs are the particle integral at offset x = s p0 - E,
    # limit s t.  z = i x + eps is written part by part into one complex grid
    ts = sign * t
    z = np.empty(p0.shape, dtype=complex)
    np.multiply(p0, sign, out=z.imag)
    z.imag -= e
    if ts > 0:
        # the second term (exp((i x - eps) ts) - 1) / (i x - eps) first, with
        # z holding i x - eps
        z.real = -epsilon
        core = np.multiply(z, ts)
        np.exp(core, out=core)
        core -= 1.0
        core /= z
    z.real = epsilon
    if ts == 0:
        # exp(0) = 1: no exp over the grid, and no phase, which would change no
        # bit since the real part of 1 / z is never zero
        core = np.divide(1, z, out=z)
    else:
        if ts < 0:
            core = np.multiply(z, ts)
            np.exp(core, out=core)
            core /= z
        else:
            core += np.divide(1.0, z, out=z)
        np.multiply(np.exp(-1j * sign * e * t), core, out=core)
    core /= 2 * e
    return FrequencyProfile(p0, core, center=sign * e, epsilon=epsilon)


def concentration(profile: FrequencyProfile, window_halfwidth: float) -> float:
    """Fraction of |amplitude|^2 weight in the open window
    (center - w, center + w), w = window_halfwidth.

    Both sums are dot products and the window is two boolean masks, so no
    float grid is built.
    """
    if not window_halfwidth > 0:
        raise ContractViolation("window_halfwidth must be positive")
    a, p0, c = profile.amplitude, profile.p0, profile.center
    total = np.vdot(a, a).real
    if total == 0.0:
        return 0.0
    inside = p0 > c - window_halfwidth
    inside &= p0 < c + window_halfwidth
    window = a[inside]
    return float(np.vdot(window, window).real / total)


def identity_resolution_apply(psi: np.ndarray, grid: MomentumGrid, mass: float) -> np.ndarray:
    """Round-trip psi through the resolution of the identity.

    Coefficients come from the induced pairing against each basis bra; the
    reconstruction weights each basis ket by dp^d (2 E_p).  Exact on the grid.
    """
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != grid.shape:
        raise ContractViolation("wavefunction does not match the grid")
    e = onshell_energy(grid.mesh(), mass)
    # bra_p pairing: (2E_p)^-1 psi(p) per Kronecker/dp^d dictionary
    coefficients = psi / (2 * e)
    # ket weights: dp^d (2E_p) times the basis function Kronecker/dp^d
    return (grid.cell_volume * 2 * e) * coefficients / grid.cell_volume


def dual_pairing_time_state(bra: OnShellState, ket: OnShellState, t0: float,
                            grid: MomentumGrid) -> complex:
    """Pairing of an on-shell bra with a time-indexed momentum ket.

    Equals (2 E_p)^-1 Kronecker/dp^d for matching labels; the explicit time
    phases exp(-i s E t0) and exp(+i p0 t0) at the on-shell point cancel, so
    the value is independent of t0 (bi-orthonormality).
    """
    if bra.mass != ket.mass or bra.sign != ket.sign:
        return 0j
    if bra.p_spatial != ket.p_spatial:
        return 0j
    e = onshell_energy(bra.p_spatial, bra.mass)
    state_phase = np.exp(-1j * bra.sign * e * t0)
    frequency_phase = np.exp(1j * (bra.sign * e) * t0)  # p0 pinned on shell
    return complex(state_phase * frequency_phase / (2 * e) / grid.cell_volume)


def localized_wavefunction(x_spatial, t: float, p_spatial, mass: float, sign: int,
                           convention: str) -> complex:
    """Momentum wavefunction of a position eigenstate at time t.

    The induced-2E convention gives the plane wave
    (2 pi)^(-d/2) exp(i(sign E t - p.x)); the symmetric-sqrt2E convention
    carries an extra (2 E_p)^(-1/2), reproducing the conventional localized
    (Newton-Wigner) profile at t = 0.
    """
    if convention not in _CONVENTIONS:
        raise ContractViolation(f"unknown convention {convention!r}")
    if sign not in (+1, -1):
        raise ContractViolation("sign must be +1 or -1")
    x = np.atleast_1d(np.asarray(x_spatial, dtype=float))
    p = np.atleast_1d(np.asarray(p_spatial, dtype=float))
    if x.shape != p.shape:
        raise ContractViolation("x and p must have the same spatial dimension")
    d = x.size
    e = float(onshell_energy(p, mass))
    value = (2 * np.pi) ** (-d / 2) * np.exp(1j * (sign * e * t - p @ x))
    if convention == SYMMETRIC_SQRT2E:
        value = value / np.sqrt(2 * e)
    return complex(value)


def fw_phase_evolve(psi: np.ndarray, grid: MomentumGrid, mass: float, sign: int,
                    dt: float) -> np.ndarray:
    """Advance a 3-momentum wavefunction by the square-root Hamiltonian phase.

    Multiplies each amplitude by exp(i sign E_p dt), E_p = sqrt(p^2 + m^2).
    In the non-relativistic regime this approaches the quadratic-Hamiltonian
    phase exp(i sign (m + p^2/2m) dt).
    """
    if sign not in (+1, -1):
        raise ContractViolation("sign must be +1 or -1")
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != grid.shape:
        raise ContractViolation("wavefunction does not match the grid")
    return psi * np.exp(1j * sign * onshell_energy(grid.mesh(), mass) * dt)

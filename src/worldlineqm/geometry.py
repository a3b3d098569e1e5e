"""Minkowski/Euclidean geometry primitives.

Conventions: metric signature (-,+,...,+) with index 0 the time axis; natural
units (hbar = c = 1). Dimension D = d + 1 is a runtime parameter; D = 2 and
D = 4 are the exercised cases.  `metric` owns the signature and the mode
names; every signed square, phase and kernel width takes its sign from it.
`onshell_energy` owns the mass shell: every on-shell energy E_p is its root.
Two argument contracts that several modules share live here too: `SIGNS` and
`check_sign` own the frequency sign (+1 particle, -1 antiparticle) of every
on-shell route, and `check_mass` owns the positive particle mass.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation

MODES = ("euclidean", "minkowski")  # the two signatures, by name
SIGNS = (-1, 1)  # the frequency signs: antiparticle, particle


@functools.cache  # a kernel asks for it at every evaluation
def metric(dimension: int, mode: str = "minkowski") -> tuple[float, ...]:
    """Diagonal of the metric: (-1, +1, ..., +1) in minkowski mode, all +1 in
    euclidean mode.  The one check of a mode name."""
    if mode not in MODES:
        raise ContractViolation(f"unknown mode {mode!r}")
    if not dimension >= 1:
        raise ContractViolation(f"dimension must be at least 1, got {dimension!r}")
    return (-1.0 if mode == "minkowski" else 1.0,) + (1.0,) * (dimension - 1)


def wick_factor(mode: str) -> complex:
    """z of the kernel exp(-z T (p.p + m^2)): i in minkowski mode, 1 in euclidean."""
    return 1j if metric(1, mode)[0] < 0 else 1.0


def check_sign(sign: int) -> int:
    """The one check of a frequency sign: returns it if it is in SIGNS."""
    if sign not in SIGNS:
        raise ContractViolation("sign must be +1 or -1")
    return sign


def check_mass(mass: float) -> float:
    """The one check of a particle mass: returns it if it is positive (not NaN)."""
    if not mass > 0:
        raise ContractViolation("mass must be positive")
    return mass


def onshell_energy(p_spatial, mass: float):
    """E_p = sqrt(p.p + m^2), the positive root p0 of the mass shell p.p + m^2 = 0
    of `metric`.  The components of p_spatial are floats or same-shape arrays
    (a momentum mesh); the energy has their shape."""
    return np.sqrt(sum(p * p for p in p_spatial) + mass * mass)


@dataclass(frozen=True)
class FourVector:
    """A point or momentum in D-dimensional spacetime, component 0 = time."""

    components: tuple[float, ...]

    def __post_init__(self):
        comps = tuple(float(c) for c in self.components)
        if len(comps) < 1:
            raise ContractViolation("FourVector needs at least one component")
        object.__setattr__(self, "components", comps)

    @property
    def dimension(self) -> int:
        return len(self.components)

    @property
    def time(self) -> float:
        return self.components[0]

    @property
    def spatial(self) -> tuple[float, ...]:
        return self.components[1:]

    def as_array(self) -> np.ndarray:
        return np.asarray(self.components, dtype=float)

    def check_dimension(self, dimension: int, name: str) -> None:
        """Raise ContractViolation unless the vector has `dimension` components."""
        if self.dimension != dimension:
            raise ContractViolation(f"{name} has dimension {self.dimension}, expected {dimension}")

    def __sub__(self, other: "FourVector") -> "FourVector":
        _check_dims(self, other)
        return FourVector(tuple(a - b for a, b in zip(self.components, other.components)))


def _check_dims(a: FourVector, b: FourVector):
    if a.dimension != b.dimension:
        raise ContractViolation(
            f"dimension mismatch: {a.dimension} vs {b.dimension}"
        )


def minkowski_dot(a: FourVector, b: FourVector) -> float:
    """Signed inner product sum_mu g_mu a_mu b_mu = -a0*b0 + sum_i ai*bi."""
    _check_dims(a, b)
    return float(np.sum(a.as_array() * b.as_array() * metric(a.dimension)))


@dataclass(frozen=True)
class ParticleType:
    """A scalar particle species.

    ``conjugate`` selects the two-point pairing used by typed fields:
    "plain" pairs with the full Feynman propagator, "normal" with the
    positive-frequency part, "anti" with the argument-reversed
    negative-frequency part, which by momentum parity is the "normal"
    pairing.  Tachyonic masses are rejected.
    """

    label: str
    mass: float
    conjugate: str = "plain"  # "plain" | "normal" | "anti"

    def __post_init__(self):
        check_mass(self.mass)
        if self.conjugate not in ("plain", "normal", "anti"):
            raise ContractViolation(f"unknown conjugate flag {self.conjugate!r}")

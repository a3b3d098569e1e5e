"""Worldline (spacetime-path) relativistic quantum mechanics for massive scalars.

Subpackage map:

- ``geometry``       signed/euclidean inner products, four-vectors, particle types
- ``lattice``        periodic spacetime lattices and unitary spectral transforms
- ``paths``          discretized paths, parametrizations, the path action
- ``kernel``         fixed-length kernels (closed form, discretized collapse,
                     euclidean Monte Carlo), proper-time propagators,
                     frequency parts, mass superposition, lattice kernels
- ``evolution``      Stueckelberg parameter evolution of spacetime wavefunctions
- ``onshell``        particle/antiparticle momentum states, induced inner
                     product, localization conventions, time-phase evolution
- ``fock``           symmetrized multiparticle states, permanents, the one
                     count-vector field-application engine, the special
                     adjoint, commutators on finite grids
- ``interaction``    vertex operators on truncated sectors, perturbative
                     amplitudes, external-line factors, tree-level scattering,
                     the unregulated self-energy
- ``regularization`` weight-function (continuous Pauli-Villars) regulator:
                     spectral density, regulated self-energy via two routes,
                     cancellation conditions, divergence scans
- ``quadrature``     the one quadrature layer: adaptive integration of
                     complex integrands, Gauss-Legendre panel rules, the
                     Fourier-weighted tail integral (fourier_tail)
- ``cli``            batch front end with JSON configs and CSV/JSON records
"""

from .geometry import FourVector, ParticleType, euclidean_dot, minkowski_dot
from .lattice import ComplexField, LatticeSpec, spectral_transform
from .paths import DiscretePath, Parametrization, action, action_restrict, reparametrize
from .kernel import (
    KernelParams,
    WeightFunction,
    kernel_closed,
    kernel_discretized,
    kernel_mass_superposition,
    kernel_mc,
    propagator_momentum,
    propagator_onshell_part,
    propagator_position,
)

__all__ = [
    "FourVector",
    "ParticleType",
    "minkowski_dot",
    "euclidean_dot",
    "LatticeSpec",
    "ComplexField",
    "spectral_transform",
    "DiscretePath",
    "Parametrization",
    "action",
    "action_restrict",
    "reparametrize",
    "KernelParams",
    "WeightFunction",
    "kernel_closed",
    "kernel_discretized",
    "kernel_mc",
    "kernel_mass_superposition",
    "propagator_position",
    "propagator_momentum",
    "propagator_onshell_part",
]

__version__ = "0.1.0"

import numpy as np
import pytest

from worldlineqm.errors import ContractViolation, DegeneratePathError, DomainError
from worldlineqm.evolution import gaussian_packet, stueckelberg_residual
from worldlineqm.geometry import FourVector
from worldlineqm.interaction import (
    FINAL_PARTICLE,
    ScatterLeg,
    ScatterSpec,
    external_line_factor,
    self_energy_unregulated,
)
from worldlineqm.kernel import (
    KernelParams,
    WeightFunction,
    euclidean_mass_propagator_batch,
    kernel_closed,
    kernel_damped,
    kernel_discretized,
    kernel_mass_superposition,
    kernel_mc,
    lattice_propagator,
    propagator_momentum,
    propagator_onshell_part,
    propagator_position,
    segment_norm,
)
from worldlineqm.lattice import LatticeSpec
from worldlineqm.onshell import (
    MomentumGrid,
    OnShellState,
    concentration,
    momentum_state_profile,
    onshell_propagator_momentum,
)
from worldlineqm.regularization import RegulatorSpec, divergence_scan, self_energy_regulated

NAN = float("nan")


def _profile():
    return momentum_state_profile((0.3,), 1.0, 1, 0.0, 0.01, [1.0, 1.1])


_LATTICE2 = LatticeSpec((4, 4), (4.0, 4.0))


def _packet():
    return gaussian_packet(_LATTICE2, (2.0, 2.0), 1.0, (0.0, 0.0), 1.0)


def _legs(p):
    return (ScatterLeg((p,), "A"), ScatterLeg((0.0,), "A"))


# each check with NaN in place of one positive, non-negative or finite
# parameter; NaN fails every comparison, so a guard written `x <= 0` let it
# through.  The infinite dx returned nan+nanj with a RuntimeWarning
_NAN_CASES = {
    "KernelParams.mass": (ContractViolation, "mass must be positive",
                          lambda: KernelParams(NAN, 1.0, 2, "euclidean")),
    "KernelParams.total_length": (DomainError, "intrinsic length T must be positive",
                                  lambda: KernelParams(1.0, NAN, 2, "euclidean")),
    "WeightFunction.correlation_length": (ContractViolation, "correlation_length must be positive",
                                          lambda: WeightFunction.gaussian(NAN, 0.01)),
    "WeightFunction.threshold": (ContractViolation, "threshold must be >= 0",
                                 lambda: WeightFunction.gaussian(10.0, NAN)),
    "RegulatorSpec.correlation_length": (ContractViolation, "correlation_length must be positive",
                                         lambda: RegulatorSpec(NAN, 0.01, 1.0)),
    "RegulatorSpec.threshold": (ContractViolation, "threshold must be >= 0",
                                lambda: RegulatorSpec(10.0, NAN, 1.0)),
    "RegulatorSpec.mass": (ContractViolation, "mass must be positive",
                           lambda: RegulatorSpec(10.0, 0.01, NAN)),
    "MomentumGrid.spacing": (ContractViolation, "spacing must be positive",
                             lambda: MomentumGrid(1, 9, NAN)),
    "OnShellState.mass": (ContractViolation, "mass must be positive",
                          lambda: OnShellState(1, (0.3,), NAN)),
    "propagator_momentum.epsilon": (DomainError, "epsilon must be positive",
                                    lambda: propagator_momentum(FourVector((0.0, 0.0)), 1.0, NAN)),
    "momentum_state_profile.epsilon": (
        DomainError, "epsilon must be positive",
        lambda: momentum_state_profile((0.3,), 1.0, 1, 0.0, NAN, [1.0])),
    "momentum_state_profile.t": (
        DomainError, "t must be finite",
        lambda: momentum_state_profile((0.3,), 1.0, 1, NAN, 0.01, [1.0])),
    "momentum_state_profile.p0_grid": (
        DomainError, "p0_grid entries must be finite",
        lambda: momentum_state_profile((0.3,), 1.0, 1, 0.0, 0.01, [1.0, NAN])),
    "onshell_propagator_momentum.epsilon": (
        DomainError, "epsilon must be positive",
        lambda: onshell_propagator_momentum((1.0, 0.3), 1.0, 1, NAN)),
    "propagator_onshell_part.damping": (
        DomainError, "damping must be positive",
        lambda: propagator_onshell_part(FourVector((0.5, 0.2)), 1.0, 1, NAN, 2)),
    "concentration.window": (ContractViolation, "window_halfwidth must be positive",
                             lambda: concentration(_profile(), NAN)),
    "segment_norm.dlam": (DegeneratePathError, "segment length must be positive",
                          lambda: segment_norm(NAN, 2, "euclidean")),
    "gaussian_packet.mass": (ContractViolation, "mass must be positive",
                             lambda: gaussian_packet(_LATTICE2, (2.0, 2.0), 1.0, (0.0, 0.0), NAN)),
    "gaussian_packet.center": (ContractViolation, "center must be finite",
                               lambda: gaussian_packet(_LATTICE2, (2.0, NAN), 1.0, (0.0, 0.0), 1.0)),
    "gaussian_packet.momentum": (
        ContractViolation, "momentum must be finite",
        lambda: gaussian_packet(_LATTICE2, (2.0, 2.0), 1.0, (NAN, 0.0), 1.0)),
    "stueckelberg_residual.dlam_probe": (ContractViolation, "dlam_probe must be positive",
                                         lambda: stueckelberg_residual(_packet(), NAN)),
    "ScatterSpec.momentum": (ContractViolation, "off the grid",
                             lambda: ScatterSpec(_legs(NAN), _legs(0.5), MomentumGrid(1, 9, 0.5))),
    "kernel_damped.damping": (DomainError, "damping must be >= 0",
                              lambda: kernel_damped(FourVector((0.3, 0.4)), 1.0, 1.0, NAN)),
    "propagator_position.epsilon": (
        DomainError, "epsilon must be >= 0",
        lambda: propagator_position(FourVector((0.3, 0.4)), 1.0, NAN, WeightFunction.uniform(), 2,
                                    "minkowski", damping=1e-2)),
    "propagator_position.minkowski.damping": (
        DomainError, "needs damping > 0",
        lambda: propagator_position(FourVector((0.3, 0.4)), 1.0, 1e-2, WeightFunction.uniform(),
                                    2, "minkowski", damping=NAN)),
    "kernel_mass_superposition.euclidean.epsilon": (
        DomainError, "epsilon must be positive",
        lambda: kernel_mass_superposition(FourVector((0.3, 0.4)), 1.0, 1.0, NAN,
                                          [0.0, 1.0, 2.0], 2, mode="euclidean")),
    "kernel_mass_superposition.one_node.epsilon": (
        DomainError, "epsilon must be positive",
        lambda: kernel_mass_superposition(FourVector((0.3, 0.4)), 1.0, 1.0, NAN, [1.0], 2)),
    "kernel_mass_superposition.euclidean.dx": (
        DomainError, "needs a finite \\|dx\\| > 0",
        lambda: kernel_mass_superposition(FourVector((NAN, 0.4)), 1.0, 1.0, 1e-3,
                                          [0.0, 1.0, 2.0], 2)),
    "kernel_mass_superposition.total_length": (
        DomainError, "T must be positive",
        lambda: kernel_mass_superposition(FourVector((0.3, 0.4)), NAN, 1.0, 1e-3,
                                          [0.0, 1.0, 2.0], 2)),
    "lattice_propagator.epsilon": (DomainError, "epsilon must be positive",
                                   lambda: lattice_propagator(_LATTICE2, 1.0, NAN)),
    "euclidean_mass_propagator_batch.mass_squared": (
        DomainError, "need Re\\(mass_squared\\) > 0",
        lambda: euclidean_mass_propagator_batch(FourVector((0.3, 0.4)), [1.0, NAN])),
    "euclidean_mass_propagator_batch.infinite_dx": (
        DomainError, "needs a finite \\|dx\\| > 0",
        lambda: euclidean_mass_propagator_batch(FourVector((0.3, float("inf"))), 1.0)),
}


@pytest.mark.parametrize("error, message, call", _NAN_CASES.values(), ids=list(_NAN_CASES))
def test_parameter_checks_reject_nan(error, message, call):
    with pytest.raises(error, match=message):
        call()


# |dx| and |dx⃗| once squared the components: (1e200, 1e200) and (1e300, 0)
# warned "overflow encountered in dot", (1e-200, 0) was rejected as |dx| = 0
# and (0.5, 1e200) warned in propagator_onshell_part.  Each now gives a
# finite value or a DomainError, with no warning
_EXTREME_DX = {"huge_both": (1e200, 1e200), "huge_time": (1e300, 0.0),
               "tiny_time": (1e-200, 0.0), "huge_space": (0.5, 1e200)}


@pytest.mark.parametrize("dimension", [2, 4])
@pytest.mark.parametrize("components", _EXTREME_DX.values(), ids=list(_EXTREME_DX))
def test_extreme_separations_give_a_value_or_a_domain_error(components, dimension):
    dx = FourVector(components + (0.0,) * (dimension - 2))
    origin = FourVector((0.0,) * dimension)
    if components[0] == 1e-200:
        assert propagator_onshell_part(dx, 1.0, 1, 1e-2, dimension) == pytest.approx(
            propagator_onshell_part(origin, 1.0, 1, 1e-2, dimension), rel=1e-12)
    else:
        with pytest.raises(DomainError, match="too long for the phase"):
            propagator_onshell_part(dx, 1.0, 1, 1e-2, dimension)
    if components[0] == 1e-200 and dimension == 2:
        # K_0(r) / 2 pi = -(log(r / 2) + gamma) / 2 pi up to O(r^2 log r)
        want = -(np.log(0.5e-200) + np.euler_gamma) / (2 * np.pi)
        assert euclidean_mass_propagator_batch(dx, 1.0)[0] == pytest.approx(want, rel=1e-12)
    else:  # 1 / (4 pi^2 |dx|^2) overflows in D = 4; K_nu is NaN at large |dx|
        with pytest.raises(DomainError, match="no finite Bessel value"):
            euclidean_mass_propagator_batch(dx, [1.0, 2.0 + 1.0j])


# a vector whose length disagrees with the dimension argument, and a mode
# name the metric does not know: each once returned a value or an IndexError
_D2, _D4 = FourVector((0.3, 0.4)), FourVector((0.3, 0.4, 0.5, 0.6))
_ORIGIN2, _ORIGIN4 = FourVector((0.0, 0.0)), FourVector((0.0,) * 4)
_PARAMS2, _PARAMS4 = KernelParams(1.0, 1.0, 2, "euclidean"), KernelParams(1.0, 1.0, 4, "euclidean")
_MASS_GRID = [0.0, 1.0, 2.0]
_MISMATCH_CASES = {
    "kernel_closed.long_dx": ("dx has dimension 4, expected 2",
                              lambda: kernel_closed(_D4, _PARAMS2)),
    "kernel_closed.short_dx": ("dx has dimension 2, expected 4",
                               lambda: kernel_closed(_D2, _PARAMS4)),
    "kernel_discretized.long_x": (
        "x has dimension 4, expected 2",
        lambda: kernel_discretized(_D4, _ORIGIN4, [1.0], _PARAMS2)),
    "kernel_discretized.short_x": (
        "x has dimension 2, expected 4",
        lambda: kernel_discretized(_D2, _ORIGIN2, [1.0], _PARAMS4)),
    "kernel_mc.long_x": ("x has dimension 4, expected 2",
                         lambda: kernel_mc(_D4, _ORIGIN4, _PARAMS2, 8, 1000, 0)),
    "kernel_mc.short_x": ("x has dimension 2, expected 4",
                          lambda: kernel_mc(_D2, _ORIGIN2, _PARAMS4, 8, 1000, 0)),
    "kernel_mass_superposition.euclidean.long_dx": (
        "dx has dimension 4, expected 2",
        lambda: kernel_mass_superposition(_D4, 1.0, 1.0, 1e-3, _MASS_GRID, 2)),
    "kernel_mass_superposition.euclidean.short_dx": (
        "dx has dimension 2, expected 4",
        lambda: kernel_mass_superposition(_D2, 1.0, 1.0, 1e-3, _MASS_GRID, 4)),
    "external_line_factor.short_p": (
        "x and p must have the same spatial dimension",
        lambda: external_line_factor(FINAL_PARTICLE, (0.3,), 1.0, _D4)),
    "propagator_position.long_dx": (
        "dx has dimension 4, expected 2",
        lambda: propagator_position(_D4, 1.0, 0.1, WeightFunction.uniform(), 2)),
    "propagator_position.short_dx": (
        "dx has dimension 2, expected 4",
        lambda: propagator_position(_D2, 1.0, 0.1, WeightFunction.uniform(), 4)),
    "propagator_onshell_part.long_dx": (
        "dx has dimension 4, expected 2",
        lambda: propagator_onshell_part(_D4, 1.0, 1, 1e-2, 2)),
    "propagator_onshell_part.short_dx": (
        "dx has dimension 2, expected 4",
        lambda: propagator_onshell_part(_D2, 1.0, 1, 1e-2, 4)),
    "segment_norm.mode": ("unknown mode 'bogus'", lambda: segment_norm(0.5, 4, "bogus")),
    "kernel_mass_superposition.mode": (
        "unknown mode 'bogus'",
        lambda: kernel_mass_superposition(_D2, 1.0, 1.0, 1e-3, _MASS_GRID, 2, mode="bogus")),
    "self_energy_unregulated.long_p": (
        "p has dimension 4, expected 2",
        lambda: self_energy_unregulated(_D4, 1.0, 1.0, 2, float("inf"))),
    "self_energy_unregulated.short_p": (
        "p has dimension 2, expected 4",
        lambda: self_energy_unregulated(_D2, 1.0, 1.0, 4, 100.0)),
    "self_energy_regulated.long_p": (
        "p has dimension 4, expected 2",
        lambda: self_energy_regulated(_D4, 1.0, 1.0, 2, RegulatorSpec(10.0, 0.01, 1.0))),
    "self_energy_regulated.short_p": (
        "p has dimension 2, expected 4",
        lambda: self_energy_regulated(_D2, 1.0, 1.0, 4, RegulatorSpec(10.0, 0.01, 1.0))),
    "divergence_scan.long_p": (
        "p has dimension 4, expected 2",
        lambda: divergence_scan(_D4, 1.0, 1.0, 2, (0.02, 0.01))),
    "divergence_scan.short_p": (
        "p has dimension 2, expected 4",
        lambda: divergence_scan(_D2, 1.0, 1.0, 4, (0.02, 0.01))),
    "gaussian_packet.long_center": (
        "center has dimension 3, expected 2",
        lambda: gaussian_packet(_LATTICE2, (2.0, 2.0, 2.0), 1.0, (0.0, 0.0), 1.0)),
    "gaussian_packet.short_center": (
        "center has dimension 1, expected 2",
        lambda: gaussian_packet(_LATTICE2, (2.0,), 1.0, (0.0, 0.0), 1.0)),
    "gaussian_packet.long_momentum": (
        "momentum has dimension 3, expected 2",
        lambda: gaussian_packet(_LATTICE2, (2.0, 2.0), 1.0, (0.0, 0.5, 7.0), 1.0)),
    "gaussian_packet.short_momentum": (
        "momentum has dimension 1, expected 2",
        lambda: gaussian_packet(_LATTICE2, (2.0, 2.0), 1.0, (0.0,), 1.0)),
    "gaussian_packet.long_width": (
        "width has dimension 3, expected 2",
        lambda: gaussian_packet(_LATTICE2, (2.0, 2.0), (1.0, 1.0, 1.0), (0.0, 0.0), 1.0)),
}


@pytest.mark.parametrize("message, call", _MISMATCH_CASES.values(), ids=list(_MISMATCH_CASES))
def test_parameter_checks_reject_mismatched_dimension_and_mode(message, call):
    with pytest.raises(ContractViolation, match=message):
        call()

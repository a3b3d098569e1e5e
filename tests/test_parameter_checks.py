import pytest

from worldlineqm.errors import ContractViolation, DegeneratePathError, DomainError
from worldlineqm.evolution import gaussian_packet, stueckelberg_residual
from worldlineqm.geometry import FourVector
from worldlineqm.interaction import ScatterLeg, ScatterSpec
from worldlineqm.kernel import (
    KernelParams,
    WeightFunction,
    propagator_momentum,
    propagator_onshell_part,
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
from worldlineqm.regularization import RegulatorSpec

NAN = float("nan")


def _profile():
    return momentum_state_profile((0.3,), 1.0, 1, 0.0, 0.01, [1.0, 1.1])


def _packet():
    return gaussian_packet(LatticeSpec((4, 4), (4.0, 4.0)), (2.0, 2.0), 1.0, (0.0, 0.0), 1.0)


def _legs(p):
    return (ScatterLeg((p,), "A"), ScatterLeg((0.0,), "A"))


# each check with NaN in place of one positive (or non-negative) parameter;
# NaN fails every comparison, so a guard written `x <= 0` let it through
_NAN_CASES = {
    "KernelParams.mass": (ContractViolation, "mass must be positive",
                          lambda: KernelParams(NAN, 1.0, 2, "euclidean")),
    "KernelParams.total_length": (DomainError, "intrinsic length T must be positive",
                                  lambda: KernelParams(1.0, NAN, 2, "euclidean")),
    "WeightFunction.correlation_length": (ContractViolation, "needs correlation_length > 0",
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
    "stueckelberg_residual.dlam_probe": (ContractViolation, "dlam_probe must be positive",
                                         lambda: stueckelberg_residual(_packet(), NAN)),
    "ScatterSpec.momentum": (ContractViolation, "off the grid",
                             lambda: ScatterSpec(_legs(NAN), _legs(0.5), MomentumGrid(1, 9, 0.5))),
}


@pytest.mark.parametrize("error, message, call", _NAN_CASES.values(), ids=list(_NAN_CASES))
def test_parameter_checks_reject_nan(error, message, call):
    with pytest.raises(error, match=message):
        call()

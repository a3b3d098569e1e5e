import ast
import functools
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from worldlineqm.cli import run
from worldlineqm.errors import (
    ContractViolation,
    DegeneratePathError,
    DomainError,
    UnsupportedSpecError,
)
from worldlineqm.evolution import gaussian_packet, inner_product, stueckelberg_residual
from worldlineqm.fock import (
    Entry,
    FieldAlgebra,
    fock_inner,
    permanent_naive,
    permanent_ryser,
    symmetrize,
)
from worldlineqm.geometry import FourVector, ParticleType
from worldlineqm.interaction import (
    FINAL_PARTICLE,
    InteractionModel,
    ScatterLeg,
    ScatterSpec,
    Sector,
    VertexTerm,
    amplitude_order_m,
    dyson_truncated,
    external_line_factor,
    scatter_tree_2to2,
    self_energy_unregulated,
)
from worldlineqm.kernel import (
    KernelParams,
    WeightFunction,
    _minkowski_mass_propagator_batch,
    euclidean_mass_propagator_batch,
    kernel_closed,
    kernel_damped,
    kernel_discretized,
    kernel_mass_superposition,
    kernel_mc,
    lattice_onshell_part,
    lattice_propagator,
    propagator_momentum,
    propagator_onshell_part,
    propagator_position,
    segment_norm,
)
from worldlineqm.lattice import ComplexField, LatticeSpec, spectral_transform
from worldlineqm.onshell import (
    INDUCED_2E,
    MomentumGrid,
    OnShellState,
    concentration,
    fw_phase_evolve,
    identity_resolution_apply,
    localized_wavefunction,
    momentum_state_profile,
    onshell_propagator_momentum,
)
from worldlineqm.paths import DiscretePath
from worldlineqm.quadrature import adaptive
from worldlineqm.regularization import (
    RegulatorSpec,
    SelfEnergyResult,
    bubble,
    divergence_scan,
    self_energy_regulated,
)

SRC = Path(__file__).resolve().parents[1] / "src" / "worldlineqm"

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
                                          lambda: WeightFunction(NAN, 0.01)),
    "WeightFunction.threshold": (ContractViolation, "threshold must be >= 0",
                                 lambda: WeightFunction(10.0, NAN)),
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
    "ParticleType.mass": (ContractViolation, "mass must be positive",
                          lambda: ParticleType("A", NAN)),
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
    # the minkowski batch shares the Bessel form and its check; in float
    # arithmetic dx.dx is NaN (inf - inf) for (1e200, 1e200) and 0 for
    # (1e-200, 0), and the other two gave NaN values with no warning
    lightlike = components in ((1e200, 1e200), (1e-200, 0.0))
    with pytest.raises(DomainError, match="off the light cone" if lightlike
                       else "minkowski mass propagator has no finite Bessel value"):
        _minkowski_mass_propagator_batch(dx, [1.0 - 0.1j, 2.0 - 1e-3j])


@pytest.mark.parametrize("dimension", [2, 4])
def test_minkowski_mass_propagator_at_a_long_separation_is_a_value_or_a_domain_error(dimension):
    # scipy's complex K_nu returns NaN once |M s| passes about 1e9, which the
    # minkowski batch once passed on silently; at 1e8 the value decays to 0
    pad = (0.0,) * (dimension - 2)
    assert _minkowski_mass_propagator_batch(FourVector((0.3, 1e8) + pad), [1 - 0.1j]) == 0
    for components in ((0.3, 1e10), (1e10, 0.3)):  # spacelike and timelike
        with pytest.raises(DomainError, match="minkowski mass propagator has no finite "
                                              "Bessel value at \\|dx\\| = 1e\\+10"):
            _minkowski_mass_propagator_batch(FourVector(components + pad), [1 - 0.1j])


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


@functools.cache
def _ab_sector():
    model = InteractionModel.ab_model(0.5)
    algebra = FieldAlgebra(LatticeSpec((2, 2), (2.0, 2.0)), model.types, epsilon=1e-2, n_max=3)
    return model, Sector(algebra, {"A": (1, 1), "B": (0, 1)})


_A_AT_ORIGIN = symmetrize([Entry((0, 0), "A", "start")])
_D3 = FourVector((0.3, 0.4, 0.5))
_GRID = MomentumGrid(1, 5, 0.5)
_REGULATOR = RegulatorSpec(10.0, 0.01, 1.0)


def _scatter(legs_in, legs_out, model=None):
    spec = ScatterSpec(tuple(ScatterLeg((p,), label) for p, label in legs_in),
                       tuple(ScatterLeg((p,), label) for p, label in legs_out), _GRID)
    return scatter_tree_2to2(spec, model or InteractionModel.ab_model(0.5), 1e-3)


# every remaining argument check, each with one value outside its contract
_CONTRACT_CASES = {
    "inner_product.lattices": (
        ContractViolation, "wavefunctions live on different lattices",
        lambda: inner_product(_packet(), gaussian_packet(LatticeSpec((4, 4), (4.0, 8.0)),
                                                         (2.0, 2.0), 1.0, (0.0, 0.0), 1.0))),
    "Entry.tag": (ContractViolation, "unknown tag 'bogus'",
                  lambda: Entry((0, 0), "A", "bogus")),
    "permanent_naive.shape": (ContractViolation, "permanent needs a square matrix",
                              lambda: permanent_naive(np.ones((2, 3)))),
    "permanent_ryser.shape": (ContractViolation, "permanent needs a square matrix",
                              lambda: permanent_ryser(np.ones((2, 3)))),
    "fock_inner.ket_tag": (
        ContractViolation, "ket entries must carry start labels",
        lambda: fock_inner(symmetrize([Entry((0, 0), "A", "integrated")]),
                           symmetrize([Entry((0, 0), "A", "integrated")]),
                           _ab_sector()[1].algebra)),
    "FourVector.empty": (ContractViolation, "FourVector needs at least one component",
                         lambda: FourVector(())),
    "ParticleType.conjugate": (ContractViolation, "unknown conjugate flag 'bogus'",
                               lambda: ParticleType("A", 1.0, "bogus")),
    "dyson_truncated.order": (ContractViolation, "order must be >= 0",
                              lambda: dyson_truncated(*_ab_sector(), -1)),
    "amplitude_order_m.order": (
        ContractViolation, "m_order must be in \\[0, 3\\]",
        lambda: amplitude_order_m(_A_AT_ORIGIN, _A_AT_ORIGIN, _ab_sector()[0], 4,
                                  _ab_sector()[1])),
    "external_line_factor.kind": (
        ContractViolation, "unknown line kind 'sideways'",
        lambda: external_line_factor("sideways", (0.3,), 1.0, FourVector((0.0, 0.0)))),
    "scatter_tree_2to2.legs": (
        ContractViolation, "tree amplitude needs 2 incoming and 2 outgoing legs",
        lambda: _scatter([(0.5, "A")], [(0.5, "A"), (0.0, "A")])),
    "scatter_tree_2to2.leg_type": (
        ContractViolation, "all external legs must be the conserved-line type",
        lambda: _scatter([(0.5, "A"), (0.0, "B")], [(0.5, "A"), (0.0, "A")])),
    "scatter_tree_2to2.exchange": (
        ContractViolation, "model must carry exactly one exchange type",
        lambda: _scatter([(0.5, "A"), (0.0, "A")], [(0.5, "A"), (0.0, "A")],
                         InteractionModel((VertexTerm(("A",), ("A",)),), 0.5,
                                          {"A": ParticleType("A", 1.0)}))),
    "kernel_discretized.segments": (
        ContractViolation, "segments must be a non-empty 1-d sequence",
        lambda: kernel_discretized(_D2, _ORIGIN2, [], _PARAMS2)),
    "kernel_mc.n_segments": (ContractViolation, "need at least one segment",
                             lambda: kernel_mc(_D2, _ORIGIN2, _PARAMS2, 0, 1000, 0)),
    "kernel_mc.mass_sq_bound": (
        ContractViolation, "mass_sq_bound must be positive and finite with a mass_sq_fn",
        lambda: kernel_mc(_D2, _ORIGIN2, _PARAMS2, 8, 1000, 0,
                          mass_sq_fn=lambda q: np.ones(len(q)), mass_sq_bound=0.0)),
    "propagator_onshell_part.dimension": (
        UnsupportedSpecError, "spatial dimension d = 2 not supported",
        lambda: propagator_onshell_part(_D3, 1.0, 1, 1e-2, 3)),
    "kernel_mass_superposition.grid": (
        ContractViolation, "mass_sq_grid must be one-dimensional",
        lambda: kernel_mass_superposition(_D2, 1.0, 1.0, 1e-3, [[0.0, 1.0]], 2)),
    "LatticeSpec.extents": (ContractViolation, "shape and extents must have equal length",
                            lambda: LatticeSpec((4, 4), (4.0,))),
    "LatticeSpec.extent": (ContractViolation, "all extents must be positive",
                           lambda: LatticeSpec((4, 4), (4.0, 0.0))),
    "ComplexField.shape": (
        ContractViolation, "field shape \\(4, 2\\) does not match lattice \\(4, 4\\)",
        lambda: ComplexField(_LATTICE2, np.zeros((4, 2)))),
    "spectral_transform.direction": (
        ContractViolation, "unknown direction 'sideways'",
        lambda: spectral_transform(ComplexField(_LATTICE2, np.zeros((4, 4))), "sideways")),
    "MomentumGrid.points": (ContractViolation, "need at least one point per axis",
                            lambda: MomentumGrid(1, 0, 0.5)),
    "identity_resolution_apply.shape": (
        ContractViolation, "wavefunction does not match the grid",
        lambda: identity_resolution_apply(np.ones(3), _GRID, 1.0)),
    "fw_phase_evolve.shape": (ContractViolation, "wavefunction does not match the grid",
                              lambda: fw_phase_evolve(np.ones(3), _GRID, 1.0, 1, 0.1)),
    "DiscretePath.segments": (DegeneratePathError, "path needs at least one segment",
                              lambda: DiscretePath([0.0], [[0.0, 0.0]])),
    "DiscretePath.points": (
        ContractViolation, "points must be \\(N\\+1, D\\) matching the lambda grid",
        lambda: DiscretePath([0.0, 1.0], [[0.0, 0.0]])),
    "adaptive.interval": (
        ContractViolation, "adaptive integrates over \\[a, b\\] with a finite and a <= b",
        lambda: adaptive(np.cos, 1.0, 0.0)),
    "SelfEnergyResult.error": (ContractViolation, "error estimate must be >= 0",
                               lambda: SelfEnergyResult(0j, -1.0, "lambda")),
    "self_energy_regulated.route": (
        ContractViolation, "unknown route 'bogus'",
        lambda: self_energy_regulated(_D2, 1.0, 1.0, 2, _REGULATOR, "bogus")),
    # bubble has the angular integral in closed form for D = 2 and D = 4 only;
    # it once gave every D but 2 the D = 4 formula
    "bubble.dimension": (
        ContractViolation, "dimension must be 2 or 4",
        lambda: bubble(lambda ksq: 1.0 / (ksq + 1.0), 0.5, 1.0, 3, 10.0)),
    "self_energy_unregulated.dimension": (
        ContractViolation, "dimension must be 2 or 4",
        lambda: self_energy_unregulated(_D3, 1.0, 1.0, 3, 100.0)),
    "self_energy_regulated.lambda.dimension": (
        ContractViolation, "dimension must be 2 or 4",
        lambda: self_energy_regulated(_D3, 1.0, 1.0, 3, _REGULATOR)),
    "self_energy_regulated.mass-spectrum.dimension": (
        ContractViolation, "dimension must be 2 or 4",
        lambda: self_energy_regulated(_D3, 1.0, 1.0, 3, _REGULATOR,
                                      "mass-spectrum", cutoff=60.0)),
    "divergence_scan.dimension": (
        ContractViolation, "dimension must be 2 or 4",
        lambda: divergence_scan(_D3, 1.0, 1.0, 3, (0.02, 0.01))),
}


@pytest.mark.parametrize("error, message, call", _CONTRACT_CASES.values(),
                         ids=list(_CONTRACT_CASES))
def test_parameter_checks_reject_values_outside_the_contract(error, message, call):
    with pytest.raises(error, match=message):
        call()


def test_a_config_file_that_is_not_an_object_is_a_config_error(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text("[1, 2]", encoding="utf-8")
    output = tmp_path / "kernel.json"
    assert run(["kernel", "--config", str(config), "--output", str(output)]) == 2
    assert "config error: config file must hold a JSON object" in capsys.readouterr().err
    assert not output.exists()


# every public route that takes a frequency sign, called with that sign
_SIGN_ROUTES = {
    "OnShellState": lambda sign: OnShellState(sign, (0.3,), 1.0),
    "onshell_propagator_momentum": lambda sign: onshell_propagator_momentum(
        (1.0, 0.3), 1.0, sign, 1e-2),
    "momentum_state_profile": lambda sign: momentum_state_profile(
        (0.3,), 1.0, sign, 0.0, 1e-2, [1.0]),
    "localized_wavefunction": lambda sign: localized_wavefunction(
        (0.0,), 0.0, (0.3,), 1.0, sign, INDUCED_2E),
    "fw_phase_evolve": lambda sign: fw_phase_evolve(np.ones(5), _GRID, 1.0, sign, 0.1),
    "propagator_onshell_part": lambda sign: propagator_onshell_part(_D2, 1.0, sign, 1e-2, 2),
    "lattice_onshell_part": lambda sign: lattice_onshell_part(_LATTICE2, 1.0, sign),
    "ScatterLeg": lambda sign: ScatterLeg((0.5,), "A", sign),
}


@pytest.mark.parametrize("sign", [0, 2, -0.5, NAN])
@pytest.mark.parametrize("route", _SIGN_ROUTES.values(), ids=list(_SIGN_ROUTES))
def test_every_sign_route_rejects_a_sign_that_is_not_plus_or_minus_one(route, sign):
    with pytest.raises(ContractViolation, match="sign must be \\+1 or -1"):
        route(sign)


# each contract that several modules share, and the one module that owns it:
# a tuple literal of the same values in any order, or a string holding the message
_SHARED_CONTRACTS = {
    (-1, 1): "geometry.py",
    "sign must be +1 or -1": "geometry.py",
    "mass must be positive": "geometry.py",
    "dimension must be 2 or 4": "regularization.py",
    ("lambda", "mass-spectrum"): "regularization.py",
    ("json", "csv"): "records.py",
}


def _shared_contract_uses(source):
    """The shared contracts written in one module's source, counted per use."""
    uses = Counter()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Tuple, ast.List)):
            try:
                values = ast.literal_eval(node)
            except ValueError:  # a tuple that is not all literals
                continue
            key = sorted(map(repr, values))
            uses.update(c for c in _SHARED_CONTRACTS
                        if isinstance(c, tuple) and key == sorted(map(repr, c)))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            uses.update(c for c in _SHARED_CONTRACTS if isinstance(c, str) and c in node.value)
    return uses


def test_each_shared_contract_is_written_in_its_owner_only():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        for use, count in _shared_contract_uses(path.read_text()).items():
            found.setdefault(use, []).extend([path.name] * count)
    assert found == {contract: [owner] for contract, owner in _SHARED_CONTRACTS.items()}


def test_the_shared_contract_scan_sees_inline_checks():
    source = """
_SIGNS = (+1, -1)
FORMATS = ["csv", "json"]


def check(sign, mass, dimension, route):
    if sign not in (1, -1):
        raise ContractViolation("sign must be +1 or -1")
    if not mass > 0:
        raise ContractViolation(f"particle mass must be positive, got {mass}")
    if dimension not in (2, 4):
        raise ContractViolation("dimension must be 2 or 4")
    return route in ("mass-spectrum", "lambda"), ("csv", "json")
"""
    assert _shared_contract_uses(source) == {
        (-1, 1): 2, "sign must be +1 or -1": 1, "mass must be positive": 1,
        "dimension must be 2 or 4": 1, ("lambda", "mass-spectrum"): 1, ("json", "csv"): 2}
    assert _shared_contract_uses(
        "np.reshape(x, (-1, 2))\nraise ContractViolation('mass must be finite')\n"
        "SIGN = (1, 1)\nROUTES = ('lambda',)") == {}

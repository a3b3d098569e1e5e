import tracemalloc

import numpy as np
import pytest
import scipy.fft

from worldlineqm import cli, evolution
from worldlineqm.evolution import (
    ParametrizedWavefunction,
    evolve,
    gaussian_packet,
    inner_product,
    norm,
    stueckelberg_residual,
)
from worldlineqm.errors import ContractViolation
from worldlineqm.kernel import lattice_kernel, lattice_momentum_phase, lattice_propagator
from worldlineqm.lattice import ComplexField, LatticeSpec, spectral_transform


def packet(spec=None, seed=None, mass=1.0):
    spec = spec or LatticeSpec((16, 16), (8.0, 8.0))
    return gaussian_packet(spec, center=(4.0, 4.0), width=1.0,
                           momentum=(0.0, 0.785398), mass=mass)


def random_state(spec, seed, mass=1.0):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=spec.shape) + 1j * rng.normal(size=spec.shape)
    field = ComplexField(spec, values, "position")
    field.values /= np.sqrt(field.norm_squared())
    return ParametrizedWavefunction(field, 0.0, mass)


def test_zero_step_is_identity():
    psi = packet()
    out = evolve(psi, 0.0)
    assert np.max(np.abs(out.field.values - psi.field.values)) < 1e-14
    assert out.lam == psi.lam


def test_plane_wave_phase_advance():
    spec = LatticeSpec((8, 8), (4.0, 4.0))
    p0 = spec.momentum_axis(0)[2]
    p1 = spec.momentum_axis(1)[3]
    x0, x1 = np.meshgrid(spec.axis_coordinates(0), spec.axis_coordinates(1),
                         indexing="ij")
    values = np.exp(1j * (-p0 * x0 + p1 * x1))
    psi = ParametrizedWavefunction(ComplexField(spec, values, "position"), 0.0, 1.0)
    dlam = 0.37
    w = -p0 * p0 + p1 * p1 + 1.0
    out = evolve(psi, dlam)
    expected = values * np.exp(-1j * dlam * w)
    assert np.max(np.abs(out.field.values - expected)) < 1e-12


def test_group_property_many_small_steps():
    psi = packet()
    one = evolve(psi, 10.0)
    many = psi
    for _ in range(1000):
        many = evolve(many, 0.01)
    assert np.max(np.abs(one.field.values - many.field.values)) < 1e-12
    assert many.lam == pytest.approx(10.0, abs=1e-9)


@pytest.mark.parametrize("steps", [0, 1, 2, 37])
def test_multi_step_call_equals_single_steps_bitwise(steps):
    # one phase, applied `steps` times, is the loop of single-step calls
    psi = random_state(LatticeSpec((8, 16), (4.0, 8.0)), seed=11)
    looped = psi
    for _ in range(steps):
        looped = evolve(looped, 0.037)
    batched = evolve(psi, 0.037, steps=steps)
    assert np.array_equal(batched.field.values, looped.field.values)
    assert batched.lam == looped.lam and batched.mass == looped.mass


def test_norm_conserved_over_thousand_steps():
    psi = packet()
    n0 = norm(psi)
    assert n0 == pytest.approx(1.0, abs=1e-13)
    rng = np.random.default_rng(3)
    for _ in range(1000):
        psi = evolve(psi, rng.uniform(-0.05, 0.05))
    assert abs(norm(psi) - n0) < 1e-12


def test_norm_scaling():
    psi = packet()
    c = 0.7 - 0.4j
    scaled = ParametrizedWavefunction(
        ComplexField(psi.spec, c * psi.field.values, "position"), psi.lam, psi.mass)
    assert norm(scaled) == pytest.approx(abs(c) ** 2 * norm(psi), rel=1e-13)


def test_unitarity_of_flow():
    spec = LatticeSpec((16, 8), (8.0, 6.0))
    a = random_state(spec, 1)
    b = random_state(spec, 2)
    before = inner_product(a, b)
    after = inner_product(evolve(a, 1.7), evolve(b, 1.7))
    assert abs(after - before) < 1e-12


def test_evolve_matches_lattice_kernel_convolution():
    # direct position-space circular convolution against the lattice kernel
    spec = LatticeSpec((8, 8), (6.0, 6.0))
    psi = random_state(spec, 5)
    dlam = 0.42
    kern = lattice_kernel(spec, dlam, psi.mass)
    n0, n1 = spec.shape
    conv = np.zeros(spec.shape, dtype=complex)
    for i in range(n0):
        for j in range(n1):
            acc = 0.0j
            for k in range(n0):
                for l in range(n1):
                    acc += kern[(i - k) % n0, (j - l) % n1] * psi.field.values[k, l]
            conv[i, j] = acc * spec.cell_volume
    out = evolve(psi, dlam)
    assert np.max(np.abs(out.field.values - conv)) < 1e-10


# anisotropic D = 2, 3, 4 lattices with p0 != 0
_ANISOTROPIC_PACKETS = pytest.mark.parametrize("shape, extents, center, momentum", [
    ((16, 8), (6.0, 9.0), (2.5, 4.0), (0.9, -0.6)),
    ((8, 4, 16), (5.0, 3.0, 7.5), (2.0, 1.5, 3.0), (-1.1, 0.4, 0.7)),
    ((4, 8, 2, 16), (3.0, 5.0, 2.0, 9.0), (1.0, 2.5, 1.0, 4.0), (0.8, -0.5, 0.3, 1.2)),
])


def _anisotropic_packet(shape, extents, center, momentum):
    spec = LatticeSpec(shape, extents)
    return gaussian_packet(spec, center, (1.1, 0.8, 1.4, 0.9)[:spec.dimension], momentum, 1.3)


def _composed_step(field, dlam, mass):
    # forward transform, phase, inverse transform
    tilde = spectral_transform(field, "forward")
    tilde.values *= lattice_momentum_phase(field.spec, dlam, mass)
    return spectral_transform(tilde, "inverse")


@_ANISOTROPIC_PACKETS
def test_evolve_matches_the_two_transform_composition(shape, extents, center, momentum):
    # the fused fftn/ifftn step against forward transform, phase, inverse transform
    psi = _anisotropic_packet(shape, extents, center, momentum)
    for dlam in (0.37, -0.8, 2.5):
        reference = _composed_step(psi.field, dlam, psi.mass).values
        out = evolve(psi, dlam).field.values
        scale = np.max(np.abs(psi.field.values))
        assert np.max(np.abs(out - reference)) < 1e-13 * scale


@_ANISOTROPIC_PACKETS
def test_carried_spectrum_steps_match_the_two_transform_composition(shape, extents, center,
                                                                     momentum):
    # each step after the first multiplies the spectrum the last one carried
    psi = _anisotropic_packet(shape, extents, center, momentum)
    carried, reference = psi, psi.field
    for _ in range(16):
        carried = evolve(carried, 0.29)
        reference = _composed_step(reference, 0.29, psi.mass)
    scale = np.max(np.abs(psi.field.values))
    assert np.max(np.abs(carried.field.values - reference.values)) < 1e-13 * scale


def _per_axis_misfit(psi, reference, dlam, steps):
    # psi, a packet, evolved on its D one-axis factors, and the relative
    # misfit of its positions against the grid-evolved reference
    factored = evolve(psi, dlam, steps)
    assert len(psi._factors) == psi.spec.dimension
    assert [f.shape for f in factored._factors] == [f.shape for f in psi._factors]
    scale = np.max(np.abs(reference.field.values))
    return np.max(np.abs(factored.field.values - reference.field.values)) / scale, factored


@_ANISOTROPIC_PACKETS
@pytest.mark.parametrize("steps", [1, 16])
def test_a_packet_evolved_per_axis_matches_its_positions_evolved_on_the_grid(
        shape, extents, center, momentum, steps):
    psi = _anisotropic_packet(shape, extents, center, momentum)
    for dlam in (0.37, -0.8, 2.5):
        reference = evolve(_position_built(psi), dlam, steps)
        assert [f.shape for f in reference._factors] == [psi.spec.shape]
        misfit, factored = _per_axis_misfit(psi, reference, dlam, steps)
        assert misfit < 1e-13
        assert stueckelberg_residual(factored, 1e-3) == pytest.approx(
            stueckelberg_residual(reference, 1e-3), rel=1e-12)


@_ANISOTROPIC_PACKETS
def test_multi_step_call_on_a_packet_equals_single_steps_bitwise(shape, extents, center,
                                                                   momentum):
    psi = _anisotropic_packet(shape, extents, center, momentum)
    for dlam in (0.37, -0.8, 2.5):
        for steps in (1, 16):
            looped = psi
            for _ in range(steps):
                looped = evolve(looped, dlam)
            batched = evolve(psi, dlam, steps)
            assert all(np.array_equal(a, b) for a, b in zip(batched._factors, looped._factors))
            assert np.array_equal(batched.field.values, looped.field.values)
            assert batched.lam == looped.lam


def test_the_per_axis_oracle_sees_a_dropped_mass_phase(monkeypatch):
    # the per-axis route without its scalar exp(-i dlam m^2) misses the grid
    # route by |1 - exp(-i dlam m^2)|, about 0.6 here; the residual, blind to
    # a constant phase, cannot see it
    psi = _anisotropic_packet((4, 8, 2, 16), (3.0, 5.0, 2.0, 9.0), (1.0, 2.5, 1.0, 4.0),
                              (0.8, -0.5, 0.3, 1.2))
    reference = evolve(_position_built(psi), 0.37)
    phase_factors = evolution.lattice_momentum_phase_factors
    monkeypatch.setattr(evolution, "lattice_momentum_phase_factors",
                        lambda spec, dlam, mass: phase_factors(spec, dlam, 0.0))
    misfit, _ = _per_axis_misfit(psi, reference, 0.37, 1)
    assert misfit > 0.5 * abs(1 - np.exp(-1j * 0.37 * psi.mass ** 2))


def _count_transforms(monkeypatch):
    calls = {"fftn": 0, "ifftn": 0}
    for name in calls:
        def counted(*args, _name=name, _call=getattr(scipy.fft, name), **kwargs):
            calls[_name] += 1
            return _call(*args, **kwargs)
        monkeypatch.setattr(scipy.fft, name, counted)
    return calls


def test_a_chain_of_steps_transforms_forward_once(monkeypatch):
    # an evolved wavefunction holds its spectrum: nothing transforms back
    # until its positions are read, and then only once; a packet's spectrum
    # stays D one-axis factors, so a chain from it runs no full-grid
    # transform even when its positions are read, and one from a position
    # field transforms forward once and back once
    calls = _count_transforms(monkeypatch)
    psi = packet()
    state = psi
    for _ in range(16):
        state = evolve(state, 0.05)
    norm(state), stueckelberg_residual(state, 1e-3)
    state.field.values
    state.field.values
    evolve(psi, 0.05, 16).field.values
    positions = _position_built(psi)
    assert calls == {"fftn": 0, "ifftn": 0}
    state = positions
    for _ in range(16):
        state = evolve(state, 0.05)
    norm(state), stueckelberg_residual(state, 1e-3)
    assert calls == {"fftn": 1, "ifftn": 0}
    state.field.values
    state.field.values
    assert calls == {"fftn": 1, "ifftn": 1}
    evolve(positions, 0.05, 16)
    assert calls == {"fftn": 2, "ifftn": 1}


def test_a_zero_step_keeps_the_held_spectrum(monkeypatch):
    # zero steps once returned the positions, read by one ifftn, so the next
    # step transformed forward again
    grid = evolve(_position_built(packet()), 0.3)
    calls = _count_transforms(monkeypatch)
    for psi in (packet(), evolve(packet(), 0.3), grid):
        out = evolve(psi, 0.2, 0)
        assert out.lam == psi.lam and out.mass == psi.mass
        norm(out), stueckelberg_residual(out, 1e-3), evolve(out, 0.05)
    assert calls == {"fftn": 0, "ifftn": 0}


def test_the_cli_evolve_route_runs_no_forward_transform(monkeypatch, tmp_path):
    calls = _count_transforms(monkeypatch)
    assert cli.run(["evolve", "--shape", "8,8", "--extent", "8,8", "--steps", "5",
                    "--output", str(tmp_path / "evolve.json")]) == 0
    assert calls == {"fftn": 0, "ifftn": 0}


@_ANISOTROPIC_PACKETS
def test_the_parseval_norm_matches_the_position_sum(shape, extents, center, momentum):
    out = evolve(_anisotropic_packet(shape, extents, center, momentum), 0.37, 3)
    held = norm(out)  # Parseval on the held spectrum, before positions exist
    positions = np.sum(np.abs(out.field.values) ** 2) * out.spec.cell_volume
    assert held == pytest.approx(positions, rel=1e-14)


def _position_built(psi):
    # psi rebuilt on a writable copy of its positions: it holds no spectrum
    return ParametrizedWavefunction(ComplexField(psi.spec, psi.field.values.copy(), "position"),
                                    psi.lam, psi.mass)


def _held_bytes(work):
    # bytes still allocated once work() has returned, with its result kept
    tracemalloc.start()
    try:
        kept = work()
        return tracemalloc.get_traced_memory()[0], kept
    finally:
        tracemalloc.stop()


def test_a_position_built_wavefunction_keeps_no_spectrum():
    psi = _position_built(packet(LatticeSpec((64, 64), (32.0, 32.0))))
    grid = 16 * psi.field.values.size
    held, _ = _held_bytes(lambda: (evolve(psi, 0.3), stueckelberg_residual(psi, 1e-3))[1])
    assert held < grid / 4


def test_an_evolved_wavefunction_holds_one_grid_until_its_positions_are_read():
    # a chain from a packet holds D one-axis factors, no grid, until its
    # positions are read; one from a position field holds one grid
    psi = packet(LatticeSpec((64, 64), (32.0, 32.0)))
    grid = 16 * psi.field.values.size
    held, out = _held_bytes(lambda: evolve(psi, 0.3, 4))
    assert held < grid / 4
    held, _ = _held_bytes(lambda: out.field)
    assert grid <= held < 1.25 * grid
    positions = _position_built(psi)
    held, _ = _held_bytes(lambda: evolve(positions, 0.3, 4))
    assert grid <= held < 1.25 * grid


def test_an_evolved_field_is_read_only():
    out = evolve(packet(), 0.3)
    with pytest.raises(ValueError):
        out.field.values[2, 3] = 1.0
    with pytest.raises(ValueError):
        out.field.values *= 2.0


def test_rebinding_the_values_drops_the_carried_spectrum(monkeypatch):
    psi = evolve(packet(), 0.3)
    new_values = random_state(psi.spec, 4).field.values
    psi.field.values = new_values
    calls = _count_transforms(monkeypatch)
    out = evolve(psi, 0.3)
    out.field.values  # the positions are computed on this first read
    assert calls == {"fftn": 1, "ifftn": 1}
    reference = _composed_step(ComplexField(psi.spec, new_values, "position"), 0.3, psi.mass)
    assert np.max(np.abs(out.field.values - reference.values)) < 1e-13 * np.max(np.abs(new_values))


def test_evolve_leaves_the_input_untouched():
    psi = packet()
    before = psi.field.values.copy()
    evolve(psi, 0.3)
    np.testing.assert_array_equal(psi.field.values, before)


@pytest.mark.parametrize("representation, message", [
    ("plain", "unknown representation 'plain'"), ("momentum", "built from a position field")],
    ids=["plain", "momentum"])
def test_wavefunction_is_built_from_positions_only(representation, message):
    # a plain spectrum is held as factors, never as a field: no plain field is built
    spec = LatticeSpec((4, 4), (4.0, 4.0))
    with pytest.raises(ContractViolation, match=message):
        field = ComplexField(spec, np.ones(spec.shape, dtype=complex), representation)
        ParametrizedWavefunction(field, 0.0, 1.0)


def test_evolve_rejects_non_finite_amplitudes():
    psi = packet()
    values = psi.field.values.copy()
    values[3, 5] = np.nan
    bad = ParametrizedWavefunction(ComplexField(psi.spec, values, "position"), 0.0, 1.0)
    with pytest.raises(ContractViolation):
        evolve(bad, 0.1)


@pytest.mark.parametrize("dlam, steps", [(np.nan, 1), (np.inf, 1), (-np.inf, 1), (np.nan, 0),
                                         (1e308, 1), (1e306, 1000)],
                         ids=["nan", "inf", "minus_inf", "nan_no_steps", "phase_overflows",
                              "lambda_overflows"])
def test_evolve_rejects_a_step_that_is_not_finite(dlam, steps, monkeypatch):
    # each once returned NaN amplitudes or an infinite lam, or went unchecked
    # with no steps; the residual's finiteness scan caught some of them later
    calls = _count_transforms(monkeypatch)
    with pytest.raises(ContractViolation, match="dlam must be finite"):
        evolve(packet(), dlam, steps)
    assert calls == {"fftn": 0, "ifftn": 0}


def test_evolve_rejects_a_negative_step_count():
    # steps -3 once round-tripped the field and left lambda unchanged
    with pytest.raises(ContractViolation, match="steps must be non-negative, got -3"):
        evolve(packet(), 0.1, -3)


@pytest.mark.parametrize("width", [-1.0, 0.0, np.inf, (1.0, -0.5)],
                         ids=["negative", "zero", "infinite", "one_negative_axis"])
def test_gaussian_packet_rejects_a_width_that_is_not_positive_and_finite(width):
    # -1 was squared into width 1, and 0 divided by zero before the finite check
    spec = LatticeSpec((8, 8), (8.0, 8.0))
    with pytest.raises(ContractViolation, match="width must be positive and finite"):
        gaussian_packet(spec, (4.0, 4.0), width, (0.0, 0.0), 1.0)


_MESHGRID_PACKET = (LatticeSpec((8, 4, 16), (5.0, 3.0, 11.0)),
                    (2.0, 1.0, 6.0), (1.2, 0.7, 2.1), (0.6, -1.3, 0.4))


def _meshgrid_packet(spec, center, width, momentum):
    coords = np.meshgrid(*[spec.axis_coordinates(mu) for mu in range(3)], indexing="ij")
    envelope = sum(-(x - c) ** 2 / (4 * w ** 2) for x, c, w in zip(coords, center, width))
    phase = sum(s * p * x for x, s, p in zip(coords, (-1.0, 1.0, 1.0), momentum))
    values = np.exp(envelope + 1j * phase)
    return values / np.sqrt(np.sum(np.abs(values) ** 2) * spec.cell_volume)


def test_gaussian_packet_equals_the_meshgrid_form():
    values = _meshgrid_packet(*_MESHGRID_PACKET)
    got = gaussian_packet(*_MESHGRID_PACKET, 1.0).field.values
    assert got.shape == values.shape
    assert np.max(np.abs(got - values)) < 1e-14 * np.max(np.abs(values))


def test_gaussian_packet_is_born_as_the_spectrum_of_the_meshgrid_form(monkeypatch):
    want = scipy.fft.fftn(_meshgrid_packet(*_MESHGRID_PACKET))
    calls = _count_transforms(monkeypatch)
    psi = gaussian_packet(*_MESHGRID_PACKET, 1.0)
    got = np.prod(np.broadcast_arrays(*psi._held()), axis=0)
    assert calls == {"fftn": 0, "ifftn": 0}
    assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))
    assert norm(psi) == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("center, width, momentum, axis", [
    ((4.25, 4.0), 0.001, (0.0, 0.0), 0),  # every site underflows: a zero norm
    ((4.0, 4.0), (1.0, 1e-200), (0.0, 0.0), 1),  # 0/0 at the centre site
    ((4.0, 4.0), 1.0, (0.0, 1e308), 1),  # the phase p x overflows
], ids=["narrow_width_off_site", "width_squared_underflows", "phase_overflows"])
def test_gaussian_packet_rejects_a_factor_that_is_not_finite_or_has_zero_norm(
        monkeypatch, center, width, momentum, axis):
    # each once returned NaN amplitudes after a RuntimeWarning, caught only by
    # the first fftn; the check runs before the spectrum grid is built
    def no_grid(*args):
        raise AssertionError("a full grid was built")
    monkeypatch.setattr("worldlineqm.evolution.plain_fftn", no_grid)
    spec = LatticeSpec((16, 16), (8.0, 8.0))
    with pytest.raises(ContractViolation, match=f"packet factor on axis {axis} is not finite "
                                                f"or has zero norm: width"):
        gaussian_packet(spec, center, width, momentum, 1.0)


@pytest.mark.parametrize("mass", [np.nan, 0.0, -1.0])
def test_gaussian_packet_rejects_a_bad_mass_before_building_a_factor(monkeypatch, mass):
    # a 32^4 packet of mass NaN once peaked at 16.8 MiB, one grid, before
    # the wavefunction rejected it
    def no_spectrum(*args):
        raise AssertionError("a factor's spectrum was built")
    monkeypatch.setattr("worldlineqm.evolution.plain_fftn", no_spectrum)
    spec = LatticeSpec((32, 32, 32, 32), (16.0,) * 4)
    grid = 16 * 32 ** 4
    tracemalloc.start()
    try:
        with pytest.raises(ContractViolation, match="mass must be positive"):
            gaussian_packet(spec, (8.0,) * 4, 1.5, (0.1, 0.2, -0.3, 0.4), mass)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < grid / 4


def test_residual_plane_wave_oracle():
    spec = LatticeSpec((8, 8), (4.0, 4.0))
    p0 = spec.momentum_axis(0)[1]
    p1 = spec.momentum_axis(1)[2]
    x0, x1 = np.meshgrid(spec.axis_coordinates(0), spec.axis_coordinates(1),
                         indexing="ij")
    values = np.exp(1j * (-p0 * x0 + p1 * x1))
    field = ComplexField(spec, values, "position")
    nrm = np.sqrt(field.norm_squared())
    field.values /= nrm
    psi = ParametrizedWavefunction(field, 0.0, 1.0)
    h = 1e-3
    w = -p0 * p0 + p1 * p1 + 1.0
    oracle = abs(w - np.sin(h * w) / h)  # Taylor remainder of the exact phase
    assert stueckelberg_residual(psi, h) == pytest.approx(oracle, rel=1e-9)


def test_residual_richardson_ratio():
    psi = packet()
    h = 1e-3
    r1 = stueckelberg_residual(psi, h)
    r2 = stueckelberg_residual(psi, h / 2)
    assert r1 / r2 == pytest.approx(4.0, rel=0.1)


def test_residual_extrapolates_to_zero():
    psi = packet()
    h = 3e-4
    r1 = stueckelberg_residual(psi, h)
    r2 = stueckelberg_residual(psi, h / 2)
    # residual ~ a h^2: Richardson-extrapolated limit
    extrapolated = (4 * r2 - r1) / 3
    assert abs(extrapolated) < 1e-10


def test_state_superposition_builds_propagator():
    # sum_k dlam exp(-eps k dlam) psi_k with psi_k the evolved lattice delta
    # converges to the regulated lattice propagator (trapezoid end weight)
    spec = LatticeSpec((8, 8), (16.0, 16.0))
    mass, eps = 1.0, 0.3
    dlam = 0.015
    n_steps = 3200  # eps * dlam * n = 14.4, tail < 1e-6
    values = np.zeros(spec.shape, dtype=complex)
    values[0, 0] = 1.0 / spec.cell_volume  # a lattice delta function at the origin
    psi = ParametrizedWavefunction(ComplexField(spec, values, "position"), 0.0, mass)
    accum = 0.5 * dlam * psi.field.values
    state = psi
    for k in range(1, n_steps):
        state = evolve(state, dlam)
        accum = accum + dlam * np.exp(-eps * k * dlam) * state.field.values
    target = lattice_propagator(spec, mass, eps)
    rel = np.linalg.norm(accum - target) / np.linalg.norm(target)
    assert rel < 1e-3


def test_delta_normalization():
    # a unit impulse 1/cellvolume has the flat spectrum (2 pi)^(-D/2) of the
    # continuum delta function
    spec = LatticeSpec((8, 8), (4.0, 4.0))
    values = np.zeros(spec.shape, dtype=complex)
    values[2, 3] = 1.0 / spec.cell_volume
    tilde = spectral_transform(ComplexField(spec, values, "position"), "forward").values
    np.testing.assert_allclose(np.abs(tilde), 1.0 / (2 * np.pi), rtol=1e-13)

import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.fft

from worldlineqm.errors import ContractViolation, UnsupportedSpecError
from worldlineqm.kernel import lattice_momentum_phase
from worldlineqm.lattice import (ComplexField, LatticeSpec, momentum_sum, plain_fftn, plain_ifftn,
                                 spectral_transform)

SRC = Path(__file__).resolve().parents[1] / "src" / "worldlineqm"


def random_field(spec, seed=0):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=spec.shape) + 1j * rng.normal(size=spec.shape)
    return ComplexField(spec, values, "position")


def dft_oracle(spec, values):
    """Direct O(N^2D) summation with the signed time-axis kernel."""
    out = np.zeros(spec.shape, dtype=complex)
    coords = [spec.axis_coordinates(mu) for mu in range(spec.dimension)]
    paxes = [spec.momentum_axis(mu) for mu in range(spec.dimension)]
    scale = spec.cell_volume * (2 * np.pi) ** (-spec.dimension / 2)
    for pidx in np.ndindex(*spec.shape):
        total = 0.0j
        for xidx in np.ndindex(*spec.shape):
            # p.x = -p0 x0 + sum_i pi xi, kernel exp(-i p.x)
            pdotx = sum(paxes[mu][pidx[mu]] * coords[mu][xidx[mu]]
                        for mu in range(1, spec.dimension))
            pdotx -= paxes[0][pidx[0]] * coords[0][xidx[0]]
            total += values[xidx] * np.exp(-1j * pdotx)
        out[pidx] = scale * total
    return out


def test_power_of_two_required():
    with pytest.raises(UnsupportedSpecError):
        LatticeSpec((6, 8), (1.0, 1.0))
    with pytest.raises(UnsupportedSpecError):
        LatticeSpec((1,), (1.0,))


def test_momentum_grid_spacing():
    spec = LatticeSpec((8, 16), (4.0, 8.0))
    assert spec.momentum_spacings == pytest.approx((2 * np.pi / 4.0, 2 * np.pi / 8.0))
    for mu in range(2):
        p = spec.momentum_axis(mu)
        assert p.size == spec.shape[mu]


def test_constant_field_is_zero_momentum_delta():
    spec = LatticeSpec((8, 8), (2.0, 2.0))
    f = ComplexField(spec, np.ones(spec.shape), "position")
    g = spectral_transform(f, "forward")
    mag = np.abs(g.values)
    assert mag[0, 0] > 0
    mag[0, 0] = 0.0
    assert np.max(mag) < 1e-12 * np.abs(g.values[0, 0])


def test_round_trip_identity():
    spec = LatticeSpec((8, 4, 4), (3.0, 2.0, 2.0))
    f = random_field(spec, seed=3)
    g = spectral_transform(spectral_transform(f, "forward"), "inverse")
    assert np.max(np.abs(g.values - f.values)) < 1e-12


def test_parseval_identity():
    spec = LatticeSpec((16, 8), (4.0, 3.0))
    f = random_field(spec, seed=7)
    g = spectral_transform(f, "forward")
    assert g.norm_squared() == pytest.approx(f.norm_squared(), rel=1e-12)


def test_norm_squared_builds_no_grid():
    # |v| and |v|^2 were once float grids of 8 bytes a point each
    f = random_field(LatticeSpec((128, 128), (8.0, 8.0)), seed=5)
    tracemalloc.start()
    try:
        f.norm_squared()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < f.values.size


def test_plane_wave_against_direct_summation():
    # oracle: direct summation on an 8-point axis
    spec = LatticeSpec((8, 8), (4.0, 4.0))
    coords = [spec.axis_coordinates(mu) for mu in range(2)]
    k0, k1 = 3, 5
    p0 = spec.momentum_axis(0)[k0]
    p1 = spec.momentum_axis(1)[k1]
    x0, x1 = np.meshgrid(*coords, indexing="ij")
    values = np.exp(1j * (-p0 * x0 + p1 * x1))  # exp(i p.x), signed
    f = ComplexField(spec, values, "position")
    g = spectral_transform(f, "forward")
    oracle = dft_oracle(spec, values)
    assert np.max(np.abs(g.values - oracle)) < 1e-10
    mag = np.abs(g.values)
    assert mag[k0, k1] > 0
    mag[k0, k1] = 0.0
    assert np.max(mag) < 1e-10 * np.abs(g.values[k0, k1])


def test_translation_phases_per_axis():
    # shifting by one site multiplies momentum amplitudes by the expected
    # unit phase, with the flipped sign on the time axis
    spec = LatticeSpec((8, 8), (2.0, 5.0))
    f = random_field(spec, seed=11)
    g = spectral_transform(f, "forward")
    for axis in range(2):
        shifted = ComplexField(spec, np.roll(f.values, 1, axis=axis), "position")
        gs = spectral_transform(shifted, "forward")
        p = spec.momentum_axis(axis)
        a = spec.spacings[axis]
        sign = +1.0 if axis == 0 else -1.0
        shape = [1, 1]
        shape[axis] = spec.shape[axis]
        expected = g.values * np.exp(sign * 1j * p * a).reshape(shape)
        assert np.max(np.abs(gs.values - expected)) < 1e-12


def test_representation_guards():
    spec = LatticeSpec((4, 4), (1.0, 1.0))
    f = random_field(spec)
    with pytest.raises(ContractViolation):
        spectral_transform(f, "inverse")
    g = spectral_transform(f, "forward")
    with pytest.raises(ContractViolation):
        spectral_transform(g, "forward")


@pytest.mark.parametrize("shape, extents", [((4, 8, 16, 8), (3.7, 5.3, 7.1, 2.9)),
                                            ((4, 8), (2.0, 3.0)), ((16,), (4.0,))])
def test_p_squared_equals_the_full_meshgrid_sum(shape, extents):
    spec = LatticeSpec(shape, extents)
    mesh = np.meshgrid(*[spec.momentum_axis(mu) for mu in range(len(shape))], indexing="ij")
    spatial = sum(p * p for p in mesh[1:]) if len(shape) > 1 else 0.0
    for mode, sign in (("minkowski", -1), ("euclidean", +1)):
        expected = spatial + sign * mesh[0] * mesh[0]
        got = spec.p_squared(mode)
        assert got.shape == shape
        np.testing.assert_array_equal(got, expected)
    with pytest.raises(ContractViolation):
        spec.p_squared("lorentzian")


def _fft_uses(path):
    """Dotted np.fft / numpy.fft / scipy.fft references and fft imports in one module."""
    uses = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            uses += [a.name for a in node.names if a.name.endswith(".fft")]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            uses += [f"{module}.{a.name}" for a in node.names
                     if module.endswith(".fft") or a.name == "fft"]
        elif isinstance(node, ast.Attribute) and node.attr == "fft" \
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy", "scipy"):
            uses.append(f"{node.value.id}.fft")
    return uses


def test_lattice_is_the_one_fft_site():
    users = {path.name: _fft_uses(path) for path in sorted(SRC.glob("*.py"))}
    assert users.pop("lattice.py")
    assert {name: uses for name, uses in users.items() if uses} == {}


def _unitary_uses(source):
    """The unitary convention in one module's source: each name of
    `spectral_transform` and each ComplexField built "momentum"."""
    uses = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and "ComplexField" in (getattr(node.func, "id", None),
                                                            getattr(node.func, "attr", None)):
            args = [*node.args, *(k.value for k in node.keywords)]
            if any(isinstance(a, ast.Constant) and a.value == "momentum" for a in args):
                uses.append('ComplexField("momentum")')
        for field in ("id", "attr", "name"):  # a Name, an Attribute, an import alias
            if getattr(node, field, None) == "spectral_transform":
                uses.append("spectral_transform")
    return sorted(uses)


def test_the_routes_use_the_plain_convention():
    # only lattice runs the unitary transform, kept as the tests' reference;
    # the package exports it and names it nowhere else
    uses = {path.name: _unitary_uses(path.read_text())
            for path in sorted(SRC.glob("*.py")) if path.name != "lattice.py"}
    assert uses.pop("__init__.py") == ["spectral_transform"]
    assert {name: found for name, found in uses.items() if found} == {}


def test_the_convention_scan_sees_the_unitary_transform():
    source = """
from .lattice import ComplexField, spectral_transform
from . import lattice


def table(spec, values):
    f = ComplexField(spec, values, "momentum")
    g = lattice.ComplexField(spec, values, representation="momentum")
    return lattice.spectral_transform(f, "inverse"), g
"""
    assert _unitary_uses(source) == ['ComplexField("momentum")'] * 2 + ["spectral_transform"] * 2
    assert _unitary_uses("ComplexField(spec, values, 'position')\nmomentum_sum(spec, v)") == []


@pytest.mark.parametrize("shape", [(2,), (8, 4, 16), (4, 2, 8, 2)])
def test_plain_fftn_equals_fftn_of_the_meshgrid_product(shape):
    rng = np.random.default_rng(len(shape))
    spec = LatticeSpec(shape, (3.0,) * len(shape))
    factors = [spec.along(mu, rng.normal(size=n) + 1j * rng.normal(size=n))
               for mu, n in enumerate(shape)]
    want = scipy.fft.fftn(np.prod(np.broadcast_arrays(*factors), axis=0))
    got = plain_fftn(factors)
    # one broadcast-shaped factor per axis, whose product is the spectrum
    assert [f.shape for f in got] == [f.shape for f in factors]
    got = np.prod(np.broadcast_arrays(*got), axis=0)
    assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("shape", [(2,), (16,), (8, 4, 16), (4, 2, 8, 2)])
def test_plain_ifftn_inverts_plain_fftn(shape):
    rng = np.random.default_rng(len(shape) + 3)
    spec = LatticeSpec(shape, (3.0,) * len(shape))
    factors = tuple(spec.along(mu, rng.normal(size=n) + 1j * rng.normal(size=n))
                    for mu, n in enumerate(shape))
    grid = np.prod(np.broadcast_arrays(*factors), axis=0)
    for held in (factors, (grid,)):  # one-axis factors, and one full-grid factor
        back = plain_ifftn(spec, plain_fftn(held)).values
        assert np.max(np.abs(back - grid)) < 1e-13 * np.max(np.abs(grid))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_plain_fftn_rejects_a_factor_that_is_not_finite(bad):
    spec = LatticeSpec((4, 8), (3.0, 3.0))
    factors = [spec.along(0, np.ones(4, dtype=complex)), spec.along(1, np.ones(8, dtype=complex))]
    factors[1][0, 5] = bad
    grid = np.ones(spec.shape, dtype=complex)
    grid[2, 3] = bad
    for held in (factors, (grid,)):
        with pytest.raises(ContractViolation, match="field amplitudes must be finite"):
            plain_fftn(held)


def _unitary_momentum_sum(spec, values):
    """The inverse unitary transform of the momentum amplitudes
    (2 pi)^(-D/2) values, (2 pi)^(-D) prod(2 pi / L) sum_p values exp(i p.u):
    the continuum-normalised integral in the signed time convention."""
    field = ComplexField(spec, values * (2 * np.pi) ** (-spec.dimension / 2), "momentum")
    return spectral_transform(field, "inverse").values


_ANISOTROPIC = pytest.mark.parametrize("shape, extents", [
    ((16,), (3.0,)), ((8, 4), (5.0, 3.0)), ((4, 8, 2), (3.0, 5.5, 2.0)),
    ((4, 8, 2, 16), (3.0, 5.0, 2.0, 9.0))])


@_ANISOTROPIC
def test_momentum_sum_equals_the_unitary_reference_for_a_multiplier_even_in_p0(shape, extents):
    spec = LatticeSpec(shape, extents)
    propagator = -1j / (spec.p_squared("minkowski") + 1.0 - 1e-2j)
    phase = lattice_momentum_phase(spec, 0.37, 1.3)
    for values in (propagator, phase):
        want = _unitary_momentum_sum(spec, values)
        got = momentum_sum(spec, values)
        assert np.max(np.abs(got - want)) < 1e-14 * np.max(np.abs(want))
    # negative control: a multiplier odd in p0 sees the time sign that the
    # plain sum drops
    odd = spec.along(0, spec.momentum_axis(0)) * propagator
    want = _unitary_momentum_sum(spec, odd)
    assert np.max(np.abs(momentum_sum(spec, odd) - want)) > 0.1 * np.max(np.abs(want))


@_ANISOTROPIC
def test_momentum_sum_over_the_spatial_axes(shape, extents):
    # the frequency parts' sum: axis 0 untouched and of any length, each
    # spatial axis summed with exp(+i p u) / L
    spec = LatticeSpec(shape, extents)
    rng = np.random.default_rng(len(shape))
    values = rng.normal(size=(7,) + shape[1:]) + 1j * rng.normal(size=(7,) + shape[1:])
    space = range(1, spec.dimension)
    got = momentum_sum(spec, values, space)
    old = scipy.fft.ifftn(values, axes=space, norm="forward") / float(np.prod(extents[1:]))
    assert np.array_equal(got, old)
    if spec.dimension == 1:
        assert np.array_equal(got, values)
        return
    # a direct sum at one displacement
    j = tuple(n // 2 - 1 for n in shape[1:])
    phases = np.ones(shape[1:], dtype=complex)
    for mu, jm in enumerate(j, start=1):
        p = spec.along(mu, spec.momentum_axis(mu))[0]
        phases = phases * np.exp(1j * p * jm * spec.spacings[mu])
    want = np.sum(values * phases, axis=tuple(range(1, spec.dimension))) / np.prod(extents[1:])
    assert np.max(np.abs(got[(slice(None),) + j] - want)) < 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("shape", [(2,), (8, 4, 16), (4, 2, 8, 2)])
def test_plain_ifftn_of_factors_equals_ifftn_of_their_product(shape):
    # one-axis factors, and a full-grid one, whose product is inverted whole
    rng = np.random.default_rng(len(shape) + 7)
    spec = LatticeSpec(shape, (3.0,) * len(shape))
    factors = tuple(spec.along(mu, rng.normal(size=n) + 1j * rng.normal(size=n))
                    for mu, n in enumerate(shape))
    grid = np.prod(np.broadcast_arrays(*factors), axis=0)
    want = scipy.fft.ifftn(grid)
    got = plain_ifftn(spec, factors)
    assert got.representation == "position"
    assert np.max(np.abs(got.values - want)) < 1e-13 * np.max(np.abs(want))
    assert np.array_equal(plain_ifftn(spec, (grid,)).values, want)

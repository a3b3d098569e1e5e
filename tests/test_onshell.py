import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from worldlineqm import cli
from worldlineqm.errors import ContractViolation, DomainError
from worldlineqm.geometry import FourVector, minkowski_dot, onshell_energy
from worldlineqm.onshell import (
    INDUCED_2E,
    SYMMETRIC_SQRT2E,
    FrequencyProfile,
    MomentumGrid,
    OnShellState,
    concentration,
    dual_pairing_time_state,
    fw_phase_evolve,
    identity_resolution_apply,
    localized_wavefunction,
    momentum_state_profile,
    onshell_propagator_momentum,
)


def test_onshell_propagator_on_pole():
    e = np.sqrt(1.0 + 0.25)
    eps = 1e-3
    value = onshell_propagator_momentum((e, 0.5), 1.0, +1, eps)
    assert abs(value) == pytest.approx(1.0 / (2 * e * eps), rel=1e-12)


def test_onshell_propagator_asymptotics():
    e = 1.0
    value = onshell_propagator_momentum((e + 50.0, 0.0), 1.0, +1, 1e-6)
    assert abs(value) == pytest.approx(1.0 / (2 * e * 50.0), rel=1e-4)


def test_onshell_propagator_against_damped_quadrature():
    p0, psp, eps = 1.7, 0.6, 5e-2
    e = np.sqrt(psp ** 2 + 1.0)
    t = np.arange(0.0, 25.0 / eps, 5e-4)
    oracle = integrate.simpson(np.exp(1j * (p0 - e) * t - eps * t), x=t) / (2 * e)
    value = onshell_propagator_momentum((p0, psp), 1.0, +1, eps)
    assert abs(value - oracle) < 1e-8


def profile_grid(e, eps, halfrange=50.0):
    step = eps / 5
    return np.arange(-halfrange, halfrange + step, step) + 0.0


def test_profile_peaks_on_shell():
    eps = 1e-2
    e = np.sqrt(1.0 + 0.09)
    for sign in (+1, -1):
        grid = sign * e + np.linspace(-1, 1, 2001)
        prof = momentum_state_profile((0.3,), 1.0, sign, 0.0, eps, grid)
        peak = prof.p0[np.argmax(np.abs(prof.amplitude))]
        assert peak == pytest.approx(sign * e, abs=2e-3)
        assert prof.center == pytest.approx(sign * e)


def test_profile_halfwidth():
    eps = 1e-2
    e = 1.0
    grid = e + np.linspace(-0.2, 0.2, 40001)
    prof = momentum_state_profile((0.0,), 1.0, +1, 0.0, eps, grid)
    w = np.abs(prof.amplitude) ** 2
    half = w.max() / 2
    above = prof.p0[w >= half]
    hwhm = (above.max() - above.min()) / 2
    assert hwhm == pytest.approx(eps, rel=5e-2)


@pytest.mark.parametrize("sign", [+1, -1])
@pytest.mark.parametrize("t", [-1.3, -0.2, 0.4, 2.1])
def test_profile_off_zero_time_matches_its_one_sided_integral(sign, t):
    # exp(-i s E t) (2E)^-1 Int dt0 exp(i (p0 - s E) t0 - eps |t0|) over
    # (-inf, t] for particles and [t, inf) for antiparticles
    mass, eps = 1.2, 0.6
    e = np.sqrt(0.25 + mass ** 2)
    p0 = sign * e + np.array([-2.0, -0.3, 0.0, 0.8, 2.5])
    prof = momentum_state_profile((0.5,), mass, sign, t, eps, p0)
    lo, hi = (-80.0, t) if sign == +1 else (t, 80.0)
    for q, amplitude in zip(p0, prof.amplitude):
        integral, _ = integrate.quad(
            lambda t0: np.exp(1j * (q - sign * e) * t0 - eps * abs(t0)), lo, hi,
            points=[0.0] if lo < 0.0 < hi else None, limit=400, complex_func=True,
            epsabs=1e-12, epsrel=1e-12)
        oracle = np.exp(-1j * sign * e * t) * integral / (2 * e)
        assert amplitude == pytest.approx(oracle, rel=1e-10)


def _exp_form_amplitude(p_spatial, mass, sign, t, eps, p0):
    # the t <= 0 branch as exp((i x + eps) s t) / (i x + eps), exp kept at t = 0
    e = float(np.sqrt(sum(x * x for x in p_spatial) + mass * mass))
    x = sign * np.asarray(p0, dtype=float) - e
    core = np.exp((1j * x + eps) * (sign * t)) / (1j * x + eps)
    return np.exp(-1j * sign * e * t) * core / (2 * e)


@pytest.mark.parametrize("eps", [1e-1, 1e-2, 1e-3])
def test_profile_at_zero_time_is_bitwise_the_exp_form(eps):
    # the closed form 1 / (i x + eps) at t = 0 skips exp(0) and changes no bit;
    # the grids are those of the spectral benchmark's concentration case
    step = eps / 4
    grid = np.sqrt(0.3 ** 2 + 1.0) + np.arange(-400.0, 400.0 + step, step)
    for sign, t in ((+1, 0.0), (-1, 0.0), (+1, -0.0), (+1, -0.7)):
        got = momentum_state_profile((0.3,), 1.0, sign, t, eps, sign * grid).amplitude
        expected = _exp_form_amplitude((0.3,), 1.0, sign, t, eps, sign * grid)
        assert got.tobytes() == expected.tobytes()



def _temporaries_form_amplitude(p_spatial, mass, sign, t, eps, p0):
    # the closed form of both branches written with one temporary per operation
    e = float(np.sqrt(sum(x * x for x in p_spatial) + mass * mass))
    x, ts = sign * np.asarray(p0, dtype=float) - e, sign * t
    if ts <= 0:
        core = np.exp((1j * x + eps) * ts) / (1j * x + eps)
    else:
        core = 1.0 / (1j * x + eps) + (np.exp((1j * x - eps) * ts) - 1.0) / (1j * x - eps)
    return np.exp(-1j * sign * e * t) * core / (2 * e)


@pytest.mark.parametrize("sign", [+1, -1])
@pytest.mark.parametrize("t", [0.0, 0.7, -0.7])
def test_profile_built_in_place_is_bitwise_the_closed_form(sign, t):
    grid = sign * np.sqrt(0.3 ** 2 + 1.0) + np.arange(-40.0, 40.0, 1e-3 / 4)
    got = momentum_state_profile((0.3,), 1.0, sign, t, 1e-3, grid).amplitude
    expected = _temporaries_form_amplitude((0.3,), 1.0, sign, t, 1e-3, grid)
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("sign", [+1, -1])
@pytest.mark.parametrize("t", [0.0, 0.7, -0.7])
def test_profile_holds_at_most_two_complex_grids(sign, t):
    # one complex grid (16 bytes a point) at t = 0 and two otherwise: the
    # profile once held a real grid x and the t != 0 branches once built every
    # sum and quotient as a new array
    grid = sign * np.sqrt(0.3 ** 2 + 1.0) + np.arange(-40.0, 40.0, 1e-3 / 4)
    tracemalloc.start()
    try:
        momentum_state_profile((0.3,), 1.0, sign, t, 1e-3, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (17 if t == 0 else 33) * grid.size


def test_concentration_builds_no_float_grid():
    # two boolean masks (one byte a point each) and the window's amplitudes:
    # |a|^2 and |p0 - center| were once float grids of 8 bytes a point
    grid = np.sqrt(0.3 ** 2 + 1.0) + np.arange(-40.0, 40.0, 1e-3 / 4)
    prof = momentum_state_profile((0.3,), 1.0, +1, 0.0, 1e-3, grid)
    tracemalloc.start()
    try:
        concentration(prof, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * grid.size


def lorentzian_concentration_oracle(window, eps):
    # Int_{-w}^{w} dx/(x^2+e^2) over Int_{-inf}^{inf} = (2/pi) arctan(w/e)
    return (2 / np.pi) * np.arctan(window / eps)


def test_concentration_matches_lorentzian_oracle():
    window = 1.0
    for eps in (1e-1, 1e-2, 1e-3):
        step = eps / 4
        grid = 1.0 + np.arange(-400.0, 400.0 + step, step)
        prof = momentum_state_profile((0.0,), 1.0, +1, 0.0, eps, grid)
        measured = concentration(prof, window)
        oracle = lorentzian_concentration_oracle(window, eps)
        assert abs(measured - oracle) / oracle < 1e-2


def test_concentration_equal_window():
    eps = 1e-2
    grid = 1.0 + np.arange(-100.0, 100.0, eps / 6)
    prof = momentum_state_profile((0.0,), 1.0, +1, 0.0, eps, grid)
    assert concentration(prof, eps) == pytest.approx(0.5, abs=2e-2)


def test_concentration_window_is_open():
    # grid points exactly at center +- w lie outside, and the points one ulp
    # inside them lie inside
    center, w = 1.0, 0.5
    p0 = np.array([0.25, 0.5, np.nextafter(0.5, 1.0), 1.0, np.nextafter(1.5, 1.0), 1.5, 1.75])
    prof = FrequencyProfile(p0, np.array([1, 2, 4, 8, 16, 32, 64], dtype=complex),
                            center, 1e-2)
    total = 1 + 4 + 16 + 64 + 256 + 1024 + 4096
    assert concentration(prof, w) == (16 + 64 + 256) / total


def test_profile_rejects_non_finite_times_and_frequencies():
    for t in (np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError, match="t must be finite"):
            momentum_state_profile((0.3,), 1.0, +1, t, 1e-2, [1.0])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError, match="p0_grid entries must be finite"):
            momentum_state_profile((0.3,), 1.0, -1, 0.0, 1e-2, [0.5, bad, 1.5])


def test_concentration_of_a_vanishing_profile_is_zero():
    # long before t = 0 the particle profile exp(eps t) underflows to zero
    prof = momentum_state_profile((0.0,), 1.0, +1, -1e5, 1e-2, np.linspace(0.0, 2.0, 11))
    assert not np.any(prof.amplitude)
    assert concentration(prof, 0.5) == 0.0


def test_concentration_monotone_in_epsilon():
    window = 0.5
    values = []
    for eps in (1e-3, 1e-2, 1e-1, 1.0, 10.0):
        grid = 1.0 + np.arange(-3000.0, 3000.0, min(eps / 4, 0.5))
        prof = momentum_state_profile((0.0,), 1.0, +1, 0.0, eps, grid)
        values.append(concentration(prof, window))
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < 0.05


def test_biorthonormality_of_basis_pairing():
    # every on-shell bra against every time-indexed ket of the grid basis:
    # Kronecker / dp with weight 1/(2 E_p)
    grid = MomentumGrid(1, 17, 0.5)
    basis = [OnShellState(+1, (p,), 1.0) for p in grid.axis()]
    pairing = np.array([[dual_pairing_time_state(bra, ket, 0.7, grid) for ket in basis]
                        for bra in basis])
    e = np.sqrt(grid.axis() ** 2 + 1.0)
    np.testing.assert_allclose(pairing, np.diag(1.0 / (2 * e) / grid.cell_volume),
                               rtol=1e-12, atol=0.0)


def test_identity_resolution_round_trip():
    grid = MomentumGrid(1, 17, 0.3)
    rng = np.random.default_rng(10)
    psi = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
    back = identity_resolution_apply(psi, grid, mass=1.0)
    assert np.max(np.abs(back - psi)) < 1e-12
    basis = np.zeros(grid.shape, dtype=complex)
    basis[4] = 1.0 / grid.cell_volume
    assert np.max(np.abs(identity_resolution_apply(basis, grid, 1.0) - basis)) < 1e-12
    two = np.zeros(grid.shape, dtype=complex)
    two[3], two[12] = 0.6, -0.8j
    back2 = identity_resolution_apply(two, grid, 1.0)
    assert back2[3] == pytest.approx(0.6, abs=1e-14)
    assert back2[12] == pytest.approx(-0.8j, abs=1e-14)


def test_dual_pairing_time_independence():
    grid = MomentumGrid(1, 17, 0.5)
    state = OnShellState(+1, (1.5,), 1.0)
    values = [dual_pairing_time_state(state, state, t0, grid)
              for t0 in (-7.3, -0.2, 0.0, 1.9, 42.0)]
    for v in values[1:]:
        assert abs(v - values[0]) < 1e-12
    assert values[0] == pytest.approx(
        1.0 / (2 * onshell_energy(state.p_spatial, state.mass)) / grid.cell_volume)
    anti = OnShellState(-1, (1.5,), 1.0)
    assert dual_pairing_time_state(state, anti, 0.0, grid) == 0j
    other = OnShellState(+1, (1.0,), 1.0)
    assert dual_pairing_time_state(state, other, 0.0, grid) == 0j


def test_localized_wavefunction_conventions():
    p = (0.7,)
    e = np.sqrt(0.49 + 1.0)
    a = localized_wavefunction((0.3,), 1.2, p, 1.0, +1, INDUCED_2E)
    b = localized_wavefunction((0.3,), 1.2, p, 1.0, +1, SYMMETRIC_SQRT2E)
    assert a / b == pytest.approx(np.sqrt(2 * e), rel=1e-13)
    # plane-wave magnitude independent of momentum in the induced convention
    mags = {abs(localized_wavefunction((0.1,), 0.5, (pp,), 1.0, +1, INDUCED_2E))
            for pp in (0.0, 0.3, 2.0)}
    assert max(mags) - min(mags) < 1e-14
    # conventional localized profile at t = 0
    nw = localized_wavefunction((0.4,), 0.0, p, 1.0, +1, SYMMETRIC_SQRT2E)
    expected = (2 * np.pi) ** (-0.5) * (2 * e) ** (-0.5) * np.exp(-1j * 0.7 * 0.4)
    assert nw == pytest.approx(expected, rel=1e-13)


def test_profile_argmax_invariant_under_convention():
    # the convention factor depends on the spatial momentum only, so the
    # frequency-profile peak cannot move
    eps = 1e-2
    for psp in (0.0, 0.4, 1.1):
        e = np.sqrt(psp ** 2 + 1.0)
        grid = e + np.linspace(-0.5, 0.5, 4001)
        prof = momentum_state_profile((psp,), 1.0, +1, 0.0, eps, grid)
        scaled = prof.amplitude / np.sqrt(2 * e)
        assert np.argmax(np.abs(prof.amplitude)) == np.argmax(np.abs(scaled))


def test_fw_phase_zero_momentum():
    grid = MomentumGrid(1, 5, 0.5)
    psi = np.ones(grid.shape, dtype=complex)
    out = fw_phase_evolve(psi, grid, mass=1.0, sign=+1, dt=0.9)
    k0 = 2  # p = 0 entry
    assert out[k0] == pytest.approx(np.exp(1j * 0.9), rel=1e-13)
    assert np.abs(out).max() == pytest.approx(1.0, rel=1e-13)


def test_fw_phase_rate_gap_against_taylor():
    m, pm = 1.0, 0.1
    e = np.sqrt(pm ** 2 + m ** 2)
    gap = abs(e - (m + pm ** 2 / (2 * m)))
    taylor = pm ** 4 / (8 * m ** 3)
    assert gap == pytest.approx(1.24e-5, rel=1e-2)
    assert abs(gap - taylor) / taylor < 1e-2


def test_nonrelativistic_phase_bound():
    # packets supported on |p| <= 0.1 m: L2 gap against the quadratic phase
    m, dt = 1.0, 3.0
    grid = MomentumGrid(1, 41, 0.005)  # support |p| <= 0.1
    rng = np.random.default_rng(4)
    psi = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
    psi /= np.sqrt(np.sum(np.abs(psi) ** 2) * grid.cell_volume)
    full = fw_phase_evolve(psi, grid, m, +1, dt)
    p = grid.axis()
    quadratic = psi * np.exp(1j * (m + p * p / (2 * m)) * dt)
    dist = np.sqrt(np.sum(np.abs(full - quadratic) ** 2) * grid.cell_volume)
    assert dist <= 2 * 1.3e-5 * m * dt


def test_guards():
    with pytest.raises(ContractViolation):
        OnShellState(2, (0.0,), 1.0)
    with pytest.raises(ContractViolation, match="p0_grid must be one-dimensional"):
        momentum_state_profile((0.3,), 1.0, +1, 0.0, 0.01, 1.0)
    with pytest.raises(ContractViolation):
        localized_wavefunction((0.1,), 0.0, (0.1,), 1.0, +1, "bogus")


# ---------------------------------------------------------------------------
# one mass shell

SRC = Path(__file__).resolve().parents[1] / "src" / "worldlineqm"
_SHELL_MOMENTA = [(0.3,), (0.3, -1.1), (0.3, -1.1, 0.7)]


def test_the_mass_shell_is_written_once():
    # a square root of a sum ending in a mass term appears only in geometry.py
    shell = re.compile(r"sqrt\(.*\+ *(mass|msq|m_a|self\.mass)\b")
    owners = {path.name for path in SRC.glob("*.py") if shell.search(path.read_text())}
    assert owners == {"geometry.py"}


@pytest.mark.parametrize("p", _SHELL_MOMENTA)
def test_onshell_energy_is_the_positive_root_of_the_mass_shell(p):
    e = onshell_energy(p, 1.3)
    assert e > 0
    k = FourVector((e,) + p)
    assert minkowski_dot(k, k) == pytest.approx(-1.69, rel=1e-14)
    # a mesh gives the energy of each of its points
    mesh = np.meshgrid(*[np.array([c, -2 * c]) for c in p], indexing="ij")
    assert onshell_energy(mesh, 1.3).flat[0] == e


@pytest.mark.parametrize("sign", [+1, -1])
@pytest.mark.parametrize("p", _SHELL_MOMENTA)
def test_profile_center_is_the_mass_shell(p, sign):
    prof = momentum_state_profile(p, 1.3, sign, 0.4, 1e-2, [0.0, 1.0])
    assert prof.center == sign * onshell_energy(p, 1.3)


@pytest.mark.parametrize("p", _SHELL_MOMENTA)
def test_onshell_record_energy_is_the_mass_shell(tmp_path, p):
    out = tmp_path / "onshell.json"
    assert cli.run(["onshell", "--p", ",".join(map(str, p)), "--mass", "1.3",
                    "--p0-points", "201", "--output", str(out)]) == 0
    record = json.loads(out.read_text(encoding="utf-8"))
    assert record["outputs"]["energy"] == onshell_energy(p, 1.3)

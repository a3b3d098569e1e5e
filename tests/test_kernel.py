import io
import re
import tokenize
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, special

from worldlineqm import kernel
from worldlineqm.errors import (
    ContractViolation,
    DegeneratePathError,
    DomainError,
    UnsupportedSpecError,
)
from worldlineqm.geometry import FourVector, minkowski_dot
from worldlineqm.kernel import (
    KernelParams,
    WeightFunction,
    euclidean_mass_propagator_batch,
    kernel_closed,
    kernel_damped,
    kernel_discretized,
    kernel_mass_superposition,
    kernel_mc,
    lattice_momentum_phase,
    lattice_propagator,
    propagator_momentum,
    propagator_onshell_part,
    propagator_position,
    segment_norm,
)
from worldlineqm.lattice import LatticeSpec


# ---------------------------------------------------------------------------
# closed form


def test_euclidean_point_kernel_value():
    # oracle: heat kernel (4 pi tau)^(-1) exp(-tau m^2) at dx = 0, D = 2
    params = KernelParams(mass=1.0, total_length=1.0, dimension=2, mode="euclidean")
    oracle = np.exp(-1.0) / (4 * np.pi)
    value = kernel_closed(FourVector((0.0, 0.0)), params)
    assert value.imag == pytest.approx(0.0, abs=1e-15)
    assert value.real == pytest.approx(oracle, rel=1e-13)
    assert value.real == pytest.approx(2.9276e-2, rel=1e-3)


def test_euclidean_small_mass_heat_peak():
    for dim, dx in ((2, (0.0, 0.0)), (4, (0.0, 0.0, 0.0, 0.0))):
        params = KernelParams(mass=1e-8, total_length=0.7, dimension=dim, mode="euclidean")
        value = kernel_closed(FourVector(dx), params)
        assert value.real == pytest.approx((4 * np.pi * 0.7) ** (-dim / 2), rel=1e-12)


def momentum_quadrature_kernel(dx, t, mass, damping):
    """Brute-force damped momentum quadrature of the D=2 kernel definition.

    Dense vectorized trapezoid per axis; the grid resolves the Fresnel
    oscillation out to where the Gaussian damping has killed the integrand.
    """
    half = np.sqrt(40.0 / damping)
    step = min(np.pi / (2 * t * half) / 8, half / 2000)
    p = np.arange(-half, half + step, step)

    time_vals = np.exp(-1j * p * dx[0] + (1j * t - damping) * p * p)
    space_vals = np.exp(1j * p * dx[1] - (1j * t + damping) * p * p)
    tf = np.trapezoid(time_vals, p)
    sf = np.trapezoid(space_vals, p)
    return tf * sf * np.exp(-1j * t * mass ** 2) / (2 * np.pi) ** 2


def test_minkowski_kernel_against_momentum_quadrature():
    eps = 1e-3
    rng = np.random.default_rng(2)
    for _ in range(4):
        dx = 0.8 * rng.normal(size=2)
        t = rng.uniform(1.0, 2.0)
        oracle = momentum_quadrature_kernel(dx, t, 1.0, eps)
        value = kernel_damped(FourVector(tuple(dx)), t, 1.0, eps, "minkowski")
        assert abs(value - oracle) / abs(oracle) < 1e-10
        undamped = kernel_closed(FourVector(tuple(dx)),
                                 KernelParams(1.0, t, 2, "minkowski"))
        assert abs(undamped - oracle) / abs(oracle) < 1e-3


def test_minkowski_phase_factor_d4():
    # overall factor -i (4 pi T)^-2 at dx = 0 in D = 4
    t, m = 0.9, 1.0
    value = kernel_closed(FourVector((0.0,) * 4), KernelParams(m, t, 4, "minkowski"))
    expected = -1j * (4 * np.pi * t) ** (-2) * np.exp(-1j * t * m * m)
    assert value == pytest.approx(expected, rel=1e-13)


def _boost(dx, rapidity, axis, time_only=False):
    """dx boosted with `rapidity` along the unit spatial vector `axis`, or,
    with time_only, only its time component changed as by that boost."""
    t, x = dx[0], dx[1:]
    along = axis @ x
    t_new = np.cosh(rapidity) * t + np.sinh(rapidity) * along
    if not time_only:
        x = x + ((np.cosh(rapidity) - 1) * along + np.sinh(rapidity) * t) * axis
    return FourVector((t_new, *x))


@pytest.mark.parametrize("dimension", [2, 4])
def test_closed_minkowski_kernel_is_boost_invariant(dimension):
    # K(dx; T) depends on dx only through dx.dx, which a boost keeps and a
    # boost of t alone does not
    rng = np.random.default_rng(14)
    gaps, controls = [], []
    for _ in range(20):
        dx = rng.uniform(-1.0, 1.0, dimension)
        params = KernelParams(1.0, rng.uniform(0.5, 2.0), dimension, "minkowski")
        axis = rng.normal(size=dimension - 1)
        axis /= np.linalg.norm(axis)
        rapidity = rng.uniform(0.3, 1.0)
        value = kernel_closed(FourVector(tuple(dx)), params)
        for gap_list, time_only in ((gaps, False), (controls, True)):
            boosted = kernel_closed(_boost(dx, rapidity, axis, time_only), params)
            gap_list.append(abs(boosted - value) / abs(value))
    assert max(gaps) < 1e-13
    assert min(controls) > 1e-6


def test_kernel_requires_positive_length():
    with pytest.raises(DomainError):
        KernelParams(1.0, 0.0, 2, "euclidean")
    with pytest.raises(DomainError):
        KernelParams(1.0, -1.0, 2, "euclidean")


def test_weight_function_shapes():
    uni = WeightFunction.uniform()
    assert uni(0.0) == 1.0 and uni(17.3) == 1.0
    w = WeightFunction.gaussian(2.0, 0.5)
    assert w(0.4) == 0.0  # below the threshold
    assert w(0.6) == pytest.approx(np.exp(-0.6 ** 2 / 8.0))
    t = np.linspace(0, 20, 200)
    vals = w(t)
    assert np.all((0.0 <= vals) & (vals <= 1.0))
    with pytest.raises(ContractViolation):
        WeightFunction.gaussian(-1.0, 0.1)


def test_weight_scalar_and_array_calls_agree():
    t = np.concatenate(([0.0, 0.5, 1e150], np.linspace(0.0, 30.0, 301)))
    for weight in (WeightFunction.uniform(), WeightFunction.gaussian(2.0, 0.5),
                   WeightFunction.gaussian(np.inf, 0.5)):
        values = weight(t)
        scalars = [weight(float(x)) for x in t]
        assert all(isinstance(v, float) for v in scalars)
        assert scalars == values.tolist()
    assert WeightFunction.uniform()(t).tolist() == [1.0] * t.size
    assert WeightFunction.uniform()(1e300) == WeightFunction.uniform()(np.array(1e300)) == 1.0
    assert WeightFunction.gaussian(np.inf, 0.5)(0.4) == 0.0
    with pytest.raises(ContractViolation, match="threshold must be >= 0 and finite"):
        WeightFunction.gaussian(10.0, np.inf)


# propagator_position under the flat weight f = 1 (computed with f as np.ones),
# which the family's uniform point dlam = inf, delta = 0 reproduces bitwise
UNIFORM_WEIGHT_VALUES = [
    ((0.6, 0.8), 1.0, 1e-10, "euclidean", 0.0, 0.06700812050368496 + 0j),
    ((1.2, 0.3), 1.0, 1e-3, "minkowski", 1e-3, -0.05052005164720507 - 0.17243114251937314j),
    ((1.2, 0.3), 0.05, 1e-2, "minkowski", 1e-2, 0.3615490369366598 - 0.14263421870770468j),
]


@pytest.mark.parametrize("dx, mass, eps, mode, damping, before", UNIFORM_WEIGHT_VALUES,
                         ids=["euclidean", "minkowski-contour-tail", "minkowski-adaptive-tail"])
def test_uniform_weight_is_the_infinite_correlation_length_point(dx, mass, eps, mode,
                                                                  damping, before):
    values = [propagator_position(FourVector(dx), mass, eps, weight, 2, mode, damping=damping)
              for weight in (WeightFunction.uniform(), WeightFunction.gaussian(np.inf, 0.0))]
    assert values == [before, before]


@pytest.mark.parametrize("s", [1.0, 0.3 - 2.0j, 25.0 + 1.0j])
def test_uniform_weight_transform_is_one_over_s(s):
    assert WeightFunction.uniform().transform(s) == pytest.approx(1 / s, rel=1e-15)


@pytest.mark.parametrize("s", [1.0, 0.3 - 2.0j, 4.0 + 1.0j])
def test_infinite_correlation_length_transform_matches_quadrature(s):
    weight = WeightFunction(np.inf, 0.7)
    reference, _ = integrate.quad(lambda lam: weight(lam) * np.exp(-s * lam), 0.7, np.inf,
                                  complex_func=True, epsabs=0.0, epsrel=1e-12, limit=400)
    assert abs(weight.transform(s) - reference) <= 1e-10 * abs(reference)


@pytest.mark.parametrize("s", [0.0, -1.0, -2.0j, np.array([1.0, -1.0])])
def test_uniform_weight_transform_needs_positive_real_part(s):
    # it was nan+nanj with two RuntimeWarnings; the integral does not converge
    with pytest.raises(DomainError, match="needs Re s > 0"):
        WeightFunction.uniform().transform(s)


def test_infinite_correlation_length_needs_epsilon():
    # a threshold does not make the T-integral of a flat weight converge
    for weight in (WeightFunction.uniform(), WeightFunction.gaussian(np.inf, 0.5)):
        with pytest.raises(DomainError, match="needs epsilon > 0"):
            propagator_position(FourVector((0.0, 1.0)), 1.0, 0.0, weight, 2, "euclidean")
    finite = propagator_position(FourVector((0.0, 1.0)), 1.0, 0.0,
                                 WeightFunction.gaussian(10.0, 0.5), 2, "euclidean")
    assert finite.real > 0


SRC = Path(__file__).resolve().parents[1] / "src" / "worldlineqm"
# the weight's closed forms (Faddeeva and scaled erfc) and its Gaussian exponent
_WEIGHT_FORMS = re.compile(r"\berfcx\b|\bwofz\b|\bdlam \* dlam\b|"
                           r"\bcorrelation_length \*\* 2\b|/ self \. correlation_length\b")


def _code(path):
    """A module's source tokens, strings and comments left out."""
    tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
    return " ".join(t.string for t in tokens if t.type not in (tokenize.STRING, tokenize.COMMENT))


def test_weight_owner_is_the_one_site_of_its_closed_forms():
    users = {path.name: _WEIGHT_FORMS.findall(_code(path)) for path in sorted(SRC.glob("*.py"))}
    assert sorted(set(users.pop("kernel.py"))) == [
        "/ self . correlation_length", "correlation_length ** 2", "wofz"]
    assert {name: found for name, found in users.items() if found} == {}


# ---------------------------------------------------------------------------
# discretized collapse


def test_single_segment_equals_closed():
    params = KernelParams(1.0, 0.8, 2, "euclidean")
    x0 = FourVector((0.1, -0.4))
    x = FourVector((0.7, 0.9))
    a = kernel_discretized(x, x0, [0.8], params)
    b = kernel_closed(x - x0, params)
    assert a == pytest.approx(b, rel=1e-14)


@pytest.mark.parametrize("mode", ["euclidean", "minkowski"])
def test_collapse_n_independence(mode):
    params = KernelParams(1.0, 1.0, 2, mode)
    x0 = FourVector((0.0, 0.0))
    x = FourVector((0.6, -1.1))
    target = kernel_closed(x - x0, params)
    for n in (1, 2, 4, 8, 16):
        value = kernel_discretized(x, x0, np.full(n, 1.0 / n), params)
        assert abs(value - target) / abs(target) < 1e-10


def test_collapse_random_segments():
    rng = np.random.default_rng(4)
    params = KernelParams(1.0, 1.0, 2, "euclidean")
    x0 = FourVector((0.2, 0.3))
    x = FourVector((-0.5, 1.0))
    target = kernel_closed(x - x0, params)
    for _ in range(5):
        seg = rng.uniform(0.05, 1.0, size=16)
        seg = seg / seg.sum()
        value = kernel_discretized(x, x0, seg, params)
        assert abs(value - target) / abs(target) < 1e-10


def test_collapse_rejects_bad_segments():
    params = KernelParams(1.0, 1.0, 2, "euclidean")
    origin = FourVector((0.0, 0.0))
    with pytest.raises(DegeneratePathError):
        kernel_discretized(origin, origin, [0.5, -0.1, 0.6], params)
    with pytest.raises(ContractViolation):
        kernel_discretized(origin, origin, [0.4, 0.4], params)


def test_collapsed_prefactor_is_one():
    # the product of segment norms exactly cancels the collapse factors
    rng = np.random.default_rng(6)
    for dim, mode in ((2, "euclidean"), (2, "minkowski"), (4, "minkowski")):
        seg = rng.uniform(0.05, 0.4, size=8)
        zeta = np.prod([segment_norm(float(dlam), dim, mode) for dlam in seg])
        for dlam in seg:
            inv = (4 * np.pi * dlam) ** (dim / 2)
            if mode == "minkowski":
                inv = inv * np.exp(+1j * np.pi * (dim - 2) / 4)
            zeta *= inv
        assert zeta == pytest.approx(1.0 + 0j, abs=1e-12)


def test_segment_norm_matches_d4_convention():
    dlam = 0.37
    assert segment_norm(dlam, 4, "minkowski") == pytest.approx(
        -1j * (4 * np.pi * dlam) ** (-2), rel=1e-14)


# ---------------------------------------------------------------------------
# Monte Carlo


def euclid_params(mass=1.0, tau=1.0):
    return KernelParams(mass, tau, 2, "euclidean")


def test_mc_massless_estimator_is_exact():
    params = KernelParams(1e-300, 1.0, 2, "euclidean")  # bound m^2 tau == 0
    x0 = FourVector((0.0, 0.0))
    x = FourVector((0.4, 0.2))
    res = kernel_mc(x, x0, params, n_segments=8, samples=2000, seed=1)
    expected = kernel_closed(x - x0, KernelParams(1e-300, 1.0, 2, "euclidean"))
    assert res.stderr == 0.0
    assert res.estimate == pytest.approx(expected, rel=1e-14)


def test_mc_matches_closed_kernel():
    params = euclid_params()
    x0 = FourVector((0.0, 0.0))
    x = FourVector((0.0, 0.0))
    res = kernel_mc(x, x0, params, n_segments=8, samples=20000, seed=7)
    oracle = kernel_closed(x - x0, params)
    assert res.stderr > 0
    assert abs(res.estimate - oracle) < 3 * res.stderr


def test_mc_stderr_scaling():
    params = euclid_params()
    x0 = FourVector((0.0, 0.0))
    x = FourVector((0.3, 0.1))
    r1 = kernel_mc(x, x0, params, n_segments=4, samples=20000, seed=21)
    r2 = kernel_mc(x, x0, params, n_segments=4, samples=80000, seed=22)
    ratio = r1.stderr / r2.stderr
    assert abs(ratio - 2.0) < 0.4  # 20% of the factor 2


def test_mc_determinism():
    params = euclid_params()
    x0 = FourVector((0.0, 0.0))
    x = FourVector((0.3, 0.1))
    a = kernel_mc(x, x0, params, n_segments=4, samples=5000, seed=5)
    b = kernel_mc(x, x0, params, n_segments=4, samples=5000, seed=5)
    assert a.estimate == b.estimate and a.stderr == b.stderr


def test_mc_position_dependent_mass_hook():
    # constant function through the thinning path equals the plain estimator
    params = euclid_params()
    x0 = FourVector((0.0, 0.0))
    x = FourVector((0.0, 0.5))
    res = kernel_mc(x, x0, params, n_segments=6, samples=20000, seed=3,
                    mass_sq_fn=lambda q: np.ones(q.shape[:-1]), mass_sq_bound=1.0)
    oracle = kernel_closed(x - x0, params)
    assert abs(res.estimate - oracle) < 3 * res.stderr


def test_mc_chunk_without_marks_keeps_every_path():
    # a bound this small draws no Poisson mark, so every path survives and
    # the estimate is the massless bridge norm (4 pi tau)^(-D/2) exp(-dx^2/4 tau)
    x0, x = FourVector((0.1, -0.2)), FourVector((0.4, 0.3))
    res = kernel_mc(x, x0, euclid_params(), 8, 5000, seed=1,
                    mass_sq_fn=lambda q: np.zeros(q.shape[:-1]), mass_sq_bound=1e-300)
    dx = (x - x0).as_array()
    assert res.marks == 0 and res.acceptance == 0.0 and res.stderr == 0.0
    assert res.estimate == pytest.approx(np.exp(-dx @ dx / 4) / (4 * np.pi), rel=1e-14)


def test_mc_guards():
    params = KernelParams(1.0, 1.0, 2, "minkowski")
    origin = FourVector((0.0, 0.0))
    with pytest.raises(UnsupportedSpecError):
        kernel_mc(origin, origin, params, 4, 5000, seed=0)
    with pytest.raises(ContractViolation):
        kernel_mc(origin, origin, euclid_params(), 4, 10, seed=0)
    with pytest.raises(ContractViolation):  # one m^2 per position row
        kernel_mc(origin, origin, euclid_params(), 4, 5000, seed=0,
                  mass_sq_fn=lambda q: np.ones(q.shape), mass_sq_bound=1.0)
    with pytest.raises(ContractViolation):  # a bound means nothing without m^2(q)
        kernel_mc(origin, origin, euclid_params(), 4, 5000, seed=0, mass_sq_bound=2.0)


def _levy_case(start, level, seed, n_segments=8, samples=400_000, tau=1.0):
    """m^2(q) = m0^2 + c 1[q_1 > level] on a D=4 bridge whose ends both sit
    at q_1 = level.  The bridge spends a Uniform(0, tau) time above that
    level (Levy), so the kernel is K_0 e^(-m0^2 tau) (1 - e^(-c tau))/(c tau)."""
    m0_sq, c = 0.25, 2.0
    params = KernelParams(np.sqrt(m0_sq), tau, 4, "euclidean")
    x0 = FourVector(start)
    x = FourVector(x0.as_array() + (0.3, 0.0, 0.2, -0.1))
    dx = (x - x0).as_array()
    massless = (4 * np.pi * tau) ** -2 * np.exp(-dx @ dx / (4 * tau))
    oracle = massless * np.exp(-m0_sq * tau) * (1 - np.exp(-c * tau)) / (c * tau)
    res = kernel_mc(x, x0, params, n_segments, samples, seed=seed,
                    mass_sq_fn=lambda q: m0_sq + c * (q[..., 1] > level),
                    mass_sq_bound=m0_sq + c)
    return res, oracle


@pytest.mark.parametrize("start, level, tau", [
    pytest.param((0.0, 0.0, 0.0, 0.0), 0.0, 1.0, id="start0-0.0"),
    pytest.param((0.4, -0.7, 1.1, 0.2), -0.7, 1.0, id="start1--0.7"),
    pytest.param((0.0, 0.0, 0.0, 0.0), 0.0, 2.5, id="start0-0.0-tau2.5"),
    pytest.param((0.4, -0.7, 1.1, 0.2), -0.7, 2.5, id="start1--0.7-tau2.5")])
def test_mc_thinned_matches_levy_closed_form(start, level, tau):
    # the bridge is sampled exactly at the marks, so no grid bias is left;
    # the second case checks that mass_sq_fn sees absolute positions;
    # tau = 2.5 puts about 5.6 marks on a path and checks that the mark
    # times scale with tau
    res, oracle = _levy_case(start, level, seed=17, tau=tau)
    assert abs(res.estimate.real - oracle) < 5 * res.stderr
    assert res.estimate.imag == 0.0


def test_mc_thinned_estimate_does_not_depend_on_n_segments():
    coarse, _ = _levy_case((0.0,) * 4, 0.0, seed=9, n_segments=2, samples=20_000)
    fine, _ = _levy_case((0.0,) * 4, 0.0, seed=9, n_segments=128, samples=20_000)
    assert coarse == fine


def test_mc_constant_mass_draws_no_marks(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the constant-mass route sampled marks")

    monkeypatch.setattr(kernel, "_thin_marks", refuse)
    x0 = FourVector((0.0, 0.0))
    res = kernel_mc(FourVector((0.3, 0.1)), x0, euclid_params(), 8, 20000, seed=2)
    assert res.stderr > 0


@pytest.mark.parametrize("value", [1.5, -0.1, np.nan, np.inf])
def test_mc_rejects_mass_sq_outside_the_bound(value):
    origin = FourVector((0.0, 0.0))
    with pytest.raises(ContractViolation):
        kernel_mc(origin, origin, euclid_params(), 8, 5000, seed=0,
                  mass_sq_fn=lambda q: np.full(q.shape[:-1], value), mass_sq_bound=1.0)


def test_mc_reports_marks_and_acceptance():
    x0 = FourVector((0.0, 0.0))
    x = FourVector((0.3, 0.1))
    samples = 40000
    const = kernel_mc(x, x0, euclid_params(), 8, samples, seed=4)
    # marks ~ Poisson(samples m^2 tau); each one kills its path
    assert abs(const.marks - samples) < 5 * np.sqrt(samples)
    assert const.acceptance == 1.0
    thinned = kernel_mc(x, x0, euclid_params(), 8, samples, seed=4,
                        mass_sq_fn=lambda q: np.ones(q.shape[:-1]), mass_sq_bound=4.0)
    assert abs(thinned.marks - 4 * samples) < 5 * np.sqrt(4 * samples)
    # each mark accepted with probability 1/4
    assert abs(thinned.acceptance - 0.25) < 5 * np.sqrt(0.25 * 0.75 / thinned.marks)
    massless = kernel_mc(x, x0, KernelParams(1e-300, 1.0, 2, "euclidean"), 8, 2000, seed=1)
    assert (massless.marks, massless.acceptance) == (0, 0.0)


def test_mc_reports_effective_sample_size():
    x0 = FourVector((0.0, 0.0))
    x = FourVector((0.3, 0.1))
    samples = 40000
    norm = kernel_closed(x - x0, KernelParams(1e-300, 1.0, 2, "euclidean")).real
    # constant mass: the weights are 0 or 1, so the ESS counts the survivors
    const = kernel_mc(x, x0, euclid_params(), 8, samples, seed=4)
    assert const.ess == round(const.estimate.real / norm * samples)
    massless = kernel_mc(x, x0, KernelParams(1e-300, 1.0, 2, "euclidean"), 8, 2000, seed=1)
    assert massless.ess == 2000
    # w = (3/4)^k with k ~ Poisson(4): ESS/n -> E[w]^2/E[w^2] = e^-2/e^-1.75;
    # over seeds its relative spread at this size is about 1e-3
    thinned = kernel_mc(x, x0, euclid_params(), 8, samples, seed=4,
                        mass_sq_fn=lambda q: np.ones(q.shape[:-1]), mass_sq_bound=4.0)
    assert thinned.ess / samples == pytest.approx(np.exp(-0.25), rel=0.01)


def test_mc_poisson_weight_spread():
    # m^2 = 1 under bound 2 in D=4: w = 2^-k, k ~ Poisson(2), so the spread
    # of w is sqrt(e^-1.5 - e^-2), against sqrt(e^-1 (1 - e^-1)) for the
    # survival indicator of thinning
    params = KernelParams(1.0, 1.0, 4, "euclidean")
    x0, x = FourVector((0.0,) * 4), FourVector((0.3, 0.0, 0.2, -0.1))
    samples = 200_000
    res = kernel_mc(x, x0, params, 8, samples, seed=7,
                    mass_sq_fn=lambda q: np.ones(q.shape[:-1]), mass_sq_bound=2.0)
    norm = kernel_closed(x - x0, KernelParams(1e-300, 1.0, 4, "euclidean")).real
    spread = res.stderr * np.sqrt(samples) / norm
    assert spread == pytest.approx(np.sqrt(np.exp(-1.5) - np.exp(-2.0)), rel=0.05)
    assert spread < np.sqrt(np.exp(-1.0) * (1.0 - np.exp(-1.0)))


def test_mc_marks_see_the_bridge_marginal():
    # given its count, a path's marks sit at uniform times U tau, where the
    # bridge is start + U dx + y with Var y = 2 tau U (1 - U): per axis the
    # positions have mean start + dx/2 and variance dx^2/12 + tau/3.  The
    # Levy case sees only the sign of y, so this pins its scale.  Marks of
    # one path are correlated; the bounds allow for full correlation, which
    # at most multiplies the variance of a mean by 1 + 1/(bound tau), and
    # take the fourth moment of each axis as Gaussian.
    tau, bound, samples = 2.5, 2.0, 40000
    x0 = FourVector((0.4, -0.7, 1.1, 0.2))
    x = FourVector(x0.as_array() + (0.6, 0.0, -0.8, 0.3))
    seen = []

    def mass_sq(q):
        seen.append(np.array(q))
        return np.zeros(q.shape[:-1])

    kernel_mc(x, x0, KernelParams(1.0, tau, 4, "euclidean"), 8, samples, seed=17,
              mass_sq_fn=mass_sq, mass_sq_bound=bound)
    q = np.concatenate(seen)
    dx = (x - x0).as_array()
    var = dx ** 2 / 12 + tau / 3
    inflation = 1 + 1 / (bound * tau)
    assert np.all(np.abs(q.mean(axis=0) - (x0.as_array() + dx / 2))
                  < 5 * np.sqrt(var * inflation / samples))
    assert np.all(np.abs(q.var(axis=0) / var - 1) < 5 * np.sqrt(2 * inflation / samples))


@pytest.mark.parametrize("bound, marked_chunks", [(2.0, 4), (1e-4, 3)])
def test_mc_calls_mass_sq_fn_once_per_chunk_with_marks(bound, marked_chunks):
    # four chunks; at the small bound one of them draws no mark
    rows = []

    def mass_sq(q):
        rows.append(q.shape)
        return np.zeros(q.shape[:-1])

    x0, x = FourVector((0.0,) * 4), FourVector((0.3, 0.0, 0.2, -0.1))
    res = kernel_mc(x, x0, KernelParams(1.0, 1.0, 4, "euclidean"), 8,
                    3 * kernel.MC_CHUNK_SIZE + 100, seed=3,
                    mass_sq_fn=mass_sq, mass_sq_bound=bound)
    assert len(rows) == marked_chunks
    assert all(n > 0 and d == 4 for n, d in rows)
    assert sum(n for n, _ in rows) == res.marks


# ---------------------------------------------------------------------------
# propagators


def euler_accelerated_sum(terms):
    """Sum an alternating decaying series by repeated partial-sum averaging."""
    s = np.cumsum(terms)
    for _ in range(min(40, len(s) - 1)):
        s = 0.5 * (s[:-1] + s[1:])
    return s[-1]


def radial_momentum_propagator_2d(r, mass):
    """Oracle: (2 pi)^-2 Int d^2 p exp(i p.x) / (p^2 + m^2), radial form.

    The Bessel tail is summed panel by panel between consecutive zeros of J0
    with series acceleration.
    """
    f = lambda p: p * special.j0(p * r) / (p * p + mass * mass)
    zeros = special.jn_zeros(0, 120) / r
    head, _ = integrate.quad(f, 0.0, zeros[0], limit=200)
    panels = [integrate.quad(f, zeros[k], zeros[k + 1], limit=200)[0]
              for k in range(len(zeros) - 1)]
    return (head + euler_accelerated_sum(np.array(panels))) / (2 * np.pi)


def test_euclidean_propagator_against_momentum_route():
    value = propagator_position(FourVector((0.6, 0.8)), 1.0, 1e-10,
                                WeightFunction.uniform(), 2, "euclidean")
    oracle = radial_momentum_propagator_2d(1.0, 1.0)
    assert abs(value.real - oracle) / abs(oracle) < 1e-6
    # independent closed form of the same quantity
    assert value.real == pytest.approx(special.k0(1.0) / (2 * np.pi), rel=1e-6)


def test_proper_time_vs_momentum_route_many_separations():
    for r in np.linspace(0.4, 2.2, 10):
        value = propagator_position(FourVector((0.0, r)), 1.0, 1e-10,
                                    WeightFunction.uniform(), 2, "euclidean")
        oracle = radial_momentum_propagator_2d(r, 1.0)
        assert abs(value.real - oracle) / abs(oracle) < 1e-6


def test_wide_gaussian_weight_recovers_uniform():
    wide = WeightFunction.gaussian(1e3, 1e-6)
    uni = WeightFunction.uniform()
    dx = FourVector((0.3, 0.9))
    a = propagator_position(dx, 1.0, 1e-9, wide, 2, "euclidean")
    b = propagator_position(dx, 1.0, 1e-9, uni, 2, "euclidean")
    assert abs(a - b) / abs(b) < 1e-2


def test_uniform_weight_requires_epsilon():
    with pytest.raises(DomainError):
        propagator_position(FourVector((0.0, 1.0)), 1.0, 0.0,
                            WeightFunction.uniform(), 2, "euclidean")


@pytest.mark.parametrize("damping", [np.nan, -5.0, 1e-2])
def test_euclidean_propagator_takes_no_damping(damping):
    # each returned the undamped value 0.14712586466768998
    with pytest.raises(DomainError, match="takes no damping"):
        propagator_position(FourVector((0.3, 0.4)), 1.0, 1e-10, WeightFunction.uniform(), 2,
                            "euclidean", damping=damping)


def test_momentum_propagator_values():
    assert propagator_momentum(FourVector((0.0, 0.0)), 1.0, 1e-9) == pytest.approx(-1j)
    # on the pole the magnitude is 1/epsilon
    p = FourVector((np.sqrt(2.0), 1.0))  # p.p = -2 + 1 = -1 = -m^2
    value = propagator_momentum(p, 1.0, 1e-3)
    assert abs(value) == pytest.approx(1e3, rel=1e-9)


def test_momentum_propagator_against_t_integral():
    # dense trapezoid of Int_0^inf dT exp(-iT(p.p + m^2) - eps T)
    rng = np.random.default_rng(12)
    for _ in range(5):
        p = FourVector(tuple(rng.normal(size=2)))
        eps = 1e-2
        w = minkowski_dot(p, p) + 1.0
        t = np.arange(0.0, 30.0 / eps, 1e-3)
        oracle = integrate.simpson(np.exp(-1j * t * w - eps * t), x=t)
        assert abs(propagator_momentum(p, 1.0, eps) - oracle) < 1e-8


def onshell_radial_oracle_d1(dt, r, mass, sign, damping):
    f = lambda p: (np.exp(1j * (-sign * np.sqrt(p * p + mass ** 2) * dt + p * r)
                          - damping * p * p) / (2 * np.sqrt(p * p + mass ** 2)))
    v, _ = integrate.quad(f, -np.inf, np.inf, complex_func=True, limit=400)
    return v / (2 * np.pi)


def test_onshell_part_point_value_and_conjugation():
    value = propagator_onshell_part(FourVector((0.0, 0.0)), 1.0, +1, 1e-2, 2)
    oracle = onshell_radial_oracle_d1(0.0, 0.0, 1.0, +1, 1e-2)
    assert value == pytest.approx(oracle, rel=1e-10)
    assert value.real > 0 and abs(value.imag) < 1e-12

    # Eq.-level symmetries: conj(D-(dx)) = D+(dx) and D-(-dt, dx_vec) = D+(dx)
    dxp = FourVector((0.7, 0.4))
    plus = propagator_onshell_part(dxp, 1.0, +1, 1e-2, 2)
    minus_same = propagator_onshell_part(dxp, 1.0, -1, 1e-2, 2)
    minus_flip = propagator_onshell_part(FourVector((-0.7, 0.4)), 1.0, -1, 1e-2, 2)
    assert plus == pytest.approx(np.conj(minus_same), rel=1e-10)
    assert plus == pytest.approx(minus_flip, rel=1e-10)


def test_onshell_part_d2_meets_1e_12():
    # a separation where scipy's default tolerances missed 1e-10 (1.8e-10);
    # the trapezoid rule on a dense grid is spectrally accurate here
    dt, r, damping = 0.3351171483121282, 0.39497754615517366, 1e-2
    p = np.linspace(-np.sqrt(40.0 / damping), np.sqrt(40.0 / damping), 400001)
    e = np.sqrt(p * p + 1.0)
    oracle = np.trapezoid(np.exp(1j * (e * dt + p * r) - damping * p * p) / (2 * e), p) / (2 * np.pi)
    value = propagator_onshell_part(FourVector((dt, r)), 1.0, -1, damping, 2)
    assert abs(value - oracle) < 1e-12 * abs(oracle)


def schroedinger_gap_slope(dimension, rest_phase=True, normalisation=True):
    """Log-log slope in m of the relative gap between 2m e^{imt} times the
    positive-frequency part and the damped Schroedinger kernel
    (4 pi a)^(-d/2) exp(-r^2/4a), a = eta + it/2m, at t = 1, r = 0.3."""
    t, r, eta, masses = 1.0, 0.3, 1e-2, np.array([160.0, 320.0, 640.0, 1280.0])
    dx = FourVector((t, r) + (0.0,) * (dimension - 2))
    gaps = []
    for m in masses:
        value = propagator_onshell_part(dx, m, +1, eta, dimension)
        value *= (np.exp(1j * m * t) if rest_phase else 1) * (2 * m if normalisation else 1)
        a = eta + 1j * t / (2 * m)
        oracle = (4 * np.pi * a) ** (-(dimension - 1) / 2) * np.exp(-r * r / (4 * a))
        gaps.append(abs(value - oracle) / abs(oracle))
    return np.polyfit(np.log(masses), np.log(gaps), 1)[0]


@pytest.mark.parametrize("dimension", [2, 4])
def test_onshell_part_tends_to_the_schroedinger_kernel_as_m_to_the_minus_2(dimension):
    # the non-relativistic reduction in position space
    assert -2.3 <= schroedinger_gap_slope(dimension) <= -1.7


@pytest.mark.parametrize("dropped", ["rest_phase", "normalisation"])
@pytest.mark.parametrize("dimension", [2, 4])
def test_the_reduction_needs_the_rest_phase_and_the_2m_normalisation(dimension, dropped):
    assert not -2.3 <= schroedinger_gap_slope(dimension, **{dropped: False}) <= -1.7


def invariant_gap_slope(dt, r, dimension, interval=True):
    """Log-log slope in damping, and the gap at the last damping, of the
    positive-frequency part against its Lorentz-invariant closed form:
    K_0(m s) / 2 pi in D=2 and m K_1(m s) / (4 pi^2 s) in D=4, with
    s = sqrt(r^2 - (t - i0)^2) on the principal branch and m = 1.  The
    Gaussian damping of the spatial momenta is frame-dependent, so the gap
    is linear in it."""
    dampings = np.array([3e-3, 1e-3, 3e-4, 1e-4])
    # the signed zero puts r^2 - t^2 < 0 on the side of the cut that -(t - i0)^2 picks
    s = np.sqrt(complex(r * r - (dt * dt if interval else 0.0), np.copysign(0.0, dt)))
    oracle = special.kv(0, s) / (2 * np.pi) if dimension == 2 else special.kv(1, s) / (
        4 * np.pi ** 2 * s)
    dx = FourVector((dt, r) + (0.0,) * (dimension - 2))
    gaps = [abs(propagator_onshell_part(dx, 1.0, +1, damping, dimension) - oracle) / abs(oracle)
            for damping in dampings]
    return np.polyfit(np.log(dampings), np.log(gaps), 1)[0], gaps[-1]


_SEPARATIONS = pytest.mark.parametrize("dt, r", [(1.2, 0.4), (0.3, 0.9), (-0.8, 0.5), (0.5, 1.5)],
                                       ids=["timelike", "spacelike", "past", "far"])


@_SEPARATIONS
@pytest.mark.parametrize("dimension", [2, 4])
def test_onshell_part_tends_to_its_lorentz_invariant_closed_form(dimension, dt, r):
    slope, gap = invariant_gap_slope(dt, r, dimension)
    assert 0.9 <= slope <= 1.1
    assert gap < 3e-3


@_SEPARATIONS
@pytest.mark.parametrize("dimension", [2, 4])
def test_the_closed_form_needs_the_time_in_the_interval(dimension, dt, r):
    slope, gap = invariant_gap_slope(dt, r, dimension, interval=False)
    assert not 0.9 <= slope <= 1.1
    assert gap > 1e-2


def d4_from_d2_recursion(f2, r):
    """f_4(r) = -(1/2 pi r) d f_2/dr for a function of |dx_vec| whose D=2 and
    D=4 forms share one radial momentum profile; the derivative is the
    Richardson extrapolation of central differences at h = 1e-3 and 5e-4."""
    def central(h):
        return (f2(r + h) - f2(r - h)) / (2 * h)
    return -(4 * central(5e-4) - central(1e-3)) / 3 / (2 * np.pi * r)


@pytest.mark.parametrize("mass", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("dt, r, sign", [(0.4, 0.7, +1), (1.3, 0.25, -1), (-0.6, 1.5, +1),
                                         (0.0, 0.9, -1), (2.0, 0.5, +1)])
def test_onshell_part_d4_follows_the_dimensional_recursion(mass, dt, r, sign):
    damping = 0.05
    value = propagator_onshell_part(FourVector((dt, r, 0.0, 0.0)), mass, sign, damping, 4)
    oracle = d4_from_d2_recursion(
        lambda rr: propagator_onshell_part(FourVector((dt, rr)), mass, sign, damping, 2), r)
    assert abs(value - oracle) < 1e-8 * abs(oracle)


@pytest.mark.parametrize("mass_squared", [-0.5, 0.3, 1.0, 2.5])
@pytest.mark.parametrize("dt, r", [(0.4, 0.7), (1.3, 0.25), (-0.6, 1.5)])
def test_fixed_mass_propagator_d4_follows_the_dimensional_recursion(mass_squared, dt, r):
    # the closed-form Feynman propagator at M^2 = m'^2 - i epsilon, epsilon = 0.05
    msq = mass_squared - 0.05j
    value = kernel._minkowski_mass_propagator_batch(FourVector((dt, 0.0, r, 0.0)), msq)
    oracle = d4_from_d2_recursion(
        lambda rr: kernel._minkowski_mass_propagator_batch(FourVector((dt, rr)), msq), r)
    assert abs(value - oracle) < 1e-8 * abs(oracle)


def feynman_gap_slope(dt, r, dimension, interval=True):
    """Log-log slope in epsilon = damping, and the gap at the last epsilon, of
    the minkowski proper-time propagator (m = 1, uniform weight) against the
    closed-form Feynman propagator at M^2 = m^2 - i epsilon.  exp(-epsilon T)
    is exactly that complex mass, so the gap is the frame-dependent damping's,
    linear in it.  interval=False puts the euclidean distance |dx| in place of
    s = sqrt(dx.dx)."""
    epsilons = np.array([1e-2, 1e-3, 1e-4])
    dx = FourVector((dt, r) + (0.0,) * (dimension - 2))
    gaps = []
    for eps in epsilons:
        value = propagator_position(dx, 1.0, eps, WeightFunction.uniform(), dimension,
                                    "minkowski", damping=eps)
        if interval:
            oracle = kernel._minkowski_mass_propagator_batch(dx, 1.0 - 1j * eps)
        else:
            oracle = kernel._bessel_propagator(1.0 - 1j * eps, np.hypot(dt, r), dimension)
        gaps.append(abs(value - oracle) / abs(oracle))
    return np.polyfit(np.log(epsilons), np.log(gaps), 1)[0], gaps[-1]


# the slopes read 1.02-1.07.  (0.3, 0.9) is left out: in D=4 its gap at
# epsilon = 1e-2 (0.19) is not yet linear and the three-point fit reads 1.10,
# though its 1e-3 -> 1e-4 step alone reads 1.01
_FEYNMAN_SEPARATIONS = pytest.mark.parametrize(
    "dt, r", [(1.2, 0.4), (0.5, 1.5), (-0.8, 0.5)], ids=["timelike", "spacelike", "past"])


@_FEYNMAN_SEPARATIONS
@pytest.mark.parametrize("dimension", [2, 4])
def test_minkowski_propagator_tends_to_the_feynman_closed_form(dimension, dt, r):
    slope, gap = feynman_gap_slope(dt, r, dimension)
    assert 0.9 <= slope <= 1.1
    assert gap < 1e-2


@_FEYNMAN_SEPARATIONS
@pytest.mark.parametrize("dimension", [2, 4])
def test_the_feynman_closed_form_needs_the_signed_interval(dimension, dt, r):
    slope, gap = feynman_gap_slope(dt, r, dimension, interval=False)
    assert not 0.9 <= slope <= 1.1
    assert gap > 0.1


def test_propagator_decomposition_timelike():
    # theta(dt) D+ + theta(-dt) D- matches the proper-time route, D = 2
    eps = damping = 1e-2
    for dt in (0.8, 1.4, -1.1):
        dx = FourVector((dt, 0.3))
        lhs = propagator_position(dx, 1.0, eps, WeightFunction.uniform(), 2,
                                  "minkowski", damping=damping)
        part = propagator_onshell_part(dx, 1.0, +1 if dt > 0 else -1, damping, 2)
        assert abs(lhs - part) / abs(part) < 5e-2


def test_decomposition_error_decreases_with_damping():
    dx = FourVector((1.2, 0.3))
    errs = []
    for eps in (1e-2, 3e-3, 1e-3):
        lhs = propagator_position(dx, 1.0, eps, WeightFunction.uniform(), 2,
                                  "minkowski", damping=eps)
        rhs = propagator_onshell_part(dx, 1.0, +1, eps, 2)
        errs.append(abs(lhs - rhs) / abs(rhs))
    assert errs[0] > errs[1] > errs[2]


# Reference values of the minkowski proper-time integral with epsilon =
# damping, made with 20-point Gauss-Legendre panels from the threshold delta
# out to T = 45/epsilon under the uniform weight, or delta + 9 dlam under a
# gaussian one.  At D=2, dx=(1.2, 0.3) the panels are 1e-3 wide on [0, 1]
# (where the kernel's phase dx^2/4T turns fastest) and 0.05 beyond; in the
# last three cases 5e-4 on [delta, delta + 1] and 0.025 beyond.  Halving
# both widths moved each value by at most 3e-14.  m = 0.05 has
# 0 < m^2 < epsilon, so its tail stays on the real axis; the last three
# cases are ones that QUADPACK's Fourier-weighted tail (QAWF) missed by
# 1.3e-7 to 3.7e-5.
_UNIFORM, _GAUSSIAN = WeightFunction.uniform(), WeightFunction.gaussian(30.0, 25.0)
MINKOWSKI_REFERENCES = [
    pytest.param(dx, mass, eps, weight, reference, id=name)
    for name, dx, mass, eps, weight, reference in [
        ("m1-eps0.01", (1.2, 0.3), 1.0, 1e-2, _UNIFORM,
         -0.046303044658270155 - 0.1719791784317462j),
        ("m1-eps0.001", (1.2, 0.3), 1.0, 1e-3, _UNIFORM,
         -0.050520051647205105 - 0.1724311425193733j),
        ("m2.5-eps0.001", (1.2, 0.3), 2.5, 1e-3, _UNIFORM,
         -0.1012449339462388 + 0.05564841610163211j),
        ("m0-eps0.01", (1.2, 0.3), 0.0, 1e-2, _UNIFORM,
         0.36433008942534084 - 0.12325234759227403j),
        ("m0-eps0.001", (1.2, 0.3), 0.0, 1e-3, _UNIFORM,
         0.5445822662826472 - 0.12476268046580227j),
        ("m0.05-eps0.01", (1.2, 0.3), 0.05, 1e-2, _UNIFORM,
         0.36154903693666096 - 0.14263421870771473j),
        ("D2-gaussian-m1-eps0.01", (-1.0, 0.2), 1.0, 1e-2, _GAUSSIAN,
         0.0003480305638863169 - 0.0017113571812864131j),
        ("D4-m3-eps0.001", (0.3, 1.4, 0.0, 0.0), 3.0, 1e-3, _UNIFORM,
         0.0006278336778039579 + 1.2736935817432892e-07j),
        ("D4-gaussian-m1-eps0.01", (-0.5, 1.2, 0.4, 0.6), 1.0, 1e-2, _GAUSSIAN,
         -5.328398266029302e-06 - 1.4555248064194243e-06j),
    ]]


@pytest.mark.parametrize("dx, mass, eps, weight, reference", MINKOWSKI_REFERENCES)
def test_minkowski_propagator_matches_reference_values(dx, mass, eps, weight, reference):
    value = propagator_position(FourVector(dx), mass, eps, weight, len(dx), "minkowski",
                                damping=eps)
    assert abs(value - reference) < 1e-8 * abs(reference)


def test_minkowski_propagator_gaussian_weight_small_mass():
    # epsilon = 0 under a gaussian weight with dlam = 10: the tail decays over
    # about dlam, far shorter than the first cycle pi/m^2 at m^2 = 1e-6, so
    # it stays on the real axis.
    # Reference made as above, out to T = 120 (where the weight is e^-72).
    value = propagator_position(FourVector((1.2, 0.3)), 1e-3, 0.0,
                                WeightFunction.gaussian(10.0, 0.0), 2, "minkowski",
                                damping=1e-2)
    reference = 0.2313376785414744 - 0.12167179204317165j
    assert abs(value - reference) < 1e-8 * abs(reference)


# ---------------------------------------------------------------------------
# mass superposition


def test_mass_superposition_reconstructs_kernel():
    # euclidean-continued check at W*T = 40
    t, m = 1.0, 1.0
    dx = FourVector((0.9, 1.2))
    w = 40.0
    grid = np.linspace(m * m - w, m * m + w, 641)
    res = kernel_mass_superposition(dx, t, m, 1e-3, grid, 2, mode="euclidean")
    assert res.adequate_window
    target = kernel_closed(dx, KernelParams(m, t, 2, "euclidean"))
    assert abs(res.value - target) / abs(target) < 1e-2


@pytest.mark.parametrize("dimension", [2, 4])
def test_minkowski_superposition_is_unsupported(dimension):
    # the real-axis reconstruction missed kernel_closed * exp(-epsilon T) by
    # 0.21-0.34 in D=2 and 9.1-22.2 in D=4, growing with the window
    grid = np.linspace(-9.0, 11.0, 41)
    dx = FourVector((0.3, 0.4) + (0.0,) * (dimension - 2))
    with pytest.raises(UnsupportedSpecError, match="minkowski mass superposition"):
        kernel_mass_superposition(dx, 1.0, 1.0, 1e-3, grid, dimension, mode="minkowski")


@pytest.mark.parametrize("dx", [(0.5, 0.5), (-0.5, 0.5), (0.0, 0.0), (2.0, 0.0, 0.0, 2.0)])
def test_minkowski_superposition_rejects_a_lightlike_dx(dx):
    # the closed form is singular at s = 0, where kv once returned NaN with a
    # RuntimeWarning
    with pytest.raises(DomainError, match="off the light cone"):
        kernel._minkowski_mass_propagator_batch(FourVector(dx), 1.0 - 1e-3j)


@pytest.mark.parametrize("epsilon", [0.0, -5.0])
def test_euclidean_superposition_needs_a_positive_epsilon(epsilon):
    # the euclidean contour does not use epsilon, and once returned the
    # epsilon = 1e-3 value for any epsilon
    grid = np.linspace(-39.0, 41.0, 641)
    with pytest.raises(DomainError, match="epsilon must be positive"):
        kernel_mass_superposition(FourVector((0.9, 1.2)), 1.0, 1.0, epsilon, grid, 2)


def test_mass_superposition_window_flag_and_zero_window():
    dx = FourVector((0.3, 0.4))
    grid = np.linspace(0.0, 2.0, 11)  # W*T = 1 < 4 pi
    res = kernel_mass_superposition(dx, 1.0, 1.0, 1e-3, grid, 2)
    assert not res.adequate_window
    empty = kernel_mass_superposition(dx, 1.0, 1.0, 1e-3, np.array([1.0]), 2)
    assert empty.value == 0j


def test_mass_superposition_t_integral_recovers_propagator():
    # integrate the euclidean reconstruction over T (analytically per grid
    # node) and compare with the proper-time propagator route
    m, eps = 1.0, 0.05
    dx = FourVector((0.9, 1.2))
    u = np.linspace(-30.0, 30.0, 4001)
    values = euclidean_mass_propagator_batch(dx, m * m + 1j * u)
    # Int_0^inf dT e^(-eps T) e^(i T u) = 1 / (eps - i u)
    lhs = np.trapezoid(values / (eps - 1j * u), u) / (2 * np.pi)
    rhs = propagator_position(dx, m, eps, WeightFunction.uniform(), 2, "euclidean")
    assert abs(lhs - rhs) / abs(rhs) < 2e-2


@pytest.mark.parametrize("dimension", [2, 3, 4])
def test_euclidean_mass_propagator_batch_matches_proper_time_quadrature(dimension):
    dx = FourVector((0.9, 1.2, 0.3, -0.2)[:dimension])
    rsq = float(dx.as_array() @ dx.as_array())
    u = np.array([-40.0, 0.0, 40.0])
    values = euclidean_mass_propagator_batch(dx, 1.0 + 1j * u)

    def g(t):  # the integrand at m'^2 = 1, without exp(-i u T)
        return (4 * np.pi * t) ** (-dimension / 2) * np.exp(-rsq / (4 * t) - t) if t > 0 else 0.0
    for value, freq in zip(values, u):
        if freq:
            cos = integrate.quad(g, 0.0, np.inf, weight="cos", wvar=freq)[0]
            sin = integrate.quad(g, 0.0, np.inf, weight="sin", wvar=freq)[0]
        else:
            cos, sin = integrate.quad(g, 0.0, np.inf, epsabs=0.0, epsrel=1e-13)[0], 0.0
        reference = cos - 1j * sin
        assert abs(value - reference) < 1e-10 * abs(reference)


def test_euclidean_mass_propagator_batch_domain():
    dx = FourVector((0.9, 1.2))
    with pytest.raises(DomainError):
        euclidean_mass_propagator_batch(dx, np.array([1.0 + 2j, 0.0 + 1j]))
    with pytest.raises(DomainError):
        euclidean_mass_propagator_batch(dx, -1.0)
    with pytest.raises(DomainError):
        euclidean_mass_propagator_batch(FourVector((0.0, 0.0)), 1.0)


# ---------------------------------------------------------------------------
# lattice kernel identities


def test_lattice_composition_and_conjugation():
    spec = LatticeSpec((64, 64), (16.0, 16.0))
    k1 = lattice_momentum_phase(spec, 0.37, 1.0)
    k2 = lattice_momentum_phase(spec, 0.21, 1.0)
    k12 = lattice_momentum_phase(spec, 0.58, 1.0)
    assert np.max(np.abs(k1 * k2 - k12)) < 1e-12
    back = lattice_momentum_phase(spec, -0.37, 1.0)
    assert np.max(np.abs(np.conj(k1) - back)) < 1e-12


@pytest.mark.parametrize("shape, extents", [((8, 4, 16), (5.0, 3.0, 7.5)),
                                            ((4, 8, 2, 16), (3.0, 5.0, 2.0, 9.0)),
                                            ((16,), (4.0,))])
def test_separable_phase_equals_the_full_exponential(shape, extents):
    spec = LatticeSpec(shape, extents)
    for dlam, mass in ((0.01, 1.0), (0.31, 0.5), (-0.2, 1.7)):
        expected = np.exp(-1j * dlam * (spec.p_squared("minkowski") + mass * mass))
        got = lattice_momentum_phase(spec, dlam, mass)
        assert got.shape == spec.shape
        assert np.max(np.abs(got - expected)) < 1e-14


def test_t_ordering_identity_euclidean():
    # Int dT1 dT2 K(a;T1) K(b;T2) = Int dT' Int_0^T' dT K(a;T'-T) K(b;T)
    a = np.array([0.9, 0.5])
    b = np.array([0.4, 1.1])
    m = 1.0

    def k(dx, t):
        from worldlineqm.kernel import _kernel_value
        return _kernel_value(dx, t, m * m, "euclidean").real

    la, _ = integrate.quad(lambda t: k(a, t), 0, np.inf)
    lb, _ = integrate.quad(lambda t: k(b, t), 0, np.inf)
    lhs = la * lb
    rhs, _ = integrate.dblquad(lambda t, tp: k(a, tp - t) * k(b, t),
                               1e-12, 60.0, 0.0, lambda tp: tp,
                               epsabs=1e-10, epsrel=1e-9)
    assert abs(lhs - rhs) / abs(lhs) < 1e-6


def test_gauge_fix_consistency():
    # Int_0^inf dT K_closed(dx;T) with uniform weight = propagator_position
    dx = FourVector((0.5, 1.0))
    eps = 1e-9

    def integrand(u):
        # substitution T = e^u, dT = e^u du
        t = np.exp(u)
        params = KernelParams(1.0, t, 2, "euclidean")
        return kernel_closed(dx, params).real * np.exp(-eps * t) * t

    oracle, _ = integrate.quad(integrand, -30.0, 8.0, limit=400)
    value = propagator_position(dx, 1.0, eps, WeightFunction.uniform(), 2, "euclidean")
    assert abs(value.real - oracle) / abs(oracle) < 1e-8


def test_lattice_propagator_matches_direct_sum():
    spec = LatticeSpec((8, 8), (6.0, 6.0))
    eps = 1e-2
    table = lattice_propagator(spec, 1.0, eps)
    # direct summation oracle at a couple of displacements
    p0, p1 = np.meshgrid(spec.momentum_axis(0), spec.momentum_axis(1), indexing="ij")
    psq = -p0 * p0 + p1 * p1
    vol = spec.extents[0] * spec.extents[1]
    for idx in ((0, 0), (2, 5), (7, 1)):
        u0 = spec.axis_coordinates(0)[idx[0]]
        u1 = spec.axis_coordinates(1)[idx[1]]
        phases = np.exp(1j * (-p0 * u0 + p1 * u1))
        oracle = np.sum(phases * (-1j) / (psq + 1.0 - 1j * eps)) / vol
        assert table[idx] == pytest.approx(oracle, rel=1e-12)

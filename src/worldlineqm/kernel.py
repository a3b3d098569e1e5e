"""Fixed-length transition kernels and proper-time propagators.

The free kernel of a mass-m scalar over intrinsic length T is

    K(dx; T) = (2 pi)^(-D) Int d^D p  exp(i p.dx) exp(-i T (p.p + m^2)),

a product of one Gaussian/Fresnel factor per axis.  Closed under the signed
metric it evaluates to

    K(dx; T) = (4 pi T)^(-D/2) exp(-i pi (D-2)/4) exp(i dx.dx / 4T - i T m^2)

in minkowski mode, and to the heat kernel
(4 pi tau)^(-D/2) exp(-|dx|^2/4tau - tau m^2) in euclidean mode.

Oscillatory minkowski integrals are always evaluated with explicit damping:
a convergence factor exp(-T epsilon) on proper-time integrals and a Gaussian
factor exp(-damping |p|_E^2) on momentum integrals.  Quoted tolerances of
the damped routes scale with the damping used.  The fixed-mass propagators
need no damping: both signatures use one Bessel closed form in the interval
dx.dx.  The mass superposition runs on the euclidean contour only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import mul

import numpy as np
from scipy import special

from . import quadrature
from .errors import (
    ContractViolation,
    DegeneratePathError,
    DomainError,
    UnsupportedSpecError,
)
from .geometry import FourVector, metric, minkowski_dot, onshell_energy, wick_factor
from .lattice import ComplexField, LatticeSpec, spatial_momentum_sum, spectral_transform


@dataclass(frozen=True)
class KernelParams:
    """Inputs of a kernel evaluation: mass, intrinsic length, dimension, mode."""

    mass: float
    total_length: float
    dimension: int
    mode: str = "minkowski"

    def __post_init__(self):
        if not self.mass > 0:
            raise ContractViolation("mass must be positive")
        if not self.total_length > 0:
            raise DomainError("intrinsic length T must be positive")
        metric(self.dimension, self.mode)  # checks the dimension and the mode


@dataclass(frozen=True)
class WeightFunction:
    """Weight over intrinsic path lengths, one family for every weight:

        f(T) = exp(-T^2 / 2 dlam^2) for T >= delta, and 0 below delta,

    with dlam the correlation_length and delta the threshold (units mass^-2).
    The defaults dlam = inf, delta = 0 give the uniform weight f = 1; a
    finite dlam with delta > 0 is the thresholded Gaussian whose threshold
    enforces the spectral cancellation conditions of the regulator module.
    """

    correlation_length: float = np.inf  # dlam
    threshold: float = 0.0              # delta

    def __post_init__(self):
        if not self.correlation_length > 0:
            raise ContractViolation("correlation_length must be positive")
        if not 0 <= self.threshold < np.inf:
            raise ContractViolation("threshold must be >= 0 and finite")

    def __call__(self, t):
        """f over the array t, real or complex, with the threshold test on Re t
        (a numpy scalar for 0-d t).  The exponent -(t/dlam)^2 / 2 is exactly 0
        at dlam = inf."""
        t = np.asarray(t)
        r = t / self.correlation_length
        return np.where(t.real >= self.threshold, np.exp(-0.5 * r * r), 0.0)[()]

    def transform(self, s):
        """T(s) = Int_delta^inf f(lam) exp(-s lam) dlam for complex s, in
        Faddeeva form; at dlam = inf it is exp(-delta s)/s, for Re s > 0 only.

        With a = 1/(2 dlam^2) and z = sqrt(a) delta + s/(2 sqrt(a)),
        T = sqrt(pi)/(2 sqrt(a)) w(i z) exp(-a delta^2 - delta s), where
        w(i z) = erfcx(z) on the real axis.  It stays finite where the plain
        erfc form underflows: at large real s (the regulated line factor
        T(k^2 + m_a^2)) and along s = -i omega (the spectral density
        F(omega) = T(-i omega) / 2 pi).
        """
        delta = self.threshold
        if self.correlation_length == np.inf:
            if not np.all(np.real(s) > 0):
                raise DomainError("the transform of the uniform weight needs Re s > 0")
            return np.exp(-delta * s) / s
        a = 1.0 / (2.0 * self.correlation_length ** 2)
        sqrt_a = np.sqrt(a)
        z = sqrt_a * delta + s / (2.0 * sqrt_a)
        return (np.sqrt(np.pi) / (2.0 * sqrt_a) * special.wofz(1j * z)
                * np.exp(-a * delta * delta - delta * s))

    @classmethod
    def uniform(cls) -> "WeightFunction":
        return cls()

    @classmethod
    def gaussian(cls, correlation_length: float, threshold: float) -> "WeightFunction":
        return cls(correlation_length, threshold)


# ---------------------------------------------------------------------------
# closed-form kernels


def _axis_widths(t, g, z, damping: float = 0.0):
    """Width a_mu = damping + z g_mu t of each axis factor (2pi)^-1 sqrt(pi/a) exp(-u^2/4a)."""
    return [damping + z * g_mu * t for g_mu in g]


def _kernel_value(dx, t, mass_squared, mode: str, damping: float = 0.0):
    """Kernel value from the per-axis Gaussian factors of the len(dx) axes:
    a complex at one length t, else an array over the lengths t."""
    z = wick_factor(mode)
    value = 1.0
    for mu, a in enumerate(_axis_widths(t, metric(len(dx), mode), z, damping)):
        value = value * np.sqrt(np.pi / a) / (2 * np.pi) * np.exp(-dx[mu] ** 2 / (4 * a))
    value = value * np.exp(-z * t * mass_squared)
    return complex(value) if np.ndim(t) == 0 else value


def kernel_closed(dx: FourVector, params: KernelParams) -> complex:
    """Closed-form kernel K(dx; T) for the given parameters."""
    dx.check_dimension(params.dimension, "dx")
    return _kernel_value(dx.as_array(), params.total_length, params.mass ** 2, params.mode)


def kernel_damped(dx: FourVector, total_length: float, mass_squared, damping: float,
                  mode: str = "minkowski") -> complex:
    """Kernel with the Gaussian momentum damping exp(-damping |p|_E^2) folded in.

    mass_squared may be negative or complex; the damping keeps every axis
    factor a convergent Gaussian.
    """
    if not damping >= 0:
        raise DomainError("damping must be >= 0")
    return _kernel_value(dx.as_array(), total_length, mass_squared, mode, damping)


# ---------------------------------------------------------------------------
# discretized collapse


def segment_norm(dlam: float, dimension: int, mode: str) -> complex:
    """Per-segment normalization: (4 pi dlam)^(-D/2) with the mode phase.

    It is the kernel at dx = 0 and m = 0 over one segment, so in minkowski
    mode the phase is exp(-i pi (D-2)/4) per segment (one exp(+i pi/4) time
    factor against D-1 exp(-i pi/4) space factors), which for D = 4 is the
    familiar -i (4 pi dlam)^-2.  With this choice the collapsed prefactor of
    the discretized kernel is exactly 1.
    """
    if not dlam > 0:
        raise DegeneratePathError("segment length must be positive")
    metric(dimension, mode)  # checks the dimension and the mode
    return _kernel_value(np.zeros(dimension), dlam, 0.0, mode)


def kernel_discretized(x: FourVector, x0: FourVector, segments, params: KernelParams) -> complex:
    """Collapse the N-segment discretized path integral analytically.

    Each segment carries a Gaussian factor per axis; interior points are
    integrated out one at a time (complex Gaussian convolution, widths add
    harmonically in the exponent and linearly in the 1/4a form).  With the
    segment normalization above the result is independent of N and of the
    individual segment lengths, and equals kernel_closed at the same total T.
    """
    segments = np.asarray(segments, dtype=float)
    if segments.ndim != 1 or segments.size < 1:
        raise ContractViolation("segments must be a non-empty 1-d sequence")
    if np.any(segments <= 0):
        raise DegeneratePathError("all segment lengths must be positive")
    total = float(np.sum(segments))
    if abs(total - params.total_length) > 1e-9 * max(1.0, params.total_length):
        raise ContractViolation(
            f"segments sum to {total}, expected T = {params.total_length}")
    x.check_dimension(params.dimension, "x")
    dx = (x - x0).as_array()

    msq = params.mass ** 2
    g, z = metric(params.dimension, params.mode), wick_factor(params.mode)
    prefactor = complex(1.0)
    # accumulated width per axis; segment j has width a_j per axis
    acc = None
    for dlam in segments:
        widths = _axis_widths(float(dlam), g, z)
        prefactor *= segment_norm(float(dlam), params.dimension, params.mode)
        if acc is None:
            acc = list(widths)
        else:
            for mu, a in enumerate(widths):
                # Int du exp(-u^2/4A) exp(-(v-u)^2/4a) = sqrt(4 pi A a/(A+a)) exp(-v^2/4(A+a))
                big_a = acc[mu]
                prefactor *= np.sqrt(4 * np.pi * big_a * a / (big_a + a))
                acc[mu] = big_a + a
        prefactor *= np.exp(-z * float(dlam) * msq)
    value = prefactor
    for mu in range(params.dimension):
        value *= np.exp(-dx[mu] ** 2 / (4 * acc[mu]))
    return complex(value)


# ---------------------------------------------------------------------------
# euclidean Monte Carlo


@dataclass(frozen=True)
class MCResult:
    """Estimate, its standard error and the work behind it.

    marks counts the Poisson marks drawn over all samples.  acceptance is the
    mean of m^2(q)/bound over them: 1.0 on the constant-mass route, whose
    bound is m^2 itself, and 0.0 when no mark was drawn.  ess is the
    effective sample size (sum w)^2 / sum w^2 of the per-path weights w; on
    the constant-mass route it is the number of paths without a mark.
    """

    estimate: complex
    stderr: float
    samples: int
    seed: int
    marks: int = 0
    acceptance: float = 0.0
    ess: float = 0.0


MC_CHUNK_SIZE = 16384  # samples per seeded chunk; the RNG streams depend on it


def kernel_mc(x: FourVector, x0: FourVector, params: KernelParams, n_segments: int,
              samples: int, seed: int, mass_sq_fn=None,
              mass_sq_bound: float | None = None) -> MCResult:
    """Monte Carlo estimate of the euclidean kernel over pinned bridge paths.

    The kinetic factor is the Gaussian bridge measure from x0 to x, whose
    normalization, the massless kernel, is absorbed analytically.  The mass
    factor exp(-Int m^2(q) dlam) is estimated from Poisson marks at rate
    mass_sq_bound along the path: each path carries the weight
    prod_i (1 - m^2(q_i)/bound) over its marks q_i, which is unbiased for
    that factor (Wagner's Poisson estimator) and has no more variance than
    the survival indicator of thinning, of which it is the conditional mean.

    For constant mass (mass_sq_fn None) the bound is m^2, so the weight is
    1 for a path without marks and 0 otherwise, and only the Poisson counts
    are drawn; no path is sampled.  For a position-dependent mass the bridge
    is sampled exactly at the mark times and nowhere else (Beskos & Roberts),
    and mass_sq_fn is called once per chunk that has marks, on the (marks, D)
    array of absolute positions, returning one value per row.  Both routes
    are unbiased and the cost scales with the number of marks.  mass_sq_fn
    values outside [0, mass_sq_bound], and a mass_sq_bound without a
    mass_sq_fn, raise ContractViolation.

    n_segments no longer affects the estimate; it is checked to be >= 1 and
    kept only for positional call sites.  Deterministic for a fixed seed.
    """
    if params.mode != "euclidean":
        raise UnsupportedSpecError("oscillatory minkowski Monte Carlo is not supported")
    if samples < 1000:
        raise ContractViolation("need at least 10^3 samples")
    if n_segments < 1:
        raise ContractViolation("need at least one segment")
    tau = params.total_length
    x.check_dimension(params.dimension, "x")
    dx = (x - x0).as_array()
    msq = params.mass ** 2
    if mass_sq_fn is None:
        if mass_sq_bound is not None:
            raise ContractViolation("mass_sq_bound applies only with a mass_sq_fn")
        bound = msq
    else:
        bound = float(mass_sq_bound) if mass_sq_bound is not None else msq
        if not 0.0 < bound < np.inf:
            raise ContractViolation("mass_sq_bound must be positive and finite with a mass_sq_fn")

    norm = _kernel_value(dx, tau, 0.0, "euclidean").real  # massless bridge normalization

    total_n = 0
    mean = 0.0
    m2 = 0.0  # sum of squared deviations (Welford)
    sum_w = sum_w2 = 0.0  # for the effective sample size
    marks, ratio_sum = 0, 0.0
    n_chunks = (samples + MC_CHUNK_SIZE - 1) // MC_CHUNK_SIZE
    for chunk_index in range(n_chunks):
        n = min(MC_CHUNK_SIZE, samples - chunk_index * MC_CHUNK_SIZE)
        rng = np.random.default_rng(np.random.SeedSequence((int(seed), chunk_index)))
        counts = rng.poisson(bound * tau, size=n)
        drawn = int(counts.sum())
        marks += drawn
        if mass_sq_fn is None:
            weight = (counts == 0).astype(float)
            ratio_sum += drawn  # m^2/bound is 1 at every mark
        else:
            weight, chunk_ratio_sum = _thin_marks(rng, x0.as_array(), dx, tau, counts,
                                                  mass_sq_fn, bound)
            ratio_sum += chunk_ratio_sum
        c_mean = float(np.mean(weight))
        c_m2 = float(np.sum((weight - c_mean) ** 2))
        sum_w += float(weight.sum())
        sum_w2 += float(weight @ weight)
        delta = c_mean - mean
        new_n = total_n + n
        m2 += c_m2 + delta * delta * total_n * n / new_n
        mean += delta * n / new_n
        total_n = new_n

    var = m2 / (total_n - 1) if total_n > 1 else 0.0
    stderr = norm * np.sqrt(var / total_n)
    return MCResult(estimate=complex(norm * mean), stderr=float(stderr),
                    samples=total_n, seed=int(seed), marks=marks,
                    acceptance=ratio_sum / marks if marks else 0.0,
                    ess=sum_w * sum_w / sum_w2 if sum_w2 else 0.0)


def _thin_marks(rng, start, dx, tau, counts, mass_sq_fn, bound):
    """Poisson product weight per path and the sum of m^2/bound over the marks.

    Paths are exchangeable, so they are laid out by mark count, most first,
    and the weights are returned in that order.  The j-th marks of the paths
    with more than j marks form rank j, and each rank's paths are a prefix
    of the previous rank's.  Marks are placed from lambda = tau down: with r
    marks still to place below the last time s, the next is at s * keep,
    keep = u^(1/r), the largest of r uniforms on [0, s].

    The bridge's deviation y from the line start + (lambda/tau) dx is 0 at
    both ends, so given y(s) it is Gaussian at t = s * keep with mean
    keep * y(s) and variance 2 (s - t) keep (free motion has variance 2 per
    unit lambda).  Divided by t, this exact step adds an independent
    Gaussian of variance 2 (1 - keep) / t to y/lambda (Levy's time
    inversion), so y/lambda is a running sum from 0 at tau.  The sum runs on
    the unit interval lambda/tau and is scaled by sqrt(tau) at the end.
    Paths without marks keep weight 1 and draw nothing.
    """
    weight = np.ones(counts.size)
    hist = np.bincount(counts)  # hist[c]: paths with c marks
    if hist.size == 1:
        return weight, 0.0
    rank_sizes = np.cumsum(hist[:0:-1])[::-1]  # rank j: paths with more than j marks
    k = np.repeat(np.arange(hist.size - 1, 0, -1), hist[:0:-1])  # marks per path, most first
    total = int(rank_sizes.sum())
    u = 1.0 - rng.random(total)  # in (0, 1], so every mark time is positive
    walk = rng.standard_normal((dx.size, total))  # axis-major: each rank is one slice
    frac = np.empty(total)  # lambda/tau of each mark
    s, v = np.ones(k.size), np.zeros((dx.size, k.size))  # the last rank's frac and y/lambda
    lo = 0
    for rank, size in enumerate(rank_sizes):
        hi = lo + size
        keep = u[lo:hi] ** (1.0 / (k[:size] - rank))
        t = np.multiply(s[:size], keep, out=frac[lo:hi])
        z = walk[:, lo:hi]
        z *= np.sqrt(2.0 * (1.0 - keep) / t)
        z += v[:, :size]
        s, v = t, z
        lo = hi
    # position start + (lambda/tau) dx + y with y = lambda v
    walk += (dx / np.sqrt(tau))[:, None]
    walk *= np.sqrt(tau) * frac
    walk += start[:, None]
    walk = walk.T
    ratio = np.asarray(mass_sq_fn(walk), dtype=float) / bound
    if ratio.shape != (total,):
        raise ContractViolation(
            f"mass_sq_fn returned shape {ratio.shape}, expected ({total},)")
    if not np.all((ratio >= 0.0) & (ratio <= 1.0)):  # also rejects NaN
        raise ContractViolation("mass_sq_fn values must lie in [0, mass_sq_bound]")
    lo = 0
    for size in rank_sizes:
        weight[:size] *= 1.0 - ratio[lo:lo + size]
        lo += size
    return weight, float(ratio.sum())


# ---------------------------------------------------------------------------
# proper-time propagators


TAIL_START = 20.0  # proper time where the minkowski integral turns onto its tail contour


def propagator_position(dx: FourVector, mass: float, epsilon: float,
                        weight: WeightFunction, dimension: int,
                        mode: str = "euclidean", damping: float = 0.0) -> complex:
    """Proper-time propagator Int_0^inf dT f(T) K(dx; T) exp(-T epsilon).

    Euclidean mode integrates the real heat kernel adaptively over the whole
    half-line and takes no damping (damping must be 0).  Minkowski mode uses
    the Gaussian-damped kernel and requires damping > 0; the result
    approaches the Feynman propagator as (epsilon, damping) -> 0.  It
    integrates [lo, split] on the real axis, split = max(lo, TAIL_START),
    and, by Cauchy's theorem, the tail on a contour into the lower
    half-plane, where the damped kernel is analytic for Re T > 0: down to
    T = split - i depth, then across to infinity.
    When m^2 is at least the tail's decay rate epsilon + 1/dlam, depth =
    min(m^2 dlam^2, 40/m^2); at m^2 dlam^2 the weight's phase cancels
    exp(-i T m^2), so the leg across does not oscillate.  Below that rate
    the tail oscillates no faster than it decays and stays on the real axis.
    Each leg is one quadrature.adaptive call.  The integral starts at the
    weight's threshold, and a weight of infinite dlam needs epsilon > 0.
    """
    if not epsilon >= 0:
        raise DomainError("epsilon must be >= 0")
    if epsilon == 0 and weight.correlation_length == np.inf:
        raise DomainError("a weight of infinite correlation_length needs epsilon > 0 "
                          "for the T-integral")
    metric(dimension, mode)  # checks the dimension and the mode
    dx.check_dimension(dimension, "dx")
    if mode == "minkowski" and not damping > 0:
        raise DomainError("minkowski proper-time integral needs damping > 0")
    if mode == "euclidean" and damping != 0:  # also rejects NaN
        raise DomainError("euclidean proper-time integral takes no damping; "
                          f"need damping = 0, got {damping!r}")
    dxa = dx.as_array()
    msq = mass * mass

    def integrand(t):
        return weight(t) * _kernel_value(dxa, t, msq, mode, damping) * np.exp(-epsilon * t)
    lo = weight.threshold
    if mode == "euclidean":
        value, _ = quadrature.adaptive(integrand, lo, np.inf, limit=300)
        return value
    split = max(lo, TAIL_START)
    value, _ = quadrature.adaptive(integrand, lo, split, limit=400)
    corner = split
    if msq >= epsilon + 1.0 / weight.correlation_length:
        # at depth 40/m^2 exp(-i T m^2) has fallen by e^-40, and the weight
        # has grown by less than e^20 on the way down
        depth = min(msq * weight.correlation_length ** 2, 40.0 / msq)
        down, _ = quadrature.adaptive(lambda s: integrand(split - 1j * s), 0.0, depth,
                                      limit=400)
        value -= 1j * down
        corner = split - 1j * depth
    tail, _ = quadrature.adaptive(lambda x: integrand(corner + x), 0.0, np.inf, limit=400)
    return value + tail


def propagator_momentum(p: FourVector, mass: float, epsilon: float) -> complex:
    """Feynman propagator -i / (p.p + m^2 - i epsilon), signed p.p."""
    if not epsilon > 0:
        raise DomainError("epsilon must be positive")
    return -1j / (minkowski_dot(p, p) + mass * mass - 1j * epsilon)


def propagator_onshell_part(dx: FourVector, mass: float, sign: int,
                            damping: float, dimension: int) -> complex:
    """Positive/negative frequency part of the propagator.

    Evaluates (2 pi)^(-d) Int d^d p exp(i(-sign E_p dx0 + p.dx)) / (2 E_p)
    with Gaussian damping exp(-damping p^2) on the spatial momentum integral
    (d = D - 1).  sign=+1 is the positive-frequency (particle) part.  A dx
    whose phase at the edge of the damping window reaches 2^53 radians,
    where double precision resolves no oscillation, raises DomainError.
    """
    if sign not in (+1, -1):
        raise ContractViolation("sign must be +1 or -1")
    if not damping > 0:
        raise DomainError("damping must be positive")
    dx.check_dimension(dimension, "dx")
    d = dimension - 1
    dt = dx.time
    r = math.hypot(*dx.spatial)
    # the damping factor is below e^-37 outside the window |p| < half
    half = np.sqrt(37.0 / damping)
    if not max(abs(dt), r) * half < 2.0 ** 53:  # also rejects NaN
        raise DomainError("dx is too long for the phase E dx0 - p.dx to be resolved "
                          "in double precision within the damping window")

    if d == 1:
        def integrand(p):
            e = onshell_energy((p,), mass)
            return np.exp(1j * (-sign * e * dt + p * r) - damping * p * p) / (2 * e)
        value, _ = quadrature.adaptive(integrand, -half, half, limit=400,
                                       epsabs=1e-13, epsrel=1e-11)
        return value / (2 * np.pi)
    if d == 3:
        def integrand(p):
            e = onshell_energy((p,), mass)
            ang = 4 * np.pi * np.sinc(p * r / np.pi)  # 4 pi sin(p r) / (p r)
            return p * p * ang * np.exp(-1j * sign * e * dt - damping * p * p) / (2 * e)
        value, _ = quadrature.adaptive(integrand, 0.0, np.inf, limit=400)
        return value / (2 * np.pi) ** 3
    raise UnsupportedSpecError(f"spatial dimension d = {d} not supported")


@dataclass(frozen=True)
class MassSuperpositionResult:
    value: complex
    window: float
    spacing: float
    adequate_window: bool


def _bessel_propagator(mass_squared, s, dimension: int):
    """(2 pi)^(-D/2) (M/s)^(D/2-1) K_(D/2-1)(M s), M = sqrt(mass_squared): the
    fixed-mass propagator of either signature as a function of the interval
    s = sqrt(dx.dx), both roots on numpy's principal branch (DLMF 10.32.10)."""
    order = dimension / 2 - 1
    m = np.sqrt(mass_squared)
    return (2 * np.pi) ** (-dimension / 2) * (m / s) ** order * special.kv(order, m * s)


def euclidean_mass_propagator_batch(dx: FourVector, mass_squared) -> np.ndarray:
    """Euclidean propagators at an array of complex mass squares, Re > 0.

    The proper-time integral Int_0^inf dT (4 pi T)^(-D/2) exp(-|dx|^2/4T - T m'^2)
    in closed form, `_bessel_propagator` at s = |dx| with D = dx.dimension;
    needs a finite |dx| > 0.  A value out of float range (D = 4 as |dx| -> 0)
    or out of reach of scipy's complex K_nu (NaN once |M| |dx| passes about
    1e9) raises DomainError.
    """
    msq = np.atleast_1d(np.asarray(mass_squared, dtype=complex))
    if not np.all(np.real(msq) > 0):
        raise DomainError("need Re(mass_squared) > 0 in euclidean mode")
    r = math.hypot(*dx.as_array())
    if not 0.0 < r < np.inf:  # also rejects NaN
        raise DomainError("euclidean mass propagator needs a finite |dx| > 0")
    with np.errstate(over="ignore", invalid="ignore"):
        values = _bessel_propagator(msq, r, dx.dimension)
    if not np.all(np.isfinite(values)):
        raise DomainError(
            f"euclidean mass propagator has no finite Bessel value at |dx| = {r:g}")
    return values


def _minkowski_mass_propagator_batch(dx: FourVector, mass_squared) -> np.ndarray:
    """Feynman propagators -i (2 pi)^(-D) Int d^D p exp(i p.dx) / (p.p + M^2) at
    an array of complex mass squares M^2 with Im M^2 < 0: `_bessel_propagator`
    at s = sqrt(dx.dx), signed by `geometry.metric`, so +i0 for timelike dx.
    Needs dx off the light cone."""
    interval = minkowski_dot(dx, dx)
    if not abs(interval) > 0:  # also rejects NaN
        raise DomainError("the minkowski mass propagator needs dx.dx != 0 "
                          "(dx off the light cone)")
    return _bessel_propagator(mass_squared, np.sqrt(complex(interval)), dx.dimension)


def kernel_mass_superposition(dx: FourVector, total_length: float, mass: float,
                              epsilon: float, mass_sq_grid, dimension: int,
                              mode: str = "euclidean") -> MassSuperpositionResult:
    """Reconstruct the euclidean kernel K(dx; T) as a superposition of
    fixed-mass propagators,

        K = (2 pi)^-1 Int du exp(i T u) prop(dx; m^2 + i u),

    by one trapezoid over u = m'^2 - m^2 on the supplied grid of m'^2.  This
    is the continuation T -> -i tau on the contour m'^2 = m^2 + i u at
    s = |dx|: every node is an exact propagator off its pole
    (`euclidean_mass_propagator_batch`) and the integrand decays
    exponentially in u, so the reconstruction converges to the euclidean
    kernel as the window grows and the grid refines.  The window half-width
    W must satisfy W*T >> 2 pi; W*T < 4 pi sets adequate_window = False.

    mode "minkowski" raises UnsupportedSpecError: on the real axis the
    tachyonic side of the u-integral does not decay, and the reconstruction
    does not converge.  epsilon must be positive but no longer enters the
    value; it and mode are kept only for existing call sites.
    """
    metric(dimension, mode)  # checks the dimension and the mode
    if mode != "euclidean":
        raise UnsupportedSpecError("the real-axis minkowski mass superposition is not supported")
    dx.check_dimension(dimension, "dx")
    grid = np.asarray(mass_sq_grid, dtype=float)
    if grid.ndim != 1:
        raise ContractViolation("mass_sq_grid must be one-dimensional")
    if not total_length > 0:
        raise DomainError("T must be positive")
    if not epsilon > 0:
        raise DomainError("epsilon must be positive")
    if grid.size < 2:
        # degenerate window: zero measure under the trapezoid convention
        return MassSuperpositionResult(0j, 0.0, 0.0, False)
    window = float(grid.max() - grid.min()) / 2.0
    spacing = float(np.mean(np.diff(grid)))
    msq = mass * mass
    u = grid - msq
    values = euclidean_mass_propagator_batch(dx, msq + 1j * u)
    value = np.trapezoid(values * np.exp(1j * total_length * u), u) / (2 * np.pi)
    return MassSuperpositionResult(complex(value), window, spacing,
                                   adequate_window=window * total_length >= 4 * np.pi)


# ---------------------------------------------------------------------------
# lattice kernels (exact composition algebra)


def lattice_momentum_phase_factors(spec: LatticeSpec, dlam: float,
                                   mass: float) -> tuple[np.ndarray, ...]:
    """The phase exp(-i dlam (p.p + m^2)) on the lattice as one broadcast 1-D
    factor exp(-i dlam g_mu p_mu^2) per axis, with g the metric, and the
    scalar exp(-i dlam m^2) on the axis-0 factor: their product, in axis
    order, is `lattice_momentum_phase`.
    """
    g = metric(spec.dimension)
    factors = [spec.along(mu, np.exp(-1j * dlam * g[mu] * spec.momentum_axis(mu) ** 2))
               for mu in range(spec.dimension)]
    factors[0] = np.exp(-1j * dlam * mass * mass) * factors[0]
    return tuple(factors)


def lattice_momentum_phase(spec: LatticeSpec, dlam: float, mass: float) -> np.ndarray:
    """Momentum-representation kernel exp(-i dlam (p.p + m^2)) on the lattice.

    Separable: the product of `lattice_momentum_phase_factors`, broadcast so
    that only the final product is a full grid.
    """
    return reduce(mul, lattice_momentum_phase_factors(spec, dlam, mass))


def lattice_kernel(spec: LatticeSpec, dlam: float, mass: float) -> np.ndarray:
    """Position-space kernel array K(u) with cell-volume circular convolution.

    sum_y a^D K(x - y) psi(y) reproduces the spectral evolution of psi by
    exp(-i dlam (p.p + m^2)).
    """
    phase = lattice_momentum_phase(spec, dlam, mass)
    f = ComplexField(spec, phase * (2 * np.pi) ** (-spec.dimension / 2), "momentum")
    return spectral_transform(f, "inverse").values


def lattice_propagator(spec: LatticeSpec, mass: float, epsilon: float) -> np.ndarray:
    """Regulated lattice Feynman propagator as a function of displacement.

    D(u) = (1 / prod L_mu) sum_p exp(i p.u) * (-i) / (p.p + m^2 - i epsilon),
    indexed by the lattice displacement u (periodic).
    """
    if not epsilon > 0:
        raise DomainError("epsilon must be positive")
    values = -1j / (spec.p_squared("minkowski") + mass * mass - 1j * epsilon)
    f = ComplexField(spec, values, "momentum")
    return spectral_transform(f, "inverse").values * (2 * np.pi) ** (-spec.dimension / 2)


def lattice_onshell_part(spec: LatticeSpec, mass: float, sign: int) -> np.ndarray:
    """Lattice frequency parts at every displacement u, by one spatial_momentum_sum:
    entry (u_0 / a_0 + N_0 - 1, u_vec / a_vec), over the 2 N_0 - 1 time offsets
    (not periodic) and the spatial displacements mod N_i, is
    (1 / prod L_i) sum_{p_vec} exp(i(-sign E u_0 + p_vec . u_vec)) / (2 E)."""
    if sign not in (+1, -1):
        raise ContractViolation("sign must be +1 or -1")
    n0, space = spec.shape[0], range(1, spec.dimension)
    e = onshell_energy([spec.along(mu, spec.momentum_axis(mu)) for mu in space], mass)
    u0 = np.reshape(np.arange(1 - n0, n0) * spec.spacings[0], (-1,) + (1,) * len(space))
    values = np.exp(1j * (-sign * e * u0)) / (2 * e)
    return spatial_momentum_sum(values) / float(np.prod(spec.extents[1:]))

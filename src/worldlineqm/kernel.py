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
the damped routes scale with the damping used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from . import quadrature
from .errors import (
    ContractViolation,
    DegeneratePathError,
    DomainError,
    UnsupportedSpecError,
)
from .geometry import FourVector, metric, minkowski_dot, wick_factor
from .lattice import ComplexField, LatticeSpec, spectral_transform


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
        """f(t): a float for a float t (the quadrature nodes), else f over the
        array t (a numpy scalar for 0-d t).  The exponent -(t/dlam)^2 / 2 is
        exactly 0 at dlam = inf."""
        if isinstance(t, float):
            r = t / self.correlation_length
            return float(np.exp(-0.5 * r * r)) if t >= self.threshold else 0.0
        t = np.asarray(t, dtype=float)
        r = t / self.correlation_length
        return np.where(t >= self.threshold, np.exp(-0.5 * r * r), 0.0)[()]

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


def _axis_widths(t, g, z, damping: float = 0.0, damp_time_only: bool = False):
    """Width a_mu = damping + z g_mu t of each axis factor (2pi)^-1 sqrt(pi/a) exp(-u^2/4a)."""
    space_damping = 0.0 if damp_time_only else damping
    return [(space_damping if mu else damping) + z * g_mu * t for mu, g_mu in enumerate(g)]


def _kernel_value(dx, t: float, mass_squared, dimension: int, mode: str,
                  damping: float = 0.0, damp_time_only: bool = False) -> complex:
    """Kernel value at one length t from the per-axis Gaussian factors."""
    z = wick_factor(mode)
    value = 1.0
    for mu, a in enumerate(_axis_widths(t, metric(dimension, mode), z, damping, damp_time_only)):
        value = value * np.sqrt(np.pi / a) / (2 * np.pi) * np.exp(-dx[mu] ** 2 / (4 * a))
    return complex(value * np.exp(-z * t * mass_squared))


def kernel_closed(dx: FourVector, params: KernelParams) -> complex:
    """Closed-form kernel K(dx; T) for the given parameters."""
    if dx.dimension != params.dimension:
        raise ContractViolation("dx dimension does not match params")
    return _kernel_value(dx.as_array(), params.total_length,
                         params.mass ** 2, params.dimension, params.mode)


def kernel_damped(dx: FourVector, total_length: float, mass_squared,
                  dimension: int, damping: float, mode: str = "minkowski",
                  damp_time_only: bool = False) -> complex:
    """Kernel with the Gaussian momentum damping exp(-damping |p|_E^2) folded in.

    mass_squared may be negative or complex; the damping keeps every axis
    factor a convergent Gaussian.  damp_time_only restricts the damping to the
    frequency axis (the spatial axes stay exact Fresnel factors), which is the
    variant reconstructed by the mass-superposition route.
    """
    if damping < 0:
        raise DomainError("damping must be >= 0")
    return _kernel_value(dx.as_array(), total_length, mass_squared, dimension,
                         mode, damping, damp_time_only)


# ---------------------------------------------------------------------------
# discretized collapse


def segment_norm(dlam: float, dimension: int, mode: str) -> complex:
    """Per-segment normalization: (4 pi dlam)^(-D/2) with the mode phase.

    In minkowski mode the phase is exp(-i pi (D-2)/4) per segment (one
    exp(+i pi/4) time factor against D-1 exp(-i pi/4) space factors), which
    for D = 4 is the familiar -i (4 pi dlam)^-2.  With this choice the
    collapsed prefactor of the discretized kernel is exactly 1.
    """
    if not dlam > 0:
        raise DegeneratePathError("segment length must be positive")
    mag = (4 * np.pi * dlam) ** (-dimension / 2)
    if mode == "euclidean":
        return complex(mag)
    return complex(mag * np.exp(-1j * np.pi * (dimension - 2) / 4))


def discretization_norm(segments, dimension: int, mode: str) -> complex:
    """Product of the per-segment normalization factors."""
    out = complex(1.0)
    for dlam in segments:
        out *= segment_norm(float(dlam), dimension, mode)
    return out


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
    dx = (x - x0).as_array()
    if x.dimension != params.dimension:
        raise ContractViolation("point dimension does not match params")

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

    marks counts the Poisson marks drawn over all samples; acceptance is the
    fraction of them accepted (every mark is accepted on the constant-mass
    route, whose bound is m^2 itself; 0.0 when no mark was drawn).
    """

    estimate: complex
    stderr: float
    samples: int
    seed: int
    marks: int = 0
    acceptance: float = 0.0


MC_CHUNK_SIZE = 16384  # samples per seeded chunk; the RNG streams depend on it


def kernel_mc(x: FourVector, x0: FourVector, params: KernelParams, n_segments: int,
              samples: int, seed: int, mass_sq_fn=None,
              mass_sq_bound: float | None = None) -> MCResult:
    """Monte Carlo estimate of the euclidean kernel over pinned bridge paths.

    The kinetic factor is the Gaussian bridge measure from x0 to x, whose
    normalization, the massless kernel, is absorbed analytically.  The mass
    factor exp(-Int m^2(q) dlam) is estimated by thinning (Lewis & Shedler):
    Poisson marks at rate mass_sq_bound along the path, each accepted with
    probability m^2(q)/bound; a path contributes iff no mark is accepted.

    For constant mass (mass_sq_fn None) the bound is m^2, every mark is
    accepted, and only the Poisson counts are drawn; no path is sampled.  For
    a position-dependent mass the bridge is sampled exactly at the sorted
    mark times and nowhere else (Beskos & Roberts), and mass_sq_fn is called
    once per chunk on the (marks, D) array of absolute positions, returning
    one value per row.  Both routes are unbiased, the cost scales with the
    number of marks, and m = 0 is exact (zero variance).  mass_sq_fn values
    outside [0, mass_sq_bound], and a mass_sq_bound without a mass_sq_fn,
    raise ContractViolation.

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
    dim = params.dimension
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

    norm = _kernel_value(dx, tau, 0.0, dim, "euclidean").real  # massless bridge normalization

    total_n = 0
    mean = 0.0
    m2 = 0.0  # sum of squared deviations (Welford)
    marks = accepted = 0
    n_chunks = (samples + MC_CHUNK_SIZE - 1) // MC_CHUNK_SIZE
    for chunk_index in range(n_chunks):
        n = min(MC_CHUNK_SIZE, samples - chunk_index * MC_CHUNK_SIZE)
        rng = np.random.default_rng(np.random.SeedSequence((int(seed), chunk_index)))
        if bound == 0.0:
            alive = np.ones(n)
        else:
            counts = rng.poisson(bound * tau, size=n)
            drawn = int(counts.sum())
            marks += drawn
            if mass_sq_fn is None:
                alive = (counts == 0).astype(float)
                accepted += drawn
            else:
                alive, hits = _thin_marks(rng, x0.as_array(), dx, tau, counts,
                                          mass_sq_fn, bound)
                accepted += hits
        c_mean = float(np.mean(alive))
        c_m2 = float(np.sum((alive - c_mean) ** 2))
        delta = c_mean - mean
        new_n = total_n + n
        m2 += c_m2 + delta * delta * total_n * n / new_n
        mean += delta * n / new_n
        total_n = new_n

    var = m2 / (total_n - 1) if total_n > 1 else 0.0
    stderr = norm * np.sqrt(var / total_n)
    return MCResult(estimate=complex(norm * mean), stderr=float(stderr),
                    samples=total_n, seed=int(seed), marks=marks,
                    acceptance=accepted / marks if marks else 0.0)


def _thin_marks(rng, start, dx, tau, counts, mass_sq_fn, bound):
    """Survival indicator per path and the number of accepted marks.

    The counts[i] uniform mark times of path i are sorted by the one float
    key owner + lambda/tau, lambda/tau uniform on [0, 1).  The bridge from start to start + dx is sampled
    exactly there: free motion W with variance 2 per unit lambda at the
    marks and at tau, pinned by B(t) = start + W(t) + (t/tau)(dx - W(tau)).
    Paths without marks survive and draw nothing.
    """
    alive = np.ones(counts.size)
    marked = np.flatnonzero(counts)
    if marked.size == 0:
        return alive, 0
    k = counts[marked]
    total = int(k.sum())
    owner = np.repeat(np.arange(marked.size), k)
    key = owner + rng.uniform(0.0, 1.0, size=total)
    key.sort()
    t = (key - owner) * tau  # ascending within each path, in [0, tau]
    ends = np.cumsum(k)
    starts = ends - k
    dt = np.diff(t, prepend=0.0)
    dt[starts] = t[starts]
    walk = rng.standard_normal((total, dx.size))
    walk *= np.sqrt(2.0 * dt)[:, None]
    np.cumsum(walk, axis=0, out=walk)  # W across all paths; rebased per path below
    base = walk[starts - 1]
    base[0] = 0.0
    w_tau = walk[ends - 1] - base + (np.sqrt(2.0 * (tau - t[ends - 1]))[:, None]
                                     * rng.standard_normal((marked.size, dx.size)))
    walk -= np.repeat(base - start, k, axis=0)
    walk += (t / tau)[:, None] * np.repeat(dx - w_tau, k, axis=0)
    ratio = np.asarray(mass_sq_fn(walk), dtype=float) / bound
    if ratio.shape != (total,):
        raise ContractViolation(
            f"mass_sq_fn returned shape {ratio.shape}, expected ({total},)")
    if not np.all((ratio >= 0.0) & (ratio <= 1.0)):  # also rejects NaN
        raise ContractViolation("mass_sq_fn values must lie in [0, mass_sq_bound]")
    hit = rng.uniform(0.0, 1.0, size=total) < ratio
    alive[marked[np.bincount(owner[hit], minlength=marked.size) > 0]] = 0.0
    return alive, int(hit.sum())


# ---------------------------------------------------------------------------
# proper-time propagators


TAIL_START = 20.0  # proper time where the minkowski integral switches to its tail rule


def propagator_position(dx: FourVector, mass: float, epsilon: float,
                        weight: WeightFunction, dimension: int,
                        mode: str = "euclidean", damping: float = 0.0) -> complex:
    """Proper-time propagator Int_0^inf dT f(T) K(dx; T) exp(-T epsilon).

    Euclidean mode integrates the real heat kernel adaptively over the whole
    half-line.  Minkowski mode uses the Gaussian-damped kernel and requires
    damping > 0; the result approaches the Feynman propagator as
    (epsilon, damping) -> 0.  It integrates [lo, TAIL_START] adaptively and
    the tail with the factor exp(-i T m^2) as QUADPACK's Fourier weight
    (quadrature.fourier_tail) when m^2 is at least the tail's decay rate,
    epsilon + 1/dlam; below that the tail oscillates no faster than it
    decays and is integrated adaptively as well.  The integral starts at the
    weight's threshold, and a weight of infinite dlam needs epsilon > 0.
    """
    if epsilon < 0:
        raise DomainError("epsilon must be >= 0")
    if epsilon == 0 and weight.correlation_length == np.inf:
        raise DomainError("a weight of infinite correlation_length needs epsilon > 0 "
                          "for the T-integral")
    metric(dimension, mode)  # checks the dimension and the mode
    if mode == "minkowski" and damping <= 0:
        raise DomainError("minkowski proper-time integral needs damping > 0")
    dxa = dx.as_array()
    msq = mass * mass
    damping = damping if mode == "minkowski" else 0.0

    def integrand(t, mass_squared=msq):
        # mass_squared 0 leaves the factor of exp(-i T m^2) in minkowski mode
        return (weight(t) * _kernel_value(dxa, t, mass_squared, dimension, mode, damping)
                * np.exp(-epsilon * t))
    lo = weight.threshold
    if mode == "euclidean":
        value, _ = quadrature.adaptive(integrand, lo, np.inf, limit=300)
        return value
    split = max(lo, TAIL_START)
    head, _ = quadrature.adaptive(integrand, lo, split, limit=400)
    # QAWF misses the tail when its first cycle, pi/m^2, is much longer than
    # the tail's decay length: 1/epsilon, and about dlam when dlam is finite
    decay_rate = epsilon + 1.0 / weight.correlation_length
    if msq >= decay_rate:
        tail, _ = quadrature.fourier_tail(lambda t: integrand(t, 0.0), split, msq)
    else:
        tail, _ = quadrature.adaptive(integrand, split, np.inf, limit=400)
    return head + tail


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
    (d = D - 1).  sign=+1 is the positive-frequency (particle) part.
    """
    if sign not in (+1, -1):
        raise ContractViolation("sign must be +1 or -1")
    if not damping > 0:
        raise DomainError("damping must be positive")
    d = dimension - 1
    dt = dx.time
    r = np.linalg.norm(dx.spatial) if d else 0.0
    msq = mass * mass

    if d == 1:
        def integrand(p):
            e = np.sqrt(p * p + msq)
            return np.exp(1j * (-sign * e * dt + p * r) - damping * p * p) / (2 * e)
        # the damping factor is below e^-37 outside the window, as in
        # fixed_mass_propagator
        half = np.sqrt(37.0 / damping)
        value, _ = quadrature.adaptive(integrand, -half, half, limit=400,
                                       epsabs=1e-13, epsrel=1e-11)
        return value / (2 * np.pi)
    if d == 3:
        def integrand(p):
            e = np.sqrt(p * p + msq)
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


def fixed_mass_propagator(dx: FourVector, mass_squared: float, epsilon: float,
                          dimension: int, damping: float) -> complex:
    """Regulated propagator at fixed (possibly negative) mass squared.

    Evaluates -i (2 pi)^(-D) Int d^D p exp(i p.dx) exp(-damping p0^2)
    / (p.p + m'^2 - i eps): the spatial momentum integral is done in closed
    form, leaving a single damped frequency quadrature.  This is the
    T-integral of the time-axis-damped kernel, expressed without the long
    oscillatory proper-time tail.
    """
    if epsilon <= 0:
        raise DomainError("epsilon must be positive")
    if damping <= 0:
        raise DomainError("damping must be positive")
    d = dimension - 1
    if d not in (1, 3):
        raise UnsupportedSpecError(f"spatial dimension d = {d} not supported")
    dt = dx.time
    r = float(np.linalg.norm(dx.spatial))
    if d == 3 and r == 0.0:
        raise DomainError("the D=4 spatial integral needs |dx_vec| > 0")

    half = np.sqrt(37.0 / damping)
    width = np.pi / (2 * (abs(dt) + r + 1.0))
    edges = [np.arange(-half, half + width, width)]
    if mass_squared > 0:
        # refine around the near-singular pinch at p0 = +-sqrt(m'^2)
        pstar = np.sqrt(mass_squared)
        scale = epsilon / (2 * pstar + 1.0)
        for s in (-1.0, 1.0):
            steps = s * np.geomspace(scale / 4, width, 25)
            edges.append(pstar + steps)
            edges.append(-pstar + steps)
    grid = np.unique(np.concatenate(edges))
    grid = grid[(grid >= -half) & (grid <= half)]
    nodes, weights = quadrature.panels(grid)

    c = mass_squared - nodes * nodes - 1j * epsilon
    root = np.sqrt(c)  # principal branch, Re > 0
    if d == 1:
        spatial = np.pi * np.exp(-root * r) / root
    else:
        spatial = 2 * np.pi ** 2 * np.exp(-root * r) / r
    value = np.sum(weights * np.exp(-1j * nodes * dt - damping * nodes * nodes) * spatial)
    return complex(-1j * value / (2 * np.pi) ** dimension)


def euclidean_mass_propagator_batch(dx: FourVector, mass_squared, dimension: int) -> np.ndarray:
    """Euclidean propagators at an array of complex mass squares, Re > 0.

    The proper-time integral Int_0^inf dT (4 pi T)^(-D/2) exp(-|dx|^2/4T - T m'^2)
    in closed form (DLMF 10.32.10),

        (2 pi)^(-D/2) (m'/|dx|)^(D/2-1) K_(D/2-1)(m' |dx|),

    with m' the principal square root; needs |dx| > 0.
    """
    msq = np.atleast_1d(np.asarray(mass_squared, dtype=complex))
    if np.any(np.real(msq) <= 0):
        raise DomainError("need Re(mass_squared) > 0 in euclidean mode")
    dxa = dx.as_array()
    r = float(np.linalg.norm(dxa))
    if r == 0.0:
        raise DomainError("euclidean mass propagator needs |dx| > 0")
    order = dimension / 2 - 1
    m = np.sqrt(msq)
    return (2 * np.pi) ** (-dimension / 2) * (m / r) ** order * special.kv(order, m * r)


def kernel_mass_superposition(dx: FourVector, total_length: float, mass: float,
                              epsilon: float, mass_sq_grid, dimension: int,
                              damping: float = 1e-3,
                              mode: str = "euclidean") -> MassSuperpositionResult:
    """Reconstruct K(dx; T) as a superposition of fixed-mass propagators,

        K = (2 pi)^-1 exp(-i T m^2) Int dm'^2 exp(i T m'^2) prop(dx; m'^2),

    by trapezoid quadrature over the supplied mass-squared grid.  The window
    half-width W must satisfy W*T >> 2 pi; W*T < 4 pi sets
    adequate_window = False.

    mode "euclidean" runs the continuation T -> -i tau with the mass-squared
    contour rotated to m'^2 = m^2 + i u (grid values supply m^2 + u): every
    propagator is then off its pole and the integrand decays exponentially in
    u, so the reconstruction converges to the euclidean kernel as the window
    grows and the grid refines.  mode "minkowski" keeps the real-axis grid
    with epsilon-regulated, frequency-damped propagators; its sharp-window
    truncation error falls off only like (T W)^(-1/2) because of the
    slowly-decaying tachyonic side, so it is exercised for convergence trend
    rather than tight reconstruction.
    """
    metric(dimension, mode)  # checks the dimension and the mode
    grid = np.asarray(mass_sq_grid, dtype=float)
    if grid.ndim != 1:
        raise ContractViolation("mass_sq_grid must be one-dimensional")
    if total_length <= 0:
        raise DomainError("T must be positive")
    if grid.size < 2:
        # degenerate window: zero measure under the trapezoid convention
        return MassSuperpositionResult(0j, 0.0, 0.0, False)
    window = float(grid.max() - grid.min()) / 2.0
    spacing = float(np.mean(np.diff(grid)))
    msq = mass * mass
    if mode == "euclidean":
        u = grid - msq
        values = euclidean_mass_propagator_batch(dx, msq + 1j * u, dimension)
        value = np.trapezoid(values * np.exp(1j * total_length * u), u) / (2 * np.pi)
    else:
        values = np.array([fixed_mass_propagator(dx, m2, epsilon, dimension, damping)
                           for m2 in grid])
        integral = np.trapezoid(values * np.exp(1j * total_length * grid), grid)
        value = integral * np.exp(-1j * total_length * msq) / (2 * np.pi)
    return MassSuperpositionResult(complex(value), window, spacing,
                                   adequate_window=window * total_length >= 4 * np.pi)


# ---------------------------------------------------------------------------
# lattice kernels (exact composition algebra)


def lattice_momentum_phase(spec: LatticeSpec, dlam: float, mass: float) -> np.ndarray:
    """Momentum-representation kernel exp(-i dlam (p.p + m^2)) on the lattice.

    Separable: exp(-i dlam m^2) times one 1-D factor exp(-i dlam g_mu p_mu^2)
    per axis, with g the metric, broadcast so that only the final product is
    a full grid.
    """
    g = metric(spec.dimension)
    phase = np.exp(-1j * dlam * mass * mass)
    for mu in range(spec.dimension):
        phase = phase * spec.along(mu, np.exp(-1j * dlam * g[mu] * spec.momentum_axis(mu) ** 2))
    return phase


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
    if epsilon <= 0:
        raise DomainError("epsilon must be positive")
    values = -1j / (spec.p_squared("minkowski") + mass * mass - 1j * epsilon)
    f = ComplexField(spec, values, "momentum")
    return spectral_transform(f, "inverse").values * (2 * np.pi) ** (-spec.dimension / 2)


def lattice_onshell_part(spec: LatticeSpec, mass: float, sign: int, dt: float,
                         dx_spatial) -> complex:
    """Lattice transcription of the frequency parts on the spatial sublattice.

    (1 / prod L_i) sum_{p_vec} exp(i(-sign E dt + p_vec . dx_vec)) / (2 E).
    """
    if sign not in (+1, -1):
        raise ContractViolation("sign must be +1 or -1")
    axes = [spec.momentum_axis(mu) for mu in range(1, spec.dimension)]
    mesh = np.meshgrid(*axes, indexing="ij") if axes else []
    psq = sum(p * p for p in mesh) if mesh else 0.0
    e = np.sqrt(psq + mass * mass)
    phase = -sign * e * dt
    for p, u in zip(mesh, np.atleast_1d(np.asarray(dx_spatial, dtype=float))):
        phase = phase + p * u
    vol = float(np.prod(spec.extents[1:])) if spec.dimension > 1 else 1.0
    return complex(np.sum(np.exp(1j * phase) / (2 * e)) / vol)

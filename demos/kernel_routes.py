"""Three routes to the same fixed-length kernel.

The transition amplitude over intrinsic length T has a closed Gaussian form,
an exact discretized-path collapse (independent of the number of segments
and their spacing), and a euclidean Monte Carlo estimator over pinned bridge
paths.  This script evaluates all three at one point and shows the collapse
N-independence and the Monte Carlo error scaling.  It then checks the
thinned Monte Carlo, which samples the bridge exactly at the Poisson marks
and weights each path by prod (1 - m^2(q)/bound) over them, against a
position-dependent mass with a closed form: a bridge that ends at its
starting level spends a Uniform(0, T) time above it (P. Levy).  kernel_mc's
fourth argument, n_segments, no longer affects the estimate and is passed
only for its position.
"""

import numpy as np

from worldlineqm import FourVector, KernelParams, kernel_closed, kernel_discretized, kernel_mc

params = KernelParams(mass=1.0, total_length=1.0, dimension=2, mode="euclidean")
x0 = FourVector((0.0, 0.0))
x = FourVector((0.6, -0.3))

closed = kernel_closed(x - x0, params)
print(f"closed form             K = {closed.real:.12f}")

print("\ndiscretized collapse (equal and random segment spacings):")
rng = np.random.default_rng(1)
for n in (1, 2, 4, 8, 16):
    uniform = kernel_discretized(x, x0, np.full(n, 1.0 / n), params)
    seg = rng.uniform(0.05, 1.0, size=n)
    seg /= seg.sum()
    ragged = kernel_discretized(x, x0, seg, params)
    print(f"  N={n:2d}  uniform rel err {abs(uniform-closed)/abs(closed):.2e}"
          f"   random rel err {abs(ragged-closed)/abs(closed):.2e}")

print("\nMonte Carlo over pinned bridges (mass factor from Poisson marks):")
for samples in (10_000, 40_000, 160_000):
    res = kernel_mc(x, x0, params, 1, samples, seed=5)
    pull = abs(res.estimate - closed) / res.stderr
    print(f"  {samples:7d} samples: {res.estimate.real:.6f} +- {res.stderr:.2e}"
          f"   pull {pull:.2f} sigma   {res.marks} marks")

print("\nthinned Monte Carlo, m^2(q) = m0^2 + c [q_1 > 0], D = 4, dx_1 = 0:")
m0_sq, c = 0.25, 2.0
step = KernelParams(mass=np.sqrt(m0_sq), total_length=1.0, dimension=4, mode="euclidean")
y0 = FourVector((0.0, 0.0, 0.0, 0.0))
y = FourVector((0.3, 0.0, 0.2, -0.1))
dy = (y - y0).as_array()
massless = (4 * np.pi) ** -2 * np.exp(-dy @ dy / 4)
levy = massless * np.exp(-m0_sq) * (1 - np.exp(-c)) / c
res = kernel_mc(y, y0, step, 1, 400_000, seed=17,
                mass_sq_fn=lambda q: m0_sq + c * (q[:, 1] > 0.0), mass_sq_bound=m0_sq + c)
print(f"  closed form {levy:.6e}, estimate {res.estimate.real:.6e} +- {res.stderr:.1e}"
      f"   pull {(res.estimate.real - levy) / res.stderr:+.2f} sigma")
print(f"  {res.marks} marks, mean m^2/bound {res.acceptance:.3f}, ESS {res.ess:.0f}")

print("\nmassless bridge normalization is exact (zero variance):")
light = KernelParams(mass=1e-300, total_length=1.0, dimension=2, mode="euclidean")
res = kernel_mc(x, x0, light, 1, 2000, seed=1)
print(f"  estimate {res.estimate.real:.12f}, stderr {res.stderr}")

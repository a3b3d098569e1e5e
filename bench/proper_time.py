"""Workload `proper_time`: kernels, propagators and self-energies by quadrature.

Bound by scipy.integrate.quad callbacks and Monte Carlo sampling.
Exercises kernel, paths and regularization (plus the unregulated bubble in
interaction); no FFT and no sector work.
"""

from __future__ import annotations

import numpy as np

from worldlineqm import interaction, kernel, paths, regularization
from worldlineqm.geometry import FourVector

from oracles import heat_kernel, momentum_route_d2

SIZES = {
    "full": {"mc_samples": 10 ** 6, "paths": 1000, "euclidean_r": 10,
             "minkowski": ((0.8, 0.3), (1.2, 0.3), (1.5, 0.6), (-1.0, 0.2), (-1.6, 0.5)),
             "eps_sweep": (1e-2, 3e-3, 1e-3), "superposition_points": 641,
             "cutoffs": (100.0, 200.0, 400.0, 800.0)},
    "tiny": {"mc_samples": 10 ** 4, "paths": 20, "euclidean_r": 2,
             "minkowski": ((0.8, 0.3),), "eps_sweep": (1e-2, 3e-3),
             "superposition_points": 641, "cutoffs": (100.0, 200.0, 400.0)},
}
MASS = 1.0
MC_DX = (0.3, 0.2, -0.1, 0.4)
COLLAPSE_DX = (0.7, -0.4)
SUPERPOSITION_DX = (0.9, 1.2)
SCAN_DELTAS = (0.02, 0.01, 0.005, 0.0025)


def setup(seed: int, size: str, workdir) -> dict:
    cfg = SIZES[size]
    rng = np.random.default_rng(seed)
    path_inputs = []
    for _ in range(cfg["paths"]):
        n = int(rng.integers(2, 10))
        path_inputs.append((np.cumsum(rng.uniform(0.05, 0.5, size=n + 1)),
                            rng.normal(size=(n + 1, 2)), int(rng.integers(1, n)),
                            rng.normal(size=2)))
    radii = np.linspace(0.4, 2.2, cfg["euclidean_r"])
    return {
        "cfg": cfg,
        "collapse_splits": [rng.dirichlet(np.ones(n)) for n in (1, 2, 4, 8, 16)],
        "collapse_oracle": heat_kernel(COLLAPSE_DX, 1.0, MASS),
        "paths": path_inputs,
        "mc_seeds": tuple(int(s) for s in rng.integers(0, 2 ** 31, 2)),
        "mc_oracle": heat_kernel(MC_DX, 1.0, MASS),
        "radii": [(float(r), momentum_route_d2(float(r), MASS)) for r in radii],
        "superposition_oracle": heat_kernel(SUPERPOSITION_DX, 1.0, MASS),
    }


def case_collapse(chk, ctx):
    """Criterion 1: the discretized collapse equals the closed kernel for any split."""
    params = kernel.KernelParams(MASS, 1.0, 2, "euclidean")
    x0, x = FourVector((0.0, 0.0)), FourVector(COLLAPSE_DX)
    worst = 0.0
    for segments in ctx["collapse_splits"]:
        value = kernel.kernel_discretized(x, x0, segments, params)
        worst = max(worst, abs(value - ctx["collapse_oracle"]) / ctx["collapse_oracle"])
    chk.below("kernel.collapse", worst, 1e-10)
    chk.close("kernel.closed", kernel.kernel_closed(x - x0, params), ctx["collapse_oracle"], 1e-10)


def case_action(chk, ctx):
    """Criterion 3: action additivity and translation invariance."""
    worst_add = worst_trans = 0.0
    for lam, pts, k, shift in ctx["paths"]:
        path = paths.DiscretePath(lam, pts, "minkowski")
        n = path.n_segments
        whole = paths.action(path, MASS)
        split = paths.action_restrict(path, 0, k, MASS) + paths.action_restrict(path, k, n, MASS)
        worst_add = max(worst_add, abs(split - whole))
        worst_trans = max(worst_trans, abs(paths.action(path.translated(shift), MASS) - whole))
    chk.below("paths.additivity", worst_add, 1e-12)
    chk.below("paths.translation", worst_trans, 1e-12)


def _constant_mass_sq(q):
    return np.full(q.shape[:-1], MASS * MASS)


def case_mc(chk, ctx):
    """Criterion 2 in D=4: constant mass, then the same m^2 through thinning
    under bound 2 m^2; both against the closed heat kernel within 5 sigma."""
    params = kernel.KernelParams(MASS, 1.0, 4, "euclidean")
    x, x0 = FourVector(MC_DX), FourVector((0.0,) * 4)
    samples = ctx["cfg"]["mc_samples"]
    const = kernel.kernel_mc(x, x0, params, 8, samples, seed=ctx["mc_seeds"][0])
    chk.zscore("kernel_mc.const", const.estimate, ctx["mc_oracle"], const.stderr)
    thinned = kernel.kernel_mc(x, x0, params, 8, samples, seed=ctx["mc_seeds"][1],
                               mass_sq_fn=_constant_mass_sq, mass_sq_bound=2 * MASS * MASS)
    chk.zscore("kernel_mc.thinned", thinned.estimate, ctx["mc_oracle"], thinned.stderr)


def case_euclidean(chk, ctx):
    """Criterion 5: proper-time integral against the momentum route."""
    for r, oracle in ctx["radii"]:
        value = kernel.propagator_position(FourVector((0.0, r)), MASS, 1e-10,
                                           kernel.WeightFunction.uniform(), 2, "euclidean")
        chk.close(f"propagator.euclidean.r{r:.2f}", value.real, oracle, 1e-6)


def _decomposition_error(dt, dz, eps):
    dx = FourVector((dt, dz))
    lhs = kernel.propagator_position(dx, MASS, eps, kernel.WeightFunction.uniform(), 2,
                                     "minkowski", damping=eps)
    rhs = kernel.propagator_onshell_part(dx, MASS, 1 if dt > 0 else -1, eps, 2)
    return abs(lhs - rhs) / abs(rhs)


def case_minkowski(chk, ctx):
    """Criterion 8: frequency-split decomposition and its epsilon sweep."""
    worst = max(_decomposition_error(dt, dz, 1e-2) for dt, dz in ctx["cfg"]["minkowski"])
    chk.below("propagator.minkowski.decomposition", worst, 5e-2)
    errs = [_decomposition_error(1.2, 0.3, eps) for eps in ctx["cfg"]["eps_sweep"]]
    chk.record("propagator.minkowski.eps_sweep", all(a > b for a, b in zip(errs, errs[1:])),
               "errors " + ", ".join(f"{e:.1e}" for e in errs) + " must decrease")


def case_superposition(chk, ctx):
    """Criterion 6: mass-superposition reconstruction at window * T = 40."""
    grid = np.linspace(MASS ** 2 - 40.0, MASS ** 2 + 40.0, ctx["cfg"]["superposition_points"])
    res = kernel.kernel_mass_superposition(FourVector(SUPERPOSITION_DX), 1.0, MASS, 1e-3,
                                           grid, 2, mode="euclidean")
    chk.record("superposition.window", res.adequate_window, f"window {res.window:g}")
    chk.close("superposition.value", res.value, ctx["superposition_oracle"], 1e-2)


def case_self_energy(chk, ctx):
    """Criterion 17: both regulated routes, the unregulated bubble, the scan."""
    p2, p4 = FourVector((0.0, 0.0)), FourVector((0.0,) * 4)
    spec = regularization.RegulatorSpec(10.0, 0.01, MASS)
    lam = regularization.self_energy_regulated(p2, MASS, MASS, 2, spec, "lambda")
    ms = regularization.self_energy_regulated(p2, MASS, MASS, 2, spec, "mass-spectrum")
    chk.close("self_energy.dual_route", ms.value.real, lam.value.real, 1e-2)
    a = regularization.self_energy_regulated(p4, MASS, MASS, 4, spec, "lambda", cutoff=60.0)
    b = regularization.self_energy_regulated(p4, MASS, MASS, 4, spec, "lambda", cutoff=120.0)
    chk.close("self_energy.cutoff_stability", a.value.real, b.value.real, 1e-3)

    d2 = interaction.self_energy_unregulated(p2, MASS, MASS, 2, np.inf)
    chk.close("self_energy.unregulated_d2", d2.value.real, np.pi, 1e-6)
    values = [interaction.self_energy_unregulated(p4, MASS, MASS, 4, c).value.real
              for c in ctx["cfg"]["cutoffs"]]
    inc = np.diff(values)
    chk.below("self_energy.log_growth", (inc.max() - inc.min()) / inc.mean(), 5e-2)

    scan = regularization.divergence_scan(p4, MASS, MASS, 4, SCAN_DELTAS,
                                          correlation_length=1e3)
    chk.record("scan.r_squared", scan.r_squared > 0.99, f"r^2 {scan.r_squared:.5f} > 0.99")
    # per e-fold of momentum the D=4 bubble grows by 2 pi^2; k ~ delta^(-1/2)
    chk.close("scan.slope", 2 * scan.slope, 2 * np.pi ** 2, 0.1)


# The superposition case holds the pass's memory peak (64 MiB temporaries);
# running it before the seeded Monte Carlo keeps the heap it starts from, and
# so peak_rss_mb, independent of the seed.
CASES = (("collapse", case_collapse), ("action", case_action),
         ("superposition", case_superposition), ("mc", case_mc),
         ("euclidean", case_euclidean), ("minkowski", case_minkowski),
         ("self_energy", case_self_energy))

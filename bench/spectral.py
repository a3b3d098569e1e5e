"""Workload `spectral`: lambda-evolution and lattice phases on a 32^4 lattice.

Array- and FFT-bound: 16 MiB complex fields, far beyond L2.  Exercises
lattice, evolution and onshell; no quadrature and no Fock objects.
"""

from __future__ import annotations

import numpy as np

from worldlineqm import evolution, kernel, lattice, onshell

SIZES = {
    "full": {"shape": (32, 32, 32, 32), "extent": 16.0, "steps": 16,
             "eps": (1e-1, 1e-2, 1e-3)},
    "tiny": {"shape": (8, 8, 8, 8), "extent": 8.0, "steps": 3, "eps": (1e-1,)},
}
MASS = 1.0
WINDOW = 1.0


def setup(seed: int, size: str, workdir) -> dict:
    cfg = SIZES[size]
    rng = np.random.default_rng(seed)
    spec = lattice.LatticeSpec(cfg["shape"], (cfg["extent"],) * 4)
    psi = evolution.gaussian_packet(spec, rng.uniform(0.4, 0.6, 4) * cfg["extent"], 1.5,
                                    rng.uniform(-0.5, 0.5, 4), MASS)
    p_spatial = (float(rng.uniform(-0.5, 0.5)),)
    energy = float(np.sqrt(p_spatial[0] ** 2 + MASS ** 2))
    return {
        "spec": spec, "psi": psi, "norm0": evolution.norm(psi),
        "steps": cfg["steps"], "dlam": float(rng.uniform(0.005, 0.05)),
        "phase_dlams": tuple(float(x) for x in rng.uniform(0.1, 0.5, 2)),
        "p_spatial": p_spatial, "energy": energy,
        "concentration": [(eps, (2 / np.pi) * np.arctan(WINDOW / eps)) for eps in cfg["eps"]],
    }


def case_evolve(chk, ctx):
    """Criterion 7 on 32^4: norm drift and group property of fixed-dlam steps."""
    psi, steps, dlam = ctx["psi"], ctx["steps"], ctx["dlam"]
    many = psi
    for _ in range(steps):
        many = evolution.evolve(many, dlam)
    one = evolution.evolve(psi, steps * dlam)
    chk.below("evolve.norm_drift", abs(evolution.norm(many) - ctx["norm0"]), 1e-12)
    chk.below("evolve.group", np.max(np.abs(one.field.values - many.field.values)), 1e-12)


def case_phases(chk, ctx):
    """Criterion 4 on 32^4: kernel composition and conjugation."""
    spec = ctx["spec"]
    d1, d2 = ctx["phase_dlams"]
    k1 = kernel.lattice_momentum_phase(spec, d1, MASS)
    k2 = kernel.lattice_momentum_phase(spec, d2, MASS)
    k12 = kernel.lattice_momentum_phase(spec, d1 + d2, MASS)
    chk.below("phase.composition", np.max(np.abs(k1 * k2 - k12)), 1e-12)
    kc = kernel.lattice_momentum_phase(spec, -d1, MASS)
    chk.below("phase.conjugation", np.max(np.abs(np.conj(k1) - kc)), 1e-12)


def case_residual(chk, ctx):
    """Criterion 7: the Stueckelberg residual is second order in the probe step."""
    r1 = evolution.stueckelberg_residual(ctx["psi"], 1e-3)
    r2 = evolution.stueckelberg_residual(ctx["psi"], 5e-4)
    chk.below("residual.order2", abs(r1 / r2 - 4.0), 0.4)


def case_concentration(chk, ctx):
    """Criterion 9: on-shell concentration against the Lorentzian oracle."""
    for eps, oracle in ctx["concentration"]:
        step = eps / 4
        grid = ctx["energy"] + np.arange(-400.0, 400.0 + step, step)
        prof = onshell.momentum_state_profile(ctx["p_spatial"], MASS, +1, 0.0, eps, grid)
        chk.close(f"onshell.concentration.eps{eps:g}", onshell.concentration(prof, WINDOW),
                  oracle, 1e-2)


CASES = (("evolve", case_evolve), ("phases", case_phases),
         ("residual", case_residual), ("concentration", case_concentration))

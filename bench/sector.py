"""Workload `sector`: truncated-sector algebra, Fock pairings and permanents.

Python-object walks (`represent`, 269 568 `apply_generator` calls per
operator on the 4x4 sector) plus dense 2448^2 matrix products, with a
memory peak near 1 GB.  Exercises fock and interaction; no quadrature and
no large FFT.
"""

from __future__ import annotations

from math import factorial

import numpy as np

from worldlineqm import fock, interaction
from worldlineqm.geometry import ParticleType
from worldlineqm.lattice import LatticeSpec

from oracles import LatticePairing, first_order_vertex

SIZES = {
    # (a) the 4x4 order-2 Dyson target (dimension 2448), (b) criterion 14
    "full": {"dyson": ((4, 4), {"A": (1, 1), "B": (0, 2)}, 2),
             "unitarity": ((2, 2), {"A": (1, 1), "B": (0, 6)}, 3),
             "fock_n": 6, "naive_n": 8, "ryser_n": 14},
    "tiny": {"dyson": ((2, 2), {"A": (1, 1), "B": (0, 2)}, 2),
             "unitarity": ((2, 2), {"A": (1, 1), "B": (0, 6)}, 3),
             "fock_n": 3, "naive_n": 4, "ryser_n": 9},
}
EPS = 1e-2
FOCK_MASSES = {"A": 1.0, "B": 1.3}
COUPLING = 0.8


def _random_sites(rng, n, shape=(4, 4)):
    return [tuple(int(rng.integers(0, s)) for s in shape) for _ in range(n)]


def setup(seed: int, size: str, workdir) -> dict:
    cfg = SIZES[size]
    rng = np.random.default_rng(seed)
    pairing = LatticePairing((4, 4), (4.0, 4.0), FOCK_MASSES,
                             {"A": "plain", "B": "plain"}, EPS)
    pairs = []
    for n in range(1, cfg["fock_n"] + 1):
        labels = [str(x) for x in rng.choice(["A", "B"], size=n)]
        bra = list(zip(_random_sites(rng, n), labels))
        ket = list(zip(_random_sites(rng, n), [str(x) for x in rng.permutation(labels)]))
        pairs.append((bra, ket, pairing.brute_inner(bra, ket)))
    small = [rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
             for n in range(1, cfg["naive_n"] + 1)]
    rank_one = []
    for n in range(cfg["naive_n"] + 1, cfg["ryser_n"] + 1):
        u = rng.uniform(0.5, 1.5, n) * np.exp(1j * rng.uniform(-0.3, 0.3, n))
        v = rng.uniform(0.5, 1.5, n) * np.exp(1j * rng.uniform(-0.3, 0.3, n))
        rank_one.append((np.outer(u, v), factorial(n) * np.prod(u) * np.prod(v)))
    x0, xa, xb = _random_sites(rng, 3)
    return {
        "cfg": cfg, "pairs": pairs, "small": small, "rank_one": rank_one,
        "vertex_sites": (x0, xa, xb),
        "vertex_oracle": first_order_vertex((4, 4), (4.0, 4.0), COUPLING, EPS, x0, xa, xb),
    }


def _sector(shape, content, n_max):
    model = interaction.InteractionModel.ab_model(1.0)
    spec = LatticeSpec(shape, tuple(float(n) for n in shape))
    alg = fock.FieldAlgebra(spec, model.types, epsilon=EPS, n_max=n_max)
    return model, interaction.Sector(alg, content)


def case_dyson(chk, ctx):
    """The 4x4 order-2 series: V is self-adjoint under the special adjoint,
    so adjoint_coefficients[m] == (-1)^m coefficients[m]."""
    shape, content, order = ctx["cfg"]["dyson"]
    model, sector = _sector(shape, content, 8)
    dy = interaction.dyson_truncated(model, sector, order)
    for m in range(order + 1):
        c = dy.coefficients[m]
        err = np.max(np.abs(dy.adjoint_coefficients[m] - (-1) ** m * c))
        chk.below(f"dyson.self_adjoint.order{m}", err / (np.max(np.abs(c)) or 1.0), 1e-12)
    chk.record("dyson.clean_core", bool(dy.clean.any()), f"{int(dy.clean.sum())} clean columns")


def case_unitarity(chk, ctx):
    """Criterion 14: per-order zero, slope 4 and the negative control."""
    shape, content, order = ctx["cfg"]["unitarity"]
    model, sector = _sector(shape, content, 7)
    dy = interaction.dyson_truncated(model, sector, order)
    orders = dy.unitarity_residual_orders()
    per_order = max(np.max(np.abs(orders[k][:, dy.residual_clean])) for k in range(order + 1))
    chk.below("unitarity.per_order", per_order, 1e-12)
    slope = np.log10(dy.unitarity_residual_norm(1e-2)) - np.log10(dy.unitarity_residual_norm(1e-3))
    chk.below("unitarity.slope", abs(slope - (order + 1)), 0.1)
    lone = interaction.InteractionModel((interaction.VertexTerm(("A", "B"), ("A",)),),
                                        1.0, model.types)
    bad = interaction.dyson_truncated(lone, sector, 1)
    control = np.max(np.abs(bad.unitarity_residual_orders()[1][:, bad.residual_clean]))
    chk.record("unitarity.negative_control", control > 1e-6, f"{control:.2e} > 1e-6")


def case_fock_inner(chk, ctx):
    """Criterion 12: permanent pairings of 1..6 particles against brute force."""
    spec = LatticeSpec((4, 4), (4.0, 4.0))
    types = {k: ParticleType(k, m, "plain") for k, m in FOCK_MASSES.items()}
    alg = fock.FieldAlgebra(spec, types, epsilon=EPS)
    for bra, ket, oracle in ctx["pairs"]:
        value = fock.fock_inner(
            fock.symmetrize([fock.Entry(s, lbl, fock.INTEGRATED) for s, lbl in bra]),
            fock.symmetrize([fock.Entry(s, lbl, fock.START) for s, lbl in ket]), alg)
        chk.close(f"fock_inner.n{len(bra)}", value, oracle, 1e-12)


def case_permanents(chk, ctx):
    """Naive against Ryser for small n; Ryser against closed forms above."""
    for m in ctx["small"]:
        chk.close(f"permanent.naive_vs_ryser.n{len(m)}", fock.permanent_ryser(m),
                  fock.permanent_naive(m), 1e-12)
    for m, oracle in ctx["rank_one"]:
        n = len(m)
        chk.close(f"permanent.ones.n{n}", fock.permanent_ryser(np.ones((n, n))),
                  factorial(n), 1e-9)
        chk.close(f"permanent.rank_one.n{n}", fock.permanent_ryser(m), oracle, 1e-9)


def case_amplitude(chk, ctx):
    """Criterion 15: first-order vertex amplitude against the convolution oracle."""
    model = interaction.InteractionModel.ab_model(COUPLING)
    spec = LatticeSpec((4, 4), (4.0, 4.0))
    alg = fock.FieldAlgebra(spec, model.types, epsilon=EPS, n_max=3)
    sector = interaction.Sector(alg, {"A": (1, 1), "B": (0, 1)})
    x0, xa, xb = ctx["vertex_sites"]
    a1 = interaction.amplitude_order_m(
        fock.symmetrize([fock.Entry(x0, "A", fock.START)]),
        fock.symmetrize([fock.Entry(xa, "A", fock.INTEGRATED),
                         fock.Entry(xb, "B", fock.INTEGRATED)]), model, 1, sector)
    chk.close("amplitude.order1", a1, ctx["vertex_oracle"], 1e-8)


CASES = (("dyson", case_dyson), ("unitarity", case_unitarity),
         ("fock_inner", case_fock_inner), ("permanents", case_permanents),
         ("amplitude", case_amplitude))

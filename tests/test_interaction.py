import logging
import tracemalloc
from collections import Counter
from itertools import product
from math import factorial
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from worldlineqm import interaction
from worldlineqm.errors import (
    ContractViolation,
    DomainError,
    LeakageError,
    SectorOverflowError,
)
from worldlineqm.fock import (
    Entry,
    FieldAlgebra,
    Generator,
    OperatorExpr,
    annihilator,
    apply_expr,
    creator_start,
    fock_inner,
    special_adjoint,
    symmetrize,
)
from worldlineqm.geometry import FourVector, ParticleType
from worldlineqm.interaction import (
    FINAL_ANTIPARTICLE,
    FINAL_PARTICLE,
    INITIAL_ANTIPARTICLE,
    INITIAL_PARTICLE,
    InteractionModel,
    ScatterLeg,
    ScatterSpec,
    Sector,
    VertexTerm,
    amplitude_order_m,
    dyson_truncated,
    external_line_factor,
    is_self_adjoint,
    represent,
    scatter_tree_2to2,
    self_energy_unregulated,
)
from worldlineqm.kernel import lattice_propagator, propagator_momentum
from worldlineqm.lattice import LatticeSpec
from worldlineqm.onshell import MomentumGrid

from fock_walk import walk_expr


SRC = Path(__file__).resolve().parents[1] / "src" / "worldlineqm"
SPEC22 = LatticeSpec((2, 2), (2.0, 2.0))
SPEC44 = LatticeSpec((4, 4), (4.0, 4.0))


def make_algebra(spec, n_max=8, eps=1e-2):
    model = InteractionModel.ab_model(1.0)
    return FieldAlgebra(spec, model.types, epsilon=eps, n_max=n_max)


def ab_sector(spec, b_max, n_max=None):
    alg = make_algebra(spec, n_max=n_max or (1 + b_max))
    return Sector(alg, {"A": (1, 1), "B": (0, b_max)})


# ---------------------------------------------------------------------------
# vertex operator


def test_vertex_maps_single_a_to_ab_pairs():
    sector = ab_sector(SPEC22, b_max=1)
    model = InteractionModel.ab_model(0.7)
    v, _ = represent(model.vertex_expr(SPEC22), sector)
    alg = sector.algebra
    table = lattice_propagator(SPEC22, 1.0, alg.epsilon)
    cv = SPEC22.cell_volume
    z = (0, 1)
    j = sector.state_index(symmetrize([Entry(z, "A", "start")]))
    column = v.toarray()[:, j]
    # hand enumeration: V |A@z> = g sum_y cv D_A(y - z) |A@y, B@y>
    expected = np.zeros_like(column)
    for y in np.ndindex(2, 2):
        target = symmetrize([Entry(y, "A", "start"), Entry(y, "B", "start")])
        diff = tuple((a - b) % 2 for a, b in zip(y, z))
        expected[sector.state_index(target)] = 0.7 * cv * table[diff]
    assert np.max(np.abs(column - expected)) < 1e-12


def test_vertex_scales_with_coupling_and_zero():
    sector = ab_sector(SPEC22, b_max=1)
    m1 = InteractionModel.ab_model(1.0)
    m2 = InteractionModel.ab_model(2.5)
    v1 = represent(m1.vertex_expr(SPEC22), sector)[0].toarray()
    v2 = represent(m2.vertex_expr(SPEC22), sector)[0].toarray()
    assert np.allclose(v2, 2.5 * v1, atol=1e-14)
    v0 = represent(InteractionModel.ab_model(0.0).vertex_expr(SPEC22), sector)[0]
    assert v0.count_nonzero() == 0


def test_self_adjointness_and_negative_control():
    sector = ab_sector(SPEC22, b_max=2, n_max=4)
    assert is_self_adjoint(InteractionModel.ab_model(1.3), sector)
    # dropping the conjugate term breaks ‡-self-adjointness
    lone = InteractionModel(
        (VertexTerm(("A", "B"), ("A",)),), 1.3,
        InteractionModel.ab_model(1.0).types)
    assert not is_self_adjoint(lone, sector)
    # a complex coupling conjugates under the special adjoint
    complex_coupling = InteractionModel(InteractionModel.ab_model(1.0).terms, 1.3 + 0.2j,
                                        InteractionModel.ab_model(1.0).types)
    assert not is_self_adjoint(complex_coupling, sector)


LONE = InteractionModel((VertexTerm(("A", "B"), ("A",)),), 1.3,
                        InteractionModel.ab_model(1.0).types)


@pytest.mark.parametrize("spec, b_max, n_max", [(SPEC44, 2, 8), (SPEC22, 6, 7)],
                         ids=["dyson4x4", "criterion14"])
def test_reused_adjoint_matches_engine_built_adjoint(spec, b_max, n_max):
    # dyson_truncated reuses rep(V) for the self-adjoint AB vertex; the
    # engine run on the literal V‡ expression stays the oracle
    sector = ab_sector(spec, b_max=b_max, n_max=n_max)
    model = InteractionModel.ab_model(1.0)
    adjoint = (-1j) * dyson_truncated(model, sector, 1).adjoint_coefficients[1]
    want, _ = interaction._sector_matrix(special_adjoint(model.vertex_expr(spec, 1.0)), sector)
    assert want.count_nonzero() > 0
    assert abs(adjoint - want).max() <= 1e-12 * abs(want).max()


@pytest.mark.parametrize("model, runs", [(InteractionModel.ab_model(1.0), 1), (LONE, 2)],
                         ids=["ab", "lone"])
def test_dyson_represents_the_adjoint_only_when_it_differs(monkeypatch, model, runs):
    calls = []
    engine = interaction._sector_matrix

    def counted(expr, sector):
        calls.append(expr)
        return engine(expr, sector)

    monkeypatch.setattr(interaction, "_sector_matrix", counted)
    dyson_truncated(model, ab_sector(SPEC22, b_max=2, n_max=4), 2)
    assert len(calls) == runs


# ---------------------------------------------------------------------------
# the count-vector representation against the object walk


def _represent_by_walk(expr, sector):
    """Reference: walk the expression over each basis FockState in turn."""
    n = sector.dimension
    matrix = np.zeros((n, n), dtype=complex)
    leaks = {}
    alg = sector.algebra
    headroom = max((sum(1 for g in gens if g.create) for _, gens in expr.terms),
                   default=0)
    relaxed = FieldAlgebra(alg.spec, alg.types, alg.epsilon, n_max=alg.n_max + headroom)
    index = {ket.entries: i for i, ket in enumerate(sector.basis)}
    for j, ket in enumerate(sector.basis):
        for s in walk_expr(expr, ket, relaxed):
            idx = index.get(s.entries)
            if idx is None:
                leaks.setdefault(j, s)
                continue
            matrix[idx, j] += s.coefficient
    return matrix, leaks


def assert_matches_walk(expr, sector):
    want, want_leaks = _represent_by_walk(expr, sector)
    matrix, leaks = represent(expr, sector)
    assert isinstance(matrix, sparse.csr_array) and matrix.shape == want.shape
    scale = np.max(np.abs(want)) if want.size else 0.0
    assert np.max(np.abs(matrix.toarray() - want), initial=0.0) <= 1e-12 * scale
    assert list(leaks) == list(want_leaks)
    for j, state in want_leaks.items():
        assert leaks[j].entries == state.entries
        assert abs(leaks[j].coefficient - state.coefficient) <= 1e-12 * abs(state.coefficient)
    return matrix, leaks


@pytest.mark.parametrize("model", [InteractionModel.ab_model(0.7), LONE],
                         ids=["ab", "lone"])
@pytest.mark.parametrize("adjoint", [False, True], ids=["V", "Vdag"])
def test_represent_matches_walk(model, adjoint):
    for sector in (ab_sector(SPEC22, b_max=2, n_max=4), ab_sector(SPEC44, b_max=1, n_max=3)):
        expr = model.vertex_expr(sector.algebra.spec)
        matrix, _ = assert_matches_walk(special_adjoint(expr) if adjoint else expr, sector)
        assert matrix.count_nonzero() > 0


def test_represent_matches_walk_on_leaking_sector():
    sector = ab_sector(SPEC22, b_max=1, n_max=2)
    model = InteractionModel.ab_model(1.0)
    expr = model.vertex_expr(SPEC22, coupling=1.0)
    _, leaks = assert_matches_walk(expr, sector)
    assert leaks
    _, walk_leaks = _represent_by_walk(expr, sector)
    j, state = next(iter(walk_leaks.items()))
    with pytest.raises(LeakageError) as info:
        dyson_truncated(model, sector, 3)
    assert str(info.value) == (
        f"V^3 escapes the sector from every basis state; first leak "
        f"from column {j} into {state.entries}")
    assert info.value.basis_state.entries == state.entries
    assert info.value.basis_state.coefficient == pytest.approx(state.coefficient, rel=1e-12)


@pytest.mark.parametrize("kinds", [("normal", "plain"), ("anti", "normal")])
def test_represent_matches_walk_for_on_shell_types(kinds):
    types = {"A": ParticleType("A", 1.0, kinds[0]), "B": ParticleType("B", 1.3, kinds[1])}
    model = InteractionModel(InteractionModel.ab_model(0.9).terms, 0.9, types)
    sector = Sector(FieldAlgebra(SPEC22, types, epsilon=1e-2, n_max=3),
                    {"A": (1, 1), "B": (0, 2)})
    expr = model.vertex_expr(SPEC22)
    assert_matches_walk(expr, sector)
    assert_matches_walk(special_adjoint(expr), sector)


def test_represent_matches_walk_with_integrated_and_start_generators():
    # cell volume 1.5, so the start annihilator's lattice delta is not 1
    sector = ab_sector(LatticeSpec((2, 2), (3.0, 2.0)), b_max=2, n_max=4)
    x, y = (0, 1), (1, 1)
    start_annihilator = Generator(False, True, x, "A")
    integrated_creator = Generator(True, False, y, "B")
    expr = OperatorExpr((
        (0.5 + 0.25j, (creator_start(y, "A"), start_annihilator)),
        (1.5, (integrated_creator, annihilator(x, "B"))),
        (-2.0, (creator_start(x, "B"), integrated_creator, start_annihilator)),
    ))
    matrix, leaks = assert_matches_walk(expr, sector)
    assert matrix.count_nonzero() > 0
    assert any(e.tag == "integrated" for s in leaks.values() for e in s.entries)
    # contracting against an integrated entry is undefined on both paths
    bad = OperatorExpr.from_string(1.0, (annihilator(x, "B"), integrated_creator))
    with pytest.raises(ContractViolation, match="integrated-label"):
        _represent_by_walk(bad, sector)
    with pytest.raises(ContractViolation, match="integrated-label"):
        represent(bad, sector)


def test_represent_errors_match_walk():
    overflowing = ab_sector(SPEC22, b_max=3, n_max=1)
    expr = InteractionModel.ab_model(1.0).vertex_expr(SPEC22)
    with pytest.raises(SectorOverflowError) as walk:
        _represent_by_walk(expr, overflowing)
    with pytest.raises(SectorOverflowError) as arithmetic:
        represent(expr, overflowing)
    assert str(arithmetic.value) == str(walk.value)
    sector = ab_sector(SPEC22, b_max=1)
    unknown = OperatorExpr.from_string(1.0, (creator_start((0, 0), "C"),
                                             annihilator((0, 0), "A")))
    for build in (_represent_by_walk, represent):
        with pytest.raises(ContractViolation, match="unknown particle type 'C'"):
            build(unknown, sector)
    off_lattice = OperatorExpr.from_string(1.0, (annihilator((2, 0), "A"),))
    with pytest.raises(ContractViolation, match="outside the lattice"):
        represent(off_lattice, sector)


@pytest.mark.parametrize("content", [{"A": (-1, 1)}, {"A": (2, 1)}, {"B": (0, -1)}])
def test_sector_rejects_bad_content_bounds(content):
    with pytest.raises(ContractViolation, match="0 <= min <= max"):
        Sector(make_algebra(SPEC22), content)


def test_labels_the_algebra_does_not_know_are_rejected():
    alg = make_algebra(SPEC22, n_max=3)
    with pytest.raises(ContractViolation, match="unknown particle type 'C'"):
        Sector(alg, {"A": (1, 1), "C": (0, 1)})
    sector = Sector(alg, {"A": (1, 1), "B": (0, 1)})
    spectator = symmetrize([Entry((0, 0), "A", "start"), Entry((1, 1), "C", "start")])
    out_state = symmetrize([Entry((1, 0), "A", "integrated"), Entry((1, 1), "C", "integrated")])
    creator = OperatorExpr.from_string(1.0, (creator_start((0, 1), "B"),))
    for use in (lambda: apply_expr(creator, spectator, alg),
                lambda: sector.state_index(spectator),
                lambda: amplitude_order_m(spectator, out_state,
                                          InteractionModel.ab_model(1.0), 1, sector)):
        with pytest.raises(ContractViolation, match="unknown particle type 'C'"):
            use()


def test_state_index_rejects_states_outside_the_basis():
    sector = ab_sector(SPEC22, b_max=1)
    assert sector.state_index(symmetrize([Entry((1, 0), "A", "start")], 2.0)) == \
        sector.state_index(symmetrize([Entry((1, 0), "A", "start")]))
    for entries in ([Entry((1, 0), "A", "integrated")],
                    [Entry((1, 0), "A", "start"), Entry((1, 0), "B", "start"),
                     Entry((0, 0), "B", "start")]):
        with pytest.raises(ContractViolation, match="not a sector basis element"):
            sector.state_index(symmetrize(entries))


def _basis_by_enumeration(shape, content):
    """Entry tuples of every start-labeled multiset within the content bounds."""
    sites = list(np.ndindex(*shape))
    per_label = [[[Entry(s, label, "start") for s in multiset]
                  for k in range(lo, hi + 1)
                  for multiset in {tuple(sorted(p)) for p in product(sites, repeat=k)}]
                 for label, (lo, hi) in content.items()]
    return Counter(symmetrize(sum(parts, [])).entries for parts in product(*per_label))


@pytest.mark.parametrize("spec, content", [
    (SPEC22, {"A": (1, 1), "B": (0, 2)}),
    (SPEC44, {"A": (1, 1), "B": (0, 2)}),
    (SPEC22, {"B": (1, 2)}),
    (SPEC22, {"A": (1, 1), "B": (0, 1), "C": (0, 2)}),
    (SPEC22, {}),
], ids=["ab_2x2", "ab_4x4", "b_min_1", "three_labels", "vacuum"])
def test_sector_basis_matches_enumeration(spec, content):
    types = {label: ParticleType(label, 1.0, "plain") for label in "ABC"}
    sector = Sector(FieldAlgebra(spec, types, epsilon=1e-2, n_max=8), content)
    dyson_truncated(InteractionModel.ab_model(1.0), sector, 1)
    assert "basis" not in vars(sector)  # neither step decodes the basis
    assert np.array_equal(sector.lookup(sector.counts), np.arange(sector.dimension))
    assert Counter(s.entries for s in sector.basis) == _basis_by_enumeration(spec.shape, content)
    assert np.array_equal(sector.algebra.encode(sector.basis), sector.counts)
    assert all(sector.state_index(state) == i for i, state in enumerate(sector.basis))


# ---------------------------------------------------------------------------
# dyson series and truncated ‡-unitarity


def test_dyson_identity_at_order_zero():
    sector = ab_sector(SPEC22, b_max=1)
    g = dyson_truncated(InteractionModel.ab_model(1.0), sector, 0)
    assert np.allclose(g.matrix(0.3).toarray(), np.eye(sector.dimension))


def test_unitarity_residual_vanishes_per_order():
    sector = ab_sector(SPEC22, b_max=6, n_max=7)
    model = InteractionModel.ab_model(1.0)
    dy = dyson_truncated(model, sector, 3)
    clean = dy.residual_clean
    assert clean.any()
    orders = dy.unitarity_residual_orders()
    scale = np.max(np.abs(dy.coefficients[1]))
    for k in range(0, 4):
        assert np.max(np.abs(orders[k][:, clean])) < 1e-12 * max(scale, 1.0) ** k


def test_unitarity_residual_slope_four():
    sector = ab_sector(SPEC22, b_max=6, n_max=7)
    model = InteractionModel.ab_model(1.0)
    dy = dyson_truncated(model, sector, 3)
    r1 = dy.unitarity_residual_norm(1e-2)
    r2 = dy.unitarity_residual_norm(1e-3)
    slope = (np.log10(r1) - np.log10(r2))
    assert abs(slope - 4.0) < 0.1


def test_unitarity_residual_slope_four_at_small_coupling():
    # the norm sums the residual series, whose order-0 coefficient is exactly
    # zero, so the g^4 law holds far below the roundoff of the identity
    sector = ab_sector(SPEC22, b_max=6, n_max=7)
    dy = dyson_truncated(InteractionModel.ab_model(1.0), sector, 3)
    slope = np.log10(dy.unitarity_residual_norm(1e-4)) - np.log10(dy.unitarity_residual_norm(1e-5))
    assert abs(slope - 4.0) < 0.01


def test_unitarity_residual_norm_matches_the_direct_product():
    # at g = 0.1 the residual is far above roundoff, so the dense product
    # G‡(g) G(g) - 1 on the clean columns is an oracle for the series sum
    sector = ab_sector(SPEC22, b_max=6, n_max=7)
    dy = dyson_truncated(InteractionModel.ab_model(1.0), sector, 3)
    g = 0.1
    gdag = sum(g ** m * c.toarray() for m, c in dy.adjoint_coefficients.items())
    direct = (gdag @ dy.matrix(g).toarray() - np.eye(sector.dimension))[:, dy.residual_clean]
    assert dy.unitarity_residual_norm(g) == pytest.approx(np.linalg.norm(direct), rel=1e-9)


def test_unitarity_on_4x4_sector_at_order_one():
    sector = ab_sector(SPEC44, b_max=2, n_max=8)
    assert sector.dimension == 2448
    dy = dyson_truncated(InteractionModel.ab_model(1.0), sector, 1)
    clean = dy.residual_clean
    assert clean.sum() == 16
    orders = dy.unitarity_residual_orders()
    assert all(sparse.issparse(o) and o.shape == (2448, 2448) for o in orders.values())
    assert max(np.max(np.abs(orders[k][:, clean])) for k in (0, 1)) < 1e-12
    slope = np.log10(dy.unitarity_residual_norm(1e-2)) - np.log10(dy.unitarity_residual_norm(1e-3))
    assert abs(slope - 2.0) < 0.1


def test_sector_matrices_hold_one_term_of_images_at_a_time():
    # V has 32 terms on 4x4; their image rows on the 2448-state sector take
    # 17 MB together; holding them all at once peaked near 49 MB, one term
    # at a time peaks near 11 MB
    sector = ab_sector(SPEC44, b_max=2, n_max=8)
    model = InteractionModel.ab_model(1.0)
    tracemalloc.start()
    try:
        dyson_truncated(model, sector, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20


def test_unitarity_on_4x4_sector_with_three_b_at_order_one():
    # dimension 15 504: the dense residual orders alone would be 3.8 GB each
    sector = ab_sector(SPEC44, b_max=3, n_max=8)
    assert sector.dimension == 15504
    dy = dyson_truncated(InteractionModel.ab_model(1.0), sector, 1)
    clean = dy.residual_clean
    assert clean.sum() == 272
    orders = dy.unitarity_residual_orders()
    assert all(sparse.issparse(o) for o in orders.values())
    assert max(np.max(np.abs(orders[k][:, clean])) for k in (0, 1)) < 1e-12
    slope = np.log10(dy.unitarity_residual_norm(1e-2)) - np.log10(dy.unitarity_residual_norm(1e-3))
    assert abs(slope - 2.0) < 0.1


def test_unitarity_negative_control():
    sector = ab_sector(SPEC22, b_max=6, n_max=7)
    lone = InteractionModel(
        (VertexTerm(("A", "B"), ("A",)),), 1.0,
        InteractionModel.ab_model(1.0).types)
    dy = dyson_truncated(lone, sector, 1)
    # order-g coefficient of G‡G - 1 is i(V‡ - V), nonzero here
    orders = dy.unitarity_residual_orders()
    assert np.max(np.abs(orders[1][:, dy.residual_clean])) > 1e-6


def _lattice_shift(sector, axis):
    """The unit lattice shift along axis, as a permutation of the sector basis."""
    rows = sector.counts.reshape(sector.dimension, -1, *sector.algebra.spec.shape)
    target = sector.lookup(np.roll(rows, 1, axis=2 + axis).reshape(sector.counts.shape))
    assert np.array_equal(np.sort(target), np.arange(sector.dimension))
    n = sector.dimension
    return sparse.csr_array((np.ones(n), (target, np.arange(n))), shape=(n, n))


@pytest.mark.parametrize("kinds, axes", [
    (("plain", "plain"), (0, 1)),
    (("normal", "plain"), (1,)),
    (("anti", "normal"), (1,)),
], ids=["plain", "normal", "anti"])
def test_vertex_commutes_with_lattice_translations(kinds, axes):
    # the pairing tables depend on x - y only, so V and V‡ commute exactly
    # with every periodic shift; the frequency-part tables are not periodic
    # in time, so the time shift of a "normal" or "anti" type must fail
    types = {"A": ParticleType("A", 1.0, kinds[0]), "B": ParticleType("B", 1.3, kinds[1])}
    model = InteractionModel(InteractionModel.ab_model(0.9).terms, 0.9, types)
    sector = Sector(FieldAlgebra(SPEC44, types, epsilon=1e-2, n_max=3),
                    {"A": (1, 1), "B": (0, 2)})
    expr = model.vertex_expr(SPEC44)
    for op in (expr, special_adjoint(expr)):
        v, _ = represent(op, sector)
        for axis in (0, 1):
            t = _lattice_shift(sector, axis)
            commutator = abs(t @ v - v @ t).max()
            if axis in axes:
                assert commutator == 0.0
            else:
                assert commutator > 0.5 * abs(v).max()


def test_dyson_leakage_error():
    sector = ab_sector(SPEC22, b_max=1, n_max=2)
    with pytest.raises(LeakageError):
        dyson_truncated(InteractionModel.ab_model(1.0), sector, 3)


def test_empty_vertex_warns(caplog):
    alg = make_algebra(SPEC22, n_max=2)
    vacuum_only = Sector(alg, {"A": (0, 0), "B": (0, 0)})
    with caplog.at_level(logging.WARNING, logger="worldlineqm"):
        dyson_truncated(InteractionModel.ab_model(1.0), vacuum_only, 1)
    assert [r.getMessage() for r in caplog.records] == ["vertex operator is empty on this sector"]
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="worldlineqm"):
        dyson_truncated(InteractionModel.ab_model(1.0), ab_sector(SPEC22, b_max=1), 1)
    assert not caplog.records


def test_interaction_has_no_dense_site():
    source = (SRC / "interaction.py").read_text()
    assert "toarray" not in source and "todense" not in source


def test_order_sum_matches_dyson_matrix_element():
    # sum_{m<=K} amplitude_order_m == <out| dyson_truncated(K) |in>
    sector = ab_sector(SPEC22, b_max=3, n_max=4)
    alg = sector.algebra
    g = 0.7
    model = InteractionModel.ab_model(g)
    in_state = symmetrize([Entry((0, 1), "A", "start")])
    out_sites = symmetrize([Entry((1, 0), "A", "integrated")])
    k_max = 3
    total = sum(amplitude_order_m(in_state, out_sites, model, m, sector)
                for m in range(k_max + 1))
    dy = dyson_truncated(model, sector, k_max)
    vec = np.zeros(sector.dimension, dtype=complex)
    vec[sector.state_index(in_state)] = in_state.coefficient
    image = dy.matrix(g) @ vec
    element = sum(c * amplitude_order_m(basis, out_sites, model, 0, sector)
                  for c, basis in zip(image, sector.basis) if c != 0)
    assert abs(total - element) < 1e-12 * max(abs(total), 1.0)


# ---------------------------------------------------------------------------
# order-m amplitudes


def _amplitude_by_walk(in_state, out_state, model, m_order, alg):
    """Reference: walk V^m over every branch, unmerged, then pair each image."""
    expr = model.vertex_expr(alg.spec)
    states = [in_state]
    for _ in range(m_order):
        states = [t for s in states for t in walk_expr(expr, s, alg)]
    total = sum((fock_inner(out_state, s, alg) for s in states), 0j)
    return (-1j) ** m_order / factorial(m_order) * total


@pytest.mark.parametrize("m_order", [0, 1, 2, 3])
def test_amplitude_order_m_matches_walk(m_order):
    # content B <= 1, n_max 5: the order-2 and order-3 intermediate images
    # with two or more B particles lie outside the sector's content bounds
    sector = ab_sector(SPEC22, b_max=1, n_max=5)
    alg = sector.algebra
    model = InteractionModel.ab_model(0.8)
    ket = lambda *entries, c=1.0: symmetrize([Entry(s, t, "start") for s, t in entries], c)
    bra = lambda *entries: symmetrize([Entry(s, t, "integrated") for s, t in entries])
    cases = (
        (ket(((0, 1), "A")), bra(((1, 0), "A"))),
        (ket(((0, 1), "A")), bra(((1, 1), "A"), ((0, 0), "B"))),
        (ket(((1, 0), "A"), ((1, 1), "B"), c=0.5 - 0.2j),
         bra(((0, 0), "A"), ((1, 1), "B"), ((0, 1), "B"))),
    )
    nonzero = 0
    for in_state, out_state in cases:
        want = _amplitude_by_walk(in_state, out_state, model, m_order, alg)
        got = amplitude_order_m(in_state, out_state, model, m_order, sector)
        assert abs(got - want) <= 1e-12 * abs(want)
        nonzero += want != 0
    assert nonzero >= 1


def wick_vacuum(string, alg):
    """Independent Wick evaluator: sum over matchings of each annihilator to a
    creator on its right, with the two-point factor and type delta."""
    def recurse(ops):
        if not ops:
            return 1.0 + 0j
        kind, site, label = ops[0]
        rest = ops[1:]
        if kind == "c":
            return 0j  # leftmost creator cannot contract leftward on vacuum bra
        total = 0j
        for i, (k2, site2, label2) in enumerate(rest):
            if k2 != "c" or label2 != label:
                continue
            factor = alg.two_point(label, site, site2)
            remaining = rest[:i] + rest[i + 1:]
            total += factor * recurse(remaining)
        return total

    return recurse(tuple(string))


def test_order_zero_amplitude_is_pairing():
    sector = ab_sector(SPEC44, b_max=1, n_max=3)
    alg = sector.algebra
    model = InteractionModel.ab_model(0.9)
    in_state = symmetrize([Entry((1, 2), "A", "start")])
    out_state = symmetrize([Entry((3, 0), "A", "integrated")])
    a0 = amplitude_order_m(in_state, out_state, model, 0, sector)
    table = lattice_propagator(SPEC44, 1.0, alg.epsilon)
    assert a0 == pytest.approx(table[(2, 2)], rel=1e-12)


def test_first_order_vertex_against_spectral_convolution():
    sector = ab_sector(SPEC44, b_max=1, n_max=3)
    alg = sector.algebra
    g = 0.8
    eps = alg.epsilon
    model = InteractionModel.ab_model(g)
    x0, xa, xb = (1, 2), (3, 0), (0, 3)
    in_state = symmetrize([Entry(x0, "A", "start")])
    out_state = symmetrize([Entry(xa, "A", "integrated"),
                            Entry(xb, "B", "integrated")])
    a1 = amplitude_order_m(in_state, out_state, model, 1, sector)

    # spectral oracle: work entirely in momentum space, where the vertex sum
    # becomes the mod-grid momentum Kronecker delta
    n0, n1 = SPEC44.shape
    coords = [SPEC44.axis_coordinates(mu) for mu in range(2)]
    paxes = [SPEC44.momentum_axis(mu) for mu in range(2)]
    vol = float(np.prod(SPEC44.extents))

    def dprop(idx, mass):
        psq = -paxes[0][idx[0]] ** 2 + paxes[1][idx[1]] ** 2
        return -1j / (psq + mass * mass - 1j * eps)

    def phase(idx, site, sign):
        # sign * p . x with the signed pairing
        val = (-paxes[0][idx[0]] * coords[0][site[0]]
               + paxes[1][idx[1]] * coords[1][site[1]])
        return np.exp(1j * sign * val)

    total = 0j
    for p in np.ndindex(n0, n1):
        for q in np.ndindex(n0, n1):
            r = ((p[0] + q[0]) % n0, (p[1] + q[1]) % n1)
            total += (dprop(p, 1.0) * dprop(q, 1.0) * dprop(r, 1.0)
                      * phase(p, xa, +1) * phase(q, xb, +1) * phase(r, x0, -1))
    lattice_sum = total * (n0 * n1) / vol ** 3 * SPEC44.cell_volume
    oracle = -1j * g * lattice_sum
    assert abs(a1 - oracle) < 1e-8 * abs(oracle)


def test_second_order_self_energy_insertion_against_wick():
    sector = ab_sector(SPEC22, b_max=2, n_max=4)
    alg = sector.algebra
    g = 0.6
    model = InteractionModel.ab_model(g)
    x_in, x_out = (0, 0), (1, 1)
    in_state = symmetrize([Entry(x_in, "A", "start")])
    out_state = symmetrize([Entry(x_out, "A", "integrated")])
    a2 = amplitude_order_m(in_state, out_state, model, 2, sector)

    # independent Wick enumeration of <0| psi(x_out) (V^2/2) psidag(x_in) |0>
    cv = SPEC22.cell_volume
    total = 0j
    terms = [("c", "A"), ("cc", "AB")]  # term1: psidag_A psi_B psi_A; term2: psidag_A psidag_B psi_A
    def vertex_strings(site):
        return [
            [("c", site, "A"), ("a", site, "B"), ("a", site, "A")],
            [("c", site, "A"), ("c", site, "B"), ("a", site, "A")],
        ]
    for y in np.ndindex(2, 2):
        for z in np.ndindex(2, 2):
            for sy in vertex_strings(y):
                for sz in vertex_strings(z):
                    string = ([("a", x_out, "A")] + sy + sz
                              + [("c", x_in, "A")])
                    total += wick_vacuum(string, alg)
    oracle = (-1j) ** 2 / 2.0 * g * g * cv * cv * total
    assert abs(a2 - oracle) < 1e-10 * max(abs(oracle), 1.0)


def test_first_order_two_lines_spectator_structure():
    # <A@u, A@v, B@w| V |A@a, A@b> contains the free-spectator factor
    sector = ab_sector(SPEC22, b_max=1, n_max=3)
    alg = Sector(FieldAlgebra(SPEC22, InteractionModel.ab_model(1.0).types,
                              epsilon=1e-2, n_max=3),
                 {"A": (2, 2), "B": (0, 1)})
    g = 1.1
    model = InteractionModel.ab_model(g)
    a, b, u, v, w = (0, 0), (1, 0), (0, 1), (1, 1), (0, 1)
    in_state = symmetrize([Entry(a, "A", "start"), Entry(b, "A", "start")])
    out_state = symmetrize([Entry(u, "A", "integrated"),
                            Entry(v, "A", "integrated"),
                            Entry(w, "B", "integrated")])
    a1 = amplitude_order_m(in_state, out_state, model, 1, alg)
    cv = SPEC22.cell_volume
    dA = lambda s, t: alg.algebra.two_point("A", s, t)
    dB = lambda s, t: alg.algebra.two_point("B", s, t)
    oracle = 0j
    for y in np.ndindex(2, 2):
        # created pair (A@y, B@y) with one incoming line contracted at y;
        # permanent over the two outgoing A's against {y, surviving in-line}
        for hit, keep in ((a, b), (b, a)):
            oracle += cv * dA(y, hit) * dB(w, y) * (
                dA(u, y) * dA(v, keep) + dA(v, y) * dA(u, keep))
    oracle *= -1j * g
    assert abs(a1 - oracle) < 1e-10 * abs(oracle)


# ---------------------------------------------------------------------------
# external lines and tree scattering


def test_external_line_factor_values():
    p = (0.6,)
    e = np.sqrt(0.36 + 1.0)
    origin = FourVector((0.0, 0.0))
    base = (2 * np.pi) ** (-0.5) * (2 * e) ** (-0.5)
    assert external_line_factor(FINAL_PARTICLE, p, 1.0, origin) == pytest.approx(base)
    x = FourVector((0.7, -0.3))
    fp = external_line_factor(FINAL_PARTICLE, p, 1.0, x)
    ip = external_line_factor(INITIAL_PARTICLE, p, 1.0, x)
    assert fp == pytest.approx(np.conj(ip), rel=1e-13)
    fa = external_line_factor(FINAL_ANTIPARTICLE, p, 1.0, x)
    ia = external_line_factor(INITIAL_ANTIPARTICLE, p, 1.0, x)
    assert fa == pytest.approx(np.conj(ia), rel=1e-13)
    assert abs(fp) == pytest.approx(base, rel=1e-13)  # pure phase in x


def test_scatter_tree_2to2_hand_assembly():
    grid = MomentumGrid(1, 9, 0.5)
    g, eps, m = 0.9, 1e-3, 1.0
    model = InteractionModel.ab_model(g, mass_a=m, mass_b=1.5)
    p1, p2, q1, q2 = 1.0, -0.5, 0.5, 0.0
    spec = ScatterSpec(
        (ScatterLeg((p1,), "A"), ScatterLeg((p2,), "A")),
        (ScatterLeg((q1,), "A"), ScatterLeg((q2,), "A")),
        grid)
    amp = scatter_tree_2to2(spec, model, eps)

    e = lambda p: np.sqrt(p * p + m * m)
    def prop_b(pa, pb):
        return propagator_momentum(FourVector((e(pa) - e(pb), pa - pb)), 1.5, eps)
    ext = np.prod([(2 * np.pi) ** (-0.5) * (2 * e(p)) ** (-0.5)
                   for p in (p1, p2, q1, q2)])
    oracle = g * g * (prop_b(p1, q1) + prop_b(p1, q2)) * ext
    assert abs(amp - oracle) < 1e-10 * abs(oracle)


def test_scatter_exchange_symmetry_and_zero_coupling():
    grid = MomentumGrid(1, 9, 0.5)
    model = InteractionModel.ab_model(0.7)
    legs_in = (ScatterLeg((1.0,), "A"), ScatterLeg((-0.5,), "A"))
    spec_a = ScatterSpec(legs_in, (ScatterLeg((0.5,), "A"), ScatterLeg((0.0,), "A")), grid)
    spec_b = ScatterSpec(legs_in, (ScatterLeg((0.0,), "A"), ScatterLeg((0.5,), "A")), grid)
    assert scatter_tree_2to2(spec_a, model, 1e-3) == pytest.approx(
        scatter_tree_2to2(spec_b, model, 1e-3), rel=1e-13)
    zero = InteractionModel.ab_model(0.0)
    assert scatter_tree_2to2(spec_a, zero, 1e-3) == 0j


def test_scatter_conservation_and_grid_guards():
    grid = MomentumGrid(1, 9, 0.5)
    model = InteractionModel.ab_model(0.7)
    non_conserving = ScatterSpec(
        (ScatterLeg((1.0,), "A"), ScatterLeg((0.0,), "A")),
        (ScatterLeg((0.5,), "A"), ScatterLeg((0.0,), "A")), grid)
    assert scatter_tree_2to2(non_conserving, model, 1e-3) == 0j
    with pytest.raises(ContractViolation):
        ScatterSpec((ScatterLeg((0.77,), "A"),), (), grid)


def test_scatter_rejects_legs_of_a_line_the_model_does_not_conserve():
    # ab_model has no B-B vertex, so B B -> B B has no tree-level exchange;
    # it used to return 1.91e-6 - 2.68e-3j
    momenta = [(1.0,), (-0.5,), (0.5,), (0.0,)]
    legs = [ScatterLeg(p, "B") for p in momenta]
    spec = ScatterSpec(tuple(legs[:2]), tuple(legs[2:]), MomentumGrid(1, 9, 0.5))
    with pytest.raises(ContractViolation, match="'B' is not a line every vertex conserves"):
        scatter_tree_2to2(spec, InteractionModel.ab_model(0.9, 1.0, 1.5), 1e-3)


@pytest.mark.parametrize("leg", range(4))
def test_scatter_rejects_antiparticle_legs(leg):
    # the A A -> A A amplitude has no antiparticle legs; a sign -1 leg used
    # to get the particle amplitude silently
    momenta = [(1.0,), (-0.5,), (0.5,), (0.0,)]
    legs = [ScatterLeg(p, "A", -1 if i == leg else +1) for i, p in enumerate(momenta)]
    spec = ScatterSpec(tuple(legs[:2]), tuple(legs[2:]), MomentumGrid(1, 9, 0.5))
    with pytest.raises(ContractViolation, match="antiparticle"):
        scatter_tree_2to2(spec, InteractionModel.ab_model(0.7), 1e-3)


def test_crossing_collapse_doubles_single_term():
    grid = MomentumGrid(1, 9, 0.5)
    g, eps, m = 0.9, 1e-3, 1.0
    model = InteractionModel.ab_model(g, mass_a=m, mass_b=1.5)
    # p1' = p2': the two exchange terms coincide
    spec = ScatterSpec(
        (ScatterLeg((0.5,), "A"), ScatterLeg((0.5,), "A")),
        (ScatterLeg((0.5,), "A"), ScatterLeg((0.5,), "A")), grid)
    amp = scatter_tree_2to2(spec, model, eps)
    e = np.sqrt(0.25 + 1.0)
    single = propagator_momentum(FourVector((0.0, 0.0)), 1.5, eps)
    ext = ((2 * np.pi) ** (-0.5) * (2 * e) ** (-0.5)) ** 4
    assert amp == pytest.approx(2 * g * g * single * ext, rel=1e-12)


# ---------------------------------------------------------------------------
# unregulated self-energy


def test_self_energy_d2_exact_value():
    res = self_energy_unregulated(FourVector((0.0, 0.0)), 1.0, 1.0, 2, np.inf)
    assert abs(res.value.real - np.pi) / np.pi < 1e-6
    assert res.error < 1e-6


def test_self_energy_d2_cutoff_convergence():
    a = self_energy_unregulated(FourVector((0.0, 0.0)), 1.0, 1.0, 2, 100.0)
    b = self_energy_unregulated(FourVector((0.0, 0.0)), 1.0, 1.0, 2, 200.0)
    assert abs(a.value.real - b.value.real) / b.value.real < 1e-3


def test_self_energy_d4_log_divergence():
    p = FourVector((0.0, 0.0, 0.0, 0.0))
    values = [self_energy_unregulated(p, 1.0, 1.0, 4, lam).value.real
              for lam in (100.0, 200.0, 400.0, 800.0)]
    increments = np.diff(values)
    expected = 2 * np.pi ** 2 * np.log(2.0)  # large-k measure 2 pi^2 k^3 dk / k^4
    for inc in increments:
        assert abs(inc - expected) / expected < 5e-2
    spread = (increments.max() - increments.min()) / increments.mean()
    assert spread < 5e-2


def test_self_energy_offcenter_momentum():
    # finite p just shifts the convergent D=2 value; sanity against a
    # brute 2-d cartesian quadrature on a modest disk
    p = FourVector((0.0, 0.9))
    res = self_energy_unregulated(p, 1.0, 1.2, 2, np.inf)
    from scipy import integrate as si
    inner = lambda ky, kx: 1.0 / ((kx * kx + ky * ky + 1.0)
                                  * (kx * kx + (ky - 0.9) ** 2 + 1.44))
    brute, _ = si.dblquad(inner, -60.0, 60.0, -60.0, 60.0, epsabs=1e-9)
    assert abs(res.value.real - brute) / brute < 1e-3



def _feynman_parameter_d2(p_norm, m_a, m_b, with_momentum=True):
    # pi Int_0^1 dx / Delta(x), Delta = x(1-x) p^2 + x m_a^2 + (1-x) m_b^2
    from scipy import integrate as si
    psq = p_norm * p_norm if with_momentum else 0.0
    value, _ = si.quad(lambda x: 1.0 / (x * (1 - x) * psq + x * m_a ** 2 + (1 - x) * m_b ** 2),
                       0.0, 1.0, epsabs=0.0, epsrel=1e-13)
    return np.pi * value


@pytest.mark.parametrize("m_a, m_b", [(1.0, 1.5), (0.7, 2.0), (1.3, 1.3)])
@pytest.mark.parametrize("p_norm", [0.4, 0.9, 3.0])
def test_self_energy_d2_matches_the_feynman_parameter_integral(p_norm, m_a, m_b):
    res = self_energy_unregulated(FourVector((0.0, p_norm)), m_a, m_b, 2, np.inf)
    assert res.value.imag == 0.0
    oracle = _feynman_parameter_d2(p_norm, m_a, m_b)
    assert abs(res.value.real - oracle) <= 1e-12 * oracle
    # negative control: the oracle without its x(1-x) p^2 term misses, by
    # 1.46e-2 at the closest case (|p| = 0.4, masses 0.7 and 2)
    wrong = _feynman_parameter_d2(p_norm, m_a, m_b, with_momentum=False)
    assert abs(res.value.real - wrong) >= 1.4e-2 * wrong


def test_self_energy_cutoff_guard():
    with pytest.raises(ContractViolation):
        self_energy_unregulated(FourVector((0.0, 0.0)), 1.0, 1.0, 2, 5.0)


def test_self_energy_d4_needs_a_finite_cutoff():
    # the quadrature gave 3492.77 with error 4.4e-8 at cutoff inf, while
    # cutoffs 1e3, 1e4 and 1e6 give 126, 172 and 263
    with pytest.raises(DomainError, match="needs a finite cutoff"):
        self_energy_unregulated(FourVector((0.0,) * 4), 1.0, 1.0, 4, np.inf)

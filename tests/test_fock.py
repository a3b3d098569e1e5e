import tracemalloc
from itertools import permutations, product
from math import factorial
from pathlib import Path

import numpy as np
import pytest

from worldlineqm import fock
from worldlineqm.errors import ContractViolation, SectorOverflowError
from worldlineqm.fock import (
    VACUUM,
    Entry,
    FieldAlgebra,
    FockState,
    Generator,
    OperatorExpr,
    annihilator,
    apply_expr,
    apply_generator,
    commutator_value,
    creator_start,
    dual_state,
    fock_inner,
    permanent_naive,
    permanent_ryser,
    special_adjoint,
    symmetrize,
)
from worldlineqm.geometry import ParticleType
from worldlineqm.kernel import lattice_onshell_part, lattice_propagator
from worldlineqm.lattice import LatticeSpec

from fock_walk import walk_expr, walk_generator, walk_string

SRC = Path(__file__).resolve().parents[1] / "src" / "worldlineqm"

SPEC = LatticeSpec((4, 4), (4.0, 4.0))
TYPES = {
    "A": ParticleType("A", 1.0, "plain"),
    "B": ParticleType("B", 1.3, "plain"),
    "n+": ParticleType("n+", 1.0, "normal"),
    "n-": ParticleType("n-", 1.0, "anti"),
}


def algebra(eps=1e-2, n_max=8):
    return FieldAlgebra(SPEC, TYPES, epsilon=eps, n_max=n_max)


def onshell_at(table, spec, x, y):
    """Entry of a lattice_onshell_part table at the displacement x - y."""
    u = np.subtract(x, y)
    return table[(u[0] + spec.shape[0] - 1, *(u[1:] % spec.shape[1:]))]


def start_entries(*sites, label="A"):
    return tuple(Entry(s, label, "start") for s in sites)


def integrated_entries(*sites, label="A"):
    return tuple(Entry(s, label, "integrated") for s in sites)


# ---------------------------------------------------------------------------
# states


def test_symmetrize_single_and_permutations():
    e = Entry((0, 1), "A", "start")
    assert symmetrize([e]).entries == (e,)
    entries = start_entries((0, 0), (1, 2), (3, 1))
    base = symmetrize(entries)
    for perm in permutations(entries):
        assert symmetrize(perm).entries == base.entries


def test_symmetrize_boson_doubling_norm():
    alg = algebra()
    x = (1, 1)
    ket = symmetrize(start_entries(x, x))
    bra = symmetrize(integrated_entries(x, x))
    d0 = alg.two_point("A", x, x)
    assert fock_inner(bra, ket, alg) == pytest.approx(2 * d0 * d0, rel=1e-12)


# ---------------------------------------------------------------------------
# permanents


def test_ryser_against_naive():
    rng = np.random.default_rng(3)
    for n in range(1, 8):
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a = permanent_naive(m)
        b = permanent_ryser(m)
        assert abs(a - b) / abs(a) < 1e-12
    empty = np.zeros((0, 0))  # the empty product: Ryser's subset sum alone gives 0
    assert permanent_naive(empty) == permanent_ryser(empty) == 1.0


def _ryser_gray_loop(matrix):
    """Reference: Ryser's formula with one Gray-code subset update per step."""
    n = matrix.shape[0]
    row_sums = np.zeros(n, dtype=complex)
    total, gray = 0j, 0
    for k in range(1, 2 ** n):
        new_gray = k ^ (k >> 1)
        j = (gray ^ new_gray).bit_length() - 1
        row_sums += matrix[:, j] if new_gray > gray else -matrix[:, j]
        gray = new_gray
        total += (-1) ** (n - bin(gray).count("1")) * np.prod(row_sums)
    return total


def test_ryser_against_gray_code_loop_and_closed_forms():
    rng = np.random.default_rng(11)
    for n in (1, 5, 9, 11):
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        want = _ryser_gray_loop(m)
        assert abs(permanent_ryser(m) - want) < 1e-12 * np.prod(np.linalg.norm(m, axis=1))
    n = 14
    u = rng.uniform(0.5, 1.5, n) * np.exp(1j * rng.uniform(-0.3, 0.3, n))
    v = rng.uniform(0.5, 1.5, n) * np.exp(1j * rng.uniform(-0.3, 0.3, n))
    exact = factorial(n) * np.prod(u) * np.prod(v)
    assert abs(permanent_ryser(np.outer(u, v)) - exact) < 1e-9 * abs(exact)
    assert permanent_ryser(np.ones((n, n), dtype=int)) == pytest.approx(factorial(n), rel=1e-9)
    with pytest.raises(ContractViolation, match="n <= 16"):
        permanent_ryser(np.ones((17, 17)))


def _permanent_by_loop(matrix):
    """Reference: one Python product per permutation of the columns."""
    n = matrix.shape[0]
    total = 0j
    for cols in permutations(range(n)):
        term = 1.0 + 0j
        for i in range(n):
            term *= matrix[i, cols[i]]
        total += term
    return total


def test_naive_permanent_against_permutation_loop():
    rng = np.random.default_rng(5)
    for n in range(0, 9):
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        want = _permanent_by_loop(m)
        assert abs(permanent_naive(m) - want) <= 1e-12 * abs(want)


def test_naive_permanent_memory_is_bounded_by_its_table():
    rng = np.random.default_rng(6)
    m = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    fock._permutation_table.cache_clear()  # the peak includes building the 7! table
    tracemalloc.start()
    try:
        value = permanent_naive(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(value - permanent_ryser(m)) <= 1e-12 * abs(value)
    assert peak < 8 * 2**20


def test_permanent_empty_and_identity():
    assert permanent_naive(np.zeros((0, 0))) == 1.0
    assert permanent_ryser(np.eye(3)) == pytest.approx(1.0)
    ones = np.ones((4, 4))
    assert permanent_naive(ones) == pytest.approx(24.0)  # 4!
    assert permanent_ryser(ones) == pytest.approx(24.0)


# ---------------------------------------------------------------------------
# inner products


def brute_force_inner(bra, ket, alg):
    """Independent permutation-sum evaluation of the bilinear pairing.

    fock_inner conjugates nothing (dual_state does), so neither does this.
    """
    if len(bra.entries) != len(ket.entries):
        return 0j
    n = len(bra.entries)
    total = 0j
    for perm in permutations(range(n)):
        term = 1.0 + 0j
        for i in range(n):
            be, ke = bra.entries[perm[i]], ket.entries[i]
            if be.type_label != ke.type_label:
                term = 0j
                break
            term *= alg.two_point(be.type_label, be.site, ke.site)
        total += term
    return total * bra.coefficient * ket.coefficient


def test_single_particle_inner_is_propagator():
    alg = algebra()
    bra = symmetrize(integrated_entries((2, 3)))
    ket = symmetrize(start_entries((0, 1)))
    table = lattice_propagator(SPEC, 1.0, 1e-2)
    assert fock_inner(bra, ket, alg) == pytest.approx(table[2, 2], rel=1e-12)


def test_two_particle_same_type_against_oracle():
    alg = algebra()
    bra = symmetrize(integrated_entries((0, 0), (2, 1)))
    ket = symmetrize(start_entries((1, 3), (3, 2)))
    value = fock_inner(bra, ket, alg)
    assert value == pytest.approx(brute_force_inner(bra, ket, alg), rel=1e-12)
    # explicit 2-permutation structure
    d = lambda b, k: alg.two_point("A", b, k)
    expected = (d((0, 0), (1, 3)) * d((2, 1), (3, 2))
                + d((0, 0), (3, 2)) * d((2, 1), (1, 3)))
    assert value == pytest.approx(expected, rel=1e-12)


def test_two_particle_distinct_types_single_term():
    alg = algebra()
    bra = symmetrize(integrated_entries((0, 0), label="A") + integrated_entries((2, 1), label="B"))
    ket = symmetrize(start_entries((1, 3), label="A") + start_entries((3, 2), label="B"))
    value = fock_inner(bra, ket, alg)
    expected = alg.two_point("A", (0, 0), (1, 3)) * alg.two_point("B", (2, 1), (3, 2))
    assert value == pytest.approx(expected, rel=1e-12)


def test_inner_matches_brute_force_up_to_four():
    rng = np.random.default_rng(7)
    alg = algebra()
    labels = ["A", "A", "B", "A"]
    for n in (1, 2, 3, 4):
        bra = symmetrize(
            [Entry(tuple(rng.integers(0, 4, size=2)), labels[i], "integrated")
             for i in range(n)])
        ket = symmetrize(
            [Entry(tuple(rng.integers(0, 4, size=2)), labels[i], "start")
             for i in range(n)])
        assert fock_inner(bra, ket, alg) == pytest.approx(
            brute_force_inner(bra, ket, alg), rel=1e-12)


def test_inner_is_bilinear_in_a_complex_bra_coefficient():
    alg = algebra()
    bra = symmetrize(integrated_entries((2, 3)), 1j)
    ket = symmetrize(start_entries((0, 1)), 0.5 - 0.25j)
    value = fock_inner(bra, ket, alg)
    expected = 1j * (0.5 - 0.25j) * alg.two_point("A", (2, 3), (0, 1))
    assert value == pytest.approx(expected, rel=1e-12)
    assert value == pytest.approx(brute_force_inner(bra, ket, alg), rel=1e-12)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_mixed_type_inner_matches_brute_force(n):
    rng = np.random.default_rng(100 + n)
    alg = algebra()
    labels = [str(lbl) for lbl in rng.choice(list(TYPES), size=n)]
    bra = symmetrize([Entry(tuple(rng.integers(0, 4, size=2)), lbl, "integrated")
                      for lbl in labels], 0.5)
    ket = symmetrize([Entry(tuple(rng.integers(0, 4, size=2)), lbl, "start")
                      for lbl in rng.permutation(labels)], 1.5 - 0.25j)
    assert len(set(labels)) > 1
    assert fock_inner(bra, ket, alg) == pytest.approx(
        brute_force_inner(bra, ket, alg), rel=1e-12)


def test_unequal_type_counts_pair_to_zero_without_a_permanent(monkeypatch):
    def no_permanent(matrix):
        raise AssertionError("permanent evaluated")

    monkeypatch.setattr(fock, "permanent", no_permanent)
    alg = algebra()
    bra = symmetrize(integrated_entries((0, 0), (1, 2)) + integrated_entries((3, 1), label="B"))
    ket = symmetrize(start_entries((2, 2)) + start_entries((0, 3), (1, 1), label="B"))
    assert bra.n_particles == ket.n_particles
    assert fock_inner(bra, ket, alg) == 0j
    assert brute_force_inner(bra, ket, alg) == 0j


def test_exchange_symmetry():
    alg = algebra()
    e1, e2 = start_entries((0, 1), (3, 3))
    ket_a = symmetrize([e1, e2])
    ket_b = symmetrize([e2, e1])
    bra = symmetrize(integrated_entries((1, 1), (2, 0)))
    assert fock_inner(bra, ket_a, alg) == fock_inner(bra, ket_b, alg)


def test_particle_count_mismatch_is_zero():
    alg = algebra()
    bra = symmetrize(integrated_entries((0, 0)))
    ket = symmetrize(start_entries((0, 0), (1, 1)))
    assert fock_inner(bra, ket, alg) == 0j


# ---------------------------------------------------------------------------
# special adjoint


def test_special_adjoint_generator_map():
    g = annihilator((1, 2), "A")
    assert g.adjoint() == Generator(True, True, (1, 2), "A")
    assert creator_start((1, 2), "A").adjoint() == Generator(False, False, (1, 2), "A")


def test_special_adjoint_antihomomorphism_and_involution():
    a = annihilator((0, 0), "A")
    b = creator_start((1, 1), "B")
    expr = OperatorExpr.from_string(2.0 - 3.0j, [a, b])
    adj = special_adjoint(expr)
    assert adj.terms == (((2.0 + 3.0j), (b.adjoint(), a.adjoint())),)
    rng = np.random.default_rng(11)
    gens = [Generator(bool(rng.integers(2)), bool(rng.integers(2)),
                      tuple(rng.integers(0, 4, size=2)), "A") for _ in range(5)]
    expr = OperatorExpr.from_string(rng.normal() + 1j * rng.normal(), gens)
    assert special_adjoint(special_adjoint(expr)) == expr


# ---------------------------------------------------------------------------
# commutators and field application


def test_commutator_type_mismatch():
    alg = algebra()
    assert commutator_value((0, 0), "A", (1, 1), "B", alg) == 0j


def test_commutator_plain_matches_lattice_propagator():
    alg = algebra()
    table = lattice_propagator(SPEC, 1.0, 1e-2)
    for bra_site, ket_site in (((0, 0), (0, 0)), ((2, 3), (1, 1)), ((3, 0), (0, 2))):
        value = commutator_value(bra_site, "A", ket_site, "A", alg)
        diff = tuple((b - k) % 4 for b, k in zip(bra_site, ket_site))
        assert abs(value - table[diff]) < 1e-10


def test_commutator_onshell_types_and_reversal():
    alg = algebra()
    xp, x = (2, 3), (0, 1)
    normal = commutator_value(xp, "n+", x, "n+", alg)
    anti = commutator_value(xp, "n-", x, "n-", alg)
    # normal rule: D+(x' - x); antiparticle rule: reversed arguments D-(x - x')
    assert normal == pytest.approx(
        onshell_at(lattice_onshell_part(SPEC, 1.0, +1), SPEC, xp, x), rel=1e-12)
    assert anti == pytest.approx(
        onshell_at(lattice_onshell_part(SPEC, 1.0, -1), SPEC, x, xp), rel=1e-12)
    # the reversal is NOT the swap of the normal commutator's arguments (that
    # is the conjugate); by momentum parity D-(x-x') = D+(x'-x), so the two
    # typed commutators coincide at equal arguments
    normal_swapped = commutator_value(x, "n+", xp, "n+", alg)
    assert anti == pytest.approx(np.conj(normal_swapped), rel=1e-12)
    assert anti == pytest.approx(normal, rel=1e-12)


def test_creation_and_annihilation_on_vacuum():
    alg = algebra()
    created = apply_generator(creator_start((1, 2), "A"), VACUUM, alg)
    assert len(created) == 1 and created[0].n_particles == 1
    assert apply_generator(annihilator((1, 2), "A"), VACUUM, alg) == []


def test_vacuum_two_point_equals_commutator():
    alg = algebra()
    states = walk_string([annihilator((3, 1), "A"), creator_start((0, 2), "A")],
                         VACUUM, alg)
    value = sum(s.coefficient for s in states if s.n_particles == 0)
    assert value == pytest.approx(commutator_value((3, 1), "A", (0, 2), "A", alg),
                                  rel=1e-12)


def test_special_adjoint_compatibility_with_pairing():
    # <A‡ a, b> = <a, A b> under the duality pairing (bilinear; the dual map
    # carries the conjugation).  Real string coefficients here: the scalar
    # conjugation rule (cA)‡ = c* A‡ is structural and tested above.
    alg = algebra()
    rng = np.random.default_rng(13)

    def pairing(left_states, right_states):
        return sum((fock_inner(dual_state(b), k, alg) for b in left_states for k in right_states),
                   0j)

    for n in (1, 2):
        a = symmetrize([Entry(tuple(rng.integers(0, 4, size=2)), "A", "start")
                        for _ in range(n + 1)], coefficient=0.7 - 0.2j)
        b = symmetrize([Entry(tuple(rng.integers(0, 4, size=2)), "A", "start")
                        for _ in range(n)], coefficient=-1.1 + 0.4j)
        site = tuple(rng.integers(0, 4, size=2))
        op = OperatorExpr.from_string(1.0, [creator_start(site, "A")])
        lhs = pairing(apply_expr(special_adjoint(op), a, alg), [b])
        rhs = pairing([a], apply_expr(op, b, alg))
        assert abs(lhs - rhs) < 1e-10

        op2 = OperatorExpr.from_string(1.4, [annihilator(site, "A")])
        lhs2 = pairing(apply_expr(special_adjoint(op2), b, alg), [a])
        rhs2 = pairing([b], apply_expr(op2, a, alg))
        assert abs(lhs2 - rhs2) < 1e-10

        both = OperatorExpr.from_string(
            0.8, [creator_start(site, "A"), annihilator((0, 0), "A")])
        lhs3 = pairing(apply_expr(special_adjoint(both), a, alg), [a])
        rhs3 = pairing([a], apply_expr(both, a, alg))
        assert abs(lhs3 - rhs3) < 1e-10


def test_single_time_pairing_against_frequency_parts():
    # antiparticle entries pair with positive-energy, momentum-reversed
    # factors: reversing the spatial momentum sum maps the anti two-point
    # onto the normal one at the same arguments
    alg = algebra()
    xp, x = (3, 1), (1, 2)
    anti = alg.two_point("n-", xp, x)
    # D-(x-x') has positive energy (+E dt phase) with the momentum reversed
    direct = onshell_at(lattice_onshell_part(SPEC, 1.0, -1), SPEC, x, xp)
    assert anti == pytest.approx(direct, rel=1e-12)
    assert anti == pytest.approx(alg.two_point("n+", xp, x), rel=1e-12)


def test_integrated_contraction_rejected():
    alg = algebra()
    state = symmetrize(integrated_entries((0, 0)))
    with pytest.raises(ContractViolation):
        apply_generator(annihilator((1, 1), "A"), state, alg)


@pytest.mark.parametrize("site", [(1, 2, 3), (5, 6), (0, -1)],
                         ids=["three_coordinates", "beyond_the_shape", "negative"])
@pytest.mark.parametrize("label", ["A", "n+"])
def test_fock_inner_rejects_sites_off_the_lattice(site, label):
    alg = algebra()
    ket = symmetrize(start_entries((1, 2), label=label))
    with pytest.raises(ContractViolation, match="outside the lattice"):
        fock_inner(symmetrize(integrated_entries(site, label=label)), ket, alg)
    with pytest.raises(ContractViolation, match="outside the lattice"):
        fock_inner(dual_state(ket), symmetrize(start_entries(site, label=label)), alg)


@pytest.mark.parametrize("site", [(1.7, 2), (1, 2.5), ("1", -0.5)],
                         ids=["fraction", "second_coordinate", "negative_fraction"])
def test_fractional_site_coordinates_are_rejected(site):
    for make in (lambda: Entry(site, "A"), lambda: annihilator(site, "A"),
                 lambda: creator_start(site, "A")):
        with pytest.raises(ContractViolation, match="non-integer coordinate"):
            make()


def test_whole_number_site_coordinates_are_kept():
    alg = algebra()
    ket = symmetrize(start_entries((0, 1)))
    expected = fock_inner(symmetrize(integrated_entries((1, 2))), ket, alg)
    for site in [(1.0, 2), ("1", "2"), (np.int64(1), np.float64(2.0))]:
        assert Entry(site, "A").site == (1, 2)
        assert annihilator(site, "A").site == (1, 2)
        assert fock_inner(symmetrize(integrated_entries(site)), ket, alg) == expected


def test_two_point_table_matches_direct_functions():
    spec = LatticeSpec((4, 2), (3.0, 2.0))
    alg = FieldAlgebra(spec, TYPES, epsilon=1e-2)
    plain = lattice_propagator(spec, 1.0, 1e-2)
    plus, minus = lattice_onshell_part(spec, 1.0, +1), lattice_onshell_part(spec, 1.0, -1)
    for x in np.ndindex(*spec.shape):
        for y in np.ndindex(*spec.shape):
            direct = {"A": plain[(x[0] - y[0]) % 4, (x[1] - y[1]) % 2],
                      "n+": onshell_at(plus, spec, x, y),
                      "n-": onshell_at(minus, spec, y, x)}
            for label, value in direct.items():
                assert alg.two_point(label, x, y) == pytest.approx(value, rel=1e-12)



def _onshell_by_explicit_sum(spec, mass, sign, u):
    """(1 / prod L_i) sum_p exp(i(-sign E u_0 + p.u)) / (2E) at the integer
    displacement u, summed momentum by momentum over the Brillouin zone."""
    a, total = spec.spacings, 0j
    for k in product(*(range(-n // 2, n // 2) for n in spec.shape[1:])):
        p = [2 * np.pi * kj / L for kj, L in zip(k, spec.extents[1:])]
        e = np.sqrt(sum(q * q for q in p) + mass * mass)
        phase = -sign * e * u[0] * a[0] + sum(q * uj * aj for q, uj, aj in zip(p, u[1:], a[1:]))
        total += np.exp(1j * phase) / (2 * e)
    return total / np.prod(spec.extents[1:])


@pytest.mark.parametrize("shape, extents", [((4, 2), (3.0, 2.0)), ((4, 4), (4.0, 4.0))])
@pytest.mark.parametrize("sign", [+1, -1])
def test_onshell_table_matches_an_explicit_momentum_sum(shape, extents, sign):
    spec = LatticeSpec(shape, extents)
    table = lattice_onshell_part(spec, 1.3, sign)
    n0 = shape[0]
    assert table.shape == (2 * n0 - 1,) + shape[1:]
    for index in np.ndindex(*table.shape):
        u = (index[0] + 1 - n0,) + index[1:]
        assert table[index] == pytest.approx(_onshell_by_explicit_sum(spec, 1.3, sign, u),
                                             rel=1e-12, abs=1e-12)


def test_anti_and_normal_tables_of_equal_mass_are_bitwise_equal():
    alg = algebra()
    sites = list(np.ndindex(*SPEC.shape))
    assert np.array_equal(alg.pairing("n-", sites, sites), alg.pairing("n+", sites, sites))


def test_one_onshell_table_call_per_onshell_label(monkeypatch):
    calls = []

    def counting(spec, mass, sign):
        calls.append(sign)
        return lattice_onshell_part(spec, mass, sign)

    monkeypatch.setattr(fock, "lattice_onshell_part", counting)
    alg = algebra()
    for _ in range(2):
        for label in TYPES:
            alg.two_point(label, (3, 1), (1, 2))
    assert calls == [+1, +1]


def test_fock_inner_tag_guards():
    alg = algebra()
    ket = symmetrize(start_entries((0, 0)))
    with pytest.raises(ContractViolation):
        fock_inner(ket, ket, alg)


@pytest.mark.parametrize("side", ["bra", "ket"])
def test_fock_inner_rejects_labels_the_algebra_does_not_know(side):
    # the bra and ket labels differ, so the pairing would be zero; a label
    # the algebra does not know is still named, on either side
    alg = algebra()
    bra = symmetrize(integrated_entries((0, 1), label="C" if side == "bra" else "A"))
    ket = symmetrize(start_entries((1, 1), label="C" if side == "ket" else "A"))
    with pytest.raises(ContractViolation, match="unknown particle type 'C'"):
        fock_inner(bra, ket, alg)


# ---------------------------------------------------------------------------
# the count-vector engine against the entry walk


def assert_matches_walk(expr, state, alg):
    """apply_expr gives the walk's branches: entries, order and coefficients."""
    want = walk_expr(expr, state, alg)
    got = apply_expr(expr, state, alg)
    assert [s.entries for s in got] == [s.entries for s in want]
    for g, w in zip(got, want):
        assert abs(g.coefficient - w.coefficient) <= 1e-12 * abs(w.coefficient)
    for coeff, gens in expr.terms:
        if len(gens) == 1 and coeff == 1.0:
            one = apply_generator(gens[0], state, alg)
            assert [s.entries for s in one] == [
                s.entries for s in walk_generator(gens[0], state, alg)]
    return got


def strings(label, x, y):
    """Single factors, a creator-annihilator product and two annihilators."""
    return OperatorExpr((
        (1.0, (annihilator(x, label),)),
        (1.0, (creator_start(y, label),)),
        (0.5 - 1.5j, (creator_start(y, label), annihilator(x, label))),
        (-2.0, (annihilator(y, label), annihilator(x, label))),
    ))


@pytest.mark.parametrize("label", ["A", "n+", "n-"], ids=["plain", "normal", "anti"])
def test_engine_matches_walk_for_each_conjugate_kind(label):
    alg = algebra()
    state = symmetrize(start_entries((0, 1), (2, 3), (3, 0), label=label)
                       + start_entries((1, 1), label="B"), coefficient=0.3 + 0.8j)
    got = assert_matches_walk(strings(label, (1, 2), (3, 3)), state, alg)
    assert len(got) == 3 + 1 + 3 + 6


def test_engine_matches_walk_on_a_doubly_occupied_slot():
    alg = algebra()
    state = symmetrize(start_entries((1, 1), (1, 1), (0, 2)) + start_entries((1, 1), label="B"))
    got = assert_matches_walk(strings("A", (2, 3), (1, 1)), state, alg)
    # one branch per particle: the doubled slot is contracted twice
    assert [s.entries for s in got[:3]] == [
        symmetrize(start_entries((1, 1), (1, 1)) + start_entries((1, 1), label="B")).entries,
        symmetrize(start_entries((0, 2), (1, 1)) + start_entries((1, 1), label="B")).entries,
        symmetrize(start_entries((0, 2), (1, 1)) + start_entries((1, 1), label="B")).entries,
    ]
    start_annihilator = OperatorExpr.from_string(1.0, [Generator(False, True, (1, 1), "A")])
    assert len(assert_matches_walk(start_annihilator, state, alg)) == 2


def test_engine_matches_walk_for_a_start_annihilator_at_cell_volume_not_one():
    spec = LatticeSpec((4, 2), (6.0, 2.0))
    assert spec.cell_volume == 1.5
    alg = FieldAlgebra(spec, TYPES, epsilon=1e-2, n_max=5)
    state = symmetrize(start_entries((2, 0), (2, 0), (1, 1)), coefficient=-0.4j)
    expr = OperatorExpr((
        (1.0, (Generator(False, True, (2, 0), "A"),)),
        (0.7, (creator_start((0, 1), "B"), Generator(False, True, (1, 1), "A"))),
        (1.0, (Generator(False, True, (0, 0), "A"),)),
        (1.0, (annihilator((2, 1), "A"),)),
    ))
    got = assert_matches_walk(expr, state, alg)
    assert got[0].coefficient == pytest.approx(-0.4j / 1.5, rel=1e-12)


def test_engine_matches_walk_with_an_integrated_creator():
    alg = algebra()
    state = symmetrize(start_entries((0, 3), label="B") + start_entries((2, 2)))
    integrated_creator = Generator(True, False, (1, 0), "A")
    expr = OperatorExpr((
        (1.0, (integrated_creator,)),
        (2.0 + 1.0j, (integrated_creator, annihilator((3, 3), "B"))),
        (1.0, (annihilator((0, 0), "B"), integrated_creator)),
    ))
    got = assert_matches_walk(expr, state, alg)
    assert all(any(e.tag == "integrated" for e in s.entries) for s in got)


def test_engine_errors_match_walk():
    alg = algebra(n_max=2)
    two = symmetrize(start_entries((0, 0), (1, 1)))
    overflow = OperatorExpr.from_string(1.0, [creator_start((2, 2), "B")])
    integrated = symmetrize(start_entries((0, 0)) + integrated_entries((1, 1)))
    contract = OperatorExpr.from_string(1.0, [annihilator((2, 2), "A")])
    unknown = OperatorExpr.from_string(1.0, [annihilator((2, 2), "C")])
    for expr, state, error in ((overflow, two, SectorOverflowError),
                               (contract, integrated, ContractViolation),
                               (unknown, two, ContractViolation)):
        with pytest.raises(error) as walk:
            walk_expr(expr, state, alg)
        with pytest.raises(error) as engine:
            apply_expr(expr, state, alg)
        assert str(engine.value) == str(walk.value)
        with pytest.raises(error, match=str(walk.value)):
            apply_generator(expr.terms[0][1][0], state, alg)


def test_engine_rejects_off_lattice_sites():
    alg = algebra()
    state = symmetrize(start_entries((0, 0)))
    with pytest.raises(ContractViolation, match="outside the lattice"):
        apply_generator(annihilator((4, 0), "A"), state, alg)
    with pytest.raises(ContractViolation, match="outside the lattice"):
        apply_generator(creator_start((0, 0), "A"), symmetrize(start_entries((0, -1))), alg)


def test_single_state_application_builds_one_two_point_row(monkeypatch):
    calls = []
    two_point = FieldAlgebra.two_point

    def counting(self, *args):
        calls.append(args)
        return two_point(self, *args)

    monkeypatch.setattr(FieldAlgebra, "two_point", counting)
    alg = algebra()
    state = symmetrize(start_entries((0, 1), (2, 2), label="n-"))
    apply_generator(annihilator((1, 1), "n-"), state, alg)
    # one table over the 2*4-1 time and 4 spatial displacements, not the
    # 256 site pairs, and no per-pair two_point call
    assert alg._tables["n-"].size == (2 * 4 - 1) * 4
    assert calls == []


def test_fock_is_the_one_field_application_site():
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        assert "apply_string" not in text, path.name
        if path.name != "fock.py":
            assert ".two_point(" not in text, path.name
        if path.name not in ("kernel.py", "fock.py"):
            assert "lattice_onshell_part(" not in text, path.name
            assert "lattice_propagator(" not in text, path.name
        # the algebra alone knows the count-row width, dtype and key format
        assert "SlotLayout" not in text, path.name
        if path.name != "fock.py":
            for name in ("np.uint16", "_row_keys", "np.void"):
                assert name not in text, (path.name, name)

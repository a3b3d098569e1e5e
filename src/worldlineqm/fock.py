"""Symmetrized multiparticle states, permanents, fields, and the special adjoint.

States and operators live on truncated sectors over a finite spacetime
lattice, which turns the formal operator algebra into checkable matrix and
number identities.  Positions are lattice site index tuples; each entry of a
state carries a particle type and a tag: "start" entries are created at the
reference parameter value (kets), "integrated" entries have their endpoint
parameter integrated over (bras).

The multiparticle pairing of an integrated-label bra against a start-label
ket is a permanent over the two-point matrix with type-matching deltas:

    <x'_1 ... x'_N | x_1 ... x_N> = sum_perms prod_i delta(n'_i, n_i)
                                    D(x'_perm(i) - x_i; m_i)

where D is the regulated lattice propagator for plain types, its
positive-frequency part for normal on-shell types, and the argument-reversed
negative-frequency part for antiparticle types.  By momentum parity
D-(y - x) = D+(x - y), so anti types pair through the normal table.

The special adjoint (denoted ‡ in the docstrings) swaps integrated-endpoint
annihilators with start-of-path creators: psi(x,n) <-> psidag(x,n;start) and
psi(x,n;start) <-> psidag(x,n), reverses products, and conjugates
coefficients.  It is an involution, and the vertex operators of the
interaction module must be self-adjoint under it.

Fields act on states in one place, on count vectors: a state is a row of
occupation numbers over the (type, tag, site) slots of its FieldAlgebra,
which owns the row format, and one engine applies an operator expression
to many rows at once by index arithmetic.  A creator adds one to its slot;
an annihilator branches once per particle of its type, weighted by its
site's row of the type's two-point table.  apply_expr and apply_generator encode a FockState, run
the engine and decode the branches; the sector matrices of the interaction
module run the same engine on a whole basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import groupby, permutations

import numpy as np

from .errors import ContractViolation, SectorOverflowError
from .geometry import ParticleType
from .kernel import lattice_onshell_part, lattice_propagator
from .lattice import LatticeSpec

START = "start"
INTEGRATED = "integrated"


def _site(site) -> tuple[int, ...]:
    """A site as lattice indices; a coordinate that int() would change is rejected."""
    coords = [float(c) for c in site]
    if not all(c.is_integer() for c in coords):
        raise ContractViolation(f"site {tuple(site)} has a non-integer coordinate")
    return tuple(int(c) for c in coords)


@dataclass(frozen=True)
class Entry:
    site: tuple[int, ...]
    type_label: str
    tag: str = START

    def __post_init__(self):
        if self.tag not in (START, INTEGRATED):
            raise ContractViolation(f"unknown tag {self.tag!r}")
        object.__setattr__(self, "site", _site(self.site))

    def sort_key(self):
        return (self.type_label, self.tag, self.site)


@dataclass(frozen=True)
class FockState:
    """Canonical (sorted) multiset of entries with a complex coefficient.

    The sorted form represents the Bose-symmetrized product state; the
    (N!)^(-1/2) symmetrization bookkeeping is carried by the permanent
    pairing, which supplies every permutation term (and hence the boson
    multiplicity factors for repeated entries).
    """

    coefficient: complex
    entries: tuple[Entry, ...]

    @property
    def n_particles(self) -> int:
        return len(self.entries)


def symmetrize(entries, coefficient: complex = 1.0) -> FockState:
    """Canonical symmetrized state from an entry sequence."""
    return FockState(complex(coefficient), tuple(sorted(entries, key=Entry.sort_key)))


VACUUM = FockState(1.0 + 0j, ())


# ---------------------------------------------------------------------------
# permanents


_TABLE_ROWS = 7


@cache
def _permutation_table(k: int) -> np.ndarray:
    """The k! permutations of range(k) in lexicographic order, one per row."""
    table = np.array(list(permutations(range(k))), dtype=np.intp).reshape(-1, k)
    table.setflags(write=False)  # one array is shared by every call
    return table


def permanent_naive(matrix: np.ndarray) -> complex:
    """Direct permutation-sum permanent; exact reference for small n.

    The last k = min(n, 7) rows are summed over a cached table of all k!
    permutations, in one gather and row product per choice of columns for
    the n - k leading rows; only those n!/k! ordered choices are looped
    over.  The work is n! k products, and the table bounds memory at
    7! x 7 entries (about 0.6 MiB of complex factors) for any n.
    """
    matrix = np.asarray(matrix)
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise ContractViolation("permanent needs a square matrix")
    if n == 0:
        return 1.0 + 0j
    k = min(n, _TABLE_ROWS)
    table, tail = _permutation_table(k), np.arange(n - k, n)
    total = 0j
    for prefix in permutations(range(n), n - k):
        lead = 1.0 + 0j
        for i, col in enumerate(prefix):
            lead *= matrix[i, col]
        free = np.array([col for col in range(n) if col not in prefix], dtype=np.intp)
        total += lead * np.prod(matrix[tail, free[table]], axis=1).sum()
    return complex(total)


def permanent_ryser(matrix: np.ndarray) -> complex:
    """Ryser permanent, sum_S (-1)^(n-|S|) prod_i rowsum_i(S), over all
    nonempty column subsets S at once: O(2^n n^2) in one matrix product."""
    matrix = np.asarray(matrix)
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise ContractViolation("permanent needs a square matrix")
    if n == 0:
        return 1.0 + 0j
    if n > 16:
        raise ContractViolation("Ryser evaluation limited to n <= 16")
    subsets = (np.arange(1, 2 ** n)[:, None] >> np.arange(n)) & 1
    signs = np.where((n - subsets.sum(axis=1)) % 2, -1.0, 1.0)
    row_sums = subsets.astype(float) @ matrix.T
    return complex(signs @ np.prod(row_sums, axis=1))


def permanent(matrix: np.ndarray) -> complex:
    matrix = np.asarray(matrix)
    return permanent_naive(matrix) if matrix.shape[0] <= 4 else permanent_ryser(matrix)


# ---------------------------------------------------------------------------
# field algebra on a lattice


class FieldAlgebra:
    """Two-point pairings, field application rules and the count-row format
    of states on a fixed lattice.

    types maps a label to a ParticleType whose conjugate flag selects the
    pairing: "plain" -> regulated lattice propagator, "normal" ->
    positive-frequency part, "anti" -> negative-frequency part with reversed
    arguments, which by parity is the "normal" table.  Each pairing depends
    on the sites only through x - y, so one table per label, built on first
    use, holds it for every displacement: the time axis covers all 2 N_0 - 1
    differences (the frequency parts are not periodic in time) and the
    spatial axes are taken mod N_i.

    A state is one row of occupation counts over the (label, tag, site)
    slots: label-major over the sorted `labels`, and within a label the start
    block of all `sites` (in np.ndindex order) before the integrated block.
    """

    def __init__(self, spec: LatticeSpec, types: dict[str, ParticleType],
                 epsilon: float = 1e-2, n_max: int = 8):
        self.spec = spec
        self.types = dict(types)
        self.epsilon = float(epsilon)
        self.n_max = int(n_max)
        self.labels = tuple(sorted(self.types))
        self.sites = list(np.ndindex(*spec.shape))
        self._tables: dict[str, np.ndarray] = {}

    def _table(self, label: str) -> np.ndarray:
        if label not in self._tables:
            self.check_label(label)
            ptype, n0 = self.types[label], self.spec.shape[0]
            if ptype.conjugate == "plain":
                periodic = lattice_propagator(self.spec, ptype.mass, self.epsilon)
                self._tables[label] = periodic[np.arange(1 - n0, n0) % n0]
            else:
                # normal: D+(x - y); anti: D-(y - x), which is D+(x - y) by parity
                self._tables[label] = lattice_onshell_part(self.spec, ptype.mass, +1)
        return self._tables[label]

    def _sites(self, sites) -> np.ndarray:
        try:
            array = np.array([tuple(site) for site in sites])
            np.ravel_multi_index(array.T, self.spec.shape)
        except (TypeError, ValueError):
            raise ContractViolation(
                f"a site of {sites!r} is outside the lattice {self.spec.shape}") from None
        return array

    def pairing(self, label: str, bra_sites, ket_sites) -> np.ndarray:
        """Matrix of two_point(label, x_i, y_j) over bra sites x_i, ket sites y_j.

        The one lookup of the label's table.  It and site_index reject a
        site outside the lattice through the one check, _sites.
        """
        table = self._table(label)
        u = self._sites(bra_sites)[:, None] - self._sites(ket_sites)[None, :]
        u[..., 0] += self.spec.shape[0] - 1
        return table[tuple(np.moveaxis(u % table.shape, -1, 0))]

    def two_point(self, label: str, bra_site, ket_site) -> complex:
        """Pairing of an integrated-label bra at bra_site with a start ket."""
        return complex(self.pairing(label, [bra_site], [ket_site])[0, 0])

    def check_label(self, label: str):
        if label not in self.types:
            raise ContractViolation(f"unknown particle type {label!r}")

    def block(self, label: str, start: bool = True) -> int:
        """First slot of a label's start (or integrated) entries."""
        self.check_label(label)
        return (2 * self.labels.index(label) + (not start)) * len(self.sites)

    def site_index(self, site) -> int:
        return int(np.ravel_multi_index(self._sites([site])[0], self.spec.shape))

    def encode(self, states) -> np.ndarray:
        """One count row per state; coefficients are not part of the row."""
        counts = np.zeros((len(states), 2 * len(self.labels) * len(self.sites)), np.uint16)
        for i, state in enumerate(states):
            for e in state.entries:
                counts[i, self.block(e.type_label, e.tag == START) + self.site_index(e.site)] += 1
        return counts

    def decode(self, counts: np.ndarray, coefficient: complex) -> FockState:
        n_sites = len(self.sites)
        entries = []
        for slot in np.flatnonzero(counts):
            label, rest = divmod(int(slot), 2 * n_sites)
            entry = Entry(self.sites[rest % n_sites], self.labels[label],
                          START if rest < n_sites else INTEGRATED)
            entries += [entry] * int(counts[slot])
        return symmetrize(entries, coefficient)

    @staticmethod
    def row_keys(counts: np.ndarray) -> np.ndarray:
        """One exact, sortable void scalar per count row."""
        counts = np.ascontiguousarray(counts)
        return counts.view(np.dtype((np.void, counts.shape[1] * counts.itemsize))).ravel()


# ---------------------------------------------------------------------------
# operator expressions and the special adjoint


@dataclass(frozen=True)
class Generator:
    """One field factor: creation/annihilation at a site, start or integrated."""

    create: bool
    start: bool
    site: tuple[int, ...]
    type_label: str

    def __post_init__(self):
        object.__setattr__(self, "site", _site(self.site))

    def adjoint(self) -> "Generator":
        # psi(x,n) <-> psidag(x,n;start), psi(x,n;start) <-> psidag(x,n)
        return Generator(not self.create, not self.start, self.site, self.type_label)


def annihilator(site, label: str) -> Generator:
    """psi(x,n): endpoint-integrated annihilation field."""
    return Generator(False, False, site, label)


def creator_start(site, label: str) -> Generator:
    """psidag(x,n;start): creation at the reference parameter value."""
    return Generator(True, True, site, label)


@dataclass(frozen=True)
class OperatorExpr:
    """Sum of coefficient-weighted ordered generator strings."""

    terms: tuple[tuple[complex, tuple[Generator, ...]], ...]

    @classmethod
    def from_string(cls, coefficient: complex, generators) -> "OperatorExpr":
        return cls(((complex(coefficient), tuple(generators)),))


def special_adjoint(expr: OperatorExpr) -> OperatorExpr:
    """(c AB...Z)‡ = conj(c) Z‡...B‡A‡ with the generator swap of the header."""
    out = []
    for coeff, gens in expr.terms:
        out.append((np.conj(coeff), tuple(g.adjoint() for g in reversed(gens))))
    return OperatorExpr(tuple(out))


# ---------------------------------------------------------------------------
# field application on count vectors


def _apply_counts(expr: OperatorExpr, counts: np.ndarray, values: np.ndarray,
                  algebra: FieldAlgebra, n_cap: int):
    """Apply an operator expression to count rows with coefficients.

    Each generator string acts right to left on all rows at once.  A creator
    adds one to its slot with the generator's tag.  The integrated-endpoint
    annihilator psi(x,n) branches once per start entry of type n, in slot
    order, with the two-point factor D_n(x, y); the start annihilator
    psi(x,n;start) branches only on the entries at x, with the
    equal-parameter lattice delta 1/cellvol.  Contractions against
    integrated entries (the position states are not orthogonal) raise
    ContractViolation, and a creation above n_cap entries raises
    SectorOverflowError.

    Returns the image rows, their coefficients and the input row each came
    from, unmerged: term by term, and within a term in branch order.
    """
    n_sites = len(algebra.sites)
    images = [(counts[:0], values[:0], np.zeros(0, int))]
    for coeff, gens in expr.terms:
        rows, vals, parents = counts, values * coeff, np.arange(len(counts))
        for gen in reversed(gens):
            if not len(parents):
                break
            own = algebra.block(gen.type_label)
            x = algebra.site_index(gen.site)
            if gen.create:
                if rows.sum(axis=1).max() + 1 > n_cap:
                    raise SectorOverflowError(
                        f"creation would exceed the sector bound {n_cap}")
                rows = rows.copy()
                rows[:, algebra.block(gen.type_label, gen.start) + x] += 1
                continue
            if rows[:, own + n_sites:own + 2 * n_sites].any():
                raise ContractViolation(
                    "contraction against an integrated-label entry is not defined")
            if gen.start:
                branch = np.repeat(np.arange(len(rows)), rows[:, own + x])
                y = np.full(len(branch), x)
                factor = 1.0 / algebra.spec.cell_volume
            else:
                occupied = rows[:, own:own + n_sites].ravel()
                branch, y = np.divmod(np.repeat(np.arange(occupied.size), occupied), n_sites)
                factor = algebra.pairing(gen.type_label, [gen.site], algebra.sites)[0, y]
            rows = rows[branch]
            rows[np.arange(len(branch)), own + y] -= 1
            vals = vals[branch] * factor
            parents = parents[branch]
        images.append((rows, vals, parents))
    return tuple(np.concatenate(parts) for parts in zip(*images))


def apply_expr(expr: OperatorExpr, state: FockState, algebra: FieldAlgebra) -> list[FockState]:
    """Apply an operator expression to a state, creating up to algebra.n_max
    entries; returns the unmerged branches, term by term."""
    counts, values, _ = _apply_counts(expr, algebra.encode([state]),
                                      np.array([state.coefficient], complex), algebra,
                                      algebra.n_max)
    return [algebra.decode(c, v) for c, v in zip(counts, values)]


def apply_generator(gen: Generator, state: FockState, algebra: FieldAlgebra) -> list[FockState]:
    """Apply one field factor to a state; see _apply_counts for the rules."""
    return apply_expr(OperatorExpr.from_string(1.0, (gen,)), state, algebra)


# ---------------------------------------------------------------------------
# inner products and commutators


def dual_state(state: FockState) -> FockState:
    """The integrated-label bra functional dual to a start-label ket.

    This is a transpose-type duality: the label tags flip and the pairing is
    bilinear, with no coefficient conjugation.  The scalar rule of the
    special adjoint, (cA)‡ = c* A‡, is a property of the operator algebra
    itself; the pairing adjoint coincides with ‡ on real-coefficient strings
    (the two-point functions are even on the lattice, which is what makes
    the transpose close on the generator swap).
    """
    entries = tuple(Entry(e.site, e.type_label, INTEGRATED) for e in state.entries)
    return symmetrize(entries, state.coefficient)


def fock_inner(bra: FockState, ket: FockState, algebra: FieldAlgebra) -> complex:
    """Permanent-structured pairing of an integrated bra with a start ket.

    Entries are sorted by type, so the pairing matrix is block diagonal with
    one block per type, and the permanent is the product of the block
    permanents; a type counted differently in bra and ket pairs to zero.  A
    label the algebra does not know raises ContractViolation on either side.
    Bras are linear functionals, so the pairing is bilinear in the stored
    coefficients; conjugation happens in dual_state when a ket is dualized.
    """
    if any(e.tag != INTEGRATED for e in bra.entries):
        raise ContractViolation("bra entries must carry integrated labels")
    if any(e.tag != START for e in ket.entries):
        raise ContractViolation("ket entries must carry start labels")
    labels = [e.type_label for e in bra.entries]
    ket_labels = [e.type_label for e in ket.entries]
    for label in dict.fromkeys(labels + ket_labels):
        algebra.check_label(label)
    if labels != ket_labels:
        return 0j
    value = complex(bra.coefficient * ket.coefficient)
    for label, block in groupby(range(len(labels)), key=labels.__getitem__):
        block = list(block)
        value *= permanent(algebra.pairing(label, [bra.entries[i].site for i in block],
                                           [ket.entries[j].site for j in block]))
    return value


def commutator_value(bra_site, bra_label: str, ket_site, ket_label: str,
                     algebra: FieldAlgebra) -> complex:
    """[psi(x', n'), psi‡(x, n)] evaluated on the vacuum and projected back.

    Exercises the application machinery: the annihilator-first ordering kills
    the vacuum, so the commutator equals the vacuum coefficient of
    psi(x', n') psidag(x, n; start) |0>.
    """
    string = OperatorExpr.from_string(
        1.0, (annihilator(bra_site, bra_label), creator_start(ket_site, ket_label)))
    return sum((out.coefficient for out in apply_expr(string, VACUUM, algebra)
                if out.n_particles == 0), 0j)

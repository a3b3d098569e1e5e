"""Interaction vertices on truncated sectors and low-order scattering.

A vertex destroys a set of incoming paths and creates a set of outgoing ones
at a common spacetime point, summed over the lattice:

    V = g sum_x cellvol  prod_i psidag(x, n'_i; start)  prod_j psi(x, n_j),

and the transition operator is the exponential series
G = sum_m (-i)^m / m! V^m.  G is unitary with respect to the special adjoint
provided V is self-adjoint under it, which requires a real coupling and a
conjugate partner for any non-self-conjugate term.  On a truncated sector
these statements become matrix identities, exact per order in g wherever the
repeated application of V stays inside the sector.

A sector holds its basis once, as count vectors sorted by their exact row
keys: each is a state's occupation numbers over the (type, tag, site) slots
of its fock.FieldAlgebra, and FockStates are decoded from them only on demand.
An operator expression acts on the count vectors of the whole basis at once
through the one field-application engine of the fock module, and the images
are found in the basis by one searchsorted on the sorted keys.  The result
is a scipy.sparse matrix, and no sector operator is ever made dense: the
Dyson series, its matrices and its unitarity residuals are sparse products.
The residual G‡G - 1 is computed one way, as its series in g, and its norm
at a given g sums that series on the residual-clean columns only.  Order-m
amplitudes apply V m times to count rows, merging equal rows after each
application, and pair the distinct images with the out state.

The cubic A-B model couples a conserved A line to a self-conjugate B field
psi'(x, B) = psi(x, B) + psidag(x, B; start).
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations_with_replacement
from math import factorial

import numpy as np
from scipy import sparse

from .errors import ContractViolation, DomainError, LeakageError
from .fock import (
    FieldAlgebra,
    FockState,
    OperatorExpr,
    VACUUM,
    _apply_counts,
    annihilator,
    creator_start,
    fock_inner,
    special_adjoint,
)
from .geometry import FourVector, ParticleType, check_sign, onshell_energy
from .kernel import propagator_momentum
from .onshell import SYMMETRIC_SQRT2E, MomentumGrid, localized_wavefunction
from .regularization import SelfEnergyResult, bubble


# ---------------------------------------------------------------------------
# models


@dataclass(frozen=True)
class VertexTerm:
    """One product psidag(n'_1)...psidag(n'_a) psi(n_1)...psi(n_b)."""

    dagger_types: tuple[str, ...]
    plain_types: tuple[str, ...]

    def generators(self, site):
        gens = [creator_start(site, n) for n in self.dagger_types]
        gens += [annihilator(site, n) for n in self.plain_types]
        return tuple(gens)


@dataclass(frozen=True)
class InteractionModel:
    terms: tuple[VertexTerm, ...]
    coupling: float
    types: dict[str, ParticleType] = field(default_factory=dict)

    @classmethod
    def ab_model(cls, coupling: float, mass_a: float = 1.0,
                 mass_b: float = 1.0) -> "InteractionModel":
        """Cubic model: psidag_A psi'_B psi_A with the self-conjugate B field."""
        terms = (
            VertexTerm(("A",), ("B", "A")),
            VertexTerm(("A", "B"), ("A",)),
        )
        types = {"A": ParticleType("A", mass_a, "plain"),
                 "B": ParticleType("B", mass_b, "plain")}
        return cls(terms, float(coupling), types)

    def vertex_expr(self, spec, coupling: float | None = None) -> OperatorExpr:
        """V as an operator expression, summed over lattice sites."""
        g = self.coupling if coupling is None else coupling
        w = g * spec.cell_volume
        terms = []
        for site in np.ndindex(*spec.shape):
            for term in self.terms:
                terms.append((complex(w), term.generators(site)))
        return OperatorExpr(tuple(terms))


# ---------------------------------------------------------------------------
# truncated sectors


@dataclass
class Sector:
    """Basis of start-labeled multisets with per-type count bounds.

    content maps a type label of the algebra to (min_count, max_count),
    0 <= min <= max.  The basis is held once, as the algebra's count rows in
    `counts`, sorted by their exact row keys; `basis` decodes the rows into
    FockStates when it is first read.
    """

    algebra: FieldAlgebra
    content: dict[str, tuple[int, int]]

    def __post_init__(self):
        for label, (lo, hi) in self.content.items():
            if not 0 <= lo <= hi:
                raise ContractViolation(
                    f"content bounds of {label!r} must satisfy 0 <= min <= max, "
                    f"got ({lo}, {hi})")
        alg = self.algebra
        n_sites = len(alg.sites)
        counts = alg.encode([VACUUM])
        for label, (lo, hi) in self.content.items():
            own = alg.block(label)
            block = np.array([np.bincount(combo, minlength=n_sites) for k in range(lo, hi + 1)
                              for combo in combinations_with_replacement(range(n_sites), k)],
                             counts.dtype)
            counts = np.repeat(counts, len(block), axis=0)
            counts[:, own:own + n_sites] = np.tile(block, (len(counts) // len(block), 1))
        self.counts = counts[np.argsort(alg.row_keys(counts))]
        self._keys = alg.row_keys(self.counts)

    @cached_property
    def basis(self) -> list[FockState]:
        return [self.algebra.decode(row, 1.0) for row in self.counts]

    @property
    def dimension(self) -> int:
        return len(self.counts)

    def lookup(self, counts: np.ndarray) -> np.ndarray:
        """Basis index of each count-vector row, -1 where it is not in the basis."""
        keys = self.algebra.row_keys(counts)
        pos = np.minimum(np.searchsorted(self._keys, keys), self.dimension - 1)
        return np.where(self._keys[pos] == keys, pos, -1)

    def state_index(self, state: FockState) -> int:
        index = int(self.lookup(self.algebra.encode([state]))[0])
        if index < 0:
            raise ContractViolation("state is not a sector basis element")
        return index


def _sector_matrix(expr: OperatorExpr, sector: Sector):
    """Sparse matrix of an operator expression on the sector basis, and its leaks.

    The field-application engine acts on the count vectors of the whole
    basis, creating with headroom above n_max equal to the most creators in
    one string.  The images are looked up exactly in the basis: a miss is a
    leak (every image holding an integrated entry is one).  The leaks map
    each leaking column, in column order, to the count vector and
    coefficient of its first miss; sector.algebra.decode turns that into a
    FockState.  Terms are applied one at a time, to hold one term's images.
    """
    alg = sector.algebra
    n = sector.dimension
    n_cap = alg.n_max + max((sum(g.create for g in gens) for _, gens in expr.terms),
                            default=0)
    hits = [(np.zeros(0, complex), np.zeros(0, int), np.zeros(0, int))]
    misses = [(np.zeros(0, complex), sector.counts[:0], np.zeros(0, int))]
    leaked = np.zeros(n, bool)
    for term in expr.terms:
        counts, values, cols = _apply_counts(OperatorExpr((term,)), sector.counts,
                                             np.ones(n, complex), alg, n_cap)
        rows = sector.lookup(counts)
        hit = rows >= 0
        hits.append((values[hit], rows[hit], cols[hit]))
        miss = np.flatnonzero(~hit)
        leaky, first = np.unique(cols[miss], return_index=True)
        first = miss[first[~leaked[leaky]]]  # first misses of columns new to leak
        leaked[cols[first]] = True
        misses.append((values[first], counts[first], cols[first]))
    (values, rows, cols), (leak_values, leak_counts, leak_cols) = (
        [np.concatenate(part) for part in zip(*parts)] for parts in (hits, misses))
    matrix = sparse.csr_array((values, (rows, cols)), shape=(n, n))
    return matrix, {int(leak_cols[i]): (leak_counts[i], leak_values[i])
                    for i in np.argsort(leak_cols)}


def represent(expr: OperatorExpr,
              sector: Sector) -> tuple[sparse.csr_array, dict[int, FockState]]:
    """Sparse matrix of an operator expression on the sector basis, and its leaks.

    Applications run with creation headroom above the sector's own content
    bounds; image components outside the basis are recorded per column
    rather than silently dropped.  The leaks map each leaking column, in
    column order, to its first escaping image as a FockState.
    """
    matrix, leaks = _sector_matrix(expr, sector)
    return matrix, {j: sector.algebra.decode(*leak) for j, leak in leaks.items()}


def is_self_adjoint(model: InteractionModel, sector: Sector) -> bool:
    """rep(V‡) == rep(V) on the sector (co coupling must be real)."""
    if abs(np.imag(model.coupling)) > 0:
        return False
    expr = model.vertex_expr(sector.algebra.spec)
    a, _ = _sector_matrix(expr, sector)
    b, _ = _sector_matrix(special_adjoint(expr), sector)
    scale = abs(a).max() or 1.0
    return bool(abs(a - b).max() <= 1e-12 * scale)


def _clean_columns(v: sparse.csr_array, leaks, applications: int) -> np.ndarray:
    """Columns from which `applications` repeated uses of v never touch a leak.

    A column is dirty if it leaks itself or if any state reachable within
    applications - 1 further uses leaks (the final image states receive no
    further application).
    """
    reached = abs(v) > 0
    dirty = np.zeros(v.shape[0], dtype=bool)
    dirty[list(leaks)] = True
    for _ in range(max(applications - 1, 0)):
        dirty = dirty | (reached.T @ dirty)
    return ~dirty


def _at_coupling(coefficients: dict, g: float) -> sparse.csr_array:
    total = coefficients[0].copy()
    for m in range(1, len(coefficients)):
        total = total + g ** m * coefficients[m]
    return total


@dataclass
class DysonOperator:
    """g-graded truncated series G = sum_m g^m C_m, C_m = (-i)^m/m! V1^m.

    The coefficients and every matrix the methods return are scipy.sparse
    arrays on the sector basis.  Unitarity under the special adjoint is
    checked through the one series of G‡G - 1 in g: per order on all
    columns, or summed at a coupling on the residual-clean columns.  For a
    vertex whose terms are their own special adjoints as a multiset,
    adjoint_coefficients hold the powers of rep(V) itself (C‡_m =
    (-1)^m C_m); dyson_truncated represents V‡ separately only otherwise.
    """

    sector: Sector
    order: int
    coefficients: dict[int, sparse.csr_array]          # for G
    adjoint_coefficients: dict[int, sparse.csr_array]  # for G‡
    clean: np.ndarray           # columns surviving `order` applications
    residual_clean: np.ndarray  # columns surviving 2*order (for G‡G checks)

    def matrix(self, g: float) -> sparse.csr_array:
        return _at_coupling(self.coefficients, g)

    def _residual_series(self, columns) -> dict[int, sparse.csr_array]:
        """Coefficients of g^k in G‡G - 1 on the given columns, k <= 2*order."""
        sliced = {m: c[:, columns] for m, c in self.coefficients.items()}
        eye = sparse.eye_array(self.sector.dimension, dtype=complex, format="csr")[:, columns]
        out = {}
        for k in range(0, 2 * self.order + 1):
            total = -eye if k == 0 else sparse.csr_array(eye.shape, dtype=complex)
            for a in range(max(k - self.order, 0), min(k, self.order) + 1):
                total = total + self.adjoint_coefficients[a] @ sliced[k - a]
            out[k] = total
        return out

    def unitarity_residual_orders(self) -> dict[int, sparse.csr_array]:
        """Order-by-order coefficients of G‡G - 1 on all columns."""
        return self._residual_series(slice(None))

    def unitarity_residual_norm(self, g: float) -> float:
        """Frobenius norm of G‡G - 1 at coupling g on the residual-clean columns."""
        residual = _at_coupling(self._residual_series(self.residual_clean), g)
        return float(np.linalg.norm(residual.data))


def dyson_truncated(model: InteractionModel, sector: Sector, order: int) -> DysonOperator:
    """Truncated exponential series of the vertex with per-order bookkeeping.

    When V‡ is the same multiset of coefficient-weighted generator strings
    as V (the AB model: each term's adjoint is the other term at its site),
    rep(V) and its powers serve as rep(V‡) and its powers, and the sector
    matrix is built once; otherwise V‡ is represented on its own.

    Demands a leakage-free core: at least one basis column must survive
    2*order applications of V without touching a leaking state, else a
    LeakageError names the first escaping basis state.
    """
    if order < 0:
        raise ContractViolation("order must be >= 0")
    expr = model.vertex_expr(sector.algebra.spec, coupling=1.0)
    v1, leaks = _sector_matrix(expr, sector)
    if not leaks and not v1.count_nonzero():
        logging.getLogger("worldlineqm").warning("vertex operator is empty on this sector")
    adjoint = special_adjoint(expr)
    self_adjoint = Counter(adjoint.terms) == Counter(expr.terms)
    a1 = v1 if self_adjoint else _sector_matrix(adjoint, sector)[0]
    eye = sparse.eye_array(sector.dimension, dtype=complex, format="csr")
    coeffs, adj_coeffs = {0: eye}, {0: eye}
    power, adj_power = v1, a1
    for m in range(1, order + 1):
        if m > 1:
            power = v1 @ power
            adj_power = power if self_adjoint else a1 @ adj_power
        coeffs[m] = (-1j) ** m / factorial(m) * power
        adj_coeffs[m] = (1j) ** m / factorial(m) * adj_power
    clean = _clean_columns(v1, leaks, order)
    if order > 0 and not clean.any():
        j, leak = next(iter(leaks.items()))
        state = sector.algebra.decode(*leak)
        raise LeakageError(
            f"V^{order} escapes the sector from every basis state; first leak "
            f"from column {j} into {state.entries}", basis_state=state)
    residual_clean = _clean_columns(v1, leaks, 2 * order)
    return DysonOperator(sector, order, coeffs, adj_coeffs, clean, residual_clean)


def amplitude_order_m(in_state: FockState, out_state: FockState,
                      model: InteractionModel, m_order: int, sector: Sector) -> complex:
    """<out| (-i)^m / m! V^m |in> by repeated application of V.

    V acts on count rows up to algebra.n_max entries, so intermediate images
    may leave the sector's content bounds.  Equal rows are merged after each
    application, and each distinct image is paired with out_state.  Order 0
    reduces to the bare multiparticle pairing.
    """
    if not 0 <= m_order <= 3:
        raise ContractViolation("m_order must be in [0, 3]")
    alg = sector.algebra
    expr = model.vertex_expr(alg.spec)
    counts = alg.encode([in_state])
    values = np.array([in_state.coefficient], complex)
    for _ in range(m_order):
        counts, values, _ = _apply_counts(expr, counts, values, alg, alg.n_max)
        keys, first, inverse = np.unique(alg.row_keys(counts), return_index=True,
                                         return_inverse=True)
        merged = np.zeros(len(keys), complex)
        np.add.at(merged, inverse, values)
        counts, values = counts[first], merged
    total = sum((fock_inner(out_state, alg.decode(c, v), alg)
                 for c, v in zip(counts, values)), 0j)
    return complex((-1j) ** m_order / factorial(m_order) * total)


# ---------------------------------------------------------------------------
# external lines and tree-level scattering


FINAL_PARTICLE = "final-particle"
FINAL_ANTIPARTICLE = "final-antiparticle"
INITIAL_PARTICLE = "initial-particle"
INITIAL_ANTIPARTICLE = "initial-antiparticle"
_LINE_KINDS = (FINAL_PARTICLE, FINAL_ANTIPARTICLE, INITIAL_PARTICLE, INITIAL_ANTIPARTICLE)


def external_line_factor(kind: str, p_spatial, mass: float, x: FourVector) -> complex:
    """On-shell reduction factor for one external line at vertex position x.

    (2 pi)^(-d/2) (2 E_p)^(-1/2) exp(i s (E x0 - p.x)), the symmetric-sqrt2E
    localized wavefunction of momentum s p and sign s, where s = +1 for a
    final particle (outgoing) or an initial antiparticle (outgoing), and
    s = -1 for an initial particle (incoming) or a final antiparticle
    (incoming, path running backward).  p_spatial must have the D - 1
    components of x.spatial.
    """
    if kind not in _LINE_KINDS:
        raise ContractViolation(f"unknown line kind {kind!r}")
    p = np.atleast_1d(np.asarray(p_spatial, dtype=float))
    s = 1 if kind in (FINAL_PARTICLE, INITIAL_ANTIPARTICLE) else -1
    return localized_wavefunction(x.spatial, x.time, s * p, mass, s, SYMMETRIC_SQRT2E)


@dataclass(frozen=True)
class ScatterLeg:
    p_spatial: tuple[float, ...]
    type_label: str
    sign: int = +1  # +1 particle, -1 antiparticle

    def __post_init__(self):
        object.__setattr__(self, "p_spatial",
                           tuple(float(p) for p in self.p_spatial))
        check_sign(self.sign)


@dataclass(frozen=True)
class ScatterSpec:
    incoming: tuple[ScatterLeg, ...]
    outgoing: tuple[ScatterLeg, ...]
    grid: MomentumGrid

    def __post_init__(self):
        axis = self.grid.axis()
        for leg in self.incoming + self.outgoing:
            for p in leg.p_spatial:
                if not np.min(np.abs(axis - p)) <= 1e-9 * max(1.0, self.grid.spacing):
                    raise ContractViolation(f"momentum component {p} is off the grid")


def scatter_tree_2to2(spec: ScatterSpec, model: InteractionModel,
                      epsilon: float) -> complex:
    """Tree-level A A -> A A amplitude via B exchange.

    g^2 [prop_B(p1 - p1') + prop_B(p1 - p2')] times the four external-line
    factors at the origin, where each is its magnitude, and the grid-Kronecker
    conservation delta; both crossing assignments of the final momenta are
    included.  The amplitude covers particle legs only, all of one type A
    that every vertex term both creates and annihilates (a line the model
    conserves); any other leg raises ContractViolation.
    """
    if len(spec.incoming) != 2 or len(spec.outgoing) != 2:
        raise ContractViolation("tree amplitude needs 2 incoming and 2 outgoing legs")
    if any(leg.sign != +1 for leg in spec.incoming + spec.outgoing):
        raise ContractViolation("the A A -> A A tree amplitude has no antiparticle legs")
    label_a = spec.incoming[0].type_label
    if any(leg.type_label != label_a for leg in spec.incoming + spec.outgoing):
        raise ContractViolation("all external legs must be the conserved-line type")
    if not all(label_a in t.dagger_types and label_a in t.plain_types for t in model.terms):
        raise ContractViolation(f"leg type {label_a!r} is not a line every vertex conserves")
    labels = set(model.types) - {label_a}
    if len(labels) != 1:
        raise ContractViolation("model must carry exactly one exchange type")
    label_b = labels.pop()
    m_a = model.types[label_a].mass
    m_b = model.types[label_b].mass
    d = spec.grid.spatial_dimension

    p_in = [np.asarray(leg.p_spatial) for leg in spec.incoming]
    p_out = [np.asarray(leg.p_spatial) for leg in spec.outgoing]
    if not np.allclose(sum(p_in), sum(p_out), rtol=0.0, atol=1e-12):
        return 0j  # grid Kronecker delta

    def transfer(pa, pb):
        return FourVector((onshell_energy(pa, m_a) - onshell_energy(pb, m_a),) + tuple(pa - pb))

    exchange = (propagator_momentum(transfer(p_in[0], p_out[0]), m_b, epsilon)
                + propagator_momentum(transfer(p_in[0], p_out[1]), m_b, epsilon))
    origin = FourVector((0.0,) * (d + 1))
    external = np.prod([external_line_factor(FINAL_PARTICLE, p, m_a, origin)
                        for p in p_in + p_out])
    return complex(model.coupling ** 2 * exchange * external)


# ---------------------------------------------------------------------------
# one-loop self-energy (unregulated, euclidean)


def self_energy_unregulated(p: FourVector, m_a: float, m_b: float, dimension: int,
                            cutoff: float) -> SelfEnergyResult:
    """Euclidean bubble I(p; cutoff) = Int_{|k|<cutoff} d^Dk
    [(k^2+m_a^2)((p-k)^2+m_b^2)]^(-1) by radial quadrature with the angular
    integral in closed form.  Convergent as cutoff -> inf in D=2; grows like
    log(cutoff) in D=4, so D=4 needs a finite cutoff.
    """
    p.check_dimension(dimension, "p")
    if dimension == 4 and not np.isfinite(cutoff):
        raise DomainError("the D=4 bubble diverges logarithmically; it needs a finite cutoff")
    if not cutoff > 10 * max(m_a, m_b):
        raise ContractViolation("cutoff must exceed 10 * max(m_a, m_b)")
    p_norm = float(np.sqrt(p.as_array() @ p.as_array()))

    points = sorted({m_a, m_b, p_norm + m_b}) if np.isfinite(cutoff) else None
    value, err = bubble(lambda ksq: 1.0 / (ksq + m_a * m_a), p_norm, m_b, dimension,
                        cutoff, points)
    return SelfEnergyResult(value=value, error=err, route="cutoff",
                            metadata={"cutoff": cutoff, "dimension": dimension,
                                      "m_a": m_a, "m_b": m_b, "p_norm": p_norm})

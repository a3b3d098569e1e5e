"""Reference field application on FockState objects, entry by entry.

The package applies fields on count vectors (`fock._apply_counts`); this
walk spells out the same rules on the symmetrized entry tuples and serves
as the oracle for it.  Branches come out unmerged, term by term, one per
contracted entry in sorted entry order.
"""

from worldlineqm.errors import ContractViolation, SectorOverflowError
from worldlineqm.fock import INTEGRATED, START, Entry, symmetrize


def walk_generator(gen, state, algebra):
    """Apply one field factor to a state; returns the resulting combination."""
    algebra.check_label(gen.type_label)
    if gen.create:
        tag = START if gen.start else INTEGRATED
        if state.n_particles + 1 > algebra.n_max:
            raise SectorOverflowError(
                f"creation would exceed the sector bound {algebra.n_max}")
        return [symmetrize(state.entries + (Entry(gen.site, gen.type_label, tag),),
                           state.coefficient)]
    out = []
    for i, entry in enumerate(state.entries):
        if entry.type_label != gen.type_label:
            continue
        if entry.tag != START:
            raise ContractViolation(
                "contraction against an integrated-label entry is not defined")
        if gen.start:
            # equal-parameter pairing: lattice delta
            if entry.site != gen.site:
                continue
            factor = 1.0 / algebra.spec.cell_volume
        else:
            factor = algebra.two_point(gen.type_label, gen.site, entry.site)
        rest = state.entries[:i] + state.entries[i + 1:]
        out.append(symmetrize(rest, state.coefficient * factor))
    return out


def walk_string(generators, state, algebra):
    """Apply an ordered generator string (rightmost factor first)."""
    states = [state]
    for gen in reversed(tuple(generators)):
        states = [t for s in states for t in walk_generator(gen, s, algebra)]
    return states


def walk_expr(expr, state, algebra):
    return [s for coeff, gens in expr.terms
            for s in walk_string(gens, symmetrize(state.entries, state.coefficient * coeff),
                                 algebra)]

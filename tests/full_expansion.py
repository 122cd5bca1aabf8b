"""IHX rows by expanding every non-loop edge of every generator, as
`trihom.homology.relation_matrix` built them before it skipped the edges
whose row an earlier expansion had already given.  It is kept as the
reference the skipping expansion is compared against; `expand_row` gives
the row of any labelled graph at any non-loop edge.  Its `relation_matrix`
returns the `RelationData` of `trihom.homology`, whose rows are
(generator class id, edge) pairs, with the notes of every pair it
expanded.

Its terms are built as they were before `ihx_expand` returned dart swaps:
each regrouping is a graph of its own, made by moving every dart through
the transposition, with the generator's labelling transported onto it,
and signed by `transported_sign` from that graph and labelling.  So the
swap-built terms of `trihom.homology` are compared against code they do
not share; only the class lookup and the row sum are common.
"""

from __future__ import annotations

from trihom.errors import LoopEdge
from trihom.exactla import SparseIntMatrix
from trihom.homology import ClassBasis, Expressed, RelationData, _notes, _row
from trihom.multigraph import DartGraph, TadpolePolicy, _connected
from trihom.orientation import (
    ClassStatus,
    OrientedLabelling,
    reference_labelling,
    transported_sign,
)


def conjugate_term(
    g: DartGraph, labelling: OrientedLabelling, swap: tuple[int, int]
) -> tuple[DartGraph, OrientedLabelling]:
    """Regroup by the dart transposition `swap`, transporting labels and
    directions along the induced edge correspondence."""
    a, b = swap

    def tau(d: int) -> int:
        if d == a:
            return b
        if d == b:
            return a
        return d

    partner = [0] * g.num_darts
    for d in range(g.num_darts):
        partner[tau(d)] = tau(g.partner[d])
    term = DartGraph(g.num_vertices, partner, _connected(g.num_vertices, partner))
    edge_labels = [0] * term.num_edges
    directions: list[tuple[int, int]] = [(0, 0)] * term.num_edges
    for i, (x, y) in enumerate(g.edges):
        j = term.edge_of_dart(tau(x))
        edge_labels[j] = labelling.edge_labels[i]
        t, h = labelling.directions[i]
        directions[j] = (tau(t), tau(h))
    lab = OrientedLabelling(
        labelling.vertex_labels, tuple(edge_labels), tuple(directions)
    )
    return term, lab


def ihx_terms(
    g: DartGraph, labelling: OrientedLabelling, edge_index: int
) -> list[tuple[DartGraph, OrientedLabelling, str]]:
    """The three regroupings around a non-loop edge, tagged I/H/X, each a
    graph with its transported labelling."""
    a, b = g.edges[edge_index]
    u, v = a // 3, b // 3
    if u == v:
        raise LoopEdge(f"edge {edge_index} is a self-loop")
    du = sorted(d for d in g.darts_of(u) if d != a)
    dv = sorted(d for d in g.darts_of(v) if d != b)
    (_, q), (r, s) = (du[0], du[1]), (dv[0], dv[1])
    out = [(g, labelling, "I")]
    for tag, swap in (("H", (q, r)), ("X", (q, s))):
        out.append((*conjugate_term(g, labelling, swap), tag))
    return out


def expressed(
    basis: ClassBasis, term: DartGraph, labelling: OrientedLabelling
) -> Expressed:
    """A term graph with its own labelling as 0 or ±1 times a generator."""
    if not term.connected:
        return Expressed(0, None, "disconnected")
    if basis.policy is TadpolePolicy.EXCLUDE and term.has_loop:
        return Expressed(0, None, "tadpole")
    class_id, dart_map = basis.table.find(term.partner)
    cls = basis.classes[class_id]
    if cls.status is ClassStatus.ZERO:
        return Expressed(0, cls, "zero-class")
    sign = transported_sign(basis.convention, term, labelling, dart_map, cls.rep)
    return Expressed(sign, cls, dart_map=dart_map)


def expand_terms(
    basis: ClassBasis, g: DartGraph, labelling: OrientedLabelling, edge_index: int
) -> list[tuple[str, Expressed]]:
    """The I, H and X terms around a non-loop edge, in the class space."""
    return [
        (tag, expressed(basis, term, lab))
        for term, lab, tag in ihx_terms(g, labelling, edge_index)
    ]


def expand_row(
    basis: ClassBasis, g: DartGraph, labelling: OrientedLabelling, edge_index: int
) -> tuple[dict[int, int], tuple[str, ...]]:
    """One IHX row over generator columns, plus per-term notes."""
    terms = expand_terms(basis, g, labelling, edge_index)
    return _row(basis, terms), _notes(basis, terms)


def relation_matrix(
    basis: ClassBasis,
) -> tuple[RelationData, dict[tuple[int, int], tuple[str, ...]]]:
    """Deduplicated IHX rows from every non-loop edge of every generator,
    with each (class id, edge) pair's notes."""
    seen: dict[tuple[tuple[int, int], ...], tuple[int, int]] = {}  # row -> pair
    zero_rows: list[tuple[int, int]] = []
    notes_of: dict[tuple[int, int], tuple[str, ...]] = {}
    duplicates = 0
    for cls in basis.classes:
        if cls.status is not ClassStatus.GENERATOR:
            continue
        rep = cls.rep
        labelling = reference_labelling(rep)
        for e in range(rep.num_edges):
            if rep.is_loop(e):
                continue
            acc, notes = expand_row(basis, rep, labelling, e)
            notes_of[cls.class_id, e] = notes
            if not acc:
                zero_rows.append((cls.class_id, e))
                continue
            entries = tuple(sorted(acc.items()))
            if entries[0][1] < 0:
                entries = tuple((c, -v) for c, v in entries)
            if entries in seen:
                duplicates += 1
                continue
            seen[entries] = (cls.class_id, e)
    matrix = SparseIntMatrix(len(seen), basis.num_generators, seen)
    rel = RelationData(matrix, list(seen.values()), zero_rows, duplicates, 0)
    return rel, notes_of

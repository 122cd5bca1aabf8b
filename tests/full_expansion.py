"""IHX rows by expanding every non-loop edge of every generator, as
`trihom.homology.relation_matrix` built them before it skipped the edges
whose row an earlier expansion had already given.  It is kept as the
reference the skipping expansion is compared against; `expand_row` gives
the row of any labelled graph at any non-loop edge.
"""

from __future__ import annotations

from trihom.exactla import SparseIntMatrix
from trihom.homology import ClassBasis, RelationData, RelationRow, _row, _terms
from trihom.multigraph import DartGraph
from trihom.orientation import ClassStatus, OrientedLabelling, reference_labelling


def expand_row(
    basis: ClassBasis, g: DartGraph, labelling: OrientedLabelling, edge_index: int
) -> tuple[dict[int, int], tuple[str, ...]]:
    """One IHX row over generator columns, plus per-term notes."""
    return _row(basis, _terms(basis, g, labelling, edge_index))


def relation_matrix(basis: ClassBasis) -> RelationData:
    """Deduplicated IHX rows from every non-loop edge of every generator."""
    seen: set[tuple[tuple[int, int], ...]] = set()
    rows: list[RelationRow] = []
    zero_rows: list[RelationRow] = []
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
            row = RelationRow(tuple(sorted(acc.items())), cls.class_id, e, notes)
            if not acc:
                zero_rows.append(row)
                continue
            if row.entries[0][1] < 0:
                row = RelationRow(
                    tuple((c, -v) for c, v in row.entries), cls.class_id, e, notes
                )
            if row.entries in seen:
                duplicates += 1
                continue
            seen.add(row.entries)
            rows.append(row)
    matrix = SparseIntMatrix(
        len(rows), basis.num_generators, [list(r.entries) for r in rows]
    )
    return RelationData(matrix, rows, zero_rows, duplicates, 0)

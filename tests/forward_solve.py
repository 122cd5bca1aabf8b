"""A tracked `Fraction` elimination, kept as the reference that
`trihom.exactla`'s untracked echelon and back-substitution are compared
against.  Each reduced row is carried as a combination of the original
rows: eliminating Mᵀ gives the zero combinations, the reference for
`exactla.kernel(M)`; eliminating M itself and reducing a target over that
echelon gives the reference for `exactla.solve_combinations`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from trihom.errors import NoSolution
from trihom.exactla import SparseIntMatrix

# (pivot column, reduced row, that row as a combination of the original rows)
Pivot = tuple[int, dict[int, Fraction], dict[int, Fraction]]
# (echelon pivots, combinations of the original rows that reduce to zero)
Echelon = tuple[list[Pivot], list[dict[int, Fraction]]]


def _subtract(acc: dict[int, Fraction], f: Fraction, vec: dict[int, Fraction]) -> None:
    """acc -= f * vec, keeping no zero entries."""
    for c, v in vec.items():
        nv = acc.get(c, Fraction(0)) - f * v
        if nv:
            acc[c] = nv
        elif c in acc:
            del acc[c]


def reduce_rows_tracked(m: SparseIntMatrix) -> Echelon:
    """Echelonize rows over Q, reducing each row by every earlier pivot in
    turn and tracking it as a combination of the original rows."""
    echelon: list[Pivot] = []
    zero_combos: list[dict[int, Fraction]] = []
    for i, source in enumerate(m.rows):
        row = {c: Fraction(v) for c, v in source}
        combo = {i: Fraction(1)}
        for pc, prow, pcombo in echelon:
            f = row.get(pc)
            if f:
                _subtract(row, f, prow)
                _subtract(combo, f, pcombo)
        if row:
            pc = min(row)
            f = row[pc]
            row = {c: v / f for c, v in row.items()}
            combo = {c: v / f for c, v in combo.items()}
            echelon.append((pc, row, combo))
        else:
            zero_combos.append(combo)
    return echelon, zero_combos


def kernel(m: SparseIntMatrix) -> list[dict[int, Fraction]]:
    """{v : M v = 0} as the combinations of Mᵀ's rows that reduce to zero:
    one per row of Mᵀ that depends on the rows before it, 1 there."""
    return reduce_rows_tracked(m.transpose())[1]


def solve_combination(
    m: SparseIntMatrix,
    target: Sequence[int | Fraction],
    echelon: Echelon | None = None,
) -> dict[int, Fraction]:
    """Sparse coefficients x with x M = target, or raise NoSolution.

    `echelon`, when given, is `reduce_rows_tracked(m)`.  x is supported on
    the pivot rows of that echelon: the rows of M that are independent of
    the rows before them.
    """
    if len(target) != m.num_cols:
        raise ValueError("target length mismatch")
    pivots, _ = echelon if echelon is not None else reduce_rows_tracked(m)
    t = {c: Fraction(v) for c, v in enumerate(target) if v}
    combo: dict[int, Fraction] = {}
    for pc, prow, pcombo in pivots:
        f = t.get(pc)
        if f:
            _subtract(t, f, prow)
            _subtract(combo, -f, pcombo)
    if t:
        raise NoSolution("target is independent of the rows")
    return combo

"""Relation combinations by forward reduction, as `trihom.exactla` solved
them before the solve read the elimination of the transpose: eliminate M
itself, tracking each reduced row as a combination of M's rows, then reduce
the target over that echelon.  It is kept as the reference that
`exactla.solve_combination`'s back-substitution is compared against.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from trihom.errors import NoSolution
from trihom.exactla import Echelon, SparseIntMatrix, _reduce_rows_tracked


def solve_combination(
    m: SparseIntMatrix,
    target: Sequence[int | Fraction],
    echelon: Echelon | None = None,
) -> list[Fraction]:
    """Coefficients x with x M = target, or raise NoSolution.

    `echelon`, when given, is `_reduce_rows_tracked(m)`.  x is supported on
    the pivot rows of that echelon: the rows of M that are independent of
    the rows before them.
    """
    if len(target) != m.num_cols:
        raise ValueError("target length mismatch")
    pivots, _ = echelon if echelon is not None else _reduce_rows_tracked(m)
    t = {c: Fraction(v) for c, v in enumerate(target) if v}
    combo: dict[int, Fraction] = {}
    for pc, prow, pcombo in pivots:
        f = t.get(pc)
        if f:
            for c, v in prow.items():
                nv = t.get(c, Fraction(0)) - f * v
                if nv:
                    t[c] = nv
                elif c in t:
                    del t[c]
            for c, v in pcombo.items():
                combo[c] = combo.get(c, Fraction(0)) + f * v
    if t:
        raise NoSolution("target is independent of the rows")
    vec = [Fraction(0)] * m.num_rows
    for i, v in combo.items():
        vec[i] = v
    return vec

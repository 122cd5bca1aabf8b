"""Exact sparse integer/rational linear algebra.

Everything here is exact: one tracked Fraction elimination of Mᵀ, gated by
`AK_MAX_MATRIX`, gives M's rank and left nullspace of Mᵀ and solves
x M = target, and ranks mod the fixed primes `PRIMES` serve as an
independent cross-check: a rank mod p never exceeds the rank over Q, so a
disagreement with the exact rank is always an error.  No floating point.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Iterable, Sequence

from .errors import MalformedPairing, NoSolution, ResourceLimit, env_int

DEFAULT_MAX_MATRIX_CELLS = 100_000_000

# the three largest primes below 2**62: the modular rank cross-check's primes
PRIMES = (2**62 - 57, 2**62 - 87, 2**62 - 117)


def _max_cells() -> int:
    return env_int("AK_MAX_MATRIX", DEFAULT_MAX_MATRIX_CELLS)


class SparseIntMatrix:
    """Rows of sorted (col, value) pairs; no explicit zeros."""

    __slots__ = ("num_rows", "num_cols", "rows")

    def __init__(
        self,
        num_rows: int,
        num_cols: int,
        rows: Iterable[Iterable[tuple[int, int]]],
    ):
        self.num_rows = num_rows
        self.num_cols = num_cols
        self.rows: list[tuple[tuple[int, int], ...]] = []
        for row in rows:
            entries = tuple(sorted((c, int(v)) for c, v in row if v != 0))
            cols = [c for c, _ in entries]
            if any(not 0 <= c < num_cols for c in cols) or len(set(cols)) != len(cols):
                raise ValueError("bad column indices in sparse row")
            self.rows.append(entries)
        if len(self.rows) != num_rows:
            raise ValueError("row count mismatch")

    @staticmethod
    def from_dense(dense: Sequence[Sequence[int]]) -> "SparseIntMatrix":
        nr = len(dense)
        nc = len(dense[0]) if nr else 0
        return SparseIntMatrix(
            nr, nc, [[(j, v) for j, v in enumerate(row) if v] for row in dense]
        )

    def to_dense(self) -> list[list[int]]:
        out = [[0] * self.num_cols for _ in range(self.num_rows)]
        for i, row in enumerate(self.rows):
            for c, v in row:
                out[i][c] = v
        return out

    def transpose(self) -> "SparseIntMatrix":
        cols: list[list[tuple[int, int]]] = [[] for _ in range(self.num_cols)]
        for i, row in enumerate(self.rows):
            for c, v in row:
                cols[c].append((i, v))
        return SparseIntMatrix(self.num_cols, self.num_rows, cols)

    @property
    def nnz(self) -> int:
        return sum(len(r) for r in self.rows)

    def content_hash(self) -> str:
        h = hashlib.sha256()
        h.update(f"{self.num_rows} {self.num_cols}\n".encode())
        for i, row in enumerate(self.rows):
            for c, v in row:
                h.update(f"{i} {c} {v};".encode())
        return h.hexdigest()

    def to_matrixmarket(self) -> str:
        lines = [
            "%%MatrixMarket matrix coordinate integer general",
            f"{self.num_rows} {self.num_cols} {self.nnz}",
        ]
        for i, row in enumerate(self.rows):
            for c, v in row:
                lines.append(f"{i + 1} {c + 1} {v}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_matrixmarket(text: str) -> "SparseIntMatrix":
        lines = [
            ln for ln in text.splitlines() if ln.strip() and not ln.startswith("%")
        ]
        if not lines:
            raise MalformedPairing("empty MatrixMarket input")
        nr, nc, nnz = (int(x) for x in lines[0].split())
        rows: list[list[tuple[int, int]]] = [[] for _ in range(nr)]
        for ln in lines[1 : 1 + nnz]:
            i, j, v = ln.split()
            rows[int(i) - 1].append((int(j) - 1, int(v)))
        return SparseIntMatrix(nr, nc, rows)


def _rank_mod_p_exact(m: SparseIntMatrix, p: int) -> int:
    """Python-int elimination mod p.

    Each row is reduced only by the pivots at its own columns, taken in
    pivot order from a heap.  A pivot row is zero at every earlier pivot's
    column, so subtracting pivot t fills only later pivots' columns, which
    join the heap as they appear: these are the subtractions, in the same
    order, of reducing the row by every pivot in turn."""
    pivot_at: dict[int, int] = {}  # pivot column -> its index in `pivots`
    # (pivot column, the normalised pivot row less its leading 1)
    pivots: list[tuple[int, tuple[tuple[int, int], ...]]] = []
    for source in m.rows:
        row = {c: v % p for c, v in source if v % p}
        heap = [pivot_at[c] for c in row if c in pivot_at]
        heapify(heap)
        while heap:
            pc, rest = pivots[heappop(heap)]
            f = row.pop(pc, 0)  # absent once another subtraction cancelled it
            if not f:
                continue
            f = p - f
            for c, v in rest:
                if c in row:
                    nv = (row[c] + f * v) % p
                    if nv:
                        row[c] = nv
                    else:
                        del row[c]
                else:
                    row[c] = f * v % p
                    if c in pivot_at:
                        heappush(heap, pivot_at[c])
        if row:
            pc = min(row)
            inv = pow(row.pop(pc), p - 2, p)
            pivot_at[pc] = len(pivots)
            pivots.append((pc, tuple((c, v * inv % p) for c, v in row.items())))
    return len(pivots)


def modular_rank(m: SparseIntMatrix, primes: Sequence[int]) -> int:
    """max over primes of rank mod p; a certified lower bound for rank()."""
    if len(primes) < 2:
        raise ValueError("need at least 2 primes")
    return max(_rank_mod_p_exact(m, p) for p in primes)


# (pivot column, reduced row, that row as a combination of the original rows)
Pivot = tuple[int, dict[int, Fraction], dict[int, Fraction]]
# (echelon pivots, combinations of the original rows that reduce to zero)
Echelon = tuple[list[Pivot], list[dict[int, Fraction]]]


def _reduce_rows_tracked(m: SparseIntMatrix) -> Echelon:
    """Echelonize rows over Q, tracking each reduced row as a combination of
    the original rows."""
    if m.num_rows * m.num_cols > _max_cells():
        raise ResourceLimit(
            f"matrix {m.num_rows}x{m.num_cols} exceeds AK_MAX_MATRIX cell limit"
        )
    echelon: list[Pivot] = []
    zero_combos: list[dict[int, Fraction]] = []
    for i, source in enumerate(m.rows):
        row = {c: Fraction(v) for c, v in source}
        combo = {i: Fraction(1)}
        for pc, prow, pcombo in echelon:
            f = row.get(pc)
            if f:
                for c, v in prow.items():
                    nv = row.get(c, Fraction(0)) - f * v
                    if nv:
                        row[c] = nv
                    elif c in row:
                        del row[c]
                for c, v in pcombo.items():
                    nv = combo.get(c, Fraction(0)) - f * v
                    if nv:
                        combo[c] = nv
                    elif c in combo:
                        del combo[c]
        if row:
            pc = min(row)
            f = row[pc]
            row = {c: v / f for c, v in row.items()}
            combo = {c: v / f for c, v in combo.items()}
            echelon.append((pc, row, combo))
        else:
            zero_combos.append(combo)
    return echelon, zero_combos


def left_nullspace(m: SparseIntMatrix) -> list[list[Fraction]]:
    """Basis of {y : y M = 0}, as dense Fraction vectors of length num_rows."""
    _, zero_combos = _reduce_rows_tracked(m)
    zero = Fraction(0)
    return [[f.get(i, zero) for i in range(m.num_rows)] for f in zero_combos]


def rank(m: SparseIntMatrix) -> int:
    """Exact rank over the rationals: the number of columns less the number
    of independent functionals on them that vanish on every row."""
    return m.num_cols - len(left_nullspace(m.transpose()))


def solve_combination(
    m: SparseIntMatrix,
    target: Sequence[int | Fraction],
    transposed: Echelon | None = None,
) -> list[Fraction]:
    """Coefficients x with x M = target, or raise NoSolution.

    `transposed`, when given, is `_reduce_rows_tracked(m.transpose())`, so
    a caller holding it solves without eliminating again.  Its zero
    combinations vanish on every row, so on the target when it is in the
    row space.  Then pivot t gives x[pc_t] = pcombo_t . target less
    prow_t[pc_s] x[pc_s] over the later pivots s, solved in reverse.  x is
    the unique solution supported on the rows of M independent of the rows
    before them, the leading positions of the row space of Mᵀ.
    """
    if len(target) != m.num_cols:
        raise ValueError("target length mismatch")
    pivots, zero_combos = (
        transposed if transposed is not None else _reduce_rows_tracked(m.transpose())
    )
    t = {c: Fraction(v) for c, v in enumerate(target) if v}
    if any(sum(f[c] * v for c, v in t.items() if c in f) for f in zero_combos):
        raise NoSolution("target is independent of the rows")
    # a combination uses few rows, so x's entries are walked rather than each
    # pivot's row, and zero terms make no Fraction arithmetic
    x: dict[int, Fraction] = {}
    for pc, prow, pcombo in reversed(pivots):
        v = sum(pcombo[c] * w for c, w in t.items() if c in pcombo) - sum(
            prow[c] * y for c, y in x.items() if c in prow
        )
        if v:
            x[pc] = v
    zero = Fraction(0)
    return [x.get(i, zero) for i in range(m.num_rows)]

"""Exact sparse integer/rational linear algebra.

Everything here is exact.  One untracked `Fraction` echelon, gated by
`AK_MAX_MATRIX` on the entries it stores, plus back-substitution gives
`kernel`, and so `rank`; the same over Mᵀ with the targets as extra
columns gives `solve_combinations`, x M = t.  Ranks mod the fixed primes
`PRIMES` serve as an independent cross-check: a rank mod p never exceeds
the rank over Q, so a disagreement with the exact rank is always an
error.  No floating point.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Iterable, Sequence

from .errors import MalformedPairing, NoSolution, ResourceLimit, env_int

# entries an echelon may store: about 160 bytes each in the echelon of the
# k=7 odd relation matrix, so near 1.6 GB, well below an 8 GB host's memory
DEFAULT_MAX_MATRIX_ENTRIES = 10_000_000

# the three largest primes below 2**62: the modular rank cross-check's primes
PRIMES = (2**62 - 57, 2**62 - 87, 2**62 - 117)


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


def _echelon(m: SparseIntMatrix) -> dict[int, dict[int, Fraction]]:
    """Row echelon form of m over Q, by pivot column.

    While a row has an entry at a pivot's column, the pivot at the least
    such column is subtracted; what is left is stored, scaled to 1 at its
    least column, as that column's pivot.  So a pivot row lies at and after
    its pivot column.  `AK_MAX_MATRIX` bounds the entries stored."""
    limit = env_int("AK_MAX_MATRIX", DEFAULT_MAX_MATRIX_ENTRIES)
    pivots: dict[int, dict[int, Fraction]] = {}
    stored = 0
    for source in m.rows:
        row = {c: Fraction(v) for c, v in source}
        while (pc := min((c for c in row if c in pivots), default=None)) is not None:
            f = row[pc]
            for c, v in pivots[pc].items():
                nv = row.get(c, 0) - f * v
                if nv:
                    row[c] = nv
                else:
                    del row[c]
        if row:
            pc = min(row)
            f = row[pc]
            pivots[pc] = {c: v / f for c, v in row.items()}
            stored += len(row)
            if stored > limit:
                raise ResourceLimit(
                    f"matrix {m.num_rows}x{m.num_cols} echelon stores over "
                    f"{limit} entries, past AK_MAX_MATRIX"
                )
    return pivots


def _back_substitute(
    pivots: dict[int, dict[int, Fraction]], v: dict[int, Fraction]
) -> dict[int, Fraction]:
    """`v`, given at free columns, solved at the pivot columns so that every
    pivot row annihilates it, in decreasing pivot column; no zero entries.
    Each pivot row meets `v` by a walk over the shorter of the two."""
    for pc in sorted(pivots, reverse=True):
        row = pivots[pc]
        short, long = (row, v) if len(row) <= len(v) else (v, row)
        s = sum(w * long[c] for c, w in short.items() if c in long)
        if s:
            v[pc] = -s
    return v


def kernel(m: SparseIntMatrix) -> list[dict[int, Fraction]]:
    """Basis of {v : M v = 0}: for each free column of m's echelon, in
    increasing order, the v that is 1 there and 0 at every other.  The free
    columns are those that depend on the columns before them, so this basis
    is the same for every echelon."""
    pivots = _echelon(m)
    free = (f for f in range(m.num_cols) if f not in pivots)
    return [_back_substitute(pivots, {f: Fraction(1)}) for f in free]


def rank(m: SparseIntMatrix) -> int:
    """Exact rank over the rationals: the columns less the kernel's size."""
    return m.num_cols - len(kernel(m))


def solve_combinations(
    m: SparseIntMatrix, targets: SparseIntMatrix
) -> list[dict[int, Fraction]]:
    """For each row t of `targets`, the x with x M = t supported on the rows
    of M independent of the rows before them; NoSolution if some t is not a
    combination of M's rows.

    (x, -1) is the kernel vector of [Mᵀ | targetsᵀ] that is -1 at t's column
    and 0 at the other free columns: the other targets, and the rows of M
    that depend on earlier ones.  A t outside the row space takes a pivot."""
    if targets.num_cols != m.num_cols:
        raise ValueError("target length mismatch")
    n = m.num_rows
    stacked = SparseIntMatrix(n + targets.num_rows, m.num_cols, m.rows + targets.rows)
    pivots = _echelon(stacked.transpose())
    if any(pc >= n for pc in pivots):
        raise NoSolution("a target is independent of the rows")
    return [
        {c: v for c, v in _back_substitute(pivots, {t: Fraction(-1)}).items() if c != t}
        for t in range(n, stacked.num_rows)
    ]

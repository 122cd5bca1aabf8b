"""Exact sparse integer/rational linear algebra.

Everything here is exact.  One sparse echelon, `_echelon(m, p)`, over Q or
over F_p and gated by `AK_MAX_MATRIX` on the entries it stores, serves
every call.  Its pivots are `rank`, and mod a prime p `modular_rank`, never
above it; back-substitution over Q gives `kernel`, and over Mᵀ with the
targets as extra columns `solve_combinations`, x M = t.  As the ranks share
the code, `homology.dimension` also replays the functionals.  No floats.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import index
from typing import Iterable, Sequence

from .errors import NoSolution, ResourceLimit, env_int

# entries an echelon may store: about 160 bytes each in the echelon of the
# k=7 odd relation matrix, so near 1.6 GB, well below an 8 GB host's memory
DEFAULT_MAX_MATRIX_ENTRIES = 10_000_000

# the three largest primes below 2**62: the modular rank cross-check's primes
PRIMES = (2**62 - 57, 2**62 - 87, 2**62 - 117)


class SparseIntMatrix:
    """Rows of sorted (col, value) pairs; no explicit zeros.  Each column
    and value is read through `operator.index`, so a float or a `Fraction`
    raises `ValueError` and a bool is stored as its int."""

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
            try:
                entries = tuple(sorted((index(c), index(v)) for c, v in row if v != 0))
            except TypeError:
                raise ValueError("sparse entries must be integers") from None
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


def _echelon(
    m: SparseIntMatrix, p: int | None = None
) -> dict[int, dict[int, Fraction | int]]:
    """Row echelon form of m over Q, or over F_p for a prime `p`: by pivot
    column, each pivot row scaled to 1 there and stored less that 1.

    A row is reduced only by the pivots at its own columns, least first,
    from a heap: a pivot row lies after its column, so subtracting it fills
    only later columns, and the pivots among them join the heap.  Given the
    pivots so far, only one remainder is zero at every pivot column, so any
    reduction order stores the same pivots; the remainder becomes the pivot
    at its least column.  `AK_MAX_MATRIX` bounds the entries stored,
    leading 1s included."""
    limit = env_int("AK_MAX_MATRIX", DEFAULT_MAX_MATRIX_ENTRIES)
    pivots: dict[int, dict] = {}
    stored = 0
    for source in m.rows:
        if p is None:
            row = {c: Fraction(v) for c, v in source}
        else:
            row = {c: v % p for c, v in source if v % p}
        heap = [c for c in row if c in pivots]
        heapify(heap)
        while heap:
            pc = heappop(heap)
            f = row.pop(pc, 0)  # absent once another subtraction cancelled it
            if not f:
                continue
            f = -f if p is None else p - f
            for c, v in pivots[pc].items():
                if c in row:
                    nv = row[c] + f * v if p is None else (row[c] + f * v) % p
                    if nv:
                        row[c] = nv
                    else:
                        del row[c]
                else:
                    row[c] = f * v if p is None else f * v % p
                    if c in pivots:
                        heappush(heap, c)
        if row:
            pc = min(row)
            stored += len(row)
            if stored > limit:
                raise ResourceLimit(
                    f"matrix {m.num_rows}x{m.num_cols} echelon stores over "
                    f"{limit} entries, past AK_MAX_MATRIX"
                )
            inv = 1 / row.pop(pc) if p is None else pow(row.pop(pc), -1, p)
            pivots[pc] = {
                c: v * inv if p is None else v * inv % p for c, v in row.items()
            }
    return pivots


def modular_rank(m: SparseIntMatrix, p: int) -> int:
    """Rank mod the prime p: never above `rank`."""
    return len(_echelon(m, p))


def _back_substitute(
    pivots: dict[int, dict[int, Fraction]], v: dict[int, Fraction]
) -> dict[int, Fraction]:
    """`v`, given at free columns, solved at the pivot columns so that every
    pivot row with its leading 1 annihilates it, in decreasing pivot column;
    no zero entries.  Each pivot row meets `v` by a walk over the shorter of
    the two, and `v` is still 0 at the pivot's own column."""
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
    """Exact rank over the rationals: the pivots of m's echelon."""
    return len(_echelon(m))


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

import random
from fractions import Fraction
from math import lcm

import forward_solve
import pytest
from miller_rabin import is_probable_prime

from trihom import exactla as la
from trihom.errors import NoSolution, ResourceLimit


def dense(m):
    return la.SparseIntMatrix.from_dense(m)


def sparse_rows(num_cols, rows):
    """The integer rows `rows`, each of length `num_cols`, as a matrix."""
    return la.SparseIntMatrix(
        len(rows), num_cols, [[(j, v) for j, v in enumerate(r)] for r in rows]
    )


def test_rank_examples():
    assert la.rank(dense([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 3
    assert la.rank(dense([[2, 4], [1, 2]])) == 1
    assert la.rank(la.SparseIntMatrix(0, 5, [])) == 0


def test_rank_transpose_and_nullity():
    # rank(m) eliminates m and rank(m^T) eliminates its transpose, so the
    # two agree only if both eliminations are right.
    rng = random.Random(5)
    for _ in range(20):
        nr, nc = rng.randint(1, 12), rng.randint(1, 12)
        m = [[rng.randint(-4, 4) if rng.random() < 0.4 else 0 for _ in range(nc)]
             for _ in range(nr)]
        sm = dense(m)
        assert la.rank(sm) == la.rank(sm.transpose())


def test_modular_rank_examples():
    ident = dense([[1, 0], [0, 1]])
    assert [la.modular_rank(ident, q) for q in (3, 5)] == [2, 2]
    p = 2147483647
    degenerate = dense([[p, 0], [0, 1]])
    assert len(la._echelon(degenerate, p)) == 1
    assert [la.modular_rank(degenerate, q) for q in (p, 7)] == [1, 2]
    # the last row holds only pivot 0's column; reducing by it fills pivot
    # 1's column, whose subtraction then clears the row of `filled` and
    # leaves that of `kept` at column 2, over Q and mod p
    filled = dense([[1, 1, 0], [0, 1, 1], [1, 0, -1]])
    kept = dense([[1, 1, 0], [0, 1, 1], [1, 0, 0]])
    assert la.rank(filled) == 2 and la.kernel(filled) == [{2: 1, 1: -1, 0: 1}]
    assert la._echelon(kept) == {0: {1: 1}, 1: {2: 1}, 2: {}}
    assert la.rank(kept) == 3 and la.kernel(kept) == []
    for q in (3, *la.PRIMES):
        assert len(la._echelon(filled, q)) == 2
        assert len(la._echelon(kept, q)) == 3
    # an entry equal to the first prime drops the rank mod that prime only
    q0 = la.PRIMES[0]
    vanishing = dense([[q0, 1], [0, 1]])
    assert [len(la._echelon(vanishing, q)) for q in la.PRIMES] == [1, 2, 2]
    assert [la.modular_rank(vanishing, q) for q in la.PRIMES] == [1, 2, 2]
    assert la.rank(vanishing) == 2


def test_random_rank_cross_check():
    rng = random.Random(11)
    for _ in range(50):
        m = [[rng.randint(-5, 5) if rng.random() < 0.15 else 0 for _ in range(60)]
             for _ in range(40)]
        sm = dense(m)
        r, vecs = la.rank(sm), la.kernel(sm)
        assert [la.modular_rank(sm, q) for q in la.PRIMES] == [r] * 3
        assert vecs == forward_solve.kernel(sm) and len(vecs) == 60 - r


def test_primes_are_three_distinct_62bit_primes():
    assert len(set(la.PRIMES)) == len(la.PRIMES) == 3
    for p in la.PRIMES:
        assert p.bit_length() == 62
        assert is_probable_prime(p)
    # the three largest primes below 2**62
    top = range(min(la.PRIMES), 2**62)
    assert [n for n in top if is_probable_prime(n)] == sorted(la.PRIMES)


def test_is_probable_prime():
    assert is_probable_prime(2)
    assert is_probable_prime(2**61 - 1)
    assert not is_probable_prime(2**61)
    assert not is_probable_prime(3215031751)  # strong pseudoprime to few bases


def test_solve_combinations_examples():
    m = dense([[1, 1]])
    assert la.solve_combinations(m, dense([[2, 2], [0, 0]])) == [{0: Fraction(2)}, {}]
    with pytest.raises(NoSolution):
        la.solve_combinations(dense([[1, 0]]), dense([[0, 1]]))
    # one target outside the row space fails the whole call
    with pytest.raises(NoSolution):
        la.solve_combinations(dense([[1, 0]]), dense([[1, 0], [0, 1]]))
    with pytest.raises(ValueError):
        la.solve_combinations(m, dense([[1, 1, 1]]))
    empty = la.SparseIntMatrix(0, 2, [])
    with pytest.raises(NoSolution):
        la.solve_combinations(empty, dense([[1, 0]]))
    assert la.kernel(empty) == [{0: 1}, {1: 1}]
    # the free column 1 depends on column 0; the basis is 1 there, 0 at the
    # other free column 2, and solved at the pivot column 0
    assert la.kernel(dense([[2, 4, 0], [1, 2, 0]])) == [
        {1: 1, 0: -2},
        {2: 1},
    ]


def test_solve_combinations_replay():
    rng = random.Random(7)
    m = [[rng.randint(-3, 3) for _ in range(6)] for _ in range(4)]
    sm = dense(m)
    coeffs = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(3)]
    targets = [
        [sum(c[i] * m[i][j] for i in range(4)) for j in range(6)] for c in coeffs
    ]
    for x, target in zip(la.solve_combinations(sm, dense(targets)), targets):
        assert [
            sum(x.get(i, 0) * m[i][j] for i in range(4)) for j in range(6)
        ] == target


def _deficient_matrix(rng, nr, nc):
    """An nr x nc integer matrix of rank at most nr // 2 + 1: rows that are
    zero, repeat an earlier row or combine a few random base rows."""
    base = [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(nr // 2 + 1)]
    rows = []
    for _ in range(nr):
        pick = rng.random()
        if pick < 0.15:
            rows.append([0] * nc)
        elif pick < 0.3 and rows:
            rows.append(list(rng.choice(rows)))
        else:
            coeffs = [rng.randint(-2, 2) for _ in base]
            rows.append([sum(a * r[j] for a, r in zip(coeffs, base)) for j in range(nc)])
    return rows


def test_solve_combination_matches_forward_reference():
    """Back-substitution over the echelon of Mᵀ returns, for seeded random
    rank-deficient matrices (0 x n and n x 0 among them) and integer targets
    inside and outside the row space, the combination that forward
    reduction over M's own tracked echelon returns, and raises NoSolution
    exactly when it does; the kernel of M is the tracked elimination's."""
    rng = random.Random(16)
    shapes = [(0, 3), (3, 0), (0, 0)] + [
        (rng.randint(1, 9), rng.randint(1, 9)) for _ in range(150)
    ]
    outcomes = {"solved": 0, "none": 0}
    for nr, nc in shapes:
        rows = _deficient_matrix(rng, nr, nc)
        m = sparse_rows(nc, rows)
        assert la.kernel(m) == forward_solve.kernel(m), rows
        coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(nr)]
        scale = lcm(*(c.denominator for c in coeffs))
        inside = [
            int(sum(c * scale * r[j] for c, r in zip(coeffs, rows))) for j in range(nc)
        ]
        for target in (inside, [rng.randint(-2, 2) for _ in range(nc)]):
            try:
                want = forward_solve.solve_combination(m, target)
            except NoSolution:
                want = None
            try:
                got = la.solve_combinations(m, sparse_rows(nc, [target]))[0]
            except NoSolution:
                got = None
            assert got == want, (rows, target)
            outcomes["none" if want is None else "solved"] += 1
    assert min(outcomes.values()) > 50, outcomes


def test_kernel_replay():
    md = [[1, 2, 3], [2, 4, 6], [1, 0, 1], [0, 2, 2]]
    basis = la.kernel(dense(md))
    assert basis == [{2: 1, 1: -1, 0: -1}]
    for v in basis:
        for row in md:
            assert sum(v.get(j, 0) * row[j] for j in range(3)) == 0


@pytest.mark.parametrize(
    "entry",
    [(0, 1.5), (0, Fraction(1, 2)), (0.0, 1), (0, "1")],
    ids=["float-value", "fraction-value", "float-column", "str-value"],
)
def test_sparse_entries_must_be_integers(entry):
    """A column or value that is no integer raises ValueError, where a float
    value was truncated and a Fraction(1, 2) stored as an explicit 0; a
    bool column is stored as its int."""
    with pytest.raises(ValueError, match="integers"):
        la.SparseIntMatrix(1, 2, [[entry]])
    (entry,), = la.SparseIntMatrix(1, 2, [[(True, 3)]]).rows
    assert entry == (1, 3) and type(entry[0]) is int


def test_matrixmarket_roundtrip():
    """The `--dump-matrix` text, byte for byte: a header, then one 1-based
    line per stored entry in row order, so an empty row writes nothing and
    a negative entry keeps its sign."""
    m = dense([[0, -2, 0, 0], [0, 0, 0, 0], [7, 0, 0, 5]])
    assert m.to_matrixmarket() == (
        "%%MatrixMarket matrix coordinate integer general\n"
        "3 4 3\n"
        "1 2 -2\n"
        "3 1 7\n"
        "3 4 5\n"
    )


@pytest.mark.parametrize(
    "m, body",
    [
        (la.SparseIntMatrix(0, 5, []), "0 5 0\n"),  # no rows
        (la.SparseIntMatrix(2, 3, [[], []]), "2 3 0\n"),  # all rows empty
        (la.SparseIntMatrix(1, 12, [[(11, -3)]]), "1 12 1\n1 12 -3\n"),
        (  # a row's entries come out in column order, however given
            la.SparseIntMatrix(1, 3, [[(2, 4), (0, 1)]]),
            "1 3 2\n1 1 1\n1 3 4\n",
        ),
        (dense([[10**30]]), f"1 1 1\n1 1 {10**30}\n"),  # no overflow
    ],
    ids=["no-rows", "empty-rows", "two-digit-column", "column-order", "big-entry"],
)
def test_matrixmarket_writer_cases(m, body):
    assert m.to_matrixmarket() == (
        "%%MatrixMarket matrix coordinate integer general\n" + body
    )


def test_matrix_resource_limit(monkeypatch):
    """`AK_MAX_MATRIX` bounds the entries an echelon stores.  Every echelon
    of this 6 x 6 Vandermonde matrix, of M and of Mᵀ over Q and of M mod
    each prime, stores 6 + 5 + ... + 1 = 21 entries, so a limit of 20 stops
    every elimination and 21 passes."""
    m = dense([[(i + 2) ** j for j in range(6)] for i in range(6)])
    calls = (
        lambda: la.rank(m),
        lambda: la.kernel(m),
        lambda: la.solve_combinations(m, dense([[1] * 6])),
        *(lambda q=q: la.modular_rank(m, q) for q in la.PRIMES),
    )
    monkeypatch.setenv("AK_MAX_MATRIX", "20")
    for call in calls:
        with pytest.raises(ResourceLimit, match="^matrix 6x.*AK_MAX_MATRIX"):
            call()
    monkeypatch.setenv("AK_MAX_MATRIX", "21")
    assert la.rank(m) == 6 and la.kernel(m) == []
    assert [la.modular_rank(m, q) for q in la.PRIMES] == [6] * 3


def test_no_floats_in_results():
    m = dense([[2, 4], [6, 12]])
    assert isinstance(la.rank(m), int)
    vecs = la.kernel(m) + la.solve_combinations(m, dense([[4, 8]]))
    assert len(vecs) == 2
    for vec in vecs:
        assert all(isinstance(v, Fraction) for v in vec.values())

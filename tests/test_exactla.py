import random
from fractions import Fraction

import forward_solve
import pytest
from miller_rabin import is_probable_prime

from trihom import exactla as la
from trihom.errors import NoSolution, ResourceLimit


def dense(m):
    return la.SparseIntMatrix.from_dense(m)


def test_rank_examples():
    assert la.rank(dense([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 3
    assert la.rank(dense([[2, 4], [1, 2]])) == 1
    assert la.rank(la.SparseIntMatrix(0, 5, [])) == 0


def test_rank_transpose_and_nullity():
    # rank(m) eliminates m's transpose and rank(m^T) eliminates m itself, so
    # the two agree only if both eliminations are right.
    rng = random.Random(5)
    for _ in range(20):
        nr, nc = rng.randint(1, 12), rng.randint(1, 12)
        m = [[rng.randint(-4, 4) if rng.random() < 0.4 else 0 for _ in range(nc)]
             for _ in range(nr)]
        sm = dense(m)
        assert la.rank(sm) == la.rank(sm.transpose())


def test_modular_rank_examples():
    ident = dense([[1, 0], [0, 1]])
    assert la.modular_rank(ident, [3, 5]) == 2
    p = 2147483647
    degenerate = dense([[p, 0], [0, 1]])
    assert la._rank_mod_p_exact(degenerate, p) == 1
    assert la.modular_rank(degenerate, [p, 7]) == 2
    with pytest.raises(ValueError):
        la.modular_rank(ident, [7])
    # the last row holds only pivot 0's column; reducing by it fills pivot
    # 1's column, whose subtraction then clears the row
    filled = dense([[1, 1, 0], [0, 1, 1], [1, 0, -1]])
    for q in (3, *la.PRIMES):
        assert la._rank_mod_p_exact(filled, q) == 2
    # an entry equal to the first prime drops the rank mod that prime only
    q0 = la.PRIMES[0]
    vanishing = dense([[q0, 1], [0, 1]])
    assert [la._rank_mod_p_exact(vanishing, q) for q in la.PRIMES] == [1, 2, 2]
    assert la.modular_rank(vanishing, la.PRIMES) == la.rank(vanishing) == 2


def test_random_rank_cross_check():
    rng = random.Random(11)
    for _ in range(50):
        m = [[rng.randint(-5, 5) if rng.random() < 0.15 else 0 for _ in range(60)]
             for _ in range(40)]
        sm = dense(m)
        assert la.rank(sm) == la.modular_rank(sm, la.PRIMES)


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


def test_solve_combination_examples():
    m = dense([[1, 1]])
    assert la.solve_combination(m, [2, 2]) == [Fraction(2)]
    with pytest.raises(NoSolution):
        la.solve_combination(dense([[1, 0]]), [0, 1])
    empty = la.SparseIntMatrix(0, 2, [])
    with pytest.raises(NoSolution):
        la.solve_combination(empty, [1, 0])
    funcs = la.left_nullspace(empty.transpose())
    assert any(f[0] for f in funcs)


def test_solve_combination_replay():
    rng = random.Random(7)
    m = [[rng.randint(-3, 3) for _ in range(6)] for _ in range(4)]
    sm = dense(m)
    coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(4)]
    target = [sum(coeffs[i] * m[i][j] for i in range(4)) for j in range(6)]
    x = la.solve_combination(sm, target)
    assert [
        sum(x[i] * m[i][j] for i in range(4)) for j in range(6)
    ] == list(target)


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
    """Back-substitution on the elimination of Mᵀ returns, for seeded random
    rank-deficient matrices (0 x n and n x 0 among them) and targets inside
    and outside the row space, the Fraction list that forward reduction over
    M's own echelon returns, and raises NoSolution exactly when it does."""
    rng = random.Random(16)
    shapes = [(0, 3), (3, 0), (0, 0)] + [
        (rng.randint(1, 9), rng.randint(1, 9)) for _ in range(150)
    ]
    outcomes = {"solved": 0, "none": 0}
    for nr, nc in shapes:
        rows = _deficient_matrix(rng, nr, nc)
        m = la.SparseIntMatrix(nr, nc, [[(j, v) for j, v in enumerate(r)] for r in rows])
        transposed = la._reduce_rows_tracked(m.transpose())
        coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(nr)]
        inside = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(nc)]
        for target in (inside, [rng.randint(-2, 2) for _ in range(nc)]):
            try:
                want = forward_solve.solve_combination(m, target)
            except NoSolution:
                want = None
            try:
                got = la.solve_combination(m, target, transposed)
            except NoSolution:
                got = None
            assert got == want, (rows, target)
            outcomes["none" if want is None else "solved"] += 1
    assert min(outcomes.values()) > 50, outcomes


def test_left_nullspace_replay():
    m = dense([[1, 2, 3], [2, 4, 6], [1, 0, 1], [0, 2, 2]])
    basis = la.left_nullspace(m)
    assert basis
    md = m.to_dense()
    for y in basis:
        for j in range(3):
            assert sum(y[i] * md[i][j] for i in range(4)) == 0


def test_matrixmarket_roundtrip():
    m = dense([[0, -2, 0], [7, 0, 0]])
    text = m.to_matrixmarket()
    assert text.startswith("%%MatrixMarket matrix coordinate integer general")
    back = la.SparseIntMatrix.from_matrixmarket(text)
    assert back.rows == m.rows and back.num_cols == m.num_cols


def test_matrix_resource_limit(monkeypatch):
    monkeypatch.setenv("AK_MAX_MATRIX", "10")
    m = dense([[1] * 6 for _ in range(6)])
    for call in (
        lambda: la.rank(m),
        lambda: la.left_nullspace(m),
        lambda: la.solve_combination(m, [1] * 6),
    ):
        with pytest.raises(ResourceLimit):
            call()


def test_no_floats_in_results():
    m = dense([[2, 4], [6, 9]])
    assert isinstance(la.rank(m), int)
    for vec in la.left_nullspace(m):
        assert all(isinstance(v, Fraction) for v in vec)

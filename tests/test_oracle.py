import subprocess
import sys

import pytest

import directed_oracle
from trihom import homology as hom
from trihom import multigraph as mg
from trihom import oracle
from trihom.errors import ResourceLimit
from trihom.multigraph import TadpolePolicy as TP
from trihom.orientation import Convention


# (k, convention, policy) -> (num_classes, basis_size, rank, dim) of the
# oracle, and of its directed variant at k = 1
_RESULTS = {
    (1, Convention.EVEN, TP.EXCLUDE): (1, 12, 12, 0),
    (1, Convention.EVEN, TP.INCLUDE): (2, 24, 24, 0),
    (1, Convention.ODD, TP.EXCLUDE): (1, 12, 11, 1),
    (1, Convention.ODD, TP.INCLUDE): (2, 24, 23, 1),
    (2, Convention.EVEN, TP.EXCLUDE): (2, 34560, 34559, 1),
    (2, Convention.EVEN, TP.INCLUDE): (5, 86400, 86399, 1),
    (2, Convention.ODD, TP.EXCLUDE): (2, 34560, 34559, 1),
    (2, Convention.ODD, TP.INCLUDE): (5, 86400, 86399, 1),
}
_DIRECTED = {
    (Convention.EVEN, TP.EXCLUDE): (1, 96, 96, 0),
    (Convention.EVEN, TP.INCLUDE): (2, 192, 192, 0),
    (Convention.ODD, TP.EXCLUDE): (1, 96, 95, 1),
    (Convention.ODD, TP.INCLUDE): (2, 192, 191, 1),
}


def _expected(k, conv, pol, counts, directed=False):
    num_classes, basis_size, rank, dim = counts
    return {
        "oracle": True,
        **({"directed": True} if directed else {}),
        "k": k,
        "convention": conv.value,
        "tadpoles": pol.value,
        "num_classes": num_classes,
        "basis_size": basis_size,
        "rank": rank,
        "dim": dim,
    }


def test_oracle_k1_values():
    assert oracle.brute_dimension(1, Convention.ODD, TP.EXCLUDE)["dim"] == 1
    assert oracle.brute_dimension(1, Convention.EVEN, TP.EXCLUDE)["dim"] == 0
    inc = oracle.brute_dimension(1, Convention.EVEN, TP.INCLUDE)
    assert inc["dim"] == hom.dimension(1, Convention.EVEN, TP.INCLUDE).dimension
    for (k, conv, pol), counts in _RESULTS.items():
        if k == 1:
            assert oracle.brute_dimension(k, conv, pol) == _expected(
                k, conv, pol, counts
            )


def test_oracle_basis_sizes():
    """2 vertex labellings x 6 edge labellings per class at k = 1, and
    24 x 720 at k = 2 (the two classes with loops included too)."""
    r = oracle.brute_dimension(1, Convention.ODD, TP.EXCLUDE)
    assert r["basis_size"] == 12
    for conv in (Convention.EVEN, Convention.ODD):
        r = oracle.brute_dimension(2, conv, TP.INCLUDE)
        assert r["basis_size"] == 5 * 17280
        assert r == _expected(2, conv, TP.INCLUDE, _RESULTS[2, conv, TP.INCLUDE])


def test_oracle_representatives_match_enumeration():
    for k in (1, 2):
        for pol in (TP.EXCLUDE, TP.INCLUDE):
            classes, _ = oracle._grid_classes(k, pol)
            assert len(classes) == len(list(mg.enumerate_trivalent(k, pol)))
    # the first pairing of each class in generation order, sorted, to its
    # automorphism group; the marking places each connected pairing, and
    # each orbit holds (2k)! * 6^(2k) over its group's order of them
    groups, marks = oracle._representatives(1)
    assert list(groups) == [(1, 0, 3, 2, 5, 4), (3, 4, 5, 0, 1, 2)]
    assert [len(g) for g in groups.values()] == [8, 12]
    assert len(marks) == 72 // 8 + 72 // 12 == 15
    groups, marks = oracle._representatives(2)
    assert list(groups) == [
        (1, 0, 3, 2, 6, 7, 4, 5, 9, 8, 11, 10),
        (1, 0, 3, 2, 6, 9, 4, 8, 7, 5, 11, 10),
        (1, 0, 3, 2, 6, 9, 4, 10, 11, 5, 7, 8),
        (3, 4, 6, 0, 1, 9, 2, 10, 11, 5, 7, 8),
        (3, 6, 9, 0, 7, 10, 1, 4, 11, 2, 5, 8),
    ]
    assert [len(g) for g in groups.values()] == [16, 48, 8, 16, 24]
    assert len(marks) == sum(31104 // len(g) for g in groups.values()) == 9720
    # each mark is an isomorphism onto its representative, and each group
    # element an automorphism of it
    for p, (rep, iso) in marks.items():
        assert all(rep[iso[d]] == iso[p[d]] for d in range(12))
    for rep, group in groups.items():
        assert marks[rep][0] == rep
        assert all(rep[a[d]] == a[rep[d]] for a in group for d in range(12))


def test_oracle_capped():
    with pytest.raises(ResourceLimit):
        oracle.brute_dimension(3, Convention.EVEN, TP.EXCLUDE)


@pytest.mark.parametrize("k", [0, -1, True, 2.0])
@pytest.mark.parametrize(
    "call",
    [
        lambda k: list(mg.enumerate_trivalent(k)),
        lambda k: hom.class_basis(k, Convention.ODD),
        lambda k: hom.dimension(k, Convention.EVEN),
        lambda k: oracle.brute_dimension(k, Convention.ODD),
    ],
    ids=["enumerate_trivalent", "class_basis", "dimension", "brute_dimension"],
)
def test_k_must_be_an_int_of_at_least_one(call, k):
    """Every entry point rejects such a k with `ValueError`.  A bool is no
    k, even with k=1 in the memo of `class_basis`, whose key takes True
    for 1."""
    hom.class_basis(1, Convention.ODD)
    with pytest.raises(ValueError, match="k must be an int >= 1"):
        call(k)


@pytest.mark.parametrize("conv", [Convention.EVEN, Convention.ODD])
@pytest.mark.parametrize("pol", [TP.EXCLUDE, TP.INCLUDE])
def test_oracle_agrees_k1(conv, pol):
    assert (
        oracle.brute_dimension(1, conv, pol)["dim"]
        == hom.dimension(1, conv, pol).dimension
    )


@pytest.mark.parametrize("conv", [Convention.EVEN, Convention.ODD])
def test_oracle_agrees_k2_exclude(conv):
    r = oracle.brute_dimension(2, conv, TP.EXCLUDE)
    assert r["dim"] == hom.dimension(2, conv, TP.EXCLUDE).dimension
    assert r == _expected(2, conv, TP.EXCLUDE, _RESULTS[2, conv, TP.EXCLUDE])


@pytest.mark.parametrize("conv", [Convention.EVEN, Convention.ODD])
@pytest.mark.parametrize("pol", [TP.EXCLUDE, TP.INCLUDE])
def test_oracle_paranoid_mode_k1(conv, pol):
    """At k = 1 the oracle and its directed variant meet their pins and
    agree on the dimension."""
    r = oracle.brute_dimension(1, conv, pol)
    assert r == _expected(1, conv, pol, _RESULTS[1, conv, pol])
    direct = directed_oracle.brute_dimension_directed(1, conv, pol)
    assert direct["dim"] == r["dim"]
    assert direct["basis_size"] == r["basis_size"] * 8  # 2^(3k) directions
    assert direct == _expected(1, conv, pol, _DIRECTED[conv, pol], directed=True)


_TERM_MISS = """
from trihom import oracle
from trihom.errors import UnknownClass
from trihom.multigraph import TadpolePolicy as TP
from trihom.orientation import Convention

representatives = oracle._representatives
# automorphisms are still found; the marking places no IHX term
oracle._representatives = lambda k: (representatives(k)[0], {})
try:
    oracle.brute_dimension(1, Convention.ODD, TP.EXCLUDE)
except UnknownClass as exc:
    print(exc)
else:
    print("no error")
"""


def test_unmatched_ihx_term_raises_unknown_class():
    """An IHX term that matches no representative raises UnknownClass
    naming the term, also under `python -O`, which strips asserts."""
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", _TERM_MISS],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("IHX term "), proc.stdout
        assert proc.stdout.rstrip().endswith(" matches no representative")

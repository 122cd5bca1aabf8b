import subprocess
import sys

import pytest

from trihom import homology as hom
from trihom import multigraph as mg
from trihom import oracle
from trihom.errors import ResourceLimit
from trihom.multigraph import TadpolePolicy as TP
from trihom.orientation import Convention


def test_oracle_k1_values():
    assert oracle.brute_dimension(1, Convention.ODD, TP.EXCLUDE)["dim"] == 1
    assert oracle.brute_dimension(1, Convention.EVEN, TP.EXCLUDE)["dim"] == 0
    inc = oracle.brute_dimension(1, Convention.EVEN, TP.INCLUDE)
    assert inc["dim"] == hom.dimension(1, Convention.EVEN, TP.INCLUDE).dimension


def test_oracle_basis_sizes():
    r = oracle.brute_dimension(1, Convention.ODD, TP.EXCLUDE)
    assert r["basis_size"] == 12  # 2 vertex labels x 6 edge labels
    r = oracle.brute_dimension(2, Convention.EVEN, TP.EXCLUDE)
    assert r["basis_size"] == 2 * 17280


def test_oracle_representatives_match_enumeration():
    for k in (1, 2):
        for pol in (TP.EXCLUDE, TP.INCLUDE):
            reps = oracle._grid_classes(k, pol)
            assert len(reps) == len(list(mg.enumerate_trivalent(k, pol)))


def test_oracle_capped():
    with pytest.raises(ResourceLimit):
        oracle.brute_dimension(3, Convention.EVEN, TP.EXCLUDE)


@pytest.mark.parametrize("conv", [Convention.EVEN, Convention.ODD])
@pytest.mark.parametrize("pol", [TP.EXCLUDE, TP.INCLUDE])
def test_oracle_agrees_k1(conv, pol):
    assert (
        oracle.brute_dimension(1, conv, pol)["dim"]
        == hom.dimension(1, conv, pol).dimension
    )


@pytest.mark.parametrize("conv", [Convention.EVEN, Convention.ODD])
def test_oracle_agrees_k2_exclude(conv):
    assert (
        oracle.brute_dimension(2, conv, TP.EXCLUDE)["dim"]
        == hom.dimension(2, conv, TP.EXCLUDE).dimension
    )


@pytest.mark.parametrize("conv", [Convention.EVEN, Convention.ODD])
@pytest.mark.parametrize("pol", [TP.EXCLUDE, TP.INCLUDE])
def test_oracle_paranoid_mode_k1(conv, pol):
    plain = oracle.brute_dimension(1, conv, pol)
    par = oracle.brute_dimension(1, conv, pol, paranoid=True)
    assert plain["dim"] == par["dim"]
    direct = oracle.brute_dimension_directed(1, conv, pol)
    assert direct["dim"] == plain["dim"]
    assert direct["basis_size"] == plain["basis_size"] * 8  # 2^(3k) directions


_TERM_MISS = """
from trihom import oracle
from trihom.errors import UnknownClass
from trihom.multigraph import TadpolePolicy as TP
from trihom.orientation import Convention

isos = oracle._isos
# automorphisms are still found; no IHX term matches its representative
oracle._isos = lambda p1, p2, all_of_them=False: (
    isos(p1, p2, all_of_them) if all_of_them else []
)
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

"""Acceptance suite: one pass/fail line per criterion, exact tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import pathlib
import random
import subprocess
import sys
import time

import pytest

from trihom import exactla as la
from trihom import homology as hom
from trihom import multigraph as mg
from trihom import oracle
from trihom import orientation as ori
from trihom import surgery as sg
from trihom.multigraph import TadpolePolicy as TP
from trihom.orientation import Convention

import cycle_space_sign as ref
import forward_solve
from conftest import compose, random_pairing

DATA = pathlib.Path(__file__).resolve().parent.parent / "data" / "census.json"


def _report(name, ok, extra=""):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {extra}")
    assert ok, f"{name} failed {extra}"


def test_criterion_1_oracle_equivalence():
    t0 = time.time()
    ok = True
    details = []
    for k in (1, 2):
        for conv in (Convention.EVEN, Convention.ODD):
            for pol in (TP.EXCLUDE, TP.INCLUDE):
                pipeline = hom.dimension(k, conv, pol).dimension
                brute = oracle.brute_dimension(k, conv, pol)["dim"]
                details.append(f"k{k}/{conv.value}/{pol.value}:{pipeline}|{brute}")
                ok = ok and pipeline == brute
    dt = time.time() - t0
    _report(
        "1 oracle-equivalence",
        ok and dt < 60,
        f"({dt:.1f}s; {' '.join(details)})",
    )


def test_criterion_2_anchored_values():
    vals = (
        hom.dimension(1, Convention.EVEN, TP.EXCLUDE).dimension,
        hom.dimension(1, Convention.ODD, TP.EXCLUDE).dimension,
        hom.dimension(2, Convention.EVEN, TP.EXCLUDE).dimension,
    )
    _report("2 anchored-small-values", vals == (0, 1, 1), f"(got {vals})")


def _auto_sign(conv, g, a):
    """The sign of the automorphism a of g, as `classify_conventions` and the
    sign-witness replay take it."""
    return ori.transported_sign(conv, g, ori.reference_labelling(g), a, g)


def _sign_identity_failures(ks):
    """Compare, for every automorphism of every graph with k in `ks` (both
    tadpole policies) and both conventions, the sign that
    `classify_conventions` and the sign-witness replay use with the
    cycle-space reference; and each class's status and witness with the
    reference signs of its group.  Returns (automorphisms checked,
    failures)."""
    checked = 0
    failures = 0
    for k in ks:
        for pol in (TP.EXCLUDE, TP.INCLUDE):
            for g in mg.enumerate_trivalent(k, pol):
                dirs = ori.reference_labelling(g).directions
                autos = mg.automorphisms(g)
                classes = ori.classify_conventions(g, autos)
                for conv in (Convention.EVEN, Convention.ODD):
                    signs = [ref.reference_sign(conv, g, dirs, a) for a in autos]
                    for a, sign in zip(autos, signs):
                        checked += 1
                        failures += _auto_sign(conv, g, a) != sign
                    c = classes[conv]
                    zero = c.status is ori.ClassStatus.ZERO
                    failures += zero != (-1 in signs)
                    if zero:
                        wit = ref.reference_sign(conv, c.rep, dirs, c.witness)
                        failures += wit != -1
    return checked, failures


def test_criterion_3_sign_identity_suite():
    t0 = time.time()
    checked, failures = _sign_identity_failures((1, 2, 3, 4))
    dt = time.time() - t0
    _report(
        "3 sign-identity",
        failures == 0 and dt < 120,
        f"({checked} automorphisms, {failures} failures, {dt:.1f}s)",
    )


def test_criterion_3_detects_a_flipped_odd_sign(monkeypatch):
    """The sign-identity check fails when the production odd sign is
    flipped: it reads the sign that `classify_conventions` and
    `transported_sign` use, the product of the vertex turns, not a copy."""
    turns = ori._turns
    monkeypatch.setattr(ori, "_turns", lambda dart_map: -turns(dart_map))
    checked, failures = _sign_identity_failures((1, 2))
    assert checked and failures >= checked // 2  # every odd comparison


def test_criterion_4_randomized_properties():
    rng = random.Random(98123)
    graphs = [g for k in (1, 2, 3) for g in mg.enumerate_trivalent(k, TP.INCLUDE)]

    idem = 0
    for _ in range(1000):
        g = rng.choice(graphs)
        c1, _ = mg.canonical_form(g)
        c2, _ = mg.canonical_form(c1)
        idem += c1 == c2

    invar = 0
    for _ in range(1000):
        g = rng.choice(graphs)
        iso = mg.random_relabelling(g, rng)
        invar += mg.canonical_form(mg.relabel(g, iso))[0] == mg.canonical_form(g)[0]

    mult = 0
    autos_by_graph = {g.partner: mg.automorphisms(g) for g in graphs}
    for _ in range(1000):
        g = rng.choice(graphs)
        conv = rng.choice((Convention.EVEN, Convention.ODD))
        autos = autos_by_graph[g.partner]
        a, b = rng.choice(autos), rng.choice(autos)
        lhs = _auto_sign(conv, g, compose(a, b))
        rhs = _auto_sign(conv, g, a) * _auto_sign(conv, g, b)
        mult += lhs == rhs

    ok = idem == invar == mult == 1000
    _report(
        "4 randomized-properties",
        ok,
        f"(idempotence {idem}/1000, invariance {invar}/1000, "
        f"multiplicativity {mult}/1000)",
    )


def _ranks_agree(m):
    """Whether the exact rank is the rank mod each prime and the exact
    kernel that of the tracked reference elimination."""
    return (
        [la.modular_rank(m, p) for p in la.PRIMES] == [la.rank(m)] * 3
        and la.kernel(m) == forward_solve.kernel(m)
    )


def test_criterion_5_rank_cross_check():
    mismatches = 0
    count = 0
    for k in (1, 2, 3):
        for conv in (Convention.EVEN, Convention.ODD):
            for pol in (TP.EXCLUDE, TP.INCLUDE):
                m = hom.relation_matrix(hom.class_basis(k, conv, pol)).matrix
                if m.num_rows == 0:
                    continue
                count += 1
                if not _ranks_agree(m):
                    mismatches += 1
    rng = random.Random(5150)
    for _ in range(50):
        nr, nc = rng.randint(5, 40), rng.randint(5, 60)
        m = la.SparseIntMatrix.from_dense(
            [
                [rng.randint(-9, 9) if rng.random() < 0.2 else 0 for _ in range(nc)]
                for _ in range(nr)
            ]
        )
        count += 1
        if not _ranks_agree(m):
            mismatches += 1
    _report(
        "5 rank-cross-check",
        mismatches == 0,
        f"({count} matrices, {mismatches} mismatches)",
    )


def test_criterion_6_scaling():
    census = json.loads(DATA.read_text())
    t0 = time.time()
    rep = hom.dimension(4, Convention.EVEN, TP.EXCLUDE)
    t_dim = time.time() - t0
    dim_ok = t_dim < 600
    recorded = census["dimensions"]["k4_even_exclude"]["dimension"]

    t0 = time.time()
    n5 = sum(1 for _ in mg.enumerate_trivalent(5, TP.EXCLUDE))
    t_enum = time.time() - t0
    enum_ok = n5 == census["class_counts"]["k5_exclude"]
    _report(
        "6 scaling",
        dim_ok and enum_ok and rep.dimension == recorded,
        f"(k=4 dim={rep.dimension} in {t_dim:.1f}s; k=5 streamed {n5} classes "
        f"in {t_enum:.1f}s, census {census['class_counts']['k5_exclude']})",
    )


def test_criterion_7_surgery_numerology():
    t0 = time.time()
    checked = 0
    for k in (1, 2, 3, 4):
        for pol in (TP.EXCLUDE, TP.INCLUDE):
            for g in mg.enumerate_trivalent(k, pol):
                for d in (4, 5, 6, 7):
                    p = sg.plan(g, d)
                    checked += 1
                    assert p.family_dim == k * (d - 3)
                    assert (p.hopf_base, p.hopf_chained) == (6 * k, 6 * k + 1)
                    if d % 2 == 0:
                        n1 = sum(
                            t is sg.VertexType.TYPE_I for t in p.vertex_types
                        )
                        n2 = sum(
                            t is sg.VertexType.TYPE_II for t in p.vertex_types
                        )
                        assert n1 == n2 == k
                        assert p.final_handles == (1, 2)
                    else:
                        m = (d - 1) // 2
                        assert p.final_handles == (m, m + 1)
                    assert p.final_handles[1] <= d - 2
                    assert p.admissible
    dt = time.time() - t0
    _report("7 surgery-numerology", dt < 60, f"({checked} plans, {dt:.1f}s)")


def test_criterion_8_determinism():
    def run(*argv):
        proc = subprocess.run(
            [sys.executable, "-m", "trihom.cli", *argv],
            capture_output=True,
        )
        return proc.returncode, proc.stdout

    pairs = [
        ("dim", "--k", "2", "--convention", "even", "--certify"),
        ("dim", "--k", "2", "--convention", "odd", "--tadpoles", "include"),
        ("enumerate", "--k", "3", "--format", "jsonl"),
        ("enumerate", "--k", "2", "--tadpoles", "include", "--format", "graph-text"),
    ]
    # Two crashed or silent runs print the same (empty) bytes, so each run
    # must also exit 0 with output before the comparison means anything.
    failed = []
    for argv in pairs:
        a, b = run(*argv), run(*argv)
        if a != b or a[0] != 0 or not a[1]:
            failed.append(" ".join(argv))
    _report(
        "8 determinism",
        not failed,
        f"({len(pairs)} command pairs byte-compared; failed: {failed})",
    )


# Connected cubic multigraphs on 2k vertices from the OEIS: A000421 counts
# those without loops (k = 1..8), A005967 those with loops allowed (k = 1..7)
# (https://oeis.org/A000421, https://oeis.org/A005967).  The k = 7 and k = 8
# values are checked against the census only; no k >= 7 enumeration runs here.
OEIS_A000421 = (1, 2, 6, 20, 91, 509, 3608, 31856)
OEIS_A005967 = (2, 5, 17, 71, 388, 2592, 21096)


def test_criterion_9_oeis_class_counts():
    census = json.loads(DATA.read_text())["class_counts"]
    recorded = {
        pol.value: tuple(census[f"k{k}_{pol.value}"] for k in range(1, len(oeis) + 1))
        for pol, oeis in ((TP.EXCLUDE, OEIS_A000421), (TP.INCLUDE, OEIS_A005967))
    }
    t0 = time.time()
    n5 = sum(1 for _ in mg.enumerate_trivalent(5, TP.INCLUDE))
    n6 = sum(1 for _ in mg.enumerate_trivalent(6, TP.EXCLUDE))
    dt = time.time() - t0
    _report(
        "9 oeis-class-counts",
        recorded["exclude"] == OEIS_A000421
        and recorded["include"] == OEIS_A005967
        and n5 == OEIS_A005967[4]
        and n6 == OEIS_A000421[5],
        f"(k=5 with loops: {n5} classes, A005967 gives {OEIS_A005967[4]}; "
        f"k=6 without: {n6}, A000421 gives {OEIS_A000421[5]}; {dt:.1f}s; "
        f"census {recorded})",
    )


def test_census_dimensions_consistent():
    """Every stored dimension is the generators less the rank, of at most
    the stored classes, with k = 5..7 recorded for both conventions without
    tadpoles.  Read from the census only: no k >= 5 dimension runs here."""
    census = json.loads(DATA.read_text())
    bad = []
    for key, d in census["dimensions"].items():
        k, _conv, pol = key.split("_")
        if not (
            d["dimension"] == d["num_generators"] - d["rank"]
            and d["rank"] <= min(d["num_rows"], d["num_generators"])
            and d["num_generators"] <= d["num_classes"]
            and d["num_classes"] == census["class_counts"][f"{k}_{pol}"]
        ):
            bad.append(key)
    missing = [
        f"k{k}_{conv}_exclude"
        for k in (5, 6, 7)
        for conv in ("even", "odd")
        if f"k{k}_{conv}_exclude" not in census["dimensions"]
    ]
    _report(
        "census-dimensions",
        not bad and not missing,
        f"({len(census['dimensions'])} entries; inconsistent {bad}; missing {missing})",
    )

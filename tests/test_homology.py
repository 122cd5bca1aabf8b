import dataclasses
import functools
import itertools
import json
import math
import random
import subprocess
import sys
from fractions import Fraction

import forward_solve
import full_expansion
import pytest
import shared_trie_walk as ref
from conftest import shuffled_pairing

from trihom import exactla as la
from trihom import homology as hom
from trihom import multigraph as mg
from trihom import orientation as ori
from trihom.errors import (
    LoopEdge,
    NoSolution,
    ResourceLimit,
    UnknownClass,
    WrongSize,
    env_int,
)
from trihom.multigraph import TadpolePolicy as TP
from trihom.orientation import ClassStatus, Convention, reference_labelling


def test_class_basis_examples():
    b = hom.class_basis(1, Convention.ODD)
    assert [c.status for c in b.classes] == [ClassStatus.GENERATOR]
    b = hom.class_basis(1, Convention.EVEN)
    assert b.num_generators == 0 and len(b.classes) == 1
    b = hom.class_basis(2, Convention.EVEN)
    statuses = {c.rep.code_str(): c.status for c in b.classes}
    assert list(statuses.values()).count(ClassStatus.GENERATOR) == 1
    gen = b.generators[0]
    assert not gen.rep.has_loop
    # the generator is the simple graph (K4): no multi-edges
    assert len({tuple(sorted((a // 3, b_ // 3))) for a, b_ in gen.rep.edges}) == 6


def test_ihx_expand_deterministic(theta):
    t1 = hom.ihx_expand(theta, 0)
    t2 = hom.ihx_expand(theta, 0)
    assert t1 == t2
    (i_tag, i_swap), (h_tag, h_swap), (x_tag, x_swap) = t1
    assert (i_tag, h_tag, x_tag) == ("I", "H", "X")
    assert i_swap is None and h_swap[0] == x_swap[0] and h_swap[1] < x_swap[1]


def test_ihx_loop_edge_rejected(dumbbell):
    loop_idx = next(i for i in range(3) if dumbbell.is_loop(i))
    with pytest.raises(LoopEdge):
        hom.ihx_expand(dumbbell, loop_idx)


@pytest.mark.parametrize("edge_index", [-1, -3, 3, 4, 1.0, None, True])
def test_ihx_edge_index_checked(theta, edge_index):
    """An edge index outside 0..num_edges-1, a negative one included, is
    refused, not read from the end or left to raise IndexError; a bool is
    no index."""
    with pytest.raises(ValueError, match=r"edge index must be in 0\.\.2"):
        hom.ihx_expand(theta, edge_index)


@pytest.mark.parametrize("policy", [TP.EXCLUDE, TP.INCLUDE])
def test_ihx_swaps_give_the_per_dart_terms(policy):
    """For every non-loop edge of every class with k <= 4, loops allowed,
    each regrouping that `ihx_expand` gives as a dart swap has the pairing
    of the reference's term, built by moving every dart through the
    transposition (the I term is the graph itself), and `signed_class`
    expresses it as the reference expresses that term with its transported
    labelling.  Under Exclude a graph with a loop can have a regrouping
    without one.  The reference walks each term for connectivity, and no
    term of a connected graph is disconnected."""
    reasons = set()
    for k in range(1, 5):
        basis = hom.class_basis(k, Convention.ODD, policy)
        for cls in hom.class_basis(k, Convention.ODD, TP.INCLUDE).classes:
            g = cls.rep
            lab = reference_labelling(g)
            for e in range(g.num_edges):
                if g.is_loop(e):
                    continue
                swaps = hom.ihx_expand(g, e)
                terms = full_expansion.ihx_terms(g, lab, e)
                assert [t for t, _ in swaps] == [t for _, _, t in terms]
                for (_, swap), (term, term_lab, _) in zip(swaps, terms):
                    assert hom._regrouped(g.partner, swap) == term.partner
                    res = hom.signed_class(g, lab, basis, swap)
                    assert res == full_expansion.expressed(basis, term, term_lab)
                    reasons.add(res.zero_reason)
    expected = {None, "zero-class"}
    assert reasons == expected | ({"tadpole"} if policy is TP.EXCLUDE else set())


def test_theta_odd_rows_vanish(theta):
    basis = hom.class_basis(1, Convention.ODD)
    lab = reference_labelling(theta)
    for e in range(3):
        row, notes = full_expansion.expand_row(basis, theta, lab, e)
        assert row == {}


def test_k4_even_row_vanishes():
    basis = hom.class_basis(2, Convention.EVEN)
    k4cls = basis.generators[0]
    for e in range(6):
        lab = reference_labelling(k4cls.rep)
        row, notes = full_expansion.expand_row(basis, k4cls.rep, lab, e)
        assert row == {}
        # one term dies in the zero class B1, the two cubic terms cancel
        assert any("zero-class" in n for n in notes)


def test_relation_matrix_shapes():
    rel = hom.relation_matrix(hom.class_basis(1, Convention.ODD))
    assert (rel.matrix.num_rows, rel.matrix.num_cols) == (0, 1)
    rel = hom.relation_matrix(hom.class_basis(1, Convention.EVEN))
    assert (rel.matrix.num_rows, rel.matrix.num_cols) == (0, 0)
    rel = hom.relation_matrix(hom.class_basis(2, Convention.EVEN))
    assert (rel.matrix.num_rows, rel.matrix.num_cols) == (0, 1)
    # K4's six edges form one orbit: one zero row, five edges skipped
    assert (len(rel.zero_rows), rel.skipped) == (1, 5)


@pytest.mark.parametrize(
    "k, conv, policy",
    [(k, conv, policy) for k in range(1, 6) for conv in Convention for policy in TP]
    + [(6, Convention.ODD, TP.EXCLUDE)],
)
def test_skipped_edges_keep_the_full_expansion_rows(k, conv, policy):
    """relation_matrix skips the edges whose row an earlier expansion gave
    already (another edge of its orbit, or the edge an H or X term reached)
    and builds the rows that expanding every edge builds: the same matrix,
    the same rows in the same order from the same (class, edge) pairs.
    Expanding a row's pair again gives that row up to sign and the notes
    the reference wrote for the pair; a zero row's pair gives no entries.
    Every non-loop generator edge is a row, a zero row, a duplicate or
    skipped."""
    basis = hom.class_basis(k, conv, policy)
    rel = hom.relation_matrix(basis)
    ref, ref_notes = full_expansion.relation_matrix(basis)

    def expanded(pair):
        class_id, e = pair
        rep = basis.classes[class_id].rep
        terms = hom._terms(basis, rep, reference_labelling(rep), e)
        acc = hom._row(basis, terms)
        return tuple(sorted(acc.items())), hom._notes(basis, terms)

    assert rel.matrix.content_hash() == ref.matrix.content_hash()
    assert rel.rows == ref.rows
    assert set(rel.zero_rows) <= set(ref.zero_rows)
    for pair, row in zip(rel.rows, rel.matrix.rows):
        entries, notes = expanded(pair)
        assert entries in (row, tuple((c, -v) for c, v in row))
        assert notes == ref_notes[pair]
    for pair in rel.zero_rows:
        assert expanded(pair) == ((), ref_notes[pair])
    expansions = len(ref.rows) + len(ref.zero_rows) + ref.duplicates
    assert len(rel.rows) + len(rel.zero_rows) + rel.duplicates + rel.skipped == (
        expansions
    )
    assert rel.skipped or not expansions


def _report_bytes(report):
    """The report's JSON with every class's certificate, as `dim --certify`
    writes it."""
    doc = report.to_json()
    doc["certificates"] = [
        hom.certify(c.class_id, report).to_json() for c in report.basis.classes
    ]
    return json.dumps(doc, sort_keys=True)


@pytest.mark.parametrize("policy", [TP.EXCLUDE, TP.INCLUDE])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_class_memo_gives_the_same_report_bytes(k, policy):
    """A report and its certificates are the same bytes whether its classes
    were enumerated afresh or read from the memo the other convention
    filled."""
    for conv in Convention:
        other = Convention.ODD if conv is Convention.EVEN else Convention.EVEN
        hom._classified.cache_clear()
        cold = _report_bytes(hom.dimension(k, conv, policy))
        hom._classified.cache_clear()
        hom.class_basis(k, other, policy)
        warm = _report_bytes(hom.dimension(k, conv, policy))
        assert hom._classified.cache_info().hits == 1
        assert warm == cold


@pytest.mark.parametrize("policy", [TP.EXCLUDE, TP.INCLUDE])
def test_second_convention_runs_no_prefix_test(monkeypatch, policy):
    """class_basis enumerates once per (k, policy) and builds one class
    table: at k=4 the first convention runs the 143 (no loops) or 311
    (loops) prefix tests of one enumeration and builds the table, and the
    other convention runs none and holds the same table object."""
    tests, tables = [], []
    prefix_ties = mg._prefix_ties
    table_init = mg.ClassTable.__init__

    def counted(*args):
        tests.append(1)
        return prefix_ties(*args)

    def counted_table(self, reps):
        tables.append(1)
        table_init(self, reps)

    monkeypatch.setattr(mg, "_prefix_ties", counted)
    monkeypatch.setattr(mg.ClassTable, "__init__", counted_table)
    hom._classified.cache_clear()
    first = hom.class_basis(4, Convention.ODD, policy)
    assert len(tests) == {TP.EXCLUDE: 143, TP.INCLUDE: 311}[policy]
    tests.clear()
    second = hom.class_basis(4, Convention.EVEN, policy)
    assert tests == []
    assert [c.rep for c in first.classes] == [c.rep for c in second.classes]
    assert second.table is first.table and len(tables) == 1


def test_class_memo_enforces_a_lower_class_limit(monkeypatch):
    """The class limit in force is part of the memo's key: a limit set after
    a report still raises for the other convention of its (k, policy)."""
    assert hom.dimension(2, Convention.ODD).num_classes == 2
    monkeypatch.setenv("AK_MAX_CLASSES", "1")
    with pytest.raises(ResourceLimit, match="AK_MAX_CLASSES=1 at k=2"):
        hom.dimension(2, Convention.EVEN)


def test_class_memo_holds_no_automorphism_group():
    """The memo keeps the classes of each convention, with their ids and a
    zero class's one witness map (equal witnesses stored once), each
    class's orbit-least edges and the class table of ids: nothing in it is
    a list, so no group."""
    hom._classified.cache_clear()
    hom.class_basis(4, Convention.ODD, TP.INCLUDE)
    limit = env_int("AK_MAX_CLASSES", mg.DEFAULT_MAX_CLASSES)
    stored = hom._classified(4, TP.INCLUDE, limit)
    assert hom._classified.cache_info().hits == 1

    def values(v):
        yield v
        if isinstance(v, dict):
            children = v.values()
        elif isinstance(v, tuple):
            children = v
        elif isinstance(v, ori.GraphClass):
            children = (v.status, v.witness, v.class_id)
        elif isinstance(v, mg.ClassTable):
            children = (v._ids, v._buckets)
        else:
            children = ()
        for child in children:
            yield from values(child)

    assert not any(isinstance(v, list) for v in values(stored))
    by_convention, least, _ = stored
    assert len(least) == 71 and all(m is None or len(m) == 12 for m in least)
    witnesses = []
    for conv, classes in by_convention.items():
        assert [c.class_id for c in classes] == list(range(71))
        witnesses += [c.witness for c in classes if c.witness is not None]
    assert all(len(w) == 24 for w in witnesses)
    assert len({id(w) for w in witnesses}) == len(set(witnesses)) < len(witnesses)


def test_anchored_dimensions():
    assert hom.dimension(1, Convention.EVEN).dimension == 0
    assert hom.dimension(1, Convention.ODD).dimension == 1
    assert hom.dimension(2, Convention.EVEN).dimension == 1


def test_express_relabelling_sign(theta, rng):
    basis = hom.class_basis(1, Convention.ODD)
    ref = hom.express(theta, basis)
    assert ref == {0: Fraction(1)}
    for _ in range(100):
        iso = mg.random_relabelling(theta, rng)
        h = mg.relabel(theta, iso)
        vec = hom.express(h, basis)
        assert set(vec) == {0} and abs(vec[0]) == 1
        # sign replay: pushing theta's reference labelling through iso and
        # expressing the same labelled object must give the same vector
        lab = reference_labelling(theta)
        tv = [0] * 2
        for v in range(2):
            tv[iso[3 * v] // 3] = lab.vertex_labels[v]
        te = [0] * 3
        td = [(0, 0)] * 3
        for i, (a, b) in enumerate(theta.edges):
            j = h.edge_of_dart(iso[a])
            te[j] = lab.edge_labels[i]
            t, hh = lab.directions[i]
            td[j] = (iso[t], iso[hh])
        pushed = ori.OrientedLabelling(tuple(tv), tuple(te), tuple(td))
        assert hom.express(h, basis, pushed) == ref


def test_express_zero_cases(dumbbell, k4):
    basis = hom.class_basis(1, Convention.ODD, TP.EXCLUDE)
    assert hom.express(dumbbell, basis) == {}
    with pytest.raises(WrongSize):
        hom.express(k4, basis)


def test_express_label_swap_sign(k4):
    basis = hom.class_basis(2, Convention.EVEN)
    ref = hom.express(k4, basis)
    lab = reference_labelling(k4)
    swapped = ori.OrientedLabelling(
        lab.vertex_labels,
        (2, 1) + lab.edge_labels[2:],
        lab.directions,
    )
    assert hom.express(k4, basis, swapped) == {
        c: -v for c, v in ref.items()
    }


# Labellings that are not labellings, built from a graph's reference
# labelling `lab` with n vertices and e edges: a label list that is not a
# permutation of 1..n, or a direction that is not its edge's two darts; a
# label or dart that only equals an int is none (`sorted` raised TypeError
# on None or a str, a float failed later as an index, `True` read as 1); and
# a list or a direction that is not a sequence at all, which raised
# TypeError.
_NOT_LABELLINGS = {
    "vertex-zeros": lambda lab, n, e: dataclasses.replace(lab, vertex_labels=(0,) * n),
    "vertex-repeated": lambda lab, n, e: dataclasses.replace(
        lab, vertex_labels=(1,) * n
    ),
    "vertex-long": lambda lab, n, e: dataclasses.replace(
        lab, vertex_labels=lab.vertex_labels + (n + 1,)
    ),
    "edge-repeated": lambda lab, n, e: dataclasses.replace(lab, edge_labels=(1,) * e),
    "edge-short": lambda lab, n, e: dataclasses.replace(
        lab, edge_labels=lab.edge_labels[:-1]
    ),
    "edge-out-of-range": lambda lab, n, e: dataclasses.replace(
        lab, edge_labels=lab.edge_labels[:-1] + (e + 1,)
    ),
    "direction-foreign": lambda lab, n, e: dataclasses.replace(
        lab, directions=((0, lab.directions[1][1]),) + lab.directions[1:]
    ),
    "direction-short": lambda lab, n, e: dataclasses.replace(
        lab, directions=lab.directions[:-1]
    ),
    "direction-repeated-dart": lambda lab, n, e: dataclasses.replace(
        lab, directions=((lab.directions[0][0],) * 2,) + lab.directions[1:]
    ),
    "direction-three-darts": lambda lab, n, e: dataclasses.replace(
        lab, directions=(lab.directions[0] + (0,),) + lab.directions[1:]
    ),
    "direction-none": lambda lab, n, e: dataclasses.replace(
        lab, directions=((None, lab.directions[0][1]),) + lab.directions[1:]
    ),
    "vertex-none": lambda lab, n, e: dataclasses.replace(
        lab, vertex_labels=(None,) + lab.vertex_labels[1:]
    ),
    "edge-str": lambda lab, n, e: dataclasses.replace(
        lab, edge_labels=("1",) + lab.edge_labels[1:]
    ),
    "vertex-float": lambda lab, n, e: dataclasses.replace(
        lab, vertex_labels=(1.0,) + lab.vertex_labels[1:]
    ),
    "direction-float": lambda lab, n, e: dataclasses.replace(
        lab,
        directions=((float(lab.directions[0][0]), lab.directions[0][1]),)
        + lab.directions[1:],
    ),
    "vertex-bool": lambda lab, n, e: dataclasses.replace(
        lab, vertex_labels=(True,) + lab.vertex_labels[1:]
    ),
    "direction-int": lambda lab, n, e: dataclasses.replace(
        lab, directions=(lab.directions[0][0],) + lab.directions[1:]
    ),
    "vertex-labels-none": lambda lab, n, e: dataclasses.replace(lab, vertex_labels=None),
    "edge-labels-none": lambda lab, n, e: dataclasses.replace(lab, edge_labels=None),
    "directions-none": lambda lab, n, e: dataclasses.replace(lab, directions=None),
}


@pytest.mark.parametrize("case", list(_NOT_LABELLINGS))
def test_malformed_labellings_raise_value_error(k4, case):
    """`express` and `certify` on a labelled graph refuse a malformed
    labelling with ValueError, instead of expressing it with some sign or
    failing with IndexError; a reversed edge is still a labelling."""
    basis = hom.class_basis(2, Convention.ODD)
    report = hom.dimension(2, Convention.ODD)
    ref = reference_labelling(k4)
    lab = _NOT_LABELLINGS[case](ref, k4.num_vertices, k4.num_edges)
    with pytest.raises(ValueError):
        hom.express(k4, basis, lab)
    with pytest.raises(ValueError):
        hom.certify((k4, lab), report)
    (a, b), *rest = ref.directions
    flipped = dataclasses.replace(ref, directions=((b, a), *rest))
    vec = hom.express(k4, basis)
    assert vec and hom.express(k4, basis, flipped) == {c: -v for c, v in vec.items()}
    cert = hom.certify((k4, flipped), report)
    assert cert.class_id == hom.certify(k4, report).class_id


def test_certificates_theta():
    rep_odd = hom.dimension(1, Convention.ODD)
    theta_cls = rep_odd.basis.classes[0]
    cert = hom.certify(theta_cls.class_id, rep_odd)
    assert isinstance(cert, hom.NonzeroCertificate)
    assert cert.functional == [(0, Fraction(1))]

    rep_even = hom.dimension(1, Convention.EVEN)
    theta = mg.from_pairing(2, [(0, 3), (1, 4), (2, 5)])
    cert = hom.certify(theta, rep_even)
    assert isinstance(cert, hom.ZeroCertificate) and cert.kind == "sign-witness"


def test_certificate_b1_even(b1):
    rep = hom.dimension(2, Convention.EVEN)
    cert = hom.certify(b1, rep)
    assert isinstance(cert, hom.ZeroCertificate) and cert.kind == "sign-witness"
    witness = cert.witness_dart_perm
    cls = rep.basis.classes[cert.class_id]
    em = [cls.rep.edge_of_dart(witness[a]) for a, _ in cls.rep.edges]
    assert ori.perm_sign(em) == -1


def test_certificate_excluded(dumbbell):
    """A disconnected graph, and one with a loop under Exclude, get an
    excluded certificate that replays; one replays only without a class
    and with a reason its report can give: "disconnected", or "tadpole"
    under Exclude."""
    thetas = [(0, 3), (1, 4), (2, 5), (6, 9), (7, 10), (8, 11)]
    two_thetas = mg.from_pairing(4, thetas, allow_disconnected=True)
    include = hom.dimension(2, Convention.ODD, TP.INCLUDE)
    exclude = hom.dimension(1, Convention.ODD, TP.EXCLUDE)
    for g, report, reason in (
        (two_thetas, include, "disconnected"),
        (dumbbell, exclude, "tadpole"),
    ):
        cert = hom.certify(g, report)
        assert isinstance(cert, hom.ZeroCertificate)
        assert (cert.kind, cert.class_id, cert.reason) == ("excluded", None, reason)
        assert hom._replayed(cert, report) is cert
    for cert in (
        hom.ZeroCertificate("excluded", reason="made-up"),
        hom.ZeroCertificate("excluded", class_id=0, reason="disconnected"),
        hom.ZeroCertificate("excluded", reason="tadpole"),
    ):
        with pytest.raises(AssertionError, match="excluded certificate"):
            hom._replayed(cert, include)


def test_certify_refuses_a_class_id_out_of_range():
    """A class id that names no class raises UnknownClass: a negative one is
    not read from the end, one past the last does not raise IndexError, and
    `True` is not class 1."""
    report = hom.dimension(3, Convention.ODD, TP.EXCLUDE)
    n = len(report.basis.classes)
    assert hom.certify(n - 1, report).class_id == n - 1
    for target in (-1, -n, n, 99, True):
        with pytest.raises(UnknownClass, match=f"no class {target} in the report"):
            hom.certify(target, report)


@pytest.mark.parametrize("conv", [Convention.EVEN, Convention.ODD])
@pytest.mark.parametrize("k", [2, 3])
def test_certificates_replay_all_classes(k, conv):
    rep = hom.dimension(k, conv, TP.INCLUDE)
    for cls in rep.basis.classes:
        cert = hom.certify(cls.class_id, rep)
        if isinstance(cert, hom.NonzeroCertificate):
            func = {cid: v for cid, v in cert.functional}
            cols = {
                rep.basis.columns[cid]: v
                for cid, v in func.items()
            }
            for row in rep.relations.matrix.rows:
                assert (
                    sum((cols.get(c, Fraction(0)) * v for c, v in row), Fraction(0))
                    == 0
                )


def _random_labelled(rep, rng):
    """A random relabelling of `rep` with shuffled labels and directions."""
    g = mg.relabel(rep, mg.random_relabelling(rep, rng))
    vertex_labels = list(range(1, g.num_vertices + 1))
    edge_labels = list(range(1, g.num_edges + 1))
    rng.shuffle(vertex_labels)
    rng.shuffle(edge_labels)
    directions = tuple((a, b) if rng.random() < 0.5 else (b, a) for a, b in g.edges)
    return g, ori.OrientedLabelling(
        tuple(vertex_labels), tuple(edge_labels), directions
    )


def _solve_first_reference(report, cls, echelon, functionals):
    """The certificate of `cls` in the order that solves first: a relation
    combination when e_col is in the row space, solved forward over
    `echelon`, the tracked echelon of M itself, else the first of
    `functionals`, the tracked elimination's kernel of M, that is nonzero
    at its column."""
    if cls.status is ClassStatus.ZERO:
        return hom.ZeroCertificate(
            kind="sign-witness",
            class_id=cls.class_id,
            witness_dart_perm=cls.witness,
        )
    m = report.relations.matrix
    col = report.basis.columns[cls.class_id]
    unit = [int(c == col) for c in range(m.num_cols)]
    try:
        coeffs = forward_solve.solve_combination(m, unit, echelon)
    except NoSolution:
        gen_ids = [c.class_id for c in report.basis.generators]
        vec = next(v for v in functionals if col in v)
        return hom.NonzeroCertificate(
            cls.class_id, [(gen_ids[i], v) for i, v in sorted(vec.items())]
        )
    return hom.ZeroCertificate(
        kind="relation-combination",
        class_id=cls.class_id,
        combination=sorted(coeffs.items()),
    )


@pytest.mark.parametrize(
    "k, conv, policy, kinds",
    [
        (4, Convention.ODD, TP.EXCLUDE, {"sign-witness", "nonzero"}),
        (3, Convention.EVEN, TP.INCLUDE, {"sign-witness", "relation-combination"}),
    ],
    ids=["k4-odd-exclude", "k3-even-include"],
)
def test_certificates_share_one_elimination(monkeypatch, rng, k, conv, policy, kinds):
    """A report and every class and 50 random labelled graphs certified
    against it make one rational echelon of M, for the functionals that
    give the rank and the nonzero certificates, and one more, of Mᵀ with
    the missed columns as targets, on the first relation combination, which
    solves them all.  No query makes one of its own.  The echelons mod p of
    the rank cross-check are not counted.  Each certificate is the one that
    a tracked elimination of an unshared copy of M for that query alone,
    solving forward over M's own echelon, gives."""
    calls = []
    echelon = la._echelon

    def counted(m, p=None):
        if p is None:
            calls.append(m)
        return echelon(m, p)

    monkeypatch.setattr(la, "_echelon", counted)
    report = hom.dimension(k, conv, policy)
    classes = report.basis.classes
    targets = [c.class_id for c in classes]
    targets += [_random_labelled(rng.choice(classes).rep, rng) for _ in range(50)]
    certs = [hom.certify(t, report) for t in targets]
    monkeypatch.undo()

    m = report.relations.matrix
    combined = "relation-combination" in kinds
    assert calls[0].rows == m.rows and len(calls) == 1 + combined
    if combined:  # the rows of Mᵀ, each followed by its target entries
        assert [r[: len(c)] for r, c in zip(calls[1].rows, m.transpose().rows)] == (
            m.transpose().rows
        )
    assert {c.to_json().get("kind", "nonzero") for c in certs} == kinds
    for cert in certs:
        unshared = la.SparseIntMatrix(m.num_rows, m.num_cols, m.rows)
        want = _solve_first_reference(
            report,
            classes[cert.class_id],
            forward_solve.reduce_rows_tracked(unshared),
            forward_solve.kernel(unshared),
        )
        assert cert.to_json() == want.to_json()


def test_matrix_limit_gates_every_elimination(monkeypatch):
    """`AK_MAX_MATRIX` guards both exact echelons of a report: the
    functionals' of M, made by `dimension`, and the relation
    combinations' of Mᵀ, made on the first certificate that needs one and
    solved for every generator at once.  So `combinations` is solved once
    per report, and a certificate whose echelon the report already made
    needs no further one, whether a functional or a relation combination."""
    odd = hom.dimension(4, Convention.ODD, TP.EXCLUDE)
    even = hom.dimension(4, Convention.EVEN, TP.INCLUDE)  # dim 0
    gens = [c.class_id for c in even.basis.generators]
    assert hom.certify(gens[0], even).to_json()["kind"] == "relation-combination"

    def fresh(report):
        rel = report.relations
        return dataclasses.replace(
            report,
            relations=hom.RelationData(
                rel.matrix, rel.rows, rel.zero_rows, rel.duplicates, rel.skipped
            ),
        )

    fresh_odd, fresh_even = fresh(odd), fresh(even)
    gen = odd.basis.generators[0].class_id
    assert fresh_even.dimension == 0  # its functionals, but no combination
    monkeypatch.setenv("AK_MAX_MATRIX", "10")
    for call in (
        lambda: hom.dimension(4, Convention.ODD, TP.EXCLUDE),
        lambda: hom.certify(gen, fresh_odd),
        lambda: hom.certify(gens[0], fresh_even),
    ):
        with pytest.raises(ResourceLimit, match="AK_MAX_MATRIX"):
            call()
    assert hom.certify(gen, odd).to_json()["type"] == "nonzero"
    for g in gens:
        assert hom.certify(g, even).to_json()["kind"] == "relation-combination"


@pytest.mark.parametrize("policy", [TP.EXCLUDE, TP.INCLUDE])
@pytest.mark.parametrize("conv", [Convention.EVEN, Convention.ODD])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_certificates_match_solve_first_reference(rng, k, conv, policy):
    """Trying the functionals before any solve gives, for every class and 20
    random labelled graphs, the certificate that solving first gives."""
    report = hom.dimension(k, conv, policy)
    m = report.relations.matrix
    echelon = forward_solve.reduce_rows_tracked(m)
    functionals = forward_solve.kernel(m)
    classes = report.basis.classes
    targets = [(c.class_id, c) for c in classes]
    for _ in range(20):
        cls = rng.choice(classes)
        targets.append((_random_labelled(cls.rep, rng), cls))
    for target, cls in targets:
        want = _solve_first_reference(report, cls, echelon, functionals)
        assert hom.certify(target, report).to_json() == want.to_json()


def _signs_recorded(monkeypatch):
    """The labellings that `transported_sign` is called with, through the
    name `homology` calls it by and through `orientation`'s own."""
    labellings = []
    sign = ori.transported_sign

    def recorded(convention, source, labelling, *args):
        labellings.append(labelling)
        return sign(convention, source, labelling, *args)

    monkeypatch.setattr(hom, "transported_sign", recorded)
    monkeypatch.setattr(ori, "transported_sign", recorded)
    return labellings


def _excluded_graphs(k, rng):
    """Random graphs on 2k vertices: disconnected ones, and connected ones
    with a loop."""
    found = {"disconnected": [], "tadpole": []}
    while min(map(len, found.values())) < 3:
        g = shuffled_pairing(k, rng)
        if not g.connected:
            found["disconnected"].append(g)
        elif g.has_loop:
            found["tadpole"].append(g)
    return found


@pytest.mark.parametrize("policy", [TP.EXCLUDE, TP.INCLUDE])
@pytest.mark.parametrize("conv", [Convention.EVEN, Convention.ODD])
def test_certify_labelled_graphs_sign_nothing(monkeypatch, rng, conv, policy):
    """A labelled graph's certificate is its class's, and certifying it
    signs nothing: for random relabellings and labellings of every class
    with k <= 4, `transported_sign` is called only by the replays of sign
    witnesses, once each, and never with the query's labelling.  Graphs
    that are disconnected, or have a loop under Exclude, keep their
    reasons, and a malformed labelling is still refused."""
    for k in (1, 2, 3, 4):
        report = hom.dimension(k, conv, policy)
        classes = report.basis.classes
        want = [hom.certify(c.class_id, report).to_json() for c in classes]
        queries = [(_random_labelled(c.rep, rng), c) for c in classes for _ in range(2)]
        labellings = _signs_recorded(monkeypatch)
        for (g, lab), cls in queries:
            assert hom.certify((g, lab), report).to_json() == want[cls.class_id]
        monkeypatch.undo()
        zeros = sum(c.status is ClassStatus.ZERO for _, c in queries)
        assert len(labellings) == zeros
        assert not {id(x) for x in labellings} & {id(lab) for (_, lab), _ in queries}
        if k == 1:  # every graph on two vertices is connected
            continue
        for reason, graphs in _excluded_graphs(k, rng).items():
            for g in graphs:
                cert = hom.certify((g, reference_labelling(g)), report)
                if reason == "tadpole" and policy is TP.INCLUDE:
                    assert cert.to_json()["class_id"] is not None
                else:
                    assert (cert.kind, cert.reason) == ("excluded", reason)
        (g, lab), _ = queries[0]
        for change in _NOT_LABELLINGS.values():
            with pytest.raises(ValueError):
                hom.certify((g, change(lab, g.num_vertices, g.num_edges)), report)


def test_nonzero_certificates_share_no_list():
    """Classes certified by one functional get equal lists that are not one
    list: a caller who changes one certificate changes no other, nor a
    later certificate of that functional."""
    report = hom.dimension(4, Convention.ODD, TP.EXCLUDE)
    certs = [hom.certify(c.class_id, report) for c in report.basis.generators]
    first, second = [c for c in certs if isinstance(c, hom.NonzeroCertificate)][:2]
    listing = list(second.functional)
    assert first.functional == listing
    first.functional.append(first.functional[0])
    first.functional[0] = (first.functional[0][0], Fraction(99))
    assert second.functional == listing
    assert hom.certify(first.class_id, report).functional == listing


def _counting_scaled(monkeypatch):
    """A list that gets one entry per later call of `homology._scaled`."""
    calls, scaled = [], hom._scaled

    def counted(vec):
        calls.append(len(vec))
        return scaled(vec)

    monkeypatch.setattr(hom, "_scaled", counted)
    return calls


def test_edited_nonzero_certificates_fail_replay(monkeypatch):
    """A nonzero certificate as `certify` returns it replays by its class
    alone, reading the form its report made of the listing, with no
    scaling.  Edited in place after `certify`, by one value altered, one
    entry dropped, a zero class's id in place of a generator's, an id
    repeated, or the id 1 given as True (which `==` takes for 1), it is
    scaled and replayed in full, and fails.  An equal functional made of
    new entries replays in full, and passes."""
    for k, cid in ((4, 8), (3, 2)):
        report = hom.dimension(k, Convention.ODD, TP.EXCLUDE)
        basis = report.basis
        zero = next(c.class_id for c in basis.classes if c.status is ClassStatus.ZERO)
        calls = _counting_scaled(monkeypatch)
        assert hom._replay_nonzero(hom.certify(cid, report), report)
        assert calls == []
        edits = {
            "value": lambda f: f.__setitem__(-1, (f[-1][0], f[-1][1] + 1)),
            "dropped": lambda f: f.pop(-1),
            "zero-class": lambda f: f.__setitem__(-1, (zero, f[-1][1])),
            "repeated": lambda f: f.append(f[0]),
            "bool-id": lambda f: f.__setitem__(0, (True, f[0][1])),
        }
        for name, edit in edits.items():
            cert = hom.certify(cid, report)
            if name == "bool-id" and cert.functional[0][0] != 1:
                continue
            edit(cert.functional)
            assert not hom._replay_nonzero(cert, report), name
        assert len(calls) == len(edits) - (k == 4)
        cert = hom.certify(cid, report)
        fresh = [(c, Fraction(v)) for c, v in cert.functional]
        assert hom._replay_nonzero(hom.NonzeroCertificate(cid, fresh), report)
        assert len(calls) == len(edits) - (k == 4) + 1
        monkeypatch.undo()


def test_replay_refuses_values_that_are_not_exact():
    """A nonzero certificate's functional values, or a relation
    combination's coefficients, given as floats (all of them or the last),
    or a value 1 given as True, are refused with False and so fail replay
    with its own error, though each equals the genuine value: only an int
    or a `Fraction` is an exact value.  The same values as ints replay."""
    odd = hom.dimension(3, Convention.ODD, TP.EXCLUDE)
    even = hom.dimension(3, Convention.EVEN, TP.INCLUDE)
    combo = hom.certify(3, even)
    assert combo.kind == "relation-combination"
    cases = (
        (hom.certify(2, odd), "functional", odd, hom._replay_nonzero),
        (combo, "combination", even, hom._replay_zero),
    )
    for cert, name, report, replay in cases:
        entries = getattr(cert, name)
        one = next(j for j, (_, v) in enumerate(entries) if v == 1)
        changes = {
            "ints": [(i, int(v)) for i, v in entries],
            "floats": [(i, float(v)) for i, v in entries],
            "last-float": [*entries[:-1], (entries[-1][0], float(entries[-1][1]))],
            "bool": [(i, True if j == one else v) for j, (i, v) in enumerate(entries)],
        }
        for change, values in changes.items():
            edited = dataclasses.replace(cert, **{name: values})
            assert values == entries, change
            assert replay(edited, report) == (change == "ints"), change
            if change != "ints":
                with pytest.raises(AssertionError, match="failed replay"):
                    hom._replayed(edited, report)


def test_reports_read_only_their_own_replays(monkeypatch):
    """The replayed forms are kept per report: a certificate of one report
    is refused by a report of another k or convention, and is replayed in
    full by a second report of the same (k, convention, policy), which
    accepts it.  With the first report's forms all made None, that report
    refuses its own certificates, while a second report still accepts its
    own."""
    first = hom.dimension(4, Convention.ODD, TP.EXCLUDE)
    certs = [
        c for c in (hom.certify(g.class_id, first) for g in first.basis.generators)
        if isinstance(c, hom.NonzeroCertificate)
    ]
    assert len(certs) == 14
    others = [
        hom.dimension(3, Convention.ODD, TP.EXCLUDE),
        hom.dimension(4, Convention.EVEN, TP.EXCLUDE),
    ]
    second = hom.dimension(4, Convention.ODD, TP.EXCLUDE)
    calls = _counting_scaled(monkeypatch)
    for cert in certs:
        assert not any(hom._replay_nonzero(cert, other) for other in others)
        assert hom._replay_nonzero(cert, second)
    assert len(calls) == 3 * len(certs)
    first._listings.update((col, (f, None)) for col, (f, _) in first._listings.items())
    for g in first.basis.generators:
        with pytest.raises(AssertionError, match="nonzero certificate"):
            hom.certify(g.class_id, first)
        hom.certify(g.class_id, second)
    assert len(calls) == 3 * len(certs)


_MALFORMED = {
    "negative-ids", "ids-out-of-range", "zero-class", "repeated-id", "bool-id"
}


def _malformed(cert, basis, num_rows):
    """(change, certificate) pairs naming ids that replay must refuse rather
    than index: ids shifted below 0, which Python would read from the end,
    or past the end; a zero class where a generator belongs; an id
    repeated in a functional; and class 1's id given as `True`."""
    n = len(basis.classes)
    zero = next(c.class_id for c in basis.classes if c.status is ClassStatus.ZERO)
    as_bool = dataclasses.replace(cert, class_id=True)
    bool_id = [("bool-id", as_bool)] if cert.class_id == 1 else []
    if isinstance(cert, hom.NonzeroCertificate):
        func = cert.functional
        return bool_id + [
            ("negative-ids", hom.NonzeroCertificate(
                cert.class_id - n, [(cid - n, v) for cid, v in func]
            )),
            ("ids-out-of-range", hom.NonzeroCertificate(
                cert.class_id, [(cid + n, v) for cid, v in func]
            )),
            ("zero-class", hom.NonzeroCertificate(zero, func)),
            ("zero-class", hom.NonzeroCertificate(cert.class_id, [*func, (zero, 1)])),
            ("repeated-id", hom.NonzeroCertificate(cert.class_id, [*func, func[0]])),
        ]
    if cert.kind == "sign-witness":
        return bool_id + [
            ("negative-ids", dataclasses.replace(cert, class_id=cert.class_id - n)),
            ("ids-out-of-range", dataclasses.replace(cert, class_id=cert.class_id + n)),
        ]
    combo = cert.combination
    return bool_id + [
        ("negative-ids", dataclasses.replace(
            cert, combination=[(rid - num_rows, c) for rid, c in combo]
        )),
        ("ids-out-of-range", dataclasses.replace(
            cert, combination=[(rid + num_rows, c) for rid, c in combo]
        )),
        ("negative-ids", dataclasses.replace(cert, class_id=cert.class_id - n)),
        ("ids-out-of-range", dataclasses.replace(cert, class_id=cert.class_id + n)),
        ("zero-class", dataclasses.replace(cert, class_id=zero)),
    ]


@pytest.mark.parametrize(
    "k, conv, policy, changes",
    [
        (
            2, Convention.EVEN, TP.INCLUDE,
            {"target", "coefficient", "doubled", "reused", *_MALFORMED},
        ),
        (
            4, Convention.ODD, TP.EXCLUDE,
            {"entry", "target", "reused", *_MALFORMED},
        ),
    ],
    ids=["k2-even-include", "k4-odd-exclude"],
)
def test_replay_rejects_tampered_certificates(k, conv, policy, changes):
    """Replay accepts each class's certificate, and a functional with every
    value divided by 6, but refuses it, naming its class, after any one
    change: a functional entry on a column some row uses moved by 1/3
    ("entry"), the target entry dropped ("target"), the functional given
    to a generator it vanishes at ("reused"), a combination coefficient
    moved by 1/3 ("coefficient"), the combination doubled, or an id that
    is malformed (see `_malformed`).  The tampered certificates are
    replayed after the report has kept the verdict of every genuine
    functional on its rows, and again after their own.  The refusals
    raise AssertionError explicitly, so they hold under `python -O`."""
    report = hom.dimension(k, conv, policy)
    basis = report.basis
    num_rows = report.relations.matrix.num_rows
    used = {c for row in report.relations.matrix.rows for c, _ in row}
    genuine, tampered = [], []
    for cls in basis.classes:
        cert = hom.certify(cls.class_id, report)
        genuine.append(cert)
        tampered.extend(_malformed(cert, basis, num_rows))
        if isinstance(cert, hom.NonzeroCertificate):
            sixth = [(cid, v / 6) for cid, v in cert.functional]
            hom._replayed(hom.NonzeroCertificate(cls.class_id, sixth), report)
            ids = {cid for cid, _ in cert.functional}
            for other in basis.generators:
                if other.class_id not in ids:
                    reused = dataclasses.replace(cert, class_id=other.class_id)
                    tampered.append(("reused", reused))
            for i, (cid, v) in enumerate(cert.functional):
                func = list(cert.functional)
                if cid == cls.class_id:
                    dropped = func[:i] + func[i + 1 :]
                    tampered.append(
                        ("target", dataclasses.replace(cert, functional=dropped))
                    )
                if basis.columns[cid] in used:
                    func[i] = (cid, v + Fraction(1, 3))
                    tampered.append(
                        ("entry", dataclasses.replace(cert, functional=func))
                    )
        elif cert.kind == "relation-combination":
            for i, (rid, c) in enumerate(cert.combination):
                combo = list(cert.combination)
                combo[i] = (rid, c + Fraction(1, 3))
                tampered.append(
                    ("coefficient", dataclasses.replace(cert, combination=combo))
                )
            doubled = [(rid, 2 * c) for rid, c in cert.combination]
            tampered.append(("doubled", dataclasses.replace(cert, combination=doubled)))
    assert {change for change, _ in tampered} == changes
    assert all(form is not None for _, form in report._replays)
    for _ in range(2):
        for _, cert in tampered:
            with pytest.raises(
                AssertionError, match=rf"certificate for class {cert.class_id} failed"
            ):
                hom._replayed(cert, report)
    for cert in genuine:
        hom._replayed(cert, report)


def _vertex_preserving_maps(g):
    """Every dart map of g that permutes its vertices, each vertex's three
    darts going to one vertex in any order."""
    nv = g.num_vertices
    for vertex_perm in itertools.permutations(range(nv)):
        for slots in itertools.product(itertools.permutations(range(3)), repeat=nv):
            yield tuple(
                3 * vertex_perm[d // 3] + slots[d // 3][d % 3] for d in range(3 * nv)
            )


def test_sign_witness_replay_checks_the_map_the_status_and_the_sign():
    """A sign witness is replayed only as a dart bijection that keeps
    vertices together and commutes with the pairing, for a zero class, of
    sign -1.  Of theta's 72 vertex-preserving dart maps, replay accepts for
    the even convention (theta a zero class) exactly the 6 automorphisms of
    sign -1, and for the odd one (theta a generator) none; maps that are
    not bijections or split a vertex are refused as well."""
    for conv, want in ((Convention.EVEN, 6), (Convention.ODD, 0)):
        report = hom.dimension(1, conv)
        theta = report.basis.classes[0].rep
        autos = set(mg.automorphisms(theta))
        labelling = reference_labelling(theta)
        accepted = []
        maps = list(_vertex_preserving_maps(theta))
        maps += [(0, 0, 2, 3, 4, 5), (0, 1, 3, 2, 4, 5), (0, 1, 2, 3, 4), None]
        for dmap in maps:
            cert = hom.ZeroCertificate("sign-witness", 0, dmap)
            try:
                hom._replayed(cert, report)
            except AssertionError as exc:
                assert str(exc) == "sign-witness certificate for class 0 failed replay"
            else:
                accepted.append(dmap)
        assert len(maps) == 76 and len(accepted) == want
        for dmap in accepted:
            assert dmap in autos
            assert ori.transported_sign(conv, theta, labelling, dmap, theta) == -1


def test_sign_witness_replay_refuses_darts_that_are_not_ints():
    """A sign witness whose darts 0 and 1 are given as False and True, or
    whose every dart is a float, equals a genuine witness entry by entry,
    and is refused without indexing: bools and floats are no darts."""
    report = hom.dimension(3, Convention.EVEN, TP.EXCLUDE)
    witness = hom.certify(0, report).witness_dart_perm
    assert witness[:2] == (0, 1)
    for dmap in ((False, True, *witness[2:]), tuple(float(d) for d in witness)):
        assert list(dmap) == list(witness)
        cert = hom.ZeroCertificate("sign-witness", 0, dmap)
        with pytest.raises(AssertionError, match="for class 0 failed replay"):
            hom._replayed(cert, report)


def test_ihx_terms_walk_the_trie_not_the_search(monkeypatch):
    """Lookup counts in dimension(4, odd, exclude), without a clock:
    class_basis runs no minimal-code search (each class's group is the tie
    states of its enumeration test), relation_matrix runs none either, and
    it walks the class table's trie once for each of the 59 of its 97
    IHX terms whose pairing is not a class representative (the rest are
    found by their code).  Expanding every edge would look up 462 terms
    and walk for 268 of them."""
    phase, searches, walks = ["basis"], [], []
    min_code_ties, trie_walk = mg._min_code_ties, mg._trie_walk
    relation_matrix = hom.relation_matrix

    def counted_search(partner):
        searches.append((phase[0], tuple(partner)))
        return min_code_ties(partner)

    def counted_walk(partner, invariants, roots):
        walks.append((phase[0], tuple(partner)))
        return trie_walk(partner, invariants, roots)

    def relations_phase(basis):
        phase[0] = "relations"
        return relation_matrix(basis)

    monkeypatch.setattr(mg, "_min_code_ties", counted_search)
    monkeypatch.setattr(mg, "_trie_walk", counted_walk)
    monkeypatch.setattr(hom, "relation_matrix", relations_phase)
    report = hom.dimension(4, Convention.ODD, TP.EXCLUDE)
    reps = {c.rep.partner for c in report.basis.classes}
    basis_searches = [p for ph, p in searches if ph == "basis"]
    relation_searches = [p for ph, p in searches if ph == "relations"]
    term_walks = [p for ph, p in walks if ph == "relations"]
    assert len(reps) == 20
    assert basis_searches == []
    assert relation_searches == []
    assert len(walks) == len(term_walks) == 59
    assert not reps & set(term_walks)


@pytest.fixture
def walks(monkeypatch):
    """The pairings that `ClassTable.find` walks, in call order."""
    walked = []
    trie_walk = mg._trie_walk

    @functools.wraps(trie_walk)
    def counted_walk(partner, invariants, roots):
        walked.append(partner)
        return trie_walk(partner, invariants, roots)

    monkeypatch.setattr(mg, "_trie_walk", counted_walk)
    return walked


def test_term_walks_follow_a_third_of_the_shared_trie_frames(walks):
    """Recursive walk frames in the full expansion of every edge at k=4,
    odd, exclude, without a clock: its 268 term walks follow 1,543 frames
    from the tries keyed by the seed's and its neighbours' invariants, where
    walks from every order of every seed whose own invariant matched
    followed 2,556, and walks of one trie of every code followed 10,266."""
    trie_walk = mg._trie_walk.__wrapped__  # the fixture counts the walks
    walk = next(
        c for c in trie_walk.__code__.co_consts if getattr(c, "co_name", None) == "walk"
    )
    frames = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is walk:
            frames.append(1)

    basis = hom.class_basis(4, Convention.ODD, TP.EXCLUDE)
    sys.setprofile(profile)
    try:
        full_expansion.relation_matrix(basis)
    finally:
        sys.setprofile(None)
    assert len(walks) == 268
    assert len(frames) == 1_543
    assert 3 * len(frames) <= 10_266


def _random_labelling(g, rng):
    """Random vertex labels, edge labels and edge directions for g."""
    vertex_labels = list(range(1, g.num_vertices + 1))
    edge_labels = list(range(1, g.num_edges + 1))
    rng.shuffle(vertex_labels)
    rng.shuffle(edge_labels)
    directions = tuple(e if rng.random() < 0.5 else e[::-1] for e in g.edges)
    return ori.OrientedLabelling(tuple(vertex_labels), tuple(edge_labels), directions)


def _lookup_cases():
    """(basis, sampled classes) for k <= 4 in both policies, plus every
    sixth of the 91 k=5 classes without loops."""
    for k in (1, 2, 3, 4):
        for policy in (TP.EXCLUDE, TP.INCLUDE):
            basis = hom.class_basis(k, Convention.ODD, policy)
            yield basis, basis.classes
    basis = hom.class_basis(5, Convention.ODD, TP.EXCLUDE)
    yield basis, basis.classes[::6]


def test_find_matches_canonical_form_reference():
    """ClassTable.find on random relabellings of every sampled class gives
    the class that canonical_form followed by a code lookup gives, and its
    witness maps the graph exactly onto that class's representative.  The
    witness is the dart map that a walk of one trie of every code from
    every seed gives (the identity on a representative), and every vertex
    keeps its invariant under each relabelling."""
    rng = random.Random(7)
    walked = 0
    for basis, sample in _lookup_cases():
        by_code = {c.rep.partner: c for c in basis.classes}
        trie = ref.shared_trie(basis.classes)
        for cls in sample:
            rep_invariants = mg.vertex_invariants(cls.rep.partner)
            isos = [tuple(range(cls.rep.num_darts))] + [
                mg.random_relabelling(cls.rep, rng) for _ in range(3)
            ]
            for iso in isos:
                g = mg.relabel(cls.rep, iso)
                invariants = mg.vertex_invariants(g.partner)
                for v in range(g.num_vertices):
                    assert invariants[iso[3 * v] // 3] == rep_invariants[v]
                found_id, witness = basis.table.find(g.partner)
                found = basis.classes[found_id]
                canon, _ = mg.canonical_form(g)
                assert found is by_code[canon.partner] is cls
                assert mg.relabel(g, witness) == found.rep
                if g.partner in by_code:
                    expected = list(range(g.num_darts))
                else:
                    ref_cls, expected = ref.trie_walk(g.partner, trie)
                    assert ref_cls is cls
                    walked += 1
                assert list(witness) == expected
    assert walked > 300


@pytest.mark.parametrize("graph, k, policy", [
    ("dumbbell", 1, TP.INCLUDE), ("theta", 1, TP.INCLUDE), ("b1", 2, TP.EXCLUDE)
])
def test_find_skips_swapped_orders_and_branches_exactly(request, graph, k, policy):
    """On the graphs where swaps fire at seeds and at branch points (loops
    on the dumbbell, the theta's parallel edges, the double edges of the
    4-cycle with two opposite edges doubled), every random relabelling is
    found with the witness that the walk of one trie of every code, from
    every order of every seed and down both branches of each swap, finds
    first.  The two-vertex graphs are drawn in each of their relabelled
    pairings."""
    g = request.getfixturevalue(graph)
    basis = hom.class_basis(k, Convention.ODD, policy)
    trie = ref.shared_trie(basis.classes)
    rng = random.Random(33)
    drawn = set()
    for _ in range(100):
        h = mg.relabel(g, mg.random_relabelling(g, rng))
        class_id, witness = basis.table.find(h.partner)
        ref_cls, expected = ref.trie_walk(h.partner, trie)
        assert basis.classes[class_id] is ref_cls
        assert list(witness) == expected
        drawn.add(h.partner)
    nv = g.num_vertices
    pairings = math.factorial(nv) * 6**nv // len(mg.automorphisms(g))
    assert len(drawn) >= min(pairings, 80)


@pytest.mark.parametrize("bucket", ["absent", "present"])
def test_lookup_miss_with_and_without_its_bucket(walks, bucket):
    """A class left out of the table raises UnknownClass: at once, with no
    walk, when no class left has its invariants; after walking its bucket
    when another class shares them."""
    basis = hom.class_basis(5, Convention.ODD, TP.EXCLUDE)
    keys = [tuple(sorted(mg.vertex_invariants(c.rep.partner))) for c in basis.classes]
    shared = bucket == "present"
    missing = next(c for c, key in zip(basis.classes, keys) if (keys.count(key) > 1) == shared)
    kept = [c for c in basis.classes if c is not missing]
    table = mg.ClassTable([c.rep for c in kept])
    rng = random.Random(5)
    graphs = [missing.rep] + [
        mg.relabel(missing.rep, mg.random_relabelling(missing.rep, rng)) for _ in range(5)
    ]
    for g in graphs:
        with pytest.raises(UnknownClass, match=g.code_str()):
            table.find(g.partner)
    assert len(walks) == (len(graphs) if shared else 0)
    for c in basis.classes[::10]:
        if c is not missing:
            h = mg.relabel(c.rep, mg.random_relabelling(c.rep, rng))
            assert kept[table.find(h.partner)[0]] is c


@pytest.mark.parametrize("conv", [Convention.EVEN, Convention.ODD])
@pytest.mark.parametrize("policy", [TP.EXCLUDE, TP.INCLUDE])
def test_signed_class_matches_canonical_form_reference(conv, policy):
    """For random labellings of random relabellings, signed_class gives the
    coefficient that transported_sign gives through the canonical_form
    witness, and 0 on a zero class."""
    rng = random.Random(11)
    for k in (2, 3, 4):
        basis = hom.class_basis(k, conv, policy)
        by_code = {c.rep.partner: c for c in basis.classes}
        for cls in basis.classes:
            for _ in range(4):
                g = mg.relabel(cls.rep, mg.random_relabelling(cls.rep, rng))
                lab = _random_labelling(g, rng)
                res = hom.signed_class(g, lab, basis)
                canon, witness = mg.canonical_form(g)
                ref_cls = by_code[canon.partner]
                assert res.cls is ref_cls
                if ref_cls.status is ClassStatus.ZERO:
                    assert res.coefficient == 0 and res.zero_reason == "zero-class"
                else:
                    assert res.coefficient == ori.transported_sign(
                        conv, g, lab, witness, canon
                    )


_LOOKUP_MISS = """
import random
from trihom import homology as hom, multigraph as mg
from trihom.errors import UnknownClass
from trihom.multigraph import TadpolePolicy as TP
from trihom.orientation import Convention

basis = hom.class_basis(3, Convention.ODD, TP.EXCLUDE)
missing = basis.classes[2]
kept = basis.classes[:2] + basis.classes[3:]
table = mg.ClassTable([c.rep for c in kept])
rng = random.Random(3)
graphs = [missing.rep] + [
    mg.relabel(missing.rep, mg.random_relabelling(missing.rep, rng)) for _ in range(5)
]
for g in graphs:
    try:
        table.find(g.partner)
    except UnknownClass as exc:
        assert not isinstance(exc, KeyError)
        print(str(exc) == f"no class in the table for pairing {g.code_str()}")
    else:
        print("found")
for c in kept:
    print(kept[table.find(c.rep.partner)[0]] is c)
"""


def test_lookup_miss_raises_unknown_class():
    """A graph whose class is not in the table raises UnknownClass naming
    its pairing, also under `python -O`, for the representative itself and
    for relabellings of it; the classes left in the table are still found."""
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", _LOOKUP_MISS],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["True"] * 11


_FAILED_REPLAY = """
from trihom import homology as hom
from trihom.multigraph import TadpolePolicy as TP
from trihom.orientation import ClassStatus, Convention

hom._replay_zero = lambda cert, report: False
hom._replay_nonzero = lambda cert, report: False
rep = hom.dimension(2, Convention.EVEN, TP.INCLUDE)
rep_excl = hom.dimension(2, Convention.EVEN, TP.EXCLUDE)
loop_graph = next(c.rep for c in rep.basis.classes if c.rep.has_loop)
zero_graph = next(c.rep for c in rep_excl.basis.classes if c.status is ClassStatus.ZERO)
cases = [(cid, rep) for cid in range(len(rep.basis.classes))]
cases += [(zero_graph, rep_excl), (loop_graph, rep_excl)]
for target, report in cases:
    try:
        hom.certify(target, report)
    except AssertionError as exc:
        print(exc)
    else:
        print("accepted")
"""


_SIGN_REPLAY = """
import random
from trihom import homology as hom, multigraph as mg
from trihom.multigraph import TadpolePolicy as TP
from trihom.orientation import ClassStatus, Convention

replays = []
replay_zero = hom._replay_zero
hom._replay_zero = lambda cert, report: replays.append(1) or replay_zero(cert, report)
report = hom.dimension(4, Convention.ODD, TP.EXCLUDE)
zeros = [c for c in report.basis.classes if c.status is ClassStatus.ZERO]
rng = random.Random(9)
kinds = set()
for _ in range(3):
    for c in zeros:
        g = mg.relabel(c.rep, mg.random_relabelling(c.rep, rng))
        kinds.add(hom.certify(g, report).kind)
        kinds.add(hom.certify(c.class_id, report).kind)
print(len(zeros), len(replays), *kinds)
identity = tuple(range(zeros[0].rep.num_darts))
cert = hom.ZeroCertificate("sign-witness", zeros[0].class_id, identity)
try:
    hom._replayed(cert, report)
except AssertionError as exc:
    print(exc)
"""


def test_sign_witness_replayed_on_every_certify_call():
    """Repeated zero-class queries against one report replay the witness on
    every certify call, and still refuse a witness of sign +1 from a class
    already replayed, also under `python -O`."""
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", _SIGN_REPLAY],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        counts, refused = proc.stdout.splitlines()
        zeros, replays, kinds = counts.split(maxsplit=2)
        assert int(zeros) > 0 and kinds == "sign-witness"
        assert int(replays) == 6 * int(zeros)
        assert refused.startswith("sign-witness certificate for class")


def test_failed_replay_raises_under_optimize():
    """A certificate whose replay fails is refused even when `python -O`
    strips assert statements; every certify path is exercised."""
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _FAILED_REPLAY],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "sign-witness certificate for class 0 failed replay",
        "relation-combination certificate for class 1 failed replay",
        "sign-witness certificate for class 2 failed replay",
        "sign-witness certificate for class 3 failed replay",
        "nonzero certificate for class 4 failed replay",
        "sign-witness certificate for class 0 failed replay",
        "excluded certificate (tadpole) failed replay",
    ]


_WRONG_FUNCTIONALS = """
from trihom import exactla, homology as hom
from trihom.multigraph import TadpolePolicy as TP
from trihom.orientation import Convention

kernel = exactla.kernel


def changed(m):
    vecs = kernel(m)
    pivot = min(set(range(m.num_cols)) - {max(v) for v in vecs})
    vecs[-1][pivot] = vecs[-1].get(pivot, 0) + 1
    return vecs


def emptied(m):
    vecs = kernel(m)
    vecs[-1] = {}
    return vecs


def dropped(m):
    return kernel(m)[:-1]


for wrong in (None, changed, emptied, dropped):
    exactla.kernel = wrong or kernel
    try:
        print(hom.dimension(4, Convention.ODD, TP.EXCLUDE).dimension)
    except AssertionError as exc:
        print(str(exc).splitlines()[0])
"""


def test_dimension_replays_every_functional():
    """`dimension` refuses functionals that the rank cross-check alone would
    pass, since there are as many as the rank mod p leaves: one that is
    wrong at a pivot column fails its integer replay against the rows, and
    an empty one, which replays, is not independent of the others.  A
    kernel short of its last vector still replays and stays independent,
    and only the rank cross-check refuses it.  All three raise, also under
    `python -O`; the first line of each message is pinned."""
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", _WRONG_FUNCTIONALS],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "2",
            "functional 1 failed replay",
            "the functionals are not independent",
            "modular rank disagrees with exact rank: 12 != 13; matrix dump:",
        ]


def test_rank_check_stops_at_the_first_prime_that_meets_the_rank(monkeypatch):
    """The rank cross-check of a report with relation rows makes one echelon
    mod p when the first prime of `PRIMES` meets the rank, two when only
    the second does, and raises, after all three, when none does."""
    calls = []

    def short_at(primes):
        def modular_rank(m, p):
            calls.append(p)
            return la.modular_rank(m, p) - (p in primes)

        return modular_rank

    for short, made in (((), 1), (la.PRIMES[:1], 2)):
        calls.clear()
        monkeypatch.setattr(hom, "modular_rank", short_at(short))
        assert hom.dimension(4, Convention.ODD, TP.EXCLUDE).dimension == 2
        assert calls == list(la.PRIMES[:made])
    calls.clear()
    monkeypatch.setattr(hom, "modular_rank", short_at(la.PRIMES))
    with pytest.raises(AssertionError) as exc:
        hom.dimension(4, Convention.ODD, TP.EXCLUDE)
    assert str(exc.value).splitlines()[0] == (
        "modular rank disagrees with exact rank: 11 != 12; matrix dump:"
    )
    assert calls == list(la.PRIMES)


@pytest.mark.parametrize("conv", [Convention.EVEN, Convention.ODD])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_rows_labelling_invariant_and_complete(walks, k, conv, rng):
    """Rows from random relabellings of every class (zero classes
    included), with their reference labelling and with a random one, stay
    inside the span of the reference rows: stacked on the relation matrix
    they leave its exact rank unchanged.  Each of their swap-built terms is
    the reference's per-dart term (`tests/full_expansion.py`) in the class
    space: coefficient, class, zero reason and lookup map.  Their terms
    that are not representatives are found by trie walks."""
    from trihom.exactla import SparseIntMatrix, rank

    basis = hom.class_basis(k, conv, TP.INCLUDE)
    rel = hom.relation_matrix(basis)
    base_rank = rank(rel.matrix)
    extra_rows = [list(r) for r in rel.matrix.rows]
    for cls in basis.classes:
        for _ in range(3):
            h, random_lab = _random_labelled(cls.rep, rng)
            for lab in (reference_labelling(h), random_lab):
                for e in range(h.num_edges):
                    if h.is_loop(e):
                        continue
                    terms = hom._terms(basis, h, lab, e)
                    reference = full_expansion.expand_terms(basis, h, lab, e)
                    assert terms == reference
                    acc = hom._row(basis, terms)
                    if acc:
                        extra_rows.append(sorted(acc.items()))
    stacked = SparseIntMatrix(
        len(extra_rows), basis.num_generators, extra_rows
    )
    assert len(extra_rows) > len(rel.rows) and walks
    assert rank(stacked) == base_rank


def test_rank_stable_under_duplicates():
    from trihom.exactla import SparseIntMatrix, rank

    for k, conv in ((2, Convention.EVEN), (3, Convention.ODD)):
        rel = hom.relation_matrix(hom.class_basis(k, conv, TP.INCLUDE))
        doubled = SparseIntMatrix(
            2 * rel.matrix.num_rows,
            rel.matrix.num_cols,
            [list(r) for r in rel.matrix.rows] * 2,
        )
        assert rank(doubled) == rank(rel.matrix)


def test_report_json_shape():
    rep = hom.dimension(2, Convention.EVEN, TP.INCLUDE)
    doc = rep.to_json()
    assert doc["num_classes"] == rep.num_classes == len(rep.basis.classes)
    assert doc["num_generators"] == rep.num_generators == rep.basis.num_generators
    assert doc["num_classes"] > doc["num_generators"]
    assert doc["dimension"] == doc["num_generators"] - doc["rank"]
    assert len(doc["classes"]) == len(rep.basis.classes)
    for c in doc["classes"]:
        assert c["status"] in ("generator", "zero")

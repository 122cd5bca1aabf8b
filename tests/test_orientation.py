import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cycle_space_sign as ref
import transport_sign
from conftest import compose, inverse
from trihom import homology as hom
from trihom import multigraph as mg
from trihom import orientation as ori


def _sign(conv, g, dart_map, labelling=None):
    """Sign of carrying g with `labelling` (its reference labelling when
    None) along `dart_map` onto its reference labelling."""
    if labelling is None:
        labelling = ori.reference_labelling(g)
    return ori.transported_sign(conv, g, labelling, dart_map, g)


def _identity(g):
    return tuple(range(g.num_darts))


def _label_change(g, edge_perm, vertex_perm):
    """g's reference labelling with the label of edge i and vertex v moved
    to edge_perm[i] + 1 and vertex_perm[v] + 1."""
    return ori.OrientedLabelling(
        tuple(v + 1 for v in vertex_perm),
        tuple(e + 1 for e in edge_perm),
        ori.reference_labelling(g).directions,
    )


def _vertex_perm(dart_map):
    return [dart_map[3 * v] // 3 for v in range(len(dart_map) // 3)]


def _classify(g, conv):
    """The class of g: its canonical form, classified with its group."""
    canon, _ = mg.canonical_form(g)
    return ori.classify_conventions(canon, mg.automorphisms(canon))[conv]


def test_label_change_sign_examples(k4):
    """A pure label change is the identity dart map carrying new labels."""

    def sign(conv, edge_perm, vertex_perm):
        labelling = _label_change(k4, edge_perm, vertex_perm)
        return _sign(conv, k4, _identity(k4), labelling)

    transposition = [1, 0, 2, 3, 4, 5]
    identity6 = [0, 1, 2, 3, 4, 5]
    assert sign(ori.Convention.EVEN, transposition, [0, 1, 2, 3]) == -1
    assert sign(ori.Convention.EVEN, identity6, [1, 0, 2, 3]) == 1
    three_cycle = [1, 2, 0, 3, 4, 5]
    assert sign(ori.Convention.ODD, three_cycle, [1, 0, 2, 3]) == -1
    assert sign(ori.Convention.ODD, transposition, [0, 1, 2, 3]) == 1


@pytest.mark.parametrize("conv", [ori.Convention.EVEN, ori.Convention.ODD])
def test_label_change_sign_matches_transport(theta, conv):
    """A pure label change, carried along the identity map, reverses no
    edge: its sign is the parity of the edge permutation in the even
    convention and of the vertex permutation in the odd one."""
    for edge_perm in ([0, 1, 2], [1, 0, 2], [1, 2, 0]):
        for vertex_perm in ([0, 1], [1, 0]):
            labelling = _label_change(theta, edge_perm, vertex_perm)
            perm = edge_perm if conv is ori.Convention.EVEN else vertex_perm
            assert _sign(conv, theta, _identity(theta), labelling) == ori.perm_sign(perm)


def _random_labelling(g, rng):
    """g's labels shuffled and each of its edges directed at random."""
    vertex_labels = list(range(1, g.num_vertices + 1))
    edge_labels = list(range(1, g.num_edges + 1))
    rng.shuffle(vertex_labels)
    rng.shuffle(edge_labels)
    directions = tuple((a, b) if rng.random() < 0.5 else (b, a) for a, b in g.edges)
    return ori.OrientedLabelling(tuple(vertex_labels), tuple(edge_labels), directions)


def _ihx_terms(g, basis):
    """Each swap of an IHX term of g whose class is found, with its dart map
    onto that class's representative."""
    for e in range(g.num_edges):
        if g.is_loop(e):
            continue
        for _, swap in hom.ihx_expand(g, e):
            found = hom._lookup(g, basis, swap)
            if not isinstance(found, str):
                yield swap, found[1], basis.classes[found[0]].rep


def test_transported_sign_matches_the_carried_permutations(rng):
    """`transported_sign` reads the sign off the dart map alone; it agrees
    with the rule on the permutations and reversals of the carried
    labelling (`tests/transport_sign.py`) in both conventions: on every
    automorphism of every class with k <= 5, both tadpole policies; on
    every IHX term of every generator, k <= 5 under Exclude and k <= 4
    under Include; and on random relabellings with shuffled labels and
    flipped directions, carried onto their canonical form and into each of
    their IHX terms."""
    checked = 0

    def check(*args):
        nonlocal checked
        for conv in ori.Convention:
            checked += 1
            want = transport_sign.transported_sign(conv, *args)
            assert ori.transported_sign(conv, *args) == want, (conv, args)

    for k in range(1, 6):
        for policy in mg.TadpolePolicy:
            for rep, autos in mg.enumerate_classes(k, policy):
                labelling = ori.reference_labelling(rep)
                for a in autos:
                    check(rep, labelling, a, rep)
            if k == 5 and policy is mg.TadpolePolicy.INCLUDE:
                continue
            bases = [hom.class_basis(k, conv, policy) for conv in ori.Convention]
            generators = {cls.class_id for b in bases for cls in b.generators}
            basis = bases[0]
            for rep in (basis.classes[i].rep for i in sorted(generators)):
                labelling = ori.reference_labelling(rep)
                for swap, dart_map, target in _ihx_terms(rep, basis):
                    check(rep, labelling, dart_map, target, swap)
                g = mg.relabel(rep, mg.random_relabelling(rep, rng))
                labelling = _random_labelling(g, rng)
                canon, dart_map = mg.canonical_form(g)
                check(g, labelling, dart_map, canon)
                for swap, dart_map, target in _ihx_terms(g, basis):
                    check(g, labelling, dart_map, target, swap)
    assert checked > 50_000


def test_perm_sign_basics():
    assert ori.perm_sign([0, 1, 2]) == 1
    assert ori.perm_sign([1, 0, 2]) == -1
    assert ori.perm_sign([1, 2, 0]) == 1


@given(st.permutations(list(range(6))), st.permutations(list(range(6))))
@settings(max_examples=200, deadline=None)
def test_perm_sign_homomorphism(p, q):
    comp = [p[q[i]] for i in range(6)]
    assert ori.perm_sign(comp) == ori.perm_sign(p) * ori.perm_sign(q)


def test_h1_sign_theta_examples(theta):
    dirs = ori.reference_labelling(theta).directions
    edge_swap = (1, 0, 2, 4, 3, 5)  # swaps parallel edges, fixes vertices
    assert ref.h1_action_sign(theta, dirs, edge_swap) == -1
    vertex_swap = (3, 4, 5, 0, 1, 2)  # reverses all three edges
    assert ref.h1_action_sign(theta, dirs, vertex_swap) == 1
    assert ref.h1_action_sign(theta, dirs, _identity(theta)) == 1


def test_automorphism_sign_examples(theta, dumbbell, k4):
    dirs = ori.reference_labelling(theta).directions
    vertex_swap = (3, 4, 5, 0, 1, 2)
    # odd: 3 reversals, vertex transposition -> (-1)^3 * (-1) = +1
    assert _sign(ori.Convention.ODD, theta, vertex_swap) == 1
    assert ref.reference_sign(ori.Convention.ODD, theta, dirs, vertex_swap) == 1

    loop_swap = (1, 0, 2, 3, 4, 5)  # reverse one loop
    assert _sign(ori.Convention.ODD, dumbbell, loop_swap) == -1

    transpositions = [
        a
        for a in mg.automorphisms(k4)
        if sum(1 for i, v in enumerate(_vertex_perm(a)) if i != v) == 2
    ]
    assert transpositions
    for a in transpositions:
        assert _sign(ori.Convention.EVEN, k4, a) == 1


@pytest.mark.parametrize("k", [1, 2, 3])
def test_closed_form_identity(k):
    for g in mg.enumerate_trivalent(k, mg.TadpolePolicy.INCLUDE):
        dirs = ori.reference_labelling(g).directions
        for a in mg.automorphisms(g):
            assert _sign(ori.Convention.ODD, g, a) == ref.reference_sign(
                ori.Convention.ODD, g, dirs, a
            )


def test_h1_sign_direction_independence(k4, rng):
    """The cycle-space determinant does not depend on the edge directions
    it is measured against; the sign of carrying other directions along
    an automorphism is the sign of the change of directions times the
    automorphism's own sign, in both conventions."""
    autos = mg.automorphisms(k4)
    reference = ori.reference_labelling(k4)
    base = [ref.h1_action_sign(k4, reference.directions, a) for a in autos]
    ident = _identity(k4)
    for _ in range(10):
        dirs = tuple(
            (a, b) if rng.random() < 0.5 else (b, a) for a, b in k4.edges
        )
        assert [ref.h1_action_sign(k4, dirs, a) for a in autos] == base
        lab = ori.OrientedLabelling(reference.vertex_labels, reference.edge_labels, dirs)
        for conv in (ori.Convention.EVEN, ori.Convention.ODD):
            change = _sign(conv, k4, ident, lab)
            for a in autos:
                assert _sign(conv, k4, a, lab) == change * _sign(conv, k4, a)


def test_h1_sign_presentation_independence(k4, rng):
    """Respinning the graph changes the spanning tree; determinants agree,
    and so do the closed-form signs."""
    autos = mg.automorphisms(k4)
    ref_dirs = ori.reference_labelling(k4).directions
    for _ in range(10):
        rl = mg.random_relabelling(k4, rng)
        h = mg.relabel(k4, rl)
        hdirs = ori.reference_labelling(h).directions
        for a in autos[:8]:
            conj = compose(compose(rl, a), inverse(rl))
            assert ref.h1_action_sign(h, hdirs, conj) == ref.h1_action_sign(
                k4, ref_dirs, a
            )
            for conv in (ori.Convention.EVEN, ori.Convention.ODD):
                assert _sign(conv, h, conj) == _sign(conv, k4, a)


def test_classify_examples(theta, b1):
    c = _classify(theta, ori.Convention.EVEN)
    assert c.status is ori.ClassStatus.ZERO
    assert _vertex_perm(c.witness) == [0, 1]  # pure parallel-edge swap
    assert _sign(ori.Convention.EVEN, c.rep, c.witness) == -1

    c = _classify(theta, ori.Convention.ODD)
    assert c.status is ori.ClassStatus.GENERATOR
    for a in mg.automorphisms(c.rep):
        assert _sign(ori.Convention.ODD, c.rep, a) == 1

    c = _classify(b1, ori.Convention.EVEN)
    assert c.status is ori.ClassStatus.ZERO
    em = [c.rep.edge_of_dart(c.witness[a]) for a, _ in c.rep.edges]
    assert ori.perm_sign(em) == -1  # a single doubled-edge transposition


def test_classify_presentation_invariance(k4, rng):
    ref = _classify(k4, ori.Convention.ODD)
    for _ in range(100):
        h = mg.relabel(k4, mg.random_relabelling(k4, rng))
        c = _classify(h, ori.Convention.ODD)
        assert c.rep == ref.rep and c.status is ref.status


def test_odd_loop_classes_are_zero():
    """Every class with a loop is zero in the odd convention, for k <= 5:
    reversing a loop fixes every vertex and reverses one edge, an
    automorphism of odd sign -1.  So the odd generators, and with them the
    rows and the dimension, are the same under both tadpole policies."""
    counts = []
    for k in range(1, 6):
        loop_classes = [
            ori.classify_conventions(rep, autos)[ori.Convention.ODD]
            for rep, autos in mg.enumerate_classes(k, mg.TadpolePolicy.INCLUDE)
            if rep.has_loop
        ]
        counts.append(len(loop_classes))
        assert all(c.status is ori.ClassStatus.ZERO for c in loop_classes)
    assert counts == [1, 3, 11, 51, 297]


def test_sign_multiplicativity(rng):
    for conv in (ori.Convention.EVEN, ori.Convention.ODD):
        for g in mg.enumerate_trivalent(2, mg.TadpolePolicy.INCLUDE):
            autos = mg.automorphisms(g)
            for _ in range(100):
                a, b = rng.choice(autos), rng.choice(autos)
                assert _sign(conv, g, compose(a, b)) == _sign(conv, g, a) * _sign(
                    conv, g, b
                )


@pytest.mark.parametrize("policy", list(mg.TadpolePolicy))
def test_one_pass_classify_matches_each_convention_alone(policy):
    """Classifying both conventions in one pass over the group gives, for
    every class with k <= 4, each convention's status and witness as a
    scan of its own for the first automorphism of sign -1, by dart map."""
    for k in range(1, 5):
        for rep, autos in mg.enumerate_classes(k, policy):
            both = ori.classify_conventions(rep, autos)
            assert set(both) == set(ori.Convention)
            for conv, cls in both.items():
                witness = next(
                    (a for a in sorted(autos) if _sign(conv, rep, a) == -1), None
                )
                status = ori.ClassStatus.ZERO if witness else ori.ClassStatus.GENERATOR
                assert (cls.rep, cls.status, cls.witness) == (rep, status, witness)

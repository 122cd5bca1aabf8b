import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cycle_space_sign as ref
from trihom import homology as hom
from trihom import multigraph as mg
from trihom import orientation as ori


def _iso(dart_perm):
    return mg.Isomorphism.from_dart_map(list(dart_perm))


def test_label_change_sign_examples():
    transposition = [1, 0, 2]
    identity3 = [0, 1, 2]
    assert ori.label_change_sign(ori.Convention.EVEN, transposition, identity3) == -1
    assert ori.label_change_sign(ori.Convention.EVEN, identity3, transposition) == 1
    three_cycle = [1, 2, 0]
    assert ori.label_change_sign(ori.Convention.ODD, three_cycle, transposition) == -1
    assert ori.label_change_sign(ori.Convention.ODD, transposition, identity3) == 1


@pytest.mark.parametrize("conv", [ori.Convention.EVEN, ori.Convention.ODD])
def test_label_change_sign_matches_transport(theta, conv):
    """A pure label change has the sign that `transported_sign`, the sign of
    every IHX term, gives the relabelled graph."""
    ident = mg.Isomorphism.identity(theta.num_vertices)
    directions = ori.reference_labelling(theta).directions
    for edge_perm in ([0, 1, 2], [1, 0, 2], [1, 2, 0]):
        for vertex_perm in ([0, 1], [1, 0]):
            labelling = ori.OrientedLabelling(
                tuple(v + 1 for v in vertex_perm),
                tuple(e + 1 for e in edge_perm),
                directions,
            )
            assert hom.transported_sign(
                theta, ident, labelling, theta, conv
            ) == ori.label_change_sign(conv, edge_perm, vertex_perm)


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
    edge_swap = _iso([1, 0, 2, 4, 3, 5])  # swaps parallel edges, fixes vertices
    assert ref.h1_action_sign(theta, dirs, edge_swap) == -1
    vertex_swap = _iso([3, 4, 5, 0, 1, 2])  # reverses all three edges
    assert ref.h1_action_sign(theta, dirs, vertex_swap) == 1
    ident = mg.Isomorphism.identity(2)
    assert ref.h1_action_sign(theta, dirs, ident) == 1


def test_total_sign_examples(theta, dumbbell, k4):
    dirs = ori.reference_labelling(theta).directions
    vertex_swap = _iso([3, 4, 5, 0, 1, 2])
    # odd: 3 reversals, vertex transposition -> (-1)^3 * (-1) = +1
    assert ori.total_sign(ori.Convention.ODD, theta, dirs, vertex_swap) == 1
    assert ref.reference_sign(ori.Convention.ODD, theta, dirs, vertex_swap) == 1

    ddirs = ori.reference_labelling(dumbbell).directions
    loop_swap = _iso([1, 0, 2, 3, 4, 5])  # reverse one loop
    assert ori.total_sign(ori.Convention.ODD, dumbbell, ddirs, loop_swap) == -1

    kdirs = ori.reference_labelling(k4).directions
    transpositions = [
        a
        for a in mg.automorphisms(k4)
        if sorted(a.vertex_perm) == [0, 1, 2, 3]
        and sum(1 for i, v in enumerate(a.vertex_perm) if i != v) == 2
    ]
    assert transpositions
    for a in transpositions:
        assert ori.total_sign(ori.Convention.EVEN, k4, kdirs, a) == 1


@pytest.mark.parametrize("k", [1, 2, 3])
def test_closed_form_identity(k):
    for g in mg.enumerate_trivalent(k, mg.TadpolePolicy.INCLUDE):
        dirs = ori.reference_labelling(g).directions
        for a in mg.automorphisms(g):
            assert ori.total_sign(
                ori.Convention.ODD, g, dirs, a
            ) == ref.reference_sign(ori.Convention.ODD, g, dirs, a)


def test_h1_sign_direction_independence(k4, rng):
    """The cycle-space determinant and the closed-form signs of both
    conventions do not depend on the edge directions they are measured
    against."""
    autos = mg.automorphisms(k4)

    def signs(dirs):
        return [
            (ref.h1_action_sign(k4, dirs, a),
             ori.total_sign(ori.Convention.EVEN, k4, dirs, a),
             ori.total_sign(ori.Convention.ODD, k4, dirs, a))
            for a in autos
        ]

    base = signs(ori.reference_labelling(k4).directions)
    for _ in range(10):
        dirs = tuple(
            (a, b) if rng.random() < 0.5 else (b, a) for a, b in k4.edges
        )
        assert signs(dirs) == base


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
            conj = rl.compose(a).compose(rl.inverse())
            assert ref.h1_action_sign(h, hdirs, conj) == ref.h1_action_sign(
                k4, ref_dirs, a
            )
            for conv in (ori.Convention.EVEN, ori.Convention.ODD):
                assert ori.total_sign(conv, h, hdirs, conj) == ori.total_sign(
                    conv, k4, ref_dirs, a
                )


def test_classify_examples(theta, b1):
    c = ori.classify(theta, ori.Convention.EVEN)
    assert c.status is ori.ClassStatus.ZERO
    wit = c.witness
    assert wit.vertex_perm == (0, 1)  # pure parallel-edge swap
    dirs = c.labelling.directions
    assert ori.total_sign(ori.Convention.EVEN, c.rep, dirs, wit) == -1

    c = ori.classify(theta, ori.Convention.ODD)
    assert c.status is ori.ClassStatus.GENERATOR
    for a in mg.automorphisms(c.rep):
        assert ori.total_sign(ori.Convention.ODD, c.rep, dirs, a) == 1

    c = ori.classify(b1, ori.Convention.EVEN)
    assert c.status is ori.ClassStatus.ZERO
    em, _, _ = ori.iso_signature(c.rep, c.labelling.directions, c.witness)
    assert ori.perm_sign(em) == -1  # a single doubled-edge transposition


def test_classify_presentation_invariance(k4, rng):
    ref = ori.classify(k4, ori.Convention.ODD)
    for _ in range(100):
        h = mg.relabel(k4, mg.random_relabelling(k4, rng))
        c = ori.classify(h, ori.Convention.ODD)
        assert c.rep == ref.rep and c.status is ref.status


def test_odd_loop_classes_are_zero():
    """Every class with a loop is zero in the odd convention, for k <= 5:
    reversing a loop fixes every vertex and reverses one edge, an
    automorphism of odd sign -1.  So the odd generators, and with them the
    rows and the dimension, are the same under both tadpole policies."""
    counts = []
    for k in range(1, 6):
        loop_classes = [
            ori.classify(rep, ori.Convention.ODD, autos)
            for rep, autos in mg.enumerate_classes(k, mg.TadpolePolicy.INCLUDE)
            if rep.has_loop
        ]
        counts.append(len(loop_classes))
        assert all(c.status is ori.ClassStatus.ZERO for c in loop_classes)
    assert counts == [1, 3, 11, 51, 297]


def test_sign_multiplicativity(rng):
    for conv in (ori.Convention.EVEN, ori.Convention.ODD):
        for g in mg.enumerate_trivalent(2, mg.TadpolePolicy.INCLUDE):
            dirs = ori.reference_labelling(g).directions
            autos = mg.automorphisms(g)
            for _ in range(100):
                a, b = rng.choice(autos), rng.choice(autos)
                assert ori.total_sign(conv, g, dirs, a.compose(b)) == ori.total_sign(
                    conv, g, dirs, a
                ) * ori.total_sign(conv, g, dirs, b)

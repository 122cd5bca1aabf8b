import dataclasses
import hashlib
import json
import random
import subprocess
import sys

import pytest
import recursive_typing
from conftest import shuffled_pairing

from trihom import multigraph as mg
from trihom import surgery as sg
from trihom.errors import DimensionTooSmall


def test_theta_typing(theta):
    polarity, types = sg.assign_vertex_types(theta)
    counts = [0, 0]
    for dart in polarity:
        counts[dart // 3] += 1
    assert sorted(counts) == [1, 2]
    assert sorted(t.value for t in types) == ["I", "II"]


def test_k4_typing(k4):
    _, types = sg.assign_vertex_types(k4)
    assert sum(t is sg.VertexType.TYPE_I for t in types) == 2
    assert sum(t is sg.VertexType.TYPE_II for t in types) == 2


def test_dumbbell_typing(dumbbell):
    polarity, types = sg.assign_vertex_types(dumbbell)
    assert sorted(t.value for t in types) == ["I", "II"]
    loop_edges = [i for i in range(3) if dumbbell.is_loop(i)]
    for i in loop_edges:
        assert polarity[i] in dumbbell.edges[i]


def test_typing_deterministic(k4):
    assert sg.assign_vertex_types(k4) == sg.assign_vertex_types(k4)


@pytest.mark.parametrize("policy", [mg.TadpolePolicy.EXCLUDE, mg.TadpolePolicy.INCLUDE])
def test_typing_matches_recursive_reference(policy):
    """The loop-driven typing is the recursive reference's, for every class
    with k <= 5 and two random relabellings of each; some of them give a
    non-loop edge's big member to its greater dart."""
    rng = random.Random(28)
    greater = 0
    for k in (1, 2, 3, 4, 5):
        for rep in mg.enumerate_trivalent(k, policy):
            for _ in range(2):
                g = mg.relabel(rep, mg.random_relabelling(rep, rng))
                typing = sg.assign_vertex_types(g)
                assert typing == recursive_typing.assign_vertex_types(g)
                greater += any(
                    p == b and a // 3 != b // 3 for (a, b), p in zip(g.edges, typing[0])
                )
    assert greater


def test_typing_matches_recursive_reference_on_random_pairings():
    """The same on random pairings, disconnected ones and ones with loops
    among them."""
    rng = random.Random(29)
    kinds = set()
    for k in (1, 2, 3, 4, 5):
        for _ in range(60):
            g = shuffled_pairing(k, rng)
            kinds.add((g.connected, g.has_loop))
            assert sg.assign_vertex_types(g) == recursive_typing.assign_vertex_types(g)
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}


_NO_TYPING = """
from types import SimpleNamespace
from trihom import surgery as sg
# two vertices and one edge: no typing gives both a big end
try:
    sg.assign_vertex_types(SimpleNamespace(num_vertices=2, edges=((0, 3),)))
except AssertionError as exc:
    print(exc)
"""


def test_no_typing_raises_under_optimize():
    """The typing that cannot fail on a trivalent graph raises explicitly
    when it does, also under `python -O`, which strips assert statements."""
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", _NO_TYPING], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "every trivalent multigraph has a Type I/II typing\n"


def test_plan_theta_d4(theta):
    p = sg.plan(theta, 4)
    assert sorted(p.b_gamma) == ["S^0", "S^1"]
    assert p.family_dim == 1
    assert (p.hopf_base, p.hopf_chained) == (6, 7)
    assert p.w_copies == 6
    assert p.hopf_family_dims == (1, 2)
    assert p.final_handles == (1, 2)
    assert p.admissible


def test_plan_theta_d5(theta):
    p = sg.plan(theta, 5)
    assert p.b_gamma == ("S^1", "S^1")
    assert p.final_handles == (2, 3)
    assert p.admissible
    assert all(t is sg.VertexType.UNIFORM for t in p.vertex_types)
    assert p.framed_link_dims[0] == ((2, 2, 2), (2, 2, 2))


def test_plan_k4(k4):
    p = sg.plan(k4, 4)
    assert p.family_dim == 2
    assert (p.hopf_base, p.hopf_chained) == (12, 13)
    assert p.final_handles == (1, 2)
    p5 = sg.plan(k4, 5)
    assert p5.family_dim == 4


def test_plan_dimension_too_small(theta):
    with pytest.raises(DimensionTooSmall):
        sg.plan(theta, 3)


@pytest.mark.parametrize("d", [5.5, True])
def test_plan_dimension_not_an_int(theta, d):
    with pytest.raises(TypeError):
        sg.plan(theta, d)


def test_y_link_report_dims(theta):
    rep = sg.y_link_report(sg.plan(theta, 4))
    by_type = {v["type"]: v for v in rep["vertices"]}
    assert by_type["I"]["handles"] == [1, 1, 2]
    assert by_type["I"]["link_K_dims"] == [1, 1, 2]
    assert by_type["I"]["link_L_dims"] == [2, 2, 1]
    assert by_type["II"]["handles"] == [1, 2, 2]
    assert by_type["II"]["link_K_dims"] == [1, 2, 2]
    assert by_type["II"]["link_L_dims"] == [2, 1, 1]
    # each Hopf pair splits across the two ends of its edge
    for e in rep["edges"]:
        assert e["big_member_at_dart"] in e["darts"]


def test_loop_edges_flagged(dumbbell):
    p = sg.plan(dumbbell, 4)
    assert p.nonstandard_loops
    rep = sg.y_link_report(p)
    loops = [e for e in rep["edges"] if e["loop"]]
    assert len(loops) == 2


def test_plan_stores_its_typing_only():
    fields = [f.name for f in dataclasses.fields(sg.SurgeryPlan)]
    assert fields == ["d", "graph_pairing", "vertex_types", "edge_polarity"]


def _small_plans():
    """The plan of every graph with k <= 3, both tadpole policies, d = 4..7."""
    for k in (1, 2, 3):
        for pol in (mg.TadpolePolicy.EXCLUDE, mg.TadpolePolicy.INCLUDE):
            for g in mg.enumerate_trivalent(k, pol):
                for d in (4, 5, 6, 7):
                    yield sg.plan(g, d)


def _document(p):
    """A plan's JSON document with its report, as `trihom plan` writes it."""
    doc = p.to_json()
    doc["report"] = sg.y_link_report(p)
    return doc


# sha256 over the small plans in order: each one's document (sort_keys)
# followed by its text rendering.
PLAN_SHA256 = "31f2a3ddebc0c18053593189ecb7a457d45754ca69d2100c8cbb7e6423ae2f70"


def test_plan_bytes_pinned():
    digest = hashlib.sha256()
    count = 0
    for p in _small_plans():
        digest.update(json.dumps(_document(p), sort_keys=True).encode())
        digest.update(sg.render_plan_text(p).encode())
        count += 1
    assert count == 132
    assert digest.hexdigest() == PLAN_SHA256


def test_plan_json_roundtrip():
    for p in _small_plans():
        for doc in (p.to_json(), _document(p)):
            assert sg.SurgeryPlan.from_json(json.loads(json.dumps(doc))) == p


# Changes that make a plan document contradict its own graph or break its
# format, each applied to theta's d=4 document with or without its report:
# path -> new value.
_TAMPERINGS = {
    # two Type I vertices, every big end at vertex 0, and a wrong dimension
    "forged-typing": (False, {
        ("family_dim",): 99,
        ("vertex_types",): ["I", "I"],
        ("edge_polarity",): [0, 1, 2],
    }),
    "hopf-ledger": (False, {("hopf_ledger", "chained"): 8}),
    "b-gamma": (True, {("b_gamma", 0): "S^5"}),
    "report": (True, {("report", "family_dim"): 2}),
    "report-note": (True, {("report", "notes", 0): "a note"}),
    "admissible-as-int": (False, {("admissible",): 1}),
    "pairing-order": (False, {("graph", "pairing"): [[2, 5], [1, 4], [0, 3]]}),
    "pairing-repeated-dart": (False, {("graph", "pairing"): [[0, 3], [0, 4], [2, 5]]}),
    "d-too-small": (False, {("d",): 3}),
    # the document a plan in d=4.0 would write: d and each figure made from it
    "d-a-float": (False, {
        ("d",): 4.0,
        ("handlebody_summaries",): [[1, 2.0, 2.0], [1, 1, 2.0]],
        ("framed_link_dims",): [
            {"K": [1, 2.0, 2.0], "L": [2.0, 1, 1]},
            {"K": [1, 1, 2.0], "L": [2.0, 2.0, 1]},
        ],
        ("b_gamma", 0): "S^1.0",
        ("family_dim",): 1.0,
        ("hopf_family_dims", 1): 2.0,
    }),
    "graph-null": (False, {("graph",): None}),
    "k-not-an-int": (False, {("graph", "k"): "1"}),
    # the pairs are counted before any dart array is built
    "k-huge": (False, {("graph",): {"k": 10**12, "pairing": []}}),
}


def _tampered(theta):
    p = sg.plan(theta, 4)
    out = {}
    for name, (with_report, changes) in _TAMPERINGS.items():
        doc = _document(p) if with_report else p.to_json()
        for path, value in changes.items():
            target = doc
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = value
        out[name] = doc
    return out


@pytest.mark.parametrize("name", list(_TAMPERINGS))
def test_from_json_rejects_tampered_documents(theta, name):
    with pytest.raises(ValueError):
        sg.SurgeryPlan.from_json(_tampered(theta)[name])


_FROM_JSON = """
import json, sys
from trihom.surgery import SurgeryPlan
for doc in json.load(sys.stdin):
    try:
        SurgeryPlan.from_json(doc)
    except ValueError:
        print("rejected")
    else:
        print("accepted")
"""


def test_from_json_rejects_under_optimize(theta):
    """The check is no assertion: `python -O` rejects the same documents."""
    docs = list(_tampered(theta).values())
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _FROM_JSON],
        input=json.dumps(docs),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["rejected"] * len(docs)


@pytest.mark.parametrize("d", [4, 5, 6, 7])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_numerology_sweep_small(k, d):
    for pol in (mg.TadpolePolicy.EXCLUDE, mg.TadpolePolicy.INCLUDE):
        for g in mg.enumerate_trivalent(k, pol):
            p = sg.plan(g, d)
            assert p.family_dim == k * (d - 3)
            assert (p.hopf_base, p.hopf_chained) == (6 * k, 6 * k + 1)
            assert p.w_copies == 6 * k
            if d % 2 == 0:
                assert sum(t is sg.VertexType.TYPE_I for t in p.vertex_types) == k
                assert sum(t is sg.VertexType.TYPE_II for t in p.vertex_types) == k
                assert p.final_handles == (1, 2)
                assert p.hopf_family_dims == (1, d - 2)
            else:
                m = (d - 1) // 2
                assert p.final_handles == (m, m + 1)
                assert p.hopf_family_dims == (m, m)
            assert p.admissible


def test_no_infeasible_typings_k_le_3():
    """Every graph with k <= 5, loops included, gets a typing with one or
    two big ends at each vertex (a loop deposits one at its vertex)."""
    for k in range(1, 6):
        for g in mg.enumerate_trivalent(k, mg.TadpolePolicy.INCLUDE):
            polarity, types = sg.assign_vertex_types(g)
            big = [0] * g.num_vertices
            for dart in polarity:
                big[dart // 3] += 1
            assert all(n in (1, 2) for n in big)
            assert [t.value for t in types] == ["I" if n == 1 else "II" for n in big]


def test_disconnected_typing():
    """A theta beside a dumbbell is typed component by component: each
    component gets its own least typing, and each has one vertex of each
    kind, so the union has k of each.  Its plans round-trip too."""
    union = mg.DartGraph(4, [3, 4, 5, 0, 1, 2, 7, 6, 11, 10, 9, 8], False)
    polarity, types = sg.assign_vertex_types(union)
    theta = mg.DartGraph(2, [3, 4, 5, 0, 1, 2], True)
    dumbbell = mg.DartGraph(2, [1, 0, 5, 4, 3, 2], True)
    theta_pol, theta_types = sg.assign_vertex_types(theta)
    bell_pol, bell_types = sg.assign_vertex_types(dumbbell)
    assert polarity == theta_pol + tuple(d + 6 for d in bell_pol)
    assert types == theta_types + bell_types
    assert sum(t is sg.VertexType.TYPE_I for t in types) == 2
    for d in (4, 5):
        p = sg.plan(union, d)
        assert sg.SurgeryPlan.from_json(_document(p)) == p

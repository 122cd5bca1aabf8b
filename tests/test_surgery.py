import json

import pytest

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


def test_plan_json_roundtrip(theta, dumbbell, k4):
    for g in (theta, dumbbell, k4):
        for d in (4, 5, 6, 7):
            p = sg.plan(g, d)
            assert sg.SurgeryPlan.from_json(json.loads(json.dumps(p.to_json()))) == p


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
    kind, so the union has k of each."""
    union = mg.DartGraph(4, [3, 4, 5, 0, 1, 2, 7, 6, 11, 10, 9, 8], False)
    polarity, types = sg.assign_vertex_types(union)
    theta = mg.DartGraph(2, [3, 4, 5, 0, 1, 2], True)
    dumbbell = mg.DartGraph(2, [1, 0, 5, 4, 3, 2], True)
    theta_pol, theta_types = sg.assign_vertex_types(theta)
    bell_pol, bell_types = sg.assign_vertex_types(dumbbell)
    assert polarity == theta_pol + tuple(d + 6 for d in bell_pol)
    assert types == theta_types + bell_types
    assert sum(t is sg.VertexType.TYPE_I for t in types) == 2

"""Surgery plans for a trivalent graph in ambient dimension d >= 4.

A plan assigns each vertex its Y-piece species, splits each edge's Hopf
pair of spheres S^(d-2) and S^1 between its two ends (for even d), and
tabulates the family parameter space, the Hopf-link and handle ledgers,
and the Morse-admissibility verdict.  Everything here is symbolic
bookkeeping; no embeddings or framings are represented.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import DimensionTooSmall
from .multigraph import DartGraph


class VertexType(Enum):
    TYPE_I = "I"       # one big-sphere end: handles 1, 1, d-2
    TYPE_II = "II"     # two big-sphere ends: handles 1, d-2, d-2
    UNIFORM = "uniform"  # odd d: three middle-dimensional handles


@dataclass(frozen=True)
class SurgeryPlan:
    d: int
    k: int
    graph_pairing: tuple[tuple[int, int], ...]
    vertex_types: tuple[VertexType, ...]
    edge_polarity: tuple[int, ...]  # dart receiving the big / first Hopf member
    handlebody_summaries: tuple[tuple[int, ...], ...]
    framed_link_dims: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    b_gamma: tuple[str, ...]
    family_dim: int
    hopf_base: int
    hopf_chained: int
    w_copies: int
    hopf_family_dims: tuple[int, int]
    final_handles: tuple[int, int]
    admissible: bool
    nonstandard_loops: bool

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "k": self.k,
            "graph": {
                "k": self.k,
                "pairing": [list(e) for e in self.graph_pairing],
            },
            "vertex_types": [t.value for t in self.vertex_types],
            "edge_polarity": list(self.edge_polarity),
            "handlebody_summaries": [list(h) for h in self.handlebody_summaries],
            "framed_link_dims": [
                {"K": list(k_), "L": list(l_)} for k_, l_ in self.framed_link_dims
            ],
            "b_gamma": list(self.b_gamma),
            "family_dim": self.family_dim,
            "hopf_ledger": {
                "base": self.hopf_base,
                "chained": self.hopf_chained,
                "w_copies": self.w_copies,
            },
            "hopf_family_dims": list(self.hopf_family_dims),
            "final_handles": list(self.final_handles),
            "admissible": self.admissible,
            "nonstandard": self.nonstandard_loops,
        }

    @staticmethod
    def from_json(data: dict) -> "SurgeryPlan":
        return SurgeryPlan(
            d=data["d"],
            k=data["k"],
            graph_pairing=tuple(tuple(e) for e in data["graph"]["pairing"]),
            vertex_types=tuple(VertexType(t) for t in data["vertex_types"]),
            edge_polarity=tuple(data["edge_polarity"]),
            handlebody_summaries=tuple(
                tuple(h) for h in data["handlebody_summaries"]
            ),
            framed_link_dims=tuple(
                (tuple(x["K"]), tuple(x["L"])) for x in data["framed_link_dims"]
            ),
            b_gamma=tuple(data["b_gamma"]),
            family_dim=data["family_dim"],
            hopf_base=data["hopf_ledger"]["base"],
            hopf_chained=data["hopf_ledger"]["chained"],
            w_copies=data["hopf_ledger"]["w_copies"],
            hopf_family_dims=tuple(data["hopf_family_dims"]),
            final_handles=tuple(data["final_handles"]),
            admissible=data["admissible"],
            nonstandard_loops=data["nonstandard"],
        )


def assign_vertex_types(
    g: DartGraph,
) -> tuple[tuple[int, ...], tuple[VertexType, ...]]:
    """Choose, per edge, which end receives the big-sphere member so that
    every vertex sees one or two big ends; exactly k vertices of each kind.

    Exhaustive backtracking over edge polarities, smaller dart tried first,
    so the returned assignment is the lexicographically least feasible one.
    One always exists, loops and disconnected graphs included: by the
    orientation theorem (Hakimi 1965; Frank & Gyárfás 1976) it needs, for
    every vertex set X, at most 2|X| edges inside X and at least |X|
    touching it, and trivalence gives at most and at least 3|X|/2.
    """
    nv = g.num_vertices
    counts = [0] * nv
    loop_edges = []
    free_edges = []
    for i, (a, b) in enumerate(g.edges):
        if a // 3 == b // 3:
            loop_edges.append(i)
            counts[a // 3] += 1  # a loop deposits exactly one big end
        else:
            free_edges.append(i)
    remaining = [0] * nv  # undecided big-end opportunities per vertex
    for i in free_edges:
        a, b = g.edges[i]
        remaining[a // 3] += 1
        remaining[b // 3] += 1

    polarity = [-1] * g.num_edges
    for i in loop_edges:
        polarity[i] = g.edges[i][0]

    def feasible(v: int) -> bool:
        return counts[v] <= 2 and counts[v] + remaining[v] >= 1

    def rec(pos: int) -> bool:
        if pos == len(free_edges):
            return all(1 <= counts[v] <= 2 for v in range(nv))
        i = free_edges[pos]
        a, b = g.edges[i]
        va, vb = a // 3, b // 3
        remaining[va] -= 1
        remaining[vb] -= 1
        for dart, v in ((a, va), (b, vb)):
            counts[v] += 1
            polarity[i] = dart
            if feasible(va) and feasible(vb) and rec(pos + 1):
                remaining[va] += 1
                remaining[vb] += 1
                return True
            counts[v] -= 1
            polarity[i] = -1
        remaining[va] += 1
        remaining[vb] += 1
        return False

    found = rec(0)
    assert found, "every trivalent multigraph has a Type I/II typing"
    types = tuple(
        VertexType.TYPE_I if counts[v] == 1 else VertexType.TYPE_II
        for v in range(nv)
    )
    return tuple(polarity), types


def plan(g: DartGraph, d: int) -> SurgeryPlan:
    """Full surgery plan for an embedded copy of g in ambient dimension d."""
    if d < 4:
        raise DimensionTooSmall(f"construction requires d >= 4, got d={d}")
    k = g.k
    even = d % 2 == 0
    if even:
        polarity, types = assign_vertex_types(g)
        handle_sets = {
            VertexType.TYPE_I: (1, 1, d - 2),
            VertexType.TYPE_II: (1, d - 2, d - 2),
        }
        summaries = tuple(handle_sets[t] for t in types)
        framed = tuple(
            ((1, 1, d - 2), (d - 2, d - 2, 1))
            if t is VertexType.TYPE_I
            else ((1, d - 2, d - 2), (d - 2, 1, 1))
            for t in types
        )
        b_gamma = tuple(
            "S^0" if t is VertexType.TYPE_I else f"S^{d - 3}" for t in types
        )
        family_dim = sum(0 if t is VertexType.TYPE_I else d - 3 for t in types)
        hopf_family = (1, d - 2)
        final = (1, 2)
    else:
        m = (d - 1) // 2
        types = tuple(VertexType.UNIFORM for _ in range(g.num_vertices))
        polarity = tuple(e[0] for e in g.edges)  # members same-dimensional
        summaries = tuple((m, m, m) for _ in types)
        framed = tuple(((m, m, m), (m, m, m)) for _ in types)
        b_gamma = tuple(f"S^{(d - 3) // 2}" for _ in types)
        family_dim = g.num_vertices * (d - 3) // 2
        hopf_family = (m, m)
        final = (m, m + 1)
    return SurgeryPlan(
        d=d,
        k=k,
        graph_pairing=g.edges,
        vertex_types=types,
        edge_polarity=polarity,
        handlebody_summaries=summaries,
        framed_link_dims=framed,
        b_gamma=b_gamma,
        family_dim=family_dim,
        hopf_base=6 * k,
        hopf_chained=6 * k + 1,
        w_copies=6 * k,
        hopf_family_dims=hopf_family,
        final_handles=final,
        admissible=final[1] <= d - 2,
        nonstandard_loops=g.has_loop,
    )


_NOTES = (
    "each edge carries a Hopf pair of spheres, one at each end; a loop "
    "deposits both members at its single vertex",
    "one edge's Hopf pair is traded for a four-component chain; its middle "
    "pair survives as the final surgery link, hence the +1 in the ledger",
    "every member of the final link family stays isotopic to the standard "
    "Hopf link; the higher-dimensional member is a constant family",
    "admissibility: every fiberwise critical index stays <= d-2",
)


def y_link_report(p: SurgeryPlan) -> dict:
    """Per-vertex and per-edge breakdown of a plan, JSON round-trippable."""
    vertices = []
    for v, t in enumerate(p.vertex_types):
        kdims, ldims = p.framed_link_dims[v]
        vertices.append(
            {
                "vertex": v,
                "type": t.value,
                "handles": list(p.handlebody_summaries[v]),
                "link_K_dims": list(kdims),
                "link_L_dims": list(ldims),
                "family_factor": p.b_gamma[v],
            }
        )
    big = p.d - 2 if p.d % 2 == 0 else (p.d - 1) // 2
    small = 1 if p.d % 2 == 0 else (p.d - 1) // 2
    edges = []
    for i, (a, b) in enumerate(p.graph_pairing):
        pol = p.edge_polarity[i]
        edges.append(
            {
                "edge": i,
                "darts": [a, b],
                "big_member_dim": big,
                "small_member_dim": small,
                "big_member_at_dart": pol,
                "loop": a // 3 == b // 3,
            }
        )
    return {
        "d": p.d,
        "k": p.k,
        "vertices": vertices,
        "edges": edges,
        "hopf_ledger": {
            "base": p.hopf_base,
            "chained": p.hopf_chained,
            "w_copies": p.w_copies,
        },
        "family_dim": p.family_dim,
        "final_handles": list(p.final_handles),
        "admissible": p.admissible,
        "notes": list(_NOTES),
    }


def render_plan_text(p: SurgeryPlan) -> str:
    rep = y_link_report(p)
    lines = [
        f"surgery plan: 2k={2 * p.k} vertices, ambient dimension d={p.d}",
        f"family parameter space: {' x '.join(p.b_gamma)}  (dim {p.family_dim})",
        f"hopf links: {p.hopf_base} base, {p.hopf_chained} after chain move, "
        f"{p.w_copies} trivial summands",
        f"final handle pair indices: {p.final_handles[0]}, {p.final_handles[1]}",
        f"hopf family sphere dims: S^{p.hopf_family_dims[0]} (moving), "
        f"S^{p.hopf_family_dims[1]} (constant)",
        f"admissible (max index <= d-2): {'yes' if p.admissible else 'NO'}",
    ]
    for v in rep["vertices"]:
        lines.append(
            f"  vertex {v['vertex']}: type {v['type']}, handles {v['handles']}, "
            f"K dims {v['link_K_dims']}, L dims {v['link_L_dims']}"
        )
    for e in rep["edges"]:
        tag = " (loop)" if e["loop"] else ""
        lines.append(
            f"  edge {e['edge']} darts {e['darts']}: S^{e['big_member_dim']} at "
            f"dart {e['big_member_at_dart']}{tag}"
        )
    return "\n".join(lines) + "\n"

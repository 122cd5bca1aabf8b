"""Surgery plans for a trivalent graph in ambient dimension d >= 4.

A plan is a typing: each vertex's Y-piece species and, per edge, the end
that takes the big member of its Hopf pair (S^(d-2) and S^1, for even d).
The family parameter space, the Hopf-link and handle ledgers and the
Morse-admissibility verdict are derived from it.  Everything here is
symbolic bookkeeping; no embeddings or framings are represented.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

from .errors import DimensionTooSmall, TrihomError
from .multigraph import DartGraph, from_pairing


class VertexType(Enum):
    TYPE_I = "I"       # one big-sphere end
    TYPE_II = "II"     # two big-sphere ends
    UNIFORM = "uniform"  # odd d: a Hopf pair's members are same-dimensional


def _hopf_pair(d: int) -> tuple[int, int]:
    """Dimensions (small, big) of an edge's Hopf pair in S^d; they sum to d - 1."""
    small = 1 if d % 2 == 0 else (d - 1) // 2
    return small, d - 1 - small


_Triple = tuple[int, int, int]


def _vertex_figures(t: VertexType, d: int) -> tuple[_Triple, _Triple, int]:
    """A Y-piece's handle indices, which are the dimensions of the Hopf
    members at its three ends and also the K dimensions of its six-component
    link; the L dimensions; and the dimension of its family-factor sphere."""
    s, b = _hopf_pair(d)
    if t is VertexType.TYPE_I:
        return (s, s, b), (b, b, s), 0
    if t is VertexType.TYPE_II:
        return (s, b, b), (b, s, s), d - 3
    return (s, s, s), (s, s, s), (d - 3) // 2


@dataclass(frozen=True)
class SurgeryPlan:
    """A graph's typing in ambient dimension d; every other figure of the
    plan is derived from it."""

    d: int
    graph_pairing: tuple[tuple[int, int], ...]
    vertex_types: tuple[VertexType, ...]
    edge_polarity: tuple[int, ...]  # dart receiving the big / first Hopf member

    @property
    def k(self) -> int:
        return len(self.graph_pairing) // 3

    @property
    def handlebody_summaries(self) -> tuple[_Triple, ...]:
        return tuple(_vertex_figures(t, self.d)[0] for t in self.vertex_types)

    @property
    def framed_link_dims(self) -> tuple[tuple[_Triple, _Triple], ...]:
        return tuple(_vertex_figures(t, self.d)[:2] for t in self.vertex_types)

    @property
    def b_gamma(self) -> tuple[str, ...]:
        return tuple(f"S^{_vertex_figures(t, self.d)[2]}" for t in self.vertex_types)

    @property
    def family_dim(self) -> int:
        return sum(_vertex_figures(t, self.d)[2] for t in self.vertex_types)

    @property
    def hopf_base(self) -> int:
        return 6 * self.k

    @property
    def hopf_chained(self) -> int:
        return 6 * self.k + 1

    @property
    def w_copies(self) -> int:
        return 6 * self.k

    @property
    def hopf_family_dims(self) -> tuple[int, int]:
        return _hopf_pair(self.d)

    @property
    def final_handles(self) -> tuple[int, int]:
        small, _ = self.hopf_family_dims
        return small, small + 1

    @property
    def admissible(self) -> bool:
        return self.final_handles[1] <= self.d - 2

    @property
    def nonstandard_loops(self) -> bool:
        return any(a // 3 == b // 3 for a, b in self.graph_pairing)

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "k": self.k,
            "graph": {"k": self.k, "pairing": [list(e) for e in self.graph_pairing]},
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
        """The plan of the document's graph in its dimension d, when the
        document is exactly that plan's `to_json()`, with its
        `y_link_report` under "report" if it has that key.  Any other
        document raises `ValueError`."""
        try:
            graph = data["graph"]
            g = from_pairing(2 * graph["k"], graph["pairing"], allow_disconnected=True)
            p = plan(g, data["d"])
            given = json.dumps(data, sort_keys=True)
        except (KeyError, TypeError, TrihomError) as exc:
            raise ValueError(f"not a surgery plan document: {exc!r}") from None
        doc = p.to_json()
        if "report" in data:
            doc["report"] = y_link_report(p)
        if json.dumps(doc, sort_keys=True) != given:
            raise ValueError("document is not the plan of its graph in dimension d")
        return p


def assign_vertex_types(
    g: DartGraph,
) -> tuple[tuple[int, ...], tuple[VertexType, ...]]:
    """Choose, per edge, which end receives the big-sphere member so that
    every vertex sees one or two big ends; exactly k vertices of each kind.

    Exhaustive backtracking over edge polarities in one loop, smaller dart
    tried first, so the returned assignment is the lexicographically least
    feasible one.  A choice stands while each end has at most two big ends,
    and one already or a non-loop edge still to decide; so a finished loop
    has a typing.  One always exists, loops and disconnected graphs
    included: by the orientation theorem (Hakimi 1965; Frank & Gyárfás
    1976) it needs, for every vertex set X, at most 2|X| edges inside X and
    at least |X| touching it, and trivalence gives at most and at least
    3|X|/2.
    """
    counts = [0] * g.num_vertices
    last = [-1] * g.num_vertices  # the position of each vertex's last non-loop edge
    polarity = [a for a, _ in g.edges]  # a loop deposits exactly one big end
    free, ends = [], []  # each non-loop edge's index, and its ends' vertices
    for i, (a, b) in enumerate(g.edges):
        va, vb = a // 3, b // 3
        if va == vb:
            counts[va] += 1
        else:
            last[va] = last[vb] = len(free)
            free.append(i)
            ends.append((va, vb))
    taken: list[int] = []  # per decided edge, the end given its big member
    side = 0  # the end to try next at edge len(taken); 2 when none is left
    while (pos := len(taken)) < len(free):
        va, vb = ends[pos]
        if side < 2:
            counts[(va, vb)[side]] += 1
            if (counts[va] <= 2 and (counts[va] or last[va] > pos)
                    and counts[vb] <= 2 and (counts[vb] or last[vb] > pos)):
                taken.append(side)
                side = 0
            else:
                counts[(va, vb)[side]] -= 1
                side += 1
            continue
        if not taken:  # not reached: see the orientation theorem above
            raise AssertionError("every trivalent multigraph has a Type I/II typing")
        side = taken.pop()  # back to the edge before, and its next end
        counts[ends[pos - 1][side]] -= 1
        side += 1
    for i, side in zip(free, taken):
        polarity[i] = g.edges[i][side]
    types = tuple(VertexType.TYPE_I if n == 1 else VertexType.TYPE_II for n in counts)
    return tuple(polarity), types


def plan(g: DartGraph, d: int) -> SurgeryPlan:
    """Full surgery plan for an embedded copy of g in ambient dimension d.
    For odd d a Hopf pair's members are same-dimensional, so every vertex
    is uniform and each edge's first dart takes the first member.  A d
    that is no int raises `TypeError`."""
    if type(d) is not int:
        raise TypeError(f"d must be an int, got {d!r}")
    if d < 4:
        raise DimensionTooSmall(f"construction requires d >= 4, got d={d}")
    if d % 2 == 0:
        polarity, types = assign_vertex_types(g)
    else:
        polarity = tuple(a for a, _ in g.edges)
        types = (VertexType.UNIFORM,) * g.num_vertices
    return SurgeryPlan(d, g.edges, types, polarity)


_NOTES = (
    "each edge carries a Hopf pair of spheres, one at each end; a loop "
    "deposits both members at its single vertex",
    "one edge's Hopf pair is traded for a four-component chain; its middle "
    "pair survives as the final surgery link, hence the +1 in the ledger",
    "every member of the final link family stays isotopic to the standard "
    "Hopf link; the higher-dimensional member is a constant family",
    "admissibility: every fiberwise critical index stays <= d-2",
)


# the plan's own figures that a report repeats, as `to_json` writes them
_SUMMARY = ("hopf_ledger", "family_dim", "final_handles", "admissible")


def y_link_report(p: SurgeryPlan) -> dict:
    """Per-vertex and per-edge breakdown of a plan, JSON round-trippable."""
    vertices = [
        {
            "vertex": v,
            "type": t.value,
            "handles": list(h),
            "link_K_dims": list(kdims),
            "link_L_dims": list(ldims),
            "family_factor": f,
        }
        for v, (t, h, (kdims, ldims), f) in enumerate(
            zip(p.vertex_types, p.handlebody_summaries, p.framed_link_dims, p.b_gamma)
        )
    ]
    small, big = p.hopf_family_dims
    edges = [
        {
            "edge": i,
            "darts": [a, b],
            "big_member_dim": big,
            "small_member_dim": small,
            "big_member_at_dart": pol,
            "loop": a // 3 == b // 3,
        }
        for i, ((a, b), pol) in enumerate(zip(p.graph_pairing, p.edge_polarity))
    ]
    doc = p.to_json()
    return {
        "d": doc["d"],
        "k": doc["k"],
        "vertices": vertices,
        "edges": edges,
        **{key: doc[key] for key in _SUMMARY},
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

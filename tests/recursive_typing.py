"""A recursive vertex typing, kept as the reference that
`trihom.surgery.assign_vertex_types`'s loop-driven backtracking is compared
against: the same choices, smaller dart first, made by one closure frame
per edge, so both return the lexicographically least feasible typing.
"""

from __future__ import annotations

from trihom.multigraph import DartGraph
from trihom.surgery import VertexType


def assign_vertex_types(
    g: DartGraph,
) -> tuple[tuple[int, ...], tuple[VertexType, ...]]:
    """Per edge, the dart that receives the big-sphere member, and each
    vertex's type: Type I with one big end, Type II with two."""
    nv = g.num_vertices
    counts = [0] * nv
    remaining = [0] * nv  # undecided big-end opportunities per vertex
    polarity = [-1] * g.num_edges
    free_edges = []
    for i, (a, b) in enumerate(g.edges):
        if a // 3 == b // 3:
            counts[a // 3] += 1  # a loop deposits exactly one big end
            polarity[i] = a
        else:
            free_edges.append(i)
            remaining[a // 3] += 1
            remaining[b // 3] += 1

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
                return True  # the search stops: `remaining` is not read again
            counts[v] -= 1
            polarity[i] = -1
        remaining[va] += 1
        remaining[vb] += 1
        return False

    if not rec(0):
        raise AssertionError("every trivalent multigraph has a Type I/II typing")
    types = tuple(VertexType.TYPE_I if n == 1 else VertexType.TYPE_II for n in counts)
    return tuple(polarity), types

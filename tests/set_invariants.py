"""The vertex invariants as `trihom.multigraph.vertex_invariants` computed
them with sets, before its neighbourhoods became bit masks, kept as the
reference the bit-mask version is compared against.
"""

from __future__ import annotations

from typing import Sequence


def vertex_invariants(partner: Sequence[int]) -> list[tuple[int, int, int, int]]:
    """Per vertex of the complete pairing `partner`: whether it has a loop,
    its number of distinct neighbours, the pairs of distinct neighbours
    that are adjacent, and the size of its radius-2 ball."""
    nv = len(partner) // 3
    nbrs = [
        {partner[3 * v] // 3, partner[3 * v + 1] // 3, partner[3 * v + 2] // 3}
        for v in range(nv)
    ]
    out = []
    for v, ns in enumerate(nbrs):
        ball = set(ns)
        ball.add(v)
        others = [w for w in ns if w != v]
        triangles = 0
        for i, w in enumerate(others):
            ball |= nbrs[w]
            for x in others[i + 1 :]:
                if x in nbrs[w]:
                    triangles += 1
        out.append((int(v in ns), len(others), triangles, len(ball)))
    return out

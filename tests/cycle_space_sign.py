"""The odd sign by linear algebra, as `trihom.orientation` computed it
before the closed form: the determinant of an automorphism's action on a
basis of fundamental cycles, times the parity of its edge permutation.  It
is kept as the reference the closed-form sign rule is compared against.
"""

from __future__ import annotations

from typing import Sequence

from trihom.multigraph import DartGraph
from trihom.orientation import Convention


def _spanning_tree(g: DartGraph) -> tuple[set[int], list[tuple[int, int, int] | None]]:
    """BFS tree from vertex 0.  parent[v] = (parent vertex, edge idx, step sign)
    where the step sign is +1 when walking parent->v follows the edge's
    reference min->max dart direction."""
    parent: list[tuple[int, int, int] | None] = [None] * g.num_vertices
    tree: set[int] = set()
    seen = [False] * g.num_vertices
    seen[0] = True
    queue = [0]
    while queue:
        u = queue.pop(0)
        for d in g.darts_of(u):
            w = g.partner[d] // 3
            if not seen[w]:
                seen[w] = True
                e = g.edge_of_dart(d)
                a, _ = g.edges[e]
                sign = 1 if d == a else -1  # reference direction is (min, max)
                parent[w] = (u, e, sign)
                tree.add(e)
                queue.append(w)
    return tree, parent


def cycle_basis(
    g: DartGraph, directions: Sequence[tuple[int, int]]
) -> tuple[list[int], list[dict[int, int]]]:
    """Fundamental cycles of the non-tree edges, as edge-indexed vectors
    expressed against the given directions."""
    tree, parent = _spanning_tree(g)

    def walk_to_root(v: int) -> dict[int, int]:
        vec: dict[int, int] = {}
        while parent[v] is not None:
            u, e, step = parent[v]
            # walking v -> u is against the stored parent->v step
            ref_sign = step
            t, _ = directions[e]
            # step sign was measured against min->max; adjust if the chosen
            # direction for e is the other way
            a, _b = g.edges[e]
            chosen = 1 if t == a else -1
            vec[e] = vec.get(e, 0) - ref_sign * chosen
            v = u
        return vec

    non_tree = [i for i in range(g.num_edges) if i not in tree]
    cycles = []
    for f in non_tree:
        t, h = directions[f]
        vec = {f: 1}
        up_h = walk_to_root(h // 3)
        up_t = walk_to_root(t // 3)
        for e, c in up_h.items():
            vec[e] = vec.get(e, 0) + c
        for e, c in up_t.items():
            vec[e] = vec.get(e, 0) - c
        cycles.append({e: c for e, c in vec.items() if c != 0})
    return non_tree, cycles


def int_det(m: list[list[int]]) -> int:
    """Exact Bareiss determinant of a small integer matrix."""
    n = len(m)
    if n == 0:
        return 1
    m = [row[:] for row in m]
    sign = 1
    prev = 1
    for i in range(n - 1):
        piv = next((r for r in range(i, n) if m[r][i] != 0), None)
        if piv is None:
            return 0
        if piv != i:
            m[i], m[piv] = m[piv], m[i]
            sign = -sign
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                m[r][c] = (m[r][c] * m[i][i] - m[r][i] * m[i][c]) // prev
            m[r][i] = 0
        prev = m[i][i]
    return sign * m[n - 1][n - 1]


def h1_action_sign(
    g: DartGraph, directions: Sequence[tuple[int, int]], dp: Sequence[int]
) -> int:
    """Determinant sign of the action of an automorphism, given as its dart
    map `dp`, on the cycle space."""
    non_tree, cycles = cycle_basis(g, directions)
    col_of = {f: j for j, f in enumerate(non_tree)}
    mat = []
    for vec in cycles:
        image = [0] * len(non_tree)
        for e, c in vec.items():
            t, h = directions[e]
            it, ih = dp[t], dp[h]
            j = g.edge_of_dart(it)
            eps = 1 if (it, ih) == directions[j] else -1
            if j in col_of:
                image[col_of[j]] += c * eps
        mat.append(image)
    det = int_det(mat)
    if det not in (1, -1):
        raise AssertionError(f"cycle-space action has determinant {det}")
    return det


def reference_sign(
    convention: Convention,
    g: DartGraph,
    directions: Sequence[tuple[int, int]],
    dp: Sequence[int],
) -> int:
    """The sign of an automorphism, given as its dart map `dp`: the
    determinant of its permutation of the edges, times its cycle-space
    determinant in the odd convention."""
    n = g.num_edges
    edge_matrix = [[0] * n for _ in range(n)]
    for i, (a, _) in enumerate(g.edges):
        edge_matrix[i][g.edge_of_dart(dp[a])] = 1
    sign = int_det(edge_matrix)
    if convention is Convention.ODD:
        sign *= h1_action_sign(g, directions, dp)
    return sign

"""The relabelling sign as `trihom.orientation` computed it before it read
the sign off the dart map: the carried labelling's edge permutation,
vertex permutation and reversal count, and the rule on those, kept as the
reference the closed form is compared against.
"""

from __future__ import annotations

from typing import Sequence

from trihom.multigraph import DartGraph, perm_sign
from trihom.orientation import Convention, OrientedLabelling


def relabelling_sign(
    convention: Convention,
    edge_perm: Sequence[int],
    vertex_perm: Sequence[int],
    reversals: int,
) -> int:
    """Sign of a relabelling that permutes the edges by `edge_perm`, the
    vertices by `vertex_perm` and reverses `reversals` edge directions."""
    if convention is Convention.EVEN:
        return perm_sign(edge_perm)
    return (-1) ** reversals * perm_sign(vertex_perm)


def transport(
    source: DartGraph,
    labelling: OrientedLabelling,
    dart_map: Sequence[int],
    target: DartGraph,
    swap: tuple[int, int] | None = None,
) -> tuple[list[int], list[int], int]:
    """The edge permutation, vertex permutation and reversal count that
    carry (source, labelling) along the dart map of an isomorphism
    source -> target onto the reference labelling of target.  With a dart
    `swap`, source is first regrouped by it: its vertices keep their darts
    and read `dart_map`, and its edges, moved by the swap with their labels
    and directions, read `dart_map` after it."""
    nv = target.num_vertices
    sigma_v = [0] * nv
    for v in range(nv):
        sigma_v[dart_map[3 * v] // 3] = labelling.vertex_labels[v] - 1
    if swap is not None:
        x, y = swap
        dart_map = list(dart_map)
        dart_map[x], dart_map[y] = dart_map[y], dart_map[x]
    sigma_e = [0] * target.num_edges
    reversals = 0
    for i, (a, _) in enumerate(source.edges):
        j = target.edge_of_dart(dart_map[a])
        sigma_e[j] = labelling.edge_labels[i] - 1
        t, h = labelling.directions[i]
        if (dart_map[t], dart_map[h]) != target.edges[j]:
            reversals += 1
    return sigma_e, sigma_v, reversals


def transported_sign(
    convention: Convention,
    source: DartGraph,
    labelling: OrientedLabelling,
    dart_map: Sequence[int],
    target: DartGraph,
    swap: tuple[int, int] | None = None,
) -> int:
    """`trihom.orientation.transported_sign`, by way of the carried
    permutations and reversals."""
    return relabelling_sign(
        convention, *transport(source, labelling, dart_map, target, swap)
    )

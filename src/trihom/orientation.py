"""Sign conventions for labelled trivalent graphs.

A relabelling (an isomorphism, a change of labels, or both) moves one
orientation of a graph to another.  `transported_sign` reads the
permutations and reversals of one off its dart map and labelling, and
`relabelling_sign` is the rule that gives its sign:

- even convention: sgn(edge perm), the parity of the edge permutation;
- odd convention: (-1)^(reversed edges) * sgn(vertex perm).

The odd orientation is an edge order together with an orientation of the
cycle space H_1, so the odd sign of a relabelling is sgn(edge perm) times
the determinant sign of its action on H_1.  The exact sequence
0 -> H_1 -> R^E -> R^V -> H_0 -> 0 of a connected graph makes that
determinant det(R^E) * det(H_0) / det(R^V), where det(R^E) =
sgn(edge perm) * (-1)^(reversed edges), det(R^V) = sgn(vertex perm) and
det(H_0) = 1 (Conant & Vogtmann, "On a theorem of Kontsevich", AGT 2003).
The edge-order factor cancels, so the rule needs no cycle basis.  The test
suite keeps the determinant of the action on a cycle basis
(`tests/cycle_space_sign.py`) as the reference, and compares the rule with
it on every automorphism of every graph with k <= 4, both tadpole policies.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .multigraph import DartGraph


class Convention(Enum):
    EVEN = "even"
    ODD = "odd"


class ClassStatus(Enum):
    ZERO = "zero"
    GENERATOR = "generator"


@dataclass(frozen=True)
class OrientedLabelling:
    """Vertex labels, edge labels (1-based), and a direction per edge.

    vertex_labels[v] is the label of vertex v; edge_labels[i] the label of
    edge i (edges indexed as in DartGraph.edges); directions[i] an ordered
    (tail dart, head dart) pair for edge i.
    """

    vertex_labels: tuple[int, ...]
    edge_labels: tuple[int, ...]
    directions: tuple[tuple[int, int], ...]


def reference_labelling(g: DartGraph) -> OrientedLabelling:
    """Fixed reference: labels in index order, edges directed min dart -> max."""
    return OrientedLabelling(
        tuple(v + 1 for v in range(g.num_vertices)),
        tuple(i + 1 for i in range(g.num_edges)),
        tuple((a, b) for a, b in g.edges),
    )


def perm_sign(perm: Sequence[int]) -> int:
    """Parity of a permutation given as the image list of 0..n-1."""
    n = len(perm)
    seen = [False] * n
    sign = 1
    for i in range(n):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def relabelling_sign(
    convention: Convention,
    edge_perm: Sequence[int],
    vertex_perm: Sequence[int],
    reversals: int,
) -> int:
    """Sign of a relabelling that permutes the edges by `edge_perm`, the
    vertices by `vertex_perm` and reverses `reversals` edge directions: the
    convention's one sign rule."""
    if convention is Convention.EVEN:
        return perm_sign(edge_perm)
    return (-1) ** reversals * perm_sign(vertex_perm)


def _transport(
    source: DartGraph,
    labelling: OrientedLabelling,
    dart_map: Sequence[int],
    target: DartGraph,
    swap: tuple[int, int] | None = None,
) -> tuple[list[int], list[int], int]:
    """The edge permutation, vertex permutation and reversal count that
    carry (source, labelling) along the dart map of an isomorphism
    source -> target onto the reference labelling of target.  With a dart
    `swap` (`homology.ihx_expand`), source is first regrouped by it: its
    vertices keep their darts and read `dart_map`, and its edges, moved by
    the swap with their labels and directions, read `dart_map` after it."""
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
    """Sign relating (source, labelling), carried along the dart map of an
    isomorphism source -> target, to the reference labelling of target;
    with `swap`, of source's regrouping by that dart swap (see `_transport`).

    This is the sign of every relabelling: of an automorphism a of g it is
    transported_sign(convention, g, reference_labelling(g), a, g), and of a
    pure change of labels the identity map carries the new labels."""
    return relabelling_sign(
        convention, *_transport(source, labelling, dart_map, target, swap)
    )


@dataclass(frozen=True)
class GraphClass:
    """Canonical representative with its survival status under its basis's
    convention, oriented by `reference_labelling(rep)`; a zero class's
    witness is its first automorphism of sign -1, as a dart map."""

    rep: DartGraph
    status: ClassStatus
    witness: tuple[int, ...] | None
    class_id: int | None = None


def classify(
    rep: DartGraph, convention: Convention, autos: Iterable[Sequence[int]]
) -> GraphClass:
    """Zero with a -1 witness, or Generator, for a canonical representative
    and its automorphism group `autos` as dart maps in any order, as
    `enumerate_classes` yields it.  The witness is the first automorphism
    of sign -1 by dart map."""
    return classify_conventions(rep, autos)[convention]


def classify_conventions(
    rep: DartGraph, autos: Iterable[Sequence[int]]
) -> dict[Convention, GraphClass]:
    """`classify` under every convention in one pass over the group: it is
    sorted once, and each automorphism's permutations and reversals are
    read off once, up to the last convention's first -1 sign."""
    labelling = reference_labelling(rep)
    witnesses: dict[Convention, tuple[int, ...]] = {}
    for auto in sorted(autos):
        moved = _transport(rep, labelling, auto, rep)
        for c in Convention:
            if c not in witnesses and relabelling_sign(c, *moved) == -1:
                witnesses[c] = auto
        if len(witnesses) == len(Convention):
            break
    out = {}
    for c in Convention:
        w = witnesses.get(c)
        status = ClassStatus.GENERATOR if w is None else ClassStatus.ZERO
        out[c] = GraphClass(rep, status, w)
    return out

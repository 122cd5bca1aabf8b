"""Sign conventions for labelled trivalent graphs.

A relabelling (an isomorphism, a change of labels, or both) moves one
orientation of a graph to another, and `relabelling_sign` is the rule that
gives its sign:

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

from .multigraph import DartGraph, Isomorphism, canonize


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


def label_change_sign(
    convention: Convention,
    edge_label_perm: Sequence[int],
    vertex_label_perm: Sequence[int],
) -> int:
    """Sign of a pure label change: a relabelling that reverses no edge."""
    return relabelling_sign(convention, edge_label_perm, vertex_label_perm, 0)


def iso_signature(
    g: DartGraph,
    directions: Sequence[tuple[int, int]],
    iso: Isomorphism,
) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """(induced edge permutation, vertex permutation, #reversed edges) of an
    automorphism, reversals measured against the given directions."""
    dp = iso.dart_perm
    edge_perm = []
    reversals = 0
    for i, (t, h) in enumerate(directions):
        it, ih = dp[t], dp[h]
        j = g.edge_of_dart(it)
        edge_perm.append(j)
        if (it, ih) != directions[j]:
            reversals += 1
    return tuple(edge_perm), iso.vertex_perm, reversals


def total_sign(
    convention: Convention,
    g: DartGraph,
    directions: Sequence[tuple[int, int]] | None,
    iso: Isomorphism,
) -> int:
    """Sign of an automorphism of g, its reversals measured against
    `directions` (the reference directions when None)."""
    if directions is None:
        directions = reference_labelling(g).directions
    return relabelling_sign(convention, *iso_signature(g, directions, iso))


@dataclass(frozen=True)
class GraphClass:
    """Canonical representative with its survival status under a convention."""

    rep: DartGraph
    labelling: OrientedLabelling
    convention: Convention
    status: ClassStatus
    witness: Isomorphism | None
    class_id: int | None = None

    def with_id(self, class_id: int) -> "GraphClass":
        return GraphClass(
            self.rep, self.labelling, self.convention, self.status,
            self.witness, class_id,
        )


def classify(
    g: DartGraph,
    convention: Convention,
    autos: Iterable[Sequence[int]] | None = None,
) -> GraphClass:
    """Zero with a -1 witness, or Generator.  The witness is the first
    automorphism of sign -1 by dart map.  Canonicalizes its input, unless
    `autos` is given: then g is a canonical representative and `autos` its
    automorphism group as dart maps in any order, as `enumerate_classes`
    yields it."""
    if autos is None:
        canon, _, group = canonize(g)
    else:
        canon, group = g, map(Isomorphism.from_dart_map, sorted(autos))
    labelling = reference_labelling(canon)
    for auto in group:
        if total_sign(convention, canon, labelling.directions, auto) == -1:
            return GraphClass(canon, labelling, convention, ClassStatus.ZERO, auto)
    return GraphClass(canon, labelling, convention, ClassStatus.GENERATOR, None)

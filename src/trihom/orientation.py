"""Sign conventions for labelled trivalent graphs.

A relabelling (an isomorphism, a change of labels, or both) moves one
orientation of a graph to another, and `transported_sign` gives its sign:

- even convention: sgn(edge perm), the parity of the edge permutation;
- odd convention: (-1)^(reversed edges) * sgn(vertex perm).

The odd orientation is an edge order together with an orientation of the
cycle space H_1, so the odd sign of a relabelling is sgn(edge perm) times
the determinant sign of its action on H_1.  The exact sequence
0 -> H_1 -> R^E -> R^V -> H_0 -> 0 of a connected graph makes that
determinant det(R^E) * det(H_0) / det(R^V), where det(R^E) =
sgn(edge perm) * (-1)^(reversed edges), det(R^V) = sgn(vertex perm) and
det(H_0) = 1 (Conant & Vogtmann, "On a theorem of Kontsevich", AGT 2003).

Neither sign needs the carried labelling.  The even one is the parity of
the edge labels carried along the dart map m.  For the odd one, list the
darts of a labelling L vertex by vertex in label order (each vertex's in
index order), and edge by edge in label order (tail, head).  Moving blocks
of three darts has the sign of the block permutation and moving blocks of
two has none, so the first list has the sign sgn(vertex labels - 1), and
each reversed edge flips the second.  So, with s(L) the product of their
signs, the odd sign between labellings L and R of one graph is s(L) s(R).
Along m, the edge list of L maps onto that of the carried labelling, with
sign sgn(m) times its own, and so does the vertex list once each vertex's
darts are put back in index order, which is even exactly when m keeps
their cyclic order: turn_v(m) = +1 when (m[3v+1] - m[3v]) % 3 == 1, else
-1.  The two sgn(m) cancel: against the target's reference R_T it is

    s(L) * s(R_T) * prod_v turn_v(m);

a dart swap transposes two darts of the edge list, so it flips s(L).  The
tests keep the determinant on a cycle basis (`tests/cycle_space_sign.py`)
and the carried permutations (`tests/transport_sign.py`) as references.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Sequence

from .multigraph import DartGraph, perm_sign


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

    @cached_property
    def sign(self) -> int:
        """s(L) of the module docstring, worked out once per labelling."""
        edges = sorted(zip(self.edge_labels, self.directions))
        darts = [d for _, ends in edges for d in ends]
        return perm_sign([v - 1 for v in self.vertex_labels]) * perm_sign(darts)


def reference_labelling(g: DartGraph) -> OrientedLabelling:
    """Fixed reference: labels in index order, edges directed min dart -> max."""
    labelling = OrientedLabelling(
        tuple(range(1, g.num_vertices + 1)), tuple(range(1, g.num_edges + 1)), g.edges
    )
    object.__setattr__(labelling, "sign", g.edge_order_sign)  # s(R), kept by g
    return labelling


def transported_sign(
    convention: Convention,
    source: DartGraph,
    labelling: OrientedLabelling,
    dart_map: Sequence[int],
    target: DartGraph,
    swap: tuple[int, int] | None = None,
) -> int:
    """Sign relating (source, labelling), carried along the dart map of an
    isomorphism source -> target, to the reference labelling of target, by
    the module docstring's rule.  With a dart `swap` (`homology.ihx_expand`),
    source is first regrouped by it: its vertices keep their darts and read
    `dart_map`, and its edges, moved by the swap with their labels and
    directions, read `dart_map` after it.

    This is the sign of every relabelling: of an automorphism a of g it is
    transported_sign(convention, g, reference_labelling(g), a, g), and of a
    pure change of labels the identity map carries the new labels."""
    if convention is Convention.ODD:
        sign = labelling.sign * target.edge_order_sign * _turns(dart_map)
        return sign if swap is None else -sign
    if swap is not None:
        x, y = swap
        dart_map = list(dart_map)
        dart_map[x], dart_map[y] = dart_map[y], dart_map[x]
    return _edge_sign(source.edges, labelling.edge_labels, dart_map, target)


def _edge_sign(edges, labels, dart_map: Sequence[int], target: DartGraph) -> int:
    """The parity of the labels of `edges` carried along `dart_map`."""
    edge_of_dart = target.edge_of_dart
    carried = [0] * target.num_edges
    for (a, _), label in zip(edges, labels):
        carried[edge_of_dart(dart_map[a])] = label - 1
    return perm_sign(carried)


def _turns(dart_map: Sequence[int]) -> int:
    """prod_v turn_v(m) of the module docstring, for m = `dart_map`."""
    odd = sum((b - a) % 3 != 1 for a, b in zip(dart_map[::3], dart_map[1::3]))
    return -1 if odd & 1 else 1


@dataclass(frozen=True)
class GraphClass:
    """Canonical representative with its survival status under its basis's
    convention, oriented by `reference_labelling(rep)`; a zero class's
    witness is its first automorphism of sign -1, as a dart map."""

    rep: DartGraph
    status: ClassStatus
    witness: tuple[int, ...] | None
    class_id: int | None = None


def classify_conventions(
    rep: DartGraph, autos: Iterable[Sequence[int]]
) -> dict[Convention, GraphClass]:
    """Zero with a -1 witness, or Generator, under every convention, for a
    canonical representative and its automorphism group `autos` as dart
    maps in any order, as `enumerate_classes` yields it.  The group is
    sorted once, and each convention signs it up to its first -1 sign, the
    witness.  Under the reference labelling an automorphism's two factors s
    are equal, so its odd sign is read off its turns alone."""
    autos = sorted(autos)
    edges, labels = rep.edges, range(1, rep.num_edges + 1)
    witnesses = {
        Convention.EVEN: (a for a in autos if _edge_sign(edges, labels, a, rep) < 0),
        Convention.ODD: (a for a in autos if _turns(a) < 0),
    }
    out = {}
    for c, signed in witnesses.items():
        w = next(signed, None)
        status = ClassStatus.GENERATOR if w is None else ClassStatus.ZERO
        out[c] = GraphClass(rep, status, w)
    return out

"""Sign conventions for labelled trivalent graphs.

Two quotient conventions are supported: the even one, where the sign of a
relabelling is the parity of its edge-label permutation, and the odd one,
which additionally tracks an orientation of the cycle space H^1.  The odd
geometric sign of an automorphism is the determinant sign of its action on
the cycle space; the closed form

    sgn(edge perm) * (-1)^(reversed edges) * sgn(vertex perm)

is computed independently, and the two are asserted equal by the test
suite on every automorphism of every small graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

from .multigraph import DartGraph, Isomorphism, automorphism_group, canonize


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


def label_change_sign(
    convention: Convention,
    edge_label_perm: Sequence[int],
    vertex_label_perm: Sequence[int],
) -> int:
    """Sign of a pure label change; vertex labels never contribute."""
    del convention, vertex_label_perm  # same rule in both conventions
    return perm_sign(edge_label_perm)


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


def _int_det(m: list[list[int]]) -> int:
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


def _h1_action(
    g: DartGraph, directions: Sequence[tuple[int, int]]
) -> Callable[[Isomorphism], int]:
    """The determinant sign of an automorphism's action on the cycle space,
    as a function of the automorphism; the cycle basis is built once."""
    non_tree, cycles = cycle_basis(g, directions)
    col_of = {f: j for j, f in enumerate(non_tree)}

    def sign(iso: Isomorphism) -> int:
        dp = iso.dart_perm
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
        det = _int_det(mat)
        if det not in (1, -1):
            raise AssertionError(f"cycle-space action has determinant {det}")
        return det

    return sign


def h1_action_sign(
    g: DartGraph,
    directions: Sequence[tuple[int, int]] | None,
    iso: Isomorphism,
) -> int:
    """Determinant sign of the action of an automorphism on the cycle space."""
    if directions is None:
        directions = reference_labelling(g).directions
    return _h1_action(g, directions)(iso)


def closed_form_h1_sign(
    g: DartGraph,
    directions: Sequence[tuple[int, int]] | None,
    iso: Isomorphism,
) -> int:
    """sgn(edge perm) * (-1)^reversals * sgn(vertex perm), no linear algebra."""
    if directions is None:
        directions = reference_labelling(g).directions
    edge_perm, vertex_perm, reversals = iso_signature(g, directions, iso)
    return perm_sign(edge_perm) * (-1) ** reversals * perm_sign(vertex_perm)


def _automorphism_sign(
    convention: Convention, g: DartGraph, directions: Sequence[tuple[int, int]]
) -> Callable[[Isomorphism], int]:
    """The sign of an automorphism of g under `convention`, as a function of
    the automorphism; the odd convention's cycle basis is built once."""
    h1 = _h1_action(g, directions) if convention is Convention.ODD else None

    def sign(iso: Isomorphism) -> int:
        edge_perm, _, _ = iso_signature(g, directions, iso)
        if h1 is None:
            return perm_sign(edge_perm)
        return perm_sign(edge_perm) * h1(iso)

    return sign


def total_sign(
    convention: Convention,
    g: DartGraph,
    directions: Sequence[tuple[int, int]] | None,
    iso: Isomorphism,
    edge_label_perm: Sequence[int] | None = None,
    vertex_label_perm: Sequence[int] | None = None,
) -> int:
    """Sign of an automorphism composed with an optional label change."""
    if directions is None:
        directions = reference_labelling(g).directions
    extra = perm_sign(edge_label_perm) if edge_label_perm is not None else 1
    del vertex_label_perm  # never contributes
    return _automorphism_sign(convention, g, directions)(iso) * extra


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
    search_maps: Sequence[Sequence[int]] | None = None,
) -> GraphClass:
    """Zero with a -1 witness, or Generator.  Canonicalizes its input, unless
    `search_maps` is given: then g is a canonical representative and
    `search_maps` the maps of its complete search, as `enumerate_classes`
    yields them, which give its automorphism group without a new search."""
    if search_maps is None:
        canon, _, autos = canonize(g)
    else:
        canon, autos = g, automorphism_group(search_maps)
    labelling = reference_labelling(canon)
    sign = _automorphism_sign(convention, canon, labelling.directions)
    for auto in autos:
        if sign(auto) == -1:
            return GraphClass(canon, labelling, convention, ClassStatus.ZERO, auto)
    return GraphClass(canon, labelling, convention, ClassStatus.GENERATOR, None)

"""Dart-based connected trivalent multigraphs.

A graph on 2k vertices is stored as a fixed-point-free involution on the
6k darts, with darts 3v, 3v+1, 3v+2 belonging to vertex v.  This module
provides validation, isomorphism machinery, isomorph-free enumeration,
and `ClassTable`, the one lookup of a graph among known representatives,
which builds and walks the tries.  A relabelling, and so an isomorphism, is
its dart map: a tuple whose entry d is the new dart of old dart d, which
moves vertex v to dmap[3v] // 3.  Two functions walk the relabellings,
each down one branch of each loop or double-edge swap: `_prefix_ties`
(enumeration's tie-state test and, with a running bound, the canonical
code, witness and automorphism group in one pass) and `_trie_walk`
(lookup, which prunes by tries of codes).
"""

from __future__ import annotations

import random
from enum import Enum
from itertools import combinations, permutations
from typing import Iterable, Iterator, Sequence

from .errors import (
    MalformedPairing,
    NotConnected,
    NotTrivalent,
    ResourceLimit,
    UnknownClass,
    env_int,
)

DEFAULT_MAX_CLASSES = 1_000_000


class TadpolePolicy(Enum):
    """Whether self-loop edges are admitted in the generating set."""

    EXCLUDE = "exclude"
    INCLUDE = "include"


class DartGraph:
    """Immutable connected trivalent multigraph in dart form.

    `partner[d]` is the dart paired with dart `d`; each 2-cycle of the
    involution is one edge.  Edges are indexed by the sorted list of their
    dart pairs (min dart, max dart).  `has_loop` says whether any edge is a
    self-loop.
    """

    __slots__ = (
        "num_vertices", "partner", "connected", "has_loop", "_edges", "_edge_of_dart",
        "_canonical", "_edge_order_sign",
    )

    def __init__(self, num_vertices: int, partner: Sequence[int], connected: bool):
        self.num_vertices = num_vertices
        self.partner = tuple(partner)
        self.connected = connected
        # in increasing first dart, so sorted
        self._edges = tuple((d, p) for d, p in enumerate(self.partner) if d < p)
        eod = [-1] * len(self.partner)
        has_loop = False
        for i, (a, b) in enumerate(self._edges):
            eod[a] = eod[b] = i
            has_loop = has_loop or a // 3 == b // 3
        self._edge_of_dart = tuple(eod)
        self.has_loop = has_loop
        self._canonical = False  # set where `partner` is known to be a minimal code

    @property
    def k(self) -> int:
        return self.num_vertices // 2

    @property
    def num_darts(self) -> int:
        return 3 * self.num_vertices

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return self._edges

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def darts_of(self, vertex: int) -> tuple[int, int, int]:
        return (3 * vertex, 3 * vertex + 1, 3 * vertex + 2)

    def edge_of_dart(self, dart: int) -> int:
        return self._edge_of_dart[dart]

    @property
    def edge_order_sign(self) -> int:
        """The parity of the darts listed edge by edge, lesser dart first:
        s of `orientation.reference_labelling`, worked out on first use."""
        if not hasattr(self, "_edge_order_sign"):
            self._edge_order_sign = perm_sign([d for edge in self._edges for d in edge])
        return self._edge_order_sign

    def is_loop(self, edge_index: int) -> bool:
        a, b = self._edges[edge_index]
        return a // 3 == b // 3

    def code_str(self) -> str:
        return " ".join(str(p) for p in self.partner)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DartGraph)
            and self.num_vertices == other.num_vertices
            and self.partner == other.partner
        )

    def __hash__(self) -> int:
        return hash((self.num_vertices, self.partner))

    def __repr__(self) -> str:
        return f"DartGraph(2k={self.num_vertices}, edges={list(self._edges)})"


def perm_sign(perm: Sequence[int]) -> int:
    """Parity of a permutation given as the image list of 0..n-1:
    (-1)^(n - its number of cycles)."""
    seen, cycles = [False] * len(perm), 0
    for i in range(len(perm)):
        cycles += not seen[i]
        while not seen[i]:  # walk i's cycle
            seen[i], i = True, perm[i]
    return -1 if (len(perm) - cycles) & 1 else 1


def _connected(num_vertices: int, partner: Sequence[int]) -> bool:
    seen = [False] * num_vertices
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        v = stack.pop()
        for d in (3 * v, 3 * v + 1, 3 * v + 2):
            w = partner[d] // 3
            if not seen[w]:
                seen[w] = True
                count += 1
                stack.append(w)
    return count == num_vertices


def from_pairing(
    num_vertices: int,
    pairs: Iterable[tuple[int, int]],
    allow_disconnected: bool = False,
) -> DartGraph:
    """Build and validate a DartGraph from a list of dart pairs (one per edge)."""
    if num_vertices <= 0 or num_vertices % 2 != 0:
        raise NotTrivalent(f"num_vertices must be positive even, got {num_vertices}")
    nd = 3 * num_vertices
    pairs = list(pairs)  # counted before any dart array is built
    if len(pairs) != nd // 2:
        raise MalformedPairing(f"{nd} darts need {nd // 2} pairs, got {len(pairs)}")
    partner = [-1] * nd
    for a, b in pairs:
        if type(a) is not int or type(b) is not int:
            raise MalformedPairing(f"dart not an int in pair ({a!r}, {b!r})")
        if not (0 <= a < nd and 0 <= b < nd):
            raise MalformedPairing(f"dart out of range in pair ({a}, {b})")
        if a == b:
            raise MalformedPairing(f"dart {a} paired with itself")
        if partner[a] != -1 or partner[b] != -1:
            raise MalformedPairing(f"dart repeated in pair ({a}, {b})")
        partner[a] = b
        partner[b] = a
    conn = _connected(num_vertices, partner)
    if not conn and not allow_disconnected:
        raise NotConnected("graph is not connected")
    return DartGraph(num_vertices, partner, conn)


def relabel(g: DartGraph, dart_map: Sequence[int]) -> DartGraph:
    """The image graph of a relabelling, given as its dart map (old dart ->
    new dart); vertex v goes to dart_map[3v] // 3."""
    partner = [0] * g.num_darts
    for d in range(g.num_darts):
        partner[dart_map[d]] = dart_map[g.partner[d]]
    return DartGraph(g.num_vertices, partner, g.connected)


def random_relabelling(g: DartGraph, rng: random.Random) -> tuple[int, ...]:
    """Dart map of a random vertex permutation plus random slot permutations."""
    nv = g.num_vertices
    vp = list(range(nv))
    rng.shuffle(vp)
    dmap = [0] * g.num_darts
    for v in range(nv):
        slots = [0, 1, 2]
        rng.shuffle(slots)
        for i, s in enumerate(slots):
            dmap[3 * v + i] = 3 * vp[v] + s
    return tuple(dmap)


def _seeds(partner: Sequence[int], nv: int) -> Sequence[int]:
    """The seed vertices of a relabelling among the first `nv` vertices of
    the pairing `partner`: its loop vertices if it has any, else its
    double-edge vertices if it has any, else all.  A least code starts
    (1, 0) from a loop vertex, (3, 4) from a double-edge vertex and (3, 6)
    from any other, so no other seed reaches it."""
    loops, doubles = [], []
    for v in range(nv):
        # the vertices v's darts lead to, -1 for an unknown partner
        a, b, c = partner[3 * v] // 3, partner[3 * v + 1] // 3, partner[3 * v + 2] // 3
        if a == b or c in (a, b):
            # a loop takes two of v's darts, one of them 3v or 3v+1
            if v in (a, b):
                loops.append(v)
            elif -1 != c in (a, b) or -1 != a == b:  # not two unknowns
                doubles.append(v)
    return loops or doubles or range(nv)


def _min_code_ties(partner: Sequence[int]) -> tuple[tuple[int, ...], list[list[int]]]:
    """The least code over all relabellings of the pairing `partner`, and
    every dart map (old dart -> new dart) reaching it in search order: the
    first is the witness, and composed with its inverse they are the
    code's automorphisms, each once.  One running-bound `_prefix_ties`,
    whose expanded maps sorted by their inverses are in search order."""
    nd = len(partner)
    bound = [nd] * nd
    maps = _tie_maps(_prefix_ties(partner, nd, (), _seeds(partner, nd // 3), bound))
    maps.sort(key=lambda m: sorted(range(nd), key=m.__getitem__))
    return tuple(bound), maps


def _tie_maps(states: Iterable[tuple]) -> list[list[int]]:
    """The dart maps of tie states: each state's `dmap` composed with every
    product of its swaps (x z)(a b), which commute; a loop's is (x z)."""
    maps = []
    for _, _, dmap, _, swaps in states:
        expanded = [dmap]
        for x, z, a, b in swaps:
            for m in expanded[:]:
                s = m.copy()
                s[x], s[z], s[a], s[b] = m[z], m[x], m[b], m[a]
                expanded.append(s)
        maps += expanded
    return maps


def _prefix_ties(
    partner: Sequence[int],
    end: int,
    ties: Sequence[tuple],
    fresh_seeds: Iterable[int],
    bound: list[int] | None = None,
) -> list[tuple] | None:
    """The relabellings of a partial pairing that tie the bound
    partner[:end], or None if one gives a code strictly below it.

    The relabellings reveal vertices in discovery order; their branch
    points are the seed, the order of the seed's darts and the order in
    which a partially revealed vertex exposes its two free darts.  Each is
    compared with the bound slot by slot and dropped when it goes above.
    `partner` holds -1 for darts whose partner is not yet known (the
    orderly generator's partial pairings); a code counts only up to the
    first slot whose dart has an unknown partner.  A tie state (pos, vnext,
    dmap, dinv, swaps) is a partial relabelling whose code is partner[:pos]
    and which stopped at `end` or at such a slot, with the swaps of the
    branches it skipped; new vertex t is old vertex dinv[3t] // 3, and old
    vertex w is new vertex dmap[d] // 3 for any numbered dart d of w.  So
    None means every completion of `partner` has a code below its own.

    A vertex takes its slots in order, the first when it is revealed, so a
    slot not yet filled belongs to a partially revealed vertex, and its
    place in the vertex says how many of the vertex's darts are free: two
    at the second slot, the branch point, and one at the third.  They are
    found by testing the vertex's darts in `dmap`, with no list built; at
    a branch point the state is copied for the first free dart and goes on
    in place with the second.

    A loop or double edge at two free darts x < z, of a seed or at a branch
    point (partners a, b known and on one vertex, a = z for a loop; not
    numbered, as each numbered dart's partner was numbered at its slot),
    gives the swap (x z)(a b): an automorphism of every completion that
    fixes every numbered dart (McKay & Piperno 2014), so z's branch is x's
    composed with it, code for code.  Only x's branch (at a seed, the
    orders with x before z) is walked, and the swap is carried on the
    state; a state's later swaps move darts not yet numbered, so commute.

    The search starts each order of each seed's darts in `fresh_seeds` and
    resumes each state in `ties`.  The tie states of a shorter bound that
    `partner` extends are enough: a code that went above or below it
    before its first unknown partner still does.  A state whose next dart
    still has no partner is returned as the same object; no state is
    changed in place.  On a complete pairing with every seed of `_seeds`
    started or resumed, None means some relabelling has a smaller code,
    and otherwise the states' maps are the pairing's automorphisms: a
    relabelling from a vertex of a worse local type than those seeds has
    a code above the least one in its first two slots (see `_seeds`).

    Given `bound`, a list of len(partner) slots, the search compares with
    it instead and lowers it in place: a code below it rewrites it from
    that slot on (later slots reset to len(partner), above every dart) and
    clears the states found, so `bound` ends as the least code and the
    states are those that reach it.  `_trie_walk` keeps its own walk: its
    bound is a set of codes in a trie, it stops at the first match and it
    undoes in place rather than copy at branches, so folding it in would
    add a per-slot branch to this loop, which enumeration runs hottest.
    """
    nd = len(partner)
    ref = partner if bound is None else bound
    found: list[tuple] = []

    def extend(pos: int, vnext: int, dmap, dinv, swaps) -> bool:
        """Follow a relabelling from slot `pos`, whose code so far ties the
        bound, on lists it owns; False if its code falls below a fixed
        bound."""
        while pos < end:
            x = dinv[pos]
            if x == -1:
                # slot of a partially revealed vertex; its first free dart
                x = dinv[pos - pos % 3] // 3 * 3
                if dmap[x] != -1:
                    x += 1
                    if dmap[x] != -1:
                        x += 1
                if pos % 3 == 1:
                    # a branch point: the vertex's second slot, with the
                    # dart after x that is free as the other branch
                    z = x + 1 if dmap[x + 1] == -1 else x + 2
                    a, b = partner[x], partner[z]
                    if a != -1 and a // 3 == b // 3:
                        swaps += ((x, z, a, b),)
                    else:
                        d, i = dmap.copy(), dinv.copy()
                        d[x], i[pos] = pos, x
                        if not extend(pos, vnext, d, i, swaps):
                            return False
                        x = z
                dmap[x] = pos
                dinv[pos] = x
            y = partner[x]
            if y == -1:  # unknown partner: the code is determined up to here
                break
            c = dmap[y]
            if c == -1:
                v = y - y % 3
                t = dmap[v]
                if t == -1:
                    t = dmap[v + 1]
                    if t == -1:
                        t = dmap[v + 2]
                # a new vertex's slots are all free
                c = 3 * vnext if t == -1 else t - t % 3
                while dinv[c] != -1:
                    c += 1
            b = ref[pos]
            if c != b:
                if c > b or bound is None:
                    return c > b
                # a new least code; clear the old one's later slots
                bound[pos] = c
                if b != nd:
                    bound[pos + 1 :] = [nd] * (end - pos - 1)
                found.clear()
            if dmap[y] == -1:
                if c == 3 * vnext:
                    vnext += 1
                dmap[y] = c
                dinv[c] = y
            pos += 1
        found.append((pos, vnext, dmap, dinv, swaps))
        return True

    try:
        for tie in ties:
            pos, vnext, dmap, dinv, swaps = tie
            x = dinv[pos]
            if x != -1 and partner[x] == -1:
                found.append(tie)
            elif not extend(pos, vnext, dmap.copy(), dinv.copy(), swaps):
                return None
        for seed in fresh_seeds:
            darts = (3 * seed, 3 * seed + 1, 3 * seed + 2)
            swaps = ()
            for x, z in combinations(darts, 2):
                a, b = partner[x], partner[z]
                if a != -1 and a // 3 == b // 3:
                    swaps = ((x, z, a, b),)
                    break
            for order in permutations(darts):
                if swaps and order.index(x) > order.index(z):
                    continue
                dmap = [-1] * nd
                dmap[order[0]], dmap[order[1]], dmap[order[2]] = 0, 1, 2
                if not extend(0, 1, dmap, [*order] + [-1] * (nd - 3), swaps):
                    return None
        return found
    finally:
        # `extend` refers to itself through its closure, and that cycle
        # holds `found`; breaking it frees the states without waiting for
        # the cyclic garbage collector
        del extend


def vertex_invariants(partner: Sequence[int]) -> list[tuple[int, int, int, int]]:
    """A tuple per vertex of the complete pairing `partner` that every
    relabelling carries to its image vertex: whether the vertex has a loop,
    its number of distinct neighbours, the triangles through it (pairs of
    distinct neighbours that are adjacent) and the size of its radius-2
    ball.  Seeds the trie walk (McKay & Piperno, J. Symbolic Comput. 2014:
    cheap invariants first).  Neighbourhoods are bit masks, one bit per
    vertex, so each count is the `bit_count` of a union or intersection."""
    nbrs = [
        (1 << partner[d] // 3) | (1 << partner[d + 1] // 3) | (1 << partner[d + 2] // 3)
        for d in range(0, len(partner), 3)
    ]
    out = []
    for v, ns in enumerate(nbrs):
        bit = 1 << v
        rest = others = ns & ~bit
        ball = ns | bit
        triangles = 0
        while rest:
            # each pair of distinct neighbours once: w with those above it
            low = rest & -rest
            rest ^= low
            nw = nbrs[low.bit_length() - 1]
            ball |= nw
            triangles += (nw & rest).bit_count()
        out.append((ns >> v & 1, others.bit_count(), triangles, ball.bit_count()))
    return out


def _trie_walk(
    partner: Sequence[int], invariants: Sequence[tuple], roots: dict[tuple, dict]
) -> tuple[object, tuple[int, ...]] | None:
    """A relabelling of the complete pairing `partner` whose code is one of
    the codes stored in the tries `roots`, or None if there is none.

    `roots[i][e]` holds the codes that a relabelling may reach when it
    sends to vertex 0 a vertex of invariant i whose darts, in their new
    order, lead to vertices of invariants e, as nested dicts, one level per
    slot, with a payload in place of the last level's dict; `invariants`
    are those of `partner`'s vertices.  An order of a seed's darts with no
    such trie is not started.  Returns the payload and the dart map (old
    dart -> new dart) at the first code found.

    The walk follows the relabellings of `_prefix_ties` in the same order,
    with the same branch points found the same way, and goes down a branch
    only while its code so far is a path of its order's trie (why it is a
    walk of its own is said there).  As in a tie state, new vertex t is old
    vertex dinv[3t] // 3, and old vertex w is new vertex dmap[d] // 3 for
    any numbered dart d of w.  At a branch point it recurses once per free
    dart and undoes each in place.  Of two free darts x < z whose partners
    are on one vertex, at a seed or at a branch point, only x's branch is
    walked: the swap (x z)(a b), a and b their partners, is an automorphism
    fixing every numbered dart, so z's branch reaches x's codes, after x's,
    and can match only where x's has.  The minimal code is reached on one of
    the walked relabellings, so a code in the trie of that relabelling's
    order is always matched.  The search seeds only the vertices of the
    best local type (`_seeds`: loop vertices, else double-edge vertices,
    else all); the walk leaves that to `roots`, since a vertex's invariant
    gives its type (its loop flag, and fewer than three distinct
    neighbours at a double edge), and a relabelling from a vertex of a
    worse type puts it first and so matches no minimal code.
    """
    nd = len(partner)

    dmap = [-1] * nd  # old dart -> new slot
    dinv = [-1] * nd  # new slot -> old dart

    def walk(pos: int, vnext: int, node) -> tuple[object, tuple[int, ...]] | None:
        """Extend the relabelling from slot `pos`, whose code prefix led to
        `node` of the trie."""
        assigned: list[int] = []  # darts given a slot at this node
        found = None
        while True:
            if pos == nd:
                found = node, tuple(dmap)
                break
            x = dinv[pos]
            if x == -1:
                # its vertex was revealed by the dart at its first slot
                x = dinv[pos - pos % 3] // 3 * 3
                if dmap[x] != -1:
                    x += 1
                    if dmap[x] != -1:
                        x += 1
                if pos % 3 == 1:
                    z = x + 1 if dmap[x + 1] == -1 else x + 2
                    if partner[x] // 3 != partner[z] // 3:
                        for y in (x, z):
                            dmap[y] = pos
                            dinv[pos] = y
                            found = walk(pos, vnext, node)
                            dmap[y] = -1
                            dinv[pos] = -1
                            if found is not None:
                                break
                        break
                dmap[x] = pos
                dinv[pos] = x
                assigned.append(x)
            y = partner[x]
            c = dmap[y]
            if c == -1:
                v = y - y % 3
                t = dmap[v]
                if t == -1:
                    t = dmap[v + 1]
                    if t == -1:
                        t = dmap[v + 2]
                c = 3 * vnext if t == -1 else t - t % 3
                while dinv[c] != -1:
                    c += 1
            node = node.get(c)
            if node is None:
                break
            if c == 3 * vnext:
                vnext += 1
            if dmap[y] == -1:
                dmap[y] = c
                dinv[c] = y
                assigned.append(y)
            pos += 1
        for d in assigned:
            dinv[dmap[d]] = -1
            dmap[d] = -1
        return found

    for seed, invariant in enumerate(invariants):
        by_ends = roots.get(invariant)
        if by_ends is None:
            continue
        darts = (3 * seed, 3 * seed + 1, 3 * seed + 2)
        ends = [partner[d] // 3 for d in darts]
        keys = [invariants[w] for w in ends]
        for i, j, l in permutations(range(3)):
            root = by_ends.get((keys[i], keys[j], keys[l]))
            # a swap's z before its x: the order with the two exchanged
            # comes first and reaches the same codes
            if root is None or (
                (i > j and ends[i] == ends[j])
                or (i > l and ends[i] == ends[l])
                or (j > l and ends[j] == ends[l])
            ):
                continue
            order = (darts[i], darts[j], darts[l])
            dmap[order[0]], dmap[order[1]], dmap[order[2]] = 0, 1, 2
            dinv[:3] = order
            found = walk(0, 1, root)
            dmap[order[0]] = dmap[order[1]] = dmap[order[2]] = -1
            dinv[:3] = (-1, -1, -1)
            if found is not None:
                return found
    return None


class ClassTable:
    """The representatives' positions in the sequence given, which are their
    class ids, keyed by canonical code and held in tries of those codes for
    `find`, with the id in place of the last level's dict.

    The tries are bucketed by `vertex_invariants`: first by the sorted
    invariants of the whole graph, then by the invariant of the
    representative's vertex 0, then by the invariants of the vertices at
    the other ends of its darts 0, 1 and 2, in slot order."""

    def __init__(self, reps: Sequence[DartGraph]):
        self._ids = {rep.partner: i for i, rep in enumerate(reps)}
        self._buckets: dict[tuple, dict[tuple, dict[tuple, dict]]] = {}
        for i, rep in enumerate(reps):
            invariants = vertex_invariants(rep.partner)
            roots = self._buckets.setdefault(tuple(sorted(invariants)), {})
            *head, last = rep.partner
            ends = tuple(invariants[y // 3] for y in head[:3])
            node = roots.setdefault(invariants[0], {}).setdefault(ends, {})
            for x in head:
                node = node.setdefault(x, {})
            node[last] = i

    def find(self, partner: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
        """The class id of the graph with pairing `partner` and the dart map of
        an isomorphism from it onto its representative.

        A representative is its own witness under the identity; any other
        graph is matched by walking the representatives' codes in its
        invariants' bucket, from each order of a vertex's darts whose
        vertex and whose darts' other ends, in that order, have the
        invariants of some representative's vertex 0 and of the other ends
        of its darts 0, 1 and 2.  The graph's own representative is in that
        bucket, and a relabelling onto it carries each vertex to one with
        the same invariant; so the walk skips only orders and codes that
        match nothing, and branches that match only after a branch walked
        before them (see `_trie_walk`), and its first match is the one a
        walk of every code from every order of every seed would find.
        Representatives are pairwise non-isomorphic, so the class is unique.
        """
        class_id = self._ids.get(partner)
        if class_id is not None:
            return class_id, tuple(range(len(partner)))
        invariants = vertex_invariants(partner)
        roots = self._buckets.get(tuple(sorted(invariants)))
        found = None if roots is None else _trie_walk(partner, invariants, roots)
        if found is None:
            code = " ".join(map(str, partner))
            raise UnknownClass(f"no class in the table for pairing {code}")
        return found


def _canonical_graph(
    num_vertices: int, code: Sequence[int], connected: bool
) -> DartGraph:
    """The graph of a minimal code, marked so that `canonical_code` reads
    the code off it instead of searching."""
    canon = DartGraph(num_vertices, code, connected)
    canon._canonical = True
    return canon


def _search(g: DartGraph) -> tuple[tuple[int, ...], list[list[int]]]:
    """`_min_code_ties` of a graph, which must be connected: a relabelling
    reveals only its seed's component, so the walks assume every vertex is
    reached before its slots."""
    if not g.connected:
        raise NotConnected("canonical search needs a connected graph")
    return _min_code_ties(g.partner)


def canonical_form(g: DartGraph) -> tuple[DartGraph, tuple[int, ...]]:
    """Canonical representative plus the dart map of one witnessing
    relabelling g -> canonical."""
    code, maps = _search(g)
    canon = _canonical_graph(g.num_vertices, code, g.connected)
    return canon, tuple(maps[0])


def canonical_code(g: DartGraph) -> tuple[int, ...]:
    if g._canonical:
        return g.partner
    return _search(g)[0]


def automorphisms(g: DartGraph) -> list[tuple[int, ...]]:
    """The full automorphism group as dart maps (identity included), sorted:
    each map t reaching the minimal code, after the inverse of the witness
    w, gives w^-1 o t."""
    _, maps = _search(g)
    w_inv = [0] * g.num_darts
    for d, c in enumerate(maps[0]):
        w_inv[c] = d
    return sorted(tuple(w_inv[c] for c in t) for t in maps)


def _orderly(k: int, policy: TadpolePolicy) -> Iterator[tuple[DartGraph, list[tuple]]]:
    """One canonical representative per isomorphism class, in canonical-code
    order, each with the tie states of its test (see `enumerate_classes`,
    whose automorphisms are their `_tie_maps`).

    Orderly generation (McKay, "Isomorph-free exhaustive generation",
    J. Algorithms 1998).  A DFS pairs the smallest free dart x with the
    first free dart of a revealed vertex or the first dart of a new one, so
    vertices are revealed in discovery order and each vertex's darts are
    consumed smallest first; every minimal code is such a pairing.  The
    vertices before x's are full, so the scan for partners starts at x's own
    vertex.  Each tested node runs one test, `_prefix_ties` against
    partner[:x], and is cut when a relabelling of the revealed part already
    has a smaller determined code, so no completion is its own minimal code.
    A complete pairing is always tested; it passes once per class, and the
    relabellings that tie its whole code are its automorphisms.

    Vertex 0 of a least code has the best local type in its graph: the
    code starts (1, 0) if the graph has a loop, (3, 4) if it has a double
    edge and no loop, and (3, 6) otherwise, as a relabelling from a vertex
    of a better type gives a smaller code.  So the DFS tries no partner
    that makes a loop while partner[0] != 1, or a double edge while
    partner[1] == 6: no completion of such a child is its own least code.

    The test resumes the tie states of the nearest tested ancestor and
    starts fresh only the seeds that ancestor did not have, so it checks
    the same relabellings as a test from the root.  No resumed state needs
    dropping, as the seeds of `_seeds` only grow along a DFS path: past
    the root, partner[0] = 1 keeps loops at vertex 0 and so the seeds the
    loop vertices; otherwise no loop is made, partner[1] = 4 keeps the
    seeds the double-edge vertices, and partner[1] = 6 all vertices, as no
    double edge is made either; and a loop or double-edge vertex stays one.
    So a (3, 6) prefix's seeds are its revealed vertices and its fresh
    seeds those revealed since its tested ancestor, read off without
    `_seeds`.

    An inner node with a single child is not tested: the child's prefix
    extends its own, so the child's test finds every smaller code the
    node's test would, and the child gets the tie states unchanged.
    Pairings that would leave a component closed before all 2k vertices
    are revealed are not tried, so such single-child nodes are common near
    the leaves.  Nor is a node reached by a pure tree edge tested: its
    parent paired the smallest free dart x' with a new vertex's first dart,
    and its own smallest free dart is x' + 1.  The test's bound grows by
    slot x' alone, whose value, the next new vertex, is the largest that
    slot can take, so every state reaching slot x' ties it.  Such a test
    could cut only through a state that stopped at dart x' before slot x';
    otherwise it just branches the states at the new vertex's free darts
    before their partners are known (it cut 52 of 452 times at k=6 without
    loops, against 1,329 of 2,349 after a pair closing onto a revealed
    vertex).

    Classes are yielded as the DFS reaches them, which is code order: the
    smallest free dart x is the first slot where sibling pairings differ,
    and its candidate partners are tried in ascending order.
    """
    if type(k) is not int or k < 1:
        raise ValueError(f"k must be an int >= 1, got {k!r}")
    limit = env_int("AK_MAX_CLASSES", DEFAULT_MAX_CLASSES)
    include_loops = policy is TadpolePolicy.INCLUDE
    nv = 2 * k
    nd = 3 * nv
    partner = [-1] * nd

    def rec(
        x: int, touched: int, ties: list[tuple], seeded: Sequence[int]
    ) -> Iterator[tuple[DartGraph, list[tuple]]]:
        while x < 3 * touched and partner[x] != -1:
            x += 1
        cands = []
        # a revealed partner would close off the revealed vertices when x
        # and it are their last free darts
        if x < nd and (touched == nv or partner[x + 1 : 3 * touched].count(-1) > 1):
            # vertex 0 has the best local type: a partner may make a loop
            # only if vertex 0 has one, or a double edge only if vertex 0
            # has a loop or a double edge (partner[1] != 6)
            v = x // 3
            if partner[1] == 6:
                barred = (v, partner[3 * v] // 3, partner[3 * v + 1] // 3)
            elif include_loops and partner[0] in (-1, 1):
                barred = ()
            else:
                barred = (v,)
            for w in range(v, touched):
                for y in (3 * w, 3 * w + 1, 3 * w + 2):
                    if partner[y] == -1 and y != x:
                        if w not in barred:
                            cands.append(y)
                        break
        if touched < nv:
            cands.append(3 * touched)
        # the root reveals nothing to test, nor does a pure tree edge: x
        # follows the dart that revealed the newest vertex, then the least
        # free dart, so the pair just made revealed it and x is the next
        # dart; a complete pairing is always tested
        if x == nd or (len(cands) > 1 and x and partner[x - 1] != 3 * touched - 3):
            # every revealed vertex has its first dart paired; the seeds
            # of a path only grow, so every resumed state has one
            if partner[1] == 6:
                seeds = range(touched)
                fresh = range(len(seeded), touched)
            else:
                seeds = _seeds(partner, touched)
                fresh = [v for v in seeds if v not in seeded]
            ties = _prefix_ties(partner, x, ties, fresh)
            if ties is None:
                return
            seeded = seeds
        if x == nd:
            yield _canonical_graph(nv, tuple(partner), True), ties
            return
        for y in cands:
            partner[x] = y
            partner[y] = x
            yield from rec(
                x + 1, touched + 1 if y == 3 * touched else touched, ties, seeded
            )
            partner[x] = -1
            partner[y] = -1

    for count, found in enumerate(rec(0, 1, [], ()), 1):
        if count > limit:
            raise ResourceLimit(f"class count exceeded AK_MAX_CLASSES={limit} at k={k}")
        yield found


def enumerate_classes(
    k: int, policy: TadpolePolicy = TadpolePolicy.EXCLUDE
) -> Iterator[tuple[DartGraph, list[tuple[int, ...]]]]:
    """One canonical representative per isomorphism class, in canonical-code
    order (see `_orderly`), each with its automorphism group as dart maps,
    in no set order: the `_tie_maps` of its test's tie states."""
    for rep, ties in _orderly(k, policy):
        yield rep, [tuple(m) for m in _tie_maps(ties)]


def enumerate_trivalent(
    k: int, policy: TadpolePolicy = TadpolePolicy.EXCLUDE
) -> Iterator[DartGraph]:
    """One canonical representative per isomorphism class, in canonical-code
    order, without the groups that `enumerate_classes` expands."""
    for rep, _ in _orderly(k, policy):
        yield rep

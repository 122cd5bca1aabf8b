"""Independent brute-force dimension of the quotient over the full labelled basis.

This deliberately avoids the canonical-form pipeline: representatives, their
automorphisms, and each IHX term's class with an isomorphism onto it come
from marking the orbit of each new pairing under every vertex-block
preserving dart map, sign bookkeeping is limited to the literal relation
rows (edge-label transposition -1, vertex-label transposition +1, direction
normalization (-1) per reversed edge against the fixed min->max reference,
identification rows carrying only structural permutation parities), and
the two-term relations are processed as signed components via a
double-cover graph.  IHX rows are then ranked with the exact linear
algebra module.

Ships in the library so certificates and CLI reports can cite it; hard-capped
at k <= 2.  The test suite's directed variant, with explicit direction
coordinates, shares its classes, transports and component solve.
"""

from __future__ import annotations

from itertools import permutations, product

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .errors import ResourceLimit, UnknownClass
from .exactla import SparseIntMatrix, rank
from .multigraph import TadpolePolicy
from .orientation import Convention


def _all_pairings(k: int):
    nd = 6 * k
    partner = [-1] * nd

    def rec():
        x = next((d for d in range(nd) if partner[d] == -1), None)
        if x is None:
            yield tuple(partner)
            return
        for y in range(x + 1, nd):
            if partner[y] == -1:
                partner[x] = y
                partner[y] = x
                yield from rec()
                partner[x] = -1
                partner[y] = -1

    yield from rec()


def _connected(partner) -> bool:
    nv = len(partner) // 3
    seen = [False] * nv
    seen[0] = True
    stack = [0]
    n = 1
    while stack:
        v = stack.pop()
        for d in (3 * v, 3 * v + 1, 3 * v + 2):
            w = partner[d] // 3
            if not seen[w]:
                seen[w] = True
                n += 1
                stack.append(w)
    return n == nv


def _has_loop(partner) -> bool:
    return any(partner[d] // 3 == d // 3 for d in range(len(partner)))


def _inverse(perm) -> list[int]:
    inv = [0] * len(perm)
    for i, x in enumerate(perm):
        inv[x] = i
    return inv


def _representatives(k: int) -> tuple[dict, dict]:
    """One pairing per isomorphism class of connected graphs (loops included):
    the first of its class in `_all_pairings` order.  Every image of a new
    representative under the (2k)! * 6^(2k) dart maps that keep vertex
    blocks whole is marked with the representative and the inverse map, an
    isomorphism onto it.  Returns each representative, in that order (which
    is sorted), to its automorphisms, the maps that fix it; and the marking."""
    if k > 2:
        raise ResourceLimit("oracle is capped at k <= 2")
    maps = []
    for vperm in permutations(range(2 * k)):
        for slots in product(permutations(range(3)), repeat=2 * k):
            f = [3 * vperm[d // 3] + slots[d // 3][d % 3] for d in range(6 * k)]
            maps.append((f, _inverse(f)))
    groups: dict[tuple[int, ...], list[list[int]]] = {}
    marks: dict[tuple[int, ...], tuple[tuple[int, ...], list[int]]] = {}
    for p in _all_pairings(k):
        if p in marks or not _connected(p):
            continue
        images = [(tuple([f[p[x]] for x in finv]), finv) for f, finv in maps]
        marks.update((q, (p, finv)) for q, finv in images)
        groups[p] = [finv for q, finv in images if q == p]
    return groups, marks


def _perm_parity(perm) -> int:
    n = len(perm)
    seen = [False] * n
    sign = 1
    for i in range(n):
        if seen[i]:
            continue
        j, ln = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            ln += 1
        if ln % 2 == 0:
            sign = -sign
    return sign


def _edges_of(partner) -> list[tuple[int, int]]:
    return sorted((d, p) for d, p in enumerate(partner) if d < p)


def _dart_maps(src, dst, psi, tau=None) -> tuple[list[int], list[int], int, list[int]]:
    """Edge map, vertex map, structural sign (product of the two maps'
    parities) and per-edge reversal flags of the dart bijection psi o tau
    from src to dst, directions referenced min->max on both sides.

    tau (default the identity) may move darts across vertex blocks, so the
    vertex map comes from psi alone; edges and reversals are dart-level."""
    dmap = psi if tau is None else [psi[t] for t in tau]
    dst_index = {e: i for i, e in enumerate(_edges_of(dst))}
    edge_map, reversed_ = [], []
    for a, b in _edges_of(src):
        ia, ib = dmap[a], dmap[b]
        edge_map.append(dst_index[(min(ia, ib), max(ia, ib))])
        reversed_.append(int(ia > ib))
    vertex_map = [psi[3 * v] // 3 for v in range(len(src) // 3)]
    struct = _perm_parity(edge_map) * _perm_parity(vertex_map)
    return edge_map, vertex_map, struct, reversed_


def _ihx_terms(rep, e_idx, index, marks, policy):
    """For one expanded edge: per term, (target class, *transport) or None
    when the term drops (disconnected, or a tadpole under Exclude); None
    for a loop edge.  `index` numbers the classes by representative, and
    `marks` gives each term's representative and an isomorphism onto it."""
    a, b = _edges_of(rep)[e_idx]
    u, v = a // 3, b // 3
    if u == v:
        return None
    du = sorted(d for d in (3 * u, 3 * u + 1, 3 * u + 2) if d != a)
    dv = sorted(d for d in (3 * v, 3 * v + 1, 3 * v + 2) if d != b)
    q, r, s = du[1], dv[0], dv[1]
    terms = []
    for swap in (None, (q, r), (q, s)):
        tau = list(range(len(rep)))
        if swap is not None:
            x, y = swap
            tau[x], tau[y] = y, x
        term = [0] * len(rep)
        for d in range(len(rep)):
            term[tau[d]] = tau[rep[d]]
        if not _connected(term) or (
            policy is TadpolePolicy.EXCLUDE and _has_loop(term)
        ):
            terms.append(None)
            continue
        cand, iso = marks.get(tuple(term), (None, None))
        if cand not in index:
            raise UnknownClass(
                f"IHX term {' '.join(map(str, term))} matches no representative"
            )
        terms.append((index[cand], *_dart_maps(rep, cand, iso, tau)))
    return terms


def _grid_classes(k: int, policy: TadpolePolicy) -> tuple[dict, dict]:
    groups, marks = _representatives(k)
    if policy is TadpolePolicy.EXCLUDE:
        groups = {r: g for r, g in groups.items() if not _has_loop(r)}
    return groups, marks


def _transpositions(n: int) -> list[list[int]]:
    """The adjacent transpositions of range(n)."""
    taus = []
    for j in range(n - 1):
        tau = list(range(n))
        tau[j], tau[j + 1] = j + 1, j
        taus.append(tau)
    return taus


class _Labels:
    """The labellings of n items, as permutations, and their indices."""

    def __init__(self, n: int):
        self.perms = list(permutations(range(n)))
        self.index = {p: i for i, p in enumerate(self.perms)}

    def value_table(self, tau) -> np.ndarray:
        """Index map for relabelling by value substitution: lab -> tau o lab."""
        return np.array(
            [self.index[tuple(tau[x] for x in p)] for p in self.perms], dtype=np.int64
        )

    def position_table(self, m) -> np.ndarray:
        """Index map for transport along a bijection m: lab' = lab o m^-1."""
        minv = _inverse(m)
        return np.array(
            [self.index[tuple(p[j] for j in minv)] for p in self.perms], dtype=np.int64
        )


class _LabelSpace:
    """Labellings of 2k vertices and 3k edges; (vertex i, edge j) is column
    i * (3k)! + j of a class."""

    def __init__(self, k: int):
        self.k = k
        self.v, self.e = _Labels(2 * k), _Labels(3 * k)
        nv, self.ne = len(self.v.perms), len(self.e.perms)
        self.size = nv * self.ne
        self._vi = np.repeat(np.arange(nv, dtype=np.int64), self.ne)
        self._ei = np.tile(np.arange(self.ne, dtype=np.int64), nv)

    def columns(self, tv=None, te=None) -> np.ndarray:
        """Column of each labelling after the vertex and edge index maps
        tv and te (each the identity when None)."""
        vi = self._vi if tv is None else tv[self._vi]
        ei = self._ei if te is None else te[self._ei]
        return vi * self.ne + ei

    def relabellings(self) -> list[tuple[np.ndarray, int]]:
        """(columns, sign) of each adjacent label-transposition row: edge
        labels -1, vertex labels +1."""
        k = self.k
        return [
            (self.columns(te=self.e.value_table(t)), -1)
            for t in _transpositions(3 * k)
        ] + [
            (self.columns(tv=self.v.value_table(t)), 1)
            for t in _transpositions(2 * k)
        ]

    def carried(self, edge_map, vertex_map) -> np.ndarray:
        """Column of each labelling carried along an edge and a vertex map."""
        return self.columns(
            self.v.position_table(vertex_map), self.e.position_table(edge_map)
        )


def _quotient(classes, marks, policy, per_class, moves, carry) -> dict:
    """Basis size, rank and dimension over `per_class` columns per class, for
    `classes` and `marks` as `_grid_classes` gives them.

    Two-term rows tie each column of a class to its image, with a sign,
    under every move (class-relative columns) and every automorphism;
    `carry(ci, *transport)` gives the columns of class ci a transport lands
    on, and its sign.  They are solved as signed components of a double
    cover: a column tied to its own negative dies, and each other component
    is one live coordinate up to sign.  The IHX rows of every non-loop edge,
    one per source column, are then projected onto live coordinates and
    ranked exactly."""
    total = len(classes) * per_class
    own = np.arange(per_class, dtype=np.int64)
    index = {rep: ci for ci, rep in enumerate(classes)}
    ties, expansions = [], []
    for ci, (rep, group) in enumerate(classes.items()):
        off = ci * per_class
        ties += [(off + own, off + dst, sign) for dst, sign in moves]
        for auto in group:
            ties.append((off + own, *carry(ci, *_dart_maps(rep, rep, auto))))
        for e_idx in range(len(rep) // 2):
            terms = _ihx_terms(rep, e_idx, index, marks, policy)
            if terms is not None:
                expansions.append([carry(*t) for t in terms if t is not None])

    a = np.concatenate([t[0] for t in ties])
    b = np.concatenate([t[1] for t in ties])
    neg = np.concatenate([np.full(len(t[0]), t[2] < 0) for t in ties])
    u = np.concatenate([2 * a, 2 * a + 1])
    w = np.concatenate([2 * b + neg, 2 * b + (~neg)])
    g = coo_matrix(
        (np.ones(len(u), dtype=np.int8), (u, w)), shape=(2 * total, 2 * total)
    )
    _, comp = connected_components(g, directed=False)
    comp_plus, comp_minus = comp[0::2], comp[1::2]
    alive = comp_plus != comp_minus
    pair_id = np.minimum(comp_plus, comp_minus)
    live_ids = np.unique(pair_id[alive])
    nlive = len(live_ids)
    live = np.searchsorted(live_ids, pair_id)  # meaningful where alive
    col_sign = np.where(comp_plus < comp_minus, 1, -1)

    blocks = [np.zeros((0, nlive), dtype=np.int64)]
    for terms in expansions:
        block = np.zeros((per_class, nlive), dtype=np.int64)
        for cols, sign in terms:
            ok = alive[cols]
            block[np.nonzero(ok)[0], live[cols[ok]]] += sign * col_sign[cols[ok]]
        blocks.append(block)
    rows = np.concatenate(blocks)
    rows = rows[np.any(rows != 0, axis=1)]
    if len(rows):
        lead = np.argmax(rows != 0, axis=1)
        flip = rows[np.arange(len(rows)), lead] < 0
        rows[flip] = -rows[flip]
        rows = np.unique(rows, axis=0)
    m = SparseIntMatrix.from_dense(rows.tolist()) if len(rows) else SparseIntMatrix(
        0, nlive, []
    )
    ihx_rank = rank(m) if nlive else 0
    return {
        "basis_size": total,
        "rank": total - nlive + ihx_rank,
        "dim": nlive - ihx_rank,
    }


def brute_dimension(
    k: int,
    convention: Convention,
    policy: TadpolePolicy = TadpolePolicy.EXCLUDE,
) -> dict:
    """Exact dimension by literal relation rows over every labelling.

    Returns {"basis_size", "rank", "dim", "num_classes", "oracle": True}.
    The label rows are the adjacent transpositions, which generate every
    relabelling.  A k that is no int of at least 1 raises `ValueError`.
    """
    if type(k) is not int or k < 1:
        raise ValueError(f"k must be an int >= 1, got {k!r}")
    if k > 2:
        raise ResourceLimit("oracle is capped at k <= 2")
    classes, marks = _grid_classes(k, policy)
    space = _LabelSpace(k)
    odd = convention is Convention.ODD

    def carry(ci, edge_map, vertex_map, struct, reversed_):
        sign = struct * (-1) ** sum(reversed_) if odd else 1
        return ci * space.size + space.carried(edge_map, vertex_map), sign

    return {
        "oracle": True,
        "k": k,
        "convention": convention.value,
        "tadpoles": policy.value,
        "num_classes": len(classes),
        **_quotient(classes, marks, policy, space.size, space.relabellings(), carry),
    }

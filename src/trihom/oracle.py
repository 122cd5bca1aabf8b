"""Independent brute-force dimension of the quotient over the full labelled basis.

This deliberately avoids the canonical-form pipeline: representatives come
from grouping all pairings by brute-force isomorphism search, sign
bookkeeping is limited to the literal relation rows (edge-label transposition
-1, vertex-label transposition +1, direction normalization (-1) per reversed
edge against the fixed min->max reference, identification rows carrying only
structural permutation parities), and the two-term relations are processed as
signed components via a double-cover graph.  IHX rows are then ranked with
the exact linear algebra module.

Ships in the library so certificates and CLI reports can cite it; hard-capped
at k <= 2.
"""

from __future__ import annotations

from itertools import permutations

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


def _graph_invariant(partner) -> tuple:
    nv = len(partner) // 3
    loops = sorted(
        sum(1 for d in (3 * v, 3 * v + 1, 3 * v + 2) if partner[d] // 3 == v)
        for v in range(nv)
    )
    mult: dict[tuple[int, int], int] = {}
    for d, p in enumerate(partner):
        if d < p:
            key = (min(d // 3, p // 3), max(d // 3, p // 3))
            mult[key] = mult.get(key, 0) + 1
    return tuple(loops), tuple(sorted(mult.values()))


def _isos(p1, p2, all_of_them: bool = False) -> list[list[int]]:
    """Dart bijections p1 -> p2 by vertex-by-vertex backtracking."""
    nv = len(p1) // 3

    # neighbour-multiset keys are label-dependent; use only degree of self-loops
    def lkey(p, v):
        return sum(1 for d in (3 * v, 3 * v + 1, 3 * v + 2) if p[d] // 3 == v)

    k2 = [lkey(p2, w) for w in range(nv)]
    k1 = [lkey(p1, v) for v in range(nv)]
    results: list[list[int]] = []
    dmap = [-1] * len(p1)
    vused = [False] * nv

    def rec(v: int) -> bool:
        if v == nv:
            results.append(dmap.copy())
            return not all_of_them
        for w in range(nv):
            if vused[w] or k1[v] != k2[w]:
                continue
            vused[w] = True
            src = (3 * v, 3 * v + 1, 3 * v + 2)
            for slots in permutations((3 * w, 3 * w + 1, 3 * w + 2)):
                ok = True
                for d, img in zip(src, slots):
                    dmap[d] = img
                for d in src:
                    e = p1[d]
                    if dmap[e] != -1 and p2[dmap[d]] != dmap[e]:
                        ok = False
                        break
                if ok and rec(v + 1):
                    return True
                for d in src:
                    dmap[d] = -1
            vused[w] = False
        return False

    rec(0)
    return results


def _representatives(k: int) -> list[tuple[int, ...]]:
    """One pairing per isomorphism class of connected graphs (loops included)."""
    if k > 2:
        raise ResourceLimit("oracle is capped at k <= 2")
    buckets: dict[tuple, list[tuple[int, ...]]] = {}
    for p in _all_pairings(k):
        if not _connected(p):
            continue
        inv = _graph_invariant(p)
        for rep in buckets.get(inv, []):
            if _isos(list(p), list(rep)):
                break
        else:
            buckets.setdefault(inv, []).append(p)
    return sorted(r for v in buckets.values() for r in v)


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


def _map_signature(src, dst, dmap) -> tuple[list[int], list[int], int, int, int]:
    """Edge map, vertex map, and struct parities / reversal count of a dart
    bijection src -> dst, directions referenced min->max on both sides."""
    dst_index = {e: i for i, e in enumerate(_edges_of(dst))}
    edge_map = []
    reversals = 0
    for a, b in _edges_of(src):
        ia, ib = dmap[a], dmap[b]
        edge_map.append(dst_index[(min(ia, ib), max(ia, ib))])
        if ia > ib:
            reversals += 1
    nv = len(src) // 3
    vmap = [dmap[3 * v] // 3 for v in range(nv)]
    return edge_map, vmap, _perm_parity(edge_map), _perm_parity(vmap), reversals


class _LabelSpace:
    """Permutation tables for the labellings of 2k vertices and 3k edges."""

    def __init__(self, k: int):
        self.k = k
        self.vperms = list(permutations(range(2 * k)))
        self.eperms = list(permutations(range(3 * k)))
        self.vindex = {p: i for i, p in enumerate(self.vperms)}
        self.eindex = {p: i for i, p in enumerate(self.eperms)}
        self.nv, self.ne = len(self.vperms), len(self.eperms)
        self.size = self.nv * self.ne

    def value_table_e(self, tau) -> np.ndarray:
        """Index map for relabelling by value substitution: lab -> tau o lab."""
        return np.array(
            [self.eindex[tuple(tau[x] for x in p)] for p in self.eperms],
            dtype=np.int64,
        )

    def value_table_v(self, tau) -> np.ndarray:
        return np.array(
            [self.vindex[tuple(tau[x] for x in p)] for p in self.vperms],
            dtype=np.int64,
        )

    def position_table_e(self, m) -> np.ndarray:
        """Index map for transport along an edge bijection: lab' = lab o m^-1."""
        n = len(m)
        minv = [0] * n
        for i, v in enumerate(m):
            minv[v] = i
        return np.array(
            [self.eindex[tuple(p[minv[j]] for j in range(n))] for p in self.eperms],
            dtype=np.int64,
        )

    def position_table_v(self, m) -> np.ndarray:
        n = len(m)
        minv = [0] * n
        for i, v in enumerate(m):
            minv[v] = i
        return np.array(
            [self.vindex[tuple(p[minv[j]] for j in range(n))] for p in self.vperms],
            dtype=np.int64,
        )


def _ihx_term_transports(rep, e_idx, reps, policy):
    """For one expanded edge: per term, (target class, edge map, vertex map,
    coefficient sign) or None when the term drops (tadpole under Exclude)."""
    edges = _edges_of(rep)
    a, b = edges[e_idx]
    u, v = a // 3, b // 3
    if u == v:
        return None
    du = sorted(d for d in (3 * u, 3 * u + 1, 3 * u + 2) if d != a)
    dv = sorted(d for d in (3 * v, 3 * v + 1, 3 * v + 2) if d != b)
    q, r, s = du[1], dv[0], dv[1]
    terms = []
    for swap in (None, (q, r), (q, s)):
        if swap is None:
            term = list(rep)
            tau = list(range(len(rep)))
        else:
            x, y = swap
            tau = list(range(len(rep)))
            tau[x], tau[y] = y, x
            term = [0] * len(rep)
            for d in range(len(rep)):
                term[tau[d]] = tau[rep[d]]
        if not _connected(term):
            terms.append(None)
            continue
        if policy is TadpolePolicy.EXCLUDE and _has_loop(term):
            terms.append(None)
            continue
        target = None
        for ci, cand in enumerate(reps):
            if _graph_invariant(term) == _graph_invariant(list(cand)):
                found = _isos(term, list(cand))
                if found:
                    target = (ci, found[0])
                    break
        if target is None:
            raise UnknownClass(
                f"IHX term {' '.join(map(str, term))} matches no representative"
            )
        ci, psi = target
        # tau permutes darts across vertex blocks, so the vertex map of the
        # transport comes from psi alone; edges and reversals are dart-level
        composite = [psi[tau[d]] for d in range(len(rep))]
        dst_index = {e: i for i, e in enumerate(_edges_of(reps[ci]))}
        em = []
        revflags = []
        for a, b in _edges_of(rep):
            ia, ib = composite[a], composite[b]
            em.append(dst_index[(min(ia, ib), max(ia, ib))])
            revflags.append(1 if ia > ib else 0)
        nv = len(rep) // 6 * 2
        vm = [psi[3 * v] // 3 for v in range(nv)]
        terms.append(
            (ci, em, vm, _perm_parity(em) * _perm_parity(vm), sum(revflags), revflags)
        )
    return terms


def _grid_classes(k: int, policy: TadpolePolicy) -> list[tuple[int, ...]]:
    reps = _representatives(k)
    if policy is TadpolePolicy.EXCLUDE:
        return [r for r in reps if not _has_loop(r)]
    return reps


def brute_dimension(
    k: int,
    convention: Convention,
    policy: TadpolePolicy = TadpolePolicy.EXCLUDE,
    paranoid: bool = False,
) -> dict:
    """Exact dimension by literal relation rows over every labelling.

    Returns {"basis_size", "rank", "dim", "num_classes", "oracle": True}.
    """
    if k > 2:
        raise ResourceLimit("oracle is capped at k <= 2")
    reps = _grid_classes(k, policy)
    space = _LabelSpace(k)
    ncls = len(reps)
    total = ncls * space.size
    odd = convention is Convention.ODD

    rel_a: list[np.ndarray] = []
    rel_b: list[np.ndarray] = []
    rel_s: list[np.ndarray] = []
    all_v = np.arange(space.nv, dtype=np.int64)
    all_e = np.arange(space.ne, dtype=np.int64)
    base_cols = (
        np.repeat(all_v, space.ne) * space.ne + np.tile(all_e, space.nv)
    )

    ne_labels = 3 * k
    nv_labels = 2 * k
    e_taus = [
        tuple(j + 1 if x == j else j if x == j + 1 else x for x in range(ne_labels))
        for j in range(ne_labels - 1)
    ]
    v_taus = [
        tuple(j + 1 if x == j else j if x == j + 1 else x for x in range(nv_labels))
        for j in range(nv_labels - 1)
    ]
    if paranoid:
        e_taus = [
            tuple(jb if x == ja else ja if x == jb else x for x in range(ne_labels))
            for ja in range(ne_labels)
            for jb in range(ja + 1, ne_labels)
        ]
        v_taus = [
            tuple(jb if x == ja else ja if x == jb else x for x in range(nv_labels))
            for ja in range(nv_labels)
            for jb in range(ja + 1, nv_labels)
        ]

    for ci, rep in enumerate(reps):
        off = ci * space.size
        for tau in e_taus:
            tab = space.value_table_e(tau)
            src = off + base_cols
            dst = off + np.repeat(all_v, space.ne) * space.ne + tab[
                np.tile(all_e, space.nv)
            ]
            rel_a.append(src)
            rel_b.append(dst)
            rel_s.append(np.full(space.size, -1, dtype=np.int8))
        for tau in v_taus:
            tab = space.value_table_v(tau)
            src = off + base_cols
            dst = off + tab[np.repeat(all_v, space.ne)] * space.ne + np.tile(
                all_e, space.nv
            )
            rel_a.append(src)
            rel_b.append(dst)
            rel_s.append(np.full(space.size, 1, dtype=np.int8))
        for auto in _isos(list(rep), list(rep), all_of_them=True):
            em, vm, se, sv, rev = _map_signature(list(rep), list(rep), auto)
            sign = (se * sv * (-1) ** rev) if odd else 1
            te = space.position_table_e(em)
            tv = space.position_table_v(vm)
            src = off + base_cols
            dst = off + tv[np.repeat(all_v, space.ne)] * space.ne + te[
                np.tile(all_e, space.nv)
            ]
            rel_a.append(src)
            rel_b.append(dst)
            rel_s.append(np.full(space.size, sign, dtype=np.int8))

    # signed components via the double cover
    a = np.concatenate(rel_a) if rel_a else np.zeros(0, dtype=np.int64)
    b = np.concatenate(rel_b) if rel_b else np.zeros(0, dtype=np.int64)
    s = np.concatenate(rel_s) if rel_s else np.zeros(0, dtype=np.int8)
    neg = s < 0
    u = np.concatenate([2 * a, 2 * a + 1])
    w = np.concatenate([2 * b + neg, 2 * b + (~neg)])
    n_nodes = 2 * total
    g = coo_matrix(
        (np.ones(len(u), dtype=np.int8), (u, w)), shape=(n_nodes, n_nodes)
    )
    _, comp = connected_components(g, directed=False)
    comp_plus = comp[0::2]
    comp_minus = comp[1::2]
    alive = comp_plus != comp_minus
    pair_id = np.minimum(comp_plus, comp_minus)
    live_ids = np.unique(pair_id[alive])
    live_index = {int(pid): i for i, pid in enumerate(live_ids)}
    nlive = len(live_ids)
    col_sign = np.where(comp_plus < comp_minus, 1, -1)

    # IHX rows, projected onto live coordinates
    row_blocks = []
    for ci, rep in enumerate(reps):
        edges = _edges_of(rep)
        for e_idx in range(len(edges)):
            terms = _ihx_term_transports(rep, e_idx, reps, policy)
            if terms is None:
                continue
            block = np.zeros((space.size, nlive), dtype=np.int64)
            for term in terms:
                if term is None:
                    continue
                ti, em, vm, ssign, rev, _flags = term
                sign = (ssign * (-1) ** rev) if odd else 1
                te = space.position_table_e(em)
                tv = space.position_table_v(vm)
                cols = (
                    ti * space.size
                    + tv[np.repeat(all_v, space.ne)] * space.ne
                    + te[np.tile(all_e, space.nv)]
                )
                ok = alive[cols]
                idx = np.array(
                    [live_index[int(p)] for p in pair_id[cols[ok]]], dtype=np.int64
                )
                contrib = sign * col_sign[cols[ok]]
                block[np.nonzero(ok)[0], idx] += contrib
            row_blocks.append(block)
    if row_blocks:
        rows = np.concatenate(row_blocks, axis=0)
        rows = rows[np.any(rows != 0, axis=1)]
        if len(rows):
            lead = np.argmax(rows != 0, axis=1)
            flip = rows[np.arange(len(rows)), lead] < 0
            rows[flip] = -rows[flip]
            rows = np.unique(rows, axis=0)
    else:
        rows = np.zeros((0, nlive), dtype=np.int64)

    m = SparseIntMatrix.from_dense(rows.tolist()) if len(rows) else SparseIntMatrix(
        0, nlive, []
    )
    ihx_rank = rank(m) if nlive else 0
    dim = nlive - ihx_rank
    return {
        "oracle": True,
        "k": k,
        "convention": convention.value,
        "tadpoles": policy.value,
        "num_classes": ncls,
        "basis_size": total,
        "rank": total - nlive + ihx_rank,
        "dim": dim,
    }


def brute_dimension_directed(
    k: int,
    convention: Convention,
    policy: TadpolePolicy = TadpolePolicy.EXCLUDE,
) -> dict:
    """Fully literal variant with explicit direction coordinates (k = 1 only).

    Columns are (labelling, direction bits); single-edge reversal is its own
    relation row with sign -1 (odd) or +1 (even); identification rows carry
    only the structural permutation parities.  Used as a paranoid cross-check
    of the direction-normalized formulation.
    """
    if k != 1:
        raise ResourceLimit("directed oracle variant is exercised at k = 1 only")
    reps = _grid_classes(k, policy)
    space = _LabelSpace(k)
    nel = 3 * k
    ndir = 1 << nel
    size = space.size * ndir
    total = len(reps) * size
    odd = convention is Convention.ODD

    def col(ci, vi, ei, dbits):
        return ((ci * space.nv + vi) * space.ne + ei) * ndir + dbits

    rels: list[tuple[int, int, int]] = []
    e_taus = [
        tuple(j + 1 if x == j else j if x == j + 1 else x for x in range(nel))
        for j in range(nel - 1)
    ]
    v_taus = [
        tuple(j + 1 if x == j else j if x == j + 1 else x for x in range(2 * k))
        for j in range(2 * k - 1)
    ]
    for ci, rep in enumerate(reps):
        autos = []
        for dmap in _isos(list(rep), list(rep), all_of_them=True):
            em, vm, se, sv, _ = _map_signature(list(rep), list(rep), dmap)
            revflags = [1 if dmap[a] > dmap[b] else 0 for a, b in _edges_of(rep)]
            autos.append((em, vm, se * sv, revflags))
        for vi, vperm in enumerate(space.vperms):
            for ei, eperm in enumerate(space.eperms):
                for dbits in range(ndir):
                    c = col(ci, vi, ei, dbits)
                    for tau in e_taus:
                        ei2 = space.eindex[tuple(tau[x] for x in eperm)]
                        rels.append((c, col(ci, vi, ei2, dbits), -1))
                    for tau in v_taus:
                        vi2 = space.vindex[tuple(tau[x] for x in vperm)]
                        rels.append((c, col(ci, vi2, ei, dbits), 1))
                    for x in range(nel):
                        rels.append(
                            (c, col(ci, vi, ei, dbits ^ (1 << x)), -1 if odd else 1)
                        )
                    for em, vm, ssign, revflags in autos:
                        vminv = [0] * len(vm)
                        for i2, v2 in enumerate(vm):
                            vminv[v2] = i2
                        eminv = [0] * len(em)
                        for i2, v2 in enumerate(em):
                            eminv[v2] = i2
                        vi2 = space.vindex[
                            tuple(vperm[vminv[j]] for j in range(len(vm)))
                        ]
                        ei2 = space.eindex[
                            tuple(eperm[eminv[j]] for j in range(len(em)))
                        ]
                        d2 = 0
                        for x in range(nel):
                            bit = (dbits >> x) & 1
                            d2 |= (bit ^ revflags[x]) << em[x]
                        rels.append(
                            (c, col(ci, vi2, ei2, d2), ssign if odd else 1)
                        )

    a = np.array([r[0] for r in rels], dtype=np.int64)
    b = np.array([r[1] for r in rels], dtype=np.int64)
    s = np.array([r[2] for r in rels], dtype=np.int8)
    neg = s < 0
    u = np.concatenate([2 * a, 2 * a + 1])
    w = np.concatenate([2 * b + neg, 2 * b + (~neg)])
    n_nodes = 2 * total
    g = coo_matrix(
        (np.ones(len(u), dtype=np.int8), (u, w)), shape=(n_nodes, n_nodes)
    )
    _, comp = connected_components(g, directed=False)
    comp_plus, comp_minus = comp[0::2], comp[1::2]
    alive = comp_plus != comp_minus
    pair_id = np.minimum(comp_plus, comp_minus)
    live_ids = np.unique(pair_id[alive])
    live_index = {int(p): i for i, p in enumerate(live_ids)}
    nlive = len(live_ids)
    col_sign = np.where(comp_plus < comp_minus, 1, -1)

    rows = []
    for ci, rep in enumerate(reps):
        edges = _edges_of(rep)
        for e_idx in range(len(edges)):
            terms = _ihx_term_transports(rep, e_idx, reps, policy)
            if terms is None:
                continue
            for vi, vperm in enumerate(space.vperms):
                for ei, eperm in enumerate(space.eperms):
                    for dbits in range(ndir):
                        vec = [0] * nlive
                        for term in terms:
                            if term is None:
                                continue
                            ti, em, vm, ssign, _rev, revflags = term
                            vminv = [0] * len(vm)
                            for i2, v2 in enumerate(vm):
                                vminv[v2] = i2
                            eminv = [0] * len(em)
                            for i2, v2 in enumerate(em):
                                eminv[v2] = i2
                            vi2 = space.vindex[
                                tuple(vperm[vminv[j]] for j in range(len(vm)))
                            ]
                            ei2 = space.eindex[
                                tuple(eperm[eminv[j]] for j in range(len(em)))
                            ]
                            d2 = 0
                            for x in range(nel):
                                bit = (dbits >> x) & 1
                                d2 |= (bit ^ revflags[x]) << em[x]
                            cc = col(ti, vi2, ei2, d2)
                            if alive[cc]:
                                coeff = (ssign if odd else 1) * int(col_sign[cc])
                                vec[live_index[int(pair_id[cc])]] += coeff
                        if any(vec):
                            lead = next(x for x in vec if x)
                            if lead < 0:
                                vec = [-x for x in vec]
                            rows.append(tuple(vec))
    rows = sorted(set(rows))
    m = (
        SparseIntMatrix.from_dense([list(r) for r in rows])
        if rows
        else SparseIntMatrix(0, nlive, [])
    )
    ihx_rank = rank(m) if nlive else 0
    return {
        "oracle": True,
        "directed": True,
        "k": k,
        "convention": convention.value,
        "tadpoles": policy.value,
        "num_classes": len(reps),
        "basis_size": total,
        "rank": total - nlive + ihx_rank,
        "dim": nlive - ihx_rank,
    }

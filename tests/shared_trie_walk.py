"""The trie lookup that `trihom.multigraph.ClassTable` used before its tries
were bucketed by vertex invariants, kept as the reference the bucketed
lookup is compared against: one trie holds every representative's code,
and the walk starts from every seed of the min-code search.
"""

from __future__ import annotations

from itertools import permutations
from typing import Sequence


def shared_trie(classes) -> dict:
    """One trie of the codes of every class's representative, with the
    class in place of the last level's dict."""
    trie: dict = {}
    for c in classes:
        *head, last = c.rep.partner
        node = trie
        for x in head:
            node = node.setdefault(x, {})
        node[last] = c
    return trie


def trie_walk(partner: Sequence[int], trie: dict) -> tuple[object, list[int]] | None:
    """A relabelling of the complete pairing `partner` whose code is in
    `trie`: the payload and the dart map (old dart -> new dart) at the first
    code found in the min-code search's order, or None."""
    nd = len(partner)
    nv = nd // 3
    loop_vertices = [
        v for v in range(nv) if v in (partner[3 * v] // 3, partner[3 * v + 1] // 3)
    ]
    seeds = loop_vertices or range(nv)

    dmap = [-1] * nd  # old dart -> new slot
    dinv = [-1] * nd  # new slot -> old dart
    vmap = [-1] * nv  # old vertex -> new vertex
    vinv = [-1] * nv  # new vertex -> old vertex

    def walk(pos: int, vnext: int, node) -> tuple[object, list[int]] | None:
        assigned: list[int] = []
        revealed: list[int] = []
        found = None
        while True:
            if pos == nd:
                found = node, dmap.copy()
                break
            x = dinv[pos]
            if x == -1:
                w = vinv[pos // 3]
                free = [y for y in (3 * w, 3 * w + 1, 3 * w + 2) if dmap[y] == -1]
                if len(free) > 1:
                    for y in free:
                        dmap[y] = pos
                        dinv[pos] = y
                        found = walk(pos, vnext, node)
                        dmap[y] = -1
                        dinv[pos] = -1
                        if found is not None:
                            break
                    break
                x = free[0]
                dmap[x] = pos
                dinv[pos] = x
                assigned.append(x)
            y = partner[x]
            if dmap[y] != -1:
                c = dmap[y]
                reveal = -1
            else:
                w = y // 3
                t = vmap[w]
                if t == -1:
                    c = 3 * vnext
                    reveal = w
                else:
                    c = 3 * t
                    while dinv[c] != -1:
                        c += 1
                    reveal = -1
            node = node.get(c)
            if node is None:
                break
            if reveal != -1:
                vmap[reveal] = vnext
                vinv[vnext] = reveal
                revealed.append(reveal)
                vnext += 1
            if dmap[y] == -1:
                dmap[y] = c
                dinv[c] = y
                assigned.append(y)
            pos += 1
        for d in assigned:
            dinv[dmap[d]] = -1
            dmap[d] = -1
        for w in revealed:
            vinv[vmap[w]] = -1
            vmap[w] = -1
        return found

    for seed in seeds:
        vmap[seed] = 0
        vinv[0] = seed
        for order in permutations((3 * seed, 3 * seed + 1, 3 * seed + 2)):
            for i, d in enumerate(order):
                dmap[d] = i
                dinv[i] = d
            found = walk(0, 1, trie)
            for i, d in enumerate(order):
                dmap[d] = -1
                dinv[i] = -1
            if found is not None:
                return found
        vmap[seed] = -1
        vinv[0] = -1
    return None

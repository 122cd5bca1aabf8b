"""An exhaustive minimal-code search, written separately from
`trihom.multigraph`, kept as the reference its search is compared against:
the same minimal code and the same maps reaching it, in the same order (so
the same first witness map and the same automorphism group), and the same
verdict when a pairing is its own bound.
"""

from __future__ import annotations

from itertools import permutations
from typing import Sequence

from trihom.multigraph import DartGraph


class _BelowBound(Exception):
    """A search prefix fell strictly below the bound passed to `min_code_maps`."""


def min_code_maps(
    g: DartGraph,
    collect_all: bool,
    bound: Sequence[int] | None = None,
) -> tuple[tuple[int, ...], list[list[int]]] | None:
    """Lexicographically least partner code over all relabellings.

    Returns the code and the dart maps (old dart -> new dart) achieving it;
    one map unless collect_all, every map reaching the code otherwise (one
    per automorphism).  The search reveals vertices in discovery
    order; the only branch points are the seed and the order in which a
    partially revealed vertex exposes its remaining darts.

    `bound`, if given, is a code that g achieves.  The search then starts
    tight against it and returns None at the first prefix strictly below
    it, so a non-None result means `bound` is the minimal code.  A bound
    that no relabelling reaches raises ValueError.
    """
    nv = g.num_vertices
    nd = g.num_darts
    partner = g.partner

    best: list[int] | None = None if bound is None else list(bound)
    best_maps: list[list[int]] = []

    loop_vertices = [
        v for v in range(nv) if any(partner[d] // 3 == v for d in g.darts_of(v))
    ]
    seeds = loop_vertices if loop_vertices else list(range(nv))

    dmap = [-1] * nd  # old dart -> new slot
    dinv = [-1] * nd  # new slot -> old dart
    vmap = [-1] * nv  # old vertex -> new vertex

    def search(pos: int, vnext: int, code: list[int], tight: bool) -> bool:
        """Extend `code` from slot `pos`; True if a new best was set below.

        `tight` means code[:pos] == best[:pos], so a slot above best[pos]
        prunes the branch.  A new best shares the current prefix, so the
        remaining siblings are compared against it again.
        """
        nonlocal best, best_maps
        if pos == nd:
            if best is None or code < best:
                best = list(code)
                best_maps = [dmap.copy()]
                return True
            if code == best and (collect_all or not best_maps):
                best_maps.append(dmap.copy())
            return False
        x = dinv[pos]
        if x == -1:
            # slot belongs to a partially revealed vertex; branch over its
            # unassigned darts
            w = -1
            for ov in range(nv):
                if vmap[ov] == pos // 3:
                    w = ov
                    break
            improved = False
            for y in g.darts_of(w):
                if dmap[y] == -1:
                    dmap[y] = pos
                    dinv[pos] = y
                    if search(pos, vnext, code, tight):
                        improved = tight = True
                    dmap[y] = -1
                    dinv[pos] = -1
            return improved
        y = partner[x]
        if dmap[y] != -1:
            c = dmap[y]
            new_vnext = vnext
            reveal = -1
        else:
            w = y // 3
            if vmap[w] == -1:
                c = 3 * vnext
                reveal = w
                new_vnext = vnext + 1
            else:
                t = vmap[w]
                c = -1
                for s in (3 * t, 3 * t + 1, 3 * t + 2):
                    if dinv[s] == -1:
                        c = s
                        break
                reveal = -1
                new_vnext = vnext
        if tight:
            if c > best[pos]:
                return False
            if c < best[pos]:
                if bound is not None:
                    raise _BelowBound
                tight = False
        if reveal != -1:
            vmap[reveal] = vnext
        if dmap[y] == -1:
            dmap[y] = c
            dinv[c] = y
            assigned = True
        else:
            assigned = False
        code.append(c)
        improved = search(pos + 1, new_vnext, code, tight)
        code.pop()
        if assigned:
            dmap[y] = -1
            dinv[c] = -1
        if reveal != -1:
            vmap[reveal] = -1
        return improved

    try:
        for seed in seeds:
            darts = g.darts_of(seed)
            for order in permutations(darts):
                vmap[seed] = 0
                for i, d in enumerate(order):
                    dmap[d] = i
                    dinv[i] = d
                search(0, 1, [], best is not None)
                for i, d in enumerate(order):
                    dmap[d] = -1
                    dinv[i] = -1
                vmap[seed] = -1
    except _BelowBound:
        return None

    if not best_maps:
        raise ValueError(f"bound {tuple(bound)} is not a code of {g!r}")
    return tuple(best), best_maps

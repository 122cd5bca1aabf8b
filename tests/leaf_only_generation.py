"""The leaf-only orderly generator that `trihom.multigraph` used before
prefix pruning, kept as the reference the pruned enumeration is compared
against, plus the exhaustive pairing oracle.

`pairing_dfs` walks every DFS pairing; `orderly_codes` keeps a pairing when
the exhaustive reference search, bounded by the pairing, finds no code below
it, so it goes through neither the tie-state test that enumeration runs nor
the pruned minimal-code search.  Nothing is cut
before a pairing is complete, so these are the codes prefix pruning must
reproduce.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import exhaustive_search
from trihom import multigraph as mg


def pairing_dfs(
    k: int, include_loops: bool, start: Sequence[int] | None = None
) -> Iterator[tuple[int, ...]]:
    """Connected pairings, one discovery-normalized presentation per slot orbit.

    Vertices are revealed in discovery order and each vertex's free darts
    are consumed smallest first, so every isomorphism class appears (possibly
    several times) while the bulk of the labelled redundancy is skipped.
    `start`, a partial pairing (-1 for unknown) that is a node of this DFS,
    restricts the walk to that node's subtree.
    """
    nv = 2 * k
    nd = 6 * k
    partner = [-1] * nd if start is None else list(start)

    def rec(touched: int):
        x = -1
        for d in range(3 * touched):
            if partner[d] == -1:
                x = d
                break
        if x == -1:
            if touched == nv:
                yield tuple(partner)
            return
        cands = []
        for w in range(touched):
            for y in (3 * w, 3 * w + 1, 3 * w + 2):
                if partner[y] == -1 and y != x:
                    if w != x // 3 or include_loops:
                        cands.append(y)
                    break
        if touched < nv:
            cands.append(3 * touched)
        for y in cands:
            fresh = y >= 3 * touched
            partner[x] = y
            partner[y] = x
            yield from rec(touched + 1 if fresh else touched)
            partner[x] = -1
            partner[y] = -1

    touched = max((d // 3 + 1 for d, p in enumerate(partner) if p != -1), default=1)
    yield from rec(touched)


def orderly_codes(k: int, include_loops: bool) -> list[tuple[int, ...]]:
    """The DFS pairings that are their own minimal code, sorted: one per
    class."""
    return sorted(
        p
        for p in pairing_dfs(k, include_loops)
        if exhaustive_search.min_code_maps(
            mg.DartGraph(2 * k, p, True), collect_all=False, bound=p
        )
        is not None
    )


def all_pairings(k: int) -> Iterator[tuple[int, ...]]:
    """Every fixed-point-free involution on 6k darts (exponential)."""
    nd = 6 * k
    partner = [-1] * nd

    def rec():
        x = -1
        for d in range(nd):
            if partner[d] == -1:
                x = d
                break
        if x == -1:
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

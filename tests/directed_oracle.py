"""The oracle's fully literal variant, with explicit direction coordinates
(k = 1 only), kept as the reference `trihom.oracle.brute_dimension` is
compared against.

Columns are (labelling, direction bits) instead of labellings with every
edge directed min->max; single-edge reversal is its own relation row with
sign -1 (odd) or +1 (even), and identification rows carry only the
structural permutation parities, their reversals moving direction bits.
Classes, transports and the signed-component solve are the oracle's own.
"""

from __future__ import annotations

import numpy as np

from trihom.errors import ResourceLimit
from trihom.multigraph import TadpolePolicy
from trihom.oracle import _grid_classes, _LabelSpace, _quotient
from trihom.orientation import Convention


def _directions(edge_map, reversed_) -> np.ndarray:
    """Direction bits after a transport: bit x, flipped when edge x is
    reversed, moves to bit edge_map[x]."""
    moves = list(enumerate(zip(edge_map, reversed_)))
    return np.array(
        [
            sum((d >> x & 1 ^ r) << ex for x, (ex, r) in moves)
            for d in range(1 << len(edge_map))
        ],
        dtype=np.int64,
    )


def brute_dimension_directed(
    k: int,
    convention: Convention,
    policy: TadpolePolicy = TadpolePolicy.EXCLUDE,
) -> dict:
    if k != 1:
        raise ResourceLimit("directed oracle variant is exercised at k = 1 only")
    classes, marks = _grid_classes(k, policy)
    space = _LabelSpace(k)
    ndir = 1 << 3 * k
    odd = convention is Convention.ODD
    bits = np.arange(ndir, dtype=np.int64)

    def columns(ci, labels, dirs):
        return ((ci * space.size + labels)[:, None] * ndir + dirs).ravel()

    def carry(ci, edge_map, vmap, struct, reversed_):
        dirs = _directions(edge_map, reversed_)
        return columns(ci, space.carried(edge_map, vmap), dirs), struct if odd else 1

    moves = [(columns(0, cols, bits), sign) for cols, sign in space.relabellings()]
    moves += [
        (columns(0, space.columns(), bits ^ (1 << x)), -1 if odd else 1)
        for x in range(3 * k)
    ]
    return {
        "oracle": True,
        "directed": True,
        "k": k,
        "convention": convention.value,
        "tadpoles": policy.value,
        "num_classes": len(classes),
        **_quotient(classes, marks, policy, space.size * ndir, moves, carry),
    }

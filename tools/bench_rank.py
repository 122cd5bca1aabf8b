"""Rank-stage timings and the matrix facts behind them, as JSON on stdout.

    PYTHONPATH=src python tools/bench_rank.py [--k 5 6 7] [--repeats N]

For each k and both conventions without loops, builds the class basis and
the relation matrix once, then times `exactla.rank` on that matrix
`--repeats` times and the rank mod each prime of the modular cross-check
once.  The primes are `exactla.PRIMES`, or `exactla.default_primes(m)` in
a checkout older than that constant; the rank mod p is the number of
pivots of `exactla._echelon(m, p)`, or `exactla._rank_mod_p_exact(m, p)`
in a checkout that still has it.  So the same script measures any
checkout put on PYTHONPATH: whatever elimination that checkout's
`exactla.rank` runs is what its `dimension` runs for the rank.  Here that
is `exactla.kernel`, the echelon of the matrix itself over Q plus a
back-substitution per free column; older checkouts ran a tracked
elimination of the transpose.  A matrix past the `AK_MAX_MATRIX` gate
(here, an echelon storing more entries than it allows; in older
checkouts, more rows x columns) has no exact rank, and `rank` and
`dimension` read null; here the gate covers the echelons mod p too, and
a prime whose echelon it stops reads a null rank.  The matrix
`content_hash`, shape, nnz, ranks and dimension let two checkouts'
outputs be compared.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from trihom import exactla
from trihom.errors import ResourceLimit
from trihom import homology as hom
from trihom.multigraph import TadpolePolicy
from trihom.orientation import Convention


def case(k: int, convention: Convention, repeats: int) -> dict:
    start = time.perf_counter()
    basis = hom.class_basis(k, convention, TadpolePolicy.EXCLUDE)
    rel = hom.relation_matrix(basis)
    build_s = time.perf_counter() - start
    m = rel.matrix
    r, walls = None, []
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            r = exactla.rank(m)
            walls.append(round(time.perf_counter() - start, 4))
    except ResourceLimit:
        pass  # past the AK_MAX_MATRIX gate: no exact rank
    primes = getattr(exactla, "PRIMES", None) or exactla.default_primes(m)
    rank_mod_p = getattr(exactla, "_rank_mod_p_exact", None) or (
        lambda m, p: len(exactla._echelon(m, p))
    )
    modular = []
    for p in primes:
        start = time.perf_counter()
        try:
            rp = rank_mod_p(m, p)
        except ResourceLimit:
            rp = None  # past the AK_MAX_MATRIX gate
        modular_s = round(time.perf_counter() - start, 3)
        modular.append({"prime": p, "rank": rp, "s": modular_s})
    return {
        "k": k,
        "convention": convention.value,
        "tadpoles": "exclude",
        "classes": len(basis.classes),
        "generators": basis.num_generators,
        "rows": m.num_rows,
        "nnz": m.nnz,
        "content_hash": m.content_hash(),
        "rank": r,
        "modular_rank": max(
            (x["rank"] for x in modular if x["rank"] is not None), default=None
        ),
        "dimension": None if r is None else basis.num_generators - r,
        "basis_and_relations_s": round(build_s, 2),
        "rank_s": walls,
        "modular": modular,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--k", type=int, nargs="+", default=[5, 6, 7])
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    cases = [
        case(k, conv, args.repeats)
        for k in args.k
        for conv in (Convention.ODD, Convention.EVEN)
    ]
    json.dump({"python": sys.version.split()[0], "cases": cases}, sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())

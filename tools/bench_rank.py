"""Rank-stage timings and the matrix facts behind them, as JSON on stdout.

    PYTHONPATH=src python tools/bench_rank.py [--k 5 6 7] [--repeats N]

For each k and both conventions without loops, builds the class basis and
the relation matrix once, then times `exactla.kernel` on that matrix
`--repeats` times and the rank mod each prime of `exactla.PRIMES` once.
The kernel is what `dimension` runs for its functionals: the echelon of
the matrix over Q plus a back-substitution per free column; the rank is
the columns less its size.  The rank mod p is the number of pivots of
`exactla._echelon(m, p)`, which `dimension` makes at the first prime
only, unless that prime misses the rank.  A matrix past the
`AK_MAX_MATRIX` gate (an echelon storing more entries than it allows) has
no exact rank, and `rank` and `dimension` read null; the gate covers the
echelons mod p too, and a prime whose echelon it stops reads a null rank.
The script reads only the internals of the tree it sits in; to compare
with another checkout, run that checkout's own copy and compare the
matrix `content_hash`, shape, nnz, ranks and dimension.
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
            r = m.num_cols - len(exactla.kernel(m))
            walls.append(round(time.perf_counter() - start, 4))
    except ResourceLimit:
        pass  # past the AK_MAX_MATRIX gate: no exact rank
    modular = []
    for p in exactla.PRIMES:
        start = time.perf_counter()
        try:
            rp = len(exactla._echelon(m, p))
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
        "kernel_s": walls,
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

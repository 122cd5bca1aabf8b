"""Rank-stage timings and the matrix facts behind them, as JSON on stdout.

    PYTHONPATH=src python tools/bench_rank.py [--k 5 6 7] [--repeats N]

For each k and both conventions without loops, builds the class basis and
the relation matrix once, then times `exactla.rank` on that matrix
`--repeats` times and `modular_rank` at the default primes once.  Only
public names are used, so the same script measures any checkout put on
PYTHONPATH: whatever elimination that checkout's `exactla.rank` runs is
what its `dimension` runs for the rank.  The matrix `content_hash`, shape,
nnz, rank and dimension let two checkouts' outputs be compared.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from trihom import exactla
from trihom import homology as hom
from trihom.multigraph import TadpolePolicy
from trihom.orientation import Convention


def case(k: int, convention: Convention, repeats: int) -> dict:
    start = time.perf_counter()
    basis = hom.class_basis(k, convention, TadpolePolicy.EXCLUDE)
    rel = hom.relation_matrix(basis)
    build_s = time.perf_counter() - start
    m = rel.matrix
    walls = []
    for _ in range(repeats):
        start = time.perf_counter()
        r = exactla.rank(m)
        walls.append(round(time.perf_counter() - start, 4))
    start = time.perf_counter()
    rm = exactla.modular_rank(m, exactla.default_primes(m)) if m.num_rows else 0
    modular_s = time.perf_counter() - start
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
        "modular_rank": rm,
        "dimension": basis.num_generators - r,
        "basis_and_relations_s": round(build_s, 2),
        "rank_s": walls,
        "modular_rank_s": round(modular_s, 3),
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

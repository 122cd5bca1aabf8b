#!/usr/bin/env python3
"""Regenerate data/census.json: derived counts with no asserted expectations.

Covers class counts (k <= 7, both tadpole policies), quotient
dimensions for k <= 4 (both policies) and for k = 5..7 without tadpoles
(both conventions), and the vertex-typing feasibility census.  Dimensions
for k >= 3 have no external anchor; they are recorded here as computed
values.  A full run takes a few minutes, most of it at k = 7.
"""

import argparse
import json
import pathlib
import sys
import time

from trihom import homology, multigraph as mg, surgery
from trihom.multigraph import TadpolePolicy
from trihom.orientation import Convention

CENSUS = pathlib.Path(__file__).resolve().parent.parent / "data" / "census.json"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=CENSUS,
        help="where to write the census JSON (default: data/census.json)",
    )
    out = parser.parse_args(argv).out
    census = {"class_counts": {}, "dimensions": {}, "typing": {}}
    t0 = time.time()
    for k in range(1, 8):
        for pol in (TadpolePolicy.EXCLUDE, TadpolePolicy.INCLUDE):
            n = sum(1 for _ in mg.enumerate_trivalent(k, pol))
            census["class_counts"][f"k{k}_{pol.value}"] = n
            print(f"count k={k} {pol.value}: {n}  [{time.time() - t0:.1f}s]")
    # conventions innermost: the two conventions of one (k, policy) share
    # one enumeration (homology._classified keeps the last (k, policy))
    grid = [
        (k, conv, pol)
        for k in range(1, 8)
        for pol in (TadpolePolicy.EXCLUDE, TadpolePolicy.INCLUDE)
        for conv in (Convention.EVEN, Convention.ODD)
        if k <= 4 or pol is TadpolePolicy.EXCLUDE
    ]
    for k, conv, pol in grid:
        rep = homology.dimension(k, conv, pol)
        key = f"k{k}_{conv.value}_{pol.value}"
        census["dimensions"][key] = {
            "num_classes": rep.num_classes,
            "num_generators": rep.num_generators,
            "num_rows": rep.num_rows,
            "rank": rep.rank,
            "dimension": rep.dimension,
        }
        print(f"dim {key}: {rep.dimension}  [{time.time() - t0:.1f}s]")
    infeasible = []
    total = 0
    for k in range(1, 5):
        for g in mg.enumerate_trivalent(k, TadpolePolicy.EXCLUDE):
            total += 1
            # a typing gives every vertex one or two big-sphere ends
            big = [0] * g.num_vertices
            for dart in surgery.assign_vertex_types(g)[0]:
                big[dart // 3] += 1
            if not all(n in (1, 2) for n in big):
                infeasible.append(g.code_str())
    census["typing"] = {
        "graphs_checked_k_le_4_exclude": total,
        "infeasible": infeasible,
    }
    print(f"typing census: {total} graphs, {len(infeasible)} infeasible")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(census, sort_keys=True, indent=2) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    sys.exit(main())

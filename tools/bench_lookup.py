"""Counters and timings of IHX-term and query lookups, as JSON on stdout.

    PYTHONPATH=src python tools/bench_lookup.py [--repeats N] [--cases 4o,5o,6e]

Everything is counted from outside the program, by the call-counting
wrappers of `_counting.Counted` and the profile hook of `_counting.Frames`
on nested function frames.  The script reads only the internals of the
tree it sits in; to compare with another checkout, run that checkout's
own copy.

- `relations`: for each case of `--cases` (k and o/e for the odd or even
  convention, without loops; k=4 and 5 odd by default), the trie walks
  made inside `relation_matrix`, its IHX expansions (rows, zero rows and
  duplicates), the non-loop generator edges it skipped by the orbit rule
  and by the term rule, and `relation_matrix` wall times over `--repeats`
  further runs on the same basis, uncounted.  It runs no min-code search,
  as `test_ihx_terms_walk_the_trie_not_the_search` asserts.  The basis
  and matrix themselves, their shape, content hash, rank and dimension,
  are `bench_rank.py`'s.
- `frames`: 2,000 random relabellings of the k=4 classes without loops (100
  per class): recursive frames of the tie walk that the min-code search
  behind `canonical_form` runs (`_prefix_ties.extend`) and of the trie walk
  behind `ClassTable.find`, per lookup, and the seeds each starts per
  lookup (the distinct values of the outer function's `seed` loop
  variable at its calls of the recursive one); for the trie walk also the
  orders of a seed's darts it starts per lookup (those calls), and the
  dicts of the class table, its tries and the levels that key them.
- `lookup_walls`: on the same 2,000 graphs, `--repeats` uncounted wall
  times of all their `ClassTable.find` calls and of all their
  `vertex_invariants` calls, with the medians per call in microseconds.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time

from _counting import Counted, Frames
from trihom import homology as hom
from trihom import multigraph as mg
from trihom.multigraph import TadpolePolicy
from trihom.orientation import Convention


def relations(k, convention, repeats):
    basis = hom.class_basis(k, convention, TadpolePolicy.EXCLUDE)
    walks = Counted(mg, "_trie_walk")
    with walks:
        rel = hom.relation_matrix(basis)
    walls = []
    for _ in range(repeats):
        start = time.perf_counter()
        hom.relation_matrix(basis)
        walls.append(round(time.perf_counter() - start, 3))
    # the non-loop generator edges that are not the least of their orbit
    orbit_skips = sum(
        least != e and not c.rep.is_loop(e)
        for c in basis.generators
        for e, least in enumerate(basis.orbit_min[c.class_id])
    )
    return {
        "k": k,
        "convention": convention.value,
        "expansions": len(rel.rows) + len(rel.zero_rows) + rel.duplicates,
        "orbit_skips": orbit_skips,
        "term_skips": rel.skipped - orbit_skips,
        "trie_walks_in_relation_matrix": walks.count,
        "relation_matrix_wall_s": walls,
    }


def lookup_graphs(n_per_class=100):
    """The k=4 odd basis without loops and `n_per_class` random relabellings
    of each of its classes."""
    basis = hom.class_basis(4, Convention.ODD, TadpolePolicy.EXCLUDE)
    rng = random.Random(2000)
    graphs = [
        mg.relabel(c.rep, mg.random_relabelling(c.rep, rng))
        for c in basis.classes
        for _ in range(n_per_class)
    ]
    return basis, graphs


def frames(basis, graphs):
    search, walk = Frames(mg._prefix_ties, "extend"), Frames(mg._trie_walk, "walk")
    search.run(lambda: [mg.canonical_form(g) for g in graphs])
    walk.run(lambda: [basis.table.find(g.partner) for g in graphs])
    n = len(graphs)
    return {
        "lookups": n,
        "search_frames_per_lookup": round(search.count / n, 2),
        "search_seeds_per_lookup": round(len(search.seeds) / n, 2),
        "walk_frames_per_lookup": round(walk.count / n, 2),
        "walk_seeds_per_lookup": round(len(walk.seeds) / n, 2),
        "walk_orders_per_lookup": round(walk.starts / n, 2),
        "table_dicts": dicts(basis.table._buckets),
    }


def dicts(node):
    """The dicts nested in `node`, itself included."""
    return 1 + sum(dicts(v) for v in node.values() if isinstance(v, dict))


def lookup_walls(basis, graphs, repeats):
    """Wall times of `find` and of `vertex_invariants` over all `graphs`."""
    partners = [g.partner for g in graphs]
    calls = {
        "find": lambda: [basis.table.find(x) for x in partners],
        "vertex_invariants": lambda: [mg.vertex_invariants(g.partner) for g in graphs],
    }
    out = {}
    for name, call in calls.items():
        walls = []
        for _ in range(repeats):
            start = time.perf_counter()
            call()
            walls.append(round(time.perf_counter() - start, 4))
        out[f"{name}_wall_s"] = walls
        out[f"{name}_median_us_per_call"] = (
            round(statistics.median(walls) / len(graphs) * 1e6, 2) if walls else None
        )
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--cases", default="4o,5o", help="comma-separated k and o/e, e.g. 5o,5e"
    )
    args = parser.parse_args(argv)
    conventions = {"o": Convention.ODD, "e": Convention.EVEN}
    cases = [(int(c[:-1]), conventions[c[-1]]) for c in args.cases.split(",")]
    basis, graphs = lookup_graphs()
    result = {
        "relations": [relations(k, conv, args.repeats) for k, conv in cases],
        "frames": frames(basis, graphs),
        "lookup_walls": lookup_walls(basis, graphs, args.repeats),
    }
    json.dump(result, sys.stdout, indent=2)
    print()


if __name__ == "__main__":
    main()

"""Counters and timings of IHX-term and query lookups, as JSON on stdout.

    PYTHONPATH=src python tools/bench_lookup.py [--repeats N] [--cases 4o,5o,6e]

Everything is counted from outside the program, by replacing module
attributes with counting wrappers or by a profile hook on nested function
frames, so the same script measures any checkout put on PYTHONPATH.  Figures
that a checkout's code does not have (a tree without the trie walk) read
null.

- `relations`: for each case of `--cases` (k and o/e for the odd or even
  convention, without loops; k=4 and 5 odd by default), the
  `_min_code_ties` calls and trie walks made inside `relation_matrix`, its
  IHX expansions (rows, zero rows and duplicates), the non-loop generator
  edges it skipped by the orbit rule and by the term rule, the matrix
  shape, content hash, rank and dimension, and `relation_matrix` wall
  times over `--repeats` further runs on the same basis, uncounted.
- `frames`: 2,000 random relabellings of the k=4 classes without loops (100
  per class): recursive frames of the tie walk that the min-code search
  behind `canonical_form` runs (`_prefix_ties.extend`) and of the trie walk
  behind `ClassTable.find`, per lookup, and the seeds each starts per
  lookup (the distinct values of the outer function's `seed` loop
  variable at its calls of the recursive one).
- `lookup_walls`: on the same 2,000 graphs, `--repeats` uncounted wall
  times of all their `ClassTable.find` calls and of all their
  `vertex_invariants` calls, with the medians per call in microseconds.
"""

from __future__ import annotations

import argparse
import inspect
import json
import random
import statistics
import sys
import time

from trihom import exactla
from trihom import homology as hom
from trihom import multigraph as mg
from trihom.multigraph import TadpolePolicy
from trihom.orientation import Convention


class _Counted:
    """Replace `module.attr` with a wrapper counting its calls."""

    def __init__(self, module, attr):
        self.module, self.attr = module, attr
        self.fn = getattr(module, attr, None)
        self.calls = 0

    def __enter__(self):
        if self.fn is None:
            return self

        def wrapper(*args, **kwargs):
            self.calls += 1
            return self.fn(*args, **kwargs)

        setattr(self.module, self.attr, wrapper)
        return self

    def __exit__(self, *exc):
        if self.fn is not None:
            setattr(self.module, self.attr, self.fn)

    @property
    def count(self):
        return self.calls if self.fn is not None else None


def _nested_code(fn, name):
    """The code object of the function `name` defined inside `fn`."""
    if fn is None:
        return None
    return next(c for c in fn.__code__.co_consts if getattr(c, "co_name", None) == name)


def _frames(fn, code, call):
    """Frames of `code`, a function nested in `fn`, entered while `call()`
    runs, and the seeds started: over the calls of `fn`, the distinct
    values of its `seed` loop variable at its calls of `code`."""
    count = 0
    calls = 0
    seeds: set[tuple[int, int]] = set()

    def profile(frame, event, arg):
        nonlocal count, calls
        if event != "call":
            return
        if frame.f_code is fn.__code__:
            calls += 1
        elif frame.f_code is code:
            count += 1
            if frame.f_back.f_code is fn.__code__:
                seeds.add((calls, frame.f_back.f_locals["seed"]))

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return count, len(seeds)


def _orbit_skips(basis):
    """The non-loop generator edges that are not the least of their orbit,
    or None for a basis without orbit maps."""
    orbit_min = getattr(basis, "orbit_min", None)
    if orbit_min is None:
        return None
    return sum(
        least != e and not c.rep.is_loop(e)
        for c in basis.generators
        for e, least in enumerate(orbit_min[c.class_id])
    )


def relations(k, convention, repeats):
    basis = hom.class_basis(k, convention, TadpolePolicy.EXCLUDE)
    # lookups call the walk in `multigraph`; in an older checkout,
    # `homology` imported it by name
    walker = hom if hasattr(hom, "_trie_walk") else mg
    searches, walks = _Counted(mg, "_min_code_ties"), _Counted(walker, "_trie_walk")
    with searches, walks:
        rel = hom.relation_matrix(basis)
    walls = []
    for _ in range(repeats):
        start = time.perf_counter()
        hom.relation_matrix(basis)
        walls.append(round(time.perf_counter() - start, 3))
    rank = exactla.rank(rel.matrix)
    skipped = getattr(rel, "skipped", None)
    orbit_skips = _orbit_skips(basis)
    return {
        "k": k,
        "convention": convention.value,
        "classes": len(basis.classes),
        "generators": basis.num_generators,
        "expansions": len(rel.rows) + len(rel.zero_rows) + rel.duplicates,
        "orbit_skips": orbit_skips,
        "term_skips": None if orbit_skips is None else skipped - orbit_skips,
        "rows": rel.matrix.num_rows,
        "content_hash": rel.matrix.content_hash(),
        "rank": rank,
        "dimension": basis.num_generators - rank,
        "min_code_ties_calls_in_relation_matrix": searches.count,
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


def _find_args(table, graphs):
    """What `table.find` takes for each graph: its pairing, or the graph
    itself in a checkout from before `find` took pairings."""
    if "g" in inspect.signature(table.find).parameters:
        return graphs
    return [g.partner for g in graphs]


def frames(basis, graphs):
    search = _nested_code(mg._prefix_ties, "extend")
    search_frames, search_seeds = _frames(
        mg._prefix_ties, search, lambda: [mg.canonical_form(g) for g in graphs]
    )
    trie_walk = getattr(mg, "_trie_walk", None)
    walk = _nested_code(trie_walk, "walk")
    keys = _find_args(basis.table, graphs)
    walk_frames, walk_seeds = (
        _frames(trie_walk, walk, lambda: [basis.table.find(x) for x in keys])
        if walk is not None
        else (None, None)
    )

    def per_lookup(n):
        return None if n is None else round(n / len(graphs), 2)

    return {
        "lookups": len(graphs),
        "search_frames_per_lookup": per_lookup(search_frames),
        "search_seeds_per_lookup": per_lookup(search_seeds),
        "walk_frames_per_lookup": per_lookup(walk_frames),
        "walk_seeds_per_lookup": per_lookup(walk_seeds),
    }


def lookup_walls(basis, graphs, repeats):
    """Wall times of `find` and of `vertex_invariants` over all `graphs`."""
    keys = _find_args(basis.table, graphs)
    calls = {
        "find": lambda: [basis.table.find(x) for x in keys],
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

"""Counters and timings of orderly enumeration, as JSON on stdout.

    PYTHONPATH=src python tools/bench_enum.py [--cases 4e,4i,...] [--time N]

Everything is counted from outside the program, by a wrapper around
`multigraph._prefix_ties` and by the profile hook of `_counting.Frames` on
its nested `extend`.  The script reads only the internals of the tree it
sits in; to compare with another checkout, run that checkout's own copy.
A case is k followed by `e` (no loops) or `i` (loops included); the
default cases are k=4..7 without loops and k=4..6 with them.

Per case, from one enumeration:
- `tested_nodes` and `cuts`: inner prefix tests run by the DFS and those
  that cut (calls of `_prefix_ties` on a partial pairing that return None);
- `leaf_tests` and `leaf_cuts`: tests of complete pairings and those that
  find a smaller code (calls of `_prefix_ties` on all 6k darts that return
  None);
- `prefix_test_frames`: recursive frames of the inner prefix tests as
  enumeration runs them (`_prefix_ties.extend` resumed);
- `leaf_test_frames`: the same frames of the leaf tests, so that the two
  fields together count every `extend` frame of an enumeration;
- `from_scratch_frames`: frames of `_prefix_ties.extend` when the same
  inner test is called at the same nodes with no tie states and every seed
  of `_seeds` fresh (the loop vertices, else the double-edge vertices, else
  every revealed vertex);
- `seeds_calls`: calls of `multigraph._seeds` by enumeration, one per
  tested node whose prefix does not start (3, 6) (a (3, 6) prefix's
  seeds are its revealed vertices, read off without `_seeds`);
- `tie_states`: states handed to inner tested nodes that pass (`given`),
  those returned as the same object because their next dart is still
  unpaired (`carried`), the rest, which were extended (`resumed`), and the
  most returned by one node (`most_held`);
- `classes` and `group_order_sum`: the classes enumerated and the sum of
  the orders of their automorphism groups, as enumeration yields them.

With `--time N` each case also gets the wall times of N further runs of
`list(enumerate_trivalent(k, policy))` and of `class_basis(k, odd,
policy)`, uncounted, and their medians.  Each `class_basis` run starts
from a cleared class memo (`homology._classified`), so every run
enumerates and classifies.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

from _counting import Counted, Frames
from trihom import homology as hom
from trihom import multigraph as mg
from trihom.multigraph import TadpolePolicy
from trihom.orientation import Convention

DEFAULT_CASES = "4e,5e,6e,7e,4i,5i,6i"


def counters(k, policy):
    nd = 6 * k
    prefix_ties, seeds_of = mg._prefix_ties, mg._seeds
    resumed, scratch, leaf = (Frames(prefix_ties, "extend") for _ in range(3))
    out = {"tested_nodes": 0, "cuts": 0, "leaf_tests": 0, "leaf_cuts": 0}
    ties_seen = {"given": 0, "carried": 0, "most_held": 0}

    def counted_test(partner, end, ties, fresh_seeds):
        if end == nd:
            out["leaf_tests"] += 1
            found = leaf.run(prefix_ties, partner, end, ties, fresh_seeds)
            out["leaf_cuts"] += found is None
            return found
        found = resumed.run(prefix_ties, partner, end, ties, fresh_seeds)
        # the vertices whose first dart is paired, a prefix in orderly
        # generation, seed the test from scratch
        touched = sum(partner[d] != -1 for d in range(0, nd, 3))
        scratch.run(prefix_ties, list(partner), end, [], seeds_of(partner, touched))
        out["tested_nodes"] += 1
        if found is None:
            out["cuts"] += 1
        else:
            ties_seen["given"] += len(ties)
            same = {id(t) for t in ties}
            ties_seen["carried"] += sum(id(t) in same for t in found)
            ties_seen["most_held"] = max(ties_seen["most_held"], len(found))
        return found

    mg._prefix_ties = counted_test
    try:
        with Counted(mg, "_seeds") as seeds_calls:
            orders = [len(group) for _, group in mg.enumerate_classes(k, policy)]
    finally:
        mg._prefix_ties = prefix_ties
    out["classes"], out["group_order_sum"] = len(orders), sum(orders)
    given, carried = ties_seen["given"], ties_seen["carried"]
    out["prefix_test_frames"] = {
        "function": "_prefix_ties.extend",
        "frames": resumed.count,
    }
    out["leaf_test_frames"] = leaf.count
    out["from_scratch_frames"] = scratch.count
    out["seeds_calls"] = seeds_calls.count
    out["tie_states"] = {
        "given": given,
        "carried": carried,
        "resumed": given - carried,
        "most_held": ties_seen["most_held"],
    }
    return out


def wall_times(k, policy, runs):
    walls, bases = [], []
    for _ in range(runs):
        start = time.perf_counter()
        list(mg.enumerate_trivalent(k, policy))
        walls.append(round(time.perf_counter() - start, 4))
        hom._classified.cache_clear()
        start = time.perf_counter()
        hom.class_basis(k, Convention.ODD, policy)
        bases.append(round(time.perf_counter() - start, 4))
    return {
        "wall_s": walls,
        "median_s": round(statistics.median(walls), 4),
        "class_basis_s": bases,
        "class_basis_median_s": round(statistics.median(bases), 4),
    }


def _case(text):
    policy = {"e": TadpolePolicy.EXCLUDE, "i": TadpolePolicy.INCLUDE}[text[-1]]
    return int(text[:-1]), policy


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cases", default=DEFAULT_CASES)
    parser.add_argument("--time", type=int, default=0, metavar="N")
    parser.add_argument(
        "--no-counters", action="store_true", help="only time the cases"
    )
    args = parser.parse_args(argv)
    result = []
    for k, policy in map(_case, args.cases.split(",")):
        row = {"k": k, "policy": policy.value}
        if not args.no_counters:
            row.update(counters(k, policy))
        if args.time:
            row.update(wall_times(k, policy, args.time))
        result.append(row)
    json.dump(result, sys.stdout, indent=2)
    print()


if __name__ == "__main__":
    main()

"""The bench tools run against this tree and report their machine-free
counters unchanged.

Each tool reads only the internals of the tree it sits in, and all their
counting goes through `tools/_counting.py` (`bench_certify.py` keeps its
own `_Counters`, which splits the echelons by prime and the sign calls by
replay).  `tools/bench_enum.py` and `tools/bench_lookup.py` reach into
private functions of `trihom.multigraph` (their nested recursive walks),
so a refactor of the relabelling walks can break them without any other
test failing.  The counters pinned here are the figures the search has had
since the tie-state test and the trie lookup; a change to the relabelling
order or to the pruning changes them on purpose and must update them.
The lookup counters of `relation_matrix` (trie walks, expansions, and the
edges skipped by the orbit and term rules) are those of expanding each
relation once.  `tools/bench_certify.py` counts the rational echelons: one
per report, of the relation matrix, one more for a report with a relation
combination, of its transpose, and none per certificate; apart from them,
the echelons mod p of the rank cross-check: one for a report with relation
rows, whose first prime meets the rank, and none per certificate; and the
calls of `transported_sign`: a labelled query is certified by its class
alone, so the only ones its certificate makes are the replays of sign
witnesses; and the calls of `homology._scaled`: one per functional of a
report and one per relation combination, and none per nonzero
certificate, which reads the form its report made of its functional.
`tools/bench_rank.py` reaches the private `exactla._echelon` for its ranks
mod p; its matrices, ranks and dimensions are pinned.  Every field a tool
prints that does not depend on the machine (all but its wall times) is
pinned.  Last, no module of `src/trihom` checks anything with `assert`,
which `python -O` strips.
"""

from __future__ import annotations

import ast
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _run_tool(name, *args):
    env = dict(os.environ)
    paths = [str(ROOT / "src"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_bench_enum_counters():
    rows = _run_tool("bench_enum.py", "--cases", "4e,4i")
    got = {
        (r["k"], r["policy"]): (
            r["tested_nodes"],
            r["cuts"],
            r["leaf_tests"],
            r["leaf_cuts"],
            r["prefix_test_frames"],
            r["leaf_test_frames"],
            r["from_scratch_frames"],
            r["tie_states"],
            r["classes"],
            r["group_order_sum"],
        )
        for r in rows
    }
    frames = "_prefix_ties.extend"
    assert got == {
        (4, "exclude"): (
            110, 48, 33, 13, {"function": frames, "frames": 1501}, 908, 3050,
            {"given": 1430, "carried": 755, "resumed": 675, "most_held": 82},
            20, 572,
        ),
        (4, "include"): (
            192, 73, 119, 48, {"function": frames, "frames": 1927}, 1561, 3784,
            {"given": 1666, "carried": 803, "resumed": 863, "most_held": 82},
            71, 2700,
        ),
    }


def test_bench_lookup_counters():
    out = _run_tool("bench_lookup.py", "--repeats", "0")
    assert out["frames"] == {
        "lookups": 2000,
        "search_frames_per_lookup": 64.56,
        "search_seeds_per_lookup": 5.1,
        "walk_frames_per_lookup": 5.3,
        "walk_seeds_per_lookup": 1.0,
        "walk_orders_per_lookup": 1.15,
        "table_dicts": 521,
    }
    relations = {
        (r["k"], r["convention"]): (
            r["trie_walks_in_relation_matrix"],
            r["min_code_ties_calls_in_relation_matrix"],
            r["expansions"],
            r["orbit_skips"],
            r["term_skips"],
        )
        for r in out["relations"]
    }
    assert relations == {
        (4, "odd"): (59, 0, 36, 111, 21),
        (5, "odd"): (367, 0, 224, 439, 147),
    }
    # --repeats 0 times nothing
    assert out["lookup_walls"] == {
        "find_wall_s": [],
        "find_median_us_per_call": None,
        "vertex_invariants_wall_s": [],
        "vertex_invariants_median_us_per_call": None,
    }


def test_bench_certify_counters():
    out = _run_tool("bench_certify.py", "--repeats", "0")
    queries = out["queries"]
    assert (
        queries["seed"],
        queries["queries"],
        queries["echelon_calls"],
        queries["solve_combinations_calls"],
        queries["replays"],
        queries["kinds"],
    ) == (1, 2000, 0, 0, 2000, {"nonzero": 1597, "sign-witness": 403})
    # no query is signed: each sign is a sign witness's replay
    signs = (queries["sign_calls_outside_replay"], queries["sign_calls"])
    assert signs == (0, 403)
    # the report scaled its functionals when it was made: no query scales one
    assert queries["scaled_calls"] == 0
    reports = {
        r["report"]: (
            r["echelon_calls"],
            r["solve_combinations_calls"],
            r["replays"],
            r["kinds"],
        )
        for r in out["reports"]
    }
    assert reports == {
        "k3_even_exclude": (1, 0, 6, {"sign-witness": 6}),
        "k3_odd_exclude": (1, 0, 6, {"nonzero": 4, "sign-witness": 2}),
        "k3_even_include": (
            2, 1, 17, {"relation-combination": 2, "sign-witness": 15},
        ),
        "k3_odd_include": (1, 0, 17, {"nonzero": 4, "sign-witness": 13}),
        "k4_even_exclude": (1, 0, 20, {"sign-witness": 20}),
        "k4_odd_exclude": (1, 0, 20, {"nonzero": 14, "sign-witness": 6}),
    }
    assert queries["modular_echelon_calls"] == 0
    modular = {r["report"]: r["modular_echelon_calls"] for r in out["reports"]}
    assert modular == {
        "k3_even_exclude": 0,
        "k3_odd_exclude": 1,
        "k3_even_include": 1,
        "k3_odd_include": 1,
        "k4_even_exclude": 0,
        "k4_odd_exclude": 1,
    }
    # generators, dimension, then every and outside-replay sign calls: a
    # report signs its relation rows' terms, its certificates only replays
    signs = {
        r["report"]: (
            r["generators"],
            r["dimension"],
            r["sign_calls"],
            r["sign_calls_outside_replay"],
        )
        for r in out["reports"]
    }
    assert signs == {
        "k3_even_exclude": (0, 0, 6, 0),
        "k3_odd_exclude": (4, 1, 21, 19),
        "k3_even_include": (2, 0, 24, 9),
        "k3_odd_include": (4, 1, 32, 19),
        "k4_even_exclude": (0, 0, 20, 0),
        "k4_odd_exclude": (14, 2, 96, 90),
    }
    # a report scales each functional once and each relation combination,
    # and no nonzero certificate
    scaled = {r["report"]: r["scaled_calls"] for r in out["reports"]}
    assert scaled == {
        "k3_even_exclude": 0,
        "k3_odd_exclude": 1,
        "k3_even_include": 2,
        "k3_odd_include": 1,
        "k4_even_exclude": 0,
        "k4_odd_exclude": 2,
    }


def test_bench_rank_matrices_and_ranks():
    out = _run_tool("bench_rank.py", "--k", "4", "5", "--repeats", "1")
    got = {
        (c["k"], c["convention"]): (
            c["rows"],
            c["generators"],
            c["nnz"],
            c["content_hash"],
            c["rank"],
            c["modular_rank"],
            c["dimension"],
        )
        for c in out["cases"]
    }
    assert got == {
        (4, "odd"): (
            19, 14, 40,
            "79a152621634fe238d3ce8044d3c719ae86b8b4e50be8109692e33e310f011ef",
            12, 12, 2,
        ),
        (4, "even"): (
            0, 0, 0,
            "0ccdb5a77ba5bf7687f2565a8ed97dfb9c1af45503c496fb646312239fab5101",
            0, 0, 0,
        ),
        (5, "odd"): (
            124, 54, 267,
            "01fab02fd2e7951c1b59d29f98e505ec0ccb56139b300adb35cf665114fcc218",
            52, 52, 2,
        ),
        (5, "even"): (
            10, 7, 18,
            "ef28de73688604bc69b7a53d7409171edc4b5f9b3627b31a6617ac3dee56ce48",
            6, 6, 1,
        ),
    }
    # the rank mod each prime of `exactla.PRIMES` is the rank over Q
    primes = [2**62 - 57, 2**62 - 87, 2**62 - 117]
    modular = {
        (c["k"], c["convention"]): (
            c["tadpoles"],
            c["classes"],
            [m["prime"] for m in c["modular"]] == primes,
            [m["rank"] for m in c["modular"]],
        )
        for c in out["cases"]
    }
    assert modular == {
        (4, "odd"): ("exclude", 20, True, [12, 12, 12]),
        (4, "even"): ("exclude", 20, True, [0, 0, 0]),
        (5, "odd"): ("exclude", 91, True, [52, 52, 52]),
        (5, "even"): ("exclude", 91, True, [6, 6, 6]),
    }


def test_no_assert_statement_in_the_package():
    """Every check in `src/trihom` raises explicitly: an `assert` would
    vanish under `python -O`, and the check with it."""
    paths = sorted((ROOT / "src" / "trihom").glob("*.py"))
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(paths) > 5 and not found, found

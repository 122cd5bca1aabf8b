#!/usr/bin/env python3
"""Pipeline benchmark for trihom.

    python3 perfbench/run.py --workload dim-report --seed 1 --seconds 30 --trace 0

Runs one workload through trihom's library API in this one process, in
passes, until ``--seconds`` have gone by (at least three passes, or two
untraced and two traced ones with ``--trace 1``).  Every pass imports trihom
afresh, so nothing a module caches survives from one pass into the next.  A
pass is set-up (import, inputs), the timed phase (the workload's
operations, one after another) and the output checks.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
The line before it records the environment.  Failure reasons go to standard
error.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from importlib.util import find_spec
from itertools import cycle, repeat
from pathlib import Path
from types import SimpleNamespace

from spans import Tracer
from speed import SpeedMeter
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAYERS = ("multigraph", "orientation", "homology", "exactla", "surgery", "io")
NOTE = (
    "spans and counters are taken around trihom functions from outside; "
    "canonical-search node counts need tracing inside the program"
)


class Pass(SimpleNamespace):
    """One pass: traced; setup_s and per-operation latencies and cpu_times
    (at reference speed when untraced); raw_setup_s and the timed phase's
    wall_s as measured, less speed sampling; attempted; failures; and, when
    traced, its tracer."""


def fresh_modules() -> SimpleNamespace:
    for name in [m for m in sys.modules if m == "trihom" or m.startswith("trihom.")]:
        del sys.modules[name]
    mods = {"trihom": importlib.import_module("trihom")}
    for layer in LAYERS:
        mods[layer] = importlib.import_module(f"trihom.{layer}")
    return SimpleNamespace(**mods)


def no_span(name):
    return contextlib.nullcontext()


def run_pass(workload, seed: int, traced: bool) -> Pass:
    """Untraced passes time themselves at reference speed (see speed.py);
    traced ones keep their times as measured."""
    tracer = Tracer() if traced else None
    meter = contextlib.nullcontext() if traced else SpeedMeter()
    with meter:
        setup_at = time.perf_counter()
        mods = fresh_modules()
        state, ops = workload.setup(mods, seed, tracer.span if traced else no_span)
        setup_end = time.perf_counter()

        gc.collect()
        if traced:
            tracer.install(vars(mods))
        outputs, failures, timings = [], {}, []
        for i, (label, op) in enumerate(ops):
            start, cpu0 = time.perf_counter(), time.process_time()
            try:
                outputs.append(op())
            except Exception:  # one failed operation: report it and go on
                outputs.append(None)
                failures[i] = f"{label} raised:\n{traceback.format_exc()}"
            timings.append((start, time.perf_counter(), time.process_time() - cpu0))
        if traced:
            tracer.uninstall()

    try:
        check = workload.checker(mods, state)
    except Exception:  # without its checks no operation counts as correct
        broken = f"checks could not start:\n{traceback.format_exc()}"
        check = lambda i, out: broken  # noqa: E731
    for i, out in enumerate(outputs):
        if i in failures:
            continue
        try:
            reason = check(i, out)
        except Exception:  # a malformed output fails its operation
            reason = f"check raised:\n{traceback.format_exc()}"
        if reason:
            failures[i] = f"{ops[i][0]}: {reason}"

    def norm(start, end, seconds):
        return seconds if traced else meter.normalize(start, end, seconds)

    timed_at, timed_end = timings[0][0], timings[-1][1]
    return Pass(
        traced=traced,
        raw_setup_s=setup_end - setup_at,
        wall_s=timed_end - timed_at - (0.0 if traced else meter.sampling(timed_at, timed_end)),
        setup_s=norm(setup_at, setup_end, setup_end - setup_at),
        latencies=[norm(a, b, b - a) for a, b, _ in timings],
        cpu_times=[norm(a, b, c) for a, b, c in timings],
        attempted=len(ops),
        failures=list(failures.values()),
        tracer=tracer,
    )


def per_op_median(passes: list[Pass], attr: str) -> list[float]:
    return [statistics.median(xs) for xs in zip(*(getattr(p, attr) for p in passes))]


def end_to_end(passes: list[Pass], attempted: int, failed: int) -> dict:
    """Every pass runs the same operations.  Each operation's time is its
    median over the passes, which drops a stall that hits one pass;
    wall_s and cpu_s sum these.  The first pass's set-up also imports
    numpy and scipy and is left out of setup_s."""
    lat_ms = [1000 * x for x in per_op_median(passes, "latencies")]
    return {
        "setup_s": statistics.median(p.setup_s for p in passes[1:]),
        "wall_s": sum(lat_ms) / 1000,
        "cpu_s": sum(per_op_median(passes, "cpu_times")),
        "query_p50_ms": statistics.median(lat_ms),
        "query_p95_ms": statistics.quantiles(lat_ms, n=100, method="inclusive")[94],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_ratio": 1 - failed / attempted,
    }


def per_layer(untraced: list[Pass], traced: list[Pass]) -> tuple[dict, list[str]]:
    """Per-layer metrics, plus reasons why the counters did not repeat."""
    first = traced[0].tracer
    counts = {f"{n}.calls": c for n, c in first.calls.items()} | first.counters
    mismatches = []
    for p in traced[1:]:
        again = {f"{n}.calls": c for n, c in p.tracer.calls.items()} | p.tracer.counters
        if again != counts:
            diff = sorted(k for k in counts if again[k] != counts[k])
            mismatches.append(f"counters differ between traced passes: {diff}")

    def med(f):
        return statistics.median(f(p) for p in traced)

    values = dict(counts)
    for name in first.self_s:
        values[f"{name}.self_s"] = med(lambda p: p.tracer.self_s[name])
    canon = counts["multigraph.canonical_code.calls"]
    values["multigraph.class_yield"] = counts["multigraph.classes_out"] / canon if canon else 0.0
    rows = counts["homology.rows"]
    tried = rows + counts["homology.zero_rows"] + counts["homology.duplicate_rows"]
    values["homology.row_yield"] = rows / tried if tried else 0.0
    values["io.serialize_s"] = med(
        lambda p: sum(v for n, v in p.tracer.self_s.items() if n.startswith("io."))
    )
    traced_wall = med(lambda p: p.wall_s)
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - statistics.median(p.wall_s for p in untraced)
    values["trace.unattributed_s"] = med(lambda p: p.wall_s - sum(p.tracer.self_s.values()))
    values["trace.attributed_share"] = med(lambda p: sum(p.tracer.self_s.values()) / p.wall_s)
    return values, mismatches


def environment(seed: int, ak_unset: dict) -> dict:
    return {
        "python": platform.python_version(),
        "numba_importable": find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "ak_env_unset": ak_unset,
        "seed": seed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "trihom" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no trihom sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    # trihom reads AK_* limits from the environment; runs use the defaults.
    ak_unset = {k: os.environ.pop(k) for k in sorted(os.environ) if k.startswith("AK_")}
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]()
    passes: list[Pass] = []
    modes = cycle((False, True)) if args.trace else repeat(False)
    start = time.perf_counter()
    while True:
        passes.append(run_pass(workload, args.seed, next(modes)))
        untraced = [p for p in passes if not p.traced]
        traced = [p for p in passes if p.traced]
        enough = len(traced) >= 2 and len(untraced) >= 2 if args.trace else len(untraced) >= 3
        if enough and time.perf_counter() - start >= args.seconds:
            break

    failures = [f for p in passes for f in p.failures]
    attempted = sum(p.attempted for p in passes)
    if args.trace:
        values, mismatches = per_layer(untraced, traced)
        failures += mismatches
        wanted = spec["per_layer"]
    else:
        values = end_to_end(untraced, attempted, len(failures))
        wanted = spec["end_to_end"]
    for reason in failures[:20]:
        print(f"FAIL {reason}", file=sys.stderr)
    if len(failures) > 20:
        print(f"... {len(failures) - 20} more failures", file=sys.stderr)

    tracer = traced[0].tracer if traced else None
    info = {
        "workload": args.workload,
        "trace": args.trace,
        "measured_wall_s": [round(p.wall_s, 4) for p in passes],
        "measured_setup_s": [round(p.raw_setup_s, 4) for p in passes],
        "reference_speed_wall_s": [round(sum(p.latencies), 4) for p in passes],
        "absent_spans": tracer.absent if tracer else [],
        "counter_errors": tracer.hook_errors[:5] if tracer else [],
        "env": environment(args.seed, ak_unset),
        "note": NOTE,
    }
    print(json.dumps({"info": info}, sort_keys=True))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Spans and counters recorded from outside the program.

A traced pass replaces selected trihom functions with timing wrappers, at the
module attribute each caller looks the function up by (``from .multigraph
import canonical_form`` binds ``homology.canonical_form``, so that is the
name replaced).  A span's self time is its duration minus the time of the
spans nested in it.  Counters are read off each wrapped call's arguments and
result, so the program itself is not changed.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time

# Span name -> (modules whose attribute is replaced, attribute).  The span
# name says where the function is defined; the modules are its callers.
SPANS = {
    "multigraph.enumerate_trivalent": (("multigraph", "homology"), "enumerate_trivalent"),
    "multigraph.canonical_code": (("multigraph",), "canonical_code"),
    "multigraph.canonical_form": (("homology", "orientation"), "canonical_form"),
    "multigraph.automorphisms": (("orientation",), "automorphisms"),
    "orientation.classify": (("homology",), "classify"),
    "homology.dimension": (("homology",), "dimension"),
    "homology.relation_matrix": (("homology",), "relation_matrix"),
    "homology.signed_class": (("homology",), "signed_class"),
    "homology.certify": (("homology",), "certify"),
    "exactla.rank": (("homology",), "rank"),
    "exactla.modular_rank": (("homology",), "modular_rank"),
    "exactla.solve_combination": (("homology",), "solve_combination"),
    "exactla.left_nullspace": (("homology",), "left_nullspace"),
    "surgery.plan": (("surgery",), "plan"),
    "io.to_jsonl_record": (("io",), "to_jsonl_record"),
}

# Spans the benchmark opens around its own calls (no trihom function to wrap).
OWN_SPANS = ("io.emit_report",)

COUNTERS = (
    "multigraph.classes_out",
    "multigraph.automorphisms.group_order_sum",
    "orientation.zero_classes",
    "homology.rows",
    "homology.zero_rows",
    "homology.duplicate_rows",
    "exactla.matrix_rows",
    "exactla.matrix_cols",
    "exactla.matrix_nnz",
)


def _count_matrix(counters, args, result):
    m = args[0]
    counters["exactla.matrix_rows"] += m.num_rows
    counters["exactla.matrix_cols"] += m.num_cols
    counters["exactla.matrix_nnz"] += m.nnz


def _count_relations(counters, args, result):
    counters["homology.rows"] += len(result.rows)
    counters["homology.zero_rows"] += len(result.zero_rows)
    counters["homology.duplicate_rows"] += result.duplicates


def _count_automorphisms(counters, args, result):
    counters["multigraph.automorphisms.group_order_sum"] += len(result)


def _count_classify(counters, args, result):
    counters["orientation.zero_classes"] += result.status.value == "zero"


# Span name -> hook(counters, args, result), run after the span closes.
HOOKS = {
    "multigraph.automorphisms": _count_automorphisms,
    "orientation.classify": _count_classify,
    "homology.relation_matrix": _count_relations,
    "exactla.rank": _count_matrix,
    "exactla.modular_rank": _count_matrix,
    "exactla.solve_combination": _count_matrix,
    "exactla.left_nullspace": _count_matrix,
}

# Generator span name -> counter of the items it yields.
ITEM_COUNTERS = {"multigraph.enumerate_trivalent": "multigraph.classes_out"}


class Tracer:
    """In-memory spans of one pass: calls and self seconds per span name,
    and the counters."""

    def __init__(self):
        self.calls = {name: 0 for name in (*SPANS, *OWN_SPANS)}
        self.self_s = {name: 0.0 for name in self.calls}
        self.counters = {name: 0 for name in COUNTERS}
        self.absent: list[str] = []
        self.hook_errors: list[str] = []
        self._stack: list[list[float]] = []  # child seconds of each open span
        self._restore: list[tuple[object, str, object]] = []

    def _enter(self) -> float:
        self._stack.append([0.0])
        return time.perf_counter()

    def _exit(self, name: str, start: float) -> None:
        dt = time.perf_counter() - start
        children = self._stack.pop()[0]
        self.self_s[name] += dt - children
        if self._stack:
            self._stack[-1][0] += dt

    @contextlib.contextmanager
    def span(self, name: str):
        start = self._enter()
        try:
            yield
        finally:
            self._exit(name, start)
            self.calls[name] += 1

    def _hook(self, name: str, args, result) -> None:
        hook = HOOKS.get(name)
        if hook is None:
            return
        try:
            hook(self.counters, args, result)
        except (AttributeError, TypeError) as exc:
            self.hook_errors.append(f"{name}: {exc}")

    def _wrap(self, name: str, fn):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            # One call lasts until the generator is used up; only the time
            # spent inside it (each resumption) belongs to its span.
            counter = ITEM_COUNTERS.get(name)

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        start = tracer._enter()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            tracer._exit(name, start)
                        if counter:
                            tracer.counters[counter] += 1
                        yield item
                finally:
                    inner.close()
                    tracer.calls[name] += 1

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = tracer._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(name, start)
                tracer.calls[name] += 1
            tracer._hook(name, args, result)
            return result

        return wrapper

    def install(self, modules: dict) -> None:
        """Replace every listed caller's attribute; note spans with none left."""
        for name, (callers, attr) in SPANS.items():
            wrapped = {}
            for mod_name in callers:
                mod = modules.get(mod_name)
                fn = getattr(mod, attr, None) if mod is not None else None
                if not callable(fn):
                    continue
                if id(fn) not in wrapped:
                    wrapped[id(fn)] = self._wrap(name, fn)
                self._restore.append((mod, attr, fn))
                setattr(mod, attr, wrapped[id(fn)])
            if not wrapped:
                self.absent.append(name)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._restore):
            setattr(mod, attr, fn)
        self._restore.clear()

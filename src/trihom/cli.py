"""Command-line front end: enumerate, dim, plan.

Exit codes: 0 ok, 2 bad input, 4 resource limit exceeded or out of
memory, 5 oracle mismatch (also an oracle that cannot place an IHX term in
its own class list).  Code 3 (infeasible vertex typing) is retired: every
trivalent multigraph has a Type I/II typing.  A malformed or negative
`AK_MAX_CLASSES` or `AK_MAX_MATRIX` value and an output path that cannot be
written are bad input.  Output is byte-deterministic for fixed arguments.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import islice
from typing import Iterable, Iterator

from . import homology, io as gio, surgery
from .errors import (
    BadEnvironment,
    DimensionTooSmall,
    MalformedPairing,
    NotConnected,
    NotTrivalent,
    ResourceLimit,
    UnknownClass,
)
from .multigraph import TadpolePolicy, enumerate_trivalent
from .orientation import ClassStatus, Convention

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_RESOURCE = 4
EXIT_ORACLE_MISMATCH = 5


def _policy(name: str) -> TadpolePolicy:
    return TadpolePolicy(name)


class _CannotWrite(Exception):
    """An output file could not be written."""


def _write_file(path: str, texts: Iterable[str]) -> None:
    try:
        with open(path, "w") as fh:
            fh.writelines(texts)
    except OSError as exc:
        raise _CannotWrite(f"cannot write {path}: {exc.strerror}") from exc


def _write(path: str | None, texts: Iterable[str]) -> None:
    if path is None or path == "-":
        sys.stdout.writelines(texts)
    else:
        _write_file(path, texts)


def _json_text(doc: dict) -> Iterator[str]:
    """The text of `json.dumps(doc, sort_keys=True, indent=2)` and a newline,
    in batches of the encoder's chunks: a report with every certificate is
    written as it is encoded, never held as one string."""
    chunks = json.JSONEncoder(sort_keys=True, indent=2).iterencode(doc)
    yield from iter(lambda: "".join(islice(chunks, 4096)), "")
    yield "\n"


def cmd_enumerate(args) -> int:
    if args.k < 1:
        print(f"error: --k must be >= 1, got {args.k}", file=sys.stderr)
        return EXIT_BAD_INPUT
    policy = _policy(args.tadpoles)
    chunks = []
    for i, g in enumerate(enumerate_trivalent(args.k, policy)):
        if args.format == "jsonl":
            chunks.append(gio.to_jsonl_record(g) + "\n")
        elif args.format == "graph-text":
            if i:
                chunks.append("\n")
            chunks.append(gio.to_graph_text(g))
        else:
            chunks.append(gio.to_dot(g, name=f"G{i}"))
    _write(args.output, chunks)
    return EXIT_OK


def cmd_dim(args) -> int:
    if args.k < 1:
        print(f"error: --k must be >= 1, got {args.k}", file=sys.stderr)
        return EXIT_BAD_INPUT
    if args.oracle_check:
        if args.k > 2:
            print("error: --oracle-check supports k <= 2 only", file=sys.stderr)
            return EXIT_BAD_INPUT
        try:
            from . import oracle  # numpy and scipy load only for the check
        except ImportError:
            print(
                "error: --oracle-check needs numpy and scipy "
                "(pip install 'trihom[oracle]')",
                file=sys.stderr,
            )
            return EXIT_BAD_INPUT
    convention = Convention(args.convention)
    policy = _policy(args.tadpoles)
    report = homology.dimension(args.k, convention, policy)
    doc = report.to_json()
    if args.certify:
        certs = []
        for cls in report.basis.classes:
            cert = homology.certify(cls.class_id, report)
            certs.append(cert.to_json())
        doc["certificates"] = certs
    if args.oracle_check:
        try:
            orc = oracle.brute_dimension(args.k, convention, policy)
        except UnknownClass as exc:
            print(f"error: oracle failed: {exc}", file=sys.stderr)
            return EXIT_ORACLE_MISMATCH
        agrees = orc["dim"] == report.dimension
        doc["oracle_check"] = {"dim": orc["dim"], "agrees": agrees}
        if not agrees:
            _emit_report(args, doc)
            print(
                f"error: oracle dimension {orc['dim']} != pipeline "
                f"{report.dimension}",
                file=sys.stderr,
            )
            return EXIT_ORACLE_MISMATCH
    if args.dump_matrix:
        _write_file(args.dump_matrix, [report.relations.matrix.to_matrixmarket()])
    _emit_report(args, doc)
    return EXIT_OK


def _emit_report(args, doc: dict) -> None:
    _write(args.json, _json_text(doc))


def cmd_plan(args) -> int:
    try:
        with open(args.graph, encoding="utf-8") as fh:
            g = gio.from_graph_text(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read graph file: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (MalformedPairing, NotTrivalent, NotConnected) as exc:
        print(f"error: bad graph file: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        p = surgery.plan(g, args.ambient_dim)
    except DimensionTooSmall as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    if args.format == "json":
        doc = p.to_json()
        doc["report"] = surgery.y_link_report(p)
        _write(args.output, _json_text(doc))
    else:
        _write(args.output, [surgery.render_plan_text(p)])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="trihom",
        description="Trivalent graph homology dimensions and surgery plans",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enumerate", help="list isomorphism classes")
    p_enum.add_argument("--k", type=int, required=True)
    p_enum.add_argument(
        "--tadpoles", choices=["exclude", "include"], default="exclude"
    )
    p_enum.add_argument(
        "--format", choices=["jsonl", "graph-text", "dot"], default="jsonl"
    )
    p_enum.add_argument("--output", default=None)
    p_enum.set_defaults(func=cmd_enumerate)

    p_dim = sub.add_parser("dim", help="dimension of the graph-homology space")
    p_dim.add_argument("--k", type=int, required=True)
    p_dim.add_argument("--convention", choices=["even", "odd"], required=True)
    p_dim.add_argument(
        "--tadpoles", choices=["exclude", "include"], default="exclude"
    )
    p_dim.add_argument("--oracle-check", action="store_true")
    p_dim.add_argument("--certify", action="store_true")
    p_dim.add_argument("--json", default=None, help="output path (default stdout)")
    p_dim.add_argument("--dump-matrix", default=None, metavar="PATH")
    p_dim.set_defaults(func=cmd_dim)

    p_plan = sub.add_parser("plan", help="surgery plan for a graph file")
    p_plan.add_argument("--graph", required=True)
    p_plan.add_argument("--ambient-dim", type=int, required=True)
    p_plan.add_argument("--format", choices=["json", "text"], default="text")
    p_plan.add_argument("--output", default=None)
    p_plan.set_defaults(func=cmd_plan)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (BadEnvironment, _CannotWrite) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (ResourceLimit, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())

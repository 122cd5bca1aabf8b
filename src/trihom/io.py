"""Stable file formats: graph text, DOT, JSONL."""

from __future__ import annotations

import json

from .errors import MalformedPairing
from .multigraph import DartGraph, canonical_code, from_pairing


def to_graph_text(g: DartGraph) -> str:
    """Canonical line-based serialization: `k` header then sorted `e` lines."""
    lines = [f"k {g.k}"]
    for a, b in g.edges:
        lines.append(f"e {a} {b}")
    return "\n".join(lines) + "\n"


def from_graph_text(text: str) -> DartGraph:
    k = None
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "k":
            if k is not None or len(parts) != 2:
                raise MalformedPairing(f"line {lineno}: bad or repeated k header")
            try:
                k = int(parts[1])
            except ValueError:
                raise MalformedPairing(f"line {lineno}: bad k value {parts[1]!r}")
        elif parts[0] == "e":
            if len(parts) != 3:
                raise MalformedPairing(f"line {lineno}: edge line needs two darts")
            try:
                pairs.append((int(parts[1]), int(parts[2])))
            except ValueError:
                raise MalformedPairing(f"line {lineno}: bad dart index")
        else:
            raise MalformedPairing(f"line {lineno}: unknown directive {parts[0]!r}")
    if k is None:
        raise MalformedPairing("missing `k` header line")
    if k < 1:
        raise MalformedPairing(f"k must be >= 1, got {k}")
    # a trivalent graph on 2k vertices has 3k edges, loops included; checked
    # first so that a large `k` header allocates nothing
    if len(pairs) != 3 * k:
        raise MalformedPairing(f"k {k} needs {3 * k} edge lines, got {len(pairs)}")
    return from_pairing(2 * k, pairs)


def to_dot(g: DartGraph, name: str = "G") -> str:
    lines = [f"graph {name} {{"]
    for a, b in g.edges:
        lines.append(f"  v{a // 3} -- v{b // 3};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_jsonl_record(g: DartGraph) -> str:
    rec = {
        "k": g.k,
        "pairing": [list(e) for e in g.edges],
        "canonical_code": " ".join(str(x) for x in canonical_code(g)),
    }
    return json.dumps(rec, sort_keys=True, separators=(",", ":"))

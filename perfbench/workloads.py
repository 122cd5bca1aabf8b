"""The three workloads: inputs, timed operations and output checks.

Each workload has ``setup(mods, seed, span)``, which builds its inputs and
returns its state and the list of timed operations as ``(label,
zero-argument callable)``; ``span(name)`` is a context manager that times
the benchmark's own code in a traced pass.  After the timed phase,
``checker(mods, state)`` loads what the checks need and returns
``check(i, out)``, which says why the output of operation ``i`` is wrong,
or returns ``None``.  ``mods`` holds the trihom modules of the current
pass.
"""

from __future__ import annotations

import hashlib
import json
import random
from math import lcm
from pathlib import Path

import jsonschema

from replay import ReportView, replay

ROOT = Path(__file__).resolve().parent.parent
CENSUS = ROOT / "data" / "census.json"

# Connected cubic multigraphs on 2k vertices, k = 1..4: OEIS A000421
# (loopless) and A005967 (loops allowed).
OEIS = {"exclude": (1, 2, 6, 20), "include": (2, 5, 17, 71)}

# sha256 of the JSONL that enumerate-grid writes for each (k, policy), as
# recorded when the benchmark was written.  A change that alters canonical
# codes on purpose regenerates data/census.json and these digests.
JSONL_SHA256 = {
    (2, "exclude"):
        "5e4c39d0a8acb9dfac1054a3f3cd2c023017ed2bb090e2521b5e6fd583229de4",
    (2, "include"):
        "d3bd815ff315d378677abe203b2a64d3fd59fed128a0d2c28f370a6a9282a31f",
    (3, "exclude"):
        "8949c6ddbf656d3a9fbfa86dae66a4056b44a727f51661a531c6d4d697059efa",
    (3, "include"):
        "c12804fcb68e240460d263bfe85b582376b692b8aab4d0def5239de305e16a3d",
    (4, "exclude"):
        "1bc92b0ffbad082afc284fc3091a718ab1346dcad708863f810573aa7f87c675",
    (4, "include"):
        "2f9ee9da5f60d82ce271e20bad3ec247b9a75f6c59801d754836c2f3b0821186",
}


def load_census() -> dict:
    with open(CENSUS) as fh:
        return json.load(fh)


def _validator(mods, schema_name: str):
    path = Path(mods.trihom.__file__).parent / "schemas" / schema_name
    with open(path) as fh:
        return jsonschema.Draft202012Validator(json.load(fh))


def _class_count_error(census: dict, k: int, policy: str, count: int) -> str | None:
    want = census["class_counts"][f"k{k}_{policy}"]
    if count != want or count != OEIS[policy][k - 1]:
        return f"k={k} {policy}: {count} classes, census {want}, OEIS {OEIS[policy][k - 1]}"
    return None


class EnumerateGrid:
    """What `trihom enumerate --format jsonl` does, for k in {2,3,4} and
    both tadpole policies."""

    GRID = [(k, p) for k in (2, 3, 4) for p in ("exclude", "include")]

    def setup(self, mods, seed: int, span):
        def op(k, policy):
            records = [
                mods.io.to_jsonl_record(g) + "\n"
                for g in mods.multigraph.enumerate_trivalent(
                    k, mods.multigraph.TadpolePolicy(policy)
                )
            ]
            return "".join(records).encode()

        ops = [
            (f"k{k}_{p}", lambda k=k, p=p: op(k, p)) for k, p in self.GRID
        ]
        return None, ops

    def checker(self, mods, state):
        census = load_census()

        def check(i, out):
            k, policy = self.GRID[i]
            reason = _class_count_error(census, k, policy, out.count(b"\n"))
            if reason is None and hashlib.sha256(out).hexdigest() != JSONL_SHA256[(k, policy)]:
                reason = f"k={k} {policy}: JSONL digest differs from the recorded one"
            return reason

        return check


class DimReport:
    """What `trihom dim --certify` does for (k=3, exclude), (k=3, include)
    and (k=4, exclude), each under both conventions; the two conventions of
    one (k, policy) run back to back."""

    GRID = [
        (k, p, c)
        for k, p in ((3, "exclude"), (3, "include"), (4, "exclude"))
        for c in ("even", "odd")
    ]

    def setup(self, mods, seed: int, span):
        hm = mods.homology

        def op(k, policy, convention):
            report = hm.dimension(
                k,
                mods.orientation.Convention(convention),
                mods.multigraph.TadpolePolicy(policy),
            )
            certs = [hm.certify(c.class_id, report) for c in report.basis.classes]
            with span("io.emit_report"):
                doc = report.to_json()
                doc["certificates"] = [c.to_json() for c in certs]
                text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
            return report, text

        ops = [
            (f"k{k}_{c}_{p}", lambda k=k, p=p, c=c: op(k, p, c))
            for k, p, c in self.GRID
        ]
        return None, ops

    def checker(self, mods, state):
        census = load_census()
        schema = _validator(mods, "report.schema.json")
        return lambda i, out: self._check(census, schema, *self.GRID[i], *out)

    @staticmethod
    def _check(census, schema, k, policy, convention, report, text):
        doc = json.loads(text)
        errors = [e.message for e in schema.iter_errors(doc)]
        if errors:
            return f"report does not match its schema: {errors[0]}"
        reason = _class_count_error(census, k, policy, len(doc["classes"]))
        if reason:
            return reason
        want = census["dimensions"][f"k{k}_{convention}_{policy}"]
        for key in ("dimension", "rank", "num_rows"):
            if doc[key] != want[key]:
                return f"{key} {doc[key]} != census {want[key]}"
        if [c["class_id"] for c in doc["certificates"]] != [c["id"] for c in doc["classes"]]:
            return "certificates do not follow the class list"
        view = ReportView(report)
        for cert in doc["certificates"]:
            reason = replay(cert, view)
            if reason:
                return reason
        return None


class CertifyQueries:
    """Random labelled k=4 graphs certified against one odd, tadpole-free
    report, each followed by surgery plans for d=4 and d=5."""

    QUERIES = 2000
    K = 4

    def setup(self, mods, seed: int, span):
        mg = mods.multigraph
        report = mods.homology.dimension(
            self.K, mods.orientation.Convention.ODD, mg.TadpolePolicy.EXCLUDE
        )
        classes = report.basis.classes
        # A uniform random connected loop-free pairing falls in a class with
        # probability proportional to 1/|Aut|, and is a uniform relabelling
        # of that class's representative.  Each class gets its expected
        # share of the queries (largest remainder), so every seed does the
        # same work; the seed draws the relabellings, labellings and order.
        orders = [len(mg.automorphisms(c.rep)) for c in classes]
        weights = [lcm(*orders) // n for n in orders]
        quota, rest = zip(*(divmod(self.QUERIES * w, sum(weights)) for w in weights))
        extra = sorted(range(len(classes)), key=lambda i: -rest[i])
        extra = extra[: self.QUERIES - sum(quota)]
        cids = [i for i in range(len(classes)) for _ in range(quota[i] + (i in extra))]
        rng = random.Random(seed)
        rng.shuffle(cids)
        queries = []
        for cid in cids:
            g, labelling = _random_presentation(mods, classes[cid].rep, rng)
            queries.append((cid, g, labelling))

        def op(g, labelling):
            cert = mods.homology.certify((g, labelling), report)
            return cert, mods.surgery.plan(g, 4), mods.surgery.plan(g, 5)

        ops = [
            (f"q{i}", lambda g=g, lab=lab: op(g, lab))
            for i, (_, g, lab) in enumerate(queries)
        ]
        return (report, queries), ops

    def checker(self, mods, state):
        report, queries = state
        view = ReportView(report)
        schema = _validator(mods, "plan.schema.json")
        verdicts = [
            mods.homology.certify(c.class_id, report).to_json()["type"]
            for c in report.basis.classes
        ]
        replayed: dict[str, str | None] = {}
        validated: set[int] = set()

        def check(i, out):
            cid, g, _ = queries[i]
            cert, *plans = out
            doc = cert.to_json()
            # Queries of one class get the same certificate; replay it once.
            key = json.dumps(doc, sort_keys=True)
            if key not in replayed:
                replayed[key] = replay(doc, view)
            reason = replayed[key]
            if reason is None and doc["class_id"] != cid:
                reason = f"query of class {cid} certified as class {doc['class_id']}"
            if reason is None and doc["type"] != verdicts[cid]:
                reason = f"query verdict {doc['type']} != class {cid} verdict {verdicts[cid]}"
            # Schema validation costs about 2.5 ms a plan, more than the
            # query, so only the first query of each class has its plans
            # validated.
            plan_schema = None if cid in validated else schema
            validated.add(cid)
            for d, p in zip((4, 5), plans):
                reason = reason or _plan_error(mods, plan_schema, g, d, p)
            return reason

        return check


def _plan_error(mods, schema, g, d, p) -> str | None:
    doc = p.to_json()
    errors = [e.message for e in schema.iter_errors(doc)] if schema else []
    if errors:
        return f"d={d} plan does not match its schema: {errors[0]}"
    if mods.surgery.SurgeryPlan.from_json(json.loads(json.dumps(doc))) != p:
        return f"d={d} plan does not survive a JSON round trip"
    if (doc["d"], doc["k"], doc["graph"]["pairing"]) != (d, g.k, [list(e) for e in g.edges]):
        return f"d={d} plan describes another graph or dimension"
    return None


def _random_presentation(mods, rep, rng: random.Random):
    """Uniform relabelling of `rep` (vertices and each vertex's dart slots)
    with shuffled vertex labels, edge labels and edge directions."""
    nv = rep.num_vertices
    vertex_perm = list(range(nv))
    rng.shuffle(vertex_perm)
    dart_map = []
    for v in range(nv):
        slots = [0, 1, 2]
        rng.shuffle(slots)
        dart_map.extend(3 * vertex_perm[v] + s for s in slots)
    pairs = [(dart_map[a], dart_map[b]) for a, b in rep.edges]
    g = mods.multigraph.from_pairing(nv, pairs)
    vertex_labels = list(range(1, nv + 1))
    edge_labels = list(range(1, g.num_edges + 1))
    rng.shuffle(vertex_labels)
    rng.shuffle(edge_labels)
    directions = tuple((a, b) if rng.getrandbits(1) else (b, a) for a, b in g.edges)
    labelling = mods.orientation.OrientedLabelling(
        tuple(vertex_labels), tuple(edge_labels), directions
    )
    return g, labelling


WORKLOADS = {
    "enumerate-grid": EnumerateGrid,
    "dim-report": DimReport,
    "certify-queries": CertifyQueries,
}

"""Counters and timings of certificate construction, as JSON on stdout.

    PYTHONPATH=src python tools/bench_certify.py [--seed N] [--repeats N]

Everything is counted from outside the program, by replacing module
attributes with counting wrappers.  The script reads only the internals
of the tree it sits in; to compare with another checkout, run that
checkout's own copy.

A report makes one rational echelon, `_echelon` of its relation matrix M
over Q, when `dimension` asks for its functionals, which the nonzero
certificates take.  The first relation-combination certificate makes one
more, `_echelon` of Mᵀ with the generators that every functional misses
as extra columns, in the one `solve_combinations` call that solves all
their combinations.  So each report below counts one rational echelon
(`echelon_calls`), two if it has a relation combination, and the
queries, certified against a report that has already made its echelons,
count none.  The rank cross-check of a report with relation rows runs
the same `_echelon` mod the first prime of `exactla.PRIMES`, and mod the
next only while the primes so far miss the rank: one echelon mod p per
report with rows here, counted apart as `modular_echelon_calls`.

A labelled graph's certificate is its class's, so certifying one needs the
graph's class and not its sign.  `transported_sign` is counted through the
name `homology` calls it by: `sign_calls` counts every call, and
`sign_calls_outside_replay` those made outside a replay, which for a
query sign the query itself, and for a report its relation rows.  The
replay of a sign witness makes one call of its own.

`homology._scaled` is counted as `scaled_calls`.  `dimension` scales each
functional of the report once, maps it to columns and replays it against
every row, and a nonzero certificate made of its listing's entries reads
that form: so a report counts one call per functional and one per
relation combination, and the queries, whose report was made before the
count, none.

- `queries`: the 2,000 random labelled k=4 graphs of perfbench's
  certify-queries workload (drawn from `--seed`), certified against one odd
  report without loops: `solve_combinations` and `_echelon` calls made
  through `exactla`, replays run (`_replayed` calls), the sign and
  scaling calls and the certificate kinds; then the wall time of the
  2,000 `certify` calls alone over `--repeats` further runs on the same
  report, uncounted.
- `reports`: for each report of perfbench's dim-report grid, `dimension`
  followed by `certify` of every class, as `trihom dim --certify` does: the
  same counters, per report.
"""

from __future__ import annotations

import argparse
import collections
import json
import sys
import time
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import CertifyQueries, DimReport  # noqa: E402

import trihom  # noqa: E402
from trihom import exactla as la  # noqa: E402
from trihom import homology as hom  # noqa: E402
from trihom import multigraph as mg  # noqa: E402
from trihom import orientation as ori  # noqa: E402
from trihom import surgery  # noqa: E402

COUNTED = (
    (la, "solve_combinations"),
    (la, "_echelon"),
    (hom, "_replayed"),
    (hom, "transported_sign"),
    (hom, "_scaled"),
)


class _Counters:
    """Replace each attribute in COUNTED with a wrapper counting its calls,
    the `_echelon` calls with a prime apart from those over Q, and apart
    again those made outside a replay."""

    def __enter__(self):
        self.calls = collections.Counter()
        self.replaying = 0  # the `_replayed` calls under way
        self.saved = []
        for module, attr in COUNTED:
            fn = getattr(module, attr)
            self.saved.append((module, attr, fn))

            def wrapper(*args, _fn=fn, _attr=attr, **kwargs):
                prime = kwargs.get("p", args[1] if len(args) > 1 else None)
                if _attr == "_echelon" and prime:
                    self.calls["mod p"] += 1
                else:
                    self.calls[_attr] += 1
                if not self.replaying:
                    self.calls[_attr, "outside replay"] += 1
                replay = _attr == "_replayed"
                self.replaying += replay
                try:
                    return _fn(*args, **kwargs)
                finally:
                    self.replaying -= replay

            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, fn in self.saved:
            setattr(module, attr, fn)

    def counts(self) -> dict:
        names = {
            "_replayed": "replays",
            "_echelon": "echelon_calls",
            "transported_sign": "sign_calls",
            "_scaled": "scaled_calls",
        }
        out = {names.get(a, f"{a}_calls"): self.calls[a] for _, a in COUNTED}
        out["modular_echelon_calls"] = self.calls["mod p"]
        out["sign_calls_outside_replay"] = self.calls["transported_sign", "outside replay"]
        return out


def _kinds(certs) -> dict:
    return dict(
        sorted(collections.Counter(c.to_json().get("kind", "nonzero") for c in certs).items())
    )


def queries(seed: int, repeats: int) -> dict:
    mods = SimpleNamespace(
        trihom=trihom, multigraph=mg, orientation=ori, homology=hom, surgery=surgery
    )
    (report, drawn), _ = CertifyQueries().setup(mods, seed, None)
    targets = [(g, labelling) for _, g, labelling in drawn]
    with _Counters() as counters:
        certs = [hom.certify(t, report) for t in targets]
    walls = []
    for _ in range(repeats):
        start = time.perf_counter()
        for t in targets:
            hom.certify(t, report)
        walls.append(round(time.perf_counter() - start, 3))
    return {
        "seed": seed,
        "queries": len(targets),
        **counters.counts(),
        "kinds": _kinds(certs),
        "certify_wall_s": walls,
    }


def reports() -> list[dict]:
    out = []
    for k, policy, convention in DimReport.GRID:
        with _Counters() as counters:
            report = hom.dimension(
                k, ori.Convention(convention), mg.TadpolePolicy(policy)
            )
            certs = [hom.certify(c.class_id, report) for c in report.basis.classes]
        out.append(
            {
                "report": f"k{k}_{convention}_{policy}",
                "generators": report.basis.num_generators,
                "dimension": report.dimension,
                **counters.counts(),
                "kinds": _kinds(certs),
            }
        )
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    result = {"queries": queries(args.seed, args.repeats), "reports": reports()}
    json.dump(result, sys.stdout, indent=2)
    print()


if __name__ == "__main__":
    main()

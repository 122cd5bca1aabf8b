"""Certificate replay that shares no code with trihom.

trihom replays each certificate inside ``certify`` with ``assert``, which
``python -O`` strips, so the benchmark checks every certificate again here,
from its JSON form, with ``fractions.Fraction`` over the report's relation
rows.  Each function returns ``None`` when the certificate holds and a
reason when it does not.
"""

from __future__ import annotations

from fractions import Fraction


def perm_sign(perm) -> int:
    sign, seen = 1, [False] * len(perm)
    for i in range(len(perm)):
        length, j = 0, i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length and length % 2 == 0:
            sign = -sign
    return sign


def automorphism_sign(partner, perm, convention: str) -> int | None:
    """Sign of a dart permutation acting on the graph with reference edge
    directions (smaller dart first), or None if it is not an automorphism.

    Even: sign of the induced edge permutation.  Odd: that sign times the
    determinant of the action on the cycle space, whose closed form
    sgn(edges) * (-1)^reversals * sgn(vertices) leaves (-1)^reversals *
    sgn(vertices).
    """
    nd = len(partner)
    if sorted(perm) != list(range(nd)):
        return None
    for v in range(nd // 3):
        if len({perm[3 * v + i] // 3 for i in range(3)}) != 1:
            return None
    if any(partner[perm[d]] != perm[partner[d]] for d in range(nd)):
        return None
    edges = sorted((d, p) for d, p in enumerate(partner) if d < p)
    edge_of = {}
    for i, (a, b) in enumerate(edges):
        edge_of[a] = edge_of[b] = i
    edge_perm, reversals = [], 0
    for a, b in edges:
        j = edge_of[perm[a]]
        edge_perm.append(j)
        reversals += perm[a] != edges[j][0]
    if convention == "even":
        return perm_sign(edge_perm)
    vertex_perm = [perm[3 * v] // 3 for v in range(nd // 3)]
    return (-1) ** reversals * perm_sign(vertex_perm)


class ReportView:
    """What replay needs from a DimensionReport: class partners and
    statuses, generator columns and the relation rows."""

    def __init__(self, report):
        self.convention = report.convention.value
        self.partners = [c.rep.partner for c in report.basis.classes]
        self.statuses = [c.status.value for c in report.basis.classes]
        gens = [i for i, s in enumerate(self.statuses) if s == "generator"]
        self.column = {cid: col for col, cid in enumerate(gens)}
        self.rows = [tuple(row) for row in report.relations.matrix.rows]


def replay(cert: dict, view: ReportView) -> str | None:
    cid = cert.get("class_id")
    if not isinstance(cid, int) or not 0 <= cid < len(view.statuses):
        return f"bad class id {cid!r}"
    if cert["type"] == "nonzero":
        return _replay_nonzero(cert, cid, view)
    kind = cert.get("kind")
    if kind == "sign-witness":
        if view.statuses[cid] != "zero":
            return f"sign witness for generator class {cid}"
        sign = automorphism_sign(
            view.partners[cid], cert["witness_dart_perm"], view.convention
        )
        if sign is None:
            return f"witness is not an automorphism of class {cid}"
        return None if sign == -1 else f"witness of class {cid} has sign +1"
    if kind == "relation-combination":
        if cid not in view.column:
            return f"combination for zero class {cid}"
        acc: dict[int, Fraction] = {}
        for rid, num, den in cert["combination"]:
            for col, v in view.rows[rid]:
                acc[col] = acc.get(col, Fraction(0)) + Fraction(num, den) * v
        acc = {c: v for c, v in acc.items() if v}
        if acc != {view.column[cid]: Fraction(1)}:
            return f"combination for class {cid} does not sum to its unit vector"
        return None
    return f"unexpected zero certificate kind {kind!r}"


def _replay_nonzero(cert: dict, cid: int, view: ReportView) -> str | None:
    if cid not in view.column:
        return f"nonzero certificate for zero class {cid}"
    func = {}
    for fid, num, den in cert["functional"]:
        if fid not in view.column:
            return f"functional names non-generator class {fid}"
        func[view.column[fid]] = Fraction(num, den)
    if not func.get(view.column[cid]):
        return f"functional vanishes on class {cid}"
    for rid, row in enumerate(view.rows):
        if sum((func.get(c, 0) * v for c, v in row), Fraction(0)):
            return f"functional for class {cid} does not annihilate row {rid}"
    return None

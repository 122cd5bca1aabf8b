"""Class bases, IHX relation rows, dimensions, and certificates.

The quotient space is presented on canonical generator classes.  An IHX
row is produced by regrouping the four darts around a non-loop edge; all
three regroupings keep every vertex label, every edge label, and every
edge direction, and enter the relation with coefficient +1 (see the
module test suite for the invariance properties pinning this down).
Terms that are disconnected, carry a tadpole under policy Exclude, or lie
in a Zero class are dropped as 0, with the reason in the row's notes.
Both conventions of one (k, policy) read their classes and the one
`multigraph.ClassTable` that resolves every term from a single memo: its
class is all a certificate reads (`_lookup`), and `signed_class` signs it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm
from operator import is_
from typing import Sequence

from . import exactla
from .errors import LoopEdge, UnknownClass, WrongSize, env_int
from .exactla import PRIMES, SparseIntMatrix, modular_rank
from .multigraph import (
    DEFAULT_MAX_CLASSES,
    ClassTable,
    DartGraph,
    TadpolePolicy,
    enumerate_classes,
)
from .orientation import (
    ClassStatus,
    Convention,
    GraphClass,
    OrientedLabelling,
    classify_conventions,
    reference_labelling,
    transported_sign,
)


@dataclass(frozen=True)
class Expressed:
    """Image of a labelled graph in the class space: 0 or ±(generator),
    with the dart map of an isomorphism onto the generator's representative."""

    coefficient: int
    cls: GraphClass | None
    zero_reason: str | None = None
    dart_map: tuple[int, ...] | None = None

    @property
    def is_zero(self) -> bool:
        return self.coefficient == 0


def _lookup(
    g: DartGraph, basis: ClassBasis, swap: tuple[int, int] | None = None
) -> str | tuple[int, tuple[int, ...]]:
    """The class id of g, or of its regrouping by the dart swap `swap` of
    `ihx_expand`, and the dart map of an isomorphism onto that class's
    representative; or "disconnected", or "tadpole" under Exclude.

    A regrouping keeps the edge it is made around and hangs each of the
    four other darts at that edge's ends on one of those ends, so it is
    connected exactly when g is; the rest is read off its pairing."""
    if not g.connected:
        return "disconnected"
    partner = _regrouped(g.partner, swap)
    if basis.policy is TadpolePolicy.EXCLUDE and _has_loop(g, partner, swap):
        return "tadpole"
    return basis.table.find(partner)


def signed_class(
    g: DartGraph,
    labelling: OrientedLabelling,
    basis: ClassBasis,
    swap: tuple[int, int] | None = None,
) -> Expressed:
    """Express a labelled graph, or its regrouping by the dart swap `swap`
    of `ihx_expand`, as 0 or ±1 times a canonical generator of `basis`:
    the class of `_lookup`, signed by `transported_sign`, which carries g's
    labelling across the swap and the lookup map."""
    found = _lookup(g, basis, swap)
    if isinstance(found, str):
        return Expressed(0, None, found)
    # Any two witnesses onto a generator's representative differ by an
    # automorphism, whose sign is +1, so every witness gives one coefficient.
    class_id, dart_map = found
    cls = basis.classes[class_id]
    if cls.status is ClassStatus.ZERO:
        return Expressed(0, cls, "zero-class")
    sign = transported_sign(basis.convention, g, labelling, dart_map, cls.rep, swap)
    return Expressed(sign, cls, dart_map=dart_map)


def _has_loop(
    g: DartGraph, partner: tuple[int, ...], swap: tuple[int, int] | None
) -> bool:
    """Whether g's regrouping by `swap`, with pairing `partner`, has a loop.

    A swap rewrites only the pairs of its two darts, so a regrouping of a
    graph with no loop has one exactly when a swapped dart is paired within
    its own vertex."""
    if swap is None:
        return g.has_loop
    if g.has_loop:
        return any(p // 3 == d // 3 for d, p in enumerate(partner))
    return any(partner[d] // 3 == d // 3 for d in swap)


def _regrouped(
    partner: tuple[int, ...], swap: tuple[int, int] | None
) -> tuple[int, ...]:
    """The pairing `partner` conjugated by the dart transposition `swap`,
    P[τd] = τ(partner[d]): the two swapped darts exchange partners, and a
    pair of them stays paired.  `partner` itself when `swap` is None."""
    if swap is None:
        return partner
    a, b = swap
    pa, pb = partner[a], partner[b]
    ta = a if pa == b else pa  # τ(partner[a])
    tb = b if pb == a else pb  # τ(partner[b])
    out = list(partner)
    out[b], out[ta] = ta, b
    out[a], out[tb] = tb, a
    return tuple(out)


def ihx_expand(
    g: DartGraph, edge_index: int
) -> list[tuple[str, tuple[int, int] | None]]:
    """The three regroupings around a non-loop edge, tagged I/H/X, each as
    the dart swap that makes it from g: None for I, (q, r) for H and (q, s)
    for X, where q is the greater of the edge's other two darts at its first
    vertex and r < s those at its second.

    A term keeps g's vertex blocks, and each edge of g, with its label and
    direction, moves along the swap; so each term enters the relation row
    with coefficient +1.
    """
    if not _in_range(edge_index, g.num_edges):
        raise ValueError(f"edge index must be in 0..{g.num_edges - 1}: {edge_index!r}")
    if g.is_loop(edge_index):
        raise LoopEdge(f"edge {edge_index} is a self-loop")
    a, b = g.edges[edge_index]
    q = max(d for d in g.darts_of(a // 3) if d != a)
    r, s = (d for d in g.darts_of(b // 3) if d != b)
    return [("I", None), ("H", (q, r)), ("X", (q, s))]


def _in_range(i: object, n: int) -> bool:
    """Whether `i` is an int id among 0..n-1; a negative one would index
    from the end, and a bool is no id."""
    return type(i) is int and 0 <= i < n


def _check_labelling(g: DartGraph, labelling: OrientedLabelling) -> None:
    """Raise `ValueError` unless the vertex and edge labels of `labelling`
    are each a permutation of 1..n and each edge's direction is its two
    darts, every label and dart an int (not a bool, a float or a string
    that equals one), and every list and direction a sequence."""
    try:
        for what, labels, n in (
            ("vertex", labelling.vertex_labels, g.num_vertices),
            ("edge", labelling.edge_labels, g.num_edges),
        ):
            # one pass: a label that is no int is left out, and then the n
            # labels cannot cover 1..n
            ints = {x for x in labels if type(x) is int}
            if len(labels) != n or ints != set(range(1, n + 1)):
                raise ValueError(f"{what} labels are not a permutation of 1..{n}")
        directions = labelling.directions
        if len(directions) != g.num_edges or not all(
            tuple(ends) in (edge, edge[::-1]) and type(ends[0]) is type(ends[1]) is int
            for ends, edge in zip(directions, g.edges)
        ):
            raise ValueError("directions are not their edges' darts")
    except TypeError:  # a list or a direction that has no length or items
        raise ValueError("the labelling is not lists of labels and darts") from None


def _replay_column(basis: ClassBasis, class_id: object) -> int:
    """The column of the generator a certificate names by `class_id`, or -1
    if the id names no generator: a zero class, or no class at all."""
    if _in_range(class_id, len(basis.columns)):
        return basis.columns[class_id]
    return -1


@dataclass
class ClassBasis:
    """All classes at (k, convention, policy); generators carry column ids.

    `orbit_min[class_id]` maps each edge of a generator's representative to
    the least edge of its orbit under the automorphism group; it is read
    only at generators.  `columns[class_id]` is a generator's column and -1
    for a zero class.  Both conventions share `table` and `orbit_min`."""

    k: int
    convention: Convention
    policy: TadpolePolicy
    classes: list[GraphClass]
    table: ClassTable
    orbit_min: tuple[tuple[int, ...] | None, ...]

    @property
    def num_generators(self) -> int:
        return len(self.generators)

    def __post_init__(self):
        # built once: certificates name generator columns by class id
        self.generators = [
            c for c in self.classes if c.status is ClassStatus.GENERATOR
        ]
        self.generator_ids = [c.class_id for c in self.generators]
        self.columns = [-1] * len(self.classes)
        for i, c in enumerate(self.generators):
            self.columns[c.class_id] = i


def class_basis(
    k: int, convention: Convention, policy: TadpolePolicy = TadpolePolicy.EXCLUDE
) -> ClassBasis:
    """All classes at (k, convention, policy), in enumeration order; read
    from the memo of `_classified`, so the two conventions of one
    (k, policy) share one enumeration and one class table.  k is checked
    first, since the memo's key would take True for 1."""
    if type(k) is not int or k < 1:
        raise ValueError(f"k must be an int >= 1, got {k!r}")
    limit = env_int("AK_MAX_CLASSES", DEFAULT_MAX_CLASSES)
    by_convention, orbit_min, table = _classified(k, policy, limit)
    classes = list(by_convention[convention])
    return ClassBasis(k, convention, policy, classes, table, orbit_min)


@lru_cache(maxsize=1)
def _classified(
    k: int, policy: TadpolePolicy, limit: int
) -> tuple[
    dict[Convention, tuple[GraphClass, ...]],
    tuple[tuple[int, ...] | None, ...],
    ClassTable,
]:
    """The classes of `enumerate_classes(k, policy)` with their ids, under
    each convention, each class's `_orbit_min` (None for a class that is
    zero under both) and the `ClassTable` of their representatives.

    Only the status and witness depend on the convention, so both
    conventions are classified in one pass over the class's group while it
    is in hand, and the group is then dropped.  Equal witnesses are stored
    once, which keeps the memo within the memory of one convention's
    classes: at k=7 the 3,394 even and 1,478 odd zero classes have 307
    and 239 distinct ones.  The memo keeps the last key only: the census
    and the report grid ask for both conventions of one (k, policy) in
    turn.  `limit` is the `AK_MAX_CLASSES` that `enumerate_classes` reads;
    it is in the key so that a lower limit set later is still enforced."""
    classes: dict[Convention, list[GraphClass]] = {c: [] for c in Convention}
    orbit_min = []
    witnesses: dict[tuple[int, ...] | None, tuple[int, ...] | None] = {}
    for i, (rep, autos) in enumerate(enumerate_classes(k, policy)):
        generator = False
        for c, cls in classify_conventions(rep, autos).items():
            witness = witnesses.setdefault(cls.witness, cls.witness)
            classes[c].append(replace(cls, witness=witness, class_id=i))
            generator |= cls.status is ClassStatus.GENERATOR
        orbit_min.append(_orbit_min(rep, autos) if generator else None)
    table = ClassTable([c.rep for c in classes[Convention.ODD]])
    return {c: tuple(v) for c, v in classes.items()}, tuple(orbit_min), table


def _orbit_min(rep: DartGraph, autos: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Each edge's least image under the dart maps `autos`: the least edge
    of its orbit, since `autos` is the whole automorphism group."""
    return tuple(min(rep.edge_of_dart(t[a]) for t in autos) for a, _ in rep.edges)


@dataclass
class RelationData:
    """The relation matrix M with its provenance, and what its exact
    echelons give every certificate: the functionals, made by `dimension`,
    which give the rank and the nonzero certificates, and the relation
    combinations of the generators that every functional misses, solved
    once, on the first certificate that needs one.  The functionals'
    integer forms, replayed against the rows once, are kept on the report
    (`DimensionReport._replays`).

    `rows[i]` is the (generator class id, edge) pair whose expansion gave
    `matrix.rows[i]`; `zero_rows` holds the pairs of zero rows.  No notes
    are kept: `_notes` writes them again from the pair's `_terms`.  Every
    non-loop edge of a generator is counted once: as a row, a zero row, a
    duplicate, or `skipped` unexpanded (see `relation_matrix`)."""

    matrix: SparseIntMatrix
    rows: list[tuple[int, int]]
    zero_rows: list[tuple[int, int]]
    duplicates: int
    skipped: int

    @cached_property
    def functionals(self) -> list[dict[int, Fraction]]:
        """Basis of the functionals on generator columns that vanish on
        every row, as sparse vectors with no zero entries: the kernel of M.
        There are (columns - rank) of them."""
        return exactla.kernel(self.matrix)

    @cached_property
    def combinations(self) -> dict[int, dict[int, Fraction]]:
        """Each column that every functional misses, which is then a
        combination of the rows, to that combination by row id."""
        m = self.matrix
        hit = set().union(*self.functionals)
        missed = [c for c in range(m.num_cols) if c not in hit]
        units = SparseIntMatrix(len(missed), m.num_cols, [[(c, 1)] for c in missed])
        return dict(zip(missed, exactla.solve_combinations(m, units)))


def _terms(
    basis: ClassBasis, g: DartGraph, labelling: OrientedLabelling, edge_index: int
) -> list[tuple[str, Expressed]]:
    """The I, H and X terms around a non-loop edge, in the class space."""
    return [
        (tag, signed_class(g, labelling, basis, swap))
        for tag, swap in ihx_expand(g, edge_index)
    ]


def _row(basis: ClassBasis, terms: list[tuple[str, Expressed]]) -> dict[int, int]:
    """The sum of `terms` over generator columns."""
    acc: dict[int, int] = {}
    for _, res in terms:
        if not res.is_zero:
            col = basis.columns[res.cls.class_id]
            acc[col] = acc.get(col, 0) + res.coefficient
    return {c: v for c, v in acc.items() if v != 0}


def _notes(basis: ClassBasis, terms: list[tuple[str, Expressed]]) -> tuple[str, ...]:
    """A note per term: its tag with its zero reason or its signed column."""
    notes = []
    for tag, res in terms:
        if res.is_zero:
            notes.append(f"{tag}:0({res.zero_reason})")
        else:
            sign = "+" if res.coefficient > 0 else "-"
            notes.append(f"{tag}:{sign}g{basis.columns[res.cls.class_id]}")
    return tuple(notes)


def relation_matrix(basis: ClassBasis) -> RelationData:
    """Deduplicated IHX rows from the non-loop edges of the generators.

    A (generator, edge) pair is expanded only if no earlier expansion gave
    its row up to sign already:

    - orbit rule: an automorphism of a generator has sign +1, so the edges
      of one orbit give one row, and only the orbit's least edge is
      expanded;
    - term rule: an expanded edge (a, b) is an edge of its H and X terms
      too, and the three regroupings of such a term around it are this
      row's three terms up to a dart swap inside a vertex.  So a term in a
      generator class gives ± this row at the image of the edge under the
      term's isomorphism onto the representative, and that pair is marked
      done.

    A skipped pair would give a zero row or a duplicate, so the rows, their
    order and their pairs are those of expanding every pair; only
    `zero_rows` and `duplicates` are short of the pairs counted `skipped`.
    """
    seen: dict[tuple[tuple[int, int], ...], tuple[int, int]] = {}  # row -> pair
    done: set[tuple[int, int]] = set()
    zero_rows: list[tuple[int, int]] = []
    duplicates = 0
    skipped = 0
    for cls in basis.classes:
        if cls.status is not ClassStatus.GENERATOR:
            continue
        rep = cls.rep
        labelling = reference_labelling(rep)
        for e, least in enumerate(basis.orbit_min[cls.class_id]):
            if rep.is_loop(e):
                continue
            if least != e or (cls.class_id, e) in done:
                skipped += 1
                continue
            terms = _terms(basis, rep, labelling, e)
            a = rep.edges[e][0]
            for _, res in terms[1:]:
                if not res.is_zero:
                    image = res.cls.rep.edge_of_dart(res.dart_map[a])
                    term_id = res.cls.class_id
                    done.add((term_id, basis.orbit_min[term_id][image]))
            acc = _row(basis, terms)
            if not acc:
                zero_rows.append((cls.class_id, e))
                continue
            entries = tuple(sorted(acc.items()))
            if entries[0][1] < 0:
                entries = tuple((c, -v) for c, v in entries)
            if entries in seen:
                duplicates += 1
                continue
            seen[entries] = (cls.class_id, e)
    matrix = SparseIntMatrix(len(seen), basis.num_generators, seen)
    return RelationData(matrix, list(seen.values()), zero_rows, duplicates, skipped)


# a functional's (generator class id, value) listing and its replayed `_form`
_Replay = tuple[list[tuple[int, Fraction]], dict[int, int] | None]


@dataclass
class DimensionReport:
    """A basis and its relations, off which every figure is read."""

    basis: ClassBasis
    relations: RelationData

    @property
    def k(self) -> int:
        return self.basis.k

    @property
    def convention(self) -> Convention:
        return self.basis.convention

    @property
    def policy(self) -> TadpolePolicy:
        return self.basis.policy

    @property
    def num_classes(self) -> int:
        return len(self.basis.classes)

    @property
    def num_generators(self) -> int:
        return self.basis.num_generators

    @property
    def num_rows(self) -> int:
        return self.relations.matrix.num_rows

    @property
    def rank(self) -> int:
        return self.num_generators - self.dimension

    @property
    def dimension(self) -> int:
        return len(self.relations.functionals)

    @cached_property
    def _replays(self) -> list[_Replay]:
        """Each functional as sorted (generator class id, value) pairs, with
        its `_form`: scaled, mapped to columns and replayed against every
        row once per report, and None if that replay fails."""
        ids, out = self.basis.generator_ids, []
        for vec in self.relations.functionals:
            listing = [(ids[i], v) for i, v in sorted(vec.items())]
            out.append((listing, _form(self, listing)))
        return out

    @cached_property
    def _listings(self) -> dict[int, _Replay]:
        """Each column that a functional is nonzero at, to the first such
        functional's pair in `_replays`."""
        out: dict[int, _Replay] = {}
        for vec, pair in zip(self.relations.functionals, self._replays):
            out.update((col, pair) for col in vec if col not in out)
        return out

    def to_json(self) -> dict:
        classes = [
            {"id": c.class_id, "code": c.rep.code_str(), "status": c.status.value}
            for c in self.basis.classes
        ]
        return {
            "k": self.k,
            "convention": self.convention.value,
            "tadpoles": self.policy.value,
            "num_classes": self.num_classes,
            "num_generators": self.num_generators,
            "num_rows": self.num_rows,
            "rank": self.rank,
            "dimension": self.dimension,
            "classes": classes,
            "certificates": [],
        }


def dimension(
    k: int, convention: Convention, policy: TadpolePolicy = TadpolePolicy.EXCLUDE
) -> DimensionReport:
    """Exact dimension of the quotient at (k, convention, policy): the number
    of functionals that vanish on every relation row, which certify nonzero
    classes; the rank r is the generators less that number.  They end at
    distinct columns, so are independent, and replay in integers
    (`DimensionReport._replays`): M's rank is at most r.  No rank mod p is
    above it, so the check stops at the first prime of `PRIMES` that meets
    r, and raises when none does, as every other failed check raises."""
    basis = class_basis(k, convention, policy)
    report = DimensionReport(basis, relation_matrix(basis))
    rel, r = report.relations, report.rank
    last = {max(vec, default=-1) for vec in rel.functionals} - {-1}
    if len(last) < len(rel.functionals):
        raise AssertionError("the functionals are not independent")
    for i, (_, form) in enumerate(report._replays):
        if form is None:
            raise AssertionError(f"functional {i} failed replay")
    ranks: list[int] = []  # mod each prime of PRIMES, until one meets r
    while rel.matrix.num_rows and r not in ranks:
        if len(ranks) == len(PRIMES):
            raise AssertionError(
                "modular rank disagrees with exact rank: "
                f"{max(ranks)} != {r}; matrix dump:\n{rel.matrix.to_matrixmarket()}"
            )
        ranks.append(modular_rank(rel.matrix, PRIMES[len(ranks)]))
    return report


def express(
    g: DartGraph,
    basis: ClassBasis,
    labelling: OrientedLabelling | None = None,
) -> dict[int, Fraction]:
    """Sparse vector over generator columns: ±1 on one column, or empty.
    A labelling that is not one of g raises `ValueError`."""
    if g.num_vertices != 2 * basis.k:
        raise WrongSize(
            f"graph has {g.num_vertices} vertices, basis expects {2 * basis.k}"
        )
    if labelling is None:
        labelling = reference_labelling(g)
    else:
        _check_labelling(g, labelling)
    res = signed_class(g, labelling, basis)
    if res.is_zero:
        return {}
    return {basis.columns[res.cls.class_id]: Fraction(res.coefficient)}


@dataclass
class ZeroCertificate:
    """Replayable evidence that a class or labelled graph vanishes."""

    kind: str  # "sign-witness" | "excluded" | "relation-combination"
    class_id: int | None = None
    witness_dart_perm: tuple[int, ...] | None = None
    combination: list[tuple[int, Fraction]] = field(default_factory=list)
    reason: str | None = None

    def to_json(self) -> dict:
        return {
            "type": "zero",
            "kind": self.kind,
            "class_id": self.class_id,
            "witness_dart_perm": list(self.witness_dart_perm)
            if self.witness_dart_perm
            else None,
            "reason": self.reason,
            "combination": [
                [rid, c.numerator, c.denominator] for rid, c in self.combination
            ],
        }


@dataclass
class NonzeroCertificate:
    """Functional over generator columns annihilating every relation row."""

    class_id: int
    functional: list[tuple[int, Fraction]]

    def to_json(self) -> dict:
        return {
            "type": "nonzero",
            "class_id": self.class_id,
            "functional": [
                [cid, f.numerator, f.denominator] for cid, f in self.functional
            ],
        }


def _replay_zero(
    cert: ZeroCertificate, report: DimensionReport
) -> bool:
    """Whether a zero certificate replays against `report`.  An excluded
    one names no class and a reason the report can give: "disconnected",
    or "tadpole" under Exclude.  It does not carry its graph, so the replay
    cannot check that the graph is disconnected or has a loop."""
    if cert.kind == "excluded":
        return cert.class_id is None and (
            cert.reason == "disconnected"
            or cert.reason == "tadpole" and report.policy is TadpolePolicy.EXCLUDE
        )
    basis = report.basis
    if cert.kind == "sign-witness":
        if not _in_range(cert.class_id, len(basis.classes)):
            return False
        cls = basis.classes[cert.class_id]
        rep, witness = cls.rep, cert.witness_dart_perm
        labelling = reference_labelling(rep)
        return (
            cls.status is ClassStatus.ZERO
            and _is_automorphism(rep, witness)
            and transported_sign(report.convention, rep, labelling, witness, rep) == -1
        )
    if cert.kind == "relation-combination":
        target_col = _replay_column(basis, cert.class_id)
        scaled = _scaled(cert.combination)
        if target_col == -1 or scaled is None:
            return False
        scale, coeffs = scaled
        rows = report.relations.matrix.rows
        if not all(_in_range(rid, len(rows)) for rid, _ in coeffs):
            return False
        acc: dict[int, int] = {}
        for rid, w in coeffs:
            for col, v in rows[rid]:
                acc[col] = acc.get(col, 0) + w * v
        return {c: v for c, v in acc.items() if v} == {target_col: scale}
    return False


def _is_automorphism(g: DartGraph, dart_map: Sequence[int] | None) -> bool:
    """Whether `dart_map` is an automorphism of g: a bijection of its darts
    that keeps the three darts of each vertex together and commutes with
    the pairing.  Every entry must be an int: a bool or a float that equals
    a dart is no dart."""
    n = g.num_darts
    ints = dart_map is not None and all(type(d) is int for d in dart_map)
    if not ints or sorted(dart_map) != list(range(n)):
        return False
    return all(
        dart_map[d] // 3 == dart_map[d - d % 3] // 3
        and dart_map[g.partner[d]] == g.partner[dart_map[d]]
        for d in range(n)
    )


def _scaled(
    vec: list[tuple[int, Fraction]]
) -> tuple[int, list[tuple[int, int]]] | None:
    """`vec` times the lcm of its denominators, as that lcm and integers;
    None if a value is not an int or a `Fraction` (a bool or a float is no
    exact value).

    A positive scale keeps every sum's zero-ness, so a replay checks the
    integer vector exactly as it would check the Fraction one.
    """
    if not all(type(v) in (int, Fraction) for _, v in vec):
        return None
    scale = lcm(*(v.denominator for _, v in vec))
    return scale, [(i, v.numerator * (scale // v.denominator)) for i, v in vec]


def _replay_nonzero(cert: NonzeroCertificate, report: DimensionReport) -> bool:
    """Whether the functional is nonzero at the certificate's class and
    annihilates every relation row.

    A functional made of the very entries of the report's listing at that
    class's column, as `_certify_class` makes every nonzero certificate,
    reads the `_form` that `DimensionReport._replays` made of the listing
    once per report, so only the class and its column are checked here.
    The entries are compared by identity, since `==` would take True for
    the id 1.  Any other functional is scaled and replayed in full."""
    col = _replay_column(report.basis, cert.class_id)
    listing, form = report._listings.get(col, ((), None))
    func = cert.functional
    if len(func) != len(listing) or not all(map(is_, func, listing)):
        form = _form(report, func)
    return form is not None and bool(form.get(col))


def _form(
    report: DimensionReport, functional: list[tuple[int, Fraction]]
) -> dict[int, int] | None:
    """`functional`, over generator class ids, scaled by `_scaled` and
    mapped to columns, if it annihilates every row of the report's matrix;
    None if it does not, has a value `_scaled` refuses, or names a zero
    class, no class, or an id twice."""
    scaled = _scaled(functional)
    if scaled is None:
        return None
    _, entries = scaled
    func = {_replay_column(report.basis, c): v for c, v in entries}
    if -1 in func or len(func) < len(entries):  # a zero class, no class, a repeat
        return None
    rows = report.relations.matrix.rows
    if any(sum(func.get(c, 0) * v for c, v in row) for row in rows):
        return None
    return func


def _replayed(
    cert: ZeroCertificate | NonzeroCertificate, report: DimensionReport
) -> ZeroCertificate | NonzeroCertificate:
    """`cert`, after replaying it against `report`; a failed replay raises."""
    if isinstance(cert, NonzeroCertificate):
        kind, ok = "nonzero", _replay_nonzero(cert, report)
    else:
        kind, ok = cert.kind, _replay_zero(cert, report)
    if not ok:
        if cert.class_id is None:  # an excluded graph has no class
            raise AssertionError(f"{kind} certificate ({cert.reason}) failed replay")
        raise AssertionError(
            f"{kind} certificate for class {cert.class_id} failed replay"
        )
    return cert


def certify(
    target: int | DartGraph | tuple[DartGraph, OrientedLabelling],
    report: DimensionReport,
) -> ZeroCertificate | NonzeroCertificate:
    """Zero or nonzero certificate for a class id or labelled graph,
    replay-checked before return.  A class id that names no class of the
    report, a negative one included, raises `UnknownClass`; a labelling
    that is not one of its graph raises `ValueError`.  A graph is looked up,
    not signed: its certificate is its class's."""
    basis = report.basis
    if isinstance(target, tuple):
        g, labelling = target
        _check_labelling(g, labelling)
    elif isinstance(target, DartGraph):
        g = target
    elif _in_range(target, len(basis.classes)):
        return _certify_class(basis.classes[target], report)
    else:
        raise UnknownClass(f"no class {target!r} in the report")
    if g.num_vertices != 2 * basis.k:
        raise WrongSize("target graph size does not match the basis")
    found = _lookup(g, basis)
    if isinstance(found, str):  # disconnected, or a tadpole under Exclude
        return _replayed(ZeroCertificate(kind="excluded", reason=found), report)
    return _certify_class(basis.classes[found[0]], report)


def _certify_class(
    cls: GraphClass, report: DimensionReport
) -> ZeroCertificate | NonzeroCertificate:
    """The sign witness of a zero class; for a generator, a nonzero
    functional when one exists, else a relation combination.

    The functionals are a basis of ker M, `report.dimension` vectors, so the
    class is a combination of rows exactly when every functional vanishes at
    its column.  Only then is its combination read, from the report's
    `combinations`, solved for every such column at once.  A nonzero
    certificate is a new list of the entries of its functional's listing
    in `_listings`, which `_replay_nonzero` checks only at the class.
    """
    if cls.status is ClassStatus.ZERO:
        cert: ZeroCertificate | NonzeroCertificate = ZeroCertificate(
            kind="sign-witness", class_id=cls.class_id, witness_dart_perm=cls.witness
        )
        return _replayed(cert, report)
    col = report.basis.columns[cls.class_id]
    if col in report._listings:  # a copy, so that no caller's change reaches another
        listing, _ = report._listings[col]
        cert = NonzeroCertificate(class_id=cls.class_id, functional=list(listing))
        return _replayed(cert, report)
    cert = ZeroCertificate(
        kind="relation-combination",
        class_id=cls.class_id,
        combination=sorted(report.relations.combinations[col].items()),
    )
    return _replayed(cert, report)

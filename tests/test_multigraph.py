import math
import random

import pytest

import exhaustive_search
import leaf_only_generation as ref
import set_invariants
from trihom import multigraph as mg
from trihom.errors import (
    BadEnvironment,
    MalformedPairing,
    NotConnected,
    NotTrivalent,
    ResourceLimit,
)

from conftest import compose, inverse, random_pairing, shuffled_pairing


def test_theta_construction(theta):
    assert theta.num_vertices == 2
    assert theta.edges == ((0, 3), (1, 4), (2, 5))
    assert not theta.has_loop
    assert theta.connected


def test_dumbbell_construction(dumbbell):
    assert dumbbell.has_loop


def test_malformed_pairings():
    with pytest.raises(MalformedPairing):
        mg.from_pairing(2, [(0, 3), (1, 4)])  # darts 2, 5 unmatched
    with pytest.raises(MalformedPairing):
        mg.from_pairing(2, [(0, 3), (0, 4), (1, 2)])
    with pytest.raises(MalformedPairing):
        mg.from_pairing(2, [(0, 0), (1, 4), (2, 5), (3, 3)])
    with pytest.raises(MalformedPairing):
        mg.from_pairing(2, [(0, 9), (1, 4), (2, 5)])
    with pytest.raises(NotTrivalent):
        mg.from_pairing(3, [])
    with pytest.raises(NotTrivalent):
        mg.from_pairing(0, [])


def test_disconnected_detected():
    pairs = [(0, 3), (1, 4), (2, 5), (6, 9), (7, 10), (8, 11)]
    with pytest.raises(NotConnected):
        mg.from_pairing(4, pairs)
    g = mg.from_pairing(4, pairs, allow_disconnected=True)
    assert not g.connected
    for search in (mg.canonical_form, mg.canonical_code, mg.automorphisms):
        with pytest.raises(NotConnected):
            search(g)


def test_edges_come_sorted(rng):
    """A graph's edges, read off its pairing in increasing first dart, are
    sorted, for random pairings connected or not, with loops or without."""
    connected = set()
    for k in (1, 2, 3, 4):
        for _ in range(50):
            g = shuffled_pairing(k, rng)
            connected.add(g.connected)
            assert g.edges == tuple(sorted(g.edges))
            assert len(g.edges) == 3 * k
            assert all(a < b and g.partner[a] == b for a, b in g.edges)
    assert connected == {True, False}


def test_fifteen_pairings_two_codes():
    codes = set()
    for p in ref.all_pairings(1):
        if mg._connected(2, p):
            codes.add(mg.canonical_code(mg.DartGraph(2, p, True)))
    assert len(codes) == 2


def test_enumerate_counts_small():
    assert len(list(mg.enumerate_trivalent(1))) == 1
    assert len(list(mg.enumerate_trivalent(1, mg.TadpolePolicy.INCLUDE))) == 2
    assert len(list(mg.enumerate_trivalent(2))) == 2
    assert len(list(mg.enumerate_trivalent(2, mg.TadpolePolicy.INCLUDE))) == 5


def test_simple_classes_match_a002851():
    """The classes without a loop start (3, 6) exactly when they have no
    double edge either, and those simple connected cubic graphs on 2k
    vertices number 0, 1, 2, 5, 19, 85 for k = 1..6: OEIS A002851, quoted
    from memory, not checked against the source."""
    counts = []
    for k in range(1, 7):
        simple = 0
        for g in mg.enumerate_trivalent(k):
            p = g.partner
            ends = [{p[d] // 3 for d in range(3 * v, 3 * v + 3)} for v in range(2 * k)]
            plain = all(len(e) == 3 and v not in e for v, e in enumerate(ends))
            assert (p[:2] == (3, 6)) == plain
            simple += plain
        counts.append(simple)
    assert counts == [0, 1, 2, 5, 19, 85]


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize(
    "policy", [mg.TadpolePolicy.EXCLUDE, mg.TadpolePolicy.INCLUDE]
)
def test_enumerate_matches_naive_pairing_oracle(k, policy):
    """Brute force over all pairings, quotient by isomorphism."""
    include = policy is mg.TadpolePolicy.INCLUDE
    codes = set()
    for p in ref.all_pairings(k):
        if not mg._connected(2 * k, p):
            continue
        g = mg.DartGraph(2 * k, p, True)
        if g.has_loop and not include:
            continue
        codes.add(mg.canonical_code(g))
    enumerated = [g.partner for g in mg.enumerate_trivalent(k, policy)]
    assert sorted(codes) == enumerated
    # the premise of orderly generation: each minimal code is a DFS pairing
    assert codes <= set(ref.pairing_dfs(k, include))


@pytest.mark.parametrize(
    "k, policy",
    [(k, pol) for k in (1, 2, 3) for pol in mg.TadpolePolicy]
    + [(4, mg.TadpolePolicy.EXCLUDE)],
)
def test_one_dfs_pairing_per_class_passes_bound(k, policy):
    """The full-length tie test, bounded by the pairing itself, keeps a DFS
    pairing exactly when it is its own minimal code, so each class reached
    by the DFS is kept once."""
    include = policy is mg.TadpolePolicy.INCLUDE
    codes, kept = set(), []
    for p in ref.pairing_dfs(k, include):
        code = mg.canonical_code(mg.DartGraph(2 * k, p, True))
        codes.add(code)
        minimal = mg._prefix_ties(p, 6 * k, [], _seeds_from_scratch(p)) is not None
        assert minimal == (p == code)
        if minimal:
            kept.append(p)
    assert sorted(kept) == sorted(codes)
    assert sorted(kept) == [g.partner for g in mg.enumerate_trivalent(k, policy)]


@pytest.mark.parametrize(
    "k, policy",
    [(k, pol) for k in (1, 2, 3) for pol in mg.TadpolePolicy]
    + [(4, mg.TadpolePolicy.EXCLUDE)],
)
def test_full_length_tie_test_matches_exhaustive_reference(k, policy):
    """On every DFS pairing the full-length tie test from scratch returns
    None exactly when the exhaustive search finds a code below the pairing;
    otherwise its states' dart maps, expanded by their swaps, are the
    exhaustive search's automorphism group, each once.  So each class
    reached by the DFS is kept once."""
    include = policy is mg.TadpolePolicy.INCLUDE
    kept = []
    for p in ref.pairing_dfs(k, include):
        g = mg.DartGraph(2 * k, p, True)
        ties = mg._prefix_ties(p, 6 * k, [], _seeds_from_scratch(p))
        want = exhaustive_search.min_code_maps(g, collect_all=True, bound=p)
        assert (ties is None) == (want is None)
        if ties is not None:
            assert sorted(mg._tie_maps(ties)) == sorted(want[1])
            kept.append(p)
    assert sorted(kept) == [g.partner for g in mg.enumerate_trivalent(k, policy)]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("policy", list(mg.TadpolePolicy))
def test_prefix_pruned_enumeration_matches_leaf_only_reference(k, policy):
    include = policy is mg.TadpolePolicy.INCLUDE
    enumerated = [g.partner for g in mg.enumerate_trivalent(k, policy)]
    assert enumerated == ref.orderly_codes(k, include)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("policy", list(mg.TadpolePolicy))
def test_prefix_cuts_hold_no_minimal_pairing(monkeypatch, k, policy):
    """Every subtree the prefix test cuts, walked with the leaf-only DFS,
    holds no pairing that is its own minimal code."""
    include = policy is mg.TadpolePolicy.INCLUDE
    cut = []
    prefix_ties = mg._prefix_ties

    def recording_test(partner, end, ties, fresh_seeds):
        found = prefix_ties(partner, end, ties, fresh_seeds)
        if found is None:
            cut.append(tuple(partner))
        return found

    monkeypatch.setattr(mg, "_prefix_ties", recording_test)
    list(mg.enumerate_trivalent(k, policy))
    monkeypatch.undo()
    assert cut or k == 1
    for node in cut:
        for p in ref.pairing_dfs(k, include, start=node):
            assert mg.canonical_code(mg.DartGraph(2 * k, p, True)) < p


def _dropped_by_vertex_zero(node, x):
    """Whether the DFS child `node`, which has just paired dart x, breaks
    vertex 0's local type: a loop where vertex 0 has none (node[0] != 1),
    or a double edge where vertex 0 has neither (node[1] == 6)."""
    y = node[x]
    ends = [node[d] // 3 for d in range(x - x % 3, x) if node[d] != -1]
    if y // 3 == x // 3:
        return node[0] != 1
    return y // 3 in ends and node[1] == 6


def _dfs_path(p):
    """The DFS children on the way to the DFS node p, each with the dart it
    paired: the least free dart, with its partner in p."""
    node = [-1] * len(p)
    for x, y in enumerate(p):
        if node[x] == -1:  # the least free dart
            if y == -1:
                return
            node[x], node[y] = y, x
            yield tuple(node), x


@pytest.mark.parametrize(
    "k, policy",
    [(k, pol) for k in (1, 2, 3) for pol in mg.TadpolePolicy]
    + [(4, mg.TadpolePolicy.EXCLUDE)],
)
def test_vertex_zero_drops_hold_no_minimal_pairing(monkeypatch, k, policy):
    """Every DFS child that vertex 0's local type rules out (a loop where
    vertex 0 has none, a double edge where it has neither), walked with
    the leaf-only DFS, holds no pairing that is its own minimal code, as a
    minimal code starts (1, 0) on a graph with a loop, (3, 4) on one with
    a double edge and (3, 6) on the rest.  Enumeration tests no node in
    such a subtree.  There is one from k = 2 on, and at k = 1 with loops."""
    include = policy is mg.TadpolePolicy.INCLUDE
    dropped = {
        node
        for p in ref.pairing_dfs(k, include)
        for node, x in _dfs_path(p)
        if _dropped_by_vertex_zero(node, x)
    }
    assert bool(dropped) == (k > 1 or include)
    for node in dropped:
        for p in ref.pairing_dfs(k, include, start=node):
            assert mg.canonical_code(mg.DartGraph(2 * k, p, True)) < p
    tested = []
    prefix_ties = mg._prefix_ties

    def recording_test(partner, end, ties, fresh_seeds):
        tested.append(tuple(partner))
        return prefix_ties(partner, end, ties, fresh_seeds)

    monkeypatch.setattr(mg, "_prefix_ties", recording_test)
    list(mg.enumerate_trivalent(k, policy))
    assert tested
    for partner in tested:
        assert not any(_dropped_by_vertex_zero(*step) for step in _dfs_path(partner))


def _pure_tree_edge(node, x):
    """Whether the inner DFS node `node`, which has just paired dart x, was
    reached by a pure tree edge: x's partner is the first dart of a new
    vertex, whose other darts are free, and x + 1 is the least free dart."""
    y = node[x]
    return y % 3 == 0 and node[y + 1] == node[y + 2] == -1 and node.index(-1) == x + 1


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("policy", list(mg.TadpolePolicy))
def test_no_node_reached_by_a_pure_tree_edge_is_tested(monkeypatch, k, policy):
    """No DFS node reached by a pure tree edge runs a prefix test, even
    with two or more children, and every other inner node with two or more
    children, the root aside, runs one.  A node's children are read off the
    DFS paths of the tested pairings, complete ones included, so a child
    with no test below it is not seen.  From k = 3 on, the rule leaves some
    node with two or more children untested."""
    tested = set()
    prefix_ties = mg._prefix_ties

    def recording_test(partner, end, ties, fresh_seeds):
        tested.add(tuple(partner))
        return prefix_ties(partner, end, ties, fresh_seeds)

    monkeypatch.setattr(mg, "_prefix_ties", recording_test)
    list(mg.enumerate_trivalent(k, policy))
    children, reached = {}, {}
    for p in tested:
        parent = (-1,) * len(p)
        for node, x in _dfs_path(p):
            children.setdefault(parent, set()).add(node)
            reached[node] = x
            parent = node
    skipped = 0
    for node, x in reached.items():
        if -1 not in node:
            continue
        branches = len(children.get(node, ())) > 1
        if _pure_tree_edge(node, x):
            assert node not in tested
            skipped += branches
        elif branches:
            assert node in tested
    assert skipped or k < 3


def _seeds_from_scratch(partner):
    """The seeds of a partial pairing's prefix test: its loop vertices if it
    has any, else its double-edge vertices if it has any, else every vertex
    whose first dart has a known partner."""
    nv = len(partner) // 3
    ends = [[p // 3 for p in partner[3 * v : 3 * v + 3] if p != -1] for v in range(nv)]
    loops = [v for v in range(nv) if v in ends[v]]
    doubles = [v for v in range(nv) if len(set(ends[v])) < len(ends[v])]
    return loops or doubles or [v for v in range(nv) if partner[3 * v] != -1]


def _tie_key(tie):
    pos, vnext, *lists = tie
    return (pos, vnext, *map(tuple, lists))


@pytest.mark.parametrize(
    "k, policy",
    [(k, pol) for k in (1, 2, 3, 4) for pol in mg.TadpolePolicy]
    + [(5, mg.TadpolePolicy.EXCLUDE)],
)
def test_resumed_prefix_test_matches_test_from_scratch(monkeypatch, k, policy):
    """At every tested node the prefix test resumed from the nearest tested
    ancestor's tie states gives the verdict, and on a pass the dart maps
    of the tie states expanded by their swaps, that the same test gives
    from scratch: no tie states and every seed fresh.  The states
    themselves may differ, as a resumed pair can meet a branch point
    before both partners are known and so carry other swaps.  Every state
    resumed and every seed started is a seed of the node.  Resumed states
    are passed back unchanged when their next dart is still unpaired, and
    never modified in place."""
    prefix_ties = mg._prefix_ties
    tested = resumed = carried = 0

    def checked(partner, end, ties, fresh_seeds):
        nonlocal tested, resumed, carried
        seeds = _seeds_from_scratch(partner)
        assert set(fresh_seeds) <= set(seeds)
        assert all(t[3][0] // 3 in seeds for t in ties)
        before = [_tie_key(t) for t in ties]
        got = prefix_ties(partner, end, ties, fresh_seeds)
        want = prefix_ties(list(partner), end, [], seeds)
        assert [_tie_key(t) for t in ties] == before
        assert (got is None) == (want is None)
        if got is not None:
            assert sorted(mg._tie_maps(got)) == sorted(mg._tie_maps(want))
            same = {id(t) for t in ties}
            carried += sum(id(t) in same for t in got)
        tested += 1
        resumed += len(ties)
        return got

    monkeypatch.setattr(mg, "_prefix_ties", checked)
    list(mg.enumerate_trivalent(k, policy))
    assert (tested and resumed) or k == 1
    # at k = 2 no state that a tested node hands on meets an unpaired dart
    assert carried or k < 3


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("policy", list(mg.TadpolePolicy))
def test_enumerated_maps_give_the_automorphism_group(k, policy):
    """The dart maps enumeration yields with a representative, and the maps
    of its full-length test from scratch, each state's map composed with
    every product of its swaps, are the automorphism group the exhaustive
    search finds, each once."""
    nd = 6 * k
    for rep, autos in mg.enumerate_classes(k, policy):
        want = _reference_automorphisms(rep)
        assert sorted(autos) == want
        states = mg._prefix_ties(rep.partner, nd, [], mg._seeds(rep.partner, 2 * k))
        assert sorted(map(tuple, mg._tie_maps(states))) == want


def _swap_kinds(states):
    """Where the swaps of complete tie states fired, at a seed (the swapped
    dart took a slot of vertex 0) or at a branch point, and on what, a loop
    (a = z) or a double edge."""
    return {
        ("seed" if dmap[x] < 3 else "branch", "loop" if a == z else "double edge")
        for _, _, dmap, _, swaps in states
        for x, z, a, _ in swaps
    }


def _x_z_only(states):
    """`_tie_maps` broken on purpose: each swap exchanges x and z but leaves
    their partners a and b in place."""
    maps = []
    for _, _, dmap, _, swaps in states:
        expanded = [dmap]
        for x, z, _, _ in swaps:
            for m in expanded[:]:
                s = m.copy()
                s[x], s[z] = m[z], m[x]
                expanded.append(s)
        maps += expanded
    return maps


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("policy", list(mg.TadpolePolicy))
def test_swapped_branches_expand_to_the_automorphism_group(k, policy):
    """The tie walk walks one branch of each loop or double-edge swap, and
    the maps of the branches it skips are its states' maps composed with
    their swaps, which give each class's group (checked against the
    exhaustive search above).  Swaps fire at seeds and at branch points, on
    double edges and, with loops, on loops.  From k = 2 on, an expansion of
    enumeration's tie states that swaps x and z but not their partners
    misses the group of some class."""
    nd = 6 * k
    kinds = set()
    broken = False
    for rep, ties in mg._orderly(k, policy):
        states = mg._prefix_ties(rep.partner, nd, [], mg._seeds(rep.partner, 2 * k))
        kinds |= _swap_kinds(states)
        broken = broken or sorted(_x_z_only(ties)) != sorted(mg._tie_maps(ties))
    fired = {("seed", "double edge"), ("branch", "double edge")}
    if policy is mg.TadpolePolicy.INCLUDE:
        fired |= {("seed", "loop"), ("branch", "loop")}
    assert kinds == fired or k == 1
    assert broken or k == 1


@pytest.mark.parametrize(
    "graph, kinds",
    [
        ("dumbbell", {("seed", "loop"), ("branch", "loop")}),
        ("theta", {("seed", "double edge")}),
        ("b1", {("seed", "double edge"), ("branch", "double edge")}),
    ],
)
def test_swap_fires_at_seeds_and_branch_points(request, graph, kinds):
    """On the dumbbell the swap fires on the seed's loop and on the loop of
    the vertex the seed reveals; on the theta on two of the seed's three
    parallel edges; on the 4-cycle with two opposite edges doubled on the
    seed's double edge and on the far double edge at a branch point.  The
    search's maps are the exhaustive search's, in its order; swapping x
    and z but not their partners breaks them where a double edge fired."""
    g = request.getfixturevalue(graph)
    nd = g.num_darts
    states = mg._prefix_ties(g.partner, nd, (), mg._seeds(g.partner, nd // 3), [nd] * nd)
    assert _swap_kinds(states) == kinds
    code, maps = exhaustive_search.min_code_maps(g, collect_all=True)
    assert mg._min_code_ties(g.partner) == (code, maps)
    assert len(mg._tie_maps(states)) == len(maps) > len(states)
    double_edge = any(kind == "double edge" for _, kind in kinds)
    assert (sorted(_x_z_only(states)) != sorted(maps)) == double_edge


@pytest.mark.parametrize(
    "k, policy, counts",
    [
        (4, mg.TadpolePolicy.EXCLUDE, (110, 48, 33, 13)),
        (4, mg.TadpolePolicy.INCLUDE, (192, 73, 119, 48)),
        (5, mg.TadpolePolicy.EXCLUDE, (561, 247, 184, 93)),
    ],
    ids=["k4-exclude", "k4-include", "k5-exclude"],
)
def test_enumeration_search_counts(monkeypatch, k, policy, counts):
    """Enumeration cost without a clock: the exact numbers of inner prefix
    tests (one per DFS node with two or more children, save the root and
    the nodes reached by a pure tree edge), of
    those that cut, of full-length leaf tests (one per complete pairing
    reached) and of those that cut.  Nothing is canonicalized and no
    minimal-code search runs, so a return to leaf-only testing, to a
    second leaf search or to canonicalizing every pairing fails here."""
    nd = 6 * k
    inner, leaves = [], []
    prefix_ties = mg._prefix_ties

    def counted_test(partner, end, ties, fresh_seeds):
        assert 0 < end <= nd and -1 not in partner[:end]
        found = prefix_ties(partner, end, ties, fresh_seeds)
        (leaves if end == nd else inner).append((tuple(partner), found is None))
        return found

    def refused(*args):
        raise AssertionError("enumeration canonicalized a graph")

    monkeypatch.setattr(mg, "_prefix_ties", counted_test)
    monkeypatch.setattr(mg, "_min_code_ties", refused)
    monkeypatch.setattr(mg, "canonical_form", refused)
    monkeypatch.setattr(mg, "canonical_code", refused)
    classes = [g.partner for g in mg.enumerate_trivalent(k, policy)]
    got = (
        len(inner),
        sum(cut for _, cut in inner),
        len(leaves),
        sum(cut for _, cut in leaves),
    )
    assert got == counts
    assert sorted(p for p, cut in leaves if not cut) == classes


def _reference_automorphisms(g):
    _, maps = exhaustive_search.min_code_maps(g, collect_all=True)
    base_inv = inverse(maps[0])
    return sorted(compose(base_inv, m) for m in maps)


def _reference_cases():
    rng = random.Random(5)
    cases = []
    for k in (1, 2, 3, 4):
        for policy in mg.TadpolePolicy:
            for rep in mg.enumerate_trivalent(k, policy):
                for _ in range(2):
                    cases.append(mg.relabel(rep, mg.random_relabelling(rep, rng)))
    reps = list(mg.enumerate_trivalent(5))
    for rep in rng.sample(reps, 15):
        cases.append(mg.relabel(rep, mg.random_relabelling(rep, rng)))
    return cases


def test_pruned_search_matches_exhaustive_reference():
    """On random relabellings (k <= 4 both policies, a k=5 sample) the
    minimal-code search gives the exhaustive search's minimal code and every
    map reaching it, in search order (the first is the witness), and
    `automorphisms` its sorted automorphism group; `canonical_form` gives
    the code and the witness, and the canonical graph has its own group."""
    for g in _reference_cases():
        code, maps = exhaustive_search.min_code_maps(g, collect_all=True)
        autos = _reference_automorphisms(g)
        assert mg._min_code_ties(g.partner) == (code, maps)
        assert mg.automorphisms(g) == autos
        canon, wit = mg.canonical_form(g)
        assert (canon.partner, wit) == (code, tuple(maps[0]))
        assert mg.automorphisms(canon) == _reference_automorphisms(canon)


def test_canonical_form_and_automorphisms_search_once(monkeypatch, rng, k4, dumbbell):
    """`automorphisms` and `canonical_form` each read the code, the witness
    and the group off one minimal-code search, which is one tie walk of the
    whole pairing; a graph that `canonical_form` returns gives its code
    unsearched."""
    searches, walks = [], []
    search, walk = mg._min_code_ties, mg._prefix_ties

    def counted(partner):
        searches.append(tuple(partner))
        return search(partner)

    def counted_walk(partner, end, *args):
        walks.append((tuple(partner), end))
        return walk(partner, end, *args)

    monkeypatch.setattr(mg, "_min_code_ties", counted)
    monkeypatch.setattr(mg, "_prefix_ties", counted_walk)
    graphs = [mg.relabel(g, mg.random_relabelling(g, rng)) for g in (k4, dumbbell)]
    for g, order in zip(graphs, (24, 8)):
        assert len(mg.automorphisms(g)) == order
        canon, _ = mg.canonical_form(g)
        assert mg.canonical_code(canon) == mg.canonical_code(g)
    assert searches == [g.partner for g in graphs for _ in range(3)]
    assert walks == [(g.partner, g.num_darts) for g in graphs for _ in range(3)]


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("policy", list(mg.TadpolePolicy))
def test_bounded_search_matches_exhaustive_reference(k, policy):
    """On every DFS pairing the exhaustive search bounded by the pairing
    returns None exactly when the minimal-code search finds a code below
    it, and otherwise the pairing with that search's witness."""
    include = policy is mg.TadpolePolicy.INCLUDE
    for p in ref.pairing_dfs(k, include):
        g = mg.DartGraph(2 * k, p, True)
        want = exhaustive_search.min_code_maps(g, collect_all=False, bound=p)
        code, maps = mg._min_code_ties(p)
        assert (want is None) == (code < tuple(p))
        if want is not None:
            assert want == (code, maps[:1])


def _connected_pairings(k: int, include_loops: bool) -> int:
    """Connected pairings of 6k darts, three darts per vertex: all pairings
    are (3n-1)!!, loop-free ones follow by inclusion-exclusion over the
    vertices carrying a loop, and the exponential formula leaves the
    connected ones."""

    def matchings(darts):
        return math.prod(range(darts - 1, 0, -2)) if darts % 2 == 0 else 0

    def pairings(n):
        if include_loops:
            return matchings(3 * n)
        return sum(
            (-1) ** j * math.comb(n, j) * 3**j * matchings(3 * n - 2 * j)
            for j in range(n + 1)
        )

    connected = [0]
    for n in range(1, 2 * k + 1):
        connected.append(
            pairings(n)
            - sum(
                math.comb(n - 1, j - 1) * connected[j] * pairings(n - j)
                for j in range(1, n)
            )
        )
    return connected[2 * k]


def test_connected_pairing_count_matches_brute_force():
    for k in (1, 2):
        for include in (True, False):
            brute = sum(
                1
                for p in ref.all_pairings(k)
                if mg._connected(2 * k, p)
                and (include or all(p[d] // 3 != d // 3 for d in range(6 * k)))
            )
            assert _connected_pairings(k, include) == brute


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("policy", list(mg.TadpolePolicy))
def test_automorphism_mass_formula(k, policy):
    """Each class has (2k)! 6^(2k) / |Aut| labelled pairings, so the sum over
    classes is the number of connected labelled pairings; a generator the
    pruned search failed to find would shrink some |Aut| and break it."""
    relabellings = math.factorial(2 * k) * 6 ** (2 * k)
    total = 0
    for g in mg.enumerate_trivalent(k, policy):
        orbit, rest = divmod(relabellings, len(mg.automorphisms(g)))
        assert rest == 0
        total += orbit
    assert total == _connected_pairings(k, policy is mg.TadpolePolicy.INCLUDE)


def test_enumeration_deterministic():
    a = [g.partner for g in mg.enumerate_trivalent(3)]
    b = [g.partner for g in mg.enumerate_trivalent(3)]
    assert a == b


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("policy", list(mg.TadpolePolicy))
def test_enumeration_streams_in_code_order(k, policy):
    """Classes come out of the DFS as it reaches them, and that order is
    strictly increasing canonical code, with no sort."""
    codes = [g.partner for g in mg.enumerate_trivalent(k, policy)]
    assert all(a < b for a, b in zip(codes, codes[1:]))


def test_enumeration_resource_limit(monkeypatch):
    """The class count is checked as classes stream out, with or without
    their groups: the first class of k=2 is yielded under a ceiling of 1,
    the second raises."""
    monkeypatch.setenv("AK_MAX_CLASSES", "1")
    for classes in (mg.enumerate_trivalent(2), (r for r, _ in mg.enumerate_classes(2))):
        assert next(classes).partner == (3, 4, 6, 0, 1, 9, 2, 10, 11, 5, 7, 8)
        with pytest.raises(ResourceLimit, match="AK_MAX_CLASSES=1 at k=2"):
            next(classes)


def test_enumeration_malformed_limit(monkeypatch):
    monkeypatch.setenv("AK_MAX_CLASSES", "1e6")
    with pytest.raises(BadEnvironment, match="AK_MAX_CLASSES"):
        list(mg.enumerate_trivalent(1))


def test_automorphism_orders(theta, dumbbell, k4):
    assert len(mg.automorphisms(theta)) == 12
    assert len(mg.automorphisms(k4)) == 24
    assert len(mg.automorphisms(dumbbell)) == 8


def test_automorphism_group_axioms(theta, k4, dumbbell):
    for g in (theta, k4, dumbbell):
        autos = mg.automorphisms(g)
        keyset = set(autos)
        assert tuple(range(g.num_darts)) in keyset
        for a in autos:
            assert inverse(a) in keyset
        for a in autos[:6]:
            for b in autos[:6]:
                assert compose(a, b) in keyset
        order = len(autos)
        import math

        bound = math.factorial(g.num_vertices) * 6**g.num_vertices
        assert bound % order == 0


def test_canonical_idempotent(theta, dumbbell, k4):
    for g in (theta, dumbbell, k4):
        c1, _ = mg.canonical_form(g)
        c2, _ = mg.canonical_form(c1)
        assert c1 == c2


def test_canonical_relabelling_invariance(k4, rng):
    c0, _ = mg.canonical_form(k4)
    for _ in range(100):
        iso = mg.random_relabelling(k4, rng)
        c1, wit = mg.canonical_form(mg.relabel(k4, iso))
        assert c1 == c0
        # the witness actually maps the relabelled graph onto the canonical one
        assert mg.relabel(mg.relabel(k4, iso), wit) == c0


def test_canonical_witness(theta):
    canon, wit = mg.canonical_form(theta)
    assert mg.relabel(theta, wit) == canon


@pytest.mark.parametrize("k", [1, 2, 3])
def test_random_pairings_land_in_enumeration(k, rng):
    stream = {g.partner for g in mg.enumerate_trivalent(k, mg.TadpolePolicy.INCLUDE)}
    for _ in range(1000 // k):
        g = random_pairing(k, rng, include_loops=True)
        assert mg.canonical_code(g) in stream


@pytest.mark.parametrize("policy", list(mg.TadpolePolicy))
def test_vertex_invariants_match_set_reference(policy):
    """The bit-mask invariants equal the set-based reference on every class
    with k <= 5 and on three random relabellings of each, where each
    vertex's tuple is carried to its image vertex."""
    rng = random.Random(21)
    checked = 0
    for k in range(1, 6):
        for rep in mg.enumerate_trivalent(k, policy):
            want = set_invariants.vertex_invariants(rep.partner)
            assert mg.vertex_invariants(rep.partner) == want
            for _ in range(3):
                dmap = mg.random_relabelling(rep, rng)
                partner = mg.relabel(rep, dmap).partner
                got = mg.vertex_invariants(partner)
                assert got == set_invariants.vertex_invariants(partner)
                assert all(got[dmap[3 * v] // 3] == want[v] for v in range(len(want)))
            checked += 1
    assert checked == (483 if policy is mg.TadpolePolicy.INCLUDE else 120)

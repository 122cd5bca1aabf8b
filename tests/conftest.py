import random

import pytest

from trihom import multigraph as mg


@pytest.fixture
def theta():
    return mg.from_pairing(2, [(0, 3), (1, 4), (2, 5)])


@pytest.fixture
def dumbbell():
    return mg.from_pairing(2, [(0, 1), (2, 5), (3, 4)])


@pytest.fixture
def k4():
    return mg.from_pairing(4, [(0, 3), (1, 6), (2, 9), (4, 7), (5, 10), (8, 11)])


@pytest.fixture
def b1():
    # 4-cycle with two opposite edges doubled
    return mg.from_pairing(4, [(0, 3), (1, 6), (2, 7), (4, 9), (5, 10), (8, 11)])


@pytest.fixture
def rng():
    return random.Random(20250811)


def compose(a, b):
    """The dart map of a after b: dart d goes to a[b[d]]."""
    return tuple(a[d] for d in b)


def inverse(a):
    """The inverse of the dart map a."""
    inv = [0] * len(a)
    for d, c in enumerate(a):
        inv[c] = d
    return tuple(inv)


def random_pairing(k, rng, include_loops):
    """Uniform-ish random fixed-point-free involution, filtered to valid graphs."""
    while True:
        darts = list(range(6 * k))
        rng.shuffle(darts)
        partner = [0] * (6 * k)
        ok = True
        for i in range(0, 6 * k, 2):
            a, b = darts[i], darts[i + 1]
            if a // 3 == b // 3 and not include_loops:
                ok = False
                break
            partner[a] = b
            partner[b] = a
        if not ok:
            continue
        if mg._connected(2 * k, partner):
            return mg.DartGraph(2 * k, partner, True)


def shuffled_pairing(k, rng):
    """A uniformly random pairing of the 6k darts as a graph, loops and
    disconnected graphs included."""
    darts = list(range(6 * k))
    rng.shuffle(darts)
    pairs = zip(darts[::2], darts[1::2])
    return mg.from_pairing(2 * k, pairs, allow_disconnected=True)

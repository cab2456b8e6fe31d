import argparse
import random

import pytest
from hypothesis import strategies as st

from sphtor import arcs_in_window

ALL_WEIGHTS = (-3, -2, -1, 0, 2, 3, 4)


@pytest.fixture(scope="session")
def window_arcs():
    cache = {}

    def get(w, radius):
        key = (w, radius)
        if key not in cache:
            cache[key] = tuple(arcs_in_window(w, -radius, radius))
        return cache[key]

    return get


def random_arc_sets(w, radius, count, max_size, seed_base):
    """Deterministic stream of small arc samples inside a window."""
    pool = list(arcs_in_window(w, -radius, radius))
    for seed in range(count):
        rng = random.Random(seed_base + seed)
        yield rng.sample(pool, rng.randint(0, max_size))


def cli_leaves(parser, path=()):
    """Map each leaf subcommand path, e.g. ('orbit', 'list'), to its parser."""
    subcommands = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subcommands:
        return {path: parser}
    leaves = {}
    for name, sub in subcommands[0].choices.items():
        leaves.update(cli_leaves(sub, path + (name,)))
    return leaves


def _symmetric_table(k, density, coin, cell):
    """A symmetric table on range(k): each pair gets ``cell()`` as a bitmask when ``coin() < density``."""
    table = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            if coin() < density:
                table[i][j] = table[j][i] = sum(1 << z for z in cell())
    return table


@st.composite
def symmetric_rules(draw, min_k=0, max_k=10, densities=(0.0, 0.05, 0.15, 0.4)):
    """(k, table): a symmetric pair rule on range(k) as a table of bitmasks."""
    k = draw(st.integers(min_k, max_k))
    density = draw(st.sampled_from(densities))
    coin = lambda: draw(st.floats(0, 1))
    cell = lambda: draw(st.sets(st.integers(0, k - 1), min_size=1, max_size=3))
    return k, _symmetric_table(k, density, coin, cell)


@st.composite
def seeded_symmetric_rules(draw, min_k, max_k, densities):
    """(k, table) as ``symmetric_rules`` draws it, with the pairs drawn from a seeded ``random.Random``.

    Hypothesis picks k, the density and the seed, never a single pair, so
    every table has about the density's share of pairs with a cell; the
    density alone then keeps the count of closed sets of a wide k small.
    """
    k = draw(st.integers(min_k, max_k))
    density = draw(st.sampled_from(densities))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    cell = lambda: rng.sample(range(k), rng.randint(1, 3))
    return k, _symmetric_table(k, density, rng.random, cell)


def table_row(table):
    """The row function of a symmetric bitmask table: member x with every member of ``done``.

    Uncached, and it reads only ``done``, so it shares no shortcut with the
    library's rows.
    """

    def row(x, done):
        acc = 0
        for y in range(len(table)):
            if done >> y & 1:
                acc |= table[x][y]
        return acc

    return row


def spy_row(table, seen):
    """``table_row`` that checks x is in ``done`` on every call and appends ``done`` to ``seen``."""
    row = table_row(table)

    def spy(x, done):
        assert done >> x & 1, (x, done)
        seen.append(done)
        return row(x, done)

    return spy


def plain_fixpoint(seed, table):
    """Least superset of the bitmask ``seed`` closed under a bitmask table, by rounds.

    Each round pairs every two members of the last round, so it shares no
    member order and no stopping rule with the library's closure loop.
    """
    closed = seed
    while True:
        members = [x for x in range(len(table)) if closed >> x & 1]
        grown = closed
        for x in members:
            for y in members:
                grown |= table[x][y]
        if grown == closed:
            return closed
        closed = grown

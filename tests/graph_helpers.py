"""Graphs that several test modules build: named small graphs, and
random intra-cluster edge lists for braids.

Not a test module itself: the test modules import it from their own
directory (pytest puts that directory on sys.path, and so does running
a test file as a script)."""

import itertools
from typing import Sequence

from braidcensus.graphs import Graph


def cycle_graph(n: int) -> Graph:
    return Graph.from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return Graph.from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edge_list(n, itertools.combinations(range(n), 2))


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph.from_edge_list(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def random_intra(sizes: Sequence[int], rng) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Random explicit intra-edge lists for `BraidSpec`, one per
    cluster, each pair kept with probability 1/2."""
    out = []
    for s in sizes:
        pairs = [
            (a, b)
            for a, b in itertools.combinations(range(s), 2)
            if rng.random() < 0.5
        ]
        out.append(tuple(pairs))
    return tuple(out)

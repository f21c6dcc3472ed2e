import random

import pytest

from pathabs import COUNTING, Digraph
from pathabs.checks import _random_dag as random_dag  # noqa: F401
from pathabs.checks import _random_digraph as random_digraph


def random_multigraph(rng: random.Random, n: int, p: float) -> Digraph:
    return random_digraph(rng, n, p, COUNTING)


def route_sums(d, dropped):
    """Semiring sum, per survivor pair x != y, of the arc-value products over
    simple routes x -> (dropped)* -> y, the direct arc included; zero sums are kept."""
    s, adj, sums = d.semiring, d.adjacency(), {}

    def walk(x, v, product, seen):
        for w in adj[v]:
            value = s.mul(product, d.arcs[(v, w)])
            if w not in dropped:
                if w != x:
                    sums[(x, w)] = s.add(sums[(x, w)], value) if (x, w) in sums else value
            elif w not in seen:
                walk(x, w, value, seen | {w})

    for x in sorted(d.vertices - dropped):
        walk(x, x, s.one, frozenset())
    return sums


@pytest.fixture
def rng():
    return random.Random(20240811)

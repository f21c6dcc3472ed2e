import random
from functools import reduce

import numpy as np
import pytest

from pathabs import COUNTING, Digraph, detour, induced_subgraph, strongly_connected_components
from pathabs.checks import _random_dag as random_dag  # noqa: F401
from pathabs.checks import _random_digraph as random_digraph


def random_multigraph(rng: random.Random, n: int, p: float) -> Digraph:
    return random_digraph(rng, n, p, COUNTING)


def detour_fold(d, order):
    """``detour`` at each vertex of ``order`` in turn."""
    return reduce(detour, order, d)


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


def survivors_around(drop, cycle, step):
    """The survivors that ``step`` reaches from a cycle through dropped vertices only."""
    seen, todo, found = set(cycle), list(cycle), set()
    while todo:
        for w in step(todo.pop()) - seen:
            seen.add(w)
            todo.append(w) if w in drop else found.add(w)
    return found


def cycles_between_survivors(d, dropped):
    """The strong components of two or more dropped vertices that a survivor x
    reaches, and that reach a survivor y != x, through dropped vertices only:
    where walks between distinct survivors can circle a cycle."""
    cycles = [c for c in strongly_connected_components(induced_subgraph(d, dropped)) if len(c) > 1]
    ends = [[survivors_around(dropped, c, step) for step in (d.predecessors_of, d.successors_of)] for c in cycles]
    return [c for c, (xs, ys) in zip(cycles, ends) if any(x != y for x in xs for y in ys)]


def schur_complement(d, dropped):
    """cond(I - A_DD) for a real digraph, and the walk sums A_SS + A_SD (I - A_DD)^-1 A_DS
    between distinct survivors by ``np.linalg.solve``, or None past a condition of 1e8."""
    order = sorted(d.vertices)
    index = {v: i for i, v in enumerate(order)}
    a = np.zeros((len(order), len(order)))
    for (x, y), value in d.arcs.items():
        a[index[x], index[y]] = value
    drop = [index[v] for v in sorted(dropped)]
    keep = [index[v] for v in order if v not in dropped]
    inner = np.eye(len(drop)) - a[np.ix_(drop, drop)]
    cond = np.linalg.cond(inner) if drop else 1.0
    if not cond <= 1e8:
        return cond, None
    sums = a[np.ix_(keep, keep)] + a[np.ix_(keep, drop)] @ np.linalg.solve(inner, a[np.ix_(drop, keep)])
    return cond, {(order[i], order[j]): sums[x, y] for x, i in enumerate(keep) for y, j in enumerate(keep) if i != j}


@pytest.fixture
def rng():
    return random.Random(20240811)

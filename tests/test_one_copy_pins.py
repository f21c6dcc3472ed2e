"""Pinned outputs of the operations that share the package's one block map, one graph
order, one id-to-position map, one run mask and one row writer.

SHA-256 digests over drawn inputs of ``dtcn_detour``, ``count_walks_dag``,
``strongly_connected_components``, the weighted edge-list writer and
``monte_carlo_abstraction``, so a change to how any of them reaches the shared
code cannot change a result unnoticed.
"""

import hashlib
import random

import numpy as np
import pytest

from pathabs import (
    COUNTING,
    MINPLUS_NONNEG,
    REAL,
    CyclicGraphError,
    Digraph,
    PartialPartition,
    count_walks_dag,
    dtcn_contract,
    dtcn_detour,
    strongly_connected_components,
)
from pathabs.formats import serialize_digraph
from pathabs.random import GnpModel, monte_carlo_abstraction
from pathabs.temporal import sample_dtcn


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(len(part).to_bytes(8, "little"))
            h.update(part.astype(part.dtype.newbyteorder("<")).tobytes())
        else:
            h.update(repr(part).encode())
        h.update(b"|")
    return h.hexdigest()


def _drawn_networks():
    """30 networks in both modes, n from 5 to 60; every third has id gaps from a contraction."""
    rng = random.Random(29)
    for s in range(30):
        n = rng.randint(5, 60)
        d = sample_dtcn(n, rng.uniform(0.02, 0.2), ("uniform", "poisson")[s % 2], seed=700 + s, max_retries=20)
        if s % 3 == 0:
            ids = sorted(d.vertices)
            d = dtcn_contract(d, [ids[i : i + 3] for i in range(0, len(ids) // 2, 3)])
        yield rng, d


def _drop_sets(rng, d):
    ids = sorted(d.vertices)
    return [set(), set(ids), {ids[len(ids) // 2]}, set(rng.sample(ids, len(ids) // 2))]


def test_dtcn_detour_digest_on_drawn_networks():
    parts, contacts = [], 0
    for rng, d in _drawn_networks():
        for drop in _drop_sets(rng, d):
            out = dtcn_detour(d, drop)
            parts += [np.array(sorted(out.vertices), dtype=np.int64), out.src, out.dst, out.time]
            contacts += len(out.src)
    assert contacts == 14_383
    assert _digest(parts) == "0c41ce1c9bf13076e9b25e2bdc8ba0ac5869d4cdbe4d720ccd6481bf007f327f"


def _dag(rng, n, gaps):
    """A random DAG on n ids, with counting multiplicities 1 to 3 on its arcs."""
    ids = sorted(rng.sample(range(1, 3 * n + 1), n)) if gaps else list(range(1, n + 1))
    order = ids[:]
    rng.shuffle(order)
    arcs = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.3:
                arcs[order[i], order[j]] = rng.randint(1, 3)
    return Digraph(frozenset(ids), arcs, COUNTING)


def test_count_walks_dag_digest_on_random_dags():
    rng, parts = random.Random(30), []
    for t in range(50):
        d = _dag(rng, rng.randint(1, 14), gaps=t % 2 == 1)
        ids = sorted(d.vertices)
        parts.append([count_walks_dag(d, x, y) for x in ids for y in ids])
    assert sum(map(sum, parts)) == 13_219
    assert _digest(parts) == "b6f6ae3de2a02a386dec336051ff38c9fbd630e6305588f8e0226a54c7b0b807"


@pytest.mark.parametrize(
    "arcs, x",
    [({(1, 2): 1, (2, 1): 1}, 1), ({(1, 2): 1, (3, 4): 1, (4, 5): 1, (5, 3): 1}, 1)],
    ids=["two-cycle", "cycle-x-does-not-reach"],
)
def test_count_walks_dag_refuses_a_cycle(arcs, x):
    d = Digraph.build(5, arcs, COUNTING)
    with pytest.raises(CyclicGraphError, match="^digraph has a cycle$"):
        count_walks_dag(d, x, 2)


def test_strongly_connected_components_digest_with_id_gaps():
    rng, parts = random.Random(31), []
    for t in range(40):
        n = rng.randint(1, 40)
        ids = sorted(rng.sample(range(1, 5 * n + 1), n))
        arcs = {(x, y): 1 for x in ids for y in ids if x != y and rng.random() < 1.5 / n}
        comps = strongly_connected_components(Digraph(frozenset(ids), arcs))
        parts.append([sorted(c) for c in comps])
    assert sum(len(p) for p in parts) == 461
    assert _digest(parts) == "a34ce87cb4268792c3cce234de755d1747c0efbbd9bb51b8fa9eabc3e4924abe"


_AWKWARD = {
    "counting": [1, 2, 7, 2**70],
    "real": [-1.5, 1e-300, 1e300, 2**70, 0.1],
    "minplus-nonneg": [-0.0, 0.0, 1e-300, 1e300, 2.5],
}

# semiring: (characters written, digest) over 30 digraphs
_EDGE_LIST_DIGESTS = {
    "counting": (15_958, "1dc04d76b2ead32551b810f1484d33d9398e7cbcb032cb69771fa2fc06d732a9"),
    "real": (16_662, "d32e0aaa4fff98509d9c46d10cdd4afb8fb98e4b004c0d46a22fccda1554bc93"),
    "minplus-nonneg": (12_658, "2284ccf971496dca7b2f2b8aef015557385f6888ab54ac5a9412fec58f97e3d7"),
}


def test_weighted_edge_lists_pinned():
    d = Digraph(frozenset({1, 3, 8}), {(8, 1): 2**70, (1, 3): 1e-300, (3, 8): -0.0}, MINPLUS_NONNEG)
    assert serialize_digraph(d) == f"vertices 1 3 8\n1 3 1e-300\n3 8 -0.0\n8 1 {2**70}\n"
    assert serialize_digraph(d, compact_ids=True) == f"n 3\n1 2 1e-300\n2 3 -0.0\n3 1 {2**70}\n"
    d = Digraph.build(3, {(2, 1): 1e300, (1, 3): 2**70}, REAL)
    assert serialize_digraph(d) == f"n 3\n1 3 {2**70}\n2 1 1e+300\n"


@pytest.mark.parametrize("semiring", [COUNTING, REAL, MINPLUS_NONNEG], ids=lambda s: s.name)
def test_weighted_edge_list_digest(semiring):
    rng, texts = random.Random(32), []
    for t in range(30):
        n = rng.randint(1, 25)
        ids = sorted(rng.sample(range(1, 4 * n + 1), n)) if t % 2 else list(range(1, n + 1))
        arcs = {(x, y): rng.choice(_AWKWARD[semiring.name]) for x in ids for y in ids if x != y and rng.random() < 0.2}
        texts.append(serialize_digraph(Digraph(frozenset(ids), arcs, semiring)))
    assert (sum(map(len, texts)), _digest(texts)) == _EDGE_LIST_DIGESTS[semiring.name]


def test_monte_carlo_abstraction_pinned_on_blocks_out_of_order():
    blocks = [{30, 4, 17}, {9}, {2, 40}, {25, 1, 12, 33}, {38, 6}]
    out = monte_carlo_abstraction(GnpModel(40, 0.06), PartialPartition(40, blocks), trials=12, seed=33)
    assert out.representatives == (1, 2, 4, 6, 9)
    assert _digest([out.frequencies, out.pairs, out.pair_counts]) == (
        "0ead22b18925a2f4171af7e235b428b08e8b478e4188f21075933c31d8a512e9"
    )

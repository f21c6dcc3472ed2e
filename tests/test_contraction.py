"""Block contraction on both lanes against per-arc and per-contact oracles."""

import random
import re

import pytest

from pathabs import DTCN, Contact, Digraph, DigraphError, contract_blocks, dtcn_contract
from pathabs.checks import _random_digraph as random_digraph
from pathabs.digraph import delete_vertices
from pathabs.semirings import REAL, REGISTRY
from pathabs.temporal import TemporalError


def _dict_contract(d, blocks):
    """Contraction one arc at a time: arcs in ``sorted(d.arcs)`` order go to their blocks'
    smallest members, internal ones vanish, repeats are semiring-added in that order and
    zero sums dropped."""
    s = d.semiring
    norm = [frozenset(b) for b in blocks]
    rep = {v: v for v in d.vertices}
    for b in norm:
        rep.update(dict.fromkeys(b, min(b)))
    acc = {}
    for x, y in sorted(d.arcs):
        key = rep[x], rep[y]
        if key[0] != key[1]:
            acc[key] = s.add(acc[key], d.arcs[x, y]) if key in acc else d.arcs[x, y]
    merged = dict(d.merged)
    for b in norm:
        expanded = frozenset().union(*map(d.members_of, b))
        for m in b:
            merged.pop(m, None)
        if expanded != {min(b)}:
            merged[min(b)] = expanded
    arcs = {key: value for key, value in acc.items() if s.normalize(value) is not None}
    return frozenset(rep.values()), arcs, merged


def _typed(arcs):
    return sorted((key, type(value).__name__, repr(value)) for key, value in arcs.items())


def _random_blocks(rng, vertices, cover=False):
    """Disjoint blocks of one to four vertices; with ``cover`` they hold every vertex."""
    ids = sorted(vertices)
    rng.shuffle(ids)
    blocks = []
    while ids and (cover or rng.random() < 0.7):
        size = rng.randint(1, 4)
        blocks.append(set(ids[:size]))
        ids = ids[size:]
    return blocks


def _inputs(rng):
    """Digraphs on every semiring: plain, with id gaps, with merged blocks, or both."""
    for s in REGISTRY.values():
        for case in range(40):
            n = rng.randint(1, 12)
            d = random_digraph(rng, n, rng.choice((0.2, 0.4, 0.8)), s)
            if case % 2 and n > 2:
                d = contract_blocks(d, [rng.sample(range(1, n + 1), 2)])
            if case % 3 == 1:
                d = delete_vertices(d, rng.sample(sorted(d.vertices), rng.randint(0, d.n - 1)))
            yield d


def _assert_contracts_as_the_oracle(d, blocks):
    vertices, arcs, merged = _dict_contract(d, blocks)
    got = contract_blocks(d, blocks)
    assert got.vertices == vertices and got.merged == merged and got.semiring is d.semiring
    assert _typed(got.arcs) == _typed(arcs), (d, blocks)


def test_contract_blocks_matches_the_per_arc_oracle():
    rng = random.Random(2311)
    for d in _inputs(rng):
        for cover in (False, True):
            _assert_contracts_as_the_oracle(d, _random_blocks(rng, d.vertices, cover))


def test_contract_blocks_drops_real_sums_that_cancel():
    # 1.5 + -1.5 is 0.0: no arc; (0.1 + 0.2) + 0.3, added in (tail, head) order, is not 0.6
    d = Digraph(frozenset({1, 2, 3, 4, 9}), {(4, 9): 0.3, (1, 3): 1.5, (2, 9): 0.2, (2, 3): -1.5, (1, 9): 0.1}, REAL)
    got = contract_blocks(d, [{1, 2, 4}])
    assert got.arcs == {(1, 9): 0.6000000000000001} and got.merged == {1: frozenset({1, 2, 4})}
    _assert_contracts_as_the_oracle(d, [{1, 2, 4}])
    _assert_contracts_as_the_oracle(d, [{9, 4}, {3, 2, 1}])


def _contact_oracle(d, blocks):
    """Re-address one contact at a time; contacts inside a block vanish."""
    rep = {v: v for v in d.vertices}
    for b in blocks:
        rep.update(dict.fromkeys(b, min(b)))
    triples = {(rep[s], rep[t], tau) for s, t, tau in d.triples() if rep[s] != rep[t]}
    return frozenset(rep.values()), sorted(triples)


@pytest.mark.parametrize("seed", range(6))
def test_dtcn_contract_matches_the_per_contact_oracle(seed):
    rng = random.Random(seed)
    for _ in range(40):
        ids = sorted(rng.sample(range(1, 40), rng.randint(2, 10)))
        pairs = [rng.sample(ids, 2) for _ in range(rng.randint(0, 25))]
        d = DTCN(ids, {Contact(s, t, float(rng.randint(0, 4))) for s, t in pairs})
        blocks = _random_blocks(rng, d.vertices, cover=rng.random() < 0.3)
        vertices, triples = _contact_oracle(d, blocks)
        got = dtcn_contract(d, blocks)
        assert got.vertices == vertices and got.triples() == triples


def test_dtcn_contract_refuses_ids_beyond_int64_as_a_temporal_error():
    d = DTCN(frozenset({1, 2, 3, 2**64}), [Contact(1, 2, 0.5), Contact(2, 3, 0.7)])
    with pytest.raises(TemporalError, match=f"^vertex ids must fit in int64 here, got {2**64}$"):
        dtcn_contract(d, [{1, 2}])


def test_both_lanes_check_blocks_alike():
    # the static lane's wording on both lanes; every block is in range before any overlap counts
    d = Digraph.build(4, [(1, 2), (2, 3), (3, 4)])
    net = DTCN.build(4, [(1, 2, 0.5), (2, 3, 0.7), (3, 4, 0.9)])
    for blocks, text in (
        ([{1}, set()], "a vertex block must be nonempty"),
        ([{1, 2}, {2, 3}, {5}], re.escape("block member(s) [5] out of range")),
        ([{1, 2}, {2, 3}], "blocks must be pairwise disjoint"),
    ):
        with pytest.raises(DigraphError, match=f"^{text}$"):
            contract_blocks(d, blocks)
        with pytest.raises(TemporalError, match=f"^{text}$"):
            dtcn_contract(net, blocks)

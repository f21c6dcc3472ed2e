"""The temporal path abstraction against the detour followed by the contraction it equals."""

import random

import numpy as np
import pytest

from pathabs import DTCN, Contact, PartialPartition
from pathabs.checks import equal_time_network
from pathabs.formats import serialize_contacts
from pathabs.temporal import TemporalError, dtcn_contract, dtcn_detour, dtcn_path_abstract

# a shared pool makes contacts meet at one instant; both zeros test the sign a repeat keeps
_TIMES = [0.0, -0.0, 0.5, 1.0, -2.5, 5e-324]
_IDS = [2**63 - 1, 2**63 - 2, 2**40, 10**12]


def _agrees(d, p):
    got = dtcn_path_abstract(d, p)
    expected = dtcn_contract(dtcn_detour(d, d.vertices - p.support), list(p.blocks))
    assert got.vertices == expected.vertices
    assert got.triples() == expected.triples()
    assert serialize_contacts(got).encode("ascii") == serialize_contacts(expected).encode("ascii")


def _partition(data, st, vertices, mode):
    """Blocks over a subset of ``vertices``: all of them, none, singletons or any blocks."""
    order = sorted(vertices)
    if mode == "none":
        kept = []
    elif mode == "all":
        kept = data.draw(st.permutations(order))
    else:
        kept = data.draw(st.lists(st.sampled_from(order), unique=True)) if order else []
    if mode == "singletons":
        blocks = [{v} for v in kept]
    else:
        cuts = sorted(data.draw(st.sets(st.integers(1, max(len(kept) - 1, 1)), max_size=4)))
        blocks = [set(kept[a:b]) for a, b in zip([0, *cuts], [*cuts, len(kept)]) if kept[a:b]]
    return PartialPartition(max(order, default=0), blocks)


def test_the_one_pass_equals_contract_after_detour_on_drawn_networks():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.data())
    def holds(data):
        # small ids leave gaps in the vertex set; the large ones reach the end of int64
        vertex = st.one_of(st.integers(1, 12), st.sampled_from(_IDS))
        time = st.one_of(st.sampled_from(_TIMES), st.floats(-3, 3, allow_nan=False))
        rows = data.draw(st.lists(st.tuples(vertex, vertex, time).filter(lambda r: r[0] != r[1]), max_size=30))
        vertices = {v for s, t, _ in rows for v in (s, t)} | set(data.draw(st.lists(vertex, max_size=3)))
        d = DTCN(vertices, [Contact(*r) for r in rows])
        mode = data.draw(st.sampled_from(("any", "all", "none", "singletons")))
        _agrees(d, _partition(data, st, d.vertices, mode))

    holds()


def test_the_one_pass_equals_contract_after_detour_with_large_ids_outside_the_support():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.data())
    def holds(data):
        small = data.draw(st.sets(st.integers(1, 8), min_size=2))
        large = data.draw(st.sets(st.sampled_from(_IDS), min_size=1))
        vertex = st.sampled_from(sorted(small | large))
        rows = data.draw(st.lists(st.tuples(vertex, vertex, st.sampled_from(_TIMES)), max_size=25))
        d = DTCN(small | large, [Contact(*r) for r in rows if r[0] != r[1]])
        mode = data.draw(st.sampled_from(("any", "all", "singletons")))
        _agrees(d, _partition(data, st, small, mode))

    holds()


def test_the_one_pass_equals_contract_after_detour_on_equal_time_chains_and_cycles():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.data())
    def holds(data):
        d, drop = equal_time_network(random.Random(data.draw(st.integers(0, 2**32))), data.draw(st.integers(3, 9)))
        mode = data.draw(st.sampled_from(("any", "all", "singletons")))
        _agrees(d, _partition(data, st, d.vertices - drop, mode))

    holds()


def test_the_one_pass_equals_contract_after_detour_on_the_benchmark_shape():
    # Poisson(0.01) contacts per ordered pair of 400 vertices, the kept half in pairs
    for seed in range(50):
        rng = np.random.default_rng([2602, seed])
        n = 400
        total = rng.poisson(0.01 * n * (n - 1))
        src = rng.integers(0, n, size=total)
        dst = rng.integers(0, n - 1, size=total)
        dst += dst >= src
        d = DTCN._of(frozenset(range(1, n + 1)), src + 1, dst + 1, rng.random(total))
        kept = np.sort(rng.permutation(np.arange(1, n + 1))[: n // 2]).tolist()
        _agrees(d, PartialPartition(n, [set(kept[j : j + 2]) for j in range(0, len(kept), 2)]))


def test_a_repeat_that_meets_both_zeros_keeps_zero():
    # (1, 2, -0.0) and (3, 4, 0.0) both become (1, 2, 0) once {1, 3} and {2, 4} merge
    d = DTCN(range(1, 6), [Contact(1, 2, -0.0), Contact(3, 4, 0.0), Contact(3, 5, 0.0), Contact(5, 4, -0.0)])
    p = PartialPartition(5, [{1, 3}, {2, 4}])
    _agrees(d, p)
    assert serialize_contacts(dtcn_path_abstract(d, p)) == "source,target,time\n1,2,0.0\n"
    # a -0.0 met by no 0.0 keeps its sign
    assert serialize_contacts(dtcn_detour(d, {3})) == "source,target,time\n1,2,-0.0\n5,4,-0.0\n"


def test_the_one_pass_equals_contract_after_detour_when_many_repeats_meet_both_zeros():
    # enough rows that the sorts leave a run of repeats in an order of their own choosing
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randint(4, 30)
        pairs = [rng.sample(range(1, n + 1), 2) for _ in range(rng.randint(5, 200))]
        d = DTCN(range(1, n + 1), [Contact(x, y, rng.choice((0.0, -0.0, 0.5))) for x, y in pairs])
        kept = rng.sample(range(1, n + 1), rng.randint(1, n))
        cuts = sorted(rng.sample(range(1, len(kept) + 1), min(len(kept), rng.randint(1, 5))))
        _agrees(d, PartialPartition(n, [set(kept[a:b]) for a, b in zip([0, *cuts], cuts) if kept[a:b]]))


def test_the_detour_and_the_abstraction_refuse_ids_beyond_int64_as_a_temporal_error():
    # as dtcn_contract and the static lane's cores do, even for an isolated vertex
    d = DTCN(frozenset({1, 2, 3, 2**64}), [Contact(1, 2, 0.5), Contact(2, 3, 0.7)])
    for op, arg in (
        (dtcn_detour, {2}),
        (dtcn_path_abstract, PartialPartition(3, [{1}, {3}])),
        (dtcn_path_abstract, PartialPartition(2**64, [{1}, {2**64}])),
    ):
        with pytest.raises(TemporalError, match=f"^vertex ids must fit in int64 here, got {2**64}$"):
            op(d, arg)

import gc
import math
import platform
import time

import numpy as np
import pytest

from pathabs import Digraph, PartialPartition, bypass_set
from pathabs.checks import equal_time_network, layered_detour_oracle
from pathabs.formats import parse_contacts, serialize_contacts
from pathabs.temporal import (
    DTCN,
    Contact,
    TemporalError,
    build_temporal_digraph,
    dtcn_contract,
    dtcn_detour,
    dtcn_path_abstract,
    lint_equal_time_chains,
    naive_dtcn_detour,
    sample_dtcn,
    temporal_fiber,
    temporal_path_probability,
)
from pathabs.random import GnpModel, RandomModelError, sample_arcs, trial_rng

HANDOFF = DTCN.build(5, [(1, 4, 1), (5, 4, 2), (2, 5, 3), (4, 3, 4)])


def test_contact_validation():
    with pytest.raises(TemporalError):
        Contact(1, 1, 0.5)
    with pytest.raises(TemporalError):
        Contact(1, 2, float("inf"))


def test_fibers():
    assert temporal_fiber(HANDOFF, 4) == (-math.inf, 1.0, 2.0, 4.0, math.inf)
    assert temporal_fiber(HANDOFF, 5) == (-math.inf, 2.0, 3.0, math.inf)
    isolated = DTCN.build(3, [(1, 2, 0.5)])
    assert temporal_fiber(isolated, 3) == (-math.inf, math.inf)


def test_fiber_merges_duplicate_times():
    d = DTCN.build(3, [(1, 2, 0.5), (3, 1, 0.5)])
    assert temporal_fiber(d, 1) == (-math.inf, 0.5, math.inf)


def test_layered_digraph_counts():
    t = build_temporal_digraph(HANDOFF)
    assert t.vertex_count == 18
    assert t.arc_count == 17
    assert len(t.spatial_arcs) == 4
    assert len(t.temporal_arcs) == 13
    single = build_temporal_digraph(DTCN.build(2, [(1, 2, 0.25)]))
    assert single.vertex_count == 6
    assert single.arc_count == 5


def test_layered_size_identities_random():
    for t in range(200):
        d = sample_dtcn(6, 0.3, "uniform", 1000 + t, max_retries=5)
        tg = build_temporal_digraph(d)
        assert tg.vertex_count <= 2 * d.n + 2 * len(d.contacts)
        assert tg.arc_count == tg.vertex_count - d.n + len(d.contacts)


def test_layered_digraph_matches_per_vertex_fibers(rng):
    for t in range(200):
        n = rng.randint(1, 8)
        triples = [
            (x, y, rng.choice((0.25, 0.5, rng.random())))
            for x in range(1, n + 1)
            for y in range(1, n + 1)
            if x != y and rng.random() < 0.2
        ]
        d = DTCN.build(n, triples)
        fibers = {v: temporal_fiber(d, v) for v in d.vertices}
        tg = build_temporal_digraph(d)
        assert tg.layers == tuple(sorted((v, tau) for v, f in fibers.items() for tau in f))
        assert tg.temporal_arcs == {((v, a), (v, b)) for v, f in fibers.items() for a, b in zip(f, f[1:])}
        assert tg.spatial_arcs == {((c.source, c.time), (c.target, c.time)) for c in d.contacts}


def test_detour_example():
    assert dtcn_detour(HANDOFF, {4, 5}).triples() == [(1, 3, 4.0)]
    assert dtcn_detour(HANDOFF, set()) == HANDOFF


def test_sequential_detours_do_not_commute():
    ab = dtcn_detour(dtcn_detour(HANDOFF, {4}), {5})
    ba = dtcn_detour(dtcn_detour(HANDOFF, {5}), {4})
    assert ab.triples() == [(1, 3, 4.0), (2, 3, 4.0)]
    assert ba.triples() == [(1, 3, 4.0)]
    assert ab != ba


def test_naive_detour_examples():
    ab = naive_dtcn_detour(naive_dtcn_detour(HANDOFF, 4), 5)
    ba = naive_dtcn_detour(naive_dtcn_detour(HANDOFF, 5), 4)
    assert ab.triples() == [(1, 3, 4.0), (2, 3, 4.0)]
    assert ba.triples() == [(1, 3, 4.0)]
    untouched = naive_dtcn_detour(DTCN.build(3, [(1, 2, 0.1)]), 3)
    assert untouched.triples() == [(1, 2, 0.1)]


def test_detour_never_mentions_dropped(rng):
    for t in range(100):
        d = sample_dtcn(7, 0.25, "uniform", 2000 + t, max_retries=5)
        drop = set(rng.sample(sorted(d.vertices), rng.randint(1, 3)))
        out = dtcn_detour(d, drop)
        assert not drop & out.vertices
        assert all(c.source not in drop and c.target not in drop for c in out.contacts)


def _triples(d: DTCN) -> set:
    return {(c.source, c.target, c.time) for c in d.contacts}


def test_detour_matches_layered_oracle(rng):
    assert layered_detour_oracle(HANDOFF, {4, 5}) == {(1, 3, 4.0)}
    for t in range(60):
        d = sample_dtcn(6, 0.3, "uniform", 3000 + t, max_retries=5)
        drop = set(rng.sample(sorted(d.vertices), rng.randint(1, 3)))
        assert _triples(dtcn_detour(d, drop)) == layered_detour_oracle(d, drop)
    for t in range(300):
        d, drop = equal_time_network(rng, rng.randint(3, 8))
        assert _triples(dtcn_detour(d, drop)) == layered_detour_oracle(d, drop), (d.triples(), drop)


def test_detour_walks_an_equal_time_cycle():
    # enter 4 and leave from 3 at 0.5 only around the cycle 3 -> 4 -> 5 -> 3;
    # 5 also leaves at 1.0, and 4's exit at 0.25 comes before the entry
    cycle = [(3, 4, 0.5), (4, 5, 0.5), (5, 3, 0.5)]
    d = DTCN.build(5, [(1, 4, 0.5), *cycle, (3, 2, 0.5), (5, 2, 1.0), (4, 2, 0.25)])
    assert dtcn_detour(d, {3, 4, 5}).triples() == [(1, 2, 0.5), (1, 2, 1.0)]
    assert layered_detour_oracle(d, {3, 4, 5}) == {(1, 2, 0.5), (1, 2, 1.0)}


def test_detour_follows_an_equal_time_chain_met_against_its_direction():
    # rows of one instant sort by (source, target), so 3 -> 4 comes before 4 -> 5
    # and 4 -> 5 before 5 -> 2: each inner hop is met before the hop it leads to
    chain = [(1, 3, 0.5), (3, 4, 0.5), (4, 5, 0.5), (5, 2, 0.5)]
    d = DTCN.build(5, chain)
    assert dtcn_detour(d, {3, 4, 5}).triples() == [(1, 2, 0.5)]
    assert layered_detour_oracle(d, {3, 4, 5}) == {(1, 2, 0.5)}
    # the same chain with the ids reversed is met along its direction
    rev = DTCN.build(5, [(1, 5, 0.5), (5, 4, 0.5), (4, 3, 0.5), (3, 2, 0.5)])
    assert dtcn_detour(rev, {3, 4, 5}).triples() == [(1, 2, 0.5)]
    assert layered_detour_oracle(rev, {3, 4, 5}) == {(1, 2, 0.5)}


def test_a_long_equal_time_chain_met_against_its_direction_detours_in_linear_time():
    # 1 -> 3 -> 4 -> ... -> 4002 -> 2 at one instant, rows ascending along the chain:
    # one pass per hop over the instant's inner contacts took seconds here
    hops = 4000
    chain = [(1, 3, 0.5), *((v, v + 1, 0.5) for v in range(3, hops + 2)), (hops + 2, 2, 0.5)]
    d = DTCN.build(hops + 2, chain)
    start = time.perf_counter()
    out = dtcn_detour(d, range(3, hops + 3))
    elapsed = time.perf_counter() - start
    assert out.triples() == [(1, 2, 0.5)]
    assert elapsed < 0.5, elapsed


def test_detour_closes_a_three_cycle_entered_and_left_at_its_instant():
    # entering 3 reaches the exit from 5 through 3 -> 4 -> 5; the cycle's rows
    # come as 3 -> 4, 4 -> 5, 5 -> 3, so one pass in row order would miss it.
    # 6 enters 5 and goes round to 4 and back to 6, a loop with nothing to emit;
    # 5's exit at 0.25 comes before every entry
    cycle = [(3, 4, 0.5), (4, 5, 0.5), (5, 3, 0.5)]
    d = DTCN.build(6, [(1, 3, 0.5), *cycle, (5, 2, 0.5), (4, 6, 0.5), (5, 6, 0.25), (6, 5, 0.5)])
    want = [(1, 2, 0.5), (1, 6, 0.5), (6, 2, 0.5)]
    assert dtcn_detour(d, {3, 4, 5}).triples() == want
    assert layered_detour_oracle(d, {3, 4, 5}) == set(want)


def test_detour_matches_layered_oracle_on_poisson_networks_on_a_time_grid():
    # about 140 contacts on 60 vertices with times 0, 0.5 and 1: many equal-time runs
    grid = np.array([0.0, 0.5, 1.0])
    for seed in range(50):
        base = sample_dtcn(60, 0.04, "poisson", seed=900 + seed)
        rng = trial_rng(901, seed)
        times = grid[rng.integers(0, 3, size=len(base.src))]
        d = DTCN._of(base.vertices, base.src, base.dst, times)
        drop = set((rng.permutation(60)[:30] + 1).tolist())
        assert _triples(dtcn_detour(d, drop)) == layered_detour_oracle(d, drop), seed


def test_detour_matches_layered_oracle_on_a_three_time_grid():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.data())
    def agrees(data):
        n = data.draw(st.integers(2, 6))
        vertex = st.integers(1, n)
        contact = st.tuples(vertex, vertex, st.sampled_from((0.0, 0.5, 1.0))).filter(lambda c: c[0] != c[1])
        d = DTCN.build(n, data.draw(st.lists(contact, max_size=14)))
        drop = data.draw(st.sets(vertex, min_size=1, max_size=n - 1))
        assert _triples(dtcn_detour(d, drop)) == layered_detour_oracle(d, drop)

    agrees()


def test_contract_example():
    out = dtcn_contract(HANDOFF, [{4, 5}])
    assert out.triples() == [(1, 4, 1.0), (2, 4, 3.0), (4, 3, 4.0)]
    assert dtcn_contract(HANDOFF, [{1}, {2}]) == HANDOFF
    with pytest.raises(TemporalError):
        dtcn_contract(HANDOFF, [{1, 2}, {2, 3}])


def test_contract_detour_commute(rng):
    for t in range(200):
        d = sample_dtcn(7, 0.25, "uniform", 4000 + t, max_retries=5)
        picks = rng.sample(sorted(d.vertices), 4)
        drop, block = {picks[0], picks[1]}, {picks[2], picks[3]}
        left = dtcn_contract(dtcn_detour(d, drop), [block])
        right = dtcn_detour(dtcn_contract(d, [block]), drop)
        assert left == right


def test_path_abstract_routes():
    pi = PartialPartition(5, [{1, 2}, {3}])
    via_detour_first = dtcn_contract(dtcn_detour(HANDOFF, {4, 5}), [{1, 2}, {3}])
    assert dtcn_path_abstract(HANDOFF, pi) == via_detour_first


def test_constant_time_reduction(rng):
    for t in range(200):
        n = rng.randint(3, 7)
        base = sample_dtcn(n, 0.4, "uniform", 5000 + t, max_retries=5)
        frozen = DTCN(
            base.vertices,
            frozenset(Contact(c.source, c.target, 0.5) for c in base.contacts),
        )
        drop = set(rng.sample(sorted(frozen.vertices), rng.randint(1, n - 1)))
        pairs = {
            (c.source, c.target) for c in dtcn_detour(frozen, drop).contacts
        }
        graph = Digraph.build(n, {(c.source, c.target): 1 for c in frozen.contacts})
        plain = bypass_set(graph, drop)
        assert pairs == set(plain.arcs)


def test_sampling():
    with pytest.raises(TemporalError):
        sample_dtcn(5, 0.0, "uniform", 0)
    with pytest.raises(TemporalError):
        sample_dtcn(5, 0.1, "gaussian", 0)
    with pytest.raises(RandomModelError):
        sample_dtcn(-2, 0.1, "poisson", 0)
    d = sample_dtcn(200, 0.02, "uniform", 8)
    mean = 0.02 * 200 * 199
    sigma = math.sqrt(200 * 199 * 0.02 * 0.98)
    assert abs(len(d.contacts) - mean) <= 4 * sigma
    dp = sample_dtcn(200, 0.02, "poisson", 8)
    sigma_p = math.sqrt(0.02 * 200 * 199)
    assert abs(len(dp.contacts) - mean) <= 4 * sigma_p
    assert sample_dtcn(30, 0.1, "uniform", 3) == sample_dtcn(30, 0.1, "uniform", 3)


def test_sampling_memory_is_linear_in_contacts():
    import tracemalloc

    for mode in ("uniform", "poisson"):
        tracemalloc.start()
        try:
            d = sample_dtcn(20_000, 1e-4, mode, 11)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # about 360 bytes per contact; one dense n x n float draw would be 3.2 GB
        assert peak < 1000 * len(d.contacts), (mode, peak, len(d.contacts))


def test_detour_memory_stays_linear_in_contacts():
    import random
    import tracemalloc

    d = sample_dtcn(10_000, 4e-4, "poisson", seed=7)
    drop = random.Random(12).sample(sorted(d.vertices), 5_000)
    tracemalloc.start()
    try:
        dtcn_detour(d, drop)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 40,184 contacts: abstraction_pairs on the layered digraph peaks near 12.5 MiB
    # traced; a bitset or dense row per dropped vertex would take several times that
    assert len(d.src) == 40_184 and peak < 16 * 2**20, peak


def test_temporal_path_probability():
    assert temporal_path_probability(0.3, 1) == pytest.approx(0.3)
    assert temporal_path_probability(0.1, 2) == pytest.approx(0.005)
    with pytest.raises(TemporalError):
        temporal_path_probability(0.1, 0)


def test_two_hop_coherence_rate():
    # fixed 1 -> 2 -> 3 route in the uniform model
    p, trials = 0.3, 4000
    hits = 0
    for t in range(trials):
        rng = trial_rng(606, t)
        first = rng.random() < p
        second = rng.random() < p
        t1, t2 = rng.random(), rng.random()
        if first and second and t1 <= t2:
            hits += 1
    pred = temporal_path_probability(p, 2)
    sigma = math.sqrt(pred * (1 - pred) / trials)
    assert abs(hits / trials - pred) <= 3 * sigma


def test_fewer_temporal_contacts_than_bypass_arcs():
    # paired comparison at moderate scale: same sampled arcs, timed vs not
    n, p, k, trials = 120, 0.04, 12, 40
    drop = list(range(n - k + 1, n + 1))
    temporal_means = []
    digraph_means = []
    m = n - k
    for t in range(trials):
        rng = trial_rng(707, t)
        src, dst = sample_arcs(GnpModel(n, p), rng)
        times = rng.random(len(src))
        triples = list(zip((src + 1).tolist(), (dst + 1).tolist(), times.tolist()))
        if not triples:
            continue
        dt = DTCN.build(n, triples)
        out = dtcn_detour(dt, drop)
        temporal_means.append(len(out.contacts) / (m * (m - 1)))
        bypassed = bypass_set(Digraph.build(n, {(x, y): 1 for x, y, _ in triples}), drop)
        digraph_means.append(len(bypassed.arcs) / (m * (m - 1)))
    assert sum(temporal_means) / len(temporal_means) < sum(digraph_means) / len(digraph_means)


def test_lint_equal_time_chains():
    chained = DTCN.build(3, [(1, 2, 0.5), (2, 3, 0.5)])
    flagged = lint_equal_time_chains(chained)
    assert len(flagged) == 1
    a, b = flagged[0]
    assert (a.source, a.target) == (1, 2) and (b.source, b.target) == (2, 3)
    assert lint_equal_time_chains(HANDOFF) == []


def _dict_lint(d: DTCN) -> list[tuple[Contact, Contact]]:
    """The dict-of-contacts equal-time lint that the sort-join replaced, as an oracle."""
    by_source: dict[tuple[int, float], list[Contact]] = {}
    for c in d.contacts:
        by_source.setdefault((c.source, c.time), []).append(c)
    flagged = []
    for c in d.contacts:
        for nxt in by_source.get((c.target, c.time), ()):
            flagged.append((c, nxt))
    flagged.sort(key=lambda pair: (pair[0].source, pair[0].target, pair[0].time,
                                   pair[1].source, pair[1].target))
    return flagged


def test_lint_matches_the_dict_oracle(rng):
    hits = 0
    for _ in range(200):
        d, _ = equal_time_network(rng, rng.randint(3, 8))
        expected = _dict_lint(d)
        assert lint_equal_time_chains(d) == expected, d.triples()
        hits += bool(expected)
    assert hits > 100
    assert lint_equal_time_chains(DTCN(frozenset({1, 2}), frozenset())) == []
    # with raw ids in an int64 key, 2**62 + 1 and 1 would collide at three contacts
    big = 2**62 + 1
    wide = DTCN({1, 2, 3, big}, {Contact(2, big, 0.5), Contact(1, 3, 0.5), Contact(3, 2, 0.7)})
    assert lint_equal_time_chains(wide) == _dict_lint(wide) == []


def test_columns_keep_the_value_semantics():
    hypothesis = pytest.importorskip("hypothesis")
    from pathabs.formats import parse_contacts, serialize_contacts

    st = hypothesis.strategies

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.data())
    def agrees(data):
        n = data.draw(st.integers(2, 9))
        # a vertex subset leaves gaps in the ids; grid times make equal instants
        vertices = sorted(data.draw(st.sets(st.integers(1, n), min_size=2)))
        vertex = st.sampled_from(vertices)
        time = st.one_of(st.sampled_from((0.0, 0.5, 1.0)), st.floats(-5, 5, allow_nan=False))
        contact = st.tuples(vertex, vertex, time).filter(lambda c: c[0] != c[1])
        triples = data.draw(st.lists(contact, max_size=16))
        contacts = frozenset(Contact(*t) for t in triples)
        d = DTCN.build(n, triples)
        assert DTCN(range(1, n + 1), contacts) == d and d.contacts == contacts
        assert d.triples() == sorted(set(triples))
        if triples:  # the reader refuses a file without contacts
            assert parse_contacts(serialize_contacts(d), n=d.n) == d
        gapped = DTCN(vertices, contacts)
        kept = data.draw(st.lists(st.sampled_from(vertices), unique=True, min_size=1))
        cut = data.draw(st.integers(0, len(kept)))
        partition = PartialPartition(n, [b for b in (kept[:cut], kept[cut:]) if b])
        rep = {v: min(b) for b in partition.blocks for v in b}
        outside = gapped.vertices - partition.support
        expected = {
            (rep[x], rep[y], tau)
            for x, y, tau in layered_detour_oracle(gapped, outside)
            if rep[x] != rep[y]
        }
        out = dtcn_path_abstract(gapped, partition)
        assert set(out.triples()) == expected and out.vertices == set(rep.values())

    agrees()


def test_two_exits_to_one_target_and_time_give_one_contact():
    # the entry into 2 reaches 4 at 0.5 both from 2 and, through 3, from 3
    d = DTCN.build(4, [(1, 2, 0.1), (2, 3, 0.3), (2, 4, 0.5), (3, 4, 0.5)])
    assert dtcn_detour(d, {2, 3}).triples() == [(1, 4, 0.5)]
    assert layered_detour_oracle(d, {2, 3}) == {(1, 4, 0.5)}


def test_an_entry_that_reaches_its_own_tail_emits_nothing():
    # 1 enters 2 and 2 leads back to 1: the layered digraph holds no loop to read back
    d = DTCN.build(3, [(1, 2, 0.1), (2, 1, 0.5), (1, 3, 0.2)])
    out = dtcn_detour(d, {2})
    assert out.vertices == {1, 3} and out.triples() == [(1, 3, 0.2)]
    assert layered_detour_oracle(d, {2}) == {(1, 3, 0.2)}


@pytest.mark.skipif(platform.python_implementation() != "CPython", reason="counts CPython's collections")
def test_the_contact_lane_leaves_the_young_generation_alone():
    # no per-row container survives a stage, so the collector rarely runs during one
    d = sample_dtcn(5000, 8e-4, "poisson", seed=5)
    text, drop = serialize_contacts(d), sorted(d.vertices)[::2]
    young = []

    def count(phase, info):
        if phase == "start" and info["generation"] == 0:
            young.append(1)

    threshold = gc.get_threshold()
    gc.set_threshold(700, 10, 10)
    gc.collect()
    gc.callbacks.append(count)
    try:
        serialize_contacts(dtcn_detour(parse_contacts(text), drop))
    finally:
        gc.callbacks.remove(count)
        gc.set_threshold(*threshold)
    assert len(d.src) == 19957 and len(young) <= 5

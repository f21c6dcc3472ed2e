import heapq
import math
import re
import tracemalloc

import numpy as np
import pytest

from pathabs import (
    Digraph,
    DigraphError,
    PartialPartition,
    _kernels,
    bypass,
    bypass_set,
    contract_blocks,
    detour,
    detour_set,
    enumerate_paths,
    graph_sources,
    graph_targets,
    is_acyclic,
    naive_bypass,
    path_abstract,
    project_path,
    reachability,
    strongly_connected_components,
    transitive_reduction_dag,
)
from pathabs.digraph import delete_vertices, induced_subgraph
from pathabs.pabstract import is_path_of, is_walk_of
from pathabs.checks import _close_arcs, _or_refusal
from pathabs.partitions import discrete_partition
from pathabs.semirings import REGISTRY

from conftest import cycles_between_survivors, detour_fold, random_dag, random_digraph, route_sums, schur_complement
from conftest import survivors_around as _survivors_around

FIG_LOCAL = Digraph.build(7, [(1, 4), (2, 4), (4, 6), (4, 7), (3, 4), (5, 4), (4, 3), (4, 5)])
FIG_CYCLIC = Digraph.build(4, [(1, 2), (1, 3), (2, 3), (3, 1), (3, 4), (4, 1)])
FIG_DAG8 = Digraph.build(
    8, [(1, 4), (3, 5), (4, 7), (5, 1), (5, 6), (6, 8), (7, 2), (7, 8), (1, 7), (3, 8), (5, 2)]
)
DAG8_BYPASS_ARCS = {
    (1, 2), (1, 4), (1, 8), (3, 1), (3, 2), (3, 6), (3, 8), (4, 2), (4, 8), (6, 8),
}


def test_detour_triangle():
    d = Digraph.build(3, [(1, 2), (2, 3), (1, 3)])
    out = detour(d, 2)
    assert set(out.arcs) == {(1, 3)}
    assert out.vertices == d.vertices


def test_detour_isolated_vertex_is_identity():
    d = Digraph.build(3, [(1, 2)])
    assert detour(d, 3) == d


def test_detour_idempotent(rng):
    for _ in range(50):
        d = random_digraph(rng, rng.randint(1, 8), 0.4)
        v = rng.choice(sorted(d.vertices))
        once = detour(d, v)
        assert detour(once, v) == once


def test_detour_adds_the_product_through_the_vertex():
    d = Digraph.build(3, {(1, 2): 2, (2, 3): 3, (1, 3): 1}, REGISTRY["counting"])
    assert detour(d, 2).arcs == {(1, 3): 7}


def test_bypass_local_figure():
    out = bypass(FIG_LOCAL, 4)
    expected = {(x, y) for x in (1, 2, 3, 5) for y in (3, 5, 6, 7) if x != y}
    assert set(out.arcs) == expected
    assert out.vertices == frozenset({1, 2, 3, 5, 6, 7})


def test_bypass_cyclic_figure():
    out = bypass(FIG_CYCLIC, 3)
    assert set(out.arcs) == {(1, 2), (1, 4), (2, 1), (2, 4), (4, 1)}


def test_bypass_end_of_path():
    out = bypass(Digraph.build(2, [(1, 2)]), 2)
    assert out.vertices == frozenset({1}) and not out.arcs


def test_detour_set_endpoints_of_path():
    d = Digraph.build(4, [(1, 2), (2, 3), (3, 4)])
    out = bypass_set(d, {1, 4})
    assert set(out.arcs) == {(2, 3)}  # no spurious 2-cycle
    naive = naive_bypass(d, {1, 4})
    assert set(naive.arcs) == {(2, 3), (3, 2)}


def test_bypass_set_figure():
    out = bypass_set(FIG_DAG8, {5, 7})
    assert set(out.arcs) == DAG8_BYPASS_ARCS
    assert bypass_set(FIG_DAG8, set()) == FIG_DAG8
    assert detour_set(FIG_DAG8, {5, 7}).vertices == FIG_DAG8.vertices


def test_naive_bypass_adds_spurious_arcs():
    naive = naive_bypass(FIG_DAG8, {5, 7})
    assert set(naive.arcs) == DAG8_BYPASS_ARCS | {(1, 6), (4, 1), (4, 6)}


def test_naive_bypass_without_entries_is_deletion():
    d = Digraph.build(3, [(1, 2), (1, 3)])
    from pathabs.digraph import delete_vertices

    assert naive_bypass(d, {1}) == delete_vertices(d, {1})


def test_project_path_examples():
    assert project_path((3, 5, 1, 4, 7, 2), {5, 7}) == (3, 1, 4, 2)
    assert project_path((1, 2, 3, 1, 3, 4, 1, 2, 3, 4), {3}) == (1, 2, 1, 4, 1, 2, 4)
    assert project_path((1, 2, 3), set()) == (1, 2, 3)
    # a closed walk whose interior vanishes degenerates to one vertex
    assert project_path((1, 3, 1), {3}) == (1,)
    assert project_path((1, 2), {1, 2}) == ()


def test_path_abstract_examples():
    two_cycle = path_abstract(FIG_CYCLIC, PartialPartition(4, [{1}, {2, 4}]))
    assert set(two_cycle.arcs) == {(1, 2), (2, 1)}
    d = Digraph.build(4, [(1, 2), (2, 3), (3, 4)])
    assert path_abstract(d, discrete_partition(4)) == d


def test_path_abstract_routes_commute(rng):
    for _ in range(60):
        n = rng.randint(3, 8)
        d = random_digraph(rng, n, 0.35)
        vs = list(range(1, n + 1))
        rng.shuffle(vs)
        blocks = [set(vs[0:2])]
        if n >= 5 and rng.random() < 0.5:
            blocks.append(set(vs[2:4]))
        covered = set().union(*blocks)
        outside = set(vs) - covered
        via_bypass_first = contract_blocks(bypass_set(d, outside), blocks)
        via_contract_first = bypass_set(contract_blocks(d, blocks), outside)
        assert via_bypass_first == via_contract_first
        assert path_abstract(d, PartialPartition(n, blocks)) == via_bypass_first


def test_detour_commutativity(rng):
    for _ in range(300):
        n = rng.randint(2, 8)
        d = random_digraph(rng, n, 0.35)
        if n < 2:
            continue
        v, w = rng.sample(range(1, n + 1), 2)
        assert detour(detour(d, v), w) == detour(detour(d, w), v)


def test_detour_contract_commutation(rng):
    for _ in range(300):
        n = rng.randint(3, 8)
        d = random_digraph(rng, n, 0.35)
        u, v, w = rng.sample(range(1, n + 1), 3)
        left = contract_blocks(detour(d, u), [{v, w}])
        right = detour(contract_blocks(d, [{v, w}]), u)
        assert left == right


def test_path_preservation(rng):
    for _ in range(150):
        n = rng.randint(3, 8)
        d = random_digraph(rng, n, 0.35)
        reach = reachability(d)
        for v in sorted(d.vertices):
            dd = detour(d, v)
            bb = bypass(d, v)
            reach_detour = reachability(dd)
            reach_bypass = reachability(bb)
            for u in sorted(d.vertices - {v}):
                for w in sorted(d.vertices - {v, u}):
                    if w in reach[u]:
                        assert w in reach_detour[u]
                        assert w in reach_bypass[u]


def test_path_language_equality_on_dags(rng):
    for _ in range(80):
        n = rng.randint(3, 8)
        d = random_dag(rng, n, 0.45)
        k = rng.randint(1, n - 2) if n > 2 else 1
        dropped = frozenset(rng.sample(range(1, n + 1), k))
        b = bypass_set(d, dropped)
        full = enumerate_paths(d, graph_sources(d), graph_targets(d))
        assert not full.truncated
        images = {
            project_path(p, dropped)
            for p in full.paths
            if len(project_path(p, dropped)) >= 2
        }
        endpoint_pairs = {(w[0], w[-1]) for w in images}
        bypass_paths = set()
        for x, y in sorted(endpoint_pairs):
            result = enumerate_paths(b, {x}, {y})
            assert not result.truncated
            bypass_paths.update(p for p in result.paths if len(p) >= 2)
        assert images == bypass_paths


def test_projected_paths_are_walks_when_cyclic(rng):
    for _ in range(60):
        n = rng.randint(3, 7)
        d = random_digraph(rng, n, 0.4)
        k = rng.randint(1, n - 1)
        dropped = frozenset(rng.sample(range(1, n + 1), k))
        b = bypass_set(d, dropped)
        all_paths = enumerate_paths(d, d.vertices, d.vertices, max_count=5000)
        for p in all_paths.paths:
            image = project_path(p, dropped)
            if len(image) >= 2 and image[0] not in dropped and image[-1] not in dropped:
                assert is_walk_of(b, image), (p, image)


def test_acyclicity_preserved(rng):
    for _ in range(100):
        n = rng.randint(2, 8)
        d = random_dag(rng, n, 0.4)
        k = rng.randint(0, n)
        dropped = rng.sample(range(1, n + 1), k)
        assert is_acyclic(detour_set(d, dropped))
        assert is_acyclic(bypass_set(d, dropped))


def test_strong_connectivity_lifts(rng):
    seen = 0
    for _ in range(400):
        n = rng.randint(3, 7)
        d = random_digraph(rng, n, 0.45)
        v = rng.randint(1, n)
        from pathabs import classify_vertex

        nc = classify_vertex(d, v)
        if not nc.predecessors or not nc.successors:
            continue
        b = bypass(d, v)
        if len(strongly_connected_components(b)) == 1:
            seen += 1
            assert len(strongly_connected_components(d)) == 1
    assert seen > 20  # the hypothesis fired often enough to mean something


def test_bypass_reduction_minimal_on_dags(rng):
    for _ in range(40):
        n = rng.randint(3, 6)
        d = random_dag(rng, n, 0.5)
        k = rng.randint(1, n - 2) if n > 2 else 1
        dropped = frozenset(rng.sample(range(1, n + 1), k))
        survivors = d.vertices - dropped
        b = bypass_set(d, dropped)
        reduced = transitive_reduction_dag(b)
        reach_d = reachability(d)
        required = {
            (u, w)
            for u in survivors
            for w in survivors
            if u != w and w in reach_d[u]
        }
        reach_reduced = reachability(reduced)
        assert {(u, w) for u, w in required if w in reach_reduced[u]} == required
        for arc in sorted(reduced.arcs):
            thinner = reduced.with_arcs({k2: v for k2, v in reduced.arcs.items() if k2 != arc})
            reach_thin = reachability(thinner)
            lost = {(u, w) for (u, w) in required if w not in reach_thin[u]}
            assert lost, f"arc {arc} was removable; reduction not minimal"


def test_bypass_matches_reachability_oracle(rng):
    # independent semantics: survivors x,y get an arc iff x reaches y
    # directly or through dropped vertices only
    for _ in range(120):
        n = rng.randint(2, 8)
        d = random_digraph(rng, n, 0.4)
        k = rng.randint(1, n - 1) if n > 1 else 0
        dropped = frozenset(rng.sample(range(1, n + 1), k))
        survivors = sorted(d.vertices - dropped)
        inner = {u: {w for w in dropped if d.has_arc(u, w)} for u in dropped}

        def through(x, y):
            frontier = [u for u in dropped if d.has_arc(x, u)]
            seen = set(frontier)
            while frontier:
                u = frontier.pop()
                if d.has_arc(u, y):
                    return True
                for w in inner[u] - seen:
                    seen.add(w)
                    frontier.append(w)
            return False

        expected = {
            (x, y)
            for x in survivors
            for y in survivors
            if x != y and (d.has_arc(x, y) or through(x, y))
        }
        assert set(bypass_set(d, dropped).arcs) == expected


def test_survivor_ids_unchanged(rng):
    for _ in range(50):
        n = rng.randint(3, 8)
        d = random_digraph(rng, n, 0.4)
        k = rng.randint(1, n - 1)
        dropped = frozenset(rng.sample(range(1, n + 1), k))
        assert bypass_set(d, dropped).vertices == d.vertices - dropped


def test_is_path_helpers():
    assert is_path_of(FIG_DAG8, (3, 5, 2))
    assert not is_path_of(FIG_DAG8, (3, 2))
    assert is_walk_of(FIG_CYCLIC, (1, 3, 1))
    assert not is_path_of(FIG_CYCLIC, (1, 3, 1))


def test_vertex_out_of_range_errors():
    d = Digraph.build(3, [(1, 2)])
    with pytest.raises(DigraphError):
        detour(d, 9)
    with pytest.raises(DigraphError):
        bypass(d, 0)
    with pytest.raises(DigraphError):
        detour_set(d, {1, 9})
    with pytest.raises(DigraphError):
        naive_bypass(d, {9})


def _typed(arcs):
    return {key: (type(value), value) for key, value in arcs.items()}


def _set_bypass_corpus(rng):
    """Random digraphs with a planted 2-cycle and a longer cycle, some contracted.

    Yields each digraph with the drop sets to try: empty, one vertex, half,
    all, and every vertex of the long cycle but one, so that the cycle runs
    through the dropped set.
    """
    for i in range(150):
        n = rng.randint(2, 12)
        arcs = dict(random_digraph(rng, n, rng.choice((0.1, 0.25, 0.5))).arcs)
        x, y = rng.sample(range(1, n + 1), 2)
        arcs[(x, y)] = arcs[(y, x)] = 1
        cycle = rng.sample(range(1, n + 1), rng.randint(2, n))
        for x, y in zip(cycle, cycle[1:] + cycle[:1]):
            arcs[(x, y)] = 1
        d = Digraph.build(n, arcs)
        if i % 3 == 0 and n >= 4:
            d = contract_blocks(d, [rng.sample(range(1, n + 1), rng.randint(2, 3))])
            assert d.merged
        vertices = sorted(d.vertices)
        on_cycle = [v for v in cycle if v in d.vertices]
        yield d, [
            [],
            [rng.choice(vertices)],
            rng.sample(vertices, len(vertices) // 2),
            vertices,
            on_cycle[1:],
        ]


def test_set_bypass_matches_the_per_vertex_fold(rng):
    for d, drops in _set_bypass_corpus(rng):
        for drop in drops:
            ascending = detour_fold(d, sorted(drop))
            descending = detour_fold(d, sorted(drop, reverse=True))
            assert ascending == descending
            assert detour_set(d, drop) == ascending
            assert bypass_set(d, drop) == delete_vertices(ascending, drop)


def test_set_bypass_matches_the_closure_kernel(rng):
    for d, drops in _set_bypass_corpus(rng):
        order = sorted(d.vertices)
        index = {v: i for i, v in enumerate(order)}
        a = np.zeros((len(order), len(order)), dtype=np.uint8)
        for x, y in d.arcs:
            a[index[x], index[y]] = 1
        for drop in drops:
            keep, sub = _kernels.bypass_closure(a, np.asarray([index[v] for v in drop], dtype=np.int64))
            survivors = [order[i] for i in keep]
            closure = {(survivors[i], survivors[j]) for i, j in zip(*np.nonzero(sub))}
            bypassed = bypass_set(d, drop)
            assert sorted(bypassed.vertices) == survivors
            assert set(bypassed.arcs) == closure
            assert set(detour_set(d, drop).arcs) == closure


def test_set_bypass_keeps_values_the_fold_keeps(rng):
    # boolean arcs may hold any nonzero value; a detour writes one where it links
    d = Digraph(frozenset({1, 2, 3, 4}), {(1, 2): 2, (2, 3): True, (1, 3): 2, (3, 4): True, (4, 1): 1})
    cases = [(d, ([], [2], [2, 4], [1, 3]))]
    for d, drops in _set_bypass_corpus(rng):
        arcs = {key: rng.choice((1, True, 2, 3)) for key in d.arcs}
        cases.append((Digraph(d.vertices, arcs, d.semiring, dict(d.merged)), drops))
    for d, drops in cases:
        for drop in drops:
            assert _typed(detour_set(d, drop).arcs) == _typed(detour_fold(d, drop).arcs)
            expected = delete_vertices(detour_fold(d, drop), drop)
            assert _typed(bypass_set(d, drop).arcs) == _typed(expected.arcs)


def test_detour_is_the_one_vertex_set_detour(rng):
    # every semiring, with merged blocks and id gaps; each arc value's type must match too
    for s, case in [(s, case) for s in REGISTRY.values() for case in range(60)]:
        n = rng.randint(2, 9)
        d = random_digraph(rng, n, rng.choice((0.2, 0.4, 0.7)), s)
        d = contract_blocks(d, [rng.sample(range(1, n + 1), 2)]) if case % 2 else d
        d = delete_vertices(d, rng.sample(sorted(d.vertices), rng.randint(0, d.n - 1)))
        for v, one, whole in [(v, detour(d, v), detour_set(d, {v})) for v in d.vertices]:
            assert one == whole and _typed(one.arcs) == _typed(whole.arcs), (s.name, v, d)


def test_set_bypass_errors_and_empty_set():
    from pathabs import COUNTING

    d = Digraph.build(3, [(1, 2), (2, 3)])
    weighted = Digraph.build(3, {(1, 2): 2, (2, 3): 3}, COUNTING)
    for op in (detour_set, bypass_set):
        with pytest.raises(DigraphError):
            op(d, {2, 9})
        # the empty set is the identity on any semiring, merged blocks included
        assert op(d, set()) == d
        assert op(weighted, []) == weighted
        c = contract_blocks(d, [{1, 3}])
        assert op(c, ()) == c
    # any other semiring: the one-vertex set detour is the detour
    assert detour_set(weighted, {2}) == detour(weighted, 2)
    assert bypass_set(weighted, {2}) == delete_vertices(detour(weighted, 2), {2})



def test_set_bypass_memory_follows_the_arcs():
    # Dropped vertex 10000 + i links survivor 2i - 1 to 2i.  Dense reach rows of all
    # 10,000 survivors per dropped vertex would take about 100 MB, a per-vertex map fold 6 MB.
    n = 15000
    arcs = [a for i in range(1, 5001) for a in ((2 * i - 1, 10000 + i), (10000 + i, 2 * i))]
    d = Digraph.build(n, arcs)
    tracemalloc.start()
    try:
        got = bypass_set(d, range(10001, n + 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.arcs == {(2 * i - 1, 2 * i): 1 for i in range(1, 5001)}
    assert peak < 16 * 2**20


def test_boolean_cores_refuse_ids_beyond_int64():
    # hand-built ids go through int64 arrays: too large is a DigraphError, not an OverflowError
    for big in (2**63, -(2**63) - 1):
        d = Digraph(frozenset({1, 2, 3, big}), {(1, 2): 1, (2, 3): 1})
        blocks = PartialPartition(3, [{1}, {3}])
        for op, arg in ((detour_set, [2]), (bypass_set, [2]), (path_abstract, blocks), (contract_blocks, [{1, 2}])):
            with pytest.raises(DigraphError, match=f"^vertex ids must fit in int64 here, got {big}$"):
                op(d, arg)
    top = Digraph(frozenset({1, 2, 2**63 - 1}), {(1, 2): 1, (2, 2**63 - 1): 1})
    assert bypass_set(top, [2]).arcs == {(1, 2**63 - 1): 1}


def test_fold_refusal_memory_follows_the_fold():
    # a counting refusal once grew a set of pivots with every sum and product it absorbed:
    # 4.2 MiB here, where the fold itself needs under 1
    from pathabs import COUNTING
    from pathabs.random import GnpModel, sample_arcs, trial_rng

    src, dst = sample_arcs(GnpModel(300, 2 / 300), trial_rng(1, 0))
    d = Digraph.build(300, dict.fromkeys(zip((src + 1).tolist(), (dst + 1).tolist()), 1), COUNTING)
    dropped = frozenset(range(31, 301))
    tracemalloc.start()
    try:
        with pytest.raises(DigraphError) as refusal:
            bypass_set(d, dropped)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the refusal names the dropped strong component that holds 32, as it did before
    cycle = next(c for c in strongly_connected_components(induced_subgraph(d, dropped)) if 32 in c)
    assert len(cycle) == 146 and min(cycle) == 32
    assert str(refusal.value) == (
        f"dropped vertices {{{', '.join(map(str, sorted(cycle)))}}} form a cycle on a route between "
        "survivors; on the counting semiring the walk sum through them has no value"
    )
    assert peak < 2 * 2**20


def test_path_abstract_keys_are_the_inputs_ints():
    # ids above 256 are not cached by Python: fresh ints per key would double the keys' memory
    d = Digraph.build(1200, [(1000 + i, 1001 + i) for i in range(199)])
    p = PartialPartition(1200, [sorted(d.vertices)[i : i + 2] for i in range(1000, 1200, 4)])
    got = path_abstract(d, p)
    own = {id(v) for v in d.vertices}
    assert len(got.arcs) == 49 and all(id(x) in own and id(y) in own for x, y in got.arcs)


def test_order_guard_accepts_a_cycle_that_returns_to_its_block():
    from pathabs import COUNTING

    # 2 <-> 3 lies only on 1 -> 2 -> 3 -> 4, and contracting {1, 4} makes that a loop
    d = Digraph.build(5, {(1, 2): 1, (2, 3): 1, (3, 2): 1, (3, 4): 1, (1, 5): 2}, COUNTING)
    got = path_abstract(d, PartialPartition(5, [{1, 4}, {5}]))
    assert got.arcs == {(1, 5): 2} and got.merged == {1: frozenset({1, 4})}
    with pytest.raises(DigraphError, match=re.escape("dropped vertices {2, 3} form a cycle")):
        bypass_set(d, [2, 3])
    # a cycle that a survivor reaches, and that reaches only that survivor, is no route
    loop = Digraph.build(4, {(1, 2): 1, (2, 3): 1, (3, 2): 1, (3, 1): 1, (1, 4): 3}, COUNTING)
    assert bypass_set(loop, [2, 3]).arcs == {(1, 4): 3}


def _ends_in_one_block(d, blocks, drop):
    """Whether every dropped cycle that some survivor reaches and that reaches some
    survivor has all those survivors in one block, so contracting first clears it."""
    from pathabs.digraph import strongly_connected_components

    block = {v: i for i, b in enumerate(blocks) for v in b}
    inside = Digraph(frozenset(drop), {a: 1 for a in d.arcs if a[0] in drop and a[1] in drop})
    for c in strongly_connected_components(inside):
        xs, ys = (_survivors_around(drop, c, step) for step in (d.predecessors_of, d.successors_of))
        if len(c) > 1 and xs and ys and len({block[v] for v in xs | ys}) > 1:
            return False
    return True


def test_order_guard_refuses_exactly_cycles_between_distinct_survivors(rng):
    from pathabs import COUNTING
    from pathabs.digraph import strongly_connected_components

    refused = 0
    for _ in range(1500):
        n = rng.randint(2, 9)
        d = random_digraph(rng, n, rng.choice((0.15, 0.3, 0.5)), COUNTING)
        drop = set(rng.sample(range(1, n + 1), rng.randint(1, n)))
        inside = Digraph(frozenset(drop), {a: 1 for a in d.arcs if a[0] in drop and a[1] in drop})
        cycles = [c for c in strongly_connected_components(inside) if len(c) > 1]
        ends = [[_survivors_around(drop, c, step) for step in (d.predecessors_of, d.successors_of)] for c in cycles]
        bad = [c for c, (xs, ys) in zip(cycles, ends) if any(x != y for x in xs for y in ys)]
        got = _or_refusal(lambda: bypass_set(d, drop))
        if bad:  # the witness is the component of the smallest such vertex
            refused += 1
            assert got.startswith("dropped vertices {" + ", ".join(map(str, sorted(min(bad, key=min)))) + "}")
        else:
            assert isinstance(got, Digraph)
    assert refused > 50


def _partitions(rng, d):
    """Partial partitions of d's vertices: random blocks of 1 to 3, none, one
    block, singletons on the merged vertices, and random blocks on a ground set
    past the largest vertex."""
    top = max(d.vertices)
    vertices = sorted(d.vertices)
    kept = rng.sample(vertices, rng.randint(0, len(vertices)))
    random_blocks, i = [], 0
    while i < len(kept):
        size = rng.randint(1, 3)
        random_blocks.append(kept[i : i + size])
        i += size
    yield PartialPartition(top, random_blocks)
    yield PartialPartition(top, [])
    yield PartialPartition(top, [rng.sample(vertices, rng.randint(1, len(vertices)))])
    yield PartialPartition(top, [{v} for v in d.merged])
    yield PartialPartition(top + rng.randint(1, 3), random_blocks)


def _closure_then_contract(d, outside, blocks):
    """``_kernels.bypass_closure`` on d's matrix, then ``contract_blocks``."""
    order = sorted(d.vertices)
    index = {v: i for i, v in enumerate(order)}
    a = np.zeros((len(order), len(order)), dtype=np.uint8)
    for x, y in d.arcs:
        a[index[x], index[y]] = 1
    keep, sub = _kernels.bypass_closure(a, np.asarray([index[v] for v in outside], dtype=np.int64))
    survivors = [order[i] for i in keep]
    arcs = {(survivors[i], survivors[j]): 1 for i, j in zip(*np.nonzero(sub))}
    merged = {v: m for v, m in d.merged.items() if v in survivors}
    return contract_blocks(Digraph(frozenset(survivors), arcs, d.semiring, merged), blocks)


def test_path_abstract_matches_both_routes_and_the_closure(rng):
    cases = 0
    for d, drops in _set_bypass_corpus(rng):
        for graph in (d, delete_vertices(d, drops[2])):
            for p in _partitions(rng, graph):
                blocks = list(p.blocks)
                outside = graph.vertices - p.support
                got = path_abstract(graph, p)
                assert got == contract_blocks(bypass_set(graph, outside), blocks)
                assert got == bypass_set(contract_blocks(graph, blocks), outside)
                assert got == _closure_then_contract(graph, outside, blocks)
                cases += 1
    assert cases == 150 * 2 * 5


def test_path_abstract_writes_one_on_every_arc():
    # The two-step route keeps the survivors' own values, such as 2 and True; the core writes one.
    d = Digraph(frozenset({1, 2, 3, 4}), {(1, 2): 2, (2, 3): True, (1, 3): 2, (3, 4): True, (4, 1): 1})
    two_step_values = set()
    for blocks in ([{1}, {3}], [{1, 2}, {3}], [{1, 3}, {2, 4}], [{1}, {2}, {3}, {4}], [{2, 4}]):
        outside = d.vertices - set().union(*blocks)
        two_step = contract_blocks(bypass_set(d, outside), blocks)
        got = path_abstract(d, PartialPartition(4, blocks))
        assert set(got.arcs) == set(two_step.arcs)
        assert _typed(got.arcs) == {arc: (int, 1) for arc in two_step.arcs}
        assert got.vertices == two_step.vertices and got.merged == two_step.merged
        two_step_values |= set(_typed(two_step.arcs).values())
    assert two_step_values == {(int, 1), (int, 2), (bool, True)}  # a boolean sum is one, never 3


def _three_routes(d, p):
    """``path_abstract``, bypass-then-contract and contract-then-bypass, each
    as a digraph or the ``DigraphError`` message it raised."""
    blocks, outside = list(p.blocks), d.vertices - p.support
    return (
        _or_refusal(lambda: path_abstract(d, p)),
        _or_refusal(lambda: contract_blocks(bypass_set(d, outside), blocks)),
        _or_refusal(lambda: bypass_set(contract_blocks(d, blocks), outside)),
    )


def _weighted_corpus(rng, semiring):
    """Digraphs with the semiring's arc values, a planted cycle, a merged block on
    every other one and id gaps, each with blocks of 1 to 3 of its vertices."""
    for case in range(200):
        n = rng.randint(3, 10)
        d = random_digraph(rng, n, rng.choice((0.2, 0.35, 0.5)), semiring)
        cycle = rng.sample(range(1, n + 1), rng.randint(2, n))
        d = d.with_arcs({**d.arcs, **{(x, y): semiring.one for x, y in zip(cycle, cycle[1:] + cycle[:1])}})
        if case % 2 and n >= 4:
            d = contract_blocks(d, [rng.sample(range(1, n + 1), rng.randint(2, 3))])
        d = delete_vertices(d, rng.sample(sorted(d.vertices), rng.randint(0, d.n // 3)))
        kept = rng.sample(sorted(d.vertices), rng.randint(1, d.n))
        cuts = sorted(rng.sample(range(1, len(kept)), rng.randint(0, len(kept) - 1)))
        blocks = [kept[i:j] for i, j in zip([0] + cuts, cuts + [len(kept)])]
        yield d, PartialPartition(n + rng.randint(0, 2), blocks)


def _dijkstra_abstraction(d, blocks, outside):
    """Per block, a multi-source Dijkstra from its members that expands only
    bypassed vertices; the arc to another block is the least distance to a member."""
    rep = {v: min(block) for block in blocks for v in block}
    adj = {v: [] for v in d.vertices}
    for (x, y), w in d.arcs.items():
        adj[x].append((y, w))
    arcs = {}
    for block in blocks:
        dist = dict.fromkeys(block, 0.0)
        heap = [(0.0, v) for v in block]
        while heap:
            du, u = heapq.heappop(heap)
            if du > dist[u] or (u not in block and u not in outside):
                continue
            for y, w in adj[u]:
                if du + w < dist.get(y, math.inf):
                    dist[y] = du + w
                    heapq.heappush(heap, (du + w, y))
        for y, dy in dist.items():
            if y in rep and rep[y] != min(block):
                key = (min(block), rep[y])
                arcs[key] = min(arcs.get(key, math.inf), dy)
    return arcs


def _contracted_route_sums(d, blocks, outside):
    """``route_sums`` through the bypassed vertices, summed per pair of distinct blocks."""
    s, rep, acc = d.semiring, {v: min(block) for block in blocks for v in block}, {}
    for (x, y), value in route_sums(d, outside).items():
        key = (rep[x], rep[y])
        if key[0] != key[1]:
            acc[key] = s.add(acc[key], value) if key in acc else value
    return {key: value for key, value in acc.items() if s.normalize(value) is not None}


def test_path_abstract_on_every_semiring(rng):
    for name, s in REGISTRY.items():
        accepted = refused = valued = 0
        for d, p in _weighted_corpus(rng, s):
            blocks, outside = list(p.blocks), d.vertices - p.support
            got, first_bypass, first_contract = _three_routes(d, p)
            assert got == first_contract
            if isinstance(got, str):
                # a walk sum with no value refuses both routes, naming the same cycle
                assert s.add(s.one, s.one) != s.one and first_bypass == got
                refused += 1
                continue
            accepted += 1
            contracted = contract_blocks(d, blocks)
            # on the reals, walks between distinct blocks can circle a dropped cycle
            walks = name == "real" and cycles_between_survivors(contracted, outside)
            if isinstance(first_bypass, str):
                # contracting first cancelled the refused route (a signed sum), or
                # merged the blocks it leaves and enters into one
                assert name == "real" or _ends_in_one_block(d, blocks, outside)
            elif walks:
                assert (got.vertices, got.merged) == (first_bypass.vertices, first_bypass.merged)
                assert _close_arcs(got.arcs, first_bypass.arcs)
            else:
                assert got == first_bypass
            assert got.vertices == {min(block) for block in blocks}
            if walks:
                valued += 1
                cond, sums = schur_complement(contracted, outside)
                assert sums is None or _close_arcs(got.arcs, sums), cond
            elif name == "boolean":
                assert got == _closure_then_contract(d, outside, blocks)
            elif name == "minplus-nonneg":
                assert got.arcs == _dijkstra_abstraction(d, blocks, outside)
            else:
                assert got.arcs == _contracted_route_sums(d, blocks, outside)
        assert accepted > 100
        if name == "counting":
            assert refused > 5
        if name == "real":  # walk sums through a dropped cycle, and singular pivots
            assert valued > 10 and refused > 0


def test_contracting_first_can_cancel_a_refused_route():
    from pathabs import REAL

    # the cycle {2, 3} sends 1 and -1 into the block {4, 5}
    d = Digraph.build(5, {(1, 2): 1.0, (2, 3): 1.0, (3, 2): 1.0, (3, 4): 1.0, (3, 5): -1.0}, REAL)
    p = PartialPartition(5, [{1}, {4, 5}])
    with pytest.raises(DigraphError, match=re.escape("{2, 3}")):
        bypass_set(d, {2, 3})
    got = path_abstract(d, p)
    assert got == bypass_set(contract_blocks(d, p.blocks), {2, 3})
    assert got.arcs == {} and got.merged == {4: frozenset({4, 5})}


def test_path_abstract_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    values = {
        "boolean": st.just(1),
        "counting": st.integers(1, 3),
        "real": st.sampled_from((-2.0, -1.0, 1.0, 2.0, 3.0)),
        "minplus-nonneg": st.sampled_from((0.0, 1.0, 2.5, 4.0)),
    }

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.data())
    def agrees(data):
        s = data.draw(st.sampled_from(list(REGISTRY.values())))
        n = data.draw(st.integers(3, 8))
        vertex = st.integers(1, n)
        pairs = [(x, y) for x in range(1, n + 1) for y in range(1, n + 1) if x != y]
        arcs = st.dictionaries(st.sampled_from(pairs), values[s.name], min_size=n, max_size=3 * n)
        d = Digraph.build(n, data.draw(arcs), s)
        d = contract_blocks(d, [data.draw(st.sets(vertex, min_size=2, max_size=3))])
        d = delete_vertices(d, data.draw(st.sets(st.sampled_from(sorted(d.vertices)), max_size=d.n // 3)))
        labels = data.draw(st.lists(st.integers(-3, 2), min_size=d.n, max_size=d.n))
        blocks = [{v for v, b in zip(sorted(d.vertices), labels) if b == j} for j in range(3)]
        p = PartialPartition(n, [b for b in blocks if b])
        got, first_bypass, first_contract = _three_routes(d, p)
        if s.name == "boolean":
            assert got == _closure_then_contract(d, d.vertices - p.support, list(p.blocks))
        assert got == first_contract
        cancelled = isinstance(first_bypass, str) and not isinstance(got, str)
        cancelled = cancelled and (s.name == "real" or _ends_in_one_block(d, p.blocks, d.vertices - p.support))
        assert got == first_bypass or cancelled

    agrees()


def test_relabelling_reorders_the_elimination_but_not_the_bypass(rng):
    for name, s in REGISTRY.items():
        compared = refused = 0
        for d, p in _weighted_corpus(rng, s):
            outside, ids = d.vertices - p.support, sorted(d.vertices)
            perm = dict(zip(ids, rng.sample(ids, len(ids))))  # eliminates the dropped set in another order
            moved = Digraph(d.vertices, {(perm[x], perm[y]): value for (x, y), value in d.arcs.items()}, s)
            got = _or_refusal(lambda: bypass_set(d, outside))
            back = _or_refusal(lambda: bypass_set(moved, {perm[v] for v in outside}))
            inverse = {new: old for old, new in perm.items()}
            if name == "real" and isinstance(got, str) != isinstance(back, str):
                continue  # a pivot of one order is exactly singular, and no pivot of the other
            if isinstance(got, str):
                assert isinstance(back, str)
                witness = {inverse[int(v)] for v in re.search(r"\{([\d, ]+)\}", back).group(1).split(", ")}
                assert witness in cycles_between_survivors(d, outside)
                refused += 1
            else:
                back = {(inverse[x], inverse[y]): value for (x, y), value in back.arcs.items()}
                if name != "real":
                    assert _typed(got.arcs) == _typed(back)
                elif schur_complement(d, outside)[0] <= 1e8:
                    assert _close_arcs(got.arcs, back)
                compared += 1
        assert compared > 100
        if name in ("counting", "real"):
            assert refused > 2

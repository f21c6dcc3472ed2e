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
from pathabs.digraph import delete_vertices
from pathabs.pabstract import is_path_of, is_walk_of
from pathabs.partitions import discrete_partition

from conftest import random_dag, random_digraph

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


def test_detour_needs_boolean():
    from pathabs import COUNTING

    d = Digraph.build(3, {(1, 2): 2}, COUNTING)
    with pytest.raises(DigraphError):
        detour(d, 2)


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
    assert detour_set(FIG_DAG8, {5, 7}, debug_check_order=True).vertices == FIG_DAG8.vertices


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


def _fold(d, vertices):
    for v in vertices:
        d = detour(d, v)
    return d


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
            ascending = _fold(d, sorted(drop))
            descending = _fold(d, sorted(drop, reverse=True))
            assert ascending == descending
            assert detour_set(d, drop, debug_check_order=True) == ascending
            assert bypass_set(d, drop, debug_check_order=True) == delete_vertices(ascending, drop)


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


def test_set_bypass_keeps_values_the_fold_keeps():
    # boolean arcs may hold any nonzero value; a detour writes one where it links
    d = Digraph(frozenset({1, 2, 3, 4}), {(1, 2): 2, (2, 3): True, (1, 3): 2, (3, 4): True, (4, 1): 1})
    for drop in ([], [2], [2, 4], [1, 3]):
        assert _typed(detour_set(d, drop).arcs) == _typed(_fold(d, drop).arcs)
        expected = delete_vertices(_fold(d, drop), drop)
        assert _typed(bypass_set(d, drop).arcs) == _typed(expected.arcs)


def test_set_bypass_errors_and_empty_set():
    from pathabs import COUNTING

    d = Digraph.build(3, [(1, 2), (2, 3)])
    weighted = Digraph.build(3, {(1, 2): 2, (2, 3): 3}, COUNTING)
    for op in (detour_set, bypass_set):
        with pytest.raises(DigraphError):
            op(d, {2, 9})
        with pytest.raises(DigraphError):
            op(weighted, {2})
        # the empty set is the identity on any semiring, merged blocks included
        assert op(d, set()) == d
        assert op(weighted, []) == weighted
        c = contract_blocks(d, [{1, 3}])
        assert op(c, ()) == c


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
    # The two-step route ORs arc values, so 2 | 2 reads 3; the core writes one.
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
    assert {(int, 2), (int, 3), (bool, True)} <= two_step_values

import numpy as np
import pytest

from pathabs import (
    COUNTING,
    Digraph,
    DigraphError,
    classify_vertex,
    contract_blocks,
    count_walks_dag,
    enumerate_paths,
    graph_sources,
    graph_targets,
    is_acyclic,
    reachability,
    strongly_connected_components,
    transitive_reduction_dag,
)
from pathabs import digraph
from pathabs.digraph import CyclicGraphError, _reach, _tarjan, delete_vertices, scc_labels
from pathabs.pabstract import bypass
from pathabs.random import GnpModel, sample_arcs, trial_rng

from conftest import random_dag, random_digraph

FIG_LOCAL = Digraph.build(7, [(1, 4), (2, 4), (4, 6), (4, 7), (3, 4), (5, 4), (4, 3), (4, 5)])
FIG_CYCLIC = Digraph.build(4, [(1, 2), (1, 3), (2, 3), (3, 1), (3, 4), (4, 1)])
FIG_DAG8 = Digraph.build(
    8, [(1, 4), (3, 5), (4, 7), (5, 1), (5, 6), (6, 8), (7, 2), (7, 8), (1, 7), (3, 8), (5, 2)]
)


def test_no_self_loops():
    with pytest.raises(DigraphError):
        Digraph.build(2, [(1, 1)])


def test_no_stored_zero():
    with pytest.raises(DigraphError):
        Digraph.build(2, {(1, 2): 0}, COUNTING)


def test_digraph_is_unhashable():
    with pytest.raises(TypeError):
        hash(FIG_DAG8)


def test_contract_path():
    d = Digraph.build(3, [(1, 2), (2, 3)])
    c = contract_blocks(d, [{1, 3}])
    assert sorted(c.vertices) == [1, 2]
    assert set(c.arcs) == {(1, 2), (2, 1)}
    assert c.members_of(1) == frozenset({1, 3})


def test_contract_counting_adds():
    d = Digraph.build(3, {(1, 3): 2, (2, 3): 1}, COUNTING)
    c = contract_blocks(d, [{1, 2}])
    assert c.arcs == {(1, 3): 3}


def test_contract_after_bypass_gives_two_cycle():
    c = contract_blocks(bypass(FIG_CYCLIC, 3), [{2, 4}])
    assert set(c.arcs) == {(1, 2), (2, 1)}


def test_contract_rejects_overlap_and_range():
    d = Digraph.build(4, [(1, 2)])
    with pytest.raises(DigraphError):
        contract_blocks(d, [{1, 2}, {2, 3}])
    with pytest.raises(DigraphError):
        contract_blocks(d, [{4, 5}])


def test_contract_order_independent(rng):
    for _ in range(300):
        n = rng.randint(4, 8)
        d = random_digraph(rng, n, 0.4)
        picks = rng.sample(range(1, n + 1), 4)
        b1, b2 = {picks[0], picks[1]}, {picks[2], picks[3]}
        assert contract_blocks(contract_blocks(d, [b1]), [b2]) == contract_blocks(d, [b1, b2])
        assert contract_blocks(contract_blocks(d, [b2]), [b1]) == contract_blocks(d, [b1, b2])


def test_classify_local_figure():
    nc = classify_vertex(FIG_LOCAL, 4)
    assert nc.minus == {1, 2}
    assert nc.plusminus == {3, 5}
    assert nc.plus == {6, 7}
    assert nc.zero == frozenset()
    assert nc.predecessors == {1, 2, 3, 5}
    assert nc.successors == {3, 5, 6, 7}


def test_classify_trivial_cases():
    single = Digraph.build(1)
    nc = classify_vertex(single, 1)
    assert nc.minus == nc.plusminus == nc.plus == nc.zero == frozenset()
    pair = Digraph.build(2, [(1, 2), (2, 1)])
    nc = classify_vertex(pair, 1)
    assert nc.plusminus == {2}
    assert nc.minus == nc.plus == nc.zero == frozenset()


def test_classify_partitions_everything(rng):
    for _ in range(1000):
        d = random_digraph(rng, rng.randint(1, 10), rng.random())
        for v in d.vertices:
            nc = classify_vertex(d, v)
            parts = [nc.minus, nc.plusminus, nc.plus, nc.zero]
            assert sum(len(p) for p in parts) == len(d.vertices) - 1
            assert frozenset().union(*parts) | {v} == d.vertices


def _mutual_reach_oracle(d):
    """Brute-force SCCs: x ~ y iff both reach each other."""
    reach = reachability(d)
    comps = []
    placed = set()
    for v in sorted(d.vertices):
        if v in placed:
            continue
        comp = {v} | {w for w in d.vertices if w in reach[v] and v in reach[w]}
        comps.append(frozenset(comp))
        placed |= comp
    return sorted(comps, key=min)


def test_scc_examples():
    assert strongly_connected_components(Digraph.build(2, [(1, 2), (2, 1)])) == [frozenset({1, 2})]
    assert strongly_connected_components(Digraph.build(3, [(1, 2), (2, 3)])) == [
        frozenset({1}),
        frozenset({2}),
        frozenset({3}),
    ]
    assert strongly_connected_components(FIG_CYCLIC) == [frozenset({1, 2, 3, 4})]
    assert _mutual_reach_oracle(FIG_CYCLIC) == [frozenset({1, 2, 3, 4})]


def test_scc_matches_oracle(rng):
    for _ in range(200):
        d = random_digraph(rng, rng.randint(1, 9), rng.random())
        assert strongly_connected_components(d) == _mutual_reach_oracle(d)


def _edge_case_digraphs():
    yield Digraph.build(0)
    yield Digraph.build(1)
    yield Digraph.build(6)
    for n in (2, 3, 7):
        yield Digraph.build(n, [(x, y) for x in range(1, n + 1) for y in range(1, n + 1) if x != y])
    yield Digraph.build(5, [(v, v % 5 + 1) for v in range(1, 6)])


def _label_components(d):
    """Components from scc_labels on d's arcs, vertex v as index v - 1."""
    src = np.array([x - 1 for x, _ in d.arcs], dtype=np.int64)
    dst = np.array([y - 1 for _, y in d.arcs], dtype=np.int64)
    labels = scc_labels(d.n, src, dst)
    assert labels.dtype == np.int64 and labels.shape == (d.n,)
    # Sink components take the lowest labels: arcs never climb in label.
    assert all(labels[x] >= labels[y] for x, y in zip(src, dst))
    groups = {}
    for v, label in enumerate(labels.tolist(), start=1):
        groups.setdefault(label, set()).add(v)
    assert sorted(groups) == list(range(len(groups)))
    return sorted((frozenset(g) for g in groups.values()), key=min)


def test_scc_labels_match_oracle(rng):
    cases = list(_edge_case_digraphs())
    for _ in range(300):
        cases.append(random_digraph(rng, rng.randint(1, 12), rng.choice((0.05, 0.2, 0.5, rng.random()))))
    for d in cases:
        assert _label_components(d) == _mutual_reach_oracle(d)


def test_scc_on_vertex_ids_with_gaps(rng):
    cases = list(_edge_case_digraphs())
    for _ in range(300):
        n = rng.randint(1, 12)
        d = random_digraph(rng, n, rng.choice((0.05, 0.2, 0.5, rng.random())))
        cases.append(delete_vertices(d, rng.sample(range(1, n + 1), rng.randint(0, n))))
    for d in cases:
        assert strongly_connected_components(d) == _mutual_reach_oracle(d)
    gapped = delete_vertices(Digraph.build(6, [(2, 4), (4, 6), (6, 2), (1, 3)]), [3, 5])
    assert strongly_connected_components(gapped) == [frozenset({1}), frozenset({2, 4, 6})]


def test_scc_labels_on_a_long_cycle():
    n = 50_000
    src = np.arange(n, dtype=np.int64)
    labels = scc_labels(n, src, (src + 1) % n)
    assert not labels.any()
    labels = scc_labels(n, src[:-1], src[1:])
    assert labels.tolist() == list(range(n - 1, -1, -1))


def _smallest_member(labels):
    """Each vertex's component named by its smallest vertex: a labelling-free partition."""
    first = np.full(len(labels), len(labels))
    np.minimum.at(first, labels, np.arange(len(labels)))
    return first[labels]


def _require_valid_labels(n, src, dst):
    labels = scc_labels(n, src, dst)
    assert labels.dtype == np.int64 and labels.shape == (n,)
    ids = np.unique(labels)
    assert np.array_equal(ids, np.arange(len(ids)))
    assert np.all(labels[src] >= labels[dst])
    assert np.array_equal(_smallest_member(labels), _smallest_member(_tarjan(n, src, dst)))


def _blobs(rng, sizes, c):
    """Disjoint G(k, c/k) draws on consecutive vertex ranges, one per size."""
    src, dst, base = [], [], 0
    for k in sizes:
        s, d = sample_arcs(GnpModel(k, c / k), rng)
        src.append(s + base)
        dst.append(d + base)
        base += k
    return np.concatenate(src), np.concatenate(dst)


def _adversarial_shapes(n=50_000):
    """Shapes that defeat trimming or the forward-backward search, on n vertices."""
    rng = np.random.default_rng(17)
    half = n // 2
    v = np.arange(n, dtype=np.int64)
    cycle = (v[:half], (v[:half] + 1) % half)
    tail = (v[half:], np.append(v[half + 1 :], 0))
    yield "lollipop-into-cycle", (np.concatenate((cycle[0], tail[0])), np.concatenate((cycle[1], tail[1])))
    yield "lollipop-out-of-cycle", (np.concatenate((cycle[0], tail[1])), np.concatenate((cycle[1], tail[0])))
    even = v[0::2]
    yield "ladder-of-2-cycles", (np.concatenate((even, even + 1, even[:-1])), np.concatenate((even + 1, even, even[1:])))
    src, dst = _blobs(rng, (half, n - half), 4.0)
    joins = rng.integers(0, half, size=(2, 10))
    yield "bow-tie", (np.concatenate((src, joins[0])), np.concatenate((dst, joins[1] + half)))
    yield "many-disjoint-giants", _blobs(rng, [n // 50] * 50, 4.0)
    yield "giant-and-isolated-vertices", _blobs(rng, (half,), 2.0)
    yield "no-arcs", (v[:0], v[:0])


def test_scc_labels_match_tarjan_across_the_crossover():
    rng = np.random.default_rng(5)
    for n in (100, 300, 600, 1000, 2000, 5000):
        for c in (0.5, 1.0, 1.5, 2.0, 4.0):
            for _ in range(3):
                _require_valid_labels(n, *sample_arcs(GnpModel(n, c / n), rng))


def test_scc_labels_on_adversarial_shapes():
    for _, (src, dst) in _adversarial_shapes():
        _require_valid_labels(50_000, src, dst)


def _sparse_giants(n=10_000, c=1.5, seeds=range(1, 6)):
    for seed in seeds:
        yield sample_arcs(GnpModel(n, c / n), trial_rng(seed, 0))


@pytest.mark.parametrize("n, c, draws", [(10_000, 1.5, 5), (2_000, 2.0, 40)])
def test_the_forward_backward_search_finds_a_sparse_giant(monkeypatch, n, c, draws):
    # the c = 1.5 giants lie 28-44 levels deep, past the 2·bit_length(core) + 8
    # levels that once abandoned two of these five searches for Tarjan on the
    # whole core; the c = 2 giants are the scc-n2000 benchmark's, up to 24 deep
    found = []

    def reach(*args):
        seen = _reach(*args)
        found.append(seen is not None)
        return seen

    monkeypatch.setattr(digraph, "_reach", reach)
    for src, dst in _sparse_giants(n, c, range(1, draws + 1)):
        scc_labels(n, src, dst)
    assert found == [True] * draws


def test_scc_labels_on_sparse_giants_partition_as_tarjan_does():
    for src, dst in _sparse_giants():
        _require_valid_labels(10_000, src, dst)


def test_is_acyclic():
    assert is_acyclic(Digraph.build(3, [(1, 2), (2, 3)]))
    assert not is_acyclic(Digraph.build(2, [(1, 2), (2, 1)]))
    assert is_acyclic(FIG_DAG8)


def test_transitive_reduction_triangle():
    d = Digraph.build(3, [(1, 2), (2, 3), (1, 3)])
    assert set(transitive_reduction_dag(d).arcs) == {(1, 2), (2, 3)}


def test_transitive_reduction_idempotent_on_chain():
    d = Digraph.build(3, [(1, 2), (2, 3)])
    assert transitive_reduction_dag(d) == d


def test_transitive_reduction_of_bypassed_example():
    # Enumerating before/after shows the reduction keeps reachability (every
    # source-target pair stays connected) while thinning the path multisets:
    # the bypassed example has 7 source-target paths, its reduction 3.
    from pathabs.pabstract import bypass_set

    center = bypass_set(FIG_DAG8, {5, 7})
    reduced = transitive_reduction_dag(center)
    srcs, tgts = graph_sources(center), graph_targets(center)
    before = enumerate_paths(center, srcs, tgts)
    after = enumerate_paths(reduced, srcs, tgts)
    assert len(before.paths) == 7
    assert len(after.paths) == 3
    connected_before = {(p[0], p[-1]) for p in before.paths}
    connected_after = {(p[0], p[-1]) for p in after.paths}
    assert connected_before == connected_after
    assert reachability(reduced) == reachability(center)


def test_transitive_reduction_rejects_cycles():
    with pytest.raises(CyclicGraphError):
        transitive_reduction_dag(Digraph.build(2, [(1, 2), (2, 1)]))


def test_transitive_reduction_preserves_reachability(rng):
    for _ in range(200):
        d = random_dag(rng, rng.randint(2, 10), rng.random())
        assert reachability(transitive_reduction_dag(d)) == reachability(d)


def test_enumerate_paths_table():
    result = enumerate_paths(FIG_DAG8, {3}, {2, 8})
    expected = {
        (3, 5, 2),
        (3, 5, 1, 7, 2),
        (3, 5, 1, 4, 7, 2),
        (3, 8),
        (3, 5, 6, 8),
        (3, 5, 1, 7, 8),
        (3, 5, 1, 4, 7, 8),
    }
    assert set(result.paths) == expected
    assert not result.truncated
    assert list(result.paths) == sorted(result.paths)
    assert graph_sources(FIG_DAG8) == {3}
    assert graph_targets(FIG_DAG8) == {2, 8}


def test_enumerate_paths_trivia():
    d = Digraph.build(2, [(1, 2)])
    assert enumerate_paths(d, {1}, {2}).paths == ((1, 2),)
    empty = Digraph.build(3)
    assert enumerate_paths(empty, {1}, {2, 3}).paths == ()


def test_enumerate_paths_truncation_flag():
    result = enumerate_paths(FIG_DAG8, {3}, {2, 8}, max_count=3)
    assert result.truncated
    assert len(result.paths) == 3
    short = enumerate_paths(FIG_DAG8, {3}, {2, 8}, max_len=2)
    assert short.truncated
    assert all(len(p) - 1 <= 2 for p in short.paths)



def test_enumerate_paths_long_path():
    # one stack frame per path vertex would exceed the recursion limit
    n = 1500
    d = Digraph.build(n, [(v, v + 1) for v in range(1, n)])
    result = enumerate_paths(d, {1}, {n})
    assert result.paths == (tuple(range(1, n + 1)),)
    assert not result.truncated
    assert enumerate_paths(d, {1}, {n}, max_len=n - 2).truncated

def test_enumerate_paths_returns_real_paths(rng):
    for _ in range(100):
        d = random_dag(rng, rng.randint(2, 8), 0.5)
        result = enumerate_paths(d, d.vertices, d.vertices)
        assert not result.truncated
        for path in result.paths:
            assert len(set(path)) == len(path)
            assert all(d.has_arc(a, b) for a, b in zip(path, path[1:]))


def test_count_walks():
    chain = Digraph.build(3, [(1, 2), (2, 3)])
    assert count_walks_dag(chain, 1, 3) == 1
    diamond = Digraph.build(4, [(1, 2), (1, 3), (2, 4), (3, 4)])
    assert count_walks_dag(diamond, 1, 4) == 2
    multi = Digraph.build(3, {(1, 2): 2, (2, 3): 1}, COUNTING)
    assert count_walks_dag(multi, 1, 3) == 2
    with pytest.raises(CyclicGraphError):
        count_walks_dag(Digraph.build(2, [(1, 2), (2, 1)]), 1, 2)


def test_count_walks_matches_enumeration(rng):
    # on plain DAGs every walk is a concatenation counted once per route
    for _ in range(50):
        d = random_dag(rng, rng.randint(2, 7), 0.5)
        vs = sorted(d.vertices)
        x, y = vs[0], vs[-1]
        paths = enumerate_paths(d, {x}, {y})
        walks = [p for p in paths.paths if len(p) >= 2] if x != y else []
        assert count_walks_dag(d, x, y) == len(walks) + (1 if x == y else 0)

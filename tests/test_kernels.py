import numpy as np

from pathabs import Digraph, _kernels, bypass_set, detour_set


def _to_digraph(a: np.ndarray) -> Digraph:
    n = a.shape[0]
    arcs = {(int(x) + 1, int(y) + 1): 1 for x, y in zip(*np.nonzero(a))}
    return Digraph.build(n, arcs)


def test_sample_adjacency_deterministic():
    a = _kernels.sample_adjacency(40, 0.2, np.random.default_rng(7))
    b = _kernels.sample_adjacency(40, 0.2, np.random.default_rng(7))
    assert (a == b).all()
    assert a.diagonal().sum() == 0


def _fold_closure_cases():
    rng = np.random.default_rng(321)
    for _ in range(150):
        n = int(rng.integers(2, 12))
        a = _kernels.sample_adjacency(n, float(rng.random()), rng)
        k = int(rng.integers(1, n + 1))
        yield a, rng.choice(n, size=k, replace=False)
    yield _kernels.sample_adjacency(25, 0.3, np.random.default_rng(1)), np.arange(5)


def test_fold_matches_closure():
    for a, drop in _fold_closure_cases():
        keep1, b1 = _kernels.bypass_dense(a, drop)
        keep2, b2 = _kernels.bypass_closure(a, drop)
        assert (keep1 == keep2).all()
        assert (b1 == b2).all()


def test_kernels_match_reference_digraph_ops():
    rng = np.random.default_rng(555)
    for _ in range(60):
        n = int(rng.integers(2, 10))
        a = _kernels.sample_adjacency(n, float(rng.random()), rng)
        d = _to_digraph(a)
        k = int(rng.integers(1, n + 1))
        drop = sorted(int(v) + 1 for v in rng.choice(n, size=k, replace=False))
        keep, sub = _kernels.bypass_dense(a, np.asarray(drop) - 1)
        reference = bypass_set(d, drop)
        assert list(keep + 1) == sorted(reference.vertices)
        index = {v: i for i, v in enumerate(keep + 1)}
        expected = np.zeros_like(sub)
        for (x, y) in reference.arcs:
            expected[index[x], index[y]] = 1
        assert (sub == expected).all()
        # the detour fold without deletion matches detour_set
        folded = a.copy()
        _kernels.detour_fold_inplace(folded, np.asarray(drop, dtype=np.int64) - 1)
        assert _to_digraph(folded) == detour_set(d, drop)


def test_inplace_contract():
    a = np.zeros((3, 3), dtype=np.uint8)
    a[0, 1] = a[1, 2] = 1
    _kernels.detour_fold_inplace(a, np.asarray([1], dtype=np.int64))
    assert a[0, 2] == 1 and a[0, 1] == 0 and a[1, 2] == 0

"""Dense boolean reference kernels: a sampler, the detour fold and the closure oracle.

These are references for tests, checks and the benchmark's per-layer probes,
not a path-abstraction route: ``random.monte_carlo_abstraction`` draws arcs
with ``random.sample_arcs``, and it and ``pabstract.path_abstract`` abstract
them with ``pabstract.abstraction_pairs``, with no n×n matrix.  Adjacency is a 0-indexed
uint8 matrix; vertex v of a digraph on 1..n lives at row v-1.
"""

from __future__ import annotations

import numpy as np

# Recorded as the lane of a benchmark run (perfbench/run.py).
IMPLEMENTATION = "numpy"


def sample_adjacency(n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Each ordered pair gets an arc independently with probability p."""
    a = (rng.random((n, n)) < p).astype(np.uint8)
    np.fill_diagonal(a, 0)
    return a


def detour_fold_inplace(a: np.ndarray, order: np.ndarray) -> None:
    """Detour each vertex of ``order`` in turn, in place."""
    for v in order:
        p = a[:, v].astype(bool)
        s = a[v, :].astype(bool)
        a[np.ix_(p, s)] = 1
        a[:, v] = 0
        a[v, :] = 0
        np.fill_diagonal(a, 0)


def bypass_dense(a: np.ndarray, drop: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bypass a vertex set: fold detours, then slice out the survivors.

    Returns (survivor row indices, bypassed adjacency).
    """
    a = a.copy()
    drop = np.asarray(sorted(set(int(v) for v in drop)), dtype=np.int64)
    detour_fold_inplace(a, drop)
    keep = np.setdiff1d(np.arange(a.shape[0]), drop)
    return keep, a[np.ix_(keep, keep)]


def bypass_closure(a: np.ndarray, drop: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Independent route to the same bypass, via reachability through the set.

    Survivor x gains an arc to y exactly when some path x -> (inside the
    dropped set) -> y exists.  Used to cross-check the detour fold.
    """
    n = a.shape[0]
    drop = np.asarray(sorted(set(int(v) for v in drop)), dtype=np.int64)
    keep = np.setdiff1d(np.arange(n), drop)
    if len(drop) == 0:
        return keep, a[np.ix_(keep, keep)].copy()
    inner = a[np.ix_(drop, drop)].astype(bool)
    reach = inner | np.eye(len(drop), dtype=bool)
    k = len(drop)
    step = 1
    while step < k:
        reach = reach @ reach
        step *= 2
    through = (a[np.ix_(keep, drop)].astype(bool) @ reach) @ a[np.ix_(drop, keep)].astype(bool)
    out = (a[np.ix_(keep, keep)].astype(bool) | through).astype(np.uint8)
    np.fill_diagonal(out, 0)
    return keep, out

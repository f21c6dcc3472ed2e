"""Pinned ids of ``pabstract.abstraction_pairs``.

Exact ids on small shapes that reach every arc group (between blocks, entry,
exit, inner) alone and together, and SHA-256 digests of the ids over three
workload shapes, so a change to how the core groups its arcs or expands its
entries cannot change a result unnoticed.
"""

import hashlib

import numpy as np
import pytest

from pathabs import PartialPartition
from pathabs import temporal
from pathabs.pabstract import abstraction_pairs
from pathabs.random import GnpModel, sample_arcs, trial_rng
from pathabs.temporal import dtcn_path_abstract, sample_dtcn


def _ids(arcs, block_of, m):
    src = np.array([a for a, _ in arcs], dtype=np.int64)
    dst = np.array([b for _, b in arcs], dtype=np.int64)
    got = abstraction_pairs(src, dst, np.array(block_of, dtype=np.int64), m)
    assert got.dtype == np.int64
    return got.tolist()


# name: (arcs, block_of, m, ids)
SHAPES = {
    "empty": ([], [0, 1, -1], 2, []),
    "only-direct": ([(0, 1), (1, 2), (2, 3), (3, 0), (2, 3)], [0, 0, 1, 2], 3, [1, 5, 6]),
    "entries-no-exits": ([(0, 2), (2, 3), (1, 3), (0, 1)], [0, 1, -1, -1], 2, [1]),
    "exits-no-entries": ([(2, 0), (2, 1), (1, 0)], [0, 1, -1], 2, [2]),
    "no-inner": ([(0, 3), (3, 1), (3, 2), (2, 3)], [0, 1, 2, -1], 3, [1, 2, 7]),
    "several-entries-one-component": (
        [(0, 4), (4, 5), (5, 4), (1, 5), (1, 4), (5, 2), (4, 3), (3, 4), (0, 5)],
        [0, 0, 1, 2, -1, -1],
        3,
        [1, 2, 7],
    ),
    "chain-of-components": ([(0, 3), (3, 4), (4, 5), (5, 1), (4, 2), (1, 5), (2, 3)], [0, 1, 2, -1, -1, -1], 3, [1, 2, 7]),
    "loops": ([(0, 0), (2, 2), (0, 2), (2, 1), (1, 1)], [0, 1, -1], 2, [1]),
    "repeated-arcs": ([(0, 1), (0, 1), (0, 2), (0, 2), (2, 1), (2, 1), (1, 0), (1, 0)], [0, 1, -1], 2, [1, 2]),
    "m-1": ([(0, 1), (1, 2), (2, 0), (0, 2)], [0, -1, 0], 1, []),
    "dead-ends": ([(0, 2), (3, 1), (2, 4), (4, 2)], [0, 1, -1, -1, -1], 2, []),
}


@pytest.mark.parametrize("name", SHAPES)
def test_abstraction_pairs_pinned_ids(name):
    arcs, block_of, m, ids = SHAPES[name]
    assert _ids(arcs, block_of, m) == ids


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(len(a).to_bytes(8, "little"))
        h.update(a.astype(a.dtype.newbyteorder("<")).tobytes())
    return h.hexdigest()


def test_abstraction_pairs_digest_on_the_monte_carlo_shape():
    # mc-n300: G(300, 0.02) with singleton blocks on 1..270
    n, m = 300, 270
    block_of = np.full(n, -1, dtype=np.int64)
    block_of[:m] = np.arange(m)
    got = [abstraction_pairs(*sample_arcs(GnpModel(n, 0.02), trial_rng(17, t)), block_of, m) for t in range(20)]
    assert sum(map(len, got)) == 60_693
    assert _digest(got) == "a203cdd6407cb22ccad551942f85bba02f68dd08c1e34232be2755f75fb57f7f"


def test_abstraction_pairs_digest_on_a_sparse_half_in_blocks():
    # G(1000, 2/1000), a random half of the vertices in blocks of 1 to 4, the rest dropped
    n, got = 1000, []
    for t in range(20):
        rng = np.random.default_rng(400 + t)
        kept = rng.permutation(n)[: n // 2]
        block_of = np.full(n, -1, dtype=np.int64)
        m = i = 0
        while i < len(kept):
            size = int(rng.integers(1, 5))
            block_of[kept[i : i + size]] = m
            m, i = m + 1, i + size
        got.append(abstraction_pairs(*sample_arcs(GnpModel(n, 2 / n), trial_rng(18, t)), block_of, m))
    assert sum(map(len, got)) == 95_023
    assert _digest(got) == "ceb6de1b2f40a26e5ded9a5b27630fdf8b7e8841ea721a2d1151ef016c474112"


def test_abstraction_pairs_digest_on_temporal_path_abstractions(monkeypatch):
    # 20 Poisson networks at n=400, p=0.01, a random half dropped and the rest paired
    seen = []

    def recorded(*args):
        seen.append(abstraction_pairs(*args))
        return seen[-1]

    monkeypatch.setattr(temporal, "abstraction_pairs", recorded)
    triples = []
    for s in range(20):
        d = sample_dtcn(400, 0.01, "poisson", seed=500 + s)
        kept = (np.random.default_rng(600 + s).permutation(400)[:200] + 1).tolist()
        out = dtcn_path_abstract(d, PartialPartition(400, [kept[i : i + 2] for i in range(0, 200, 2)]))
        triples += [out.src, out.dst, out.time]
    assert len(seen) == 20 and sum(map(len, seen)) == 17_549
    assert _digest(seen) == "ab3fa792be29d20fd8a6c01ee0131c490094c532aea0d3762da09281758a2f24"
    assert sum(map(len, triples[::3])) == 24_727
    assert _digest(triples) == "a76e7581a544062af67794c34a4eb0b0915a62420cb9bcd2ed5006f68f37c64c"

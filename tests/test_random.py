import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from pathabs import Digraph, PartialPartition, _kernels, bypass_set, contract_blocks, path_abstract
from pathabs.pabstract import abstraction_pairs
from pathabs.partitions import discrete_partition
from pathabs.random import (
    GnpModel,
    RandomModelError,
    abstraction_arc_probability,
    approx_survival_iterate,
    arc_survival,
    arc_survival_iterate,
    arc_survival_iterate_exact,
    expected_arcs,
    giant_scc_fraction,
    largest_scc_fraction_mc,
    monte_carlo_abstraction,
    renormalization_grid,
    sample_arcs,
    sample_gnp,
    strong_connectivity_probability,
    strong_connectivity_rate_mc,
    survival_potential,
    survival_potential_inverse,
    trial_rng,
)

FIDI_SIZES = (4, 3, 2, 2, 1, 2, 1, 2, 2, 3, 2)


def test_survival_map_values():
    assert arc_survival(0.0) == 0.0
    assert arc_survival(1.0) == 1.0
    assert arc_survival(0.5) == 0.625
    assert arc_survival(0.05) == pytest.approx(0.052375, abs=1e-12)
    with pytest.raises(RandomModelError):
        arc_survival(1.5)


def test_iterate_against_exact_oracle():
    assert arc_survival_iterate(0.3, 0) == 0.3
    # desk-scale counts cross-check against exact rationals
    for count in range(9):
        exact = arc_survival_iterate_exact(Fraction(3, 10), count)
        assert arc_survival_iterate(0.3, count) == pytest.approx(float(exact), rel=1e-13)
    # published "four-step" value matches the third exact iterate, not the fourth
    third = float(arc_survival_iterate_exact(Fraction(5, 100), 3))
    fourth = float(arc_survival_iterate_exact(Fraction(5, 100), 4))
    assert third == pytest.approx(0.0578, abs=5e-5)
    assert fourth == pytest.approx(0.0610, abs=5e-5)
    assert arc_survival_iterate(0.05, 3) == pytest.approx(third, rel=1e-12)


def test_iterate_against_high_precision_oracle():
    # rational bits explode beyond a dozen steps; a 60-digit decimal
    # evaluation is the independent route at count 20
    from decimal import Decimal, getcontext

    getcontext().prec = 60
    x = Decimal("0.5")
    for _ in range(20):
        x = x * x + (1 - x * x) * x
    assert arc_survival_iterate(0.5, 20) == pytest.approx(float(x), rel=1e-12)


def test_iterates_monotone_in_count():
    values = [arc_survival_iterate(0.3, k) for k in range(12)]
    assert values == sorted(values)
    # doubles saturate at the upper fixed point after enough steps
    assert all(0 < v <= 1 for v in values)


def test_potential():
    assert survival_potential(0.5) == pytest.approx(-2.0, abs=1e-12)
    for p in [i / 10 for i in range(1, 10)]:
        assert survival_potential_inverse(survival_potential(p)) == pytest.approx(p, abs=1e-9)
    grid = [survival_potential(p / 100) for p in range(1, 100)]
    assert grid == sorted(grid)
    with pytest.raises(RandomModelError):
        survival_potential(0.0)


def test_approx_iterate():
    assert approx_survival_iterate(0.37, 0) == pytest.approx(0.37, abs=1e-9)
    vals = [approx_survival_iterate(0.2, k) for k in range(10)]
    assert vals == sorted(vals)
    # the worst-case gap against exact iteration is finite and reproducible
    def max_gap():
        worst = 0.0
        for i in range(1, 100):
            p = i / 100
            for count in range(11):
                worst = max(worst, abs(approx_survival_iterate(p, count) - arc_survival_iterate(p, count)))
        return worst

    first, second = max_gap(), max_gap()
    assert first == second
    assert math.isfinite(first) and first < 1.0


def test_abstraction_arc_probability():
    # contraction-only: support = n, one singleton against a size-k block
    for k in range(1, 6):
        assert abstraction_arc_probability(0.3, 10, 1, k, 10) == pytest.approx(
            1 - (1 - 0.3) ** k, abs=1e-12
        )
    assert abstraction_arc_probability(0.3, 10, 1, 1, 10) == pytest.approx(0.3)
    with pytest.raises(RandomModelError):
        abstraction_arc_probability(0.3, 10, 0, 1, 10)


def test_expected_arcs_reference_values():
    # the published constants correspond to three survival compositions
    assert expected_arcs(0.05, 28, FIDI_SIZES, survival_iterations=3) == pytest.approx(
        25.9635, abs=0.01
    )
    assert expected_arcs(0.0529, 28, FIDI_SIZES, survival_iterations=3) == pytest.approx(
        27.4466, abs=0.01
    )
    # the literal formula composes once per dropped vertex
    literal = expected_arcs(0.05, 28, FIDI_SIZES)
    q4 = arc_survival_iterate(0.05, 4)
    manual = sum(
        1 - (1 - q4) ** (a * b)
        for i, a in enumerate(FIDI_SIZES)
        for j, b in enumerate(FIDI_SIZES)
        if i != j
    )
    assert literal == pytest.approx(manual, rel=1e-12)


def test_expected_arcs_edges():
    assert expected_arcs(0.3, 5, [5]) == 0.0
    assert expected_arcs(0.3, 2, [1, 1]) == pytest.approx(0.6, abs=1e-12)
    with pytest.raises(RandomModelError):
        expected_arcs(0.3, 3, [2, 2])


def test_expected_arcs_symmetric_under_permutation():
    a = expected_arcs(0.06, 28, FIDI_SIZES)
    b = expected_arcs(0.06, 28, tuple(reversed(FIDI_SIZES)))
    assert a == pytest.approx(b, rel=1e-12)


def test_sample_gnp():
    assert sample_gnp(GnpModel(5, 0.0), 1).arc_count() == 0
    assert sample_gnp(GnpModel(5, 1.0), 1).arc_count() == 20
    d = sample_gnp(GnpModel(200, 0.02), 99)
    mean = 200 * 199 * 0.02
    sigma = math.sqrt(200 * 199 * 0.02 * 0.98)
    assert abs(d.arc_count() - mean) <= 4 * sigma
    assert sample_gnp(GnpModel(50, 0.1), 5) == sample_gnp(GnpModel(50, 0.1), 5)


def _arc_pairs(n, p, seed, trial=0):
    src, dst = sample_arcs(GnpModel(n, p), trial_rng(seed, trial))
    assert src.dtype == dst.dtype == np.int64
    return list(zip(src.tolist(), dst.tolist()))


def test_sample_arcs_are_distinct_loopless_pairs():
    for n, p, seed in [(2, 0.5, 1), (7, 0.6, 2), (50, 0.1, 3), (300, 0.02, 4), (1000, 0.002, 5)]:
        pairs = _arc_pairs(n, p, seed)
        assert all(0 <= x < n and 0 <= y < n and x != y for x, y in pairs)
        assert len(set(pairs)) == len(pairs)


def test_sample_arcs_small_and_extreme_models():
    for p in (0.0, 0.5, 1.0):
        assert _arc_pairs(1, p, 0) == []
    assert sorted(_arc_pairs(2, 1.0, 0)) == [(0, 1), (1, 0)]
    assert {len(_arc_pairs(2, 0.5, s)) for s in range(40)} == {0, 1, 2}
    for n in (2, 5, 30):
        assert _arc_pairs(n, 0.0, 9) == []
        assert sorted(_arc_pairs(n, 1.0, 9)) == [(x, y) for x in range(n) for y in range(n) if x != y]


def test_sample_arcs_reproducible_per_seed_and_trial():
    assert _arc_pairs(100, 0.05, 7, 3) == _arc_pairs(100, 0.05, 7, 3)
    assert _arc_pairs(100, 0.05, 7, 3) != _arc_pairs(100, 0.05, 7, 4)
    assert _arc_pairs(100, 0.05, 7, 3) != _arc_pairs(100, 0.05, 8, 3)


def test_sample_arcs_count_follows_the_binomial_law():
    n, p, draws = 20, 0.1, 4000
    counts = np.array([len(_arc_pairs(n, p, 61, t)) for t in range(draws)])
    mean, var = n * (n - 1) * p, n * (n - 1) * p * (1 - p)
    assert abs(counts.mean() - mean) <= 4 * math.sqrt(var / draws)
    # the sample variance of near-normal counts has standard error var*sqrt(2/(draws-1))
    assert abs(counts.var(ddof=1) - var) <= 4 * var * math.sqrt(2 / (draws - 1))


def test_sample_arcs_hits_every_pair_with_probability_p():
    n, p, draws = 6, 0.3, 4000
    hits = np.zeros((n, n), dtype=np.int64)
    for t in range(draws):
        src, dst = sample_arcs(GnpModel(n, p), trial_rng(62, t))
        hits[src, dst] += 1
    assert np.diagonal(hits).sum() == 0
    sigma = math.sqrt(p * (1 - p) / draws)
    off = ~np.eye(n, dtype=bool)
    assert off.sum() == 30
    assert np.all(np.abs(hits[off] / draws - p) <= 4 * sigma)


def test_scc_statistics_reject_bad_models():
    for n, c in [(0, 2.0), (3, 5.0), (10, -1.0), (10, float("nan"))]:
        with pytest.raises(RandomModelError):
            largest_scc_fraction_mc(n, c, trials=2, seed=0)
    for n, p in [(0, 0.5), (5, 1.5), (5, -0.1)]:
        with pytest.raises(RandomModelError):
            strong_connectivity_rate_mc(n, p, trials=2, seed=0)
    with pytest.raises(RandomModelError):
        largest_scc_fraction_mc(10, 2.0, trials=0, seed=0)
    for n, c in [(10, 20.0), (1, 2.0), (10, -1.0), (10, float("nan"))]:
        with pytest.raises(RandomModelError, match=r"^c must lie in \[0, n\]"):
            largest_scc_fraction_mc(n, c, trials=1, seed=0)
    with pytest.raises(RandomModelError):
        strong_connectivity_rate_mc(10, 0.5, trials=0, seed=0)


def test_scc_statistics_at_the_extremes():
    assert largest_scc_fraction_mc(1, 0.0, trials=3, seed=0) == 1.0
    assert largest_scc_fraction_mc(5, 0.0, trials=3, seed=0) == pytest.approx(0.2)
    assert largest_scc_fraction_mc(5, 5.0, trials=3, seed=0) == 1.0
    assert strong_connectivity_rate_mc(1, 0.0, trials=3, seed=0) == 1.0
    assert strong_connectivity_rate_mc(4, 0.0, trials=3, seed=0) == 0.0
    assert strong_connectivity_rate_mc(4, 1.0, trials=3, seed=0) == 1.0


def test_scc_statistics_pinned():
    # Exact outputs on shapes large enough for scc_labels' vectorised phases:
    # any labelling with the same partition gives the same floats.
    assert largest_scc_fraction_mc(2000, 2.0, 20, seed=7) == 0.6396499999999999
    # n=300 near the strong-connectivity threshold, whose limit formula gives 0.48.
    assert strong_connectivity_rate_mc(300, 0.0225, 200, seed=3) == 0.495


def test_monte_carlo_pinned_on_a_large_dropped_set():
    # 9,000 dropped vertices and about 16,000 arcs among them: scc_labels
    # may label their components in any valid order, the pairs stay put.
    model, singletons = GnpModel(10_000, 2e-4), PartialPartition(10_000, [{v} for v in range(1, 1001)])
    r = monte_carlo_abstraction(model, singletons, 2, seed=11)
    assert monte_carlo_abstraction(model, singletons, 2, seed=11, workers=2) == r
    digest = hashlib.sha256(r.pairs.astype("<i8").tobytes() + r.pair_counts.astype("<i8").tobytes())
    assert digest.hexdigest() == "ea7ee03a81065f4d69407f0e3090d18b9a6c254aef8aae28c72c9c0dd262462f"
    assert len(r.pairs) == 783_737
    assert r.frequencies == (0.5387947947947948, 0.5294474474474474)


def test_monte_carlo_deterministic_and_parallel():
    model = GnpModel(40, 0.08)
    pi = PartialPartition(40, [{v} for v in range(1, 33)])
    serial = monte_carlo_abstraction(model, pi, 12, seed=4)
    again = monte_carlo_abstraction(model, pi, 12, seed=4)
    threaded = monte_carlo_abstraction(model, pi, 12, seed=4, workers=4)
    assert serial == again == threaded
    assert len(serial.frequencies) == 12


def test_monte_carlo_zero_probability():
    model = GnpModel(6, 0.0)
    pi = discrete_partition(6)
    out = monte_carlo_abstraction(model, pi, 1, seed=0)
    assert out.mean == 0.0
    assert all(f == 0.0 for f in out.frequencies)


def test_monte_carlo_single_bypass_is_exact():
    # bypassing one vertex has exactly the survival-map arc probability
    n, p, trials = 150, 0.05, 120
    model = GnpModel(n, p)
    pi = PartialPartition(n, [{v} for v in range(1, n)])
    out = monte_carlo_abstraction(model, pi, trials, seed=11)
    pred = arc_survival(p)
    assert abs(out.mean - pred) <= 4 * out.standard_error()


def test_monte_carlo_matches_iterated_survival():
    # desk-size version of the scaling experiment
    n, drop, trials = 120, 12, 80
    model = GnpModel(n, 0.03)
    pi = PartialPartition(n, [{v} for v in range(1, n - drop + 1)])
    out = monte_carlo_abstraction(model, pi, trials, seed=21)
    pred = arc_survival_iterate(0.03, drop)
    assert abs(out.mean - pred) <= 3 * out.stddev


def test_monte_carlo_pair_frequencies():
    model = GnpModel(8, 0.5)
    pi = PartialPartition(8, [{1, 2}, {3}, {4, 5}])
    out = monte_carlo_abstraction(model, pi, 30, seed=7)
    assert set(out.pair_frequency) == {
        (a, b) for a in (1, 3, 4) for b in (1, 3, 4) if a != b
    }
    assert all(0.0 <= f <= 1.0 for f in out.pair_frequency.values())


def test_pair_frequency_is_built_on_request_from_the_tally():
    model = GnpModel(12, 0.08)
    pi = PartialPartition(12, [{4}, {1, 2}, {7, 9, 10}, {12}])
    out = monte_carlo_abstraction(model, pi, 9, seed=8)
    assert "pair_frequency" not in vars(out)
    assert out.representatives == tuple(min(b) for b in pi.blocks)
    assert out.pairs.tolist() == sorted(set(out.pairs.tolist()))
    assert not out.pairs.flags.writeable and not out.pair_counts.flags.writeable
    table = dict(zip(out.pairs.tolist(), out.pair_counts.tolist()))
    reps = out.representatives
    expected = [
        ((reps[j], reps[k]), table.get(j * 4 + k, 0) / 9) for j in range(4) for k in range(4) if j != k
    ]
    assert len(out.pairs) < len(expected)  # zero-count pairs are keys too
    assert list(out.pair_frequency.items()) == expected
    assert out.pair_frequency is out.pair_frequency
    assert out == monte_carlo_abstraction(model, pi, 9, seed=8)
    assert out != monte_carlo_abstraction(model, pi, 9, seed=9)


def test_monte_carlo_pinned_values():
    # recorded on the sample_arcs stream; the sampled stream, the
    # condensation core and the tally must reproduce them bit for bit
    n = 300
    pi = PartialPartition(n, [{v} for v in range(1, 271)])
    out = monte_carlo_abstraction(GnpModel(n, 0.02), pi, 200, seed=707)
    assert out.mean == 0.04315496351369957
    assert out.stddev == 0.007338500049739845
    blocks = PartialPartition(60, [set(range(v, v + 3)) for v in range(1, 55, 3)])
    out = monte_carlo_abstraction(GnpModel(60, 0.1), blocks, 16, seed=707)
    assert out.mean == 0.8002450980392157
    assert out.stddev == 0.0467959706946429
    assert sum(out.pair_frequency.values()) == 244.875
    assert len(out.pair_frequency) == 306


def _random_blocks(rng: np.random.Generator, n: int) -> tuple[np.ndarray, int]:
    """block_of for at least two survivors of 0..n-1 in blocks of 1 to 3; -1 marks a dropped vertex."""
    kept = rng.permutation(n)[: int(rng.integers(2, n + 1))]
    block_of = np.full(n, -1, dtype=np.int64)
    m = i = 0
    while i < len(kept):
        size = int(rng.integers(1, 4))
        block_of[kept[i : i + size]] = m
        m, i = m + 1, i + size
    return block_of, m


def test_abstraction_pairs_match_the_dense_detour_fold():
    rng = np.random.default_rng(606)
    for _ in range(300):
        n = int(rng.integers(2, 81))
        adj = _kernels.sample_adjacency(n, float(rng.choice([0.0, 0.02, 0.05, 0.1, 0.3, 1.0])), rng)
        block_of, m = _random_blocks(rng, n)
        src, dst = np.nonzero(adj)
        folded = adj.copy()
        _kernels.detour_fold_inplace(folded, np.flatnonzero(block_of < 0))
        fs, fd = np.nonzero(folded)
        bj, bk = block_of[fs], block_of[fd]
        between = bj != bk
        expected = np.unique(bj[between] * m + bk[between])
        got = abstraction_pairs(src.astype(np.int64), dst.astype(np.int64), block_of, m)
        assert got.dtype == expected.dtype and np.array_equal(got, expected)


@pytest.mark.parametrize(
    "blocks",
    [
        [{v} for v in range(1, 31)],
        [{1, 2, 3}, {5}, {8, 9}, set(range(20, 26)), {33}],
        [set(range(1, 11)), set(range(11, 25))],
    ],
    ids=["singletons", "mixed", "two-blocks"],
)
def test_monte_carlo_matches_dict_lane(blocks):
    n, p, trials, seed = 40, 0.08, 6, 31
    pi = PartialPartition(n, blocks)
    m = len(pi.blocks)
    out = monte_carlo_abstraction(GnpModel(n, p), pi, trials, seed=seed)
    tally = dict.fromkeys(out.pair_frequency, 0)
    for t in range(trials):
        src, dst = sample_arcs(GnpModel(n, p), trial_rng(seed, t))
        d = Digraph.build(n, {(int(x) + 1, int(y) + 1): 1 for x, y in zip(src, dst)})
        abstraction = path_abstract(d, pi)
        # path_abstract runs the same core, so the set bypass is the independent route
        assert abstraction == contract_blocks(bypass_set(d, d.vertices - pi.support), list(pi.blocks))
        assert out.frequencies[t] == abstraction.arc_count() / (m * (m - 1))
        for arc in abstraction.arcs:
            tally[arc] += 1
    assert len(tally) == m * (m - 1)
    assert out.pair_frequency == {pair: count / trials for pair, count in tally.items()}


def test_monte_carlo_memory_follows_the_arcs():
    # one trial at n=2*10^4, c=2: the dense lane's uint8 matrix alone would
    # take n^2 = 400 MB, and its float draw 3.2 GB
    n = 20_000
    pi = PartialPartition(n, [set(range(v, v + 10)) for v in range(1, 1001, 10)])
    tracemalloc.start()
    try:
        out = monte_carlo_abstraction(GnpModel(n, 2 / n), pi, 1, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert 0.0 < out.mean <= 1.0


def test_abstraction_pairs_builds_nothing_for_a_dead_component():
    # 10^6 dropped vertices, of which only vertex 1 lies on a route, from block {0} to block {2}:
    # one empty set per dropped component would take over 200 MB
    block_of = np.full(10**6 + 2, -1, dtype=np.int64)
    block_of[[0, 2]] = [0, 1]
    src, dst = np.array([0, 1], dtype=np.int64), np.array([1, 2], dtype=np.int64)
    tracemalloc.start()
    try:
        got = abstraction_pairs(src, dst, block_of, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tolist() == [1]
    assert peak < 80 * 2**20, peak


def test_abstraction_pairs_memory_on_a_monte_carlo_draw():
    # 30,000 vertices, c=2, 300 singleton blocks: components upstream of the dropped
    # set's giant must not each hold a copy of the giant's set
    n, m = 30_000, 300
    block_of = np.full(n, -1, dtype=np.int64)
    block_of[:m] = np.arange(m)
    src, dst = sample_arcs(GnpModel(n, 2 / n), trial_rng(1, 0))
    tracemalloc.start()
    try:
        got = abstraction_pairs(src, dst, block_of, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    digest = hashlib.sha256(got.astype("<i8").tobytes()).hexdigest()
    assert len(got) == 56_445
    assert digest == "095775b2ec6c7e78dafe64d9393b96d73d65118a0b2ab5e436e5324d0a6b0224"
    assert peak < 32 * 2**20, peak


def test_abstraction_pairs_expands_each_entered_block_once():
    # 30,000 vertices, c=2, 300 blocks of 10: a block's several arcs into the dropped
    # giant must decode the giant's set once, not once per arc
    n, m = 30_000, 300
    block_of = np.full(n, -1, dtype=np.int64)
    block_of[: 10 * m] = np.arange(10 * m) // 10
    src, dst = sample_arcs(GnpModel(n, 2 / n), trial_rng(1, 0))
    tracemalloc.start()
    try:
        got = abstraction_pairs(src, dst, block_of, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(got) == m * (m - 1)  # the giant reaches every block from every block
    assert peak < 64 * 2**20, peak


def _bisect_oracle(c):
    lo, hi = 1e-12, 1.0
    target = c * math.exp(-c)
    for _ in range(300):
        mid = (lo + hi) / 2
        if mid * math.exp(-mid) < target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def test_giant_scc_fraction():
    x = _bisect_oracle(2.0)
    assert x == pytest.approx(0.4064, abs=5e-4)
    assert giant_scc_fraction(2.0) == pytest.approx((1 - x / 2.0) ** 2, abs=1e-9)
    assert giant_scc_fraction(2.0) == pytest.approx(0.635, abs=1e-3)
    assert giant_scc_fraction(1.0001) < 0.001
    with pytest.raises(RandomModelError):
        giant_scc_fraction(1.0)


def test_giant_scc_monte_carlo_small():
    emp = largest_scc_fraction_mc(400, 2.0, trials=8, seed=3)
    pred = giant_scc_fraction(2.0)
    assert abs(emp - pred) / pred < 0.12  # finite-size wobble at n=400


def test_strong_connectivity_probability():
    assert strong_connectivity_probability(100, 0.9) > 0.999999
    n = 500
    p = math.log(n) / n
    assert strong_connectivity_probability(n, p) == pytest.approx(math.exp(-2), rel=1e-12)


def test_strong_connectivity_rate():
    n = 500
    p = (math.log(n) + 2) / n
    rate = strong_connectivity_rate_mc(n, p, trials=400, seed=13)
    pred = strong_connectivity_probability(n, p)
    assert abs(rate - pred) <= 0.08


def test_renorm_grid_start_and_shape():
    rows = renormalization_grid(100, 1.01, False, 98)
    assert rows[0] == (0, pytest.approx(math.log(1.01), abs=1e-12))
    with pytest.raises(RandomModelError):
        renormalization_grid(100, 1.01, False, 100)
    logged = renormalization_grid(100, 1.03, True, 98)
    assert logged[0][1] == pytest.approx(math.log(1.03 + math.log(100)), abs=1e-12)


def test_renorm_sign_patterns():
    # without the log term the value dips below zero in a single contiguous
    # tail; with it the grid stays strictly positive through N = n-2
    for n in (100, 1000):
        for c in (1.01, 1.03):
            rows = renormalization_grid(n, c, False, n - 1)
            signs = [v > 0 for _, v in rows]
            assert signs[0]
            assert not signs[-1]  # at N = n-1 the factor n-N is 1 and q < 1
            flips = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
            assert flips == 1, f"contour not contiguous at n={n}, c={c}"
            logged = renormalization_grid(n, c, True, n - 2)
            assert all(v > 0 for _, v in logged)

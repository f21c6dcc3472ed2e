"""Closed-form statistics of abstractions of uniform random digraphs.

Bypassing one vertex of a density-p random digraph rescales the arc
probability by the survival map p |-> p^2 + (1-p^2)p; bypassing a set
composes the map once per vertex.  Contracting blocks turns per-pair arc
probabilities into 1-(1-q)^(size product).  Everything here is double
precision; an exact-rational iteration of the survival map is provided as a
cross-check oracle.

Note on reference values: the published expected-arc constants for the
bundled street-network example (25.9635 and 27.4466 at p = 0.0529) correspond
to one fewer composition of the survival map than the dropped-vertex count
(resolved against the exact-rational oracle; see ``expected_arcs``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .digraph import Digraph, scc_labels
from .pabstract import abstraction_pairs
from .partitions import PartialPartition


class RandomModelError(ValueError):
    pass


@dataclass(frozen=True)
class GnpModel:
    """Uniform random digraph: every ordered pair is an arc with probability p."""

    n: int
    p: float

    def __post_init__(self):
        if self.n < 1:
            raise RandomModelError("n must be >= 1")
        if not 0.0 <= self.p <= 1.0:
            raise RandomModelError("p must lie in [0, 1]")


def _check_prob(p: float) -> float:
    if not 0.0 <= p <= 1.0:
        raise RandomModelError(f"probability {p} outside [0, 1]")
    return float(p)


def arc_survival(p: float) -> float:
    """One bypass step: p^2 + (1 - p^2) p."""
    p = _check_prob(p)
    return p * p + (1.0 - p * p) * p


def arc_survival_iterate(p: float, count: int) -> float:
    """count-fold composition of the survival map; count 0 returns p."""
    p = _check_prob(p)
    if count < 0:
        raise RandomModelError("iteration count must be >= 0")
    for _ in range(count):
        p = arc_survival(p)
    return p


def arc_survival_iterate_exact(p: Fraction, count: int) -> Fraction:
    """Exact-rational oracle for the iterated survival map.

    Denominator bit length triples per step, so this is for desk-scale
    counts (roughly a dozen); cross-checks at larger counts should use a
    rounded high-precision evaluation instead.
    """
    x = Fraction(p)
    for _ in range(count):
        x = x * x + (1 - x * x) * x
    return x


def survival_potential(p: float) -> float:
    """log(p/(1-p)) - 1/p; strictly increasing on (0, 1)."""
    if not 0.0 < p < 1.0:
        raise RandomModelError("potential needs p strictly inside (0, 1)")
    return math.log(p / (1.0 - p)) - 1.0 / p


def survival_potential_inverse(y: float, tol: float = 1e-12) -> float:
    """Invert the potential by bisection to |value - y| <= tol."""
    lo, hi = 1e-300, 1.0 - 1e-16
    if survival_potential(lo) > y:
        return lo
    if survival_potential(hi) < y:
        return hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        value = survival_potential(mid)
        if abs(value - y) <= tol:
            return mid
        if value < y:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def approx_survival_iterate(p: float, count: float) -> float:
    """Continuum approximation of the iterated map via the potential.

    Treats the iteration count as continuous; exact at count 0 and shares
    the fixed points 0 and 1.
    """
    if not 0.0 < p < 1.0:
        raise RandomModelError("approximation needs p strictly inside (0, 1)")
    return survival_potential_inverse(count + survival_potential(p))


def abstraction_arc_probability(
    p: float, n: int, block_j_size: int, block_k_size: int, support_size: int
) -> float:
    """Arc probability between two blocks of an abstraction of a random digraph.

    Bypassing the n - support vertices rescales p; the block pair then gets
    an arc unless all size_j * size_k member pairs miss.  The composed
    survival map treats every arc as surviving independently of the others,
    which fails when the dropped set is large and sparse: there a pair is
    joined only through the dropped set's giant strong component.  For
    ``pathabs rand mc --n 100000 --p 2e-5 --drop 99000 --trials 1 --seed 1``
    this gives 1.0, while the sampled mean is 0.636, about
    ``giant_scc_fraction(2.0)``.
    """
    p = _check_prob(p)
    if block_j_size < 1 or block_k_size < 1:
        raise RandomModelError("block sizes must be >= 1")
    if not 0 <= support_size <= n:
        raise RandomModelError("support size must lie in [0, n]")
    q = arc_survival_iterate(p, n - support_size)
    return 1.0 - (1.0 - q) ** (block_j_size * block_k_size)


def expected_arcs(
    p: float,
    n: int,
    block_sizes: Sequence[int],
    survival_iterations: Optional[int] = None,
) -> float:
    """Expected arc count of the abstraction: sum over ordered block pairs.

    By default the survival map is composed once per dropped vertex
    (n - sum of block sizes).  ``survival_iterations`` overrides the count;
    the published reference constants for the street-network example are
    reproduced with one fewer composition than the drop count.  Like
    ``abstraction_arc_probability``, it assumes arcs survive the bypass
    independently; at n = 10^5 and p = 2e-5, with 99,000 vertices dropped and
    1,000 singleton blocks, it predicts every block pair (frequency 1.0) where
    the Monte Carlo mean is 0.636.
    """
    p = _check_prob(p)
    sizes = list(block_sizes)
    if any(s < 1 for s in sizes):
        raise RandomModelError("block sizes must be >= 1")
    support = sum(sizes)
    if support > n:
        raise RandomModelError("blocks cover more vertices than n")
    if survival_iterations is None:
        survival_iterations = n - support
    q = arc_survival_iterate(p, survival_iterations)
    total = 0.0
    for j, sj in enumerate(sizes):
        for k, sk in enumerate(sizes):
            if j != k:
                total += 1.0 - (1.0 - q) ** (sj * sk)
    return total


# -- sampling ---------------------------------------------------------------


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent generator per (seed, trial); serial/parallel agree."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))


def sample_arcs(model: GnpModel, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Arcs of one draw of the model as 0-based int64 arrays ``(src, dst)``.

    The arc count is Binomial(n(n-1), p), and the arcs are that many distinct
    ordered pairs chosen uniformly, which is the law of independent coin
    flips per pair (Batagelj & Brandes, Phys. Rev. E 71, 036113, 2005).  Pair
    index ``x*(n-1) + j`` is the arc from x to the j-th other vertex.  Time
    and memory are linear in the arc count when p < 1/50; denser draws
    allocate all n(n-1) pair indices.
    """
    pairs = model.n * (model.n - 1)
    idx = rng.choice(pairs, size=rng.binomial(pairs, model.p), replace=False)
    src, dst = np.divmod(idx, model.n - 1)
    dst += dst >= src
    return src, dst


def sample_gnp(model: GnpModel, seed: int) -> Digraph:
    """One realization of the model as a boolean digraph on 1..n."""
    src, dst = sample_arcs(model, trial_rng(seed, 0))
    return Digraph.build(model.n, dict.fromkeys(zip((src + 1).tolist(), (dst + 1).tolist()), 1))


@dataclass(frozen=True)
class AbstractionFrequencies:
    """Per-trial arc frequencies of sampled abstractions, plus a block-pair tally.

    ``representatives[j]`` is the smallest vertex of block j.  The tally holds
    the ids ``j*m + k`` of the ordered block pairs that some trial's
    abstraction had, ascending, in ``pairs``, and the number of trials that
    had each in ``pair_counts``; both are read-only, and their size follows
    the pairs observed, not m².  ``pair_frequency`` maps every ordered pair of
    representatives, zero-count pairs included, to ``count / trials``; it is
    built on first read and cached.  Equality compares the fields, tally
    included, and never the cache.
    """

    model: GnpModel
    trials: int
    frequencies: tuple[float, ...]
    mean: float
    stddev: float
    representatives: tuple[int, ...]
    pairs: np.ndarray
    pair_counts: np.ndarray

    def __eq__(self, other):
        if not isinstance(other, AbstractionFrequencies):
            return NotImplemented
        head = (self.model, self.trials, self.frequencies, self.mean, self.stddev, self.representatives)
        return (
            head == (other.model, other.trials, other.frequencies, other.mean, other.stddev, other.representatives)
            and np.array_equal(self.pairs, other.pairs)
            and np.array_equal(self.pair_counts, other.pair_counts)
        )

    def standard_error(self) -> float:
        return self.stddev / math.sqrt(self.trials)

    @cached_property
    def pair_frequency(self) -> dict[tuple[int, int], float]:
        """Frequency of each ordered block pair, keyed by representatives, j then k."""
        reps = self.representatives
        m = len(reps)
        table = np.zeros(m * m, dtype=np.int64)
        table[self.pairs] = self.pair_counts
        # Python ints divide to the same correctly rounded double as numpy would.
        table = table.tolist()
        return {
            (reps[j], reps[k]): table[j * m + k] / self.trials
            for j in range(m)
            for k in range(m)
            if j != k
        }


def monte_carlo_abstraction(
    model: GnpModel,
    partition: PartialPartition,
    trials: int,
    seed: int,
    workers: int = 0,
) -> AbstractionFrequencies:
    """Sample the model, path-abstract each draw, record arc frequencies.

    Each trial draws its arcs with ``sample_arcs`` and abstracts them with
    ``pabstract.abstraction_pairs``, the core ``path_abstract`` runs, so time and memory follow the arc count, not n².
    Per-trial generators depend only on (seed, trial index), so any execution
    order or worker count reproduces identical results; aggregation is by
    trial index.
    """
    if trials < 1:
        raise RandomModelError("trials must be >= 1")
    if partition.n != model.n:
        raise RandomModelError("partition ground set must match the model")
    m = len(partition.blocks)
    if m < 2:
        raise RandomModelError("need at least two blocks for arc frequencies")
    block_of = np.full(model.n, -1, dtype=np.int64)
    for j, block in enumerate(partition.blocks):
        block_of[[v - 1 for v in block]] = j

    def one_trial(t: int) -> tuple[float, np.ndarray]:
        """Frequency and sorted block-pair ids j*m + k of one abstraction."""
        pairs = abstraction_pairs(*sample_arcs(model, trial_rng(seed, t)), block_of, m)
        return len(pairs) / (m * (m - 1)), pairs

    if workers and workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(one_trial, range(trials)))
    else:
        results = [one_trial(t) for t in range(trials)]

    freqs = tuple(r[0] for r in results)
    pairs, counts = np.unique(np.concatenate([r[1] for r in results]), return_counts=True)
    pairs.flags.writeable = counts.flags.writeable = False
    mean = float(np.mean(freqs))
    std = float(np.std(freqs, ddof=1)) if trials > 1 else 0.0
    reps = tuple(min(b) for b in partition.blocks)
    return AbstractionFrequencies(model, trials, freqs, mean, std, reps, pairs, counts)


# -- giant component and renormalization ------------------------------------


def giant_scc_fraction(c: float) -> float:
    """Fractional size of the unique linear-size strong component at density c/n.

    Solves x e^-x = c e^-c for x in (0, 1) by bisection, returns (1 - x/c)^2.
    """
    if not c > 1.0:
        raise RandomModelError("the giant strong component needs c > 1")
    target = c * math.exp(-c)
    lo, hi = 1e-300, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * math.exp(-mid) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12:
            break
    x = 0.5 * (lo + hi)
    return (1.0 - x / c) ** 2


def strong_connectivity_probability(n: int, p: float) -> float:
    """Limit formula exp(-2 e^-(pn - log n)) evaluated at finite n."""
    if n < 1:
        raise RandomModelError("n must be >= 1")
    p = _check_prob(p)
    return math.exp(-2.0 * math.exp(-(p * n - math.log(n))))


def renormalization_grid(
    n: int, c: float, add_log_n: bool, n_max: int
) -> list[tuple[int, float]]:
    """Rows (N, log((n-N) * iterated survival of the starting density)).

    The starting density is c/n, or (c + log n)/n with the log term.  Requires
    n_max < n so the factor n - N stays positive.
    """
    if not 0 <= n_max < n:
        raise RandomModelError("need 0 <= n_max < n")
    p0 = (c + (math.log(n) if add_log_n else 0.0)) / n
    if not 0.0 < p0 < 1.0:
        raise RandomModelError("starting density outside (0, 1)")
    rows = []
    q = p0
    for N in range(n_max + 1):
        rows.append((N, math.log((n - N) * q)))
        q = arc_survival(q)
    return rows


def largest_scc_fraction_mc(n: int, c: float, trials: int, seed: int) -> float:
    """Monte Carlo mean of the largest strong-component fraction at density c/n."""
    if n < 1:
        raise RandomModelError("n must be >= 1")
    model = GnpModel(n, c / n)
    total = 0.0
    for labels in _scc_labels_per_trial(model, trials, seed):
        total += int(np.bincount(labels).max()) / n
    return total / trials


def strong_connectivity_rate_mc(n: int, p: float, trials: int, seed: int) -> float:
    """Monte Carlo strong-connectivity rate of the model."""
    model = GnpModel(n, p)
    hits = sum(int(labels.max()) == 0 for labels in _scc_labels_per_trial(model, trials, seed))
    return hits / trials


def _scc_labels_per_trial(model: GnpModel, trials: int, seed: int):
    """Strong-component labels of each trial's draw, one trial at a time."""
    if trials < 1:
        raise RandomModelError("trials must be >= 1")
    for t in range(trials):
        yield scc_labels(model.n, *sample_arcs(model, trial_rng(seed, t)))

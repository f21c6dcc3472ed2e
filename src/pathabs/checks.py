"""Headless property suites behind the `check` subcommand.

Each suite draws seeded random instances and verifies a structural law; one
PASS/FAIL line per suite.  Counts are sized to finish in seconds; the pytest
acceptance suite runs the full-scale versions.
"""

from __future__ import annotations

import random as _stdrandom
import sys

import numpy as np

from . import _kernels
from .digraph import (
    Digraph,
    DigraphError,
    classify_vertex,
    contract_blocks,
    delete_vertices,
    enumerate_paths,
    is_acyclic,
    reachability,
    strongly_connected_components,
    transitive_reduction_dag,
)
from .pabstract import (
    abstraction_pairs,
    bypass_set,
    detour,
    detour_set,
    is_walk_of,
    path_abstract,
    project_path,
)
from .partitions import (
    PartialPartition,
    all_partial_partitions,
    all_partitions,
    canonicalize,
    complete_partial,
    drop_element,
    refines,
)
from .semirings import BOOLEAN, COUNTING, REGISTRY, check_semiring_laws
from .temporal import DTCN, build_temporal_digraph, dtcn_contract, dtcn_detour, dtcn_path_abstract, sample_dtcn
from .weighted import detours_commute, double_detour, weighted_contract_commutes


class CheckFailure(AssertionError):
    pass


def _require(condition: bool, detail: str):
    if not condition:
        raise CheckFailure(detail)


_ARC_VALUES = {
    "boolean": lambda rng: 1,
    "counting": lambda rng: rng.randint(1, 3),
    "real": lambda rng: float(rng.choice((-2, -1, 1, 2, 3))),
    "minplus-nonneg": lambda rng: float(rng.randint(0, 5)),
}


def _random_digraph(rng: _stdrandom.Random, n: int, p: float, semiring=BOOLEAN) -> Digraph:
    """Each ordered pair of 1..n is an arc with probability p; its value is small and
    exact, and signed on the reals so that sums can cancel."""
    draw = _ARC_VALUES[semiring.name]
    arcs = {}
    for x in range(1, n + 1):
        for y in range(1, n + 1):
            if x != y and rng.random() < p:
                arcs[(x, y)] = draw(rng)
    return Digraph.build(n, arcs, semiring)


def check_laws(seed: int):
    for name, spec in sorted(REGISTRY.items()):
        report = check_semiring_laws(spec, 200, seed)
        _require(report.all_pass, f"semiring {name} fails laws: {report}")


def check_contraction_order(seed: int):
    rng = _stdrandom.Random(seed)
    for _ in range(150):
        n = rng.randint(4, 8)
        d = _random_digraph(rng, n, 0.4)
        vs = rng.sample(range(1, n + 1), 4)
        b1, b2 = set(vs[:2]), set(vs[2:])
        one = contract_blocks(contract_blocks(d, [b1]), [b2])
        both = contract_blocks(d, [b1, b2])
        _require(one == both, f"contraction order changed the result on {d}")


def check_classification(seed: int):
    rng = _stdrandom.Random(seed)
    for _ in range(200):
        d = _random_digraph(rng, rng.randint(1, 10), rng.random())
        for v in d.vertices:
            nc = classify_vertex(d, v)
            parts = [nc.minus, nc.plusminus, nc.plus, nc.zero]
            union = frozenset().union(*parts) | {v}
            _require(union == d.vertices, "classification misses vertices")
            total = sum(len(p) for p in parts)
            _require(total == len(d.vertices) - 1, "classification overlaps")


def check_transitive_reduction(seed: int):
    rng = _stdrandom.Random(seed)
    for _ in range(100):
        d = _random_dag(rng, rng.randint(2, 9), 0.4)
        r = transitive_reduction_dag(d)
        _require(reachability(d) == reachability(r), "reduction changed reachability")


def _random_dag(rng: _stdrandom.Random, n: int, p: float) -> Digraph:
    order = list(range(1, n + 1))
    rng.shuffle(order)
    arcs = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                arcs[(order[i], order[j])] = 1
    return Digraph.build(n, arcs)


def check_detour_commutation(seed: int):
    rng = _stdrandom.Random(seed)
    for _ in range(150):
        n = rng.randint(3, 8)
        d = _random_digraph(rng, n, 0.35)
        v, w = rng.sample(range(1, n + 1), 2)
        _require(
            detour(detour(d, v), w) == detour(detour(d, w), v),
            f"boolean detours at {v},{w} failed to commute",
        )


def check_set_bypass(seed: int):
    """The one-pass ``detour_set`` against the per-vertex ``detour`` fold it replaces."""
    rng = _stdrandom.Random(seed)
    for _ in range(150):
        n = rng.randint(2, 9)
        d = _random_digraph(rng, n, 0.35)
        cycle = rng.sample(range(1, n + 1), rng.randint(2, n))
        d = d.with_arcs({**d.arcs, **{(x, y): 1 for x, y in zip(cycle, cycle[1:] + cycle[:1])}})
        drop = rng.sample(range(1, n + 1), rng.randint(0, n))
        fold = d
        for v in drop:
            fold = detour(fold, v)
        _require(detour_set(d, drop) == fold, f"one-pass detour_set at {drop} differs on {d}")


def check_detour_contract_commutation(seed: int):
    rng = _stdrandom.Random(seed)
    for case in range(150):
        n = rng.randint(3, 8)
        d = _random_digraph(rng, n, 0.35, (BOOLEAN, COUNTING)[case % 2])
        u, v, w = rng.sample(range(1, n + 1), 3)
        _require(weighted_contract_commutes(d, u, v, w), f"detour/contract at {u},{{{v},{w}}} disagree on {d}")


def check_weighted_predicate(seed: int):
    rng = _stdrandom.Random(seed)
    for _ in range(150):
        n = rng.randint(3, 6)
        d = _random_digraph(rng, n, 0.4, COUNTING)
        v, w = rng.sample(range(1, n + 1), 2)
        report = detours_commute(d, v, w)
        direct = double_detour(d, v, w) == double_detour(d, w, v)
        _require(report.commute == direct, f"commutation predicate wrong at {v},{w} on {d}")


def check_galois(seed: int):
    del seed  # exhaustive
    n = 4
    partials = list(all_partial_partitions(n))
    fulls = list(all_partitions(n + 1))
    for sigma in partials:
        completed = complete_partial(sigma)
        for tau in fulls:
            _require(
                refines(sigma, drop_element(tau)) == refines(completed, tau),
                f"adjunction fails at {sigma} vs {tau}",
            )


def check_canonical_idempotent(seed: int):
    rng = _stdrandom.Random(seed)
    from .partitions import Coloring

    for _ in range(300):
        n = rng.randint(1, 9)
        c = Coloring([rng.randint(0, 6) for _ in range(n)])
        once = canonicalize(c)
        _require(canonicalize(once) == once, "canonical form not idempotent")


def check_path_projection(seed: int):
    rng = _stdrandom.Random(seed)
    for _ in range(60):
        n = rng.randint(3, 7)
        d = _random_dag(rng, n, 0.45)
        drop = frozenset(rng.sample(range(1, n + 1), rng.randint(1, n - 1)))
        keep = d.vertices - drop
        if not keep:
            continue
        b = bypass_set(d, drop)
        full = enumerate_paths(d, d.vertices, d.vertices)
        for path in full.paths:
            image = project_path(path, drop)
            if len(image) >= 2:
                _require(is_walk_of(b, image), f"projected {path} not a walk of the bypass")


def check_kernels_agree(seed: int):
    rng = np.random.default_rng(seed)
    for _ in range(100):
        n = int(rng.integers(2, 10))
        a = _kernels.sample_adjacency(n, float(rng.random()), rng)
        k = int(rng.integers(1, n + 1))
        drop = rng.choice(n, size=k, replace=False)
        keep1, b1 = _kernels.bypass_dense(a, drop)
        keep2, b2 = _kernels.bypass_closure(a, drop)
        _require((keep1 == keep2).all() and (b1 == b2).all(), "dense fold disagrees with the closure")


def check_mc_core_closure(seed: int):
    """The Monte Carlo core's block pairs against a closure bypass followed by ``contract_blocks``.

    Cases cycle through an empty drop set, exactly two survivors and a random
    split; every other case plants a cycle through the dropped set, and the
    density runs over 0, 1 and values between.
    """
    rng = np.random.default_rng(seed)
    for case in range(150):
        n = int(rng.integers(2, 13))
        a = (rng.random((n, n)) < float(rng.choice((0.0, 0.15, 0.35, 1.0)))).astype(np.uint8)
        order = rng.permutation(n)
        kept, drop = np.split(order, [(n, 2, int(rng.integers(2, n + 1)))[case % 3]])
        if case % 2 and len(drop) > 1:
            a[drop, np.roll(drop, 1)] = 1
        np.fill_diagonal(a, 0)
        sizes = np.cumsum(rng.integers(1, 4, size=len(kept)))
        blocks = np.split(kept, sizes[sizes < len(kept)])
        block_of = np.full(n, -1, dtype=np.int64)
        for j, b in enumerate(blocks):
            block_of[b] = j
        m = len(blocks)
        src, dst = np.nonzero(a)
        got = abstraction_pairs(src.astype(np.int64), dst.astype(np.int64), block_of, m).tolist()
        keep, sub = _kernels.bypass_closure(a, drop)
        arcs = {(int(keep[x]) + 1, int(keep[y]) + 1): 1 for x, y in zip(*np.nonzero(sub))}
        members = [{int(v) + 1 for v in b} for b in blocks]
        contracted = contract_blocks(Digraph(frozenset(int(v) + 1 for v in keep), arcs), members)
        index = {min(b): j for j, b in enumerate(members)}
        expected = sorted(index[x] * m + index[y] for x, y in contracted.arcs)
        _require(got == expected, f"core pairs {got} differ from the closure's {expected} on {a.tolist()}")


def check_path_abstract_routes(seed: int):
    """``path_abstract`` against bypass-then-contract and contract-then-bypass, on every semiring.

    Bypasses and disjoint contractions commute, so all three must agree,
    ``merged`` included, or refuse with the same message; only where a cycle
    among the bypassed vertices brings stars 1/(1 - a) on the reals may the two
    orders differ, by rounding (``_close_arcs``).  Contracting first can clear a
    route that bypassing first refuses: it can cancel the route's sum (on the
    reals) or merge the survivors at its two ends into one block.  Digraphs
    carry a planted cycle, every other one has a merged block, and vertices
    are deleted so the ids have gaps; the partition's ground set may run past
    the largest vertex.
    """
    rng = _stdrandom.Random(seed)
    for s in REGISTRY.values():
        for case in range(150):
            n = rng.randint(2, 10)
            d = _random_digraph(rng, n, rng.choice((0.1, 0.25, 0.5)), s)
            cycle = rng.sample(range(1, n + 1), rng.randint(2, n))
            planted = {(x, y): _ARC_VALUES[s.name](rng) for x, y in zip(cycle, cycle[1:] + cycle[:1])}
            d = d.with_arcs({**d.arcs, **planted})
            if case % 2 and n >= 4:
                d = contract_blocks(d, [rng.sample(range(1, n + 1), rng.randint(2, 3))])
            d = delete_vertices(d, rng.sample(sorted(d.vertices), rng.randint(0, d.n - 1)))
            kept = rng.sample(sorted(d.vertices), rng.randint(0, d.n))
            cuts = sorted(rng.sample(range(1, len(kept)), rng.randint(0, max(0, len(kept) - 1))))
            blocks = [set(kept[i:j]) for i, j in zip([0] + cuts, cuts + [len(kept)]) if i < j]
            outside = d.vertices - set(kept)
            p = PartialPartition(max(d.vertices) + rng.randint(0, 2), blocks)
            got, first_bypass, first_contract = map(_or_refusal, (
                lambda: path_abstract(d, p),
                lambda: contract_blocks(bypass_set(d, outside), blocks),
                lambda: bypass_set(contract_blocks(d, blocks), outside),
            ))
            where = f"{s.name} blocks {blocks} of {d.arcs} (merged {d.merged})"
            cancelled = isinstance(first_bypass, str) and isinstance(got, Digraph)
            if s.name == "real" and isinstance(got, Digraph) and isinstance(first_bypass, Digraph):
                if not is_acyclic(delete_vertices(d, kept)) and _close_arcs(got.arcs, first_bypass.arcs):
                    first_bypass = first_bypass.with_arcs(got.arcs)  # the orders round their stars apart
            _require(got == first_contract, f"path_abstract differs from contract first on {where}")
            _require(got == first_bypass or cancelled, f"path_abstract differs from bypass first on {where}")


def _close_arcs(a: dict, b: dict) -> bool:
    """Real arc maps equal to 1e-9 relative to their largest value, or 1; an absent arc reads 0."""
    scale = max(map(abs, [1.0, *a.values(), *b.values()]))
    return all(abs(a.get(k, 0.0) - b.get(k, 0.0)) <= 1e-9 * scale for k in a.keys() | b.keys())


def _or_refusal(route):
    """A route's digraph, or its ``DigraphError`` message."""
    try:
        return route()
    except DigraphError as exc:
        return str(exc)


def check_temporal_sizes(seed: int):
    for t in range(100):
        d = sample_dtcn(6, 0.25, "uniform", seed + t, max_retries=5)
        tg = build_temporal_digraph(d)
        fiber_total = tg.vertex_count
        _require(fiber_total <= 2 * d.n + 2 * len(d.contacts), "layer count bound broken")
        _require(
            tg.arc_count == fiber_total - d.n + len(d.contacts),
            "layered arc-count identity broken",
        )


def check_temporal_commutation(seed: int):
    """Detour then contract equals contract then detour, and the one-pass path abstraction
    whose blocks are the block and a singleton per other survivor equals both."""
    rng = _stdrandom.Random(seed)
    for t in range(50):
        d = sample_dtcn(7, 0.2, "uniform", seed + t, max_retries=5)
        vs = rng.sample(sorted(d.vertices), 4)
        drop, block = {vs[0], vs[1]}, {vs[2], vs[3]}
        left = dtcn_contract(dtcn_detour(d, drop), [block])
        right = dtcn_detour(dtcn_contract(d, [block]), drop)
        _require(left == right, "temporal detour/contract do not commute")
        singletons = [{v} for v in d.vertices - drop - block]
        one_pass = dtcn_path_abstract(d, PartialPartition(d.n, [block, *singletons]))
        _require(one_pass == left, "the one-pass temporal path abstraction differs from detour/contract")


def layered_detour_oracle(d: DTCN, drop) -> set[tuple[int, int, float]]:
    """Bypass drop's layers in the layered digraph with the digraph set bypass;
    read each cross-vertex arc back as (x, y, later time)."""
    tg = build_temporal_digraph(d)
    graph, index = tg.to_digraph()
    dropped = [i for (v, _), i in index.items() if v in drop]
    triples = set()
    for a, b in bypass_set(graph, dropped).arcs:
        (x, t1), (y, t2) = tg.layers[a - 1], tg.layers[b - 1]
        if x != y:
            triples.add((x, y, max(t1, t2)))
    return triples


def equal_time_network(rng: _stdrandom.Random, n: int) -> tuple[DTCN, frozenset[int]]:
    """Contacts mostly on the grid 0, 0.5, 1 and a drop set of 1..n-1 vertices.

    With two or more dropped vertices, two or three instants of the grid each
    get a chain or a cycle of two to four dropped vertices.  A chain is entered
    at its first vertex and left from its last, a cycle entered at its second
    and left from its first, so only a walk around it at that instant joins
    the two; ids mostly ascend along either, so rows sorted by source come
    against its direction.
    """
    grid = (0.0, 0.5, 1.0)
    drop = rng.sample(range(1, n + 1), rng.randint(1, n - 1))
    kept = sorted(set(range(1, n + 1)) - set(drop))
    triples = {
        (x, y, rng.choice(grid) if rng.random() < 0.7 else rng.random())
        for x in range(1, n + 1)
        for y in range(1, n + 1)
        if x != y and rng.random() < 0.25
    }
    if len(drop) > 1:
        for tau in rng.sample(grid, rng.randint(2, 3)):
            walk = sorted(rng.sample(drop, min(len(drop), rng.randint(2, 4))), reverse=rng.random() < 0.25)
            if rng.random() < 0.5:
                walk = [*walk[1:], walk[0]]
                triples.add((walk[-1], walk[0], tau))
            triples |= {(a, b, tau) for a, b in zip(walk, walk[1:])}
            triples |= {(rng.choice(kept), walk[0], tau), (walk[-1], rng.choice(kept), tau)}
    return DTCN.build(n, triples), frozenset(drop)


def check_temporal_layered_oracle(seed: int):
    """The detour against the layered bypass, with equal-time chains and cycles."""
    rng = _stdrandom.Random(seed)
    for _ in range(150):
        d, drop = equal_time_network(rng, rng.randint(3, 8))
        got = {(c.source, c.target, c.time) for c in dtcn_detour(d, drop).contacts}
        expected = layered_detour_oracle(d, drop)
        _require(
            got == expected,
            f"detour of {sorted(drop)} from {d.triples()} differs from the layered bypass on {sorted(got ^ expected)}",
        )


def check_scc_acyclic(seed: int):
    rng = _stdrandom.Random(seed)
    for _ in range(100):
        d = _random_digraph(rng, rng.randint(1, 9), 0.3)
        comps = strongly_connected_components(d)
        union = frozenset().union(*comps) if comps else frozenset()
        _require(union == d.vertices, "component union misses vertices")
        _require(is_acyclic(d) == all(len(c) == 1 for c in comps), "acyclicity mismatch")
        drop = set(rng.sample(sorted(d.vertices), min(2, len(d.vertices))))
        if is_acyclic(d):
            _require(is_acyclic(detour_set(d, drop)), "detour broke acyclicity")


def check_scc_reachability(seed: int):
    """Strong components against mutual reachability, on vertex ids with gaps.

    The two 600-vertex draws are above ``scc_labels``' crossover: the sparser
    one reaches its trimming, the denser its forward-backward search too."""
    rng = _stdrandom.Random(seed)
    for _ in range(150):
        n = rng.randint(1, 12)
        d = _random_digraph(rng, n, rng.choice((0.1, 0.25, 0.5, 1.0)))
        _require_mutual_reach(delete_vertices(d, rng.sample(range(1, n + 1), rng.randint(0, n - 1))))
    for c in (1.5, 3.0):
        d = _random_digraph(rng, 600, c / 600)
        _require_mutual_reach(delete_vertices(d, rng.sample(range(1, 601), 30)))


def _require_mutual_reach(d: Digraph):
    reach = reachability(d)
    expected, placed = [], set()
    for v in sorted(d.vertices):
        if v not in placed:
            comp = frozenset({v} | {w for w in reach[v] if v in reach[w]})
            expected.append(comp)
            placed |= comp
    _require(strongly_connected_components(d) == expected, f"components differ from mutual reach on {d}")


SUITES = [
    ("semiring-laws", check_laws),
    ("contraction-order", check_contraction_order),
    ("vertex-classification", check_classification),
    ("scc-acyclicity", check_scc_acyclic),
    ("scc-reachability", check_scc_reachability),
    ("transitive-reduction", check_transitive_reduction),
    ("detour-commutation", check_detour_commutation),
    ("set-bypass", check_set_bypass),
    ("detour-contract-commutation", check_detour_contract_commutation),
    ("weighted-commutation-predicate", check_weighted_predicate),
    ("partition-adjunction", check_galois),
    ("canonical-idempotence", check_canonical_idempotent),
    ("path-projection", check_path_projection),
    ("dense-fold-closure", check_kernels_agree),
    ("mc-core-closure", check_mc_core_closure),
    ("path-abstract-routes", check_path_abstract_routes),
    ("temporal-size-identities", check_temporal_sizes),
    ("temporal-commutation", check_temporal_commutation),
    ("temporal-layered-oracle", check_temporal_layered_oracle),
]


def run_checks(seed: int = 0, out=sys.stdout) -> list[str]:
    failures = []
    for name, suite in SUITES:
        try:
            suite(seed)
        except CheckFailure as exc:
            failures.append(name)
            print(f"FAIL {name}: {exc}", file=out)
        else:
            print(f"PASS {name}", file=out)
    return failures

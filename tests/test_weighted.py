import re
from itertools import permutations

import pytest

from pathabs import (
    COUNTING,
    REAL,
    Digraph,
    DigraphError,
    detour,
    detour_set,
    detours_commute,
    double_detour,
    induced_subgraph,
    is_acyclic,
    strongly_connected_components,
    weighted_contract_commutes,
)
from pathabs.checks import _close_arcs
from pathabs.semirings import REGISTRY
from pathabs.weighted import double_detour_entry

from conftest import cycles_between_survivors, detour_fold, random_dag, random_digraph, random_multigraph, route_sums, schur_complement

# counting-semiring multigraph: 1->2, 1->4, a double arc 3->1, 4->1
MULTI = Digraph.build(4, {(1, 2): 1, (1, 4): 1, (3, 1): 2, (4, 1): 1}, COUNTING)


def test_single_detours():
    assert detour(MULTI, 1).arcs == {(3, 2): 2, (3, 4): 2, (4, 2): 1}
    assert detour(MULTI, 4).arcs == {(1, 2): 1, (3, 1): 2}
    isolated = Digraph.build(3, {(1, 2): 5}, COUNTING)
    assert detour(isolated, 3) == isolated


def test_double_detour_orders_differ():
    assert double_detour(MULTI, 1, 4).arcs == {(3, 2): 4}
    assert double_detour(MULTI, 4, 1).arcs == {(3, 2): 2}
    with pytest.raises(DigraphError):
        double_detour(MULTI, 2, 2)


def test_commutation_report():
    report = detours_commute(MULTI, 1, 4)
    assert not report.commute
    assert report.witness == (3, 2)
    # no 2-cycle between the pair: always commutes
    no_cycle = Digraph.build(3, {(1, 2): 1, (2, 3): 4}, COUNTING)
    assert detours_commute(no_cycle, 1, 3).commute


def test_boolean_digraphs_always_commute(rng):
    for _ in range(200):
        n = rng.randint(2, 7)
        d = random_digraph(rng, n, 0.45)
        v, w = rng.sample(range(1, n + 1), 2)
        assert detours_commute(d, v, w).commute
        assert double_detour(d, v, w) == double_detour(d, w, v)


def test_predicate_matches_direct_comparison(rng):
    disagree = 0
    for _ in range(400):
        n = rng.randint(3, 6)
        d = random_multigraph(rng, n, 0.45)
        v, w = rng.sample(range(1, n + 1), 2)
        report = detours_commute(d, v, w)
        direct = double_detour(d, v, w) == double_detour(d, w, v)
        assert report.commute == direct
        if not report.commute:
            disagree += 1
            x, y = report.witness
            assert double_detour(d, v, w).value(x, y) != double_detour(d, w, v).value(x, y)
    assert disagree > 5


def test_six_term_expansion_matches_entries(rng):
    for _ in range(200):
        n = rng.randint(4, 6)
        d = random_multigraph(rng, n, 0.5)
        v, w = rng.sample(range(1, n + 1), 2)
        dd = double_detour(d, v, w)
        for x in sorted(d.vertices - {v, w}):
            for y in sorted(d.vertices - {v, w}):
                if x == y:
                    continue
                assert dd.value(x, y) == double_detour_entry(d, v, w, x, y)
        # rows and columns of the detoured pair are empty
        assert all(k[0] not in (v, w) and k[1] not in (v, w) for k in dd.arcs)


def test_acyclic_double_detours_commute(rng):
    for _ in range(200):
        n = rng.randint(3, 7)
        d = random_dag(rng, n, 0.5)
        weighted = Digraph.build(
            n, {k: rng.randint(1, 3) for k in d.arcs}, COUNTING
        )
        v, w = rng.sample(range(1, n + 1), 2)
        assert double_detour(weighted, v, w) == double_detour(weighted, w, v)


def _has_two_cycle(d):
    return any((y, x) in d.arcs for (x, y) in d.arcs)


def _has_three_cycle_through(d, v):
    for x in d.vertices - {v}:
        for y in d.vertices - {v, x}:
            if (v, x) in d.arcs and (x, y) in d.arcs and (y, v) in d.arcs:
                return True
    return False


def test_detour_adds_no_two_cycles_without_short_cycles(rng):
    checked = 0
    for _ in range(600):
        n = rng.randint(3, 6)
        d = random_multigraph(rng, n, 0.3)
        if _has_two_cycle(d):
            continue
        v = rng.randint(1, n)
        if _has_three_cycle_through(d, v):
            continue
        checked += 1
        assert not _has_two_cycle(detour(d, v))
    assert checked > 50


def test_boolean_specialization():
    # a hand-built boolean arc may hold any nonzero value; its sum or product with one is one
    chain = Digraph(frozenset({1, 2, 3}), {(1, 2): 2, (2, 3): 1})
    triangle = Digraph(frozenset({1, 2, 3}), {(1, 2): 1, (2, 3): 1, (1, 3): 2})
    for d in (chain, triangle):
        assert detour(d, 2).arcs == {(1, 3): 1}
    assert double_detour_entry(Digraph(frozenset({1, 2, 3, 4}), chain.arcs), 2, 4, 1, 3) == 1


def test_contract_commutes(rng):
    assert weighted_contract_commutes(MULTI, 1, 2, 3)
    isolated = Digraph.build(4, {(1, 2): 2}, COUNTING)
    assert weighted_contract_commutes(isolated, 1, 3, 4)
    for _ in range(1000):
        n = rng.randint(3, 7)
        d = random_multigraph(rng, n, 0.4)
        u, v, w = rng.sample(range(1, n + 1), 3)
        assert weighted_contract_commutes(d, u, v, w)
    with pytest.raises(DigraphError):
        weighted_contract_commutes(MULTI, 1, 1, 2)


def test_minplus_detour_relaxes_paths():
    from pathabs import MINPLUS_NONNEG

    d = Digraph.build(3, {(1, 2): 1.5, (2, 3): 2.0, (1, 3): 5.0}, MINPLUS_NONNEG)
    out = detour(d, 2)
    assert out.arcs == {(1, 3): 3.5}
    # zero-weight arcs are genuine carrier values here, not absence
    zero = Digraph.build(3, {(1, 2): 0.0, (2, 3): 0.0}, MINPLUS_NONNEG)
    assert detour(zero, 2).arcs == {(1, 3): 0.0}
    assert detours_commute(d, 1, 3).commute


def test_detour_set_guard():
    # acyclic: folds freely
    chain = Digraph.build(4, {(1, 2): 2, (2, 3): 1, (3, 4): 3}, COUNTING)
    assert is_acyclic(chain)
    out = detour_set(chain, {2, 3})
    assert out.arcs == {(1, 4): 6}
    # the noncommuting multigraph is cyclic; the online check refuses the fold
    with pytest.raises(DigraphError):
        detour_set(MULTI, {1, 4})
    # a cyclic input whose consecutive detours do commute is allowed
    ring = Digraph.build(4, {(1, 2): 1, (2, 1): 1, (3, 1): 2, (1, 4): 1}, COUNTING)
    report = detours_commute(ring, 3, 4)
    assert report.commute
    detour_set(ring, {3, 4})


# The fold order matters here: (1, 2, 3) gives 4 -> 5 the value 20, (2, 3, 1) gives 15.
ORDER_DEPENDENT = Digraph.build(
    5,
    {(1, 3): 1, (1, 5): 2, (2, 3): 2, (3, 1): 1, (3, 5): 1, (4, 1): 3,
     (4, 3): 1, (4, 5): 2, (5, 1): 3, (5, 2): 1, (5, 4): 2},
    COUNTING,
)


def test_detour_set_refuses_an_order_dependent_fold():
    folds = {detour_fold(ORDER_DEPENDENT, order).value(4, 5) for order in permutations((1, 2, 3))}
    assert folds == {20, 15}
    with pytest.raises(DigraphError, match=re.escape("{1, 3}")):
        detour_set(ORDER_DEPENDENT, {1, 2, 3})
    # the cycle {3, 4} is entered and left only through the dropped 2 and 5
    d = Digraph.build(6, {(1, 2): 1, (2, 3): 1, (3, 4): 1, (4, 3): 1, (3, 5): 1, (5, 6): 1}, COUNTING)
    assert {detour_fold(d, order).value(1, 6) for order in permutations((2, 3, 4, 5))} == {1, 2}
    with pytest.raises(DigraphError, match=re.escape("{3, 4}")):
        detour_set(d, {2, 3, 4, 5})


def test_detour_set_real_cancellation_drops_the_arc():
    d = Digraph.build(5, {(1, 2): 1.0, (2, 4): 1.0, (1, 3): 1.0, (3, 4): -1.0, (4, 5): 2.0}, REAL)
    # 1 -> 4 sums to zero after detouring 2 and 3, so detouring 4 links nothing
    assert detour_set(d, {2, 3}).arcs == {(4, 5): 2.0}
    assert detour_set(d, {2, 3, 4}).arcs == {}


def _through_dropped(d, dropped, starts, forward):
    """Dropped vertices reached from ``starts`` along arcs inside ``dropped``."""
    seen, stack = set(starts), list(starts)
    while stack:
        v = stack.pop()
        for x, y in d.arcs:
            a, b = (x, y) if forward else (y, x)
            if a == v and b in dropped and b not in seen:
                seen.add(b)
                stack.append(b)
    return seen


def test_detour_set_matches_every_order_and_the_route_sums(rng):
    values = {
        "boolean": lambda: 1,
        "counting": lambda: rng.randint(1, 3),
        "real": lambda: float(rng.choice((-2, -1, 1, 2, 3))),
        "minplus-nonneg": lambda: float(rng.randint(0, 5)),
    }
    for name, s in REGISTRY.items():
        accepted = refused = cancelled = valued = 0
        for _ in range(300):
            n = rng.randint(3, 7)
            p = rng.choice((0.2, 0.35, 0.5))
            arcs = {(x, y): values[name]() for x in range(1, n + 1) for y in range(1, n + 1)
                    if x != y and rng.random() < p}
            d = Digraph.build(n, arcs, s)
            dropped = frozenset(rng.sample(range(1, n + 1), rng.randint(2, min(4, n))))
            try:
                out = detour_set(d, dropped)
            except DigraphError as error:
                refused += 1
                assert s.add(s.one, s.one) != s.one
                witness = frozenset(map(int, re.search(r"\{([\d, ]+)\}", str(error)).group(1).split(", ")))
                assert len(witness) > 1
                assert witness in strongly_connected_components(induced_subgraph(d, dropped))
                survivors = d.vertices - dropped
                entries = {y for x, y in d.arcs if x in survivors and y in dropped}
                exits = {x for x, y in d.arcs if x in dropped and y in survivors}
                assert witness & _through_dropped(d, dropped, entries, True)
                assert witness & _through_dropped(d, dropped, exits, False)
                continue
            accepted += 1
            if name == "real" and cycles_between_survivors(d, dropped):
                # walks between distinct survivors circle a dropped cycle: the loopless folds disagree
                valued += 1
                cond, sums = schur_complement(d, dropped)
                assert sums is None or _close_arcs(out.arcs, sums), cond
                continue
            exact = {key: (type(value), repr(value)) for key, value in out.arcs.items()}
            ascending = detour_fold(d, sorted(dropped))
            assert exact == {key: (type(value), repr(value)) for key, value in ascending.arcs.items()}
            for order in permutations(dropped):
                assert detour_fold(d, order) == out
            sums = route_sums(d, dropped)
            kept = {key: s.normalize(value) for key, value in sums.items()}
            cancelled += sum(value is None for value in kept.values())
            assert out.arcs == {key: value for key, value in kept.items() if value is not None}
        assert accepted > 100
        if name == "real":
            assert cancelled > 0
        if name == "counting":
            assert refused > 10
        if name == "real":  # walk sums through a dropped cycle, and singular pivots
            assert valued > 20 and refused > 0

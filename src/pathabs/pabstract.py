"""Detours, bypasses, path projection, and path abstraction (boolean digraphs).

The detour at v deletes every arc touching v and inserts an arc from each
predecessor of v to each distinct successor, leaving v isolated; the bypass
additionally deletes v.  Paths between surviving vertices are preserved, and
the projection that deletes bypassed vertices from path words lands exactly on
the paths of the bypassed digraph.

Deleted vertices never cause renumbering: survivors keep their ids.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .digraph import (
    Digraph,
    classify_vertex,
    contract_blocks,
    delete_vertices,
)
from .partitions import PartialPartition, PartitionError


def detour(d: Digraph, v: int) -> Digraph:
    """Rewire around v: predecessors connect straight to successors.

    v stays in the digraph as an isolated vertex.  Idempotent.
    """
    d.require_boolean()
    d.require_vertex(v)
    nc = classify_vertex(d, v)
    arcs = {key: val for key, val in d.arcs.items() if key[0] != v and key[1] != v}
    one = d.semiring.one
    for x in nc.predecessors:
        for y in nc.successors:
            if x != y:
                arcs[(x, y)] = one
    return Digraph(d.vertices, arcs, d.semiring, dict(d.merged))


def bypass(d: Digraph, v: int) -> Digraph:
    """Detour at v, then delete v."""
    return delete_vertices(detour(d, v), [v])


def _fold_detours(
    d: Digraph, vertices: Iterable[int], debug_check_order: bool
) -> tuple[list[int], dict[tuple[int, int], object]]:
    """The dropped vertices, ascending, and the arcs after detouring at each in turn.

    Successor and predecessor sets are built once and rewired in place: the
    detour at v unlinks v from its neighbours, then links every predecessor
    to every distinct successor, exactly as ``detour`` does.  As there, an arc
    a detour inserts carries the semiring's one and every other arc keeps its
    value.  ``debug_check_order`` compares the result with the per-vertex
    ``detour`` fold in descending order.
    """
    vs = sorted(set(vertices))
    for v in vs:
        d.require_vertex(v)
    if vs:  # the empty set is the identity on any semiring
        d.require_boolean()
    one = d.semiring.one
    succ: dict[int, set[int]] = {v: set() for v in d.vertices}
    pred: dict[int, set[int]] = {v: set() for v in d.vertices}
    # Successors whose arc value is not the one object, until a detour overwrites it.
    other: dict[int, set[int]] = {}
    for (x, y), value in d.arcs.items():
        succ[x].add(y)
        pred[y].add(x)
        if value is not one:
            other.setdefault(x, set()).add(y)
    for v in vs:
        ps, ss = pred[v], succ[v]
        pred[v], succ[v] = set(), set()
        for x in ps:
            out = succ[x]
            out.discard(v)
            out |= ss
            out.discard(x)
            if x in other:
                other[x] -= ss
        for y in ss:
            into = pred[y]
            into.discard(v)
            into |= ps
            into.discard(y)
    arcs = {(x, y): one for x, ys in succ.items() for y in ys}
    for x, ys in other.items():
        for y in ys & succ[x]:
            arcs[(x, y)] = d.arcs[(x, y)]
    if debug_check_order:
        alt = d
        for v in reversed(vs):
            alt = detour(alt, v)
        if alt.arcs != arcs:
            raise AssertionError("one-pass detour fold differs from the per-vertex fold")
    return vs, arcs


def detour_set(d: Digraph, vertices: Iterable[int], debug_check_order: bool = False) -> Digraph:
    """Detour at every vertex of a set, in one pass; the set stays, isolated.

    Equal to folding single-vertex detours in ascending vertex order, but the
    adjacency sets are built once and one ``Digraph`` at the end, so the cost
    is O(n + m) plus the sum over the set of |pred(v)|·|succ(v)| at v's turn,
    instead of O(k·m) for k rebuilds.  Single detours commute, so the order
    is only a convention; ``debug_check_order`` re-runs the per-vertex fold
    in descending order and verifies both agree.
    """
    _, arcs = _fold_detours(d, vertices, debug_check_order)
    return Digraph(d.vertices, arcs, d.semiring, dict(d.merged))


def bypass_set(d: Digraph, vertices: Iterable[int], debug_check_order: bool = False) -> Digraph:
    """Detour at every vertex of a set, then delete the set, in one pass.

    The survivors' digraph is built straight from the ``detour_set`` fold,
    which leaves the set isolated, at the same cost.
    """
    vs, arcs = _fold_detours(d, vertices, debug_check_order)
    survivors = d.vertices.difference(vs)
    merged = {v: m for v, m in d.merged.items() if v in survivors}
    return Digraph(survivors, arcs, d.semiring, merged)


def naive_bypass(d: Digraph, vertices: Iterable[int]) -> Digraph:
    """The wrong single-shot construction, kept for differential testing.

    Removes all arcs touching the set, connects every external predecessor of
    the set to every distinct external successor, then deletes the set.  This
    manufactures spurious arcs whenever entry and exit points are not
    mutually reachable inside the set.
    """
    d.require_boolean()
    vs = frozenset(vertices)
    for v in vs:
        d.require_vertex(v)
    preds = {x for (x, y) in d.arcs if y in vs and x not in vs}
    succs = {y for (x, y) in d.arcs if x in vs and y not in vs}
    arcs = {k: val for k, val in d.arcs.items() if k[0] not in vs and k[1] not in vs}
    one = d.semiring.one
    for x in preds:
        for y in succs:
            if x != y:
                arcs[(x, y)] = one
    survivors = d.vertices - vs
    merged = {v: m for v, m in d.merged.items() if v in survivors}
    return Digraph(survivors, arcs, d.semiring, merged)


def project_path(word: Sequence[int], dropped: Iterable[int]) -> tuple[int, ...]:
    """Delete the dropped vertices from a path word.

    Adjacent duplicates created by a deletion are collapsed, so a closed walk
    whose interior is dropped degenerates to a single vertex.  The result may
    be empty.
    """
    vs = frozenset(dropped)
    out: list[int] = []
    for x in word:
        if x in vs:
            continue
        if out and out[-1] == x:
            continue
        out.append(x)
    return tuple(out)


def is_path_of(d: Digraph, word: Sequence[int]) -> bool:
    """Word is a simple path of d: distinct vertices, consecutive arcs."""
    if not word or len(set(word)) != len(word):
        return False
    if any(v not in d.vertices for v in word):
        return False
    return all(d.has_arc(x, y) for x, y in zip(word, word[1:]))


def is_walk_of(d: Digraph, word: Sequence[int]) -> bool:
    if not word or any(v not in d.vertices for v in word):
        return False
    return all(d.has_arc(x, y) for x, y in zip(word, word[1:]))


def path_abstract(d: Digraph, p: PartialPartition) -> Digraph:
    """Bypass everything outside the support, then merge the blocks.

    Bypasses and disjoint contractions commute, so contracting first and
    bypassing after yields the same digraph.
    """
    d.require_boolean()
    if not p.support <= d.vertices:
        raise PartitionError("partition support must lie inside the vertex set")
    outside = d.vertices - p.support
    return contract_blocks(bypass_set(d, outside), list(p.blocks))

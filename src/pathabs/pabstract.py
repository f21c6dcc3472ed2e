"""Detours, bypasses, path projection, and path abstraction (boolean digraphs).

The detour at v deletes every arc touching v and inserts an arc from each
predecessor of v to each distinct successor, leaving v isolated; the bypass
additionally deletes v.  Paths between surviving vertices are preserved, and
the projection that deletes bypassed vertices from path words lands exactly on
the paths of the bypassed digraph.

A path abstraction bypasses everything outside a partial partition's support
and merges its blocks.  ``abstraction_pairs`` is the one core that computes it,
on arc arrays: ``path_abstract`` wraps it for a ``Digraph`` and the Monte Carlo
in ``random`` calls it per trial, so no bypassed fill-in digraph is built.
``detour_set`` and ``bypass_set`` build the bypass itself.

Deleted vertices never cause renumbering: survivors keep their ids.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Sequence

import numpy as np

# contract_blocks is not called here, but stays importable from this module
# beside classify_vertex and delete_vertices: the benchmark tracer wraps all
# three at this name.
from .digraph import (
    Digraph,
    classify_vertex,
    contract_blocks,
    delete_vertices,
    scc_labels,
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


def abstraction_pairs(src: np.ndarray, dst: np.ndarray, block_of: np.ndarray, m: int) -> np.ndarray:
    """Ascending ids ``j*m + k`` of the arcs of one path abstraction.

    The digraph has the 0-based arcs ``src[i] -> dst[i]``; ``block_of[v]`` is
    the block (0..m-1) of vertex v, or -1 for a dropped vertex.  Block j gets
    an arc to block k != j when a member of j reaches a member of k directly
    or through dropped vertices only.  The subgraph induced on the dropped set
    is condensed with ``scc_labels``; each component gets a bool row of the
    blocks it exits to, and a pass in ascending label order ORs in the rows of
    its successors, which an arc between components never labels higher.  An
    entry arc from block j into a component then yields j -> k for every k in
    the component's row.  Time and memory are linear in the arc count, plus
    one byte per component and block for the rows.
    """
    bs, bd = block_of[src], block_of[dst]
    direct = (bs >= 0) & (bd >= 0) & (bs != bd)
    ids = [bs[direct] * m + bd[direct]]
    exits = (bs < 0) & (bd >= 0)
    entries = (bs >= 0) & (bd < 0)
    if exits.any() and entries.any():
        dropped = np.flatnonzero(block_of < 0)
        pos = np.empty(len(block_of), dtype=np.int64)
        pos[dropped] = np.arange(len(dropped))
        inner = (bs < 0) & (bd < 0)
        label = scc_labels(len(dropped), pos[src[inner]], pos[dst[inner]])
        reach = np.zeros((int(label.max()) + 1, m), dtype=bool)
        reach[label[pos[src[exits]]], bd[exits]] = True
        cs, cd = label[pos[src[inner]]], label[pos[dst[inner]]]
        between = cs != cd
        cs, cd = cs[between], cd[between]
        order = np.argsort(cs, kind="stable")
        for c, s in zip(cs[order].tolist(), cd[order].tolist()):
            reach[c] |= reach[s]
        j = bs[entries]
        e, k = np.nonzero(reach[label[pos[dst[entries]]]])
        other = k != j[e]
        ids.append(j[e][other] * m + k[other])
    # np.unique by one sort and a neighbour test (ids are >= 0): numpy 2's
    # hash-based np.unique is about fifteen times slower on a few thousand ids.
    ids = np.sort(np.concatenate(ids))
    return ids[np.diff(ids, prepend=-1) != 0]


def path_abstract(d: Digraph, p: PartialPartition) -> Digraph:
    """Bypass everything outside the support, then merge the blocks.

    One call of ``abstraction_pairs`` on the arcs, renumbered 0..n-1, with no
    bypassed fill-in digraph in between.  Bypasses and disjoint contractions
    commute, so the result equals both ``contract_blocks(bypass_set(d,
    outside), blocks)`` and ``bypass_set(contract_blocks(d, blocks),
    outside)``: vertices, arcs and ``merged``.  Every arc carries the
    semiring's one.  On the {0, 1} carrier that is the value every parser
    produces, and ``True == 1``; only a hand-built arc holding another nonzero
    value, such as 2, reads 1 here where the two-step route ORs it in.
    """
    d.require_boolean()
    if not p.support <= d.vertices:
        raise PartitionError("partition support must lie inside the vertex set")
    # Vertex ids may have gaps: position in the sorted ids is the 0-based index.
    ids = np.fromiter(sorted(d.vertices), dtype=np.int64, count=d.n)
    ends = np.fromiter(chain.from_iterable(d.arcs), dtype=np.int64, count=2 * len(d.arcs))
    ends = np.searchsorted(ids, ends)
    m = len(p.blocks)
    members = np.fromiter(chain.from_iterable(p.blocks), dtype=np.int64)
    block_of = np.full(d.n, -1, dtype=np.int64)
    block_of[np.searchsorted(ids, members)] = np.repeat(np.arange(m), [len(b) for b in p.blocks])
    reps = [min(block) for block in p.blocks]
    j, k = np.divmod(abstraction_pairs(ends[0::2], ends[1::2], block_of, m), m)
    rep = np.array(reps, dtype=np.int64)
    arcs = dict.fromkeys(zip(rep[j].tolist(), rep[k].tolist()), d.semiring.one)
    merged = {}
    for r, block in zip(reps, p.blocks):
        expanded = frozenset().union(*map(d.members_of, block))
        if expanded != frozenset((r,)):  # singleton blocks are identity merges
            merged[r] = expanded
    return Digraph(frozenset(reps), arcs, d.semiring, merged)

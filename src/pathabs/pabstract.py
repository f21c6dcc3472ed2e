"""Detours, bypasses, path projection, and path abstraction.

The detour at v deletes every arc touching v and adds the product through v
to the arc from each predecessor of v to each distinct successor, leaving v
isolated; on the boolean semiring that inserts the arc.  The bypass also
deletes v.  Paths between surviving vertices are preserved, and the projection
that deletes bypassed vertices from path words lands exactly on the paths of
the bypassed digraph.

A path abstraction bypasses everything outside a partial partition's support
and merges its blocks.  ``abstraction_pairs`` is the one core that computes it,
on arc arrays: ``path_abstract`` wraps it for a ``Digraph``, the Monte Carlo in
``random`` calls it per trial, ``temporal.dtcn_detour`` and
``temporal.dtcn_path_abstract`` on a layered digraph (``temporal._detour_columns``),
and on the boolean semiring ``detour_set`` and ``bypass_set`` call it with
each survivor its own block, since a bypass is the path abstraction that
merges nothing.  Other semirings eliminate the dropped vertices one at a time
with the semiring's star, which sums the walks through them.  ``_block_map``
gives the one block map of vertex positions that ``path_abstract``, the
boolean set bypasses and ``temporal.dtcn_path_abstract`` build from: one block
map, one core call and one build, and for the temporal lane one sort.

Deleted vertices never cause renumbering: survivors keep their ids.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Sequence

import numpy as np

# perfbench/layers.py times classify_vertex, contract_blocks and delete_vertices by swapping these names.
from .digraph import (
    Digraph,
    DigraphError,
    classify_vertex,
    contract_blocks,
    delete_vertices,
    induced_subgraph,
    positions,
    scc_labels,
    strongly_connected_components,
    vertex_ids,
)
from .partitions import PartialPartition, PartitionError


def detour(d: Digraph, v: int) -> Digraph:
    """Rewire around v on any semiring: each predecessor x and successor y != x get
    mu(x, y) + mu(x, v)·mu(v, y), and a zero sum drops the arc.

    v stays in the digraph as an isolated vertex.  Idempotent, and equal to
    ``detour_set(d, {v})``; on the boolean semiring every linked arc is one.
    """
    nc, s = classify_vertex(d, v), d.semiring
    linked = {}
    for x in nc.predecessors:
        for y in nc.successors - {x}:
            through = s.mul(d.arcs[x, v], d.arcs[v, y])
            linked[x, y] = s.normalize(s.add(d.arcs[x, y], through) if (x, y) in d.arcs else through)
    arcs = {key: val for key, val in {**d.arcs, **linked}.items() if v not in key and val is not None}
    return Digraph(d.vertices, arcs, s, dict(d.merged))


def bypass(d: Digraph, v: int) -> Digraph:
    """Detour at v, then delete v."""
    return delete_vertices(detour(d, v), [v])


def _set_bypass(d: Digraph, vertices: Iterable[int], delete: bool) -> Digraph:
    """Detour at every vertex of a set, then delete the set if ``delete``.

    Boolean: the survivor arcs that touch no dropped vertex keep their values, and each
    pair that ``abstraction_pairs`` joins, with a block per survivor, gets one, as ``detour``
    writes: a pair that is also an arc sums to one.  Both go to ``Digraph._summed`` as columns."""
    vs = sorted(set(vertices))
    for v in vs:
        d.require_vertex(v)
    survivors = d.vertices.difference(vs) if delete else d.vertices
    merged = {v: m for v, m in d.merged.items() if v in survivors}
    if d.semiring.name != "boolean":
        return Digraph(survivors, _fold_detours(d, vs), d.semiring, merged)
    kept = sorted(d.vertices.difference(vs))
    src, dst, block_of = _block_map(d, kept, np.arange(len(kept)))
    kept = np.array(kept, dtype=np.int64)
    touch = (block_of[src] < 0) | (block_of[dst] < 0)
    j, k = np.divmod(abstraction_pairs(src[touch], dst[touch], block_of, len(kept)), len(kept))
    ones = np.full(len(j), d.semiring.one, dtype=object)
    columns = ((d.src[~touch], kept[j]), (d.dst[~touch], kept[k]), (d.values[~touch], ones))
    return Digraph._summed(survivors, *map(np.concatenate, columns), d.semiring, merged)


def _fold_detours(d: Digraph, vs: list[int]) -> dict:
    """The survivors' arcs once each of ``vs`` is eliminated in turn, off the boolean semiring:
    each x -> v -> y, loops included, adds mu(x, v)·mu(v, v)*·mu(v, y) to (x, y), the algebraic
    path problem's elimination step, so the arcs are walk sums through ``vs`` in any order.
    Successor and predecessor value maps are built once and rewired in place.  The strong
    components of ``vs`` are labelled once, at the first star that has no value."""
    s = d.semiring
    succ: dict[int, dict[int, object]] = {v: {} for v in d.vertices}
    pred: dict[int, dict[int, object]] = {v: {} for v in d.vertices}
    for (x, y), value in d.arcs.items():
        succ[x][y] = pred[y][x] = value
    low: dict[int, int] = {}  # each dropped vertex's strong component's smallest member
    for v in vs:
        ps, ss = pred.pop(v), succ.pop(v)  # v stays isolated: nothing links to it again
        loop, _ = ss.pop(v, None), ps.pop(v, None)
        for x in ps:
            del succ[x][v]
        for y in ss:
            del pred[y][v]
        if loop is not None:
            star = None if isinstance(loop, _Unbounded) else s.star(loop)
            if star is None:
                low = low or {m: min(c) for c in strongly_connected_components(induced_subgraph(d, vs)) for m in c}
                star = _Unbounded(low[v])
            ps = {x: s.mul(a, star) for x, a in ps.items()}
        for x, a in ps.items():
            for y, b in ss.items():
                old, through = succ[x].get(y), s.mul(a, b)
                total = through if old is None else s.add(old, through)
                value = succ[x][y] = pred[y][x] = s.normalize(total)
                if value is None:
                    del succ[x][y], pred[y][x]
    arcs = {(x, y): value for x, ys in succ.items() for y, value in ys.items() if x != y}
    marks = [value.vertex for value in arcs.values() if isinstance(value, _Unbounded)]
    if marks:
        cycle = sorted(m for m, first in low.items() if first == min(marks))
        raise DigraphError(f"dropped vertices {{{', '.join(map(str, cycle))}}} form a cycle on a route "
                           f"between survivors; on the {s.name} semiring the walk sum through them has no value")
    return arcs


class _Unbounded:
    """A walk sum with no value, holding the smallest member of the dropped strong component of
    a pivot whose star had none; it absorbs sums and products, and of two keeps the smaller."""

    def __init__(self, vertex: int):
        self.vertex = vertex

    def _absorb(self, other):
        return other if isinstance(other, _Unbounded) and other.vertex < self.vertex else self

    __add__ = __radd__ = __mul__ = __rmul__ = _absorb


def detour_set(d: Digraph, vertices: Iterable[int]) -> Digraph:
    """Detour at every vertex of a set, in one pass; the set stays, isolated.

    Boolean: folding ``detour`` in any order, in the time of ``abstraction_pairs``
    with a block per survivor.  Otherwise an arc sums the arc-value products of the
    walks through the set, in O(n + m) plus the sum over the set of |pred(v)|·|succ(v)|
    at v's turn; that is ``detour`` folded in any order unless a cycle of the set
    lies on a route between distinct survivors.  A walk sum with no value
    (a cycle on such a route on counting, a singular pivot on the reals) raises ``DigraphError``."""
    return _set_bypass(d, vertices, delete=False)


def bypass_set(d: Digraph, vertices: Iterable[int]) -> Digraph:
    """Detour at every vertex of a set, then delete the set, in one pass."""
    return _set_bypass(d, vertices, delete=True)


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
    arcs.update(dict.fromkeys(((x, y) for x in preds for y in succs if x != y), d.semiring.one))
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
    return len(set(word)) == len(word) and is_walk_of(d, word)


def is_walk_of(d: Digraph, word: Sequence[int]) -> bool:
    if not word or any(v not in d.vertices for v in word):
        return False
    return all(d.has_arc(x, y) for x, y in zip(word, word[1:]))


def abstraction_pairs(src: np.ndarray, dst: np.ndarray, block_of: np.ndarray, m: int) -> np.ndarray:
    """Ascending ids ``j*m + k`` of the arcs of one path abstraction.

    The digraph has the 0-based arcs ``src[i] -> dst[i]``; ``block_of[v]`` is
    the block (0..m-1) of vertex v, or -1 for a dropped vertex.  Block j gets
    an arc to block k != j when a member of j reaches a member of k directly
    or through dropped vertices only; the temporal lane's blocks are single
    entry and exit contacts of a layered digraph (``temporal._detour_columns``).
    Each arc gets one kind, from whether its tail and its head are dropped:
    between blocks, entry, exit or inner; one stable sort by kind lays the
    four groups end to end, each in input order, and every later step reads
    its group as a slice.  The dropped subgraph, the inner arcs, is condensed
    with ``scc_labels`` (Purdom, BIT 10, 1970; Nuutila, 1995).  A component
    holds the set of blocks it reaches, or None for none; in ascending label
    order, arcs between components running to lower labels, it unions in its
    successors' sets, pointing to its first successor's when it has none of
    its own and copying only when a second writes.  The entry arcs are sorted
    by (component, block) and each distinct pair is kept once, so a block with
    several arcs into one component decodes its set once: entry (c, j) yields
    j -> k for every k in c's set, and only entered components are decoded.
    Time is linear in the arcs plus the set elements copied, unioned and
    decoded; memory in the arcs plus the sets held, a dead component costing
    one list slot: 10⁶ dropped vertices off every route peak at 41 MiB, a
    40,184-contact detour at 12 MiB.
    """
    bs, bd = block_of[src], block_of[dst]
    # one stable sort by kind: arcs [:e] join two blocks, [e:x] enter the dropped set,
    # [x:i] leave it and [i:] lie inside it, each group in input order
    kind = (bs < 0).view(np.int8) * np.int8(2)
    kind += bd < 0
    order = np.argsort(kind, kind="stable")
    e, x, i = np.searchsorted(kind[order], (1, 2, 3)).tolist()
    bs, bd = bs[order], bd[order]
    ids = [(bs[:e] * m + bd[:e])[bs[:e] != bd[:e]]]
    if e < x < i:
        pos = np.cumsum(block_of < 0) - 1  # a dropped vertex's index among the dropped
        tails, heads = pos[src[order[x:]]], pos[dst[order[e:]]]  # exits then inner, entries then inner
        label = scc_labels(int(pos[-1]) + 1, tails[i - x :], heads[i - e :])
        reach: list[set | None] = [None] * (int(label.max()) + 1)
        for c, k in zip(label[tails[: i - x]].tolist(), bd[x:i].tolist()):
            if reach[c] is None:
                reach[c] = {k}
            else:
                reach[c].add(k)
        cs, cd = label[tails[i - x :]], label[heads[i - e :]]
        between = cs != cd
        cs, cd = cs[between], cd[between]
        order = np.argsort(cs, kind="stable")
        borrowed = set()  # components whose reach is still a successor's finished set
        for c, s in zip(cs[order].tolist(), cd[order].tolist()):
            found, mine = reach[s], reach[c]
            if found is None or found is mine:
                continue
            if mine is None:
                reach[c] = found
                borrowed.add(c)
            elif c in borrowed:
                reach[c] = mine | found
                borrowed.remove(c)
            else:
                mine |= found
        # each (component, block) entry once, in component order
        entry = np.sort(label[heads[: x - e]] * m + bs[e:x])
        into, j = np.divmod(entry[_starts(entry)], m)
        new = _starts(into)
        sets = [reach[c] or () for c in into[new].tolist()]
        size = np.fromiter(map(len, sets), dtype=np.int64, count=len(sets))
        at = np.cumsum(new) - 1
        count = size[at]  # each entry copies its component's set from the entered sets laid end to end
        flat = np.fromiter(chain.from_iterable(sets), dtype=np.int64, count=int(size.sum()))
        k = flat[np.repeat(np.cumsum(size)[at] - np.cumsum(count), count) + np.arange(count.sum())]
        j = np.repeat(j, count)
        ids.append((j * m + k)[k != j])
    # np.unique by one sort and a neighbour test: numpy 2's
    # hash-based np.unique is about fifteen times slower on a few thousand ids.
    ids = np.sort(np.concatenate(ids))
    return ids[_starts(ids)]


def _starts(a: np.ndarray) -> np.ndarray:
    """Where a sorted array's runs of equal values start."""
    start = np.empty(len(a), dtype=bool)
    start[:1] = True
    np.not_equal(a[1:], a[:-1], out=start[1:])
    return start


def _block_map(d, members, blocks: np.ndarray) -> tuple[np.ndarray, ...]:
    """d's arc tails and heads as indices into its ascending vertex ids (``digraph.positions``),
    and each index's block: ``blocks[i]`` for vertex ``members[i]``, -1 for the rest.

    It reads only d's ``vertices``, ``n``, ``src`` and ``dst``, so d is a ``Digraph`` or a
    ``temporal.DTCN``, whose contacts are its arcs."""
    ids = vertex_ids(d.vertices)
    members = positions(ids, np.asarray(members, dtype=np.int64))
    block_of = np.full(d.n, -1, dtype=np.int64)
    block_of[members] = blocks
    return positions(ids, d.src), positions(ids, d.dst), block_of


def path_abstract(d: Digraph, p: PartialPartition) -> Digraph:
    """Bypass everything outside the support, then merge the blocks.

    Bypasses and disjoint contractions commute, so the result equals both
    ``contract_blocks(bypass_set(d, outside), blocks)`` and
    ``bypass_set(contract_blocks(d, blocks), outside)``: vertices, arcs (on the
    reals, up to the stars' rounding) and ``merged``.  Off the boolean semiring
    it is the second, whose fill-in is smaller: an arc sums the products along
    the walks from block to block through bypassed vertices, or is their least
    sum on min-plus.  A boolean input takes one ``abstraction_pairs`` call on
    d's arc columns, renumbered 0..n-1, and the result gets the pairs as its
    columns, each arc the semiring's one; only a hand-built arc holding another
    nonzero value, such as 2, reads 1 here where the two-step route may keep it.
    """
    if not p.support <= d.vertices:
        raise PartitionError("partition support must lie inside the vertex set")
    if d.semiring.name != "boolean":
        return bypass_set(contract_blocks(d, p.blocks), d.vertices - p.support)
    m = len(p.blocks)
    members = np.fromiter(chain.from_iterable(p.blocks), dtype=np.int64)
    src, dst, block_of = _block_map(d, members, np.repeat(np.arange(m), [len(b) for b in p.blocks]))
    reps = [min(block) for block in p.blocks]
    j, k = np.divmod(abstraction_pairs(src, dst, block_of, m), m)
    rep = np.array(reps, dtype=np.int64)
    blocks = p.blocks if not d.merged else [frozenset().union(*map(d.members_of, b)) for b in p.blocks]
    merged = {r: ms for r, ms in zip(reps, blocks) if ms != {r}}  # singletons are identity merges
    # valid by construction: pairs join distinct blocks, named by their representatives, and
    # ascending ids j*m + k are ascending (rep j, rep k), since blocks sort by their minimum
    values = np.full(len(j), d.semiring.one, dtype=object)
    return Digraph._of(frozenset(reps), rep[j], rep[k], values, d.semiring, merged)

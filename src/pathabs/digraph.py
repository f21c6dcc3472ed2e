"""Loopless digraphs with semiring-valued arcs, and the combinatorial core.

Vertices are positive integers.  Fresh digraphs are built on 1..n, but
operations that delete or merge vertices keep the surviving ids unchanged
(no compaction), so a digraph carries an explicit vertex set.  Merged
vertices take the smallest member as their id; the ``merged`` side table
records block membership so results stay comparable across operation orders.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .semirings import BOOLEAN, SemiringSpec


class DigraphError(ValueError):
    pass


class CyclicGraphError(DigraphError):
    pass


def _freeze_members(members: Iterable[int]) -> frozenset[int]:
    ms = frozenset(int(m) for m in members)
    if not ms:
        raise DigraphError("a vertex block must be nonempty")
    return ms


@dataclass(frozen=True)
class VertexBlock:
    """A set of vertices to be merged; its id is the smallest member."""

    members: frozenset[int]

    def __init__(self, members: Iterable[int]):
        object.__setattr__(self, "members", _freeze_members(members))

    @property
    def id(self) -> int:
        return min(self.members)


@dataclass(frozen=True)
class NeighborClassification:
    """Partition of the other vertices by arc incidence with a fixed vertex.

    ``minus`` sends an arc in only, ``plus`` receives one only, ``plusminus``
    does both and ``zero`` neither.
    """

    vertex: int
    minus: frozenset[int]
    plusminus: frozenset[int]
    plus: frozenset[int]
    zero: frozenset[int]

    @property
    def predecessors(self) -> frozenset[int]:
        return self.minus | self.plusminus

    @property
    def successors(self) -> frozenset[int]:
        return self.plusminus | self.plus


@dataclass(frozen=True)
class Digraph:
    vertices: frozenset[int]
    arcs: Mapping[tuple[int, int], object]
    semiring: SemiringSpec = BOOLEAN
    merged: Mapping[int, frozenset[int]] = field(default_factory=dict)

    def __post_init__(self):
        vertices, is_zero = self.vertices, self.semiring.is_zero
        for (x, y), value in self.arcs.items():
            if x == y:
                raise DigraphError(f"self-loop at {x} (digraphs are loopless)")
            if x not in vertices or y not in vertices:
                raise DigraphError(f"arc ({x}, {y}) leaves the vertex set")
            if is_zero is not None and is_zero(value):
                raise DigraphError(f"arc ({x}, {y}) stores the no-arc value {value!r}")

    # -- construction -----------------------------------------------------

    @staticmethod
    def build(
        n: int,
        arcs: Mapping[tuple[int, int], object] | Iterable[tuple[int, int]] = (),
        semiring: SemiringSpec = BOOLEAN,
    ) -> "Digraph":
        """Digraph on vertices 1..n.  A bare pair iterable means weight one."""
        if n < 0:
            raise DigraphError("vertex count must be nonnegative")
        if not isinstance(arcs, Mapping):
            arcs = {(x, y): semiring.one for (x, y) in arcs}
        return Digraph(frozenset(range(1, n + 1)), dict(arcs), semiring)

    def with_arcs(self, arcs: Mapping[tuple[int, int], object]) -> "Digraph":
        return Digraph(self.vertices, dict(arcs), self.semiring, dict(self.merged))

    # -- basic queries -----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.vertices)

    def value(self, x: int, y: int):
        """Arc value, or None when the arc is absent."""
        return self.arcs.get((x, y))

    def has_arc(self, x: int, y: int) -> bool:
        return (x, y) in self.arcs

    def successors_of(self, v: int) -> frozenset[int]:
        return frozenset(y for (x, y) in self.arcs if x == v)

    def predecessors_of(self, v: int) -> frozenset[int]:
        return frozenset(x for (x, y) in self.arcs if y == v)

    def adjacency(self) -> dict[int, list[int]]:
        """Successor lists, sorted, for every vertex."""
        adj: dict[int, list[int]] = {v: [] for v in self.vertices}
        for x, y in self.arcs:
            adj[x].append(y)
        for v in adj:
            adj[v].sort()
        return adj

    def arc_count(self) -> int:
        return len(self.arcs)

    def members_of(self, v: int) -> frozenset[int]:
        """Original vertices represented by v (itself, unless merged)."""
        return self.merged.get(v, frozenset((v,)))

    def require_vertex(self, v: int) -> None:
        if v not in self.vertices:
            raise DigraphError(f"vertex {v} is not in the digraph")

    def require_boolean(self) -> None:
        if self.semiring.name != "boolean":
            raise DigraphError(f"operation needs the boolean semiring, got {self.semiring.name}")


def add_arc_value(acc: dict, key: tuple[int, int], value, semiring: SemiringSpec) -> None:
    """Accumulate a value into an arc map under the semiring addition."""
    if key in acc:
        acc[key] = semiring.add(acc[key], value)
    else:
        acc[key] = value


def _normalized(acc: dict, semiring: SemiringSpec) -> dict:
    if semiring.is_zero is None:
        return acc
    return {k: v for k, v in acc.items() if not semiring.is_zero(v)}


def induced_subgraph(d: Digraph, keep: Iterable[int]) -> Digraph:
    keep = frozenset(keep)
    extra = keep - d.vertices
    if extra:
        raise DigraphError(f"vertices {sorted(extra)} are not in the digraph")
    arcs = {(x, y): v for (x, y), v in d.arcs.items() if x in keep and y in keep}
    merged = {v: m for v, m in d.merged.items() if v in keep}
    return Digraph(keep, arcs, d.semiring, merged)


def delete_vertices(d: Digraph, drop: Iterable[int]) -> Digraph:
    return induced_subgraph(d, d.vertices - frozenset(drop))


def contract_blocks(d: Digraph, blocks: Sequence[VertexBlock | Iterable[int]]) -> Digraph:
    """Merge each block into one vertex named by its smallest member.

    Arc values into/out of a block are semiring sums over members;
    block-internal arcs vanish (looplessness).  Blocks must be pairwise
    disjoint; applying them in any order, or one at a time, gives the same
    result.
    """
    norm: list[frozenset[int]] = []
    for b in blocks:
        members = b.members if isinstance(b, VertexBlock) else _freeze_members(b)
        extra = members - d.vertices
        if extra:
            raise DigraphError(f"block member(s) {sorted(extra)} out of range")
        norm.append(members)
    seen: set[int] = set()
    for members in norm:
        if members & seen:
            raise DigraphError("blocks must be pairwise disjoint")
        seen |= members
    vmap = {v: v for v in d.vertices}
    for members in norm:
        rep = min(members)
        for m in members:
            vmap[m] = rep
    acc: dict[tuple[int, int], object] = {}
    for (x, y) in sorted(d.arcs):
        nx, ny = vmap[x], vmap[y]
        if nx == ny:
            continue
        add_arc_value(acc, (nx, ny), d.arcs[(x, y)], d.semiring)
    merged = dict(d.merged)
    for members in norm:
        rep = min(members)
        expanded: frozenset[int] = frozenset()
        for m in members:
            expanded |= d.members_of(m)
            merged.pop(m, None)
        if expanded != frozenset((rep,)):  # singleton blocks are identity merges
            merged[rep] = expanded
    vertices = frozenset(vmap.values())
    return Digraph(vertices, _normalized(acc, d.semiring), d.semiring, merged)


def classify_vertex(d: Digraph, v: int) -> NeighborClassification:
    """Split the other vertices by presence of arcs (x, v) and (v, x)."""
    d.require_vertex(v)
    preds = d.predecessors_of(v)
    succs = d.successors_of(v)
    rest = d.vertices - {v}
    return NeighborClassification(
        vertex=v,
        minus=frozenset(preds - succs),
        plusminus=frozenset(preds & succs),
        plus=frozenset(succs - preds),
        zero=frozenset(rest - preds - succs),
    )


def scc_labels(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Strong-component label of each vertex 0..n-1 of the arcs ``src[i] -> dst[i]``.

    Tarjan's algorithm, iterative, over CSR successor lists.  Labels number
    the components 0, 1, ... in the order Tarjan completes them, so every arc
    between two components runs from the higher label to the lower.  A vertex
    is on the Tarjan stack exactly when it has an index and no label yet.
    """
    src = np.asarray(src, dtype=np.int64)
    order = np.argsort(src, kind="stable")
    succ = np.asarray(dst, dtype=np.int64)[order].tolist()
    start = np.searchsorted(src[order], np.arange(n + 1)).tolist()
    nxt = start[:-1]
    index = [-1] * n
    low = [0] * n
    label = [-1] * n
    stack: list[int] = []
    counter = components = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [root]
        while work:
            v = work[-1]
            i, end = nxt[v], start[v + 1]
            while i < end:
                w = succ[i]
                i += 1
                if index[w] < 0:
                    break
                if label[w] < 0 and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1]]:
                    low[work[-1]] = low[v]
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        label[w] = components
                        if w == v:
                            break
                    components += 1
                continue
            nxt[v] = i
            index[w] = low[w] = counter
            counter += 1
            stack.append(w)
            work.append(w)
    return np.array(label, dtype=np.int64)


def strongly_connected_components(d: Digraph) -> list[frozenset[int]]:
    """Strong components from ``scc_labels``, sorted by smallest member."""
    ids = sorted(d.vertices)
    pos = {v: i for i, v in enumerate(ids)}
    src = np.fromiter((pos[x] for x, _ in d.arcs), dtype=np.int64, count=len(d.arcs))
    dst = np.fromiter((pos[y] for _, y in d.arcs), dtype=np.int64, count=len(d.arcs))
    groups: dict[int, list[int]] = {}
    # Ascending ids meet the components in the order of their smallest members.
    for v, comp in zip(ids, scc_labels(len(ids), src, dst).tolist()):
        groups.setdefault(comp, []).append(v)
    return [frozenset(g) for g in groups.values()]


def is_acyclic(d: Digraph) -> bool:
    return all(len(c) == 1 for c in strongly_connected_components(d))


def topological_order(d: Digraph) -> list[int]:
    """Kahn's algorithm with ascending tie-break; raises on cycles."""
    adj = d.adjacency()
    indeg = {v: 0 for v in d.vertices}
    for _, y in d.arcs:
        indeg[y] += 1
    ready = [v for v in d.vertices if indeg[v] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for w in adj[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(ready, w)
    if len(order) != len(d.vertices):
        raise CyclicGraphError("digraph has a cycle")
    return order


def reachability(d: Digraph) -> dict[int, frozenset[int]]:
    """For each vertex, the set of vertices reachable by a nonempty walk."""
    adj = d.adjacency()
    out: dict[int, frozenset[int]] = {}
    for s in sorted(d.vertices):
        seen: set[int] = set()
        frontier = list(adj[s])
        while frontier:
            v = frontier.pop()
            if v in seen:
                continue
            seen.add(v)
            frontier.extend(adj[v])
        out[s] = frozenset(seen)
    return out


def transitive_reduction_dag(d: Digraph) -> Digraph:
    """Unique minimal sub-digraph of an acyclic d with the same reachability.

    An arc (u, v) is dropped exactly when some other successor of u already
    reaches v.
    """
    if not is_acyclic(d):
        raise CyclicGraphError("transitive reduction is only unique for acyclic digraphs")
    reach = reachability(d)
    adj = d.adjacency()
    kept = {}
    for (u, v), value in d.arcs.items():
        redundant = any(w != v and v in reach[w] for w in adj[u])
        if not redundant:
            kept[(u, v)] = value
    return Digraph(d.vertices, kept, d.semiring, dict(d.merged))


@dataclass(frozen=True)
class PathEnumeration:
    paths: tuple[tuple[int, ...], ...]
    truncated: bool


def enumerate_paths(
    d: Digraph,
    sources: Iterable[int],
    targets: Iterable[int],
    max_len: Optional[int] = None,
    max_count: int = 10**6,
) -> PathEnumeration:
    """All simple paths from ``sources`` to ``targets``, lexicographic.

    ``max_len`` caps the number of arcs (default: vertex count, enough for
    any simple path); hitting either cap sets the truncation flag instead of
    failing silently.  A single-vertex path [v] is reported only when v lies
    in both endpoint sets.
    """
    sources = frozenset(sources)
    targets = frozenset(targets)
    for v in sources | targets:
        d.require_vertex(v)
    if max_len is None:
        max_len = len(d.vertices)
    if max_len < 1 or max_count < 1:
        raise DigraphError("max_len and max_count must be >= 1")
    adj = d.adjacency()
    found: list[tuple[int, ...]] = []
    truncated = False

    def extend(s: int) -> bool:
        """Depth-first from s with an explicit stack; False once max_count stops it."""
        nonlocal truncated
        path, visited, stack = [s], {s}, [iter(adj[s])]
        while stack:
            w = next(stack[-1], None)
            if w is None:
                stack.pop()
                visited.discard(path.pop())
                continue
            if w in visited:
                continue
            path.append(w)
            visited.add(w)
            if w in targets:
                if len(found) >= max_count:
                    truncated = True
                    return False
                found.append(tuple(path))
            if len(path) - 1 >= max_len:
                if any(x not in visited for x in adj[w]):
                    truncated = True
                path.pop()
                visited.discard(w)
            else:
                stack.append(iter(adj[w]))
        return True

    for s in sorted(sources):
        if s in targets:
            if len(found) >= max_count:
                truncated = True
                break
            found.append((s,))
        if not extend(s):
            break
    found.sort()
    return PathEnumeration(tuple(found), truncated)


def count_walks_dag(d: Digraph, x: int, y: int) -> int:
    """Number of walks from x to y, counting arc values as multiplicities.

    Finite because the digraph must be acyclic; the trivial walk makes
    the count 1 when x == y.
    """
    d.require_vertex(x)
    d.require_vertex(y)
    order = topological_order(d)  # raises on cycles
    adj = d.adjacency()
    ways = {v: 0 for v in d.vertices}
    ways[x] = 1
    for v in order:
        if ways[v] == 0:
            continue
        for w in adj[v]:
            value = d.arcs[(v, w)]
            mult = int(value)
            if mult != value or mult < 0:
                raise DigraphError(f"arc ({v}, {w}) value {value!r} is not a multiplicity")
            ways[w] += ways[v] * mult
    return ways[y]


def graph_sources(d: Digraph) -> frozenset[int]:
    with_in = {y for (_, y) in d.arcs}
    return frozenset(d.vertices - with_in)


def graph_targets(d: Digraph) -> frozenset[int]:
    with_out = {x for (x, _) in d.arcs}
    return frozenset(d.vertices - with_out)

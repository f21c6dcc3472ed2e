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
from functools import reduce
from itertools import chain
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .semirings import BOOLEAN, SemiringSpec


class DigraphError(ValueError):
    pass


class CyclicGraphError(DigraphError):
    pass


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
    """A frozen digraph value, but unhashable: ``merged`` is a plain dict, and no
    caller needs a digraph as a set member or dict key.

    The arcs have two forms, each built from the other on first read: ``arcs``, a
    dict from (tail, head) to value, and the read-only columns ``src`` and ``dst``
    (int64, ordered by (src, dst), no repeats) with the aligned ``values`` (an
    object array, no zero values).  The constructor takes the dict and checks it;
    the readers, contraction, boolean ``path_abstract`` and the boolean set
    bypasses build the columns through ``_summed`` or ``_of``.
    """

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

    def __getattr__(self, name):
        """The arc form not yet built, built once from the other: runs only for a
        name the instance does not hold."""
        held = vars(self)
        if name == "arcs" and "src" in held:
            own = {v: v for v in self.vertices}  # the keys share the vertex set's int objects
            keys = zip(map(own.__getitem__, held["src"].tolist()), map(own.__getitem__, held["dst"].tolist()))
            held["arcs"] = dict(zip(keys, held["values"].tolist()))
        elif name in ("src", "dst", "values") and "arcs" in held:
            held.update(zip(("src", "dst", "values"), _columns(held["arcs"])))
        else:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        return held[name]

    # -- construction -----------------------------------------------------

    @classmethod
    def _of(cls, vertices, src, dst, values, semiring, merged) -> "Digraph":
        """A digraph from arc columns valid by construction, ordered by (src, dst) with no
        repeats, no loops, no zero values and no end outside ``vertices``: nothing is checked."""
        d = cls.__new__(cls)
        for column in (src, dst, values):
            column.flags.writeable = False
        vars(d).update(vertices=vertices, src=src, dst=dst, values=values, semiring=semiring, merged=merged)
        return d

    @classmethod
    def _summed(cls, vertices, src, dst, values, semiring, merged, zeros: bool = False) -> "Digraph":
        """A digraph from arc columns in any order, repeats allowed, but no loops and no end
        outside ``vertices``: nothing else is checked.

        The one rule for repeated arcs: after a stable sort by (src, dst), each run of
        repeats is semiring-added in column order, and sums that are zero are dropped.
        ``zeros`` says that an input value may itself be zero, so every value is tested.
        """
        order = pair_order(src, dst)
        src, dst, values = src[order], dst[order], values[order]
        fresh = np.ones(len(src), dtype=bool)  # the first arc of each run of repeats
        fresh[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
        repeats = not fresh.all()
        if repeats:  # semiring-add each run longer than one, in column order
            starts = np.flatnonzero(fresh)
            stops = np.append(starts[1:], len(src))
            runs = np.flatnonzero(stops - starts > 1)
            sums = values[starts]
            for j, a, b in zip(runs.tolist(), starts[runs].tolist(), stops[runs].tolist()):
                sums[j] = reduce(semiring.add, values[a:b])
            src, dst, values = src[fresh], dst[fresh], sums
        if semiring.is_zero and (zeros or repeats):
            nonzero = ~np.fromiter(map(semiring.is_zero, values), dtype=bool, count=len(values))
            src, dst, values = src[nonzero], dst[nonzero], values[nonzero]
        return cls._of(vertices, src, dst, values, semiring, merged)

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


def _columns(arcs: Mapping[tuple[int, int], object]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``src``, ``dst`` and ``values`` of an arc dict, ordered by (src, dst), read-only."""
    try:
        ends = np.fromiter(chain.from_iterable(arcs), dtype=np.int64, count=2 * len(arcs))
    except OverflowError:
        big = max(chain.from_iterable(arcs), key=abs)
        raise DigraphError(f"vertex ids must fit in int64 here, got {big}") from None
    values = np.fromiter(arcs.values(), dtype=object, count=len(arcs))
    order = pair_order(ends[0::2], ends[1::2])
    columns = ends[0::2][order], ends[1::2][order], values[order]
    for column in columns:
        column.flags.writeable = False
    return columns


def pair_order(src: np.ndarray, dst: np.ndarray, time: np.ndarray | None = None) -> np.ndarray:
    """The sort order of int64 rows by (src, dst), stable, or by (src, dst, time).

    Ids that all lie in [0, 2**31) sort as one int64 key src·(top + 1) + dst,
    which sorts in about half the time of a ``lexsort`` on the two columns.
    With ``time``, a quicksort on it goes first and the stable id sort second,
    in about 0.6 times a ``lexsort`` with the float key; rows equal in all
    three columns may come in either order.
    """
    top = int(max(src.max(initial=0), dst.max(initial=0)))
    if top < 2**31 and min(src.min(initial=0), dst.min(initial=0)) >= 0:
        keys = (src * (top + 1) + dst,)
    else:
        keys = (dst, src)
    if time is None:
        return np.lexsort(keys)
    order = np.argsort(time)
    return order[np.lexsort([key[order] for key in keys])]


def vertex_ids(vertices: frozenset[int]) -> np.ndarray | None:
    """The vertices ascending as an int64 column, or None when they are 1..n (see ``positions``)."""
    n = len(vertices)
    if not n or min(vertices) == 1 and max(vertices) == n:  # n distinct ints from 1 to n are 1..n
        return None
    try:
        return np.fromiter(sorted(vertices), dtype=np.int64, count=n)
    except OverflowError:
        raise DigraphError(f"vertex ids must fit in int64 here, got {max(vertices, key=abs)}") from None


def positions(ids: np.ndarray | None, ends: np.ndarray) -> np.ndarray:
    """The index of each id of ``ends`` among the ascending ``vertex_ids``: id - 1 on 1..n."""
    return ends - 1 if ids is None else np.searchsorted(ids, ends)


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


def contracted_ends(vertices: frozenset[int], blocks: Sequence[Iterable[int]], src, dst) -> tuple:
    """The contraction map of both lanes: the blocks as frozensets, the vertex set once each
    block is its smallest member, and the int64 arc ends ``src`` and ``dst`` re-addressed to it.

    Blocks must be nonempty, lie inside ``vertices`` and be pairwise disjoint.  One scatter
    of all members writes each block's minimum into a column of representatives, which
    holds each vertex at its ``vertex_ids`` index."""
    norm: list[frozenset[int]] = []
    for b in blocks:
        members = frozenset(int(m) for m in b)
        if not members:
            raise DigraphError("a vertex block must be nonempty")
        if not members <= vertices:
            raise DigraphError(f"block member(s) {sorted(members - vertices)} out of range")
        norm.append(members)
    sizes = [len(members) for members in norm]
    if sum(sizes) > len(frozenset().union(*norm)):
        raise DigraphError("blocks must be pairwise disjoint")
    ids = vertex_ids(vertices)
    rep = np.arange(1, len(vertices) + 1) if ids is None else ids.copy()
    reps = [min(members) for members in norm]
    everyone = np.fromiter(chain.from_iterable(norm), dtype=np.int64, count=sum(sizes))
    rep[positions(ids, everyone)] = np.repeat(np.array(reps, dtype=np.int64), sizes)
    return norm, vertices.difference(*norm).union(reps), rep[positions(ids, src)], rep[positions(ids, dst)]


def contract_blocks(d: Digraph, blocks: Sequence[Iterable[int]]) -> Digraph:
    """Merge each block into one vertex named by its smallest member.

    Arc values into/out of a block are semiring sums over members, added in
    the ascending (tail, head) order of the arcs before the merge; zero sums
    drop, and block-internal arcs vanish (looplessness).  Blocks must be
    pairwise disjoint; applying them in any order, or one at a time, gives the
    same result.
    """
    norm, vertices, src, dst = contracted_ends(d.vertices, blocks, d.src, d.dst)
    cross = src != dst
    merged = dict(d.merged)
    for members in norm:  # a block expands only through the members merged earlier
        expanded = members.union(*[merged.pop(m) for m in members & merged.keys()])
        if len(expanded) > 1:  # singleton blocks are identity merges
            merged[min(members)] = expanded
    return Digraph._summed(vertices, src[cross], dst[cross], d.values[cross], d.semiring, merged)


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


# Below this n + m, ``scc_labels`` is Tarjan alone; above it the numpy phases
# win (BENCH_scc.json).
_SCC_CROSSOVER = 1024

# A breadth-first level of ``_reach`` costs about 12 µs of numpy calls, as
# much as scanning several hundred arcs, and Tarjan spends about 0.4 µs on
# each vertex and arc.  With each level charged as 1,024 arcs against a budget
# of the arcs plus 24 per vertex, a search on G(n, c/n) may run about n/43
# levels deep (30 at the giant's core of G(2000, 2/2000), over 80 at c = 1.5
# from n = 10^4), and an abandoned one costs about half of Tarjan on the core.
_LEVEL_CHARGE = 1024


def scc_labels(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Strong-component label of each vertex 0..n-1 of the arcs ``src[i] -> dst[i]``.

    Labels number the components 0, 1, ... contiguously, and every arc
    between two components runs from the higher label to the lower.  Three
    phases (Fleischer, Hendrickson & Pinar, 2000; the trim step is McLendon
    et al., JPDC 65, 2005):

    1. Trim: a round peels, with one ``bincount`` per direction, the vertices
       that have no live out-arc, then of the rest those with no live in-arc;
       each is a component alone.  Out-peeled rounds take the lowest labels
       in round order, in-peeled rounds the highest in reverse round order.
       An arc from an out-peeled vertex was dead when it peeled, so it ends
       at a vertex out-peeled in an earlier round, and an arc into an
       in-peeled vertex starts at one in-peeled earlier; no arc joins two
       vertices peeled in one round from one side.
    2. Forward-backward: the vertices that both reach and are reached from
       the core vertex of largest in-degree times out-degree form its
       component, the giant on a random digraph.
    3. ``_tarjan`` on the core with the giant contracted to one vertex; its
       labels fill the band between the two peeled ones.

    Two guards keep the worst case linear: trimming stops after a round that
    peels under 1/32 of what is left, and a search whose arcs scanned plus a
    charge of ``_LEVEL_CHARGE`` per level pass the core's arcs plus 24 per
    core vertex is abandoned for Tarjan on the whole core.  Below a crossover
    of n + m = 1024, read from timings on G(n, c/n) with c from 0.6 to 4
    (BENCH_scc.json), the phases cost more than they save and Tarjan runs
    alone; the core gets the same test.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if n + len(src) < _SCC_CROSSOVER:
        return _tarjan(n, src, dst)
    alive = np.ones(n, dtype=bool)
    sinks: list[np.ndarray] = []
    sources: list[np.ndarray] = []
    left = n
    while True:
        sink = alive & (np.bincount(src, minlength=n) == 0)
        source = alive & (np.bincount(dst, minlength=n) == 0) & ~sink
        sinks.append(np.flatnonzero(sink))
        sources.append(np.flatnonzero(source))
        peeled = len(sinks[-1]) + len(sources[-1])
        alive &= ~(sink | source)
        left -= peeled
        if peeled:
            live = alive[src] & alive[dst]
            src, dst = src[live], dst[live]
        if not left or peeled * 32 < left:
            break
    label = np.empty(n, dtype=np.int64)
    low = np.concatenate(sinks)
    label[low] = np.arange(len(low))
    top = len(low)
    if left:
        core = np.flatnonzero(alive)
        pos = np.cumsum(alive) - 1
        inner = _core_labels(left, pos[src], pos[dst])
        label[core] = top + inner
        top += int(inner.max()) + 1
    high = np.concatenate(sources[::-1])
    label[high] = top + np.arange(len(high))
    return label


def _core_labels(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """``scc_labels`` phases 2 and 3 on the core left by trimming."""
    if n + len(src) < _SCC_CROSSOVER:
        return _tarjan(n, src, dst)
    pivot = int(np.argmax(np.bincount(src, minlength=n) * np.bincount(dst, minlength=n)))
    # Both searches in one: vertices n..2n-1 are a reversed copy of the core.
    both_src, both_dst = np.concatenate((src, dst + n)), np.concatenate((dst, src + n))
    seen = _reach(2 * n, both_src, both_dst, [pivot, pivot + n], len(both_src) + 24 * n)
    if seen is None:
        return _tarjan(n, src, dst)
    giant = seen[:n] & seen[n:]
    # Vertex 0 of the quotient is the giant; the others keep their order.
    rest = ~giant
    quot = np.cumsum(rest)
    quot[giant] = 0
    qs, qd = quot[src], quot[dst]
    between = qs != qd
    return _tarjan(int(rest.sum()) + 1, qs[between], qd[between])[quot]


def _reach(n: int, src: np.ndarray, dst: np.ndarray, roots: list[int], budget: int) -> Optional[np.ndarray]:
    """Vertices reachable from ``roots``, breadth-first over CSR lists, or None
    once the arcs scanned plus ``_LEVEL_CHARGE`` per level would pass ``budget``."""
    succ = np.sort(src * n + dst) % n  # one sort of the arc keys orders the heads by tail
    start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=start[1:])
    degree = np.diff(start)
    seen = np.zeros(n, dtype=bool)
    seen[roots] = True
    first = np.empty(n, dtype=np.int64)
    frontier = np.array(roots, dtype=np.int64)
    while True:
        count = degree[frontier]
        ends = np.cumsum(count)
        scanned = int(ends[-1])
        budget -= scanned + _LEVEL_CHARGE
        if budget < 0:
            return None
        nbr = succ[np.repeat(start[frontier] - ends + count, count) + np.arange(scanned)]
        nbr = nbr[~seen[nbr]]
        if not len(nbr):
            return seen
        # Each new vertex once: whichever of its positions is written last.
        slots = np.arange(len(nbr))
        first[nbr] = slots
        frontier = nbr[first[nbr] == slots]
        seen[frontier] = True


def _tarjan(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """``scc_labels`` by Tarjan's algorithm, iterative, over CSR successor lists.

    Labels number the components in the order Tarjan completes them, so every
    arc between two components runs from the higher label to the lower.  A
    vertex is on the Tarjan stack exactly when it has an index and no label yet.
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

"""Colorings, partial partitions, refinement, and the completion/drop maps.

A partial partition is a partition of a subset of 1..n.  Blocks are stored
sorted by smallest element; block order never carries meaning.  Printing uses
bar notation ("13|2"), with an empty partition printed as the empty-set sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence


class PartitionError(ValueError):
    pass


@dataclass(frozen=True)
class Coloring:
    """Vertex labels for 1..n; labels[v-1] is the color of vertex v."""

    labels: tuple[int, ...]

    def __init__(self, labels: Sequence[int]):
        object.__setattr__(self, "labels", tuple(labels))

    @property
    def n(self) -> int:
        return len(self.labels)

    def color_of(self, v: int) -> int:
        if not 1 <= v <= self.n:
            raise PartitionError(f"vertex {v} outside 1..{self.n}")
        return self.labels[v - 1]

    def colors(self) -> frozenset[int]:
        return frozenset(self.labels)

    def preimage(self, color: int) -> frozenset[int]:
        return frozenset(v for v in range(1, self.n + 1) if self.labels[v - 1] == color)


def canonicalize(c: Coloring) -> Coloring:
    """Renumber colors by first occurrence: the restricted growth form.

    Idempotent, and invariant under any injective relabeling of colors.
    """
    mapping: dict[int, int] = {}
    out = []
    for label in c.labels:
        if label not in mapping:
            mapping[label] = len(mapping) + 1
        out.append(mapping[label])
    return Coloring(out)


def relabel(c: Coloring, mapping: Mapping[int, int]) -> Coloring:
    return Coloring([mapping[x] for x in c.labels])


@dataclass(frozen=True)
class PartialPartition:
    n: int
    blocks: tuple[frozenset[int], ...]

    def __init__(self, n: int, blocks: Iterable[Iterable[int]]):
        norm = []
        seen: set[int] = set()
        for b in blocks:
            fs = frozenset(int(x) for x in b)
            if not fs:
                raise PartitionError("blocks must be nonempty")
            if not all(1 <= x <= n for x in fs):
                raise PartitionError(f"block {sorted(fs)} outside 1..{n}")
            if fs & seen:
                raise PartitionError("blocks must be pairwise disjoint")
            seen |= fs
            norm.append(fs)
        norm.sort(key=min)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "blocks", tuple(norm))

    @property
    def support(self) -> frozenset[int]:
        return frozenset().union(*self.blocks)

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def is_full(self) -> bool:
        return len(self.support) == self.n

    def block_of(self, v: int) -> frozenset[int] | None:
        for b in self.blocks:
            if v in b:
                return b
        return None

    def __str__(self) -> str:
        if not self.blocks:
            return "∅"
        sep = "" if self.n <= 9 else ","
        return "|".join(sep.join(str(x) for x in sorted(b)) for b in self.blocks)


def discrete_partition(n: int) -> PartialPartition:
    return PartialPartition(n, [{v} for v in range(1, n + 1)])


def color_blocks(colors: Mapping[int, int], kept: Iterable[int]) -> list[frozenset[int]]:
    """One block per kept color with nonempty preimage, ordered by color.

    ``colors`` maps each vertex to its color; vertex ids need not be 1..n.
    """
    kept = frozenset(kept)
    blocks: dict[int, set[int]] = {}
    for v, c in colors.items():
        if c in kept:
            blocks.setdefault(c, set()).add(v)
    return [frozenset(blocks[c]) for c in sorted(blocks)]


def partition_from_labels(c: Coloring, colors: Iterable[int]) -> PartialPartition:
    """One block per kept color with nonempty preimage, ordered by color."""
    return PartialPartition(c.n, color_blocks(dict(enumerate(c.labels, 1)), colors))


def refines(a: PartialPartition, b: PartialPartition) -> bool:
    """True iff every block of a is contained in some block of b."""
    if a.n != b.n:
        raise PartitionError(f"ground sets differ ({a.n} vs {b.n})")
    for block in a.blocks:
        v = min(block)
        home = b.block_of(v)
        if home is None or not block <= home:
            return False
    return True


def complete_partial(p: PartialPartition) -> PartialPartition:
    """Fill a partial partition of 1..n into a full partition of 1..n+1.

    Every uncovered element (including the new n+1) becomes a singleton.
    """
    n1 = p.n + 1
    blocks = [set(b) for b in p.blocks]
    for v in range(1, n1 + 1):
        if all(v not in b for b in blocks):
            blocks.append({v})
    return PartialPartition(n1, blocks)


def drop_element(t: PartialPartition) -> PartialPartition:
    """Remove the top element n+1 from a full partition of 1..n+1."""
    if t.n < 1:
        raise PartitionError("nothing to drop from an empty ground set")
    if not t.is_full():
        raise PartitionError("drop_element expects a full partition")
    top = t.n
    blocks = []
    for b in t.blocks:
        reduced = b - {top}
        if reduced:
            blocks.append(reduced)
    return PartialPartition(t.n - 1, blocks)


def all_partitions(n: int):
    """All full partitions of 1..n, via restricted growth strings."""
    if n == 0:
        yield PartialPartition(0, [])
        return
    rgs = [0] * n

    def emit():
        blocks: dict[int, set[int]] = {}
        for v in range(1, n + 1):
            blocks.setdefault(rgs[v - 1], set()).add(v)
        return PartialPartition(n, [blocks[k] for k in sorted(blocks)])

    def rec(i: int, m: int):
        if i == n:
            yield emit()
            return
        for val in range(m + 1):
            rgs[i] = val
            yield from rec(i + 1, m + 1 if val == m else m)

    yield from rec(1, 1)


def all_partial_partitions(n: int):
    """All partial partitions of 1..n (partitions of every subset)."""
    elems = list(range(1, n + 1))
    for mask in range(1 << n):
        subset = [elems[i] for i in range(n) if mask >> i & 1]
        yield from _partitions_of(subset, n)


def _partitions_of(subset: list[int], n: int):
    if not subset:
        yield PartialPartition(n, [])
        return
    first, rest = subset[0], subset[1:]
    for sub in _partitions_of(rest, n):
        blocks = [set(b) for b in sub.blocks]
        yield PartialPartition(n, blocks + [{first}])
        for i in range(len(blocks)):
            grown = [set(b) for b in blocks]
            grown[i].add(first)
            yield PartialPartition(n, grown)

"""Directed temporal contact networks and their detours and contractions.

A contact network is a finite set of (source, target, time) triples, held as
sorted numpy columns (see ``DTCN``).  Its layered (temporal) digraph has one
vertex per (vertex, fiber time) pair, temporal arcs chaining consecutive times
at a vertex, and one spatial arc per contact; time-respecting paths of the
network are ordinary paths there.

Detouring a vertex set bypasses all of its layers inside the layered digraph
and reads each surviving cross-vertex arc back as a contact stamped with the
later of its two layer times: a path abstraction, by the static lane's core
``pabstract.abstraction_pairs`` (see ``_detour_columns``).  ``dtcn_detour``
and ``dtcn_path_abstract`` run one body, ``_abstracted``, as the static
``path_abstract`` does: one block map, one core call, one sort.  The detour
keeps each survivor as its own block, and the abstraction equals
``dtcn_contract`` after ``dtcn_detour``.  The layered digraph itself is built
only for inspection and as the test oracle.
Sentinel times are the IEEE infinities; contact times must be finite and
sentinels are never serialized.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .digraph import Digraph, DigraphError, _starts, contracted_ends, pair_order
from .pabstract import _block_columns, _block_map, abstraction_pairs
from .partitions import PartialPartition, PartitionError
from .random import GnpModel, sample_arcs, trial_rng

NEG_INF = float("-inf")
POS_INF = float("inf")


class TemporalError(ValueError):
    pass


class TemporalInvariantError(RuntimeError):
    """An impossible layered configuration; indicates a bug, not bad input."""


@contextmanager
def _temporal_errors():
    """A ``DigraphError`` of the shared digraph helpers, such as a vertex id beyond int64,
    raised again as a ``TemporalError``."""
    try:
        yield
    except DigraphError as exc:
        raise TemporalError(str(exc)) from exc


@dataclass(frozen=True, order=True)
class Contact:
    source: int
    target: int
    time: float

    def __post_init__(self):
        if self.source == self.target:
            raise TemporalError(f"contact at {self.time} loops on vertex {self.source}")
        if not math.isfinite(self.time):
            raise TemporalError("contact times must be finite")


class DTCN:
    """A vertex set plus a finite set of distinct timed contacts.

    The contacts are read-only columns ``src``, ``dst`` (int64) and ``time``
    sorted by (source, target, time); ``contacts`` is the same set as
    ``Contact`` values, built on first use.  A detour may leave no contacts;
    parsers and samplers reject empty networks at the interface instead.
    """

    def __init__(self, vertices: Iterable[int], contacts: Iterable[Contact]):
        vertices, contacts = frozenset(vertices), frozenset(contacts)
        for c in contacts:
            if c.source not in vertices or c.target not in vertices:
                raise TemporalError(f"contact {c} leaves the vertex set")
        columns = [[getattr(c, f) for c in contacts] for f in ("source", "target", "time")]
        # the columns as ``_of`` builds them, and the given set as the cached ``contacts``
        vars(self).update(vars(DTCN._of(vertices, *columns)), contacts=contacts)

    @classmethod
    def _of(cls, vertices: frozenset[int], src, dst, time) -> "DTCN":
        """A network from unchecked columns in any order, repeats allowed.

        A run of repeats that mixes 0.0 and -0.0 keeps 0.0, so the result does
        not depend on the order the columns come in.
        """
        src, dst, time = np.asarray(src, "i8"), np.asarray(dst, "i8"), np.asarray(time, "f8")
        order = pair_order(src, dst, time)
        src, dst, time = src[order], dst[order], time[order]
        fresh = _starts(src, dst, time)
        starts = np.flatnonzero(fresh)
        if len(starts) < len(time):  # repeats differ at most in a zero's sign: AND-ed bits keep 0.0
            time = np.bitwise_and.reduceat(time.view(np.int64), starts).view(np.float64)
        else:
            time = time[starts]
        d = cls.__new__(cls)
        d.vertices, d.src, d.dst, d.time = vertices, src[fresh], dst[fresh], time
        d.src.flags.writeable = d.dst.flags.writeable = d.time.flags.writeable = False
        return d

    @staticmethod
    def build(n: int, triples: Iterable[tuple[int, int, float]]) -> "DTCN":
        return DTCN(range(1, n + 1), (Contact(int(s), int(t), float(tau)) for s, t, tau in triples))

    @property
    def n(self) -> int:
        return len(self.vertices)

    @cached_property
    def contacts(self) -> frozenset[Contact]:
        return frozenset(Contact(*row) for row in self.triples())

    def triples(self) -> list[tuple[int, int, float]]:
        return list(zip(self.src.tolist(), self.dst.tolist(), self.time.tolist()))

    def __eq__(self, other):
        if not isinstance(other, DTCN):
            return NotImplemented
        return self.vertices == other.vertices and self.triples() == other.triples()

    def __hash__(self):
        return hash((self.vertices, len(self.src)))


def temporal_fiber(d: DTCN, v: int) -> tuple[float, ...]:
    """Times at which v touches a contact, wrapped in -inf/+inf sentinels."""
    if v not in d.vertices:
        raise TemporalError(f"vertex {v} is not in the network")
    return (NEG_INF, *np.unique(d.time[(d.src == v) | (d.dst == v)]).tolist(), POS_INF)


@dataclass(frozen=True)
class TemporalDigraph:
    """The layered digraph of a contact network."""

    layers: tuple[tuple[int, float], ...]
    spatial_arcs: frozenset[tuple[tuple[int, float], tuple[int, float]]]
    temporal_arcs: frozenset[tuple[tuple[int, float], tuple[int, float]]]

    @property
    def vertex_count(self) -> int:
        return len(self.layers)

    @property
    def arc_count(self) -> int:
        return len(self.spatial_arcs) + len(self.temporal_arcs)

    def to_digraph(self) -> tuple[Digraph, dict[tuple[int, float], int]]:
        """Boolean digraph over layer indices (1-based, sorted layer order)."""
        index = {layer: i + 1 for i, layer in enumerate(self.layers)}
        arcs = {(index[a], index[b]): 1 for a, b in self.spatial_arcs | self.temporal_arcs}
        return Digraph.build(len(self.layers), arcs), index


def build_temporal_digraph(d: DTCN) -> TemporalDigraph:
    """All fibers from one sort of the (vertex, time) endpoints plus sentinels.

    Sorted layers of one vertex are its fiber in order, so the temporal arcs
    are the consecutive layer pairs that share a vertex.
    """
    heads = list(zip(d.src.tolist(), d.time.tolist()))
    tails = list(zip(d.dst.tolist(), d.time.tolist()))
    sentinels = [(v, t) for v in d.vertices for t in (NEG_INF, POS_INF)]
    layers = tuple(sorted({*heads, *tails, *sentinels}))
    temporal = frozenset((a, b) for a, b in zip(layers, layers[1:]) if a[0] == b[0])
    return TemporalDigraph(layers, frozenset(zip(heads, tails)), temporal)


def _detour_columns(d: DTCN, from_drop: np.ndarray, to_drop: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cross-vertex arcs of the layered digraph after bypassing the dropped layers.

    ``from_drop`` and ``to_drop`` mark the contacts whose tail and head are
    dropped.  Survivor-to-survivor contacts stay.  The rest go to
    ``abstraction_pairs`` as the layered digraph of the dropped layers: a node
    per (dropped vertex, time) at which a contact arrives, an arc to its
    vertex's next node, and a contact leaving w at t leaves w's latest node at
    or before t (no contact enters the layers between), or is dead.  Inner
    contacts are arcs; an entry or exit contact is a block with one arc to its
    head's node or from its tail's.  A pair (entry j, exit k) reads back as
    (source j, target k, time k).

    The result is two index columns (i, k): each arc is the contact
    (``d.src[i]``, ``d.dst[k]``, ``d.time[k]``).  They may repeat an arc, and
    a read-back pair may join a vertex to itself, which callers drop.
    """
    kept = np.flatnonzero(~(from_drop | to_drop))
    arrive, leave = np.flatnonzero(to_drop), np.flatnonzero(from_drop)
    if not len(arrive) or not len(leave):
        return kept, kept
    # events by (vertex, time): a quicksort on time, then a stable sort on the vertex
    vertex, time = np.concatenate((d.dst[arrive], d.src[leave])), d.time[np.concatenate((arrive, leave))]
    order = np.argsort(time)
    order = order[np.argsort(vertex[order], kind="stable")]
    vertex, time = vertex[order], time[order]
    first = _starts(vertex, time)  # the first event of its (vertex, time)
    group = np.cumsum(first) - 1
    arrived = np.zeros(group[-1] + 1, dtype=bool)  # the (vertex, time) groups that are nodes
    arrived[group[order < len(arrive)]] = True
    node = (np.cumsum(arrived) - 1)[group]
    at_node = vertex[first][arrived]
    node[(node < 0) | (at_node[node] != vertex)] = -1  # leaves before its vertex's first arrival
    node[order] = node.copy()
    # an entry or exit contact is a block, vertex n + its index; every swept contact is one arc
    n, outer, swept = len(at_node), to_drop != from_drop, from_drop | to_drop
    blocks = np.flatnonzero(outer)
    tail = n - 1 + np.cumsum(outer)
    head = tail.copy()
    head[arrive], tail[leave] = node[: len(arrive)], node[len(arrive) :]
    fiber = np.flatnonzero(at_node[1:] == at_node[:-1])
    src, dst = np.concatenate((fiber, tail[swept])), np.concatenate((fiber + 1, head[swept]))
    live = src >= 0
    m = len(blocks)
    block_of = np.concatenate((np.full(n, -1), np.arange(m)))
    j, k = np.divmod(abstraction_pairs(src[live], dst[live], block_of, m), m)
    j, k = blocks[j], blocks[k]
    early = np.flatnonzero(d.time[k] < d.time[j])
    if len(early):
        raise TemporalInvariantError(f"exit at {d.time[k][early[0]]} precedes its entry at {d.time[j][early[0]]}")
    return np.concatenate((kept, j)), np.concatenate((kept, k))


def dtcn_detour(d: DTCN, drop: Iterable[int]) -> DTCN:
    """Bypass every layer of the dropped vertices; read arcs back as contacts.

    The temporal path abstraction with each survivor its own block, named by
    itself (``_abstracted``): the whole set is bypassed at once by one
    ``abstraction_pairs`` call (see ``_detour_columns``).  Folding
    single-vertex detours is a different (noncommuting) operation, so
    sequencing matters to callers who do it.
    """
    drop_set = frozenset(drop)
    extra = drop_set - d.vertices
    if extra:
        raise TemporalError(f"vertices {sorted(extra)} are not in the network")
    kept = list(d.vertices - drop_set)
    return _abstracted(d, kept, np.arange(len(kept)), kept)


def naive_dtcn_detour(d: DTCN, v: int) -> DTCN:
    """The tempting single-vertex rule, kept only for differential tests.

    Splices (j, v, t1) with (v, k, t2) into (j, k, t2) whenever t1 <= t2.
    Already fails to match the layered construction on sets of size two.
    """
    if v not in d.vertices:
        raise TemporalError(f"vertex {v} is not in the network")
    into = [c for c in d.contacts if c.target == v]
    outof = [c for c in d.contacts if c.source == v]
    kept = {c for c in d.contacts if v not in (c.source, c.target)}
    spliced = ((a, b) for a in into for b in outof if a.source != b.target and a.time <= b.time)
    kept |= {Contact(a.source, b.target, b.time) for a, b in spliced}
    return DTCN(d.vertices - {v}, kept)


def dtcn_contract(d: DTCN, blocks: Sequence[Iterable[int]]) -> DTCN:
    """Re-address contacts to block representatives, as ``digraph.contract_blocks`` does
    arcs (``digraph.contracted_ends``); internal contacts drop."""
    with _temporal_errors():
        _, vertices, src, dst = contracted_ends(d.vertices, blocks, d.src, d.dst)
    cross = src != dst
    return DTCN._of(vertices, src[cross], dst[cross], d.time[cross])


def dtcn_path_abstract(d: DTCN, p: PartialPartition) -> DTCN:
    """Detour everything outside the support, then contract the blocks, in one pass:
    ``_abstracted`` on the partition's blocks (``pabstract._block_columns``).  It equals
    ``dtcn_contract(dtcn_detour(d, outside), blocks)``.
    """
    if not p.support <= d.vertices:
        raise PartitionError("partition support must lie inside the vertex set")
    return _abstracted(d, *_block_columns(p.blocks))


def _abstracted(d: DTCN, members: list[int], blocks: np.ndarray, reps: list[int]) -> DTCN:
    """The path abstraction of d keeping ``members[i]`` in block ``blocks[i]``, named ``reps[j]``.

    One block map of d's vertex positions (``pabstract._block_map``) marks the dropped contact
    ends for ``_detour_columns`` and maps the kept contacts and the read-back pairs to block
    representatives; contacts inside a block drop, and one sort builds the result."""
    with _temporal_errors():  # d's ids are checked before the members are made int64
        src, dst, block_of = _block_map(d, members, blocks)
    i, k = _detour_columns(d, block_of[src] < 0, block_of[dst] < 0)
    tails, heads = block_of[src[i]], block_of[dst[k]]
    cross = tails != heads
    rep = np.array(reps, dtype=np.int64)
    return DTCN._of(frozenset(reps), rep[tails[cross]], rep[heads[cross]], d.time[k[cross]])


def sample_dtcn(n: int, p: float, mode: str, seed: int, max_retries: int = 0) -> DTCN:
    """Random contact network on 1..n with times uniform in [0, 1].

    ``uniform`` makes each ordered pair a contact with probability p, drawn
    sparsely by ``random.sample_arcs``; ``poisson`` draws a Poisson(p*n*(n-1))
    total and that many ordered pairs with replacement, which is the law of
    independent Poisson(p) counts per pair.  Both have p*n*(n-1) expected
    contacts, and time and memory are linear in the contact count.  An empty
    draw raises unless retries remain; ``max_retries`` must be nonnegative.
    """
    if not 0.0 <= p <= 1.0:
        raise TemporalError("p must lie in [0, 1]")
    if mode not in ("uniform", "poisson"):
        raise TemporalError(f"unknown mode {mode!r}; use uniform or poisson")
    if max_retries < 0:
        raise TemporalError(f"max_retries must be >= 0, got {max_retries}")
    model = GnpModel(n, p)
    for attempt in range(max_retries + 1):
        rng = trial_rng(seed, attempt)
        if mode == "uniform":
            src, dst = sample_arcs(model, rng)
        else:
            total = rng.poisson(p * n * (n - 1))
            src = rng.integers(0, n, size=total)
            dst = rng.integers(0, n - 1, size=total)
            dst += dst >= src
        if len(src):
            return DTCN._of(frozenset(range(1, n + 1)), src + 1, dst + 1, rng.random(len(src)))
    raise TemporalError(f"sampled an empty contact network (p={p}); raise max_retries or p")


def temporal_path_probability(p: float, length: int) -> float:
    """Chance that a fixed path is realized time-coherently: p^len / len!.

    Arc presence contributes p per hop; conditional on presence, the uniform
    times arrive in ascending order with probability 1/len!.
    """
    if length < 1:
        raise TemporalError("path length must be >= 1")
    if not 0.0 <= p <= 1.0:
        raise TemporalError("p must lie in [0, 1]")
    return p**length / math.factorial(length)


def lint_equal_time_chains(d: DTCN) -> list[tuple[Contact, Contact]]:
    """Contact pairs chained head-to-tail at exactly the same instant.

    The layered digraph treats such chains as traversable; files that rely on
    simultaneous hops deserve a warning rather than silent acceptance.  Each
    contact's (target, time) is looked up among the stably sorted (source, time).
    """
    # ranks of times and of vertex ids keep the joined keys below len(d.src) ** 2 * 2
    _, rank = np.unique(d.time, return_inverse=True)
    _, ids = np.unique(np.r_[d.src, d.dst], return_inverse=True)
    leave, arrive = (ends * (len(rank) + 1) + rank for ends in np.split(ids, 2))
    order = np.argsort(leave, kind="stable")
    lo, hi = (np.searchsorted(leave[order], arrive, side) for side in ("left", "right"))
    hits = [(i, j) for i in np.flatnonzero(hi > lo).tolist() for j in order[lo[i] : hi[i]].tolist()]
    rows = d.triples() if hits else []
    return [(Contact(*rows[i]), Contact(*rows[j])) for i, j in hits]

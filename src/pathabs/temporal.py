"""Directed temporal contact networks and their detours and contractions.

A contact network is a finite set of (source, target, time) triples.  Its
layered (temporal) digraph has one vertex per (vertex, fiber time) pair,
temporal arcs chaining consecutive times at a vertex, and one spatial arc per
contact; time-respecting paths of the network are ordinary paths there.

Detouring a vertex set bypasses all of its layers inside the layered digraph
and reads each surviving cross-vertex arc back as a contact stamped with the
later of its two layer times.  Inside the dropped layers an arc either climbs
a fiber, to a strictly later time, or is a contact, at one instant; so every
cycle stays within one instant, and the detour is one sweep over the contacts
in descending time that closes each instant's cycles by a small search.  The
layered digraph itself is built only for inspection and as the test oracle.
Sentinel times are the IEEE infinities; contact times must be finite and
sentinels are never serialized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .digraph import Digraph
from .partitions import PartialPartition, PartitionError
from .random import GnpModel, sample_arcs, trial_rng

NEG_INF = float("-inf")
POS_INF = float("inf")


class TemporalError(ValueError):
    pass


class TemporalInvariantError(RuntimeError):
    """An impossible layered configuration; indicates a bug, not bad input."""


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


@dataclass(frozen=True)
class DTCN:
    """A vertex set plus a finite set of distinct timed contacts.

    Detour results may legitimately have no contacts left; parsers and
    samplers reject empty networks at the interface instead.
    """

    vertices: frozenset[int]
    contacts: frozenset[Contact]

    def __post_init__(self):
        for c in self.contacts:
            if c.source not in self.vertices or c.target not in self.vertices:
                raise TemporalError(f"contact {c} leaves the vertex set")

    @staticmethod
    def build(n: int, triples: Iterable[tuple[int, int, float]]) -> "DTCN":
        contacts = frozenset(Contact(int(s), int(t), float(tau)) for s, t, tau in triples)
        return DTCN(frozenset(range(1, n + 1)), contacts)

    @property
    def n(self) -> int:
        return len(self.vertices)

    def triples(self) -> list[tuple[int, int, float]]:
        return sorted((c.source, c.target, c.time) for c in self.contacts)


def temporal_fiber(d: DTCN, v: int) -> tuple[float, ...]:
    """Times at which v touches a contact, wrapped in -inf/+inf sentinels."""
    if v not in d.vertices:
        raise TemporalError(f"vertex {v} is not in the network")
    times = {c.time for c in d.contacts if c.source == v or c.target == v}
    return (NEG_INF, *sorted(times), POS_INF)


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
        arcs = {}
        for a, b in self.spatial_arcs | self.temporal_arcs:
            arcs[(index[a], index[b])] = 1
        return Digraph.build(len(self.layers), arcs), index


def build_temporal_digraph(d: DTCN) -> TemporalDigraph:
    """All fibers from one sort of the (vertex, time) endpoints plus sentinels.

    Sorted layers of one vertex are its fiber in order, so the temporal arcs
    are the consecutive layer pairs that share a vertex.
    """
    ends = {(v, c.time) for c in d.contacts for v in (c.source, c.target)}
    sentinels = [(v, t) for v in d.vertices for t in (NEG_INF, POS_INF)]
    layers = tuple(sorted([*ends, *sentinels]))
    temporal = frozenset((a, b) for a, b in zip(layers, layers[1:]) if a[0] == b[0])
    spatial = {((c.source, c.time), (c.target, c.time)) for c in d.contacts}
    return TemporalDigraph(layers, frozenset(spatial), temporal)


def _detour_triples(d: DTCN, drop: frozenset[int]) -> set[tuple[int, int, float]]:
    """Cross-vertex arcs of the layered digraph after bypassing drop's layers.

    Survivor-to-survivor contacts stay.  An entry contact (x, u, t1) into a
    dropped u yields (x, y, t2) for every exit contact (w, y, t2) that a path
    through dropped layers joins it to.  Such a path climbs fibers, which is
    strictly later, or takes an inner contact, which keeps the time; so t2 >= t1,
    every cycle lies within one instant, and descending time orders the rest.

    One sweep over the contacts from the latest time to the earliest keeps
    ``reach[u]``, the exits reachable from u's layer at the current time or
    later.  At each instant, exits first join their source's reach; then the
    inner contacts of that instant are closed by a small search, each source
    taking the union of reach over the dropped vertices it reaches; last,
    entries emit their triples.
    """
    triples: set[tuple[int, int, float]] = set()
    by_time: dict[float, list[tuple[int, int]]] = {}
    for c in d.contacts:
        if c.source in drop or c.target in drop:
            by_time.setdefault(c.time, []).append((c.source, c.target))
        else:
            triples.add((c.source, c.target, c.time))
    reach: dict[int, set[tuple[int, float]]] = {}
    for tau in sorted(by_time, reverse=True):
        inner: dict[int, list[int]] = {}
        entries = []
        for s, t in by_time[tau]:
            if t not in drop:
                reach.setdefault(s, set()).add((t, tau))
            elif s in drop:
                inner.setdefault(s, []).append(t)
            else:
                entries.append((s, t))
        for u in inner:
            seen = {u}
            stack = [u]
            while stack:
                for w in inner.get(stack.pop(), ()):
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            # in place is exact: whatever w in seen reaches, u reaches too, so
            # w's reach, before or after its own closure, lies in u's new one
            seen.discard(u)
            found = reach.setdefault(u, set())
            for w in seen:
                found.update(reach.get(w, ()))
        for x, u in entries:
            for y, t2 in reach.get(u, ()):
                if t2 < tau:
                    raise TemporalInvariantError(f"exit at {t2} precedes its entry at {tau}")
                if y != x:
                    triples.add((x, y, t2))
    return triples


def dtcn_detour(d: DTCN, drop: Iterable[int]) -> DTCN:
    """Bypass every layer of the dropped vertices; read arcs back as contacts.

    The whole set is bypassed at once, by one descending-time sweep over the
    contacts that equals bypassing its layers in the layered digraph: a cycle
    through dropped layers cannot climb a fiber, which always goes later, so
    it stays within one instant (see ``_detour_triples``).  Folding
    single-vertex detours is a different (noncommuting) operation, so
    sequencing matters to callers who do it.
    """
    drop_set = frozenset(drop)
    extra = drop_set - d.vertices
    if extra:
        raise TemporalError(f"vertices {sorted(extra)} are not in the network")
    if not drop_set:
        return d
    triples = _detour_triples(d, drop_set)
    survivors = d.vertices - drop_set
    return DTCN(survivors, frozenset(Contact(s, t, tau) for s, t, tau in triples))


def naive_dtcn_detour(d: DTCN, v: int) -> DTCN:
    """The tempting single-vertex rule, kept only for differential tests.

    Splices (j, v, t1) with (v, k, t2) into (j, k, t2) whenever t1 <= t2.
    Already fails to match the layered construction on sets of size two.
    """
    if v not in d.vertices:
        raise TemporalError(f"vertex {v} is not in the network")
    kept = {c for c in d.contacts if c.source != v and c.target != v}
    into = [c for c in d.contacts if c.target == v]
    outof = [c for c in d.contacts if c.source == v]
    for a in into:
        for b in outof:
            if a.source != b.target and a.time <= b.time:
                kept.add(Contact(a.source, b.target, b.time))
    return DTCN(d.vertices - {v}, frozenset(kept))


def dtcn_contract(d: DTCN, blocks: Sequence[Iterable[int]]) -> DTCN:
    """Re-address contacts to block representatives; internal contacts drop."""
    norm = []
    seen: set[int] = set()
    for b in blocks:
        fs = frozenset(int(x) for x in b)
        if not fs:
            raise TemporalError("blocks must be nonempty")
        if not fs <= d.vertices:
            raise TemporalError(f"block {sorted(fs)} leaves the vertex set")
        if fs & seen:
            raise TemporalError("blocks must be pairwise disjoint")
        seen |= fs
        norm.append(fs)
    vmap = {v: v for v in d.vertices}
    for fs in norm:
        rep = min(fs)
        for m in fs:
            vmap[m] = rep
    contacts = set()
    for c in d.contacts:
        s, t = vmap[c.source], vmap[c.target]
        if s != t:
            contacts.add(Contact(s, t, c.time))
    return DTCN(frozenset(vmap.values()), frozenset(contacts))


def dtcn_path_abstract(d: DTCN, p: PartialPartition) -> DTCN:
    """Detour everything outside the support, then contract the blocks."""
    if not p.support <= d.vertices:
        raise PartitionError("partition support must lie inside the vertex set")
    outside = d.vertices - p.support
    return dtcn_contract(dtcn_detour(d, outside), list(p.blocks))


def sample_dtcn(
    n: int, p: float, mode: str, seed: int, max_retries: int = 0
) -> DTCN:
    """Random contact network on 1..n with times uniform in [0, 1].

    ``uniform`` makes each ordered pair a contact with probability p, drawn
    sparsely by ``random.sample_arcs``; ``poisson`` draws a Poisson(p*n*(n-1))
    total and that many ordered pairs with replacement, which is the law of
    independent Poisson(p) counts per pair.  Both have p*n*(n-1) expected
    contacts, and time and memory are linear in the contact count.  An empty
    draw raises unless retries remain.
    """
    if not 0.0 <= p <= 1.0:
        raise TemporalError("p must lie in [0, 1]")
    if mode not in ("uniform", "poisson"):
        raise TemporalError(f"unknown mode {mode!r}; use uniform or poisson")
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
            times = rng.random(len(src))
            return DTCN.build(n, zip((src + 1).tolist(), (dst + 1).tolist(), times.tolist()))
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
    simultaneous hops deserve a warning rather than silent acceptance.
    """
    by_source: dict[tuple[int, float], list[Contact]] = {}
    for c in d.contacts:
        by_source.setdefault((c.source, c.time), []).append(c)
    flagged = []
    for c in d.contacts:
        for nxt in by_source.get((c.target, c.time), ()):
            flagged.append((c, nxt))
    flagged.sort(key=lambda pair: (pair[0].source, pair[0].target, pair[0].time,
                                   pair[1].source, pair[1].target))
    return flagged

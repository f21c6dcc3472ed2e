"""The four workloads of the pathabs benchmark.

A workload makes input ``i`` of a run from the run's seed, makes one call
into the package with it, and checks the output outside the timed region.
Edge-list and contact-CSV inputs are generated here with numpy, not with the
package's samplers, so a change to a sampler cannot change them.  Every call
gets a fresh input: the cost of one path abstraction varies by about a fifth
from input to input, and a run's median settles only over many inputs.

Why these four:

- ``mc-n300`` is criterion 7's Monte Carlo shape; its cost is the dense block
  merge inside ``random``, with ``_kernels`` sampling and bypassing.
- ``scc-n2000`` is the giant strong-component estimate; its cost is dense
  sampling, the dense-to-dict conversion and one ``Digraph`` build per trial,
  and it never runs the block merge.
- ``pabstract-n1000`` is the dict lane as ``pathabs pabstract`` runs it
  (parse, path-abstract, serialize); each detour rebuilds and re-validates a
  whole ``Digraph``.  It runs no ``_kernels`` code.
- ``dtcn-n400`` is the only workload that runs ``temporal``, and gives
  ``formats`` a contact-heavy use.
"""

from __future__ import annotations

import statistics
from pathlib import Path

import numpy as np

from pathabs import PartialPartition, _kernels, formats, pabstract, temporal
from pathabs import random as prandom
from pathabs.digraph import Digraph, contract_blocks
from pathabs.partitions import partition_from_labels
from pathabs.temporal import DTCN, build_temporal_digraph


def _rng(seed: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, i])


def _call_seed(seed: int, i: int) -> int:
    return seed * 1_000_003 + i


class MonteCarlo:
    """Sampled path abstractions of G(300, 0.02): singletons on 1..270."""

    name = "mc-n300"
    unit = "trials"
    band_sigmas = 3.0

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.n, self.p, self.kept, self.batch = (60, 0.1, 54, 8) if tiny else (300, 0.02, 270, 8)
        self.items_per_call = self.batch
        self.sizes = {"n": self.n, "p": self.p, "kept": self.kept, "trials_per_call": self.batch}
        self.model = prandom.GnpModel(self.n, self.p)
        self.partition = PartialPartition(self.n, [{v} for v in range(1, self.kept + 1)])
        self.frequencies: list[float] = []
        self.first = None

    def warm_up(self, inp) -> None:
        self.call(inp)

    def input(self, i: int) -> int:
        return _call_seed(self.seed, i)

    def call(self, seed: int) -> tuple[float, ...]:
        # Only the per-trial frequencies are kept: holding every call's
        # pair-frequency table would grow the peak RSS with the run length.
        return prandom.monte_carlo_abstraction(self.model, self.partition, self.batch, seed=seed).frequencies

    def check(self, seed: int, out: tuple[float, ...]) -> bool:
        self.frequencies.extend(out)
        self.first = self.first or (seed, out)
        return len(out) == self.batch and all(0.0 <= f <= 1.0 for f in out)

    def run_checks(self) -> dict[str, bool]:
        pred = prandom.arc_survival_iterate(self.p, self.n - self.kept)
        spread = statistics.stdev(self.frequencies) if len(self.frequencies) > 1 else 0.0
        band = abs(statistics.fmean(self.frequencies) - pred) <= self.band_sigmas * spread
        # Per-trial generators make results independent of the worker count.
        seed, out = self.first
        serial = prandom.monte_carlo_abstraction(self.model, self.partition, self.batch, seed, workers=0)
        threaded = prandom.monte_carlo_abstraction(self.model, self.partition, self.batch, seed, workers=2)
        same = serial.frequencies == threaded.frequencies == out
        return {"survival_band": band, "workers_agree": same}


class GiantComponent:
    """Largest strong-component fraction of G(2000, 2/2000)."""

    name = "scc-n2000"
    unit = "trials"
    tolerance = 0.05

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.n, self.c, self.batch = (300, 2.0, 4) if tiny else (2000, 2.0, 4)
        self.items_per_call = self.batch
        self.sizes = {"n": self.n, "c": self.c, "trials_per_call": self.batch}
        self.fractions: list[float] = []

    def warm_up(self, inp) -> None:
        self.call(inp)

    def input(self, i: int) -> int:
        return _call_seed(self.seed, i)

    def call(self, seed: int) -> float:
        return prandom.largest_scc_fraction_mc(self.n, self.c, self.batch, seed=seed)

    def check(self, seed: int, out: float) -> bool:
        self.fractions.append(out)
        return 0.0 < out <= 1.0

    def run_checks(self) -> dict[str, bool]:
        pred = prandom.giant_scc_fraction(self.c)
        return {"giant_fraction": abs(statistics.fmean(self.fractions) - pred) <= self.tolerance * pred}


def _kept_half(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.sort(rng.permutation(np.arange(1, n + 1))[: n // 2])


class PathAbstract:
    """parse_digraph, path_abstract, serialize_digraph on sparse c=2 digraphs."""

    name = "pabstract-n1000"
    unit = "abstractions"
    items_per_call = 1

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.n, self.c = (60, 2.0) if tiny else (1000, 2.0)
        self.sizes = {"n": self.n, "arcs": int(self.c * self.n), "bypassed": self.n - self.n // 2}

    def warm_up(self, inp) -> None:
        # The bundled street network takes the same path through the package
        # at a fixed, small cost; a full input would make set-up time vary
        # with the seed.
        fidi_abstracts_to_27_arcs()

    def input(self, i: int):
        """Exactly c*n distinct arcs; half the vertices in blocks of 1 to 4."""
        rng = _rng(self.seed, i)
        idx = rng.choice(self.n * (self.n - 1), size=int(self.c * self.n), replace=False)
        src, dst = np.divmod(idx, self.n - 1)
        dst += dst >= src
        text = f"n {self.n}\n" + "".join(f"{x + 1} {y + 1}\n" for x, y in zip(src, dst))
        kept = _kept_half(rng, self.n)
        blocks, j = [], 0
        while j < len(kept):
            size = int(rng.integers(1, 5))
            blocks.append({int(v) for v in kept[j : j + size]})
            j += size
        return i, text, PartialPartition(self.n, blocks), src, dst

    def call(self, inp) -> str:
        _, text, partition, _, _ = inp
        d = formats.parse_digraph(text)
        return formats.serialize_digraph(pabstract.path_abstract(d, partition))

    def check(self, inp, out: str) -> bool:
        """The output equals a closure bypass followed by ``contract_blocks``.

        The package's ``_kernels.bypass_closure`` spends about a second per
        input in boolean matmuls, so it checks the first input only; the
        others use the same closure in float32, which BLAS does in
        milliseconds.
        """
        i, _, partition, src, dst = inp
        a = np.zeros((self.n, self.n), dtype=np.uint8)
        a[src, dst] = 1
        drop = np.array(sorted(set(range(self.n)) - {v - 1 for v in partition.support}))
        closure = _kernels.bypass_closure if i == 0 else _float_closure
        keep, sub = closure(a, drop)
        arcs = {(int(keep[x]) + 1, int(keep[y]) + 1): 1 for x, y in zip(*np.nonzero(sub))}
        bypassed = Digraph(frozenset(int(v) + 1 for v in keep), arcs)
        expected = contract_blocks(bypassed, list(partition.blocks))
        return _read_edgelist(out) == (expected.vertices, frozenset(expected.arcs))

    def run_checks(self) -> dict[str, bool]:
        return {}


def _float_closure(a: np.ndarray, drop: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_kernels.bypass_closure`` with float32 matmuls: x keeps an arc to y
    when x -> (inside drop) -> y, found by squaring reachability inside drop."""
    keep = np.setdiff1d(np.arange(a.shape[0]), drop)
    f = a.astype(np.float32)
    reach = f[np.ix_(drop, drop)] + np.eye(len(drop), dtype=np.float32)
    for _ in range(max(1, len(drop) - 1).bit_length()):
        reach = (reach @ reach > 0).astype(np.float32)
    through = f[np.ix_(keep, drop)] @ reach @ f[np.ix_(drop, keep)]
    out = ((f[np.ix_(keep, keep)] + through) > 0).astype(np.uint8)
    np.fill_diagonal(out, 0)
    return keep, out


def _read_edgelist(text: str) -> tuple[frozenset, frozenset]:
    """Vertex set and arc set of a boolean edge list (header line first).

    Outputs are read here rather than with ``formats``, so that a fault in
    the package's parsers cannot hide one in its serializers.
    """
    lines = text.splitlines()
    head = lines[0].split()
    if head[0] == "n":
        vertices = frozenset(range(1, int(head[1]) + 1))
    else:
        vertices = frozenset(int(v) for v in head[1:])
    arcs = frozenset(tuple(int(v) for v in line.split()) for line in lines[1:])
    return vertices, arcs


class ContactAbstract:
    """parse_contacts, dtcn_path_abstract, serialize_contacts on Poisson networks."""

    name = "dtcn-n400"
    unit = "abstractions"
    items_per_call = 1

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.n, self.p = (40, 0.1) if tiny else (400, 0.01)
        self.sizes = {"n": self.n, "p": self.p, "kept_pairs": self.n // 4}
        self.first: list[str] = []

    def warm_up(self, inp) -> None:
        self.call(inp)

    def input(self, i: int):
        """Poisson(p) contacts per ordered pair, uniform times; the kept half in pairs.

        A Poisson total spread uniformly over the ordered pairs has the same
        law as independent Poisson counts per pair.
        """
        rng = _rng(self.seed, i)
        total = rng.poisson(self.p * self.n * (self.n - 1))
        src = rng.integers(0, self.n, size=total)
        dst = rng.integers(0, self.n - 1, size=total)
        dst += dst >= src
        times = rng.random(total)
        triples = [(int(s) + 1, int(t) + 1, float(tau)) for s, t, tau in zip(src, dst, times)]
        text = "source,target,time\n" + "".join(f"{s},{t},{tau!r}\n" for s, t, tau in triples)
        kept = _kept_half(rng, self.n)
        partition = PartialPartition(self.n, [set(map(int, kept[j : j + 2])) for j in range(0, len(kept), 2)])
        return i, text, partition, triples

    def call(self, inp) -> str:
        _, text, partition, _ = inp
        d = formats.parse_contacts(text, n=self.n)
        return formats.serialize_contacts(temporal.dtcn_path_abstract(d, partition))

    def check(self, inp, out: str) -> bool:
        """Every contact joins two block representatives at an input time.

        The exact check, against the layered digraph, takes seconds; it runs
        once per run, on the first input, in ``run_checks``.
        """
        i, _, partition, triples = inp
        if i == 0:
            self.first.append(out)
        reps = {min(b) for b in partition.blocks}
        times = {tau for _, _, tau in triples}
        return all(s != t and s in reps and t in reps and tau in times for s, t, tau in _read_contacts(out))

    def run_checks(self) -> dict[str, bool]:
        expected = self._oracle(self.input(0))
        return {"layered_oracle": bool(self.first) and all(_read_contacts(o) == expected for o in self.first)}

    def _oracle(self, inp) -> frozenset:
        """Bypass the dropped layers of the layered digraph, read arcs back as
        (x, y, later time) contacts, then re-address them to block representatives."""
        _, _, partition, triples = inp
        layered = build_temporal_digraph(DTCN.build(self.n, triples))
        d, index = layered.to_digraph()
        outside = set(range(1, self.n + 1)) - partition.support
        dropped = [i for (v, _), i in index.items() if v in outside]
        detoured = set()
        for i, j in pabstract.bypass_set(d, dropped).arcs:
            (x, t1), (y, t2) = layered.layers[i - 1], layered.layers[j - 1]
            if x != y:
                detoured.add((x, y, max(t1, t2)))
        rep = {v: min(b) for b in partition.blocks for v in b}
        return frozenset((rep[x], rep[y], tau) for x, y, tau in detoured if rep[x] != rep[y])


def _read_contacts(text: str) -> frozenset:
    lines = text.splitlines()
    if lines[0] != "source,target,time":
        raise ValueError("contact output lacks its header")
    out = set()
    for line in lines[1:]:
        s, t, tau = line.split(",")
        out.add((int(s), int(t), float(tau)))
    return frozenset(out)


WORKLOADS = {w.name: w for w in (MonteCarlo, GiantComponent, PathAbstract, ContactAbstract)}


def fidi_abstracts_to_27_arcs() -> bool:
    """The bundled street network keeps 27 arcs after its path abstraction."""
    data = Path(formats.__file__).parent / "data"
    fidi = formats.parse_digraph((data / "fidi.edges").read_text())
    coloring = formats.parse_labels((data / "fidi.labels").read_text())
    partition = partition_from_labels(coloring, set(range(1, 13)) - {5})
    out = formats.serialize_digraph(pabstract.path_abstract(fidi, partition))
    return len(_read_edgelist(out)[1]) == 27

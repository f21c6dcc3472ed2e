"""Per-layer spans for the pathabs benchmark, recorded from outside the package.

The layers are the package modules ``_kernels``, ``random``, ``digraph``,
``pabstract``, ``formats`` and ``temporal``; metric names call the first
``kernels``, because a metric name may not start with an underscore.
``Tracer.install`` swaps a timing wrapper in at each name through which
callers look a layer's public function up at call time; ``Tracer.remove``
puts the originals back.  The package source is never edited.

Spans live in memory as ``(name, start, end, parent)`` tuples and are written
out once, at the end of a run.  A span's self time is its duration minus the
durations of its direct children, so the self times of all spans under one
benchmark call add up to that call's wall time.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

from pathabs import _kernels, digraph, formats, pabstract, temporal
from pathabs import random as prandom

LAYERS = ("kernels", "random", "digraph", "pabstract", "formats", "temporal")
ROOT = "bench.call"

# Operations whose inclusive time per item is reported as "<op>_ms".
TIMED_OPS = (
    "kernels.sample",
    "kernels.bypass",
    "kernels.fold",
    "digraph.build",
    "digraph.scc",
    "digraph.classify",
    "digraph.contract",
    "digraph.delete",
    "pabstract.detour",
    "formats.parse",
    "formats.serialize",
    "temporal.detour",
    "temporal.contract",
)

# Counts summed over traced calls and reported per item.
COUNTS = (
    "kernels.sample_bytes",
    "digraph.built",
    "digraph.arcs_validated",
    "pabstract.detour_calls",
    "formats.bytes_in",
    "formats.bytes_out",
    "temporal.contacts_in",
    "temporal.contacts_out",
)

# Every per-layer metric a traced run prints, with its unit.
METRICS = (
    {f"{op}_ms": "ms" for op in TIMED_OPS}
    | {f"{layer}.self_ms": "ms" for layer in LAYERS}
    | {"bench.self_ms": "ms"}
    | {name: ("bytes" if "bytes" in name else "count") for name in COUNTS}
    | {
        "pabstract.validated_per_output_arc": "ratio",
        "trace.call_ms": "ms",
        "trace.untraced_call_ms": "ms",
        "trace.overhead_pct": "%",
    }
)


def _count_validated(counts, args, result):
    counts["digraph.built"] += 1
    counts["digraph.arcs_validated"] += len(args[0].arcs)


def _count_detour(counts, args, result):
    counts["pabstract.detour_calls"] += 1


def _count_output_arcs(counts, args, result):
    counts["pabstract.output_arcs"] += len(result.arcs)


def _count_bytes_in(counts, args, result):
    counts["formats.bytes_in"] += len(args[0])


def _count_bytes_out(counts, args, result):
    counts["formats.bytes_out"] += len(result)


def _count_contacts(counts, args, result):
    counts["temporal.contacts_in"] += len(args[0].contacts)
    counts["temporal.contacts_out"] += len(result.contacts)


def _targets():
    """(owner, attribute, span name, counter) for every wrapped function."""
    targets = [
        (_kernels, "sample_adjacency", "kernels.sample", None),
        (_kernels, "bypass_dense", "kernels.bypass", None),
        (_kernels, "detour_fold_inplace", "kernels.fold", None),
        (prandom, "monte_carlo_abstraction", "random.monte_carlo_abstraction", None),
        (prandom, "largest_scc_fraction_mc", "random.largest_scc_fraction_mc", None),
        (digraph.Digraph, "__post_init__", "digraph.build", _count_validated),
        (digraph, "strongly_connected_components", "digraph.scc", None),
        (pabstract, "classify_vertex", "digraph.classify", None),
        (pabstract, "contract_blocks", "digraph.contract", None),
        (pabstract, "delete_vertices", "digraph.delete", None),
        (pabstract, "path_abstract", "pabstract.path_abstract", _count_output_arcs),
        (pabstract, "detour", "pabstract.detour", _count_detour),
        (temporal, "dtcn_path_abstract", "temporal.dtcn_path_abstract", _count_contacts),
        (temporal, "dtcn_detour", "temporal.detour", None),
        (temporal, "dtcn_contract", "temporal.contract", None),
    ]
    for attr, fn in sorted(vars(formats).items()):
        if callable(fn) and getattr(fn, "__module__", None) == formats.__name__:
            if attr.startswith("parse_"):
                targets.append((formats, attr, "formats.parse", _count_bytes_in))
            elif attr.startswith("serialize_"):
                targets.append((formats, attr, "formats.serialize", _count_bytes_out))
    return targets


def wrapped_names() -> list[tuple[object, str]]:
    """Owner and attribute of every name the tracer replaces."""
    return [(owner, attr) for owner, attr, _, _ in _targets()]


class Tracer:
    """Span store plus the wrappers that fill it; single-threaded."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer wrappers are already installed")
        for owner, attr, name, count in _targets():
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, count))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn, count):
        spans, stack, counts = self.spans, self._stack, self.counts
        # Peak bytes allocated inside the sampler, as numpy reports them.
        measure_memory = name == "kernels.sample"

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            if measure_memory:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent)
                if measure_memory:
                    counts["kernels.sample_bytes"] += tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if count is not None:
                count(counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def call(self):
        """Root span around one benchmark call into the package."""
        if self._stack:
            raise RuntimeError("benchmark calls do not nest")
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (ROOT, start, end, -1)

    # -- results -----------------------------------------------------------

    def metrics(self, items: int, untraced_seconds: float) -> dict[str, float]:
        """Per-layer metrics per item (trial or abstraction) of the traced calls.

        ``untraced_seconds`` is the wall time of the same calls made untraced,
        for the tracing overhead.
        """
        inclusive: Counter = Counter()
        self_time: Counter = Counter()
        for name, start, end, parent in self.spans:
            duration = end - start
            inclusive[name] += duration
            self_time[name] += duration
            if parent >= 0:
                self_time[self.spans[parent][0]] -= duration
        per_item_ms = 1e3 / items
        out = {f"{op}_ms": inclusive[op] * per_item_ms for op in TIMED_OPS}
        for layer in LAYERS:
            share = sum(t for name, t in self_time.items() if name.split(".")[0] == layer)
            out[f"{layer}.self_ms"] = share * per_item_ms
        out["bench.self_ms"] = self_time[ROOT] * per_item_ms
        for name in COUNTS:
            out[name] = self.counts[name] / items
        output_arcs = self.counts["pabstract.output_arcs"]
        out["pabstract.validated_per_output_arc"] = (
            self.counts["digraph.arcs_validated"] / output_arcs if output_arcs else 0.0
        )
        out["trace.call_ms"] = inclusive[ROOT] * per_item_ms
        out["trace.untraced_call_ms"] = untraced_seconds * per_item_ms
        out["trace.overhead_pct"] = (
            100.0 * (inclusive[ROOT] / untraced_seconds - 1.0) if untraced_seconds else float("nan")
        )
        return out

    def write(self, path: Path) -> None:
        """All spans as JSON lines; times in ms from the first span.

        ``call`` is the id of the benchmark call a span belongs to; calls do
        not nest, so it is the latest root span at or before it.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        call = -1
        with path.open("w") as fh:
            for idx, (name, start, end, parent) in enumerate(self.spans):
                call = idx if parent < 0 else call
                record = {
                    "id": idx,
                    "call": call,
                    "parent": parent,
                    "name": name,
                    "start_ms": (start - origin) * 1e3,
                    "end_ms": (end - origin) * 1e3,
                }
                fh.write(json.dumps(record) + "\n")

#!/usr/bin/env python3
"""The pathabs benchmark: one workload per run, untraced or traced.

    python3 perfbench/run.py --workload mc-n300 --seed 1 --seconds 25 --trace 0

Workloads: mc-n300, scc-n2000, pabstract-n1000, dtcn-n400 (see workloads.py).
A run is a closed loop with one client on one core: the next call into the
package starts when the previous one returns, and no worker threads run
while it is timed.  The package is imported from ``src/`` of the checkout
this file sits in, and the run fails if it would measure any other copy.

The last line of standard output is one JSON object,
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones: throughput, median and tail latency, set-up
time and peak RSS.  Times are in reference-speed units (see ``speed_probe``):
each call's wall time is scaled by how fast the core ran a fixed reference
loop just before and just after it, so that the shared host's swings of speed
cancel out.  With ``--trace 1`` every call is made twice, untraced and
then traced, and the metrics are the per-layer ones of layers.py; spans go to
``.bench_build/perfbench/``.  The line before it is a JSON report with the
provenance, the error rate, the tail percentile and the check results.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
# The speed probe: a fixed reference loop, repeated for a share of the time
# of the call it brackets.  Its mean time is scaled to REFERENCE_S, about its
# median on the machine the trajectory was measured on (see README.md), so
# reference-speed times are close to wall times there.
REFERENCE_ITERATIONS = 5_000
REFERENCE_TABLE = {(i * 7919 % 4099, i % 13): i for i in range(4099)}
REFERENCE_KEYS = list(REFERENCE_TABLE)[::-1]
REFERENCE_MEMBERS = frozenset(range(0, 8000, 3))
REFERENCE_S = 1.0e-3
PROBE_SHARE = 0.05
PROBE_MIN_S = 2e-3
SETUP_PROBE_S = 20e-3
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import pathabs, pathabs.formats, pathabs.random, pathabs.temporal; "
    "print(time.perf_counter() - t)"
)

END_TO_END = {
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def import_package():
    """Import pathabs from this checkout's src/, or stop the run."""
    if not (SRC / "pathabs" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import pathabs

    if Path(pathabs.__file__).resolve().parent != (SRC / "pathabs").resolve():
        raise SystemExit(f"perfbench: pathabs imported from {pathabs.__file__}, not {SRC}")
    return pathabs


def _import_seconds() -> tuple[float, float]:
    """Time to import the package in a fresh interpreter: (wall s, reference s)."""
    before = speed_probe(SETUP_PROBE_S)
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    after = speed_probe(SETUP_PROBE_S)
    wall = float(proc.stdout)
    return wall, wall * REFERENCE_S / (0.5 * (before + after))


def _reference_loop() -> int:
    """Integer arithmetic, then tuple-keyed dict and set lookups.

    A slow moment of the host slows the arithmetic less, and the lookups
    more, than it slows the workloads; together they track them closely.
    """
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i % 7
    for key in REFERENCE_KEYS:
        if key[0] in REFERENCE_MEMBERS:
            total += REFERENCE_TABLE[key]
    return total


def speed_probe(budget: float) -> float:
    """Mean seconds the reference loop takes on this core now, over ``budget`` s.

    The benchmark's host is shared, and its cores run the same code up to
    half again as fast at some moments as at others, switching many times a
    second.  A call's wall time divided by the probe's mean time around it,
    times ``REFERENCE_S``, is its time at reference speed: what it would take
    on a core that runs the loop in ``REFERENCE_S``.  The mean, not the best,
    of the repeats is taken, so that slow and fast moments count as often in
    the probe as in the call.  The loop is pure interpreter work, allocates
    no containers, so it never triggers the garbage collector, and it does not
    touch the package.
    """
    reps = 0
    start = time.perf_counter()
    end = start + budget
    while True:
        _reference_loop()
        reps += 1
        now = time.perf_counter()
        if now >= end and reps >= 3:
            return (now - start) / reps


def timed(fn, *args, budget: float):
    """``fn(*args)`` between two speed probes of ``budget`` s each.

    Returns (result, wall s, reference s).
    """
    before = speed_probe(budget)
    start = time.perf_counter()
    out = fn(*args)
    wall = time.perf_counter() - start
    after = speed_probe(budget)
    return out, wall, wall * REFERENCE_S / (0.5 * (before + after))


def pin_to_one_core() -> None:
    """Keep the run, and the processes it starts, on one core, so that the
    speed probes and the calls between them run on the same core."""
    cores = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cores)})


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest() -> str:
    """SHA-256 over the package's files, for checkouts that are not git trees."""
    h = hashlib.sha256()
    for path in sorted((SRC / "pathabs").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def provenance(pathabs, workload, seed: int) -> dict:
    import numpy
    from pathabs import _kernels

    return {
        "workload": workload.name,
        "seed": seed,
        "sizes": workload.sizes,
        "lane": _kernels.IMPLEMENTATION,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "pathabs_file": pathabs.__file__,
    }


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """The slowest call with at least ten calls beyond it, and its percentile.

    That is the 11th-largest latency: the highest percentile with ten calls
    beyond it, without jumps as the call count changes.  Under 21 calls it is
    the median, or the lower median.
    """
    ordered = sorted(latencies)
    k = max(len(ordered) - 11, (len(ordered) - 1) // 2)
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def _checked(workload, inp, out) -> bool:
    try:
        return workload.check(inp, out)
    except Exception:  # an unreadable output fails its check
        return False


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
        spans_dir: Path | None = None) -> tuple[dict, dict]:
    """One benchmark run; returns (report, result).

    The loop runs for ``seconds`` of wall time.  Inputs are made and outputs
    checked between calls, outside the timed region.  Every latency is in
    reference seconds (``timed``); the wall-clock figures go in the report.
    ``setup_import_s`` and ``setup_workload_s`` hold (wall, reference) pairs.
    """
    pathabs = import_package()
    import layers
    import workloads

    if name not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {name!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[name](seed, tiny=tiny)

    imports = [_import_seconds() for _ in range(SETUP_REPEATS)]
    setups = []
    for _ in range(SETUP_REPEATS):  # one set-up: make the first input, warm up
        setups.append(timed(lambda: workload.warm_up(workload.input(0)), budget=SETUP_PROBE_S)[1:])
    setup_s = statistics.median(r for _, r in imports) + statistics.median(r for _, r in setups)
    setup_wall_s = statistics.median(w for w, _ in imports) + statistics.median(w for w, _ in setups)
    checks = {"fidi_27_arcs": workloads.fidi_abstracts_to_27_arcs()}

    tracer = layers.Tracer() if trace else None
    walls, latencies, errors = [], [], []
    attempted = failed = traced = i = 0
    paired = 0.0
    budget = max(PROBE_MIN_S, PROBE_SHARE * statistics.median(w for w, _ in setups))
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        inp = workload.input(i)
        i += 1
        attempted += 1
        try:
            out, wall, latency = timed(workload.call, inp, budget=budget)
        except Exception as exc:  # a failed call counts against error_rate
            errors.append(repr(exc))
            continue
        walls.append(wall)
        latencies.append(latency)
        budget = max(PROBE_MIN_S, PROBE_SHARE * wall)
        failed += not _checked(workload, inp, out)
        if tracer is None:
            continue
        attempted += 1
        tracer.install()
        try:
            with tracer.call():
                out = workload.call(inp)
        except Exception as exc:
            errors.append(repr(exc))
            continue
        finally:
            tracer.remove()
        traced += 1
        paired += wall
        failed += not _checked(workload, inp, out)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed += len(errors)
    if latencies:
        checks.update(workload.run_checks())
    if not latencies or not all(checks.values()):
        failed = attempted

    tail_p, tail_s = tail_latency(latencies) if latencies else (50.0, float("nan"))
    report = provenance(pathabs, workload, seed) | {
        "trace": trace,
        "seconds": seconds,
        "calls": len(latencies),
        "unit": workload.unit,
        "error_rate": failed / attempted,
        "errors": errors[:5],
        "checks": checks,
        "tail_percentile": tail_p,
        "setup_import_s": imports,
        "setup_workload_s": setups,
        "wall": {
            "throughput_per_s": len(walls) * workload.items_per_call / sum(walls) if walls else None,
            "latency_p50_ms": statistics.median(walls) * 1e3 if walls else None,
            "setup_s": setup_wall_s,
        },
    }
    if tracer is not None:
        values = tracer.metrics(max(traced, 1) * workload.items_per_call, paired)
        units = layers.METRICS
        if spans_dir is not None:
            tracer.write(spans_dir / f"spans-{name}-seed{seed}.jsonl")
    elif latencies:
        values = {
            "throughput_per_s": len(latencies) * workload.items_per_call / sum(latencies),
            "latency_p50_ms": statistics.median(latencies) * 1e3,
            "latency_tail_ms": tail_s * 1e3,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
    else:
        values, units = dict.fromkeys(END_TO_END, float("nan")), END_TO_END
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # One core: keep BLAS and OpenMP pools, created when numpy loads, to one thread.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    pin_to_one_core()
    report, result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                         spans_dir=ROOT / ".bench_build" / "perfbench")
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Smoke test of the benchmark: every workload at a tiny size, untraced and traced."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_package()

import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_prints_every_metric_without_errors(workload, trace, tmp_path):
    originals = {(owner, attr): vars(owner)[attr] for owner, attr in layers.wrapped_names()}

    report, result = run.run(workload, seed=3, seconds=0.3, trace=trace, tiny=True, spans_dir=tmp_path)

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert report["error_rate"] == 0.0 and all(report["checks"].values())
    expected = layers.METRICS if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    json.dumps(result, allow_nan=False)
    assert all(v > 0 for v in report["wall"].values())
    # The wrappers are gone again: every name holds its original function.
    assert all(vars(owner)[attr] is fn for (owner, attr), fn in originals.items())
    if trace:
        values = {name: m["value"] for name, m in result["metrics"].items()}
        layer_self = sum(v for name, v in values.items() if name.endswith(".self_ms"))
        assert layer_self == pytest.approx(values["trace.call_ms"], rel=1e-9)
        assert (tmp_path / f"spans-{workload}-seed3.jsonl").stat().st_size > 0


def test_run_fails_without_the_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "mc-n300", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

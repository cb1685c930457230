"""Toy-size smoke test of the benchmark harness.

Every workload runs at toy scale with tracing off and on.  Each run must
pass all its checks and print exactly the metrics BENCHMARK.json lists,
with their units.  Run with ``python -m pytest perfbench/tests``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# sweep_large runs on request but is not in BENCHMARK.json (see README.md)
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["sweep_large"]

# layers a workload must leave idle (traced busy time under 5% of the pass)
IDLE = {"single_mode": ("kernels.", "grassmann."), "sweep_large": ("contour.",)}


def _run(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "0", "--trace", str(trace), "--scale", "toy"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_at_toy_scale(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    listed = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == listed
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in values.values()), values
        return
    pass_time = sum(v for name, v in values.items() if name.endswith(".self_s"))
    idle = sum(v for name, v in values.items()
               if name.endswith(".busy_s") and name.startswith(IDLE.get(workload, ("-",))))
    assert idle <= 0.05 * pass_time


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

"""Smoke test of the benchmark itself: every workload at toy size, both modes.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, trace: int, script: Path = BENCH / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }


def copy_bench(tmp_path: Path) -> Path:
    """A copy of the benchmark beside BENCHMARK.json in tmp_path; returns its run.py."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path / "perfbench" / "run.py"


def test_corrupted_golden_value_fails_its_check(tmp_path):
    script = copy_bench(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    path = tmp_path / "perfbench" / "golden.json"
    golden = json.loads(path.read_text())
    entry = golden["tiny"]["tree"]
    entry["digests"]["tree_gen.grow.parent"] = "0" * 64
    entry["tables"]["tree_analytic.ccdf_n"]["values"][3] *= 1.0 + 1e-6
    path.write_text(json.dumps(golden))

    proc = run("tree", 0, script=script)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] >= 2
    assert "FAILED check tree_gen:golden.tree_gen.grow.parent" in proc.stderr
    assert "FAILED check tree_analytic:golden.tree_analytic.ccdf_n" in proc.stderr


def test_refuses_to_run_without_package_sources(tmp_path):
    proc = run("tree", 0, script=copy_bench(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""

"""Every demo runs end to end against the current API."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import tcpfluid


def _run_demo(name: str) -> str:
    demo = Path(__file__).resolve().parents[1] / "demos" / name
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tcpfluid.__file__)))
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, timeout=120, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip(), name
    return proc.stdout


@pytest.mark.parametrize(
    "name", ["window_distributions.py", "finite_buffer.py", "simulator_validation.py"]
)
def test_window_demo_runs(name):
    _run_demo(name)


def test_network_demo_runs():
    _run_demo("network_strategies.py")


def test_tree_statistics_demo_runs():
    out = _run_demo("tree_statistics.py")
    gap = re.search(r"enumeration vs closed form, max gap = (\S+)", out)
    assert gap is not None, out
    assert float(gap.group(1)) <= 1e-12

"""The window-law and network demos run end to end against the current API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import tcpfluid


def _run_demo(name: str) -> None:
    demo = Path(__file__).resolve().parents[1] / "demos" / name
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tcpfluid.__file__)))
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, timeout=120, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip(), name


@pytest.mark.parametrize(
    "name", ["window_distributions.py", "finite_buffer.py", "simulator_validation.py"]
)
def test_window_demo_runs(name):
    _run_demo(name)


def test_network_demo_runs():
    _run_demo("network_strategies.py")

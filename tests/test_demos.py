"""Smoke-run the demo scripts: each must exit 0 against the current API.

Demos write their outputs to the working directory, so each runs as a
subprocess inside its own temporary directory.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"


def run_demo(name, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(DEMOS / name)], cwd=cwd,
                          env=env, capture_output=True, text=True,
                          timeout=600)


@pytest.mark.parametrize("name", [
    "01_simulate_corpus.py",
    "02_scenario_losses.py",
    "03_autodiff_gradcheck.py",
    "05_occlusion_study.py",
    pytest.param("04_train_tiny_extractor.py", marks=pytest.mark.slow),
])
def test_demo_exits_zero(name, tmp_path):
    done = run_demo(name, tmp_path)
    assert done.returncode == 0, done.stderr[-2000:]

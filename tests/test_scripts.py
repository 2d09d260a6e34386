"""The example scripts the README points to run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import motifclust

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(motifclust.__file__).resolve().parents[1])


@pytest.mark.parametrize(
    "script, args",
    [
        ("planted_recovery.py", ["--runs", "1", "--iters", "20"]),
        ("prior_comparison.py", ["--replicates", "50"]),
    ],
)
def test_script_runs(script, args):
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr

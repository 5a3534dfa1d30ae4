"""The example scripts run to completion against the current library."""
from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

import sftlab

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv", [
    ["demo_classification.py"],
    ["explore_random_moves.py", "--count", "2"],
])
def test_script_exits_cleanly(argv):
    src = pathlib.Path(sftlab.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    env.pop("SFTLAB_MAX_WORDS", None)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr

"""The example scripts run to completion against the current library, and
check what they claim in code that ``python -O`` keeps."""
from __future__ import annotations

import ast
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


def assert_lines(source: str) -> list[int]:
    """The lines of the ``assert`` statements, which ``python -O`` strips."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("path", sorted((ROOT / "scripts").glob("*.py")),
                         ids=lambda p: p.name)
def test_script_checks_survive_optimisation(path):
    assert assert_lines(path.read_text()) == []


def test_guard_sees_an_assert():
    source = ("def check(x):\n"
              "    require(x, 'kept')\n"
              "    if x:\n"
              "        assert x > 0, 'stripped'\n")
    assert assert_lines(source) == [4]

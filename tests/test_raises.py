"""Every refusal in the package is an error class of ``sftlab.errors``, so
``cli.run`` can print each one as a single ``error:`` line."""
from __future__ import annotations

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1] / "src" / "sftlab"
ERRORS = {node.name for node in ast.parse((ROOT / "errors.py").read_text()).body
          if isinstance(node, ast.ClassDef)}


def foreign_raises(source: str) -> list[str]:
    """``raise`` statements naming a class not defined in sftlab.errors; a
    bare re-raise names none."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)
        if name not in ERRORS:
            found.append(f"{ast.unparse(exc)} (line {node.lineno})")
    return found


@pytest.mark.parametrize("path", sorted(ROOT.glob("*.py")), ids=lambda p: p.name)
def test_raises_name_library_errors(path):
    assert foreign_raises(path.read_text()) == []


def test_guard_sees_a_foreign_raise():
    source = ("def f(x):\n"
              "    if x:\n"
              "        raise ValueError('planted')\n"
              "    try:\n"
              "        g()\n"
              "    except KeyError:\n"
              "        raise\n"
              "    raise errors.FormatError('fine')\n")
    assert "FormatError" in ERRORS
    assert foreign_raises(source) == ["ValueError (line 3)"]

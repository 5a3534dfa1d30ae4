"""Fuzz the CLI in-process: mutated input files and arguments, under every
kind of SFTLAB_MAX_WORDS.  Each run exits 0 or 2, a refusal is one
``error:`` line on stderr, and no exception, SystemExit included, escapes
``run``.

The mutations reach what sftlab parses itself (file contents, and the
string arguments: words, points, t, vertex labels, paths) and what argparse
parses for it (command and mode words, integer arguments, tokens that start
with ``-``)."""
from __future__ import annotations

import contextlib
import io
import pathlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sftlab.cli import run
from sftlab.config import MAX_WORDS_ENV

# files beyond the shared fixture set: functions on A = CD and B = DC for
# C = (1 1), D = (1 1)^T, and on the expansion of fib at its first vertex
EXTRA_FILES = {
    "a.f": "function m depth=1 ring=Z\n1>1~0 1\n1>1~1 2\n",
    "b.f": "function m depth=1 ring=Z\n1>1 5\n1>2 -9\n2>1 2\n2>2 6\n",
    "x.f": "function x depth=2 ring=Z\n01 5\n02 3\n10 -5\n21 8\n",
}

# Every command but the slow sse-search and selftest.  Names ending in
# .mat, .f or .t are files; ints are argparse-typed.
COMMANDS = [
    ("validate", "fib.mat"),
    ("words", "fib.mat", 2),
    ("snf", "c.mat"),
    ("invariants", "mixed_a.mat"),
    ("flow-equiv", "fib.mat", "full2.mat"),
    ("coe", "mixed_a.mat", "mixed_b.mat"),
    ("cohom", "class-equal", "fib.mat", "gauge.f", "zero.f"),
    ("cohom", "positive", "fib.mat", "one1.f"),
    ("cohom", "orbit-sum", "fib.mat", "g2.f", "12"),
    ("action", "compose", "fib.mat", "gauge.f", "gauge.f"),
    ("action", "equivalent", "fib.mat", "gauge.f", "zero.f"),
    ("action", "positive", "fib.mat", "gauge.f"),
    ("action", "phase", "fib.mat", "gauge.f", "12", "1/4", ":12"),
    ("transducer", "apply", "fib.mat", "fib.mat", "ident.t", "1:12"),
    ("transducer", "compose", "fib.mat", "fib.mat", "fib.mat", "ident.t", "ident.t"),
    ("transducer", "equiv", "fib.mat", "fib.mat", "ident.t", "ident.t", "--delay", 1),
    ("transducer", "verify-coe", "fib.mat", "fib.mat", "ident.t", "zero.f", "gauge.f"),
    ("transducer", "psi", "fib.mat", "fib.mat", "ident.t", "zero.f", "gauge.f", "g2.f"),
    ("expand", "fib.mat", "--vertex", "1"),
    ("elementary", "c.mat", "d.mat"),
    ("transfer", "phi", "c.mat", "d.mat", "a.f"),
    ("transfer", "psi", "c.mat", "d.mat", "b.f"),
    ("transfer", "psi-xi", "fib.mat", "x.f", "--vertex", "1"),
    ("transfer", "psi-eta", "fib.mat", "g2.f"),
]
WITH_MODE = ("cohom", "action", "transducer", "transfer")
NAMES = sorted({c[0] for c in COMMANDS} | {c[1] for c in COMMANDS if c[0] in WITH_MODE})
FILE_SUFFIXES = (".mat", ".f", ".t")
TOKEN_TEXT = st.text(alphabet="0123456789:/.>~ab-é", max_size=6)
# integer arguments: none of these prints a large table (|B_3| of fib is 5)
INTS = st.sampled_from([-1, 0, 3, 10**5, 10**9])


@pytest.fixture(scope="module")
def fuzz_dir(fixture_dir, tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for path in fixture_dir.iterdir():
        (root / path.name).write_bytes(path.read_bytes())
    for name, text in EXTRA_FILES.items():
        (root / name).write_text(text)
    return root


def _mutate_file(data, text: str) -> bytes:
    lines = text.splitlines()
    kind = data.draw(st.sampled_from(["drop", "duplicate", "swap", "byte", "header"]))
    if kind == "drop":
        del lines[data.draw(st.integers(0, len(lines) - 1))]
    elif kind == "duplicate":
        i = data.draw(st.integers(0, len(lines) - 1))
        lines.insert(i, lines[i])
    elif kind == "swap":
        rows = [line.split() for line in lines]
        spots = [(r, c) for r, row in enumerate(rows) for c in range(len(row))]
        (r1, c1), (r2, c2) = (data.draw(st.sampled_from(spots)) for _ in range(2))
        rows[r1][c1], rows[r2][c2] = rows[r2][c2], rows[r1][c1]
        lines = [" ".join(row) for row in rows]
    elif kind == "byte":
        raw = text.encode()
        at = data.draw(st.integers(0, len(raw)))
        byte = data.draw(st.sampled_from([b"\xe9", b"\xc3\xa9", b"\xff"]))
        return raw[:at] + byte + raw[at:]
    else:
        size = data.draw(st.sampled_from(list(re.finditer(r"\d+", lines[0]))))
        lines[0] = (lines[0][:size.start()] + str(data.draw(st.integers(-1, 5)))
                    + lines[0][size.end():])
    return ("\n".join(lines) + "\n").encode()


def _argv(data, root, command) -> list[str]:
    """command with one file, one token, one integer, its command or mode
    word, or a pair of arguments mutated."""
    argv = [str(root / a) if str(a).endswith(FILE_SUFFIXES) else str(a)
            for a in command]
    fixed = 2 if command[0] in WITH_MODE else 1
    free = [i for i in range(fixed, len(argv))
            if isinstance(command[i], str) and not command[i].startswith("--")]
    ints = [i for i, a in enumerate(command) if isinstance(a, int)]
    kind = data.draw(st.sampled_from(
        ["file", "swap", "token", "name"] + ["int"] * bool(ints)))
    if kind == "file":
        path = pathlib.Path(argv[data.draw(st.sampled_from(
            [i for i in free if argv[i].endswith(FILE_SUFFIXES)]))])
        mutant = root / f"mutant{path.suffix}"
        mutant.write_bytes(_mutate_file(data, path.read_text()))
        argv[argv.index(str(path))] = str(mutant)
    elif kind == "swap":
        i, j = (data.draw(st.sampled_from(free)) for _ in range(2))
        argv[i], argv[j] = argv[j], argv[i]
    elif kind == "token":
        argv[data.draw(st.sampled_from(free))] = data.draw(TOKEN_TEXT)
    elif kind == "name":
        argv[data.draw(st.integers(0, fixed - 1))] = data.draw(
            st.one_of(st.sampled_from(NAMES), TOKEN_TEXT))
    else:
        argv[data.draw(st.sampled_from(ints))] = str(data.draw(INTS))
    return argv


@pytest.mark.parametrize("cap", [None, "2", "0", "abc"])
@settings(max_examples=50, derandomize=True, deadline=None)
@given(data=st.data())
def test_cli_fuzz(cap, fuzz_dir, data):
    argv = _argv(data, fuzz_dir, data.draw(st.sampled_from(COMMANDS)))
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        if cap is None:
            mp.delenv(MAX_WORDS_ENV, raising=False)
        else:
            mp.setenv(MAX_WORDS_ENV, cap)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = run(argv)
            except SystemExit as exc:
                pytest.fail(f"run raised SystemExit({exc.code}) on {argv}")
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2), (argv, code, err)
    if code:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, \
            (argv, err)
    else:
        assert err == "", (argv, err)

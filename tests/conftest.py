"""Shared fixtures: the three standing example shifts and a fixture file set
for CLI tests."""
from __future__ import annotations

import pathlib

import pytest
from hypothesis import HealthCheck, settings

import sftlab
import sftlab.cli
import sftlab.cohomology
import sftlab.shifts
from sftlab.shifts import validate

settings.register_profile(
    "suite",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

FIB = ((1, 1), (1, 0))
FULL2 = ((1, 1), (1, 1))
FULL3 = ((1, 1, 1), (1, 1, 1), (1, 1, 1))


# The caches a presentation fills on demand.  None maps a word to its
# position, and none holds words: B_k is ranked off the word levels.
PRESENTATION_CACHES = frozenset({"_successors", "_successor_sets", "_word_levels",
                                 "_label_index"})

# Every module of the package that binds ``shifts.words``, the one builder
# of word tables; ``test_shifts.py`` checks that the list is complete.
WORDS_BINDINGS = (sftlab, sftlab.shifts, sftlab.cohomology, sftlab.cli)


@pytest.fixture(scope="session")
def stray_caches():
    """p -> the caches filled on p beyond ``PRESENTATION_CACHES``."""
    return lambda p: set(vars(p)) - set(p._fields) - PRESENTATION_CACHES


@pytest.fixture
def no_word_tables(monkeypatch):
    """While the test runs, every binding of ``words`` fails the test, so a
    compute path that asks for any word table, B_0 and B_1 included, fails
    (through ``pytest.fail``, which no ``except Exception`` swallows)."""
    def refuse(p, k):
        pytest.fail(f"word table B_{k} requested")
    for module in WORDS_BINDINGS:
        monkeypatch.setattr(module, "words", refuse)


@pytest.fixture(scope="session")
def fib():
    return validate(FIB, "vertex")


@pytest.fixture(scope="session")
def full2():
    return validate(FULL2, "vertex")


@pytest.fixture(scope="session")
def full3():
    return validate(FULL3, "vertex")


@pytest.fixture(scope="session")
def fixture_dir(tmp_path_factory) -> pathlib.Path:
    """Matrix, function, and transducer files shared by the CLI tests."""
    root = tmp_path_factory.mktemp("fixtures")

    def put(name: str, text: str) -> None:
        (root / name).write_text(text)

    put("fib.mat", "matrix vertex 2\n1 1\n1 0\n")
    put("full2.mat", "matrix vertex 2\n1 1\n1 1\n")
    put("full3.mat", "matrix vertex 3\n1 1 1\n1 1 1\n1 1 1\n")
    put("two.mat", "matrix edge 1\n2\n")
    # (Z/2 + Z; [1, 1]) against (Z/2 + Z; [1, -1]): torsion and a nonzero
    # free part in the marked element
    put("mixed_a.mat", "matrix edge 3\n4 4 1\n2 3 0\n2 2 1\n")
    put("mixed_b.mat", "matrix edge 3\n5 4 3\n4 5 3\n4 2 0\n")
    put("c.mat", "matrix rect 1 2\n1 1\n")
    put("d.mat", "matrix rect 2 1\n1\n1\n")
    put("gauge.f", "function fib depth=1 ring=Z\n1 1\n2 1\n")
    put("zero.f", "function fib depth=1 ring=Z\n1 0\n2 0\n")
    put("one1.f", "function fib depth=1 ring=Z\n1 1\n2 0\n")
    put("g2.f", "function fib depth=2 ring=Z\n11 3\n12 -1\n21 4\n")
    put("ident.t", "transducer fib fib states=1 initial=0\n"
                   "0 1 -> 0 1\n0 2 -> 0 2\n")
    return root

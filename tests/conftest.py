"""Shared fixtures: the three standing example shifts and a fixture file set
for CLI tests, the random instances only tests draw, and the function
algebra the package leaves out."""
from __future__ import annotations

import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings

import sftlab
import sftlab.cli
import sftlab.cohomology
import sftlab.shifts
from sftlab.errors import (
    FormatError,
    InadmissibleOutput,
    IncompleteTransducer,
    NotIrreducible,
    PermutationMatrix,
    Starvation,
)
from sftlab.graphs import bfs, find_cycle
from sftlab.shifts import periodic_point, validate
from sftlab.transducers import _inputs

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


def random_edge_presentation(rng: random.Random, n_max: int = 4,
                             entry_max: int = 2):
    """Random irreducible nonnegative integer matrix as an edge shift."""
    while True:
        n = rng.randint(1, n_max)
        rows = [[0] * n for _ in range(n)]
        cycle = list(range(n))
        rng.shuffle(cycle)
        for i in range(n):
            rows[cycle[i]][cycle[(i + 1) % n]] = rng.randint(1, entry_max)
        for _ in range(rng.randint(0, n)):
            rows[rng.randrange(n)][rng.randrange(n)] = rng.randint(0, entry_max)
        try:
            return validate(tuple(tuple(r) for r in rows), "edge")
        except (NotIrreducible, PermutationMatrix):
            continue


def random_point(rng: random.Random, p, max_preperiod: int = 3,
                 max_period: int = 4):
    """Random eventually periodic point via a random admissible walk."""
    while True:
        total = rng.randint(1, max_preperiod + max_period)
        walk = [rng.randrange(p.alphabet_size)]
        ok = True
        for _ in range(total - 1):
            succ = p.successors(walk[-1])
            if not succ:
                ok = False
                break
            walk.append(rng.choice(succ))
        if not ok:
            continue
        # close a period over some suffix of the walk
        starts = [s for s in range(len(walk))
                  if len(walk) - s <= max_period and p.follow(walk[-1], walk[s])]
        if starts:
            start = rng.choice(starts)
            return periodic_point(p, tuple(walk[:start]), tuple(walk[start:]))


def reference_machine_check(t) -> None:
    """The machine check of ``Transducer.__post_init__`` as it was before
    the record took its integers through ``freeze`` and tested outputs by
    their least and greatest symbol, the reference the record's check is
    compared against: range and rule checks, each output symbol by symbol,
    then one ``graphs.bfs`` over the reachable (state, previous input, last
    output symbol) configurations, refusing the first missing rule it meets,
    a cycle of empty-output steps, and the first bad join, in that order.
    It checks no integer type."""
    if not (0 <= t.initial < t.n_states):
        raise FormatError(
            f"initial state {t.initial} out of range for {t.n_states} states")
    table = t.table
    if len(table) != len(t.rules):
        seen = set()
        for q, a, _q2, _out in t.rules:
            if (q, a) in seen:
                raise FormatError(f"duplicate rule for state {q}, symbol {a}")
            seen.add((q, a))
    dom, cod = t.domain, t.codomain
    for (q, a), (q2, out) in table.items():
        if not (0 <= q < t.n_states and 0 <= q2 < t.n_states):
            raise FormatError(f"rule ({q},{a}) references an unknown state")
        if not (0 <= a < dom.alphabet_size):
            raise FormatError(f"rule ({q},{a}) reads an unknown symbol")
        for s in out:
            if not (0 <= s < cod.alphabet_size):
                raise FormatError(f"rule ({q},{a}) emits an unknown symbol")
        if not cod.is_admissible(out):
            raise InadmissibleOutput(
                f"output {cod.word_label(out)} of rule ({q},{a}) is inadmissible")

    silent: dict = {}
    bad_joins: list[str] = []

    def step(cfg):
        q, prev, last = cfg
        targets = [] if (q, prev) in silent else silent.setdefault((q, prev), [])
        for a in _inputs(dom, prev):
            if (q, a) not in table:
                raise IncompleteTransducer(
                    f"no rule for state {q} on symbol {dom.symbols[a]}")
            q2, out = table[(q, a)]
            if not out:
                targets.append((q2, a))
            elif last is not None and not bad_joins \
                    and not cod.follow(last, out[0]):
                bad_joins.append(
                    f"outputs {cod.symbols[last]} then {cod.symbols[out[0]]} "
                    f"cannot be concatenated (state {q}, input {dom.symbols[a]})")
            yield a, (q2, a, out[-1] if out else last)

    bfs([(t.initial, None, None)], step)

    cfg_index = {c: i for i, c in enumerate(silent)}
    starved = find_cycle([[cfg_index[c] for c in targets]
                          for targets in silent.values()])
    if starved is not None:
        raise Starvation(
            f"cycle through state {list(silent)[starved][0]} emits no output")
    if bad_joins:
        raise InadmissibleOutput(bad_joins[0])


def negate(f):
    """-f, as 0 - f."""
    return sftlab.cohomology.subtract(sftlab.cohomology.zero(f.presentation), f)


def scale(f, c):
    """c·f, in ring Q when c is a Fraction that is not an integer."""
    coh = sftlab.cohomology
    ring = coh.RING_RAT if isinstance(c, Fraction) and c.denominator != 1 else f.ring
    return coh.function(f.presentation, f.depth, [c * v for v in f.table], ring)


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

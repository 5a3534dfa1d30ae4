"""Locally constant functions, coboundaries, and the decision procedures for
class equality, positivity, and order units.  Independent oracle: exhaustive
simple-cycle enumeration on the potential graph (networkx)."""
from __future__ import annotations

import gc
import operator
import os
import pathlib
import random
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import networkx as nx
import pytest
from conftest import FIB, FULL2, negate, random_edge_presentation, random_point, scale
from hypothesis import given
from hypothesis import strategies as st

import sftlab
import sftlab.cohomology as coh
from sftlab.config import Limits
from sftlab.errors import (
    ContradictionDetected,
    EnvelopeExceeded,
    FormatError,
    Inadmissible,
    MismatchedInput,
    NotCyclicallyAdmissible,
    PresentationMismatch,
    RationalNotSupported,
)
from sftlab.randgen import random_function, random_irreducible
from sftlab.shifts import count_words, validate, word_level, words

seeds = st.integers(0, 10**6)


def all_cycle_sums(f):
    """Orbit sums of every simple cycle of the potential graph; the complete
    family of functionals deciding vanishing and positivity."""
    p = f.presentation
    d = max(f.depth, 2)
    g = nx.DiGraph()
    for w in words(p, d - 1):
        g.add_node(w)
    for w in words(p, d):
        g.add_edge(w[:-1], w[1:])
    sums = []
    for cyc in nx.simple_cycles(g):
        word = tuple(v[0] for v in cyc)
        sums.append(coh.orbit_sum(f, word))
    return sums


class TestAlgebra:
    def test_group_laws(self, fib):
        rng = random.Random(7)
        f = random_function(rng, fib)
        zero = coh.zero(fib)
        assert coh.add(f, zero) == f
        assert coh.add(f, negate(f)) == zero
        one = coh.unit(fib)
        assert coh.add(one, one) == coh.constant(fib, 2)

    def test_normalization_drops_padding(self, fib):
        # a depth-2 table that only depends on the first symbol
        f = coh.function(fib, 2, [5, 5, 7])
        assert f.depth == 1
        assert f.table == (5, 7)

    def test_scale_and_multiply(self, fib):
        f = coh.function(fib, 1, [2, -3])
        assert scale(f, 2).table == (4, -6)
        g = coh.indicator(fib, (0,))
        assert coh.multiply(f, g).table == (2, 0)

    @pytest.mark.parametrize("value", [2.5, 2.0, "3", Fraction(1, 2), None])
    def test_ring_z_refuses_what_is_not_an_integer(self, fib, value):
        """Ring Z takes ints and integral Fractions; it truncates nothing."""
        with pytest.raises(FormatError, match="is not an integer"):
            coh.function(fib, 1, [value, 1])

    def test_ring_z_takes_integral_fractions(self, fib):
        f = coh.function(fib, 1, [Fraction(4, 2), True])
        assert f.table == (2, 1) and set(map(type, f.table)) == {int}

    @pytest.mark.parametrize("value", ["x", None, float("inf"), 0.1, "1/3"])
    def test_ring_q_refuses_what_is_not_exact(self, fib, value):
        """Ring Q takes ints and Fractions; it converts no float or string."""
        with pytest.raises(FormatError, match=re.escape(f"value {value!r} ")):
            coh.function(fib, 1, [value, 1], coh.RING_RAT)

    def test_presentation_mismatch(self, fib, full2):
        with pytest.raises(PresentationMismatch):
            coh.add(coh.unit(fib), coh.unit(full2))

    def test_value_on_word_uses_prefix(self, fib):
        f = coh.function(fib, 2, [1, 2, 3])
        assert f.value_on_word((0, 1, 0)) == 2

    def test_value_at_point(self, fib):
        from sftlab.shifts import parse_point

        f = coh.function(fib, 2, [1, 2, 3])
        x = parse_point(fib, ":12")
        assert f.value_at_point(x) == f.value_on_word((0, 1))


class TestPullbackAndSums:
    def test_pullback_constant(self, fib):
        c = coh.constant(fib, 4)
        assert coh.pullback_sigma(c) == c

    def test_pullback_indicator(self, fib):
        f = coh.indicator(fib, (0,))
        g = coh.pullback_sigma(f)
        assert g.depth == 2
        # words 11, 12, 21: value tracks the second symbol
        assert g.table == (1, 0, 1)

    @given(seeds)
    def test_indicator_matches_brute_force(self, seed):
        """[u] at depth len(u) is 1 exactly on the words that start with u;
        the empty word gives the unit."""
        rng = random.Random(seed)
        p = random_edge_presentation(rng, 3) if seed % 2 else random_irreducible(rng, 4)
        u = random_point(rng, p).prefix(rng.randint(0, 5))
        f = coh.indicator(p, u)
        k = max(len(u), 1)
        assert coh.lift_table(f, k) == tuple(int(w[:len(u)] == u) for w in words(p, k))

    @pytest.mark.parametrize("u", [(1, 1), (0, 2), (-1,), (0, -1)])
    def test_indicator_of_no_word_raises(self, fib, u):
        with pytest.raises(Inadmissible):
            coh.indicator(fib, u)

    def test_pullback_twice(self, fib):
        rng = random.Random(3)
        f = random_function(rng, fib, max_depth=2)
        assert coh.pullback_sigma(coh.pullback_sigma(f)) == \
            coh.pullback_sigma(coh.pullback_sigma(f))

    def test_partial_sum_basics(self, fib):
        rng = random.Random(5)
        f = random_function(rng, fib)
        assert coh.partial_sum(f, 1) == f
        assert coh.partial_sum(f, 0) == coh.zero(fib)
        assert coh.partial_sum(coh.unit(fib), 3) == coh.constant(fib, 3)

    def test_partial_sum_on_cylinder(self, fib):
        f = coh.indicator(fib, (0,))
        s = coh.partial_sum(f, 2)
        assert s.value_on_word((0, 1, 0)) == 1

    def test_partial_sum_cocycle_law(self, fib):
        rng = random.Random(11)
        f = random_function(rng, fib, max_depth=2)
        for m in range(4):
            n = 4 - m
            lhs = coh.partial_sum(f, m + n)
            shifted = f
            for _ in range(m):
                shifted = coh.pullback_sigma(shifted)
            rhs = coh.add(coh.partial_sum(f, m), coh.partial_sum(shifted, n))
            assert lhs == rhs

    def test_coboundary_constant(self, fib):
        assert coh.coboundary(coh.constant(fib, 9)) == coh.zero(fib)

    def test_orbit_sum_unit(self, fib):
        assert coh.orbit_sum(coh.unit(fib), (0, 1)) == 2
        assert coh.orbit_sum(coh.unit(fib), (0,)) == 1

    def test_orbit_sum_indicator(self, full2):
        f = coh.indicator(full2, (0,))
        assert coh.orbit_sum(f, (0, 1)) == 1

    def test_orbit_sum_rotation_invariant(self, fib):
        rng = random.Random(13)
        f = random_function(rng, fib, max_depth=3)
        assert coh.orbit_sum(f, (0, 0, 1)) == coh.orbit_sum(f, (0, 1, 0))

    def test_orbit_sum_rejects_open_word(self, fib):
        with pytest.raises(NotCyclicallyAdmissible):
            coh.orbit_sum(coh.unit(fib), (1,))      # "2" cannot follow itself

    @given(seeds)
    def test_coboundary_telescopes(self, seed):
        rng = random.Random(seed)
        p = random_irreducible(rng, 4)
        b = random_function(rng, p, max_depth=2)
        f = coh.coboundary(b)
        for w in words(p, 2):
            if p.follow(w[-1], w[0]):
                assert coh.orbit_sum(f, w) == 0


def _as_ring(f, ring):
    """f itself over Z; f / 3 over Q."""
    return f if ring == coh.RING_INT else scale(f, Fraction(1, 3))


def _partial_sum_by_pullbacks(f, n):
    """Reference n-step cocycle: n rounds of add and pullback_sigma."""
    acc = coh.constant(f.presentation, 0, f.ring)
    cur = f
    for _ in range(n):
        acc = coh.add(acc, cur)
        cur = coh.pullback_sigma(cur)
    return acc


# Reference bodies over words, by tuple slicing and lookups in a word-keyed
# dict; the library reads the first-symbol blocks of the word levels instead.

def _index(p, k):
    """The position of each word of B_k in ``words(p, k)``."""
    return {w: i for i, w in enumerate(words(p, k))}


def _ref_normalize(p, depth, table):
    while depth > 1:
        sidx = _index(p, depth - 1)
        shorter = [None] * len(sidx)
        for w, v in zip(words(p, depth), table):
            i = sidx[w[:-1]]
            if shorter[i] is None:
                shorter[i] = v
            elif shorter[i] != v:
                return depth, tuple(table)
        depth, table = depth - 1, shorter
    return depth, tuple(table)


def _ref_lift(f, depth):
    idx = _index(f.presentation, f.depth)
    return tuple(f.table[idx[w[:f.depth]]] for w in words(f.presentation, depth))


def _ref_pullback(f):
    idx = _index(f.presentation, f.depth)
    return tuple(f.table[idx[w[1:]]] for w in words(f.presentation, f.depth + 1))


def _level_case(seed, ring):
    """A vertex-kind (even seed) or edge-kind (odd seed) presentation, a
    depth in 1..5 with |B_(depth+1)| at most 2000, and a table at that depth.
    The table is the lift of one at a random shallower depth, so that
    normalisation has work to do, and one entry in three tables is changed."""
    rng = random.Random(seed)
    p = random_edge_presentation(rng, 3) if seed % 2 else random_irreducible(rng, 4)
    depth = rng.randint(1, 5)
    while depth > 1 and count_words(p, depth + 1) > 2000:
        depth -= 1
    shallow = rng.randint(1, depth)
    base = [rng.randint(-3, 3) for _ in words(p, shallow)]
    idx = _index(p, shallow)
    table = [base[idx[w[:shallow]]] for w in words(p, depth)]
    if rng.randrange(3) == 0:
        table[rng.randrange(len(table))] += 1
    if ring == coh.RING_RAT:
        table = [Fraction(v, 3) for v in table]
    return p, depth, table


rings = st.sampled_from([coh.RING_INT, coh.RING_RAT])


def _assert_in_ring(table, ring):
    """Every value has type exactly int in ring Z, Fraction in ring Q: a
    tuple == cannot tell Fraction(2) from 2."""
    want = int if ring == coh.RING_INT else Fraction
    assert {type(v) for v in table} == {want}


class TestLevelTablesMatchWordReference:
    """The table transforms against word-built references.  They build
    through the unchecked ``_build``, so each result must also be the one
    the public ``function`` makes of the same values, in the same ring."""

    @given(seeds, rings)
    def test_function(self, seed, ring):
        p, depth, table = _level_case(seed, ring)
        f = coh.function(p, depth, table, ring)
        assert (f.depth, f.table) == _ref_normalize(p, depth, table)
        _assert_in_ring(f.table, ring)

    @given(seeds, rings)
    def test_lift_table(self, seed, ring):
        p, depth, table = _level_case(seed, ring)
        f = coh.function(p, depth, table, ring)
        for to in range(f.depth, depth + 2):
            lifted = coh.lift_table(f, to)
            assert lifted == _ref_lift(f, to)
            _assert_in_ring(lifted, ring)

    @given(seeds, rings)
    def test_pullback_sigma(self, seed, ring):
        p, depth, table = _level_case(seed, ring)
        f = coh.function(p, depth, table, ring)
        g = coh.pullback_sigma(f)
        assert g.ring == ring
        assert (g.depth, g.table) == _ref_normalize(p, f.depth + 1, _ref_pullback(f))
        assert g == coh.function(p, f.depth + 1, _ref_pullback(f), ring)
        _assert_in_ring(g.table, ring)

    @given(seeds, rings)
    def test_coboundary(self, seed, ring):
        p, depth, table = _level_case(seed, ring)
        b = coh.function(p, depth, table, ring)
        diff = [x - y for x, y in zip(_ref_lift(b, b.depth + 1), _ref_pullback(b))]
        c = coh.coboundary(b)
        assert (c.depth, c.table) == _ref_normalize(p, b.depth + 1, diff)
        assert c == coh.function(p, b.depth + 1, diff, ring)
        _assert_in_ring(c.table, ring)

    @given(seeds, rings, rings)
    def test_pointwise(self, seed, ring_f, ring_g):
        """add, subtract and multiply on every pairing of Z and Q, both
        ways round, with g at a depth no larger than f's table."""
        p, depth, table = _level_case(seed, ring_f)
        f = coh.function(p, depth, table, ring_f)
        rng = random.Random(seed + 1)
        g_depth = rng.randint(1, depth)
        g_table = [rng.randint(-3, 3) for _ in words(p, g_depth)]
        if ring_g == coh.RING_RAT:
            g_table = [Fraction(v, 2) for v in g_table]
        g = coh.function(p, g_depth, g_table, ring_g)
        ring = coh.RING_RAT if coh.RING_RAT in (ring_f, ring_g) else coh.RING_INT
        d = max(f.depth, g.depth)
        for op, combine in ((operator.add, coh.add), (operator.sub, coh.subtract),
                            (operator.mul, coh.multiply)):
            for x, y in ((f, g), (g, f)):
                h = combine(x, y)
                values = list(map(op, _ref_lift(x, d), _ref_lift(y, d)))
                assert (h.depth, h.table) == _ref_normalize(p, d, values)
                assert h == coh.function(p, d, values, ring)
                _assert_in_ring(h.table, ring)


def _forced_chain(full, chain):
    """Vertex rows: symbols 0 .. full-1 may follow each other and lead to
    ``full``, whose path full -> full+1 -> ... -> 0 is forced for ``chain``
    steps."""
    n = full + chain
    return tuple(tuple(int(b <= full) for b in range(n)) if a < full
                 else tuple(int(b == (a + 1) % n) for b in range(n))
                 for a in range(n))


# The words of B_k (k <= 9) that start with symbol 3 of the chain matrix are
# one word, so some symbol's tails are a single word wherever a lift splits.
SPLIT_CASES = [(FIB, "vertex"), (_forced_chain(3, 8), "vertex"),
               (((2, 1), (1, 1)), "edge")]


class TestSplitLift:
    """One-level lifts at 10^4 words or more, where ``_lift`` gathers run
    by run (``_split_gather``), against the word-built references, with f
    at depth d and g at d + 1."""

    @pytest.mark.parametrize("ring", [coh.RING_INT, coh.RING_RAT])
    @pytest.mark.parametrize("rows, kind", SPLIT_CASES,
                             ids=["golden-mean", "forced-chain", "edge"])
    def test_one_level_transforms(self, rows, kind, ring):
        p = validate(rows, kind)
        d = next(d for d in range(2, 40) if count_words(p, d + 1) >= 10**4)
        assert count_words(p, d + 1) >= coh._SPLIT_WORDS
        rng = random.Random(d)

        def values(k):
            table = [rng.randint(-3, 3) for _ in range(count_words(p, k))]
            return [Fraction(v, 3) for v in table] if ring == coh.RING_RAT else table

        f = coh.function(p, d, values(d), ring)
        g = coh.function(p, d + 1, values(d + 1), ring)
        assert (f.depth, g.depth) == (d, d + 1)
        lifted = coh.lift_table(f, d + 1)
        assert lifted == _ref_lift(f, d + 1)
        _assert_in_ring(lifted, ring)
        c = coh.coboundary(f)
        diff = map(operator.sub, _ref_lift(f, d + 1), _ref_pullback(f))
        assert c == coh.function(p, d + 1, diff, ring)
        _assert_in_ring(c.table, ring)
        for op, combine in ((operator.add, coh.add), (operator.sub, coh.subtract)):
            for x, y in ((f, g), (g, f)):
                h = combine(x, y)
                want = map(op, _ref_lift(x, d + 1), _ref_lift(y, d + 1))
                assert h == coh.function(p, d + 1, want, ring)
                _assert_in_ring(h.table, ring)

    def test_depth_one_repeats(self):
        """From depth 1 a large one-level lift is one repeat per symbol."""
        p = validate(((70,),), "edge")
        assert count_words(p, 2) >= coh._SPLIT_WORDS
        f = coh.function(p, 1, range(70))
        assert coh.lift_table(f, 2) == _ref_lift(f, 2)
        diff = map(operator.sub, _ref_lift(f, 2), _ref_pullback(f))
        assert coh.coboundary(f) == coh.function(p, 2, diff)

    def test_chain_tails_are_single_words(self):
        p = validate(SPLIT_CASES[1][0])
        assert [word_level(p, k).counts[3] for k in range(1, 10)] == [1] * 9

    def test_coboundary_keeps_no_parent_index(self):
        """The memory traced while ``coboundary`` runs on the full 2-shift
        at depth 17 peaks at most 2.5 times the result's table: no index of
        one int a word of B_18 is built (6.0 times when one was).  Values
        in -3..3 keep the differences among the cached small ints, and the
        levels are built first, since p keeps them."""
        p = validate(FULL2)
        rng = random.Random(17)
        b = coh.function(p, 17, [rng.randint(-3, 3) for _ in range(2**17)])
        word_level(p, 18)
        gc.collect()
        tracemalloc.start()
        try:
            c = coh.coboundary(b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert c.depth == 18
        assert peak <= 2.5 * sys.getsizeof(c.table)


def test_trusted_producers_do_not_recheck_values(monkeypatch, fib):
    """coboundary, pullback_sigma, lift_table, add, subtract, multiply, phi
    and psi take values already in the ring: with every value check made to
    fail, they still build from ring Q inputs made beforehand."""
    import sftlab.moves as mv

    ee = mv.elementary(((1, 2), (1, 0)), ((1, 0), (1, 1)))
    third = Fraction(1, 3)
    f = coh.function(fib, 3, [Fraction(v, 3) for v in (1, 2, 2, 4, 5)],
                     coh.RING_RAT)
    g = scale(coh.indicator(fib, (1,)), third)
    z = coh.function(fib, 2, [1, -2, 3])
    fa = scale(coh.function(ee.a, 2, range(count_words(ee.a, 2))), third)
    fb = scale(coh.function(ee.b, 2, range(count_words(ee.b, 2))), third)

    def refuse(value, ring):
        raise AssertionError(f"value {value!r} re-checked")

    monkeypatch.setattr(coh, "_coerce", refuse)
    with pytest.raises(AssertionError, match="re-checked"):
        coh.function(fib, 1, [1, 2], coh.RING_RAT)
    results = [coh.coboundary(f), coh.pullback_sigma(f),
               mv.phi(ee, fa), mv.psi(ee, fb)]
    for x, y in ((f, g), (g, f), (f, z), (z, f)):
        results += [coh.add(x, y), coh.subtract(x, y), coh.multiply(x, y)]
    for h in results:
        assert h.ring == coh.RING_RAT
        _assert_in_ring(h.table, coh.RING_RAT)
    _assert_in_ring(coh.lift_table(f, 5), coh.RING_RAT)


class TestNormalize:
    """Edge cases of the depth reduction, against the word-built
    ``_ref_normalize``."""

    @staticmethod
    def _lifted(p, depth, table, to):
        idx = _index(p, depth)
        return [table[idx[w[:depth]]] for w in words(p, to)]

    def test_depth_one_lifted_to_five_comes_back(self, fib, full3):
        for p in (fib, full3):
            values = [7 * a - 3 for a in range(p.alphabet_size)]
            table = self._lifted(p, 1, values, 5)
            f = coh.function(p, 5, table)
            assert (f.depth, f.table) == _ref_normalize(p, 5, table) == (1, tuple(values))

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_last_word_alone_keeps_the_depth(self, full2, full3, k):
        """The last word of B_k on a full shift has a previous sibling; a
        change there alone keeps depth k."""
        for p in (full2, full3):
            table = self._lifted(p, k - 1, list(range(count_words(p, k - 1))), k)
            table[-1] += 1
            f = coh.function(p, k, table)
            assert (f.depth, f.table) == _ref_normalize(p, k, table) == (k, tuple(table))

    def test_drops_two_levels_and_stops(self, fib, full3):
        for p in (fib, full3):
            values = list(range(count_words(p, 2)))    # all distinct: depth 2
            table = self._lifted(p, 2, values, 4)
            f = coh.function(p, 4, table)
            assert (f.depth, f.table) == _ref_normalize(p, 4, table) == (2, tuple(values))


class TestLiftTable:
    def test_same_depth_is_the_table(self, fib):
        f = coh.function(fib, 2, [1, 2, 3])
        assert coh.lift_table(f, 2) is f.table

    def test_smaller_depth_refused(self, fib):
        f = coh.function(fib, 2, [1, 2, 3])
        with pytest.raises(ValueError, match="cannot lift a depth-2 function to depth 1"):
            coh.lift_table(f, 1)

    def test_smaller_depth_refused_under_optimisation(self):
        """The refusal is no assert, so python -O keeps it."""
        code = ("import sftlab.cohomology as coh\n"
                "from sftlab.shifts import validate\n"
                "f = coh.function(validate(((1, 1), (1, 0))), 2, [1, 2, 3])\n"
                "try:\n"
                "    coh.lift_table(f, 1)\n"
                "except ValueError as exc:\n"
                "    print(exc)\n")
        src = pathlib.Path(sftlab.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-O", "-c", code],
                              capture_output=True, text=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=str(src)))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "cannot lift a depth-2 function to depth 1\n"


class TestWindowSums:
    @given(seeds, st.sampled_from([coh.RING_INT, coh.RING_RAT]))
    def test_matches_brute_force(self, seed, ring):
        rng = random.Random(seed)
        p = random_irreducible(rng, 4)
        f = _as_ring(random_function(rng, p, max_depth=3), ring)
        value = dict(zip(words(p, f.depth), f.table))
        rows = []
        for _ in range(rng.randint(0, 6)):
            n = rng.randint(0, 3)
            length = n + f.depth - 1 if n else rng.randint(0, 2)
            rows.append((random_point(rng, p).prefix(length), n))
        want = [sum(value[s[i:i + f.depth]] for i in range(n)) for s, n in rows]
        assert coh.window_sums(f, rows) == want

    def test_no_rows(self, fib):
        assert coh.window_sums(coh.unit(fib), []) == []

    def test_empty_row_is_zero(self, fib):
        f = coh.function(fib, 2, [1, 2, 3])
        assert coh.window_sums(f, [((), 0), ((0, 1), 0)]) == [0, 0]

    def test_inadmissible_window(self, fib):
        f = coh.function(fib, 2, [1, 2, 3])
        with pytest.raises(MismatchedInput, match="not admissible"):
            coh.window_sums(f, [((0, 1, 1), 2)])      # "22" is not a word

    def test_short_window(self, fib):
        f = coh.function(fib, 2, [1, 2, 3])
        with pytest.raises(MismatchedInput, match="need at least 2"):
            coh.window_sums(f, [((0, 1), 2)])

    @given(seeds, st.sampled_from([coh.RING_INT, coh.RING_RAT]))
    def test_rolled_windows_match_brute_force(self, seed, ring):
        """Long streams, so that most windows are rolled from the next one,
        on vertex- and edge-kind shifts, depths 1-5."""
        rng = random.Random(seed)
        p = random_edge_presentation(rng, 3) if seed % 2 else random_irreducible(rng, 4)
        depth = rng.randint(1, 5)
        while depth > 1 and count_words(p, depth) > 2000:
            depth -= 1
        table = [rng.randint(-5, 5) for _ in range(count_words(p, depth))]
        f = _as_ring(coh.function(p, depth, table), ring)
        value = dict(zip(words(p, f.depth), f.table))
        rows = []
        for _ in range(rng.randint(1, 8)):
            n = rng.randint(0, 12)
            length = n + f.depth - 1 + rng.randint(0, 2)
            rows.append((random_point(rng, p).prefix(length), n))
        want = [sum(value[s[i:i + f.depth]] for i in range(n)) for s, n in rows]
        assert coh.window_sums(f, rows) == want

    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("symbol", [-1, 2], ids=["minus-one", "alphabet-size"])
    @pytest.mark.parametrize("at", [0, 3], ids=["last-window", "rolled-window"])
    def test_symbol_out_of_range(self, fib, depth, symbol, at):
        """A symbol outside 0..m-1 is no word, whether the window holding it
        is ranked by its pairs or rolled; -1 is not read as the last row."""
        f = coh.function(fib, depth, range(count_words(fib, depth)))
        stream = [0] * (4 + depth - 1)
        stream[at] = symbol
        with pytest.raises(MismatchedInput, match=r"word \(.*\) not admissible"):
            coh.window_sums(f, [(tuple(stream), 4)])

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_unread_symbols_are_not_checked(self, fib, depth):
        """Only the first n windows are read: a bad symbol after them, and
        consecutive symbols that are no word for depth 1, raise nothing."""
        f = coh.function(fib, depth, range(count_words(fib, depth)))
        assert coh.window_sums(f, [((0,) * (depth + 1) + (-1, 7), 2)]) == [0]
        g = coh.function(fib, 1, [3, 4])
        assert coh.window_sums(g, [((1, 1, 0), 3)]) == [11]

    def test_first_bad_window_raises(self, full3):
        """Windows are checked in order: an inadmissible window before a
        short one raises first, and a short one before a bad symbol beyond
        the stream's end."""
        fib_like = validate(((1, 1, 0), (1, 0, 1), (1, 1, 1)))
        f = coh.function(fib_like, 2, range(count_words(fib_like, 2)))
        with pytest.raises(MismatchedInput, match="word 22 not admissible"):
            coh.window_sums(f, [((0, 1, 1), 5)])
        with pytest.raises(MismatchedInput, match="need at least 2 symbols, got 1"):
            coh.window_sums(f, [((0, 1, 2), 3)])
        with pytest.raises(MismatchedInput, match="need at least 3 symbols, got 2"):
            coh.window_sums(coh.function(full3, 3, range(27)), [((0, 1), 1)])

    def test_single_window_checks_the_word_cap(self, full3, monkeypatch):
        """One window builds no per-word array, but the cap at f's depth
        still holds, at depth 1 too."""
        for depth in (1, 2):
            f = coh.function(validate(full3.adjacency), depth,
                             range(count_words(full3, depth)))
            monkeypatch.setitem(vars(f.presentation), "limits",
                                Limits(max_words=count_words(full3, depth) - 1))
            with pytest.raises(EnvelopeExceeded):
                f.value_on_word((0,) * depth)

    def test_value_on_word_builds_no_word_table(self, stray_caches, no_word_tables):
        """A depth-16 function over a fresh presentation: one window ranked
        off the levels asks for no word table and leaves no other cache."""
        p = validate(((1, 1), (1, 0)))
        rng = random.Random(16)
        f = coh.function(p, 16, [rng.randint(-9, 9) for _ in range(count_words(p, 16))])
        assert f.depth == 16
        w = (0, 1) * 8
        rank = words(validate(p.adjacency), 16).index(w)       # the test's own binding
        assert f.value_on_word(w + (0,)) == f.table[rank]
        assert stray_caches(p) == set()

    @given(seeds, st.sampled_from([coh.RING_INT, coh.RING_RAT]),
           st.integers(0, 4))
    def test_partial_sum_matches_pullback_loop(self, seed, ring, n):
        rng = random.Random(seed)
        p = random_irreducible(rng, 4)
        f = _as_ring(random_function(rng, p, max_depth=2), ring)
        assert coh.partial_sum(f, n) == _partial_sum_by_pullbacks(f, n)

    def test_partial_sum_of_constant_stays_shallow(self, full2):
        # B_40 of the full 2-shift is far over the word cap
        assert coh.partial_sum(coh.unit(full2), 40) == coh.constant(full2, 40)

    @given(seeds, st.sampled_from([coh.RING_INT, coh.RING_RAT]),
           st.integers(0, 5))
    def test_partial_sum_matches_window_sums(self, seed, ring, n):
        """S_n on each word w of its depth is the sum of f over the first n
        windows of w, read off a word-keyed dict; constant f included."""
        rng = random.Random(seed)
        p = random_edge_presentation(rng, 3) if seed % 2 else random_irreducible(rng, 4)
        f = random_function(rng, p, max_depth=2)
        if seed % 5 == 0:
            f = coh.constant(p, rng.randint(-3, 3))
        f = _as_ring(f, ring)
        s = coh.partial_sum(f, n)
        assert s.ring == f.ring
        depth = max(f.depth + n - 1, s.depth)
        value = dict(zip(words(p, f.depth), f.table))
        want = [sum(value[w[i:i + f.depth]] for i in range(n)) for w in words(p, depth)]
        assert coh.lift_table(s, depth) == tuple(want)
        assert coh.partial_sum(f, n) == coh.function(p, depth, want, f.ring)

    def test_partial_sum_zero_steps_is_zero_in_the_ring(self, fib):
        f = scale(coh.function(fib, 2, [1, 2, 3]), Fraction(1, 3))
        assert coh.partial_sum(f, 0) == coh.constant(fib, 0, coh.RING_RAT)
        assert {type(v) for v in coh.partial_sum(f, 0).table} == {Fraction}


class TestClassIsZero:
    def test_zero_function(self, fib):
        res = coh.class_is_zero(coh.zero(fib))
        assert res.is_coboundary
        assert res.potential.is_zero()

    def test_unit_is_not_coboundary(self, fib):
        res = coh.class_is_zero(coh.unit(fib))
        assert not res.is_coboundary
        assert coh.orbit_sum(coh.unit(fib), res.cycle) != 0

    @given(seeds)
    def test_roundtrip_with_witness(self, seed):
        rng = random.Random(seed)
        p = random_irreducible(rng, 6)
        b = random_function(rng, p, max_depth=3)
        f = coh.coboundary(b)
        res = coh.class_is_zero(f)
        assert res.is_coboundary
        assert coh.coboundary(res.potential) == f

    @given(seeds)
    def test_matches_simple_cycle_oracle(self, seed):
        rng = random.Random(seed)
        p = random_irreducible(rng, 3)
        f = random_function(rng, p, max_depth=2, low=-2, high=2)
        sums = all_cycle_sums(f)
        assert coh.class_is_zero(f).is_coboundary == all(s == 0 for s in sums)

    def test_rational_coefficients(self, fib):
        b = coh.function(fib, 1, [Fraction(1, 2), Fraction(-1, 3)], coh.RING_RAT)
        f = coh.coboundary(b)
        res = coh.class_is_zero(f)
        assert res.is_coboundary
        assert coh.coboundary(res.potential) == f

    @given(seeds)
    def test_depth_stable(self, seed):
        rng = random.Random(seed)
        p = random_irreducible(rng, 4)
        f = random_function(rng, p, max_depth=2)
        assert coh.class_is_zero(f).is_coboundary == \
            coh.class_is_zero(coh.pullback_sigma(f)).is_coboundary


@pytest.mark.parametrize("decide", [
    lambda f, cob: coh.class_is_zero(cob).is_coboundary,
    lambda f, cob: coh.class_is_nonnegative(f).nonnegative,
    lambda f, cob: coh.order_unit_check(f),
], ids=["class_is_zero", "class_is_nonnegative", "order_unit_check"])
def test_decisions_build_no_word_tables(decide, stray_caches, no_word_tables):
    """The decisions read the potential graph off the word levels: a yes
    asks for no word table and leaves no cache beyond the presentation's
    own."""
    for rows, kind in ((((1, 1, 0), (0, 0, 1), (1, 1, 1)), "vertex"),
                       (((1, 2), (1, 0)), "edge")):
        for depth in (1, 3):
            p = validate(rows, kind)
            b = coh.function(p, depth, range(count_words(p, depth)))
            cob = coh.coboundary(b)
            assert decide(coh.add(coh.unit(p), cob), cob)
            assert stray_caches(p) == set()


@pytest.mark.parametrize("decide", [
    lambda g: coh.class_is_zero(g).is_coboundary,
    lambda g: coh.class_is_nonnegative(negate(g)).nonnegative,
], ids=["class_is_zero", "class_is_nonnegative"])
def test_refusals_build_no_word_tables(decide, stray_caches, no_word_tables):
    """A no re-checks its cycle with orbit_sum, whose windows are ranked
    off the word levels too: no word table, no cache beyond the
    presentation's own."""
    for rows, kind in ((((1, 1, 0), (0, 0, 1), (1, 1, 1)), "vertex"),
                       (((1, 2), (1, 0)), "edge")):
        for depth in (1, 3):
            p = validate(rows, kind)
            b = coh.function(p, depth, range(count_words(p, depth)))
            assert not decide(coh.add(coh.unit(p), coh.coboundary(b)))
            assert stray_caches(p) == set()


_OFF_BY_ONE = (
    "real = coh.coboundary\n"
    "def off_by_one(b):\n"
    "    g = real(b)\n"
    "    table = (g.table[0] + 1,) + g.table[1:]\n"
    "    return coh.function(g.presentation, g.depth, table, g.ring)\n"
    "coh.coboundary = off_by_one\n")


@pytest.mark.parametrize("decide, message", [
    (coh.class_is_zero, "is_coboundary: witness failed re-verification"),
    (coh.class_is_nonnegative, "nonnegative representative is not cohomologous to f"),
], ids=["class_is_zero", "class_is_nonnegative"])
def test_failed_witness_raises(decide, message, fib, monkeypatch):
    """A coboundary that is off by one on one word fails both re-checks."""
    f = coh.coboundary(coh.function(fib, 1, [2, 5]))
    assert decide(f)
    real = coh.coboundary

    def off_by_one(b):
        g = real(b)
        table = (g.table[0] + 1,) + g.table[1:]
        return coh.function(g.presentation, g.depth, table, g.ring)

    monkeypatch.setattr(coh, "coboundary", off_by_one)
    with pytest.raises(ContradictionDetected, match=message):
        decide(f)


def test_failed_witness_raises_under_optimisation():
    """The re-checks are no asserts, so python -O keeps them."""
    code = ("import sftlab.cohomology as coh\n"
            "from sftlab.errors import ContradictionDetected\n"
            "from sftlab.shifts import validate\n"
            "f = coh.coboundary(coh.function(validate(((1, 1), (1, 0))), 1, [2, 5]))\n"
            + _OFF_BY_ONE +
            "for decide in (coh.class_is_zero, coh.class_is_nonnegative):\n"
            "    try:\n"
            "        decide(f)\n"
            "    except ContradictionDetected as exc:\n"
            "        print(exc)\n")
    src = pathlib.Path(sftlab.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("is_coboundary: witness failed re-verification\n"
                           "nonnegative representative is not cohomologous to f\n")


class TestClassEqual:
    @given(seeds)
    def test_perturbation_by_coboundary(self, seed):
        rng = random.Random(seed)
        p = random_irreducible(rng, 5)
        f = random_function(rng, p)
        b = random_function(rng, p, max_depth=2)
        assert coh.class_equal(f, coh.add(f, coh.coboundary(b)))

    def test_unit_vs_zero(self, fib, full2, full3):
        for p in (fib, full2, full3):
            assert not coh.class_equal(coh.unit(p), coh.zero(p))

    @given(seeds)
    def test_pullback_in_same_class(self, seed):
        rng = random.Random(seed)
        p = random_irreducible(rng, 4)
        f = random_function(rng, p, max_depth=2)
        assert coh.class_equal(coh.pullback_sigma(f), f)


class TestClassIsNonnegative:
    def test_unit(self, fib):
        res = coh.class_is_nonnegative(coh.unit(fib))
        assert res.nonnegative
        assert res.representative.min_value() >= 0
        assert coh.class_equal(res.representative, coh.unit(fib))

    def test_negative_unit(self, fib):
        res = coh.class_is_nonnegative(negate(coh.unit(fib)))
        assert not res.nonnegative
        assert coh.orbit_sum(negate(coh.unit(fib)), res.cycle) < 0

    def test_coboundary_representative_zero(self, fib):
        rng = random.Random(17)
        b = random_function(rng, fib, max_depth=2)
        res = coh.class_is_nonnegative(coh.coboundary(b))
        assert res.nonnegative
        assert res.representative.is_zero()

    def test_rational_rejected(self, fib):
        f = coh.constant(fib, Fraction(1, 2), coh.RING_RAT)
        with pytest.raises(RationalNotSupported):
            coh.class_is_nonnegative(f)

    @given(seeds)
    def test_matches_simple_cycle_oracle(self, seed):
        rng = random.Random(seed)
        p = random_irreducible(rng, 3)
        f = random_function(rng, p, max_depth=2, low=-2, high=2)
        sums = all_cycle_sums(f)
        res = coh.class_is_nonnegative(f)
        assert res.nonnegative == all(s >= 0 for s in sums)
        if res.nonnegative:
            assert res.representative.min_value() >= 0
            assert coh.class_equal(res.representative, f)
        else:
            assert coh.orbit_sum(f, res.cycle) < 0

    @given(seeds)
    def test_cone_compatibility(self, seed):
        rng = random.Random(seed)
        p = random_irreducible(rng, 4)
        b = random_function(rng, p, max_depth=2, low=-2, high=2)
        c = rng.choice([-1, 0, 1])
        f = coh.add(coh.coboundary(b), coh.constant(p, c))
        pos = coh.class_is_nonnegative(f).nonnegative
        neg = coh.class_is_nonnegative(negate(f)).nonnegative
        if pos and neg:
            assert coh.class_is_zero(f).is_coboundary

    @given(seeds)
    def test_depth_stable(self, seed):
        rng = random.Random(seed)
        p = random_irreducible(rng, 4)
        f = random_function(rng, p, max_depth=2, low=-2, high=2)
        assert coh.class_is_nonnegative(f).nonnegative == \
            coh.class_is_nonnegative(coh.pullback_sigma(f)).nonnegative


@pytest.mark.parametrize("decide, ring", [
    (coh.class_is_zero, coh.RING_INT),
    (coh.class_is_zero, coh.RING_RAT),
    (coh.class_is_nonnegative, coh.RING_INT),
], ids=["class_is_zero-Z", "class_is_zero-Q", "class_is_nonnegative-Z"])
@given(seeds)
def test_a_no_carries_its_orbit_sum(decide, ring, seed):
    """Every no carries orbit_sum(f, cycle) as its cycle_sum, every yes None.
    A coboundary less 1, itself and plus 1 give each decision both answers."""
    rng = random.Random(seed)
    p = random_irreducible(rng, 4)
    cob = coh.coboundary(random_function(rng, p, max_depth=2, low=-2, high=2))
    fs = [coh.add(cob, coh.constant(p, c)) for c in (-1, 0, 1)]
    fs.append(random_function(rng, p, max_depth=2, low=-2, high=2))
    answers = set()
    for f in map(_as_ring, fs, [ring] * len(fs)):
        res = decide(f)
        answers.add(bool(res))
        if res:
            assert res.cycle_sum is None
        else:
            want = coh.orbit_sum(f, res.cycle)
            assert res.cycle_sum == want and type(res.cycle_sum) is type(want)
    assert answers == {True, False}


class TestOrderUnit:
    def test_fixtures(self, fib):
        assert coh.order_unit_check(coh.unit(fib))
        assert not coh.order_unit_check(coh.zero(fib))
        assert coh.order_unit_check(coh.constant(fib, 2))

    def test_every_cycle_meets_vertex_one(self, fib, full2):
        f = scale(coh.indicator(fib, (0,)), 2)
        assert coh.order_unit_check(f)           # every Fibonacci cycle visits 1
        g = coh.indicator(full2, (0,))
        assert not coh.order_unit_check(g)       # the fixed point 2^inf misses it

    @given(seeds)
    def test_matches_simple_cycle_oracle(self, seed):
        rng = random.Random(seed)
        p = random_irreducible(rng, 3)
        f = random_function(rng, p, max_depth=2, low=-1, high=2)
        sums = all_cycle_sums(f)
        assert coh.order_unit_check(f) == all(s > 0 for s in sums)

    def test_longest_simple_cycle_with_sum_one(self, full2):
        """The boundary of the weights n f - 1, here with n = 2: the loops at
        0 and 1 weigh 1, and the cycle 0 1, of length n and sum 1, weighs 0.
        With f(01) = 0 that cycle has sum 0 and weighs -2."""
        f = coh.function(full2, 2, [1, 1, 0, 1])     # f(00), f(01), f(10), f(11)
        assert coh.order_unit_check(f)
        assert not coh.order_unit_check(coh.function(full2, 2, [1, 0, 0, 1]))

    def test_rational_rejected(self, fib):
        f = coh.constant(fib, Fraction(1, 2), coh.RING_RAT)
        with pytest.raises(RationalNotSupported, match="order unit test needs integer values"):
            coh.order_unit_check(f)

    @given(seeds)
    def test_verdict_is_positivity_of_n_f_minus_one(self, seed):
        """n = |B_{d-1}|: f is an order unit exactly when the class of n f - 1
        is nonnegative, and a no's cycle has orbit sum at most 0 under f."""
        rng = random.Random(seed)
        p = random_irreducible(rng, 4)
        f = random_function(rng, p, max_depth=3, low=-1, high=2)
        n = count_words(p, max(f.depth, 2) - 1)
        res = coh.class_is_nonnegative(coh.subtract(scale(f, n), coh.unit(p)))
        assert coh.order_unit_check(f) == res.nonnegative
        if not res.nonnegative:
            assert coh.orbit_sum(f, res.cycle) <= 0

    def test_both_answers_rechecked_under_optimisation(self):
        """A no is re-checked by the orbit sum of f along its cycle, a yes
        by the positivity witness of n f - 1; python -O keeps both."""
        code = ("import sftlab.cohomology as coh\n"
                "from sftlab.errors import ContradictionDetected\n"
                "from sftlab.shifts import validate\n"
                "p = validate(((1, 1), (1, 0)))\n"
                "zero = coh.zero(p)\n"
                "sums = coh.orbit_sum\n"
                "coh.orbit_sum = lambda g, c: 1 if g is zero else sums(g, c)\n"
                + _OFF_BY_ONE +
                "for f in (zero, coh.unit(p)):\n"
                "    try:\n"
                "        coh.order_unit_check(f)\n"
                "    except ContradictionDetected as exc:\n"
                "        print(exc)\n")
        src = pathlib.Path(sftlab.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-O", "-c", code],
                              capture_output=True, text=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=str(src)))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == ("order unit: cycle sum positive\n"
                               "nonnegative representative is not cohomologous to f\n")


class TestWellDefinedness:
    @given(seeds)
    def test_observables_ignore_coboundaries(self, seed):
        rng = random.Random(seed)
        p = random_irreducible(rng, 4)
        f = random_function(rng, p, max_depth=2, low=-2, high=2)
        b = random_function(rng, p, max_depth=2, low=-2, high=2)
        g = coh.add(f, coh.coboundary(b))
        assert coh.class_is_zero(f).is_coboundary == coh.class_is_zero(g).is_coboundary
        assert coh.class_is_nonnegative(f).nonnegative == \
            coh.class_is_nonnegative(g).nonnegative
        assert coh.order_unit_check(f) == coh.order_unit_check(g)
        for w in words(p, 2):
            if p.follow(w[-1], w[0]):
                assert coh.orbit_sum(f, w) == coh.orbit_sum(g, w)


class TestFunctionText:
    def test_roundtrip(self, fib):
        rng = random.Random(29)
        f = random_function(rng, fib, max_depth=2)
        text = coh.format_function_text(f, "fib")
        assert coh.parse_function_text(text, fib, "fib") == f

    def test_rational_roundtrip(self, fib):
        f = coh.function(fib, 1, [Fraction(1, 2), Fraction(-2, 3)], coh.RING_RAT)
        text = coh.format_function_text(f, "m")
        assert coh.parse_function_text(text, fib) == f

    def test_missing_entry(self, fib):
        with pytest.raises(FormatError):
            coh.parse_function_text("function m depth=1 ring=Z\n1 3\n", fib)

    def test_out_of_order(self, fib):
        text = "function m depth=1 ring=Z\n2 1\n1 1\n"
        with pytest.raises(FormatError):
            coh.parse_function_text(text, fib)

    def test_id_mismatch(self, fib):
        text = "function other depth=1 ring=Z\n1 1\n2 1\n"
        with pytest.raises(FormatError):
            coh.parse_function_text(text, fib, "fib")

    def test_comments_ignored(self, fib):
        text = "# cost table\nfunction m depth=1 ring=Z\n1 4\n# middle\n2 5\n"
        f = coh.parse_function_text(text, fib)
        assert f.table == (4, 5)

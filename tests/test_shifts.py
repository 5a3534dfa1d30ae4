"""Presentations, word enumeration, points, and recodings."""
from __future__ import annotations

import gc
import importlib
import itertools
import pkgutil
import random
import sys
import tracemalloc
import weakref

import pytest
from conftest import FIB, FULL2, WORDS_BINDINGS, random_edge_presentation, random_point
from hypothesis import given
from hypothesis import strategies as st

import sftlab
import sftlab.cohomology as coh
from sftlab.config import Limits, default_limits
from sftlab.errors import (
    EnvelopeExceeded,
    FormatError,
    Inadmissible,
    NegativeEntry,
    NotIrreducible,
    NotZeroOne,
    PermutationMatrix,
)
from sftlab.randgen import random_irreducible
from sftlab.shifts import (
    block_edges,
    count_words,
    edge_list,
    enumerate_points,
    format_matrix_text,
    higher_block,
    load_matrix_file,
    parse_matrix_text,
    parse_point,
    periodic_point,
    shift_point_by,
    validate,
    word_level,
    words,
)

seeds = st.integers(0, 10**6)

# Each call builds a new presentation, so its word levels start cold.
FRESH = {
    "vertex": lambda: validate(((1, 1, 0), (0, 0, 1), (1, 1, 1)), "vertex"),
    "edge": lambda: validate(((1, 2), (1, 0)), "edge"),
    "higher_block": lambda: higher_block(validate(((1, 1), (1, 0)), "vertex"), 2),
}


def brute_force_words(p, k):
    return tuple(w for w in itertools.product(range(p.alphabet_size), repeat=k)
                 if p.is_admissible(w))


def _successor_walk(p, k):
    """B_k built the way ``words`` built it before the split: from B_1,
    each step appends to every word the successors of its last symbol."""
    if k == 0:
        return ((),)
    table = [(s,) for s in range(p.alphabet_size)]
    for _ in range(1, k):
        table = [w + (s,) for w in table for s in p.successors(w[-1])]
    return tuple(table)


def _random_shift(rng, kind, dense):
    """A random irreducible presentation with at most 2 * 3^9 words of
    length 9: a sparse one from ``randgen``, or a dense one whose entries
    off a random cycle are drawn from 0 and 1 (three vertices of a vertex
    shift, two of an edge shift whose cycle may carry two edges)."""
    if not dense:
        return (random_irreducible(rng, 4) if kind == "vertex"
                else random_edge_presentation(rng, 3, entry_max=1))
    n, top = (3, 1) if kind == "vertex" else (2, 2)
    while True:
        rows = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
        cycle = rng.sample(range(n), n)
        for i in range(n):
            rows[cycle[i]][cycle[(i + 1) % n]] = rng.randint(1, top)
        try:
            return validate(rows, kind)
        except PermutationMatrix:
            continue


def _ref_edge_list(m):
    """The edges (i, j, copy) of m, by nested loops."""
    out = []
    for i, row in enumerate(m):
        for j, entry in enumerate(row):
            for copy in range(entry):
                out.append((i, j, copy))
    return tuple(out)


# validate's arguments -> its refusal; a refusal that names an entry, a row
# or a column names the first in the order of the checks
REFUSALS = {
    "kind": ((FIB, "rect"), FormatError, "unknown presentation kind 'rect'"),
    "empty": (((),), FormatError, "empty matrix"),
    "not square": ((((1, 1), (1,)),), FormatError, "matrix is not square"),
    "vertex cap": ((((1,) * 3,) * 3, "vertex", None, Limits(max_vertices=2)),
                   EnvelopeExceeded, "matrix has 3 vertices, supported maximum is 2"),
    "negative": ((((1, -1), (1, 0)), "edge"), NegativeEntry,
                 "entry (1,2) = -1 is negative"),
    "not 0-1": ((((1, 2), (1, 0)), "vertex"), NotZeroOne,
                "entry (1,2) = 2; vertex kind needs 0-1"),
    "first bad entry": ((((1, 1, 1), (1, 2, -1), (-1, 1, 1)), "vertex"), NotZeroOne,
                        "entry (2,2) = 2; vertex kind needs 0-1"),
    "first bad entry of an edge matrix": ((((1, 3, 1), (0, 5, -2), (-1, 1, 1)), "edge"),
                                          NegativeEntry, "entry (2,3) = -2 is negative"),
    "zero row": ((((1, 1), (0, 0)),), NotIrreducible, "row 2 is zero"),
    "zero column": ((((1, 0), (1, 0)),), NotIrreducible, "column 2 is zero"),
    "column before the next row": ((((0, 1), (0, 0)),), NotIrreducible,
                                   "column 1 is zero"),
    "permutation": ((((0, 1), (1, 0)), "edge"), PermutationMatrix,
                    "matrix is a permutation matrix"),
    "unreachable": ((((1, 1, 0), (1, 1, 0), (1, 1, 1)),), NotIrreducible,
                    "vertex 3 unreachable from vertex 1"),
    "cannot reach back": ((((1, 1, 0), (0, 1, 1), (0, 1, 1)),), NotIrreducible,
                          "vertex 1 unreachable from vertex 2"),
    "least unreachable": ((((1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 1, 0), (1, 0, 0, 1)),),
                          NotIrreducible, "vertex 2 unreachable from vertex 1"),
    "label count": ((FIB, "vertex", ("a",)), FormatError,
                    "vertex labels must be distinct and match the size"),
    "repeated label": ((FIB, "vertex", ("a", "a")), FormatError,
                       "vertex labels must be distinct and match the size"),
}


class TestValidate:
    def test_fibonacci(self, fib):
        assert fib.kind == "vertex"
        assert fib.n_vertices == 2
        assert fib.alphabet_size == 2
        assert fib.symbols == ("1", "2")

    def test_identity_is_permutation(self):
        with pytest.raises(PermutationMatrix):
            validate(((1, 0), (0, 1)), "vertex")

    def test_cyclic_permutation_rejected_as_edge(self):
        with pytest.raises(PermutationMatrix):
            validate(((0, 1), (1, 0)), "edge")

    def test_edge_kind_parallel_edges(self):
        p = validate(((0, 2), (1, 0)), "edge")
        assert p.alphabet_size == 3
        assert p.edges == ((0, 1, 0), (0, 1, 1), (1, 0, 0))
        assert p.symbols == ("1>2~0", "1>2~1", "2>1")

    @given(st.integers(1, 4).flatmap(lambda c: st.lists(
        st.lists(st.integers(0, 3), min_size=c, max_size=c), min_size=1, max_size=4)))
    def test_edge_list_matches_nested_loops(self, rows):
        """Rectangular matrices, zero rows and entries included."""
        assert edge_list(rows) == _ref_edge_list(rows)

    @given(seeds)
    def test_edge_labels_match_nested_loops(self, seed):
        p = random_edge_presentation(random.Random(seed), 4, 3)
        assert p.edges == _ref_edge_list(p.adjacency)
        assert p.symbols == tuple(
            f"{i + 1}>{j + 1}" if p.adjacency[i][j] == 1 else f"{i + 1}>{j + 1}~{k}"
            for i, j, k in _ref_edge_list(p.adjacency))

    def test_negative_entry(self):
        with pytest.raises(NegativeEntry):
            validate(((1, -1), (1, 0)), "edge")

    def test_vertex_kind_needs_zero_one(self):
        with pytest.raises(NotZeroOne):
            validate(((1, 2), (1, 0)), "vertex")

    def test_reducible(self):
        with pytest.raises(NotIrreducible):
            validate(((1, 1), (0, 1)), "vertex")

    def test_zero_row(self):
        with pytest.raises(NotIrreducible):
            validate(((1, 1), (0, 0)), "vertex")

    def test_not_square(self):
        for rows in (((1, 1),), ((1, 1), (1,))):     # wide, ragged
            with pytest.raises(FormatError, match=r"^matrix is not square$"):
                validate(rows, "vertex")

    def test_vertex_cap(self):
        tight = Limits(max_vertices=2, max_words=default_limits().max_words)
        with pytest.raises(EnvelopeExceeded):
            validate(((1,) * 3,) * 3, "vertex", limits=tight)

    @pytest.mark.parametrize("args, error, text", REFUSALS.values(), ids=REFUSALS)
    def test_refusal_text(self, args, error, text):
        """Each refusal, and the first of two in its order, word for word."""
        with pytest.raises(error) as refused:
            validate(*args)
        assert str(refused.value) == text


class TestWords:
    def test_empty_word(self, fib):
        assert words(fib, 0) == ((),)

    def test_fibonacci_length_two(self, fib):
        assert words(fib, 2) == ((0, 0), (0, 1), (1, 0))
        assert [fib.word_label(w) for w in words(fib, 2)] == ["11", "12", "21"]

    def test_fibonacci_length_three(self, fib):
        assert count_words(fib, 3) == 5

    def test_full_shift_counts(self, full2, full3):
        assert count_words(full2, 3) == 8
        assert count_words(full3, 2) == 9

    def test_lex_order_and_admissibility(self, fib, full3):
        for p in (fib, full3):
            ws = words(p, 3)
            assert ws == tuple(sorted(ws))
            assert all(p.is_admissible(w) for w in ws)

    def test_envelope(self, full2):
        tight = Limits(max_vertices=default_limits().max_vertices, max_words=4)
        with pytest.raises(EnvelopeExceeded):
            words(validate(full2.adjacency, "vertex", limits=tight), 3)

    @pytest.mark.parametrize("kind", sorted(FRESH))
    @pytest.mark.parametrize("k", range(6))
    def test_cold_table_matches_brute_force(self, kind, k):
        p = FRESH[kind]()
        expected = brute_force_words(p, k)
        assert words(p, k) == expected

    @pytest.mark.parametrize("kind", sorted(FRESH))
    @pytest.mark.parametrize("k", range(3, 6))
    def test_table_extended_from_shorter_matches_brute_force(self, kind, k):
        for shorter in range(2, k):
            p = FRESH[kind]()
            words(p, shorter)
            assert words(p, k) == brute_force_words(p, k)

    @given(seeds, st.sampled_from(["vertex", "edge"]), st.booleans())
    def test_split_matches_the_successor_walk(self, seed, kind, dense):
        """For k = 0-9, on both sides of the split point k // 2, the table
        is the successor walk's and, where the alphabet allows, the brute
        force's; a cap one word short of |B_k| is refused with the same
        text on a cold presentation and on a warm one."""
        p = _random_shift(random.Random(seed), kind, dense)
        for k in range(10):
            table = words(p, k)
            assert table == _successor_walk(p, k)
            if p.alphabet_size ** k <= 3 ** 9:
                assert table == brute_force_words(p, k)
            n = len(table)
            text = f"|B_{k}| = {n} exceeds the word cap {n - 1}"
            cold = validate(p.adjacency, p.kind, limits=Limits(max_words=n - 1))
            with pytest.raises(EnvelopeExceeded) as refused:
                words(cold, k)
            assert str(refused.value) == text
            with pytest.MonkeyPatch.context() as mp:
                mp.setitem(vars(p), "limits", Limits(max_words=n - 1))
                with pytest.raises(EnvelopeExceeded) as refused:
                    words(p, k)
            assert str(refused.value) == text

    @pytest.mark.parametrize("rows, k", [(FIB, 20), (FULL2, 14)],
                             ids=["golden-mean-20", "full-2-shift-14"])
    def test_no_second_table_while_building(self, rows, k):
        """The memory traced while ``words`` builds B_k peaks at most 15%
        above what the returned table keeps: no table of B_{k-1} lives
        beside it.  The levels are built first, since p keeps them, and a
        full collection empties the tuple free lists."""
        p = validate(rows, "vertex")
        word_level(p, k)
        gc.collect()
        tracemalloc.start()
        try:
            table = words(p, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = sys.getsizeof(table) + sum(map(sys.getsizeof, table))
        assert peak <= 1.15 * kept

    def test_cached_table_still_checks_the_cap(self, full2, monkeypatch):
        """The level of a table once built stays cached, and the cap is
        read again on the next request."""
        table = words(full2, 4)
        monkeypatch.setitem(vars(full2), "limits", Limits(max_words=len(table) - 1))
        with pytest.raises(EnvelopeExceeded):
            words(full2, 4)
        monkeypatch.undo()
        assert words(full2, 4) == table

    def test_equal_presentations_give_equal_tables(self):
        a, b = FRESH["edge"](), FRESH["edge"]()
        assert a == b and a is not b
        words(a, 3)
        assert words(b, 4) == words(a, 4)

    def test_stray_caches_sees_an_index(self, stray_caches):
        """The guard of the word-level tests sees a cache it does not know."""
        p = FRESH["vertex"]()
        words(p, 3)
        assert stray_caches(p) == set()
        vars(p)["_word_indexes"] = {3: {w: i for i, w in enumerate(words(p, 3))}}
        assert stray_caches(p) == {"_word_indexes"}

    def test_no_word_tables_sees_a_table(self, no_word_tables):
        """The guard of the compute-path tests fails a deliberate word table
        at the text boundary and in the point listing."""
        p = FRESH["vertex"]()
        f = coh.function(p, 2, range(count_words(p, 2)))
        with pytest.raises(pytest.fail.Exception, match="word table B_2"):
            coh.format_function_text(f, "m")
        with pytest.raises(pytest.fail.Exception, match="word table B_1"):
            enumerate_points(p, 0, 1)
        with pytest.raises(pytest.fail.Exception, match="word table B_0"):
            sftlab.words(p, 0)

    def test_no_word_tables_covers_every_binding(self):
        """Every module of the package that binds ``words`` is one the guard
        replaces."""
        for info in pkgutil.iter_modules(sftlab.__path__):
            module = importlib.import_module(f"sftlab.{info.name}")
            if getattr(module, "words", None) is words:
                assert module in WORDS_BINDINGS, module.__name__
        assert sftlab.words is words

    def test_tables_die_with_their_presentation(self):
        p = FRESH["vertex"]()
        words(p, 4)
        ref = weakref.ref(p)
        del p
        gc.collect()
        assert ref() is None

    @given(seeds, st.integers(1, 4))
    def test_count_matches_symbol_matrix_power(self, seed, k):
        """|B_k| equals the entry sum of the (k-1)-th power of the 0-1 matrix
        of symbol transitions."""
        rng = random.Random(seed)
        p = random_edge_presentation(rng) if seed % 2 else random_irreducible(rng, 4)
        m = p.alphabet_size
        s = [[int(p.follow(a, b)) for b in range(m)] for a in range(m)]
        acc = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
        for _ in range(k - 1):
            acc = [[sum(acc[i][t] * s[t][j] for t in range(m)) for j in range(m)]
                   for i in range(m)]
        assert count_words(p, k) == sum(sum(row) for row in acc)
        assert len(words(p, k)) == count_words(p, k)

    @given(seeds)
    def test_prefix_and_suffix_closure(self, seed):
        rng = random.Random(seed)
        p = random_irreducible(rng, 5)
        shorter = set(words(p, 2))
        for w in words(p, 3):
            assert w[:-1] in shorter
            assert w[1:] in shorter

    @given(seeds)
    def test_extension_property(self, seed):
        """Every admissible word extends on the right (rows are nonzero)."""
        rng = random.Random(seed)
        p = random_irreducible(rng, 5)
        longer = set(words(p, 3))
        for w in words(p, 2):
            assert any(w + (b,) in longer for b in p.successors(w[-1]))


class TestWordLevels:
    @pytest.mark.parametrize("kind", sorted(FRESH))
    @pytest.mark.parametrize("k", range(1, 6))
    def test_level_matches_words(self, kind, k):
        p = FRESH[kind]()
        level = word_level(p, k)
        ws = brute_force_words(p, k)
        m = p.alphabet_size
        assert level.offsets == tuple(sum(w[0] < a for w in ws) for a in range(m + 1))
        assert level.counts == tuple(sum(w[0] == a for w in ws) for a in range(m))
        assert list(level.last) == [w[-1] for w in ws]
        # 1 at the first of the words extending one word of B_(k-1)
        assert list(level.first_child) == [
            int(i == 0 or ws[i][:-1] != ws[i - 1][:-1]) for i in range(len(ws))]

    @pytest.mark.parametrize("rows, k, held, peak", [(FULL2, 19, 14, 18),
                                                     (FIB, 27, 17, 21)],
                             ids=["full-2-shift-19", "golden-mean-27"])
    def test_levels_cost_few_bytes_a_word(self, rows, k, held, peak):
        """B_1 ... B_k of a fresh presentation, traced, hold and peak at a
        few bytes a word of B_k: 4 for ``last`` and 1 for ``first_child``
        on each level, and one level's join while it is built.  With one
        object reference a word in ``last`` they held 19.7 and 24.2 bytes
        a word, and peaked at 24.2 and 29.8."""
        p = validate(rows, "vertex")
        gc.collect()
        tracemalloc.start()
        try:
            n = word_level(p, k).offsets[-1]
            kept, top = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept <= held * n
        assert top <= peak * n

    @given(seeds)
    def test_stepped_count_matches_count_words(self, seed):
        """The cap check reads |B_k| from per-symbol counts stepped up from
        the longest cached level; it refuses one word short of count_words
        for every k <= 12, and builds nothing when it refuses."""
        rng = random.Random(seed)
        p = random_edge_presentation(rng) if seed % 2 else random_irreducible(rng, 5)
        for k in range(1, 13):
            n = count_words(p, k)
            capped = validate(p.adjacency, p.kind, limits=Limits(max_words=n - 1))
            start = 2 if k > 2 else 1            # level 1 is seeded
            if k > 2:
                word_level(capped, 2)
            with pytest.raises(EnvelopeExceeded, match=rf"\|B_{k}\| = {n} exceeds"):
                word_level(capped, k)
            assert max(capped._word_levels) == start

    @pytest.mark.parametrize("kind", sorted(FRESH))
    def test_levels_below_stay_cached(self, kind):
        p = FRESH[kind]()
        top = word_level(p, 6)
        cached = dict(p._word_levels)
        assert sorted(cached) == [1, 2, 3, 4, 5, 6] and cached[6] is top
        for k in range(1, 6):
            assert word_level(p, k) is cached[k]
        assert word_level(p, 7) is p._word_levels[7]
        assert all(p._word_levels[k] is cached[k] for k in cached)

    def test_levels_start_at_one(self, fib):
        with pytest.raises(ValueError):
            word_level(fib, 0)

    @pytest.mark.parametrize("k", [13, 10**5, 10**9])
    def test_refusal_stops_at_the_first_level_over_the_cap(self, k):
        """|B_j| grows with j, so the stepping stops at the first level over
        the cap and names it; a huge k is refused at once, and no level is
        built."""
        p = validate(((1, 1), (1, 0)), "vertex", limits=Limits(max_words=100))
        first = next(j for j in range(1, 20) if count_words(p, j) > 100)
        msg = rf"^\|B_{k}\| exceeds the word cap 100: \|B_{first}\| = 144 already does$"
        with pytest.raises(EnvelopeExceeded, match=msg):
            word_level(p, k)
        with pytest.raises(EnvelopeExceeded, match=msg):
            words(p, k)
        assert list(p._word_levels) == [1]


def _ref_block_edges(p, d):
    """The block graph built from words: each edge's prefix and suffix
    looked up in a dict of B_(d-1)."""
    vidx = {w: i for i, w in enumerate(words(p, d - 1))}
    edges = words(p, d)
    return [vidx[w[:-1]] for w in edges], [vidx[w[1:]] for w in edges]


class TestBlockEdges:
    @given(seeds, st.integers(2, 5))
    def test_matches_word_reference(self, seed, d):
        """Vertex kind (even seed) and edge kind, parallel edges allowed."""
        rng = random.Random(seed)
        p = random_edge_presentation(rng, 3) if seed % 2 else random_irreducible(rng, 4)
        assert block_edges(p, d) == _ref_block_edges(p, d)

    @pytest.mark.parametrize("kind", sorted(FRESH))
    def test_fixtures_match_word_reference(self, kind):
        """The edge fixture has two parallel edges from 1 to 2."""
        for d in range(2, 6):
            assert block_edges(FRESH[kind](), d) == _ref_block_edges(FRESH[kind](), d)

    def test_edges_start_at_length_two(self, fib):
        with pytest.raises(ValueError):
            block_edges(fib, 1)


def _ref_shift_point(x):
    """Drop the first symbol, then re-canonicalise through periodic_point."""
    if x.preperiod:
        return periodic_point(x.presentation, x.preperiod[1:], x.period)
    per = x.period
    return periodic_point(x.presentation, (), per[1:] + per[:1])


def _ref_shift_point_by(x, n):
    for _ in range(n):
        x = _ref_shift_point(x)
    return x


def _ref_prefix(x, m):
    """The first m symbols, one at a time."""
    out = list(x.preperiod[:m])
    i = 0
    while len(out) < m:
        out.append(x.period[i % len(x.period)])
        i += 1
    return tuple(out)


def _ref_enumerate_points(p, max_preperiod, max_period):
    """Every (prefix, period) pair within the bounds sent through
    ``periodic_point``, deduplicated in a dict and sorted."""
    seen = {}
    prefixes = [()]
    for k in range(1, max_preperiod + 1):
        prefixes.extend(words(p, k))
    for plen in range(1, max_period + 1):
        for per in words(p, plen):
            if not p.follow(per[-1], per[0]):
                continue
            for pre in prefixes:
                if pre and not p.follow(pre[-1], per[0]):
                    continue
                x = periodic_point(p, pre, per)
                seen.setdefault((x.preperiod, x.period), x)
    return [seen[key] for key in sorted(seen)]


class TestPoints:
    def test_parse_and_canonical_form(self, fib):
        x = parse_point(fib, "1:21")
        assert (x.preperiod, x.period) == ((), (0, 1))
        assert x.label() == ":12"

    def test_primitive_period(self, fib):
        x = periodic_point(fib, (), (0, 1, 0, 1))
        assert x.period == (0, 1)

    def test_shift(self, fib, full2):
        assert shift_point_by(parse_point(fib, ":12"), 1).label() == ":21"
        assert shift_point_by(parse_point(full2, ":1"), 1).label() == ":1"
        assert shift_point_by(parse_point(fib, "21:12"), 1).label() == "1:12"

    def test_shift_by(self, fib):
        x = parse_point(fib, "211:21")
        assert shift_point_by(x, 3).label() == ":21"
        assert shift_point_by(x, 5).label() == ":21"

    def test_prefix(self, fib):
        x = parse_point(fib, "2:112")
        assert x.prefix(7) == (1, 0, 0, 1, 0, 0, 1)

    def test_inadmissible_rejected(self, fib):
        with pytest.raises(Inadmissible):
            periodic_point(fib, (), (1, 1))
        with pytest.raises(Inadmissible):
            parse_point(fib, "22:1")

    def test_wrap_admissibility_checked(self, fib):
        # period "12" after preperiod "1" is fine; period must also close up
        with pytest.raises(Inadmissible):
            periodic_point(fib, (), (0, 1, 1))

    def test_enumerate_points_canonical_and_unique(self, fib):
        pts = enumerate_points(fib, 2, 3)
        keys = [(x.preperiod, x.period) for x in pts]
        assert len(keys) == len(set(keys))
        for x in pts:
            y = periodic_point(fib, x.preperiod, x.period)
            assert (y.preperiod, y.period) == (x.preperiod, x.period)

    @given(seeds, st.integers(0, 4), st.integers(1, 5))
    def test_enumerate_points_matches_the_reference(self, seed, max_pre, max_per):
        """Vertex kind (even seed) and edge kind, parallel edges allowed."""
        rng = random.Random(seed)
        p = random_edge_presentation(rng, 2) if seed % 2 else random_irreducible(rng, 3)
        assert (enumerate_points(p, max_pre, max_per)
                == _ref_enumerate_points(p, max_pre, max_per))

    @pytest.mark.parametrize("kind", sorted(FRESH))
    def test_enumerate_points_matches_the_reference_at_the_largest_bounds(self, kind):
        p = FRESH[kind]()
        assert enumerate_points(p, 4, 5) == _ref_enumerate_points(p, 4, 5)

    @given(seeds)
    def test_shift_consistency_on_prefixes(self, seed):
        rng = random.Random(seed)
        p = random_irreducible(rng, 4)
        x = random_point(rng, p)
        assert shift_point_by(x, 1).prefix(6) == x.prefix(7)[1:]

    @given(seeds, st.data())
    def test_shifts_and_prefixes_match_the_reference(self, seed, data):
        """Shifts built directly are the re-canonicalised ones, and are
        canonical; prefixes cut inside and beyond the preperiod."""
        rng = random.Random(seed)
        p = random_irreducible(rng, 4)
        x = random_point(rng, p, 5, 5)
        pre, per = len(x.preperiod), len(x.period)
        n = data.draw(st.integers(0, pre + 2 * per))
        r = shift_point_by(x, n)
        assert r == _ref_shift_point_by(x, n)
        assert periodic_point(p, r.preperiod, r.period) == r
        assert shift_point_by(x, 1) == _ref_shift_point(x)
        assert shift_point_by(x, -n) is x
        for m in (data.draw(st.integers(0, pre)),
                  data.draw(st.integers(pre, pre + 2 * per + 1))):
            assert x.prefix(m) == _ref_prefix(x, m)


class TestHigherBlock:
    def test_fibonacci_two_block(self, fib):
        hb = higher_block(fib, 2)
        assert hb.n_vertices == 3
        assert hb.alphabet_size == 5
        # vertex i is words(fib, 2)[i] and symbol s is words(fib, 3)[s]
        assert hb.vertex_labels == tuple(f"[{fib.word_label(w)}]"
                                         for w in words(fib, 2))
        assert hb.symbols == tuple(f"[{fib.word_label(w)}]" for w in words(fib, 3))

    def test_fibonacci_one_block(self, fib):
        hb = higher_block(fib, 1)
        assert hb.n_vertices == 2
        assert hb.alphabet_size == 3

    def test_full2_one_block(self, full2):
        hb = higher_block(full2, 1)
        assert hb.n_vertices == 2
        assert hb.alphabet_size == 4

    def test_edges_overlap(self, fib):
        hb = higher_block(fib, 2)
        vidx = {w: i for i, w in enumerate(words(fib, 2))}
        for sym, w in enumerate(words(fib, 3)):
            src, tgt, _par = hb.edges[sym]
            assert src == vidx[w[:-1]]
            assert tgt == vidx[w[1:]]

    def test_labels_bracketed(self, fib):
        hb = higher_block(fib, 2)
        assert hb.vertex_labels == ("[11]", "[12]", "[21]")

    @given(seeds, st.integers(1, 3))
    def test_symbols_run_from_prefix_to_suffix(self, seed, k):
        """Vertex kind (even seed) and edge kind, parallel edges allowed:
        symbol s of the recoding runs from the position of
        words(p, k + 1)[s][:-1] in words(p, k) to that of its [1:], and the
        edge form of a vertex-kind p has one symbol per word of B_2."""
        rng = random.Random(seed)
        p = random_edge_presentation(rng, 3) if seed % 2 else random_irreducible(rng, 4)
        while count_words(p, k) > 64:          # the block graph's vertex cap
            k -= 1
        position = {w: i for i, w in enumerate(words(p, k))}
        assert [e[:2] for e in higher_block(p, k).edges] == [
            (position[w[:-1]], position[w[1:]]) for w in words(p, k + 1)]
        if p.kind == "vertex":
            assert validate(p.adjacency, "edge").alphabet_size == count_words(p, 2)


class TestEdgeForm:
    """The edge form of a vertex-kind p: its matrix read as an edge shift."""

    def test_fibonacci(self, fib):
        ef = validate(fib.adjacency, "edge")
        assert ef.kind == "edge"
        assert ef.alphabet_size == 3
        assert tuple(e[:2] for e in ef.edges) == ((0, 0), (0, 1), (1, 0))

    def test_full2(self, full2):
        assert validate(full2.adjacency, "edge").alphabet_size == 4

    @given(seeds)
    def test_word_counts_preserved(self, seed):
        """Edge recoding shifts word lengths by one: B_{k+1}(vertex walk)
        corresponds to B_k of the edge shift."""
        rng = random.Random(seed)
        p = random_irreducible(rng, 4)
        ef = validate(p.adjacency, "edge")
        for k in range(1, 4):
            assert count_words(ef, k) == count_words(p, k + 1)


class TestMatrixText:
    def test_roundtrip(self, fib):
        text = format_matrix_text("vertex", fib.adjacency)
        assert parse_matrix_text(text) == ("vertex", fib.adjacency)

    def test_comments_and_blanks(self):
        kind, rows = parse_matrix_text(
            "# header comment\nmatrix vertex 2\n\n1 1\n# note\n1 0\n")
        assert (kind, rows) == ("vertex", ((1, 1), (1, 0)))

    def test_rect(self):
        kind, rows = parse_matrix_text("matrix rect 1 2\n1 1\n")
        assert (kind, rows) == ("rect", ((1, 1),))

    def test_bad_header(self):
        with pytest.raises(FormatError):
            parse_matrix_text("adjacency 2\n1 1\n1 0\n")

    def test_row_count_mismatch(self):
        with pytest.raises(FormatError):
            parse_matrix_text("matrix vertex 2\n1 1\n")

    def test_load_rejects_rect(self, tmp_path):
        path = tmp_path / "r.mat"
        path.write_text("matrix rect 1 2\n1 1\n")
        with pytest.raises(FormatError, match="rectangular matrices cannot present"):
            load_matrix_file(path)

    def test_load_rejects_non_ascii(self, tmp_path):
        path = tmp_path / "m.mat"
        path.write_bytes(b"# caf\xc3\xa9\nmatrix vertex 2\n1 1\n1 0\n")
        with pytest.raises(FormatError, match="non-ASCII byte at offset 5"):
            load_matrix_file(path)

    def test_load(self, tmp_path, fib):
        path = tmp_path / "m.mat"
        path.write_text(format_matrix_text("vertex", fib.adjacency))
        assert load_matrix_file(path).adjacency == fib.adjacency

"""Locally constant integer (or rational) functions on a shift space and the
ordered first cohomology of the shift map.

A function of depth k is a table over the admissible k-words in the frozen
lexicographic order.  The cohomology class of f is f modulo coboundaries
b - b(shift .); the operational order structure is decided on the potential
graph: vertices B_{d-1}, edges B_d (d = max(depth, 2)), edge weights given
by f, read off the word levels (``shifts.block_edges``).  Cycles of this
graph are exactly the periodic orbits, so

* f is a coboundary  iff  every cycle has weight sum zero, and
* the class of f has a pointwise nonnegative representative  iff  every
  cycle has nonnegative weight sum (difference constraints, decided by
  shortest-path relaxation).

Both decisions return re-checked witnesses: a potential b with coboundary
b == f, or an explicit cyclically admissible word whose orbit sum violates
the claim.  A ``no`` carries that cycle and its orbit sum, the value the
re-check computed, so a caller reports it without summing again.

``window_sums`` is the one kernel for stream transfers, which sum f over
the first n windows of a word: ``transducers.transfer_psi`` (and through
it ``moves.psi_xi``/``psi_eta``), ``transducers.verify_orbit_relation``'s
point values, ``orbit_sum``, ``value_on_word`` and the action phase sums.
It ranks windows off the word levels (``shifts.pair_constants``), as
``indicator`` ranks its word.  ``lift_table``, ``pullback_sigma``,
``coboundary``, ``partial_sum``, the normalisation and
``moves.phi``/``psi`` read no words: they copy slices of tables along the
first-symbol blocks of the word levels (``shifts.word_level``) or gather
from them by position.  The values of B_d on one word of B_k (k <= d) are a
contiguous run, so a lift repeats each value once per extension (one level
up, each word reads its parent; on a large level, one gather per symbol a
serves the runs of all the first halves that end in a), f(shift .) is one
block of f's table per pair a, b of consecutive symbols, and a table falls
to depth k-1 when every word that is not a first child carries its previous
sibling's value.  Only the text format reads word tables (``shifts.words``).

Values are checked once, where they enter: ``function`` puts a caller's
values in the ring, then hands them to ``_build``, which checks the length,
normalises and constructs.  The table transforms, whose values are
gathered, sliced or combined by + - x from tables already in the ring
(``coboundary``, ``pullback_sigma``, ``add``/``subtract``/``multiply``,
``moves.phi``/``psi``), build through ``_build`` directly; whatever makes
new values (sums, constants, parsed tokens) goes through ``function``.
"""
from __future__ import annotations

import operator
import sys
from bisect import bisect_right
from itertools import accumulate, chain, compress, islice, repeat

from .errors import (
    FormatError,
    MismatchedInput,
    NotCyclicallyAdmissible,
    PresentationMismatch,
    RationalNotSupported,
    require,
)
from .record import Record
from .shifts import (
    SftPresentation,
    Word,
    block_edges,
    content_lines,
    pair_constants,
    word_level,
    words,
)

RING_INT = "Z"
RING_RAT = "Q"


class LocallyConstantFunction(Record):
    """Depth-k table over B_k in frozen lexicographic order, normalized so
    that no smaller depth realizes the same function."""

    presentation: SftPresentation
    depth: int
    table: tuple
    ring: str

    def value_on_word(self, w: Word):
        """Value on the cylinder of any admissible word extending w[:depth]."""
        return window_sums(self, [(tuple(w), 1)])[0]

    def value_at_point(self, x) -> int | Fraction:
        if x.presentation != self.presentation:
            raise PresentationMismatch("point lives on a different presentation")
        return self.value_on_word(x.prefix(self.depth))

    def is_zero(self) -> bool:
        return not any(self.table)

    def min_value(self):
        return min(self.table)

    def max_value(self):
        return max(self.table)


def _coerce(table: tuple, ring: str) -> tuple:
    """The values of table in the ring; ring Z takes only ints and integral
    Fractions, ring Q only ints and Fractions.  Only ring Q imports
    ``fractions``: ring Z can meet a Fraction only once a caller has loaded
    the module, so it looks the class up in ``sys.modules``."""
    if ring == RING_RAT:
        from fractions import Fraction
        for value in table:
            if not isinstance(value, (int, Fraction)):
                raise FormatError(f"value {value!r} is not an int or a Fraction")
        return tuple(map(Fraction, table))
    fraction = getattr(sys.modules.get("fractions"), "Fraction", ())
    for value in table:
        if not (isinstance(value, int)
                or isinstance(value, fraction) and value.denominator == 1):
            raise FormatError(f"value {value!r} is not an integer")
    return tuple(map(int, table))


def function(p: SftPresentation, depth: int, values,
             ring: str = RING_INT) -> LocallyConstantFunction:
    """Build and normalize a locally constant function from a value table
    aligned with words(p, depth).  The values come from the caller, so each
    is checked and put in the ring here; the table transforms, whose values
    are already in it, build through ``_build``."""
    if ring not in (RING_INT, RING_RAT):
        raise FormatError(f"unknown ring {ring!r}")
    if depth < 1:
        raise FormatError("depth must be at least 1")
    table = tuple(values)
    if ring != RING_INT or set(map(type, table)) != {int}:
        table = _coerce(table, ring)
    return _build(p, depth, table, ring)


def _build(p: SftPresentation, depth: int, values,
           ring: str) -> LocallyConstantFunction:
    """``function`` without the value check, for values that are already in
    the ring: exactly int in ring Z, Fraction in ring Q."""
    table = tuple(values)
    expected = word_level(p, depth).offsets[-1]
    if len(table) != expected:
        raise MismatchedInput(
            f"table has {len(table)} entries, B_{depth} has {expected}")
    depth, table = _normalize(p, depth, table)
    return LocallyConstantFunction(p, depth, table, ring)


def _lift(p: SftPresentation, table, depth: int, to: int):
    """The values of a depth ``depth`` table on B_to (to >= depth): each
    word w is followed in B_to by its extensions, as many as there are words
    of length to - depth + 1 starting with the last symbol of w."""
    if to == depth:
        return table
    if to == depth + 1:
        level = word_level(p, to)
        if level.offsets[-1] < _SPLIT_WORDS:
            # one gather by parent index, counted off the first-child mask.
            # With one index itemgetter returns a scalar; B_to always has
            # two words or more, since an irreducible presentation that is
            # not a permutation matrix has at least two symbols.
            parents = accumulate(level.first_child[1:], initial=0)
            return operator.itemgetter(*parents)(table)
        if depth > 1:
            return _split_gather(p, table, depth)
    # Over more levels one repeat per value beats gathering level by level
    # (9 to 13 against 36 to 43 ms for three levels up to 232,250 words),
    # and from depth 1 the single gather (96 against 206 us at 4,900 words).
    extensions = word_level(p, to - depth + 1).counts
    reps = map(extensions.__getitem__, word_level(p, depth).last)
    return chain.from_iterable(map(repeat, table, reps))


# The size of B_{depth+1} from which a one-level lift gathers run by run.
# The set-up of ``_split_gather``, one itemgetter a symbol, makes it tie
# with the single gather at 1,000 to 2,900 words on five shifts, and win by
# 10 to 25% from 4,096 words up (min of 9).  At 489,332 words ``lift_table``
# takes 10.2 against 26.8 ms (medians of 7 alternating runs), and at 262,144
# the traced peak of ``coboundary`` falls from 6.0 to 1.5 times its result
# (2-core x86_64, Python 3.11).
_SPLIT_WORDS = 4096


def _split_gather(p: SftPresentation, table, depth: int):
    """The values of a depth ``depth`` table (depth >= 2) on B_{depth+1},
    with no index as long as it.  A word u.v of B_{depth+1}, u in B_i and
    i = ceil(depth / 2), reads its parent u.v[:-1].  The words that extend
    u are one run of B_depth, and which word of the run each of them reads
    depends only on a = u[-1]: for a.v in B_j, j = depth + 2 - i, it is the
    parent of a.v less the offset of a in B_{j-1}.  So one itemgetter a
    symbol gathers every run."""
    i = (depth + 1) // 2
    tails, runs = word_level(p, depth + 2 - i), word_level(p, depth + 1 - i)
    parents = accumulate(tails.first_child[1:], initial=0)
    gathers = []
    for count, start in zip(tails.counts, runs.offsets):
        index = [r - start for r in islice(parents, count)]
        # one index would give a scalar, and a run of one word is kept whole
        gathers.append(operator.itemgetter(*index) if count > 1 else tuple)
    last = word_level(p, i).last
    bounds = list(accumulate(map(runs.counts.__getitem__, last), initial=0))
    return chain.from_iterable(map(lambda a, lo, hi: gathers[a](table[lo:hi]),
                                   last, bounds, bounds[1:]))


# swaps the 0 and 1 bytes of a first-child mask
_FLIP = bytes.maketrans(b"\0\1", b"\1\0")


def _normalize(p: SftPresentation, depth: int, table: tuple) -> tuple[int, tuple]:
    """Reduce the depth while the value depends only on a proper prefix:
    every word that is not a first child must carry its previous sibling's
    value.  Each test stops at the first mismatch, and the shorter table,
    the values at the first children, is copied only once it is known to
    be the function."""
    while depth > 1:
        first_child = word_level(p, depth).first_child
        later = first_child.translate(_FLIP)
        # the first word is a first child, so the None is never compared
        if not all(map(operator.eq, compress(table, later),
                       compress(chain((None,), table), later))):
            break
        depth -= 1
        table = tuple(compress(table, first_child))
    return depth, table


def constant(p: SftPresentation, value,
             ring: str = RING_INT) -> LocallyConstantFunction:
    return function(p, 1, [value] * p.alphabet_size, ring)


def unit(p: SftPresentation) -> LocallyConstantFunction:
    """The constant function 1; its class is the order unit of interest."""
    return constant(p, 1, RING_INT)


def zero(p: SftPresentation) -> LocallyConstantFunction:
    return constant(p, 0, RING_INT)


def indicator(p: SftPresentation, word: Word) -> LocallyConstantFunction:
    """Indicator of the cylinder set of the given admissible word."""
    word = tuple(word)
    p.check_admissible(word)
    if not word:
        return unit(p)
    k = len(word)
    table = [0] * word_level(p, k).offsets[-1]
    table[_rank(pair_constants(p, k), word)] = 1
    return function(p, k, table, RING_INT)


def _common(f: LocallyConstantFunction, g: LocallyConstantFunction):
    if f.presentation != g.presentation:
        raise PresentationMismatch("functions live on different presentations")
    ring = RING_RAT if RING_RAT in (f.ring, g.ring) else RING_INT
    depth = max(f.depth, g.depth)
    return depth, ring


def lift_table(f: LocallyConstantFunction, depth: int) -> tuple:
    """Value table of f at a depth no smaller than its own."""
    if depth < f.depth:
        raise FormatError(f"cannot lift a depth-{f.depth} function to depth {depth}")
    word_level(f.presentation, depth)          # checks the cap
    return tuple(_lift(f.presentation, f.table, f.depth, depth))


def _pointwise(op, f: LocallyConstantFunction,
               g: LocallyConstantFunction) -> LocallyConstantFunction:
    """op on the values of f and g at their common depth; int op int is an
    int and int op Fraction a Fraction, so the result is in the ring."""
    depth, ring = _common(f, g)
    p = f.presentation
    return _build(p, depth, map(op, _lift(p, f.table, f.depth, depth),
                                _lift(p, g.table, g.depth, depth)), ring)


def add(f: LocallyConstantFunction,
        g: LocallyConstantFunction) -> LocallyConstantFunction:
    return _pointwise(operator.add, f, g)


def subtract(f: LocallyConstantFunction,
             g: LocallyConstantFunction) -> LocallyConstantFunction:
    return _pointwise(operator.sub, f, g)


def multiply(f: LocallyConstantFunction,
             g: LocallyConstantFunction) -> LocallyConstantFunction:
    """Pointwise product; cuts a function to a cylinder when g is an
    indicator."""
    return _pointwise(operator.mul, f, g)


def _shifted(f: LocallyConstantFunction):
    """The values of f(shift .) on B_{depth+1}, lazily: on the words a.w
    with w starting with b, for each pair a, b in B_2's order, f's block of
    b."""
    offsets = word_level(f.presentation, f.depth).offsets
    return chain.from_iterable(f.table[offsets[b]:offsets[b + 1]]
                               for b in word_level(f.presentation, 2).last)


def pullback_sigma(f: LocallyConstantFunction) -> LocallyConstantFunction:
    """f composed with the shift map; raises the depth by one."""
    p, k = f.presentation, f.depth
    word_level(p, k + 1)                        # checks the cap
    return _build(p, k + 1, _shifted(f), f.ring)


def _rank(consts, word) -> int:
    """The position of the word in B_k, k = len(consts); KeyError or
    IndexError when it is short or no word."""
    r = consts[-1][word[len(consts) - 1]]
    for c, a, b in zip(consts, word, word[1:]):
        r += c[a][b]
    return r


def window_sums(f: LocallyConstantFunction, streams) -> list:
    """The stream transfer kernel: for each (stream, n), the sum of f over
    the first n windows stream[i:i+depth], i < n; n = 0 gives 0.  A window
    that is short or inadmissible raises MismatchedInput.

    No word is built: the last window is ranked by ``_rank``, and each one
    before it in O(1) from the next, rank_k(a.b.v) = c_k[a][b] +
    rank_{k-1}(b.v), b.v the next window's parent.  The parents, one int a
    word of B_k, are built at the first stream of two windows or more."""
    p, k, table = f.presentation, f.depth, f.table
    level = word_level(p, k)                    # checks the cap
    # ranked, not hashed into a word index: on a 4-symbol shift, 5,000
    # streams of 40 windows at k = 8 took 54 against 98 ms with the index
    # built, 10 at k = 6 22 against 26 ms, and one at k = 3 6.4 against 5.7 ms
    # (medians of 21 interleaved runs, 2-core x86_64, Python 3.11)
    consts = pair_constants(p, k)
    c_k, parents, sums = consts[0], None, []
    for stream, n in streams:
        total = 0
        try:
            if n > 0:
                r = _rank(consts, stream[n - 1:n + k - 1])
                total = table[r]
            if n > 1 and k == 1:                # the windows are the symbols
                total += sum(map(table.__getitem__,
                                 map(c_k.__getitem__, stream[:n - 1])))
            elif n > 1:
                if parents is None:
                    # 4.0 MiB, against 20.5 as a list, at 524,288 words; and
                    # an import of 0.5 ms that need not be paid at start-up
                    from array import array
                    parents = array("q", accumulate(level.first_child[1:], initial=0))
                for i in range(n - 2, -1, -1):
                    r = c_k[stream[i]][stream[i + 1]] + parents[r]
                    total += table[r]
        except (KeyError, IndexError):
            for i in range(n):                  # the first bad window raises
                window = tuple(stream[i:i + k])
                if len(window) < k:
                    raise MismatchedInput(
                        f"need at least {k} symbols, got {len(window)}") from None
                if not p.is_admissible(window):
                    raise MismatchedInput(
                        f"word {p.any_word_label(window)} not admissible") from None
            raise
        sums.append(total)
    return sums


def partial_sum(f: LocallyConstantFunction, n: int) -> LocallyConstantFunction:
    """Sum of f over the first n shift iterates (the n-step cocycle), built
    on the levels as S_{j+1} = f + S_j(shift .)."""
    if n < 0:
        raise FormatError("partial sums need n >= 0")
    p = f.presentation
    if n == 0 or (f.depth == 1 and len(set(f.table)) == 1):
        # no steps, or n times a constant: no level beyond B_1, however large n
        return constant(p, n * f.table[0], f.ring)
    total = f
    for _ in range(n - 1):
        total = add(f, pullback_sigma(total))
    return total


def coboundary(b: LocallyConstantFunction) -> LocallyConstantFunction:
    """b - b(shift .); always a function of zero class.  Both terms are read
    on B_{depth+1} in one pass, with no pulled-back function in between."""
    p, k = b.presentation, b.depth
    word_level(p, k + 1)                        # checks the cap
    return _build(p, k + 1, map(operator.sub, _lift(p, b.table, k, k + 1),
                                _shifted(b)), b.ring)


def orbit_sum(f: LocallyConstantFunction, cycle: Word):
    """Sum of f along the periodic orbit of the cyclically admissible word."""
    p = f.presentation
    cyc = tuple(cycle)
    if not cyc:
        raise NotCyclicallyAdmissible("empty cycle")
    if not p.is_admissible(cyc) or not p.follow(cyc[-1], cyc[0]):
        raise NotCyclicallyAdmissible(
            f"word {p.word_label(cyc)} is not cyclically admissible")
    return window_sums(f, [(cyc * (1 + -(-f.depth // len(cyc))), len(cyc))])[0]


# ------------------------------------------------------ the potential graph

def _potential_graph(f: LocallyConstantFunction):
    """The graph the three decisions share, read off the word levels:
    (d, |B_{d-1}|, sources, targets, f's table on B_d), d = max(depth, 2)."""
    p = f.presentation
    d = max(f.depth, 2)
    sources, targets = block_edges(p, d)
    return d, word_level(p, d - 1).offsets[-1], sources, targets, lift_table(f, d)


# The one weighted shortest-path routine; graphs.bfs does the unweighted ones.
def _bellman_ford(n: int, sources, targets, weights) -> tuple[list[int] | None, list]:
    """Bellman-Ford with zero initialization (implicit super source), edges
    relaxed in index order.  Returns (cycle, dist): the edge indices of a
    negative-weight cycle and None, or None and the shortest-path potentials
    when there is no such cycle."""
    dist = [0] * n
    parent = [-1] * n
    relaxed = -1
    for _ in range(n):
        relaxed = -1
        for ei in range(len(sources)):
            u, v, w = sources[ei], targets[ei], weights[ei]
            if dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
                parent[v] = ei
                relaxed = v
        if relaxed == -1:
            return None, dist
    x = relaxed
    for _ in range(n):
        x = sources[parent[x]]
    cycle = []
    cur = x
    while True:
        ei = parent[cur]
        cycle.append(ei)
        cur = sources[ei]
        if cur == x:
            break
    cycle.reverse()
    return cycle, None


def _cycle_word(p: SftPresentation, d: int, cycle_edges: list[int]) -> Word:
    offsets = word_level(p, d).offsets
    return tuple(bisect_right(offsets, ei) - 1 for ei in cycle_edges)


class CoboundaryResult(Record):
    is_coboundary: bool
    potential: LocallyConstantFunction | None   # b with coboundary(b) == f
    cycle: Word | None                          # cyclic word with nonzero sum
    cycle_sum: int | Fraction | None = None     # orbit_sum(f, cycle)

    def __bool__(self):
        return self.is_coboundary


def class_is_zero(f: LocallyConstantFunction) -> CoboundaryResult:
    """Zero-class test.  A witness potential b of depth d-1 is rebuilt from a
    spanning arborescence and re-verified; failure yields an explicit cycle
    with nonzero orbit sum (found by negative-cycle detection on f and -f)."""
    p = f.presentation
    d, nverts, sources, targets, table = _potential_graph(f)
    # a vertex's out-edges are its children in B_d, a contiguous run
    starts = list(compress(range(len(sources)), word_level(p, d).first_child))
    starts.append(len(sources))

    # not graphs.bfs: its dict costs time and RSS over |B_{d-1}| at the word cap
    b: list = [None] * nverts
    b[0] = 0
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for ei in range(starts[u], starts[u + 1]):
                v = targets[ei]
                if b[v] is None:
                    b[v] = b[u] - table[ei]
                    nxt.append(v)
        frontier = nxt
    require(all(x is not None for x in b), "potential graph not strongly connected")

    consistent = all(map(operator.eq, table, map(
        operator.sub, map(b.__getitem__, sources), map(b.__getitem__, targets))))
    if consistent:
        witness = function(p, d - 1, b, f.ring)
        # normal forms (least depth, then the table) are unique, and both
        # sides share presentation and ring: equal exactly as functions
        require(coboundary(witness) == f,
                "is_coboundary: witness failed re-verification")
        return CoboundaryResult(True, witness, None)

    cyc, _ = _bellman_ford(nverts, sources, targets, table)
    if cyc is None:
        cyc, _ = _bellman_ford(nverts, sources, targets, [-w for w in table])
    require(cyc is not None, "inconsistent potential but no signed cycle found")
    word = _cycle_word(p, d, cyc)
    total = orbit_sum(f, word)
    require(total != 0, "is_coboundary: cycle witness has orbit sum zero")
    return CoboundaryResult(False, None, word, total)


def class_equal(f: LocallyConstantFunction,
                g: LocallyConstantFunction) -> CoboundaryResult:
    """Class equality: is f - g a coboundary?"""
    return class_is_zero(subtract(f, g))


class PositivityResult(Record):
    nonnegative: bool
    representative: LocallyConstantFunction | None  # cohomologous to f, >= 0
    potential: LocallyConstantFunction | None       # b with f + coboundary(b) >= 0
    cycle: Word | None                              # cycle with negative sum
    cycle_sum: int | None = None                    # orbit_sum(f, cycle)

    def __bool__(self):
        return self.nonnegative


def class_is_nonnegative(f: LocallyConstantFunction) -> PositivityResult:
    """Decide whether the class of f contains a pointwise nonnegative function.

    Difference constraints b(target) - b(source) <= f(edge) on the potential
    graph, solved by shortest-path relaxation; infeasibility is certified by
    a cycle with negative orbit sum.  Integer-valued functions only."""
    if f.ring != RING_INT:
        raise RationalNotSupported("positivity is decided over integer values")
    p = f.presentation
    d, nverts, sources, targets, table = _potential_graph(f)

    cyc, dist = _bellman_ford(nverts, sources, targets, table)
    if cyc is not None:
        word = _cycle_word(p, d, cyc)
        total = orbit_sum(f, word)
        require(total < 0, "nonnegative: cycle sum not negative")
        return PositivityResult(False, None, None, word, total)

    rep_table = [w + dist[u] - dist[v] for u, v, w in zip(sources, targets, table)]
    require(all(v >= 0 for v in rep_table), "nonnegative: negative representative")
    potential = function(p, d - 1, dist, RING_INT)
    rep = function(p, d, rep_table, RING_INT)
    # equal normal forms, as in class_is_zero: equal as functions
    require(rep == add(f, coboundary(potential)),
            "nonnegative representative is not cohomologous to f")
    return PositivityResult(True, rep, potential, None)


def order_unit_check(f: LocallyConstantFunction) -> bool:
    """Order-unit test: every periodic orbit sum of f is strictly positive.

    Decided exactly as the positivity of n f - 1, n = |B_{d-1}| the number
    of vertices: the same potential graph, weighted n f - 1.  Every cycle
    splits into simple cycles, and a simple cycle of length L <= n and
    integer sum S weighs n S - L: at least 0 when S >= 1 and negative when
    S <= 0.  Both answers are re-checked: a yes by the positivity witness,
    a no by the orbit sum of f along its simple cycle."""
    if f.ring != RING_INT:
        raise RationalNotSupported("order unit test needs integer values")
    p = f.presentation
    n = word_level(p, max(f.depth, 2) - 1).offsets[-1]
    res = class_is_nonnegative(function(p, f.depth, [n * v - 1 for v in f.table]))
    if not res.nonnegative:
        require(orbit_sum(f, res.cycle) <= 0, "order unit: cycle sum positive")
    return res.nonnegative


# ------------------------------------------------------------------ file I/O

def parse_value(token: str, ring: str):
    try:
        if ring == RING_INT:
            return int(token)
        from fractions import Fraction
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise FormatError(f"bad {ring} value {token!r}") from None


def parse_function_text(text: str, p: SftPresentation,
                        matrix_id: str | None = None) -> LocallyConstantFunction:
    """Parse the function file format.

    Header ``function <matrix-id> depth=<k> ring=<Z|Q>``, then exactly one
    ``<word> <value>`` line per admissible word of length k, in the frozen
    enumeration order.  Missing, duplicate, or out-of-order entries are
    errors."""
    lines = content_lines(text, "function")
    head = lines[0].split()
    if len(head) != 4 or head[0] != "function":
        raise FormatError(
            "function file must start with 'function <matrix-id> depth=<k> ring=<Z|Q>'")
    file_id = head[1]
    if matrix_id is not None and file_id != matrix_id:
        raise FormatError(
            f"function is declared for matrix {file_id!r}, expected {matrix_id!r}")
    if not head[2].startswith("depth=") or not head[3].startswith("ring="):
        raise FormatError(f"bad function header {lines[0]!r}")
    try:
        depth = int(head[2][len("depth="):])
    except ValueError:
        raise FormatError(f"bad depth in {lines[0]!r}") from None
    ring = head[3][len("ring="):]
    if ring not in (RING_INT, RING_RAT):
        raise FormatError(f"ring must be Z or Q, got {ring!r}")
    if depth < 1:
        raise FormatError("depth must be at least 1")

    expected = words(p, depth)
    body = lines[1:]
    if len(body) != len(expected):
        raise FormatError(
            f"expected {len(expected)} entries for depth {depth}, found {len(body)}")
    values = []
    for line, want in zip(body, expected):
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"bad function line {line!r}")
        got = p.parse_word(parts[0])
        if got != want:
            raise FormatError(
                f"word {parts[0]!r} out of order; expected {p.word_label(want)}")
        values.append(parse_value(parts[1], ring))
    return function(p, depth, values, ring)


def format_function_text(f: LocallyConstantFunction, matrix_id: str) -> str:
    p = f.presentation
    lines = [f"function {matrix_id} depth={f.depth} ring={f.ring}"]
    for w, v in zip(words(p, f.depth), f.table):
        lines.append(f"{p.word_label(w)} {v}")
    return "\n".join(lines) + "\n"

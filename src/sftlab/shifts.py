"""Presentations of one-sided shifts of finite type and their word combinatorics.

A presentation is a square nonnegative integer matrix read in one of two ways:

* ``vertex`` kind: a 0-1 matrix; symbols are the vertices and a word is a
  path in the directed graph.
* ``edge`` kind: arbitrary nonnegative integer entries; symbols are the
  edges of the multigraph and a word is a sequence of composable edges.

``validate`` checks the matrix, irreducibility included, and keeps only
what is read later: the matrix, the labels, the symbols, the edges and the
caps.  Nothing of the check is stored.

Symbols are handled as 0-based indices everywhere; human-readable labels are
kept alongside for parsing and printing.  Word enumeration order is the
lexicographic order on symbol indices and is frozen: function tables index
into it.

Each word length k >= 1 has a level, a ``WordLevel``: B_k described by
integer arrays rather than words.  It holds the offsets of the block of
words that start with each symbol, the per-symbol counts, the last symbol
of each word (a flat ``array("I")``) and the first-child mask (``bytes``).
B_{k+1} is the concatenation, over a and then over b in succ(a), of a
followed by B_k's block of b, so the two per-word buffers of level k+1 are
joined from slices of level k's, and its counts are those the cap check
has already stepped.  Tables of locally constant functions
(``cohomology``), the position of a word in B_k (``pair_constants``) and
the graph on B_{k-1} with edges B_k (``block_edges``) are read through the
levels.  No table maps words to positions.

Levels are cached on the presentation itself, in a dict keyed by k that
``word_level`` fills on demand.  They live exactly as long as their
presentation; equal presentations built separately each hold their own.  A
missing level is built, together with every level below it, from the
longest shorter level already cached.  Word tables B_k are not cached:
``words`` builds one on each request, for the callers at the text boundary
that need the words themselves (function files, ``sftlab words``), the
labels of ``higher_block`` and the points of ``enumerate_points``, each of
which asks for a given table once.  It joins each word of B_j, j = k // 2,
to the words of B_{k-j} that may follow it; no other word it builds is
longer than k - j.

The word cap is checked on every request, cached or not, and before
anything is built: the size of a missing level is stepped up from the
counts of the longest cached level (counts of B_{k+1} at a are the sum of
the counts of B_k over succ(a)), so a refused request leaves no level
behind.  |B_k| grows with k, so the stepping stops at the first level over
the cap, however large k is.  ``_check_word_cap`` is the one reader of the
cap; ``count_words`` is the independent count by matrix powers.

A presentation carries the ``Limits`` given to ``validate``, or else
``default_limits()`` read once by it, never on a table request; derived
presentations inherit them, and they take no part in equality or hashing.

The recoding ``higher_block`` returns a presentation indexed by the word
tables of p; a caller that needs the words reads them from p.
"""
from __future__ import annotations

import functools
from itertools import accumulate, chain, compress, repeat

from .config import Limits, default_limits
from .errors import (
    EnvelopeExceeded,
    FormatError,
    Inadmissible,
    NegativeEntry,
    NotIrreducible,
    NotZeroOne,
    PermutationMatrix,
    require,
)
from .graphs import bfs
from .record import Record, freeze

Matrix = tuple[tuple[int, ...], ...]
Word = tuple[int, ...]


class WordLevel(Record):
    """B_k (k >= 1) as integer arrays, in frozen lexicographic order.

    The words that start with symbol a sit at positions offsets[a] up to
    offsets[a + 1], and counts[a] is their number.  ``last`` holds the last
    symbol of each word, 4 bytes a word in an ``array("I")`` whatever the
    alphabet.  ``first_child`` is 1 at the first of the words that extend
    one word of B_{k-1}; the words extending it follow it in order."""

    offsets: tuple[int, ...]               # m + 1 entries
    counts: tuple[int, ...]                # m entries
    last: array                            # array("I"), one entry a word
    first_child: bytes


class SftPresentation(Record, hidden=("limits",)):
    """A validated matrix presentation of a one-sided shift of finite type."""

    kind: str                              # "vertex" | "edge"
    adjacency: Matrix                      # vertex-level matrix
    vertex_labels: tuple[str, ...]
    symbols: tuple[str, ...]               # alphabet labels, one per symbol
    edges: tuple[tuple[int, int, int], ...] | None = None  # edge kind: (src, tgt, par)
    # the caps resolved by ``validate``, read by ``word_level`` and ``words``
    limits: Limits

    @property
    def n_vertices(self) -> int:
        return len(self.adjacency)

    @property
    def alphabet_size(self) -> int:
        return len(self.symbols)

    @functools.cached_property
    def _successors(self) -> tuple[tuple[int, ...], ...]:
        """For each symbol, the symbols allowed to follow it (ascending)."""
        if self.kind == "vertex":
            vertices = range(self.n_vertices)
            return tuple(tuple(compress(vertices, row)) for row in self.adjacency)
        out_of: list[list[int]] = [[] for _ in range(self.n_vertices)]
        for s, (src, _tgt, _par) in enumerate(self.edges):
            out_of[src].append(s)
        return tuple(tuple(out_of[tgt]) for (_src, tgt, _par) in self.edges)

    @functools.cached_property
    def _successor_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(map(frozenset, self._successors))

    @functools.cached_property
    def _word_levels(self) -> dict[int, WordLevel]:
        """Levels by length k, filled by ``word_level``; level 1 is seeded."""
        # imported here, not at the top: ``validate``, ``invariants`` and
        # ``coe`` build no level and need not load it
        from array import array
        m = self.alphabet_size
        # offsets, counts, last symbols, first-child mask
        return {1: WordLevel(tuple(range(m + 1)), (1,) * m, array("I", range(m)),
                             bytes([1]) + bytes(m - 1))}

    @functools.cached_property
    def _label_index(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.symbols)}

    def successors(self, a: int) -> tuple[int, ...]:
        return self._successors[a]

    def follow(self, a: int, b: int) -> bool:
        """True when symbol b may follow symbol a."""
        return b in self._successor_sets[a]

    def is_admissible(self, word: Word) -> bool:
        m = self.alphabet_size
        if any(not (0 <= s < m) for s in word):
            return False
        return all(self.follow(a, b) for a, b in zip(word, word[1:]))

    def check_admissible(self, word: Word) -> None:
        if not self.is_admissible(word):
            raise Inadmissible(f"word {self.any_word_label(word)} is not admissible")

    def word_label(self, word: Word) -> str:
        labels = [self.symbols[s] for s in word]
        if all(len(lab) == 1 for lab in self.symbols):
            return "".join(labels)
        return ".".join(labels)

    def any_word_label(self, word: Word) -> str:
        """``word_label``, or the symbol indices when one is out of range."""
        in_range = all(0 <= s < self.alphabet_size for s in word)
        return self.word_label(word) if in_range else str(tuple(word))

    def parse_word(self, token: str) -> Word:
        """Parse a word token: one label, dot-separated labels, or, when every
        symbol label is a single character, a plain concatenation."""
        if token == "":
            return ()
        idx = self._label_index
        if token in idx:
            return (idx[token],)
        if "." in token:
            parts = token.split(".")
        elif all(len(lab) == 1 for lab in self.symbols):
            parts = list(token)
        else:
            raise FormatError(f"cannot parse word token {token!r}: "
                              "multi-character labels require dot separation")
        word = []
        for part in parts:
            if part not in idx:
                raise FormatError(f"unknown symbol {part!r} in word {token!r}")
            word.append(idx[part])
        return tuple(word)


def edge_list(m: Matrix) -> tuple[tuple[int, int, int], ...]:
    """The edges (i, j, copy) of the multigraph of a nonnegative matrix m,
    square or rectangular, copy in range(m[i][j]), in lexicographic order."""
    return tuple((i, j, copy) for i, row in enumerate(m)
                 for j, entry in enumerate(row) for copy in range(entry))


def validate(matrix, kind: str = "vertex", vertex_labels=None,
             limits: Limits | None = None) -> SftPresentation:
    """Check a matrix presentation and build the symbol table.

    Requirements: square, nonnegative, irreducible, not a permutation matrix;
    vertex kind additionally 0-1.  Irreducibility is checked by two searches
    from vertex 0, along and against the edges; what they reach is not kept.
    The result carries the caller's ``limits`` as given or else
    ``default_limits()``, read now and only now.

    Each check tests the whole matrix, or a whole row or column, at C speed
    first; only a matrix that fails one is walked entry by entry, to name
    the first bad entry in row-major order.
    """
    limits = limits or default_limits()
    if kind not in ("vertex", "edge"):
        raise FormatError(f"unknown presentation kind {kind!r}")
    rows = freeze(matrix)
    n = len(rows)
    if n == 0:
        raise FormatError("empty matrix")
    if set(map(len, rows)) != {n}:
        raise FormatError("matrix is not square")
    if n > limits.max_vertices:
        raise EnvelopeExceeded(
            f"matrix has {n} vertices, supported maximum is {limits.max_vertices}")
    entries = set(chain.from_iterable(rows))
    if min(entries) < 0 or kind == "vertex" and not entries <= {0, 1}:
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                if v < 0:
                    raise NegativeEntry(f"entry ({i + 1},{j + 1}) = {v} is negative")
                if kind == "vertex" and v not in (0, 1):
                    raise NotZeroOne(
                        f"entry ({i + 1},{j + 1}) = {v}; vertex kind needs 0-1")

    columns = tuple(zip(*rows))
    if not (all(map(any, rows)) and all(map(any, columns))):
        for i in range(n):
            if not any(rows[i]):
                raise NotIrreducible(f"row {i + 1} is zero")
            if not any(columns[i]):
                raise NotIrreducible(f"column {i + 1} is zero")

    if set(map(sum, rows)) == {1} == set(map(sum, columns)):
        raise PermutationMatrix("matrix is a permutation matrix")

    vertices = range(n)
    for lines, message in ((rows, "vertex {} unreachable from vertex 1"),
                           (columns, "vertex 1 unreachable from vertex {}")):
        # a vertex leads to the nonzero entries of its line, row or column,
        # each labelled by its count; bfs fetches these steps at C speed
        steps = list(map(enumerate, map(compress, repeat(vertices), lines)))
        reached = bfs([0], steps.__getitem__)
        if len(reached) < n:
            bad = min(v for v in range(n) if v not in reached)
            raise NotIrreducible(message.format(bad + 1))

    if vertex_labels is None:
        vertex_labels = tuple(map(str, range(1, n + 1)))
    else:
        vertex_labels = tuple(map(str, vertex_labels))
        if len(vertex_labels) != n or len(set(vertex_labels)) != n:
            raise FormatError("vertex labels must be distinct and match the size")

    if kind == "vertex":
        symbols = vertex_labels
        edges = None
    else:
        edges = edge_list(rows)
        symbols = tuple(f"{vertex_labels[i]}>{vertex_labels[j]}"
                        + (f"~{k}" if rows[i][j] > 1 else "") for i, j, k in edges)

    return SftPresentation(kind, rows, vertex_labels, symbols, edges, limits)


# ------------------------------------------------------------------ counting

def _mat_pow_sum(m: Matrix, e: int) -> int:
    """Sum of all entries of m**e, exact."""
    from .linalg import mat_mul
    n = len(m)
    acc: Matrix = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    base = m
    while e:
        if e & 1:
            acc = mat_mul(acc, base)
        e >>= 1
        if e:
            base = mat_mul(base, base)
    return sum(sum(row) for row in acc)


def count_words(p: SftPresentation, k: int) -> int:
    """|B_k| without enumeration: path counts from the adjacency matrix."""
    if k < 0:
        raise FormatError(f"word length must be nonnegative, got {k}")
    if k == 0:
        return 1
    if p.kind == "vertex":
        return _mat_pow_sum(p.adjacency, k - 1)
    return _mat_pow_sum(p.adjacency, k)


def _check_word_cap(p: SftPresentation, k: int, count: int,
                    j: int | None = None) -> None:
    """Refuse B_k when |B_j| = ``count`` (j <= k, by default k) is over the
    word cap of p.  |B_j| grows strictly with j on a validated presentation
    (irreducible, not a permutation), so B_k is then over the cap too."""
    max_words = p.limits.max_words
    if count <= max_words:
        return
    if j in (None, k):
        raise EnvelopeExceeded(
            f"|B_{k}| = {count} exceeds the word cap {max_words}")
    raise EnvelopeExceeded(
        f"|B_{k}| exceeds the word cap {max_words}: |B_{j}| = {count} already does")


def _step_counts(p: SftPresentation, counts: tuple[int, ...]) -> tuple[int, ...]:
    """Per-symbol counts of B_{k+1} from those of B_k: a word of B_{k+1}
    starting with a is a followed by a word of B_k starting in succ(a)."""
    return tuple(sum(map(counts.__getitem__, row)) for row in p._successors)


def _next_level(p: SftPresentation, level: WordLevel, k: int,
                counts: tuple[int, ...]) -> WordLevel:
    """Level k + 1 from level k and the per-symbol ``counts`` of level
    k + 1, which the cap walk of ``word_level`` has already stepped: for
    each a and then each b in succ(a), the block of level k of b.  A word
    a.w keeps the last symbol of w, and for k >= 2 it is a first child
    exactly when w is one.  The second symbols of B_2, in order, are the
    last symbols of level 2."""
    from array import array
    succ = p._successors
    if k == 1:
        last = array("I", [b for row in succ for b in row])
        first = bytes(b == row[0] for row in succ for b in row)
    else:
        # slices of memoryviews copy nothing: each block is copied by the join
        offs = level.offsets
        spans = [slice(lo, hi) for lo, hi in zip(offs, offs[1:])]
        seconds = p._word_levels[2].last
        last_of = list(map(memoryview(level.last).__getitem__, spans))
        first_of = list(map(memoryview(level.first_child).__getitem__, spans))
        last = array("I", b"".join(map(last_of.__getitem__, seconds)))
        first = b"".join(map(first_of.__getitem__, seconds))
    return WordLevel(tuple(accumulate(counts, initial=0)), counts, last, first)


def word_level(p: SftPresentation, k: int) -> WordLevel:
    """B_k (k >= 1) as a ``WordLevel``; shared, do not mutate.  A missing
    level is built with all the levels below it, but only after its size,
    stepped up from the counts of the longest cached shorter level, has
    passed the word cap.  The counts of each level are stepped once, by
    that walk, and handed to ``_next_level``."""
    if k < 1:
        raise FormatError("word levels start at length 1")
    levels = p._word_levels
    level = levels.get(k)
    if level is not None:
        _check_word_cap(p, k, level.offsets[-1])
        return level
    start = max(j for j in levels if j < k)          # level 1 is seeded
    level = levels[start]
    stepped = [level.counts]
    for j in range(start + 1, k + 1):
        stepped.append(_step_counts(p, stepped[-1]))
        _check_word_cap(p, k, sum(stepped[-1]), j)
    for j, counts in enumerate(stepped[1:], start):
        level = levels[j + 1] = _next_level(p, level, j, counts)
    return level


def _walk(p: SftPresentation, k: int) -> list[Word]:
    """B_k (k >= 1) in order, each word extended by its last symbol's successors."""
    succ = p._successors
    table = [(s,) for s in range(p.alphabet_size)]
    for _ in range(1, k):
        table = [w + (s,) for w in table for s in succ[w[-1]]]
    return table


def words(p: SftPresentation, k: int) -> tuple[Word, ...]:
    """All admissible words of length k, in frozen lexicographic order.

    The cap is checked first, through ``word_level``, which keeps the level
    of B_k on p.  The table is built anew on each request and not kept.
    From k = 2 it is split at j = k // 2: each u of B_j is followed by the
    words of B_{k-j} that start in succ(u[-1]), in order, one concatenation
    a word, and no other word built is longer than k - j.  The
    ``cohom-transfer`` benchmark, whose check asks for B_17, peaks at 133.9
    MB against 172.5 by the walk alone (2-core x86_64, Python 3.11)."""
    if k < 0:
        raise FormatError(f"word length must be nonnegative, got {k}")
    if k == 0:
        _check_word_cap(p, 0, 1)
        return ((),)
    word_level(p, k)                     # checks the cap
    if k == 1:
        return tuple(_walk(p, 1))
    j = k // 2
    offsets = word_level(p, k - j).offsets
    tails = _walk(p, k - j)
    after = [[v for b in row for v in tails[offsets[b]:offsets[b + 1]]]
             for row in p._successors]
    return tuple([u + v for u in _walk(p, j) for v in after[u[-1]]])


def block_edges(p: SftPresentation, d: int) -> tuple[list[int], list[int]]:
    """The graph on B_{d-1} (d >= 2) whose edge w of B_d runs from w[:-1]
    to w[1:], as the positions in B_{d-1} of the sources and the targets, in
    B_d's order.  A source is a word's parent; the suffixes of the words a.w
    with w starting with b, for each pair a, b of B_2, are B_{d-1}'s block of b."""
    offsets = word_level(p, d - 1).offsets
    sources = list(accumulate(word_level(p, d).first_child[1:], initial=0))
    targets = list(chain.from_iterable(range(offsets[b], offsets[b + 1])
                                       for b in word_level(p, 2).last))
    return sources, targets


def pair_starts(below: WordLevel, seconds) -> list[int]:
    """Where the words of B_k (k >= 2) that begin with each pair a, b of B_2
    start, in B_2's order, with one more entry closing the last block, from
    ``below``, the level of B_{k-1}, and ``seconds``, B_2's last symbols."""
    return list(accumulate(map(below.counts.__getitem__, seconds), initial=0))


def pair_constants(p: SftPresentation, k: int) -> list[dict]:
    """[c_k, ..., c_2, c_1] for ranking B_k off the levels: rank_1(a) =
    c_1[a] = a and rank_j(a.b.v) = c_j[a][b] + rank_{j-1}(b.v), where
    c_j[a][b] is the start of the block of a.b in B_j less the offset of b
    in B_{j-1}.  Keyed by symbols, row a by the successors of a, so a symbol
    out of range or a pair that is no word raises KeyError.  Each level it
    reads, B_1 up to B_(k-1) and B_2, is fetched once."""
    consts = [{a: a for a in range(p.alphabet_size)}]
    if k == 1:
        return consts
    levels = [word_level(p, j) for j in range(1, max(k, 3))]
    seconds = levels[1].last
    for below in levels[:k - 1]:
        starts, offsets = iter(pair_starts(below, seconds)), below.offsets
        consts.insert(0, {a: {b: next(starts) - offsets[b] for b in row}  # B_2's order
                          for a, row in enumerate(p._successors)})
    return consts


# ------------------------------------------------------- eventually periodic

class EventuallyPeriodicPoint(Record):
    """Point u v v v ... in canonical form: primitive period, preperiod
    greedily minimized from the right."""

    presentation: SftPresentation
    preperiod: Word
    period: Word

    def __init__(self, presentation: SftPresentation, preperiod: Word, period: Word):
        # Hand-written: an orbit-verify pass builds 469,416 points.  Building
        # that many took 1.25 s through Record.__init__ and 0.61 s here
        # (medians of 7 runs, Python 3.11, 2-core x86).
        setattr_ = object.__setattr__
        setattr_(self, "presentation", presentation)
        setattr_(self, "preperiod", preperiod)
        setattr_(self, "period", period)

    def prefix(self, m: int) -> Word:
        """First m symbols of the point."""
        head, per = self.preperiod[:m], self.period
        need = max(m - len(head), 0)
        return head + (per * (need // len(per) + 1))[:need]

    def label(self) -> str:
        p = self.presentation
        return f"{p.word_label(self.preperiod)}:{p.word_label(self.period)}"


def _primitive_root(word: Word) -> Word:
    n = len(word)
    for d in range(1, n):
        if n % d == 0 and word == word[:d] * (n // d):
            return word[:d]
    return word


def _canonical(p: SftPresentation, pre: Word, per: Word) -> EventuallyPeriodicPoint:
    """Canonicalize u v^inf, u v v taken as admissible and v as nonempty:
    primitive period, then absorb matching symbols from the right end of the
    preperiod by rotating the period."""
    per = _primitive_root(per)
    pre = list(pre)
    while pre and pre[-1] == per[-1]:
        pre.pop()
        per = per[-1:] + per[:-1]
    return EventuallyPeriodicPoint(p, tuple(pre), per)


def periodic_point(p: SftPresentation, preperiod, period) -> EventuallyPeriodicPoint:
    """The canonical form of u v^inf, after checking that v is nonempty and
    that u v v is admissible."""
    pre = tuple(preperiod)
    per = tuple(period)
    if not per:
        raise Inadmissible("period must be nonempty")
    p.check_admissible(pre + per + per)
    return _canonical(p, pre, per)


def parse_point(p: SftPresentation, token: str) -> EventuallyPeriodicPoint:
    """Parse "<preperiod>:<period>"; the preperiod part may be empty."""
    if ":" not in token:
        raise FormatError(f"point token {token!r} needs the form pre:period")
    pre_txt, per_txt = token.split(":", 1)
    return periodic_point(p, p.parse_word(pre_txt), p.parse_word(per_txt))


def shift_point_by(x: EventuallyPeriodicPoint, n: int) -> EventuallyPeriodicPoint:
    """Drop the first n symbols; x itself when n <= 0.

    The result is canonical as it stands: a shorter preperiod keeps its last
    symbol, which differs from the period's last, and a rotation of a
    primitive period is primitive.  So no ``periodic_point`` is needed."""
    if n <= 0:
        return x
    per = x.period
    r = max(n - len(x.preperiod), 0) % len(per)      # the period's rotation
    return EventuallyPeriodicPoint(x.presentation, x.preperiod[n:],
                                   per[r:] + per[:r])


def enumerate_points(p: SftPresentation, max_preperiod: int,
                     max_period: int) -> list[EventuallyPeriodicPoint]:
    """The canonical eventually periodic points with preperiod length up to
    max_preperiod and period length up to max_period, sorted by (preperiod,
    period).  They are listed, not canonicalized: a primitive period that
    closes up, after a preperiod that joins it and does not end with its
    last symbol.  Canonicalizing never lengthens either part, so these are
    the canonical forms of all the pairs within the bounds."""
    prefixes: list[Word] = [()]
    for k in range(1, max_preperiod + 1):
        prefixes.extend(words(p, k))
    pairs = sorted(
        (pre, per) for plen in range(1, max_period + 1) for per in words(p, plen)
        if p.follow(per[-1], per[0]) and _primitive_root(per) is per
        for pre in prefixes
        if not pre or (pre[-1] != per[-1] and p.follow(pre[-1], per[0])))
    return [EventuallyPeriodicPoint(p, pre, per) for pre, per in pairs]


# --------------------------------------------------------------- recodings

def _bracket_label(p: SftPresentation, w: Word) -> str:
    return "[" + p.word_label(w) + "]"


def higher_block(p: SftPresentation, k: int) -> SftPresentation:
    """The edge-kind presentation on the graph with vertices B_k and edges
    B_{k+1}, the edge w running from w[:-1] to w[1:]: vertex i is
    ``words(p, k)[i]`` and symbol s is ``words(p, k + 1)[s]``, each labelled
    by its word in brackets.  The edges are read off the word levels; the
    two tables are built for the labels alone, once each.  The recoding
    inherits the caps of p."""
    if k < 1:
        raise FormatError("block length must be at least 1")
    verts = words(p, k)
    adj = [[0] * len(verts) for _ in verts]
    for u, v in zip(*block_edges(p, k + 1)):
        adj[u][v] = 1
    blocks = words(p, k + 1)
    labels = tuple(_bracket_label(p, w) for w in verts)
    pres = validate(adj, kind="edge", vertex_labels=labels, limits=p.limits)
    # edge_list() orders edges by (src, tgt), which coincides with the lex
    # order on the underlying (k+1)-words
    require(pres.alphabet_size == len(blocks), "higher_block: edges miscounted")
    return SftPresentation(pres.kind, pres.adjacency, pres.vertex_labels,
                           tuple(_bracket_label(p, w) for w in blocks), pres.edges,
                           limits=pres.limits)


# ------------------------------------------------------------------ file I/O

def content_lines(text: str, what: str) -> list[str]:
    """The stripped lines of a text file, blank and ``#`` lines dropped; a
    file with none is an "empty <what> file" FormatError."""
    lines = [line for line in map(str.strip, text.splitlines())
             if line and not line.startswith("#")]
    if not lines:
        raise FormatError(f"empty {what} file")
    return lines


def parse_matrix_text(text: str):
    """Parse the matrix file format.

    Line 1: ``matrix <kind> <n>`` (kind vertex|edge) or ``matrix rect <r> <c>``
    for plain rectangular integer matrices; following lines hold the rows.
    Lines starting with ``#`` and blank lines are ignored.
    Returns (kind, rows) where rows is a tuple of int tuples.
    """
    lines = content_lines(text, "matrix")
    head = lines[0].split()
    if not head or head[0] != "matrix":
        raise FormatError("matrix file must start with 'matrix <kind> <n>'")
    if len(head) == 3 and head[1] in ("vertex", "edge"):
        kind = head[1]
        try:
            n = int(head[2])
        except ValueError:
            raise FormatError(f"bad size {head[2]!r} in matrix header") from None
        r, c = n, n
    elif len(head) == 4 and head[1] == "rect":
        kind = "rect"
        try:
            r, c = int(head[2]), int(head[3])
        except ValueError:
            raise FormatError("bad sizes in rect matrix header") from None
    else:
        raise FormatError(f"bad matrix header {lines[0]!r}")
    if min(r, c) < 1:
        raise FormatError(f"matrix header {lines[0]!r} needs sizes of at least 1")
    if len(lines) - 1 != r:
        raise FormatError(f"expected {r} rows, found {len(lines) - 1}")
    rows = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != c:
            raise FormatError(f"row {line!r} has {len(parts)} entries, expected {c}")
        try:
            rows.append(tuple(int(v) for v in parts))
        except ValueError:
            raise FormatError(f"non-integer entry in row {line!r}") from None
    return kind, tuple(rows)


def format_matrix_text(kind: str, rows: Matrix) -> str:
    if kind == "rect":
        head = f"matrix rect {len(rows)} {len(rows[0])}"
    else:
        head = f"matrix {kind} {len(rows)}"
    body = "\n".join(" ".join(str(v) for v in row) for row in rows)
    return head + "\n" + body + "\n"


def read_text(path) -> str:
    """The ASCII text of an input file; a non-ASCII byte is a FormatError."""
    try:
        with open(path, encoding="ascii") as file:
            return file.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: non-ASCII byte at offset {exc.start}") from None


def load_matrix_file(path) -> SftPresentation:
    """Read, parse and validate a vertex or edge matrix file."""
    kind, rows = parse_matrix_text(read_text(path))
    if kind == "rect":
        raise FormatError(f"{path}: rectangular matrices cannot present a shift")
    return validate(rows, kind)

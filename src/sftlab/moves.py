"""Matrix moves between shifts of finite type and their function transfer.

Two move families are implemented exactly:

* the state-splitting expansion of a 0-1 matrix at a chosen vertex, with the
  symbol-splitting map (split), the symbol-erasing map (merge), their cocycle
  data, and the induced pull/push operators on locally constant functions;
* elementary equivalences A = CD, B = DC over nonnegative integer matrices,
  with canonical edge-pair bijections and the induced transfer operators on
  functions of the two edge shifts, plus a bounded search for chains of
  elementary equivalences.
"""
from __future__ import annotations

import functools
import itertools
import operator

from . import cohomology as coh
from .config import SSE_CHAIN_BOUND, SSE_ENTRY_BOUND, SSE_INNER_DIM
from .errors import (
    ContradictionDetected,
    FormatError,
    InvalidResult,
    NotIrreducible,
    NotVertexKind,
    PermutationMatrix,
    PresentationMismatch,
)
from .graphs import bfs, path
from .record import Record, freeze, integer
from .shifts import (Matrix, SftPresentation, edge_list, pair_constants, pair_starts,
                     validate, word_level)
from .transducers import OrbitData, Transducer, transfer_psi


# ------------------------------------------------------------- expansion

class Expansion(Record):
    """Vertex expansion of a 0-1 matrix.

    The expanded matrix has one extra vertex, listed first: its row is a copy
    of the chosen vertex's old row, the chosen vertex keeps a single edge to
    the new vertex, and every other row is unchanged.  split sends a point of
    the base shift to the expanded one by doubling the chosen symbol
    (v becomes v 0); merge erases the new symbol."""

    base: SftPresentation
    expanded: SftPresentation
    vertex: int
    split: Transducer
    merge: Transducer
    split_data: OrbitData
    merge_data: OrbitData


def expand(p: SftPresentation, vertex: int = 0) -> Expansion:
    """Expand p at vertex; the expanded presentation inherits the caps of p."""
    if p.kind != "vertex":
        raise NotVertexKind("expansion needs a 0-1 vertex presentation")
    vertex = integer(vertex)
    n = p.n_vertices
    if not (0 <= vertex < n):
        raise FormatError(f"vertex index {vertex} out of range")
    rows = ((0,) + p.adjacency[vertex],
            *((1,) + (0,) * n if i == vertex else (0,) + row
              for i, row in enumerate(p.adjacency)))
    fresh = "0"
    while fresh in p.vertex_labels:
        fresh = fresh + "'"
    labels = (fresh,) + p.vertex_labels
    expanded = validate(rows, "vertex", labels, p.limits)

    # one state each, the rules already in ``make_transducer``'s form (int
    # tuples, sorted), so the machines are built, and checked, directly
    split = Transducer(p, expanded, 1, 0, tuple(
        (0, a, 0, (a + 1, 0) if a == vertex else (a + 1,)) for a in range(n)))
    merge = Transducer(expanded, p, 1, 0, (
        (0, 0, 0, ()), *((0, a + 1, 0, (a,)) for a in range(n))))

    split_data = OrbitData(
        coh.zero(p), coh.function(p, 1, [2 if a == vertex else 1 for a in range(n)]))
    merge_data = OrbitData(
        coh.zero(expanded), coh.function(expanded, 1, [0] + [1] * n))
    return Expansion(p, expanded, vertex, split, merge, split_data, merge_data)


def psi_xi(e: Expansion,
           f_exp: coh.LocallyConstantFunction) -> coh.LocallyConstantFunction:
    """Pull a function on the expanded shift back to the base shift along
    split: value at x is f(split x), plus f(shift(split x)) when x starts
    with the expanded vertex (the split image spends two steps there).

    This is ``transfer_psi`` along the machine ``e.split`` with its data, at
    the least depth that suffices; the split emits a symbol for each symbol
    read, so f's own depth always does."""
    return transfer_psi(e.split, e.split_data, f_exp)


def psi_eta(e: Expansion,
            f: coh.LocallyConstantFunction) -> coh.LocallyConstantFunction:
    """Push a function on the base shift to the expanded shift along merge:
    zero on the cylinder of the new symbol, f(merge x) elsewhere.

    This is ``transfer_psi`` along the machine ``e.merge`` with its data, at
    the least depth that suffices; the new symbol is never followed by
    itself, so the merge keeps at least every other symbol and the depth
    stays below twice f's."""
    return transfer_psi(e.merge, e.merge_data, f)


# --------------------------------------------------- elementary equivalence

class ElementaryEquivalence(Record):
    """A = CD and B = DC with canonical edge bijections.

    Edges of the graph of A from i to j are matched with pairs
    (edge of C from i to k, edge of D from k to j) in lexicographic order of
    (k, C-copy, D-copy); symmetrically for B with (D-edge, C-edge) pairs."""

    c: Matrix
    d: Matrix
    a: SftPresentation                       # edge kind for CD
    b: SftPresentation                       # edge kind for DC
    z: Matrix                                # [[0, C], [D, 0]]
    c_edges: tuple[tuple[int, int, int], ...]
    d_edges: tuple[tuple[int, int, int], ...]
    a_pairs: tuple[tuple[int, int], ...]     # A-edge -> (C-edge, D-edge)
    b_pairs: tuple[tuple[int, int], ...]     # B-edge -> (D-edge, C-edge)

    @functools.cached_property
    def a_pair_index(self) -> dict[tuple[int, int], int]:
        return {pair: s for s, pair in enumerate(self.a_pairs)}

    @functools.cached_property
    def b_pair_index(self) -> dict[tuple[int, int], int]:
        return {pair: s for s, pair in enumerate(self.b_pairs)}


def _factor_pairs(name: str, product: SftPresentation, first: Matrix,
                  second: Matrix, first_index, second_index):
    """For each edge (i, j, copy) of the product of first and second, the
    copy-th pair (first edge i -> k, second edge k -> j), pairs in
    lexicographic order of (k, first copy, second copy)."""
    pairs = []
    through: list[tuple[int, int]] = []
    for (i, j, copy) in product.edges:
        if copy == 0:
            through = [
                (first_index[(i, k, fi)], second_index[(k, j, si)])
                for k in range(len(second))
                for fi in range(first[i][k])
                for si in range(second[k][j])]
            if len(through) != product.adjacency[i][j]:
                raise ContradictionDetected(
                    f"{name} has {product.adjacency[i][j]} edges from {i + 1} "
                    f"to {j + 1} but {len(through)} factor edge pairs")
        pairs.append(through[copy])
    return tuple(pairs)


def elementary(c, d) -> ElementaryEquivalence:
    c = freeze(c)
    d = freeze(d)
    n = len(c)
    m = len(d)
    if n == 0 or m == 0 or any(len(row) != m for row in c) \
            or any(len(row) != n for row in d):
        raise FormatError("need C of shape n x m and D of shape m x n")
    if any(v < 0 for row in itertools.chain(c, d) for v in row):
        raise InvalidResult("factor matrices must be nonnegative")
    # imported here, as in ``shifts._mat_pow_sum``: ``expand`` and the
    # transfers along it run without linear algebra
    from .linalg import mat_mul
    a_mat = mat_mul(c, d)
    b_mat = mat_mul(d, c)
    # only what a product can fail is wrapped; errors of the caps propagate
    try:
        a = validate(a_mat, "edge")
        b = validate(b_mat, "edge")
    except (NotIrreducible, PermutationMatrix) as exc:
        raise InvalidResult(f"product is not a valid presentation: {exc}") from exc

    z = tuple(((0,) * n + c[i]) if i < n else (d[i - n] + (0,) * m)
              for i in range(n + m))

    c_edges = edge_list(c)
    d_edges = edge_list(d)
    c_index = {e: s for s, e in enumerate(c_edges)}
    d_index = {e: s for s, e in enumerate(d_edges)}

    a_pairs = _factor_pairs("A", a, c, d, c_index, d_index)
    b_pairs = _factor_pairs("B", b, d, c, d_index, c_index)

    return ElementaryEquivalence(
        c=c, d=d, a=a, b=b, z=z,
        c_edges=c_edges, d_edges=d_edges,
        a_pairs=a_pairs, b_pairs=b_pairs)


def _edge_transfer(f: coh.LocallyConstantFunction, target: SftPresentation,
                   target_pairs, source_index) -> coh.LocallyConstantFunction:
    """Shared body of phi and psi.  Its value on x_0 ... x_k in B_{k+1} of the
    target is f on g(x_0, x_1) ... g(x_{k-1}, x_k), where g(x, y) is the
    source edge of the pair (second factor edge of x, first factor edge of
    y): the interleaved pairs reassembled one step later.

    No word is built.  The rank of an image in B_j of the source is a pair
    constant plus the rank of its tail (``shifts.pair_constants``).  So
    the ranks of the images of B_{j+1}, over each block x, y, z of it, are
    the ranks of the images of B_j's block y, z plus c_j[g(x, y)][g(y, z)],
    and f's table is read by one gather at the end."""
    k, source = f.depth, f.presentation
    word_level(target, k + 1)                   # checks the cap
    # the images of B_2: one source edge each, its own rank in B_1
    ranks = g = [source_index[(target_pairs[x][1], target_pairs[y][0])]
                 for x in range(target.alphabet_size)
                 for y in target.successors(x)]
    if k > 1:
        consts, level2 = pair_constants(source, k), word_level(target, 2)
        blocks = [(e2, g[e], g[e2]) for e, y in enumerate(level2.last)
                  for e2 in range(level2.offsets[y], level2.offsets[y + 1])]
        # the images of B_3, per block x, y, z: c_2 plus the rank of g(y, z)
        ranks = [consts[-2][s0][s1] + s1 for _e2, s0, s1 in blocks]
        for j in range(3, k + 1):
            starts = pair_starts(word_level(target, j - 1), level2.last)
            c = consts[k - j]
            ranks = list(itertools.chain.from_iterable(
                map(c[s0][s1].__add__, ranks[starts[e2]:starts[e2 + 1]])
                for e2, s0, s1 in blocks))
    # one itemgetter call, as in cohomology._lift's single gather (35
    # against 45 ms for 196,418 words); B_(k+1) has two words or more, so
    # it returns a tuple
    return coh._build(target, k + 1, operator.itemgetter(*ranks)(f.table), f.ring)


def phi(ee: ElementaryEquivalence,
        f: coh.LocallyConstantFunction) -> coh.LocallyConstantFunction:
    """Transfer a function on the edge shift of A = CD to the edge shift of
    B = DC: decompose each B-edge as (D-edge, C-edge) and reassemble the
    interleaved (C-edge, D-edge) pairs into A-edges, one step later.  The
    result has depth at most f.depth + 1; it is read off B_{depth+1} of B
    by position in f's table, without building words."""
    if f.presentation != ee.a:
        raise PresentationMismatch("function must live on the edge shift of CD")
    return _edge_transfer(f, ee.b, ee.b_pairs, ee.a_pair_index)


def psi(ee: ElementaryEquivalence,
        g: coh.LocallyConstantFunction) -> coh.LocallyConstantFunction:
    """Transfer in the other direction, from the edge shift of B = DC to the
    edge shift of A = CD."""
    if g.presentation != ee.b:
        raise PresentationMismatch("function must live on the edge shift of DC")
    return _edge_transfer(g, ee.a, ee.a_pairs, ee.b_pair_index)


# ------------------------------------------------------------- SSE search

def _solve_factor_column(c: Matrix, target: tuple[int, ...], bound: int,
                         cap: int) -> list[tuple[int, ...]]:
    """All d in [0, bound]^m with C d = target, lexicographic, at most cap."""
    n = len(c)
    m = len(c[0])
    solutions: list[tuple[int, ...]] = []
    partial = [0] * m

    def place(pos: int, rest: tuple[int, ...]) -> None:
        if len(solutions) >= cap:
            return
        if pos == m:
            if all(v == 0 for v in rest):
                solutions.append(tuple(partial))
            return
        col = tuple(c[i][pos] for i in range(n))
        for v in range(bound + 1):
            nrest = tuple(rest[i] - col[i] * v for i in range(n))
            if any(x < 0 for x in nrest):
                break        # entries are nonnegative, larger v only worsens
            partial[pos] = v
            place(pos + 1, nrest)
        partial[pos] = 0

    place(0, target)
    return solutions


class SseSearchResult(Record):
    """found is None when no chain within the bounds was encountered; that
    outcome does not certify the absence of a strong shift equivalence."""

    found: tuple[ElementaryEquivalence, ...] | None
    nodes_explored: int
    attempts: int


SSE_ATTEMPT_BUDGET = 20_000          # factorizations tried before "not-found"


def sse_search(a_matrix, b_matrix, inner_dim_bound: int = SSE_INNER_DIM,
               entry_bound: int = SSE_ENTRY_BOUND,
               chain_bound: int = SSE_CHAIN_BOUND) -> SseSearchResult:
    """Breadth-first search for a chain of elementary equivalences from A to
    B.  Every factorization A' = C D with inner dimension and entries within
    the bounds yields the neighbour D C.  Exponential in the bounds.  Each
    candidate is built under the environment's caps; a cap that refuses it,
    or a malformed environment cap, is raised, not skipped."""
    start = freeze(a_matrix)
    goal = freeze(b_matrix)
    depth = {start: 0}
    nodes = attempts = 0

    def step(node):
        """The neighbours of node, each with its elementary equivalence.  A
        node at the chain bound, or met after the attempt budget is spent,
        has none and is not counted."""
        nonlocal nodes, attempts
        if depth[node] >= chain_bound or attempts > SSE_ATTEMPT_BUDGET:
            return
        nodes += 1
        n = len(node)
        for m in range(1, inner_dim_bound + 1):
            for flat in itertools.product(range(entry_bound + 1), repeat=n * m):
                attempts += 1
                if attempts > SSE_ATTEMPT_BUDGET:
                    return
                c = tuple(tuple(flat[i * m:(i + 1) * m]) for i in range(n))
                if any(all(v == 0 for v in row) for row in c):
                    continue
                per_column = []
                for j in range(n):
                    target = tuple(node[i][j] for i in range(n))
                    sols = _solve_factor_column(c, target, entry_bound, 16)
                    if not sols:
                        break
                    per_column.append(sols)
                else:
                    for combo in itertools.product(*per_column):
                        attempts += 1
                        if attempts > SSE_ATTEMPT_BUDGET:
                            return
                        d = tuple(tuple(combo[j][i] for j in range(n))
                                  for i in range(m))
                        try:
                            ee = elementary(c, d)
                        except InvalidResult:
                            continue
                        depth.setdefault(ee.b.adjacency, depth[node] + 1)
                        yield ee, ee.b.adjacency

    parents = bfs([start], step, goal)
    return SseSearchResult(path(parents, goal) if goal in parents else None,
                           nodes, attempts)

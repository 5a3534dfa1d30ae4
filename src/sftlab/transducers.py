"""Deterministic finite-state word-output transducers presenting continuous
maps between one-sided shifts of finite type.

A machine reads the input point symbol by symbol from a fixed initial state
and emits a (possibly empty) output word per step.  Every ``Transducer`` is
checked when it is constructed, by ``make_transducer``, by a direct call or
by any other route.  Its states, symbols and outputs must be integers, as
``record.integer`` takes them; it must hold one rule per (state, input
symbol), and it must have the three properties that make the machine a
genuine continuous map into the codomain shift:

* complete: a transition exists for every reachable state and admissible
  next input symbol;
* productive: every reachable cycle emits at least one output symbol, so
  images of infinite inputs are infinite;
* output-admissible: concatenated outputs along admissible inputs are
  admissible in the codomain.

All three are checked by one breadth-first search over the reachable
(state, previous input, last output symbol) configurations, and refused in
this order: a missing rule, a cycle of empty-output steps, a bad join.

The rest of the module trusts these properties and does not re-check them.
On top of the machines it implements: exact application to eventually
periodic points, composition, bounded-delay equality of the presented maps,
verification of continuous-orbit-equivalence cocycle data, and the induced
transfer operator on locally constant functions.  Words of B_k are read by
position in the word levels of ``shifts``, and no word table is built: runs
of a machine grow level by level, and buffer states are numbered by level.
"""
from __future__ import annotations

import functools
import itertools
from operator import is_not

from . import cohomology as coh
from .errors import (
    ContradictionDetected,
    FormatError,
    InadmissibleOutput,
    IncompleteTransducer,
    InsufficientLookahead,
    PresentationMismatch,
    RationalNotSupported,
    Starvation,
)
from .graphs import bfs, find_cycle, path
from .record import Record, freeze, integer
from .shifts import (
    _canonical,
    EventuallyPeriodicPoint,
    SftPresentation,
    Word,
    block_edges,
    content_lines,
    higher_block,
    shift_point_by,
    enumerate_points,
    word_level,
)

Rule = tuple[int, int, int, Word]          # state, input symbol, next state, output


class Transducer(Record):
    domain: SftPresentation
    codomain: SftPresentation
    n_states: int
    initial: int
    rules: tuple[Rule, ...]

    def __post_init__(self):
        """Integers by ``record.integer``'s rule, an initial state in range,
        one rule per (state, symbol), rules in range with admissible
        outputs.  Then one search refuses, in order: the first missing rule
        it meets, a cycle of empty-output steps, and the first output that
        cannot follow the output before it."""
        # each rule as one row (q, a, q2, *out), refused in the order given;
        # a row that ``integer`` converted (a bool, say) is stored converted,
        # so the machine reads and prints the ints that make_transducer's would
        given = [(self.n_states, self.initial),
                 *((q, a, q2, *out) for q, a, q2, out in self.rules)]
        frozen = freeze(given)
        if any(map(is_not, frozen, given)):
            (n_states, initial), *rows = frozen
            vars(self).update(n_states=n_states, initial=initial, rules=tuple(
                (q, a, q2, tuple(out)) for q, a, q2, *out in rows))
        if not (0 <= self.initial < self.n_states):
            raise FormatError(
                f"initial state {self.initial} out of range for {self.n_states} states")
        table = self.table
        if len(table) != len(self.rules):
            seen = set()
            for q, a, _q2, _out in self.rules:
                if (q, a) in seen:
                    raise FormatError(f"duplicate rule for state {q}, symbol {a}")
                seen.add((q, a))
        dom, cod = self.domain, self.codomain
        states, inputs, outputs = (range(self.n_states), range(dom.alphabet_size),
                                   range(cod.alphabet_size))
        for (q, a), (q2, out) in table.items():
            if not (q in states and q2 in states):
                raise FormatError(f"rule ({q},{a}) references an unknown state")
            if a not in inputs:
                raise FormatError(f"rule ({q},{a}) reads an unknown symbol")
            if out and not (min(out) in outputs and max(out) in outputs):
                raise FormatError(f"rule ({q},{a}) emits an unknown symbol")
            if len(out) > 1 and not cod.is_admissible(out):
                raise InadmissibleOutput(
                    f"output {cod.word_label(out)} of rule ({q},{a}) is inadmissible")

        # the empty-output steps of each (state, previous input) pair, kept
        # at its first visit, in the order the search reaches the pairs
        silent: dict[tuple[int, int | None], list] = {}
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

        bfs([(self.initial, None, None)], step)

        cfg_index = {c: i for i, c in enumerate(silent)}
        starved = find_cycle([[cfg_index[c] for c in targets]
                              for targets in silent.values()])
        if starved is not None:
            raise Starvation(
                f"cycle through state {list(silent)[starved][0]} emits no output")
        if bad_joins:
            raise InadmissibleOutput(bad_joins[0])

    @functools.cached_property
    def table(self) -> dict[tuple[int, int], tuple[int, Word]]:
        return {(q, a): (q2, out) for (q, a, q2, out) in self.rules}


def make_transducer(domain: SftPresentation, codomain: SftPresentation,
                    rules, initial: int = 0,
                    n_states: int | None = None) -> Transducer:
    """Normalize the rule set (sorted, frozen) and build the machine."""
    # each rule as one row (q, a, q2, *out), so entries are refused in the
    # order given
    normalized = sorted((q, a, q2, tuple(out)) for q, a, q2, *out in
                        freeze([(q, a, q2, *out) for q, a, q2, out in rules]))
    initial = integer(initial)
    if n_states is None:
        n_states = 1 + max(-1, initial, *(max(q, q2) for q, _a, q2, _o in normalized))
    return Transducer(domain=domain, codomain=codomain, n_states=integer(n_states),
                      initial=initial, rules=tuple(normalized))


def _inputs(dom: SftPresentation, prev: int | None):
    """Input symbols admissible after ``prev``; every symbol at the start."""
    return range(dom.alphabet_size) if prev is None else dom.successors(prev)


def run_on_word(t: Transducer, word: Word) -> tuple[int, Word]:
    """Feed an admissible word from the initial state; returns (state, output)."""
    table = t.table
    q = t.initial
    out: list[int] = []
    for a in word:
        try:
            q, emitted = table[(q, a)]
        except KeyError:
            raise IncompleteTransducer(
                f"no rule for state {q} on symbol {t.domain.symbols[a]}") from None
        out.extend(emitted)
    return q, tuple(out)


def apply(t: Transducer, x: EventuallyPeriodicPoint) -> EventuallyPeriodicPoint:
    """Exact image of an eventually periodic point, canonicalized."""
    if x.presentation != t.domain:
        raise PresentationMismatch("point lives outside the machine's domain")
    table = t.table
    q, head = run_on_word(t, x.preperiod)
    period = x.period
    seen: dict[tuple[int, int], int] = {}
    step_outputs: list[Word] = []
    offset = 0
    while (q, offset) not in seen:
        seen[(q, offset)] = len(step_outputs)
        q, out = table[(q, period[offset])]
        step_outputs.append(out)
        offset = (offset + 1) % len(period)
    first = seen[(q, offset)]
    cat = itertools.chain.from_iterable
    # construction checked every join along admissible inputs, the wrap from
    # the period's end back to its start included, and productivity makes the
    # closed walk step_outputs[first:] emit at least one symbol
    return _canonical(t.codomain, head + tuple(cat(step_outputs[:first])),
                      tuple(cat(step_outputs[first:])))


def identity_transducer(p: SftPresentation) -> Transducer:
    rules = [(0, a, 0, (a,)) for a in range(p.alphabet_size)]
    return make_transducer(p, p, rules)


def compose(second: Transducer, first: Transducer) -> Transducer:
    """Machine presenting second(first(.)), built on reachable state pairs.

    Every lookup succeeds: the inner machine is complete on its reachable
    configurations, and its output stream is admissible, so the outer machine
    only visits reachable configurations of its own."""
    if first.codomain != second.domain:
        raise PresentationMismatch(
            "codomain of the inner machine must be the domain of the outer")
    t1, t2 = first.table, second.table
    dom = first.domain
    start_pair = (first.initial, second.initial)
    pair_ids = {start_pair: 0}
    rules: dict[tuple[int, int], tuple[int, Word]] = {}

    def step(cfg):
        pair, prev = cfg
        q1, q2 = pair
        for a in _inputs(dom, prev):
            q1n, w1 = t1[(q1, a)]
            q2n = q2
            out: list[int] = []
            for s in w1:
                q2n, w2 = t2[(q2n, s)]
                out.extend(w2)
            new_pair = (q1n, q2n)
            if new_pair not in pair_ids:
                pair_ids[new_pair] = len(pair_ids)
            # a revisit with another prev stores the same value again
            rules[(pair_ids[pair], a)] = (pair_ids[new_pair], tuple(out))
            yield a, (new_pair, a)

    bfs([(start_pair, None)], step)
    rule_list = [(q, a, q2, out) for (q, a), (q2, out) in rules.items()]
    return make_transducer(dom, second.codomain, rule_list,
                           initial=0, n_states=len(pair_ids))


class EquivalenceResult(Record):
    """status in {"equal", "unequal", "inconclusive"}; unequal carries an
    admissible input word on which the outputs split."""

    status: str
    witness: Word | None = None
    delay_bound: int = 0


DELAY_SLACK = 8          # added to the product-size delay default


def equivalent_maps(t1: Transducer, t2: Transducer,
                    delay_bound: int | None = None) -> EquivalenceResult:
    """Do the two machines present the same map?

    Synchronized product with output-buffer cancellation.  No reachable
    mismatch and all buffers within the delay bound means the presented maps
    agree on every point; a mismatch gives a finite input witness; a buffer
    overflow leaves the question inconclusive at this bound.  The default
    bound is the product of the state counts times the longest output (at
    least 1), plus ``DELAY_SLACK``."""
    if t1.domain != t2.domain or t1.codomain != t2.codomain:
        raise PresentationMismatch("machines must share domain and codomain")
    if delay_bound is None:
        maxlen = max((len(out) for (_q, _a, _q2, out) in (*t1.rules, *t2.rules)),
                     default=0)
        delay_bound = t1.n_states * t2.n_states * max(maxlen, 1) + DELAY_SLACK
    elif delay_bound < 0:
        raise FormatError(f"delay bound must be nonnegative, got {delay_bound}")
    tab1, tab2 = t1.table, t2.table
    dom = t1.domain
    mismatch = object()               # goal node: the outputs split here
    overflow = False

    def step(cfg):
        nonlocal overflow
        q1, q2, prev, side, buf = cfg
        for a in _inputs(dom, prev):
            q1n, o1 = tab1[(q1, a)]
            q2n, o2 = tab2[(q2, a)]
            s1 = (buf + o1) if side == 1 else o1
            s2 = (buf + o2) if side == 2 else o2
            c = min(len(s1), len(s2))
            if s1[:c] != s2[:c]:
                yield a, mismatch
                return
            if len(s1) > c:
                nside, nbuf = 1, s1[c:]
            elif len(s2) > c:
                nside, nbuf = 2, s2[c:]
            else:
                nside, nbuf = 0, ()
            if len(nbuf) > delay_bound:
                overflow = True
                continue
            yield a, (q1n, q2n, a, nside, nbuf)

    parents = bfs([(t1.initial, t2.initial, None, 0, ())], step, mismatch)
    if mismatch in parents:
        return EquivalenceResult("unequal", path(parents, mismatch), delay_bound)
    if overflow:
        return EquivalenceResult("inconclusive", None, delay_bound)
    return EquivalenceResult("equal", None, delay_bound)


# ------------------------------------------------------------- orbit data

class OrbitData(Record):
    """Cocycle exponents (k1, l1) for a continuous map h between shifts:
    shifting the image of the shifted point k1(x) times equals shifting the
    image of the point l1(x) times.  Both are nonnegative locally constant
    integer functions on the domain."""

    k1: coh.LocallyConstantFunction
    l1: coh.LocallyConstantFunction

    def __post_init__(self):
        if self.k1.presentation != self.l1.presentation:
            raise PresentationMismatch("cocycle exponents on different presentations")
        for f in (self.k1, self.l1):
            if f.ring != coh.RING_INT:
                raise RationalNotSupported("cocycle exponents are integers")
            if f.min_value() < 0:
                raise FormatError("cocycle exponents must be nonnegative")


def conjugacy_data(p: SftPresentation) -> OrbitData:
    """k1 = 0, l1 = 1: the data of a shift-commuting map."""
    return OrbitData(coh.zero(p), coh.unit(p))


def _runs(h: Transducer, pre_shift: int = 0):
    """The runs (state, output) of h on the words of B_1, B_2, ... past
    their first ``pre_shift`` symbols, one level at a time in level order:
    each word's parent (its position in the level below) and the runs.
    A word's run is its parent's and one step, the parents counted off the
    first-child mask; a word no longer than ``pre_shift`` runs on nothing.
    Each level is fetched once."""
    table = h.table

    def step(run, a):
        q, out = run
        q2, emitted = table[(q, a)]
        return q2, out + emitted

    runs = [(h.initial, ())]
    for k in itertools.count(1):
        level = word_level(h.domain, k)
        parents = list(itertools.accumulate(level.first_child[1:], initial=0))
        move = step if k > pre_shift else lambda run, _a: run
        runs = list(map(move, map(runs.__getitem__, parents), level.last))
        yield parents, runs


def _buffer(p: SftPresentation, depth: int, on_full) -> tuple[int, list[Rule]]:
    """Input-buffer states: one per admissible word shorter than ``depth``,
    numbered by level, B_0 first, then by position, so the empty word is
    state 0, the initial state.  Each reads one more symbol with empty output
    until the word reaches ``depth``; then ``on_full(c)``, c its position in
    B_depth, gives the (state, output) step, its state numbered from the end
    of the buffer.  Returns the number of buffer states and the rules."""
    rules: list[Rule] = []
    start, size = 0, 1                  # the first state of B_(j-1) and its size
    for j in range(1, depth + 1):
        level = word_level(p, j)
        parents = itertools.accumulate(level.first_child[1:], initial=0)
        for c, (i, a) in enumerate(zip(parents, level.last)):
            q2, out = on_full(c) if j == depth else (c, ())
            rules.append((start + i, a, start + size + q2, out))
        start, size = start + size, len(level.last)
    return start, rules


def shifted_image(h: Transducer, amount: coh.LocallyConstantFunction,
                  pre_shift: int) -> Transducer:
    """Machine for x -> shift^{amount(x)}( h( shift^{pre_shift}(x) ) ).

    The input is buffered to the depth D of the shift amount (cylinder
    refinement); the word at position c of B_D takes h's run and the amount
    at c, and then the machine replays h with a decreasing count of output
    symbols to drop."""
    if amount.presentation != h.domain:
        raise PresentationMismatch("shift amount must live on the machine's domain")
    if amount.ring != coh.RING_INT:
        raise RationalNotSupported("shift amounts are nonnegative integers")
    if amount.min_value() < 0:
        raise FormatError("shift amounts must be nonnegative")
    if pre_shift < 0:
        raise FormatError(f"pre-shift must be nonnegative, got {pre_shift}")
    depth = max(amount.depth, pre_shift, 1)
    _parents, runs = next(itertools.islice(_runs(h, pre_shift), depth - 1, None))  # B_depth
    amounts = coh.lift_table(amount, depth)
    run_ids: dict[tuple[int, int], int] = {}     # (state of h, drops) -> id

    def run_state(qh: int, drops: int) -> int:
        return run_ids.setdefault((qh, drops), len(run_ids))

    def on_full(c: int) -> tuple[int, Word]:
        qh, emitted = runs[c]
        s = amounts[c]
        return run_state(qh, max(s - len(emitted), 0)), emitted[s:]

    base, rules = _buffer(h.domain, depth, on_full)

    by_state: list[list[tuple[int, int, Word]]] = [[] for _ in range(h.n_states)]
    for q, a, q2, out in h.rules:
        by_state[q].append((a, q2, out))

    def replay(key):
        qh, drops = key
        sid = base + run_ids[key]
        for a, q2, out in by_state[qh]:
            cut = min(drops, len(out))
            rules.append((sid, a, base + run_state(q2, drops - cut), out[cut:]))
            yield a, (q2, drops - cut)

    bfs(list(run_ids), replay)

    return make_transducer(h.domain, h.codomain, rules,
                           initial=0, n_states=base + len(run_ids))


class OrbitRelationResult(Record):
    holds: bool
    witness: Word | None              # input word separating the two sides
    machine_status: str
    points_checked: int


POINT_CHECK_PREPERIOD, POINT_CHECK_PERIOD = 4, 6


def verify_orbit_relation(h: Transducer, data: OrbitData) -> OrbitRelationResult:
    """Decide the cocycle relation for h and (k1, l1).

    Machine check: the transducers for both sides of the relation are
    compared for map equality with the default delay bound.  On "equal" the
    relation is additionally cross-checked on all eventually periodic points
    with preperiod up to POINT_CHECK_PREPERIOD and period up to
    POINT_CHECK_PERIOD; disagreement there would contradict the machine
    verdict and trips ContradictionDetected."""
    if data.k1.presentation != h.domain:
        raise PresentationMismatch("cocycle data must live on the machine's domain")
    lhs = shifted_image(h, data.k1, 1)
    rhs = shifted_image(h, data.l1, 0)
    verdict = equivalent_maps(lhs, rhs)
    if verdict.status == "unequal":
        return OrbitRelationResult(False, verdict.witness, verdict.status, 0)
    if verdict.status == "inconclusive":
        raise InsufficientLookahead(
            f"delay bound {verdict.delay_bound} too small for the machine check")
    points = enumerate_points(h.domain, POINT_CHECK_PREPERIOD, POINT_CHECK_PERIOD)
    # one kernel call per side, not one per point
    k1, l1 = (coh.window_sums(f, ((x.prefix(f.depth), 1) for x in points))
              for f in (data.k1, data.l1))
    for x, kv, lv in zip(points, k1, l1):
        left = shift_point_by(apply(h, shift_point_by(x, 1)), kv)
        right = shift_point_by(apply(h, x), lv)
        if left != right:
            raise ContradictionDetected(
                f"machine check passed but point {x.label()} separates the sides")
    return OrbitRelationResult(True, None, "equal", len(points))


# ------------------------------------------------------------ transfer map

def transfer_psi(h: Transducer, data: OrbitData,
                 f: coh.LocallyConstantFunction) -> coh.LocallyConstantFunction:
    """Transfer of a locally constant function on the codomain through the
    orbit map: at x, the sum of f over the first l1(x) shifts of h(x) minus
    the sum over the first k1(x) shifts of h(shift x).

    The result is computed on the cylinders of the least depth D, no less
    than the depths of k1 and l1, at which every word w of B_D forces the
    windows it reads: the output of h on w holds at least l1(w) + f.depth - 1
    symbols where l1(w) > 0, and its output on w[1:] at least
    k1(w) + f.depth - 1 where k1(w) > 0.  Normal forms are unique, so every
    depth that suffices gives the same function.  The climb in D ends unless
    the word cap refuses a level first: h is productive, so among any C
    consecutive input symbols, C the number of its reachable (state,
    previous input) configurations, one emits output."""
    if f.presentation != h.codomain:
        raise PresentationMismatch("function must live on the machine's codomain")
    if data.k1.presentation != h.domain:
        raise PresentationMismatch("cocycle data must live on the machine's domain")
    # the run on the suffix of a word of B_1 is empty: k1 > 0 needs depth 2
    shifts_back = data.k1.max_value() > 0
    lowest = max(data.k1.depth, data.l1.depth, 1 + shifts_back)
    dom, need = h.domain, f.depth - 1
    # k1 and l1 on B_depth: their own tables up to their depths, and then
    # each word's parent's value, the parents as ``_runs`` counts them
    l1, k1, suffixes = data.l1.table, data.k1.table if shifts_back else (), ()
    for depth, (parents, runs) in enumerate(_runs(h), 1):
        if depth > data.l1.depth:
            l1 = list(map(l1.__getitem__, parents))
        if shifts_back and depth > data.k1.depth:
            k1 = list(map(k1.__getitem__, parents))
        if depth >= lowest:
            if shifts_back:            # the run on w[1:] is the level below's
                suffixes = block_edges(dom, depth)[1]
            if all(len(out) >= n + need for (_q, out), n in zip(runs, l1) if n) and all(
                    len(below[s][1]) >= n + need for s, n in zip(suffixes, k1) if n):
                break
        below = runs
    values = coh.window_sums(f, ((out, n) for (_q, out), n in zip(runs, l1)))
    if shifts_back:              # k1 = 0 (conjugacies, split, merge) takes nothing
        losses = coh.window_sums(
            f, ((below[s][1], n) for s, n in zip(suffixes, k1)))
        values = [g - loss for g, loss in zip(values, losses)]
    return coh.function(dom, depth, values, f.ring)


class ConjugacyVerdict(Record):
    verdict: bool
    forward_unit_image: coh.LocallyConstantFunction
    backward_unit_image: coh.LocallyConstantFunction | None


def is_eventual_conjugacy(h: Transducer, data: OrbitData,
                          h_back: Transducer | None = None,
                          data_back: OrbitData | None = None) -> ConjugacyVerdict:
    """Eventual conjugacy detector: the transfer of the constant 1 must be
    the constant 1 exactly, in both directions when an inverse is given."""
    c1 = transfer_psi(h, data, coh.unit(h.codomain))
    ok = c1 == coh.unit(h.domain)
    c1_back = None
    if h_back is not None:
        if data_back is None:
            raise FormatError("inverse machine needs its own cocycle data")
        c1_back = transfer_psi(h_back, data_back, coh.unit(h_back.codomain))
        ok = ok and c1_back == coh.unit(h_back.domain)
    return ConjugacyVerdict(ok, c1, c1_back)


class StrongCoeVerdict(Record):
    verdict: bool
    unit_image: coh.LocallyConstantFunction
    comparison: coh.CoboundaryResult


def is_strong_coe(h: Transducer, data: OrbitData) -> StrongCoeVerdict:
    """Strong continuous orbit equivalence detector on this side: the class
    of the transferred constant 1 must equal the class of the constant 1."""
    c1 = transfer_psi(h, data, coh.unit(h.codomain))
    comparison = coh.class_equal(c1, coh.unit(h.domain))
    return StrongCoeVerdict(comparison.is_coboundary, c1, comparison)


# ------------------------------------------------------- block conjugacies

class BlockConjugacy(Record):
    """Recoding of a shift over its (k+1)-blocks and its inverse, with the
    cocycle data of shift-commuting maps."""

    forward: Transducer
    backward: Transducer
    forward_data: OrbitData
    backward_data: OrbitData


def block_conjugacy(p: SftPresentation, k: int) -> BlockConjugacy:
    """Conjugacy onto the higher-block presentation with block length k:
    the i-th output symbol is the (k+1)-block starting at position i."""
    target = higher_block(p, k)

    # states after the buffer hold the last k symbols, by position in B_k;
    # each edge u -> v of the block graph, a (k+1)-block, reads its last
    # symbol and emits itself
    base, rules = _buffer(p, k, lambda c: (c, ()))
    rules.extend((base + u, a, base + v, (e,)) for e, ((u, v, _par), a)
                 in enumerate(zip(target.edges, word_level(p, k + 1).last)))
    forward = make_transducer(p, target, rules, initial=0,
                              n_states=base + target.n_vertices)

    offsets = word_level(p, k + 1).offsets
    back_rules = [(0, s, 0, (a,)) for a in range(p.alphabet_size)
                  for s in range(offsets[a], offsets[a + 1])]
    backward = make_transducer(target, p, back_rules)

    return BlockConjugacy(
        forward=forward, backward=backward,
        forward_data=conjugacy_data(p),
        backward_data=conjugacy_data(target))


# ------------------------------------------------------------------ file I/O

def parse_transducer_text(text: str, domain: SftPresentation,
                          codomain: SftPresentation,
                          domain_id: str | None = None,
                          codomain_id: str | None = None) -> Transducer:
    """Parse the transducer file format.

    Header ``transducer <domain-id> <codomain-id> states=<m> initial=<q0>``;
    each following line is ``q a -> q' w`` with ``-`` for the empty output
    word."""
    lines = content_lines(text, "transducer")
    head = lines[0].split()
    if len(head) != 5 or head[0] != "transducer":
        raise FormatError("transducer file must start with "
                          "'transducer <domain-id> <codomain-id> states=<m> initial=<q0>'")
    if domain_id is not None and head[1] != domain_id:
        raise FormatError(f"transducer domain is {head[1]!r}, expected {domain_id!r}")
    if codomain_id is not None and head[2] != codomain_id:
        raise FormatError(f"transducer codomain is {head[2]!r}, expected {codomain_id!r}")
    if not head[3].startswith("states=") or not head[4].startswith("initial="):
        raise FormatError(f"bad transducer header {lines[0]!r}")
    try:
        n_states = int(head[3][len("states="):])
        initial = int(head[4][len("initial="):])
    except ValueError:
        raise FormatError(f"bad numbers in header {lines[0]!r}") from None
    rules = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 5 or parts[2] != "->":
            raise FormatError(f"bad rule line {line!r}")
        try:
            q, q2 = int(parts[0]), int(parts[3])
        except ValueError:
            raise FormatError(f"bad state in rule {line!r}") from None
        sym_tok = parts[1]
        if sym_tok not in domain._label_index:
            raise FormatError(f"unknown input symbol {sym_tok!r}")
        a = domain._label_index[sym_tok]
        out = () if parts[4] == "-" else codomain.parse_word(parts[4])
        rules.append((q, a, q2, out))
    return make_transducer(domain, codomain, rules, initial=initial,
                           n_states=n_states)


def format_transducer_text(t: Transducer, domain_id: str, codomain_id: str) -> str:
    lines = [f"transducer {domain_id} {codomain_id} "
             f"states={t.n_states} initial={t.initial}"]
    for (q, a, q2, out) in t.rules:
        out_txt = t.codomain.word_label(out) if out else "-"
        lines.append(f"{q} {t.domain.symbols[a]} -> {q2} {out_txt}")
    return "\n".join(lines) + "\n"

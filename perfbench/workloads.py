"""The in-process workloads: seeded task lists of certified decisions.

Each task is one closed-loop call into sftlab.  ``run`` makes the library
calls and is the only timed part; ``check`` re-verifies the certificate
through public calls and returns a reason string on failure (plain ``if``
code, so it still runs under ``python -O``); ``canon`` turns the result into
plain data for the output digest, with the answer word first.
"""
from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Any, Callable

import gen

import sftlab.actions as act
import sftlab.classify as cl
import sftlab.cohomology as coh
import sftlab.linalg as la
import sftlab.moves as mv
import sftlab.transducers as tr
from sftlab.shifts import periodic_point, validate, words

NONANSWERS = ("undecided", "not-found", "inconclusive", "insufficient-lookahead")


@dataclass
class Task:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    canon: Callable[[Any], tuple]


def fn_canon(f) -> tuple:
    return (f.depth, f.ring, tuple(f.table))


def is_budget_bound(canon: tuple) -> bool:
    """The task stopped on a search budget rather than on a decision."""
    return canon[0] in ("not-found", "inconclusive") or \
        (canon[0] == "undecided" and "budget" in str(canon[1]))


def _same(f, g) -> bool:
    return coh.subtract(f, g).is_zero()


# ------------------------------------------------------------ cohom-transfer

def _check_zero(f, res) -> str | None:
    if res.is_coboundary:
        if not _same(coh.coboundary(res.potential), f):
            return "coboundary(potential) differs from f"
    elif coh.orbit_sum(f, res.cycle) == 0:
        return "returned cycle has orbit sum 0"
    return None


def _zero_canon(res) -> tuple:
    if res.is_coboundary:
        return ("yes", fn_canon(res.potential))
    return ("no", tuple(res.cycle))


def _task_zero(p_rows, depth, tb, tf):
    def run():
        p = validate(p_rows)
        f = coh.function(p, depth, tf) if tf else coh.coboundary(
            coh.function(p, depth, tb))
        return f, coh.class_is_zero(f)
    return Task("class_is_zero", run, lambda r: _check_zero(*r),
                lambda r: _zero_canon(r[1]))


def _task_equal(p_rows, depth, tf, tb, tg):
    def run():
        p = validate(p_rows)
        f = coh.function(p, depth, tf)
        g = coh.function(p, depth, tg) if tg else coh.add(
            f, coh.coboundary(coh.function(p, depth, tb)))
        return f, g, coh.class_equal(f, g)

    def check(r):
        f, g, res = r
        if tg is None and not res.is_coboundary:
            return "f and f + coboundary(b) reported in different classes"
        return _check_zero(coh.subtract(f, g), res)
    return Task("class_equal", run, check, lambda r: _zero_canon(r[2]))


def _task_nonneg(p_rows, depth, tf):
    def run():
        f = coh.function(validate(p_rows), depth, tf)
        return f, coh.class_is_nonnegative(f)

    def check(r):
        f, res = r
        if not res.nonnegative:
            return None if coh.orbit_sum(f, res.cycle) < 0 else \
                "returned cycle has nonnegative orbit sum"
        if min(res.representative.table) < 0:
            return "representative takes a negative value"
        if not _same(res.representative, coh.add(f, coh.coboundary(res.potential))):
            return "representative is not f + coboundary(potential)"
        return None

    def canon(r):
        res = r[1]
        if res.nonnegative:
            return ("yes", fn_canon(res.representative), fn_canon(res.potential))
        return ("no", tuple(res.cycle))
    return Task("class_is_nonnegative", run, check, canon)


def _task_order_unit(p_rows, depth, tb, c):
    """f = c + coboundary(b): an order unit exactly when c > 0."""
    def run():
        p = validate(p_rows)
        f = coh.add(coh.constant(p, c), coh.coboundary(coh.function(p, depth, tb)))
        return coh.order_unit_check(f)

    def check(r):
        return None if r == (c > 0) else f"order_unit_check says {r} for c = {c}"
    return Task("order_unit_check", run, check, lambda r: ("yes" if r else "no",))


def _task_action(p_rows, depth, tf, tb):
    def run():
        p = validate(p_rows)
        f = coh.function(p, depth, tf)
        g = coh.add(f, coh.coboundary(coh.function(p, depth, tb)))
        return f, g, act.equivalent(act.action(f), act.action(g))

    def check(r):
        f, g, res = r
        if not res.is_coboundary:
            return "cocycle-perturbed action reported inequivalent"
        if not _same(coh.coboundary(res.potential), coh.subtract(g, f)):
            return "coboundary(potential) differs from g - f"
        return None
    return Task("actions.equivalent", run, check, lambda r: _zero_canon(r[2]))


def _task_phi_psi(c, d, depth, tf, forward):
    """psi(phi(f)) == pullback_sigma(f) on A = CD, or phi(psi(g)) on B = DC."""
    def run():
        ee = mv.elementary(c, d)
        if forward:
            f = coh.function(ee.a, depth, tf)
            back = mv.psi(ee, mv.phi(ee, f))
        else:
            f = coh.function(ee.b, depth, tf)
            back = mv.phi(ee, mv.psi(ee, f))
        return back, coh.pullback_sigma(f)

    def check(r):
        return None if _same(*r) else "transfer round trip differs from pullback_sigma"
    return Task("phi-psi" if forward else "psi-phi", run, check,
                lambda r: ("yes" if r[0] == r[1] else "no", fn_canon(r[0])))


def _task_xi_eta(rows, vertex, depth, tf, base_side):
    """psi_xi(psi_eta(f)) == f on the base shift; on the expanded shift
    psi_eta(psi_xi(f)) - f == pullback_sigma(f0) - f0, f0 = f cut to [0]."""
    def run():
        e = mv.expand(validate(rows), vertex)
        if base_side:
            f = coh.function(e.base, depth, tf)
            return mv.psi_xi(e, mv.psi_eta(e, f)), f
        f = coh.function(e.expanded, depth, tf)
        f0 = coh.multiply(f, coh.indicator(e.expanded, (0,)))
        return (coh.subtract(mv.psi_eta(e, mv.psi_xi(e, f)), f),
                coh.subtract(coh.pullback_sigma(f0), f0))

    def check(r):
        return None if _same(*r) else "expansion round trip identity fails"
    return Task("xi-eta" if base_side else "eta-xi", run, check,
                lambda r: ("yes" if r[0] == r[1] else "no", fn_canon(r[0])))


def _task_algebra(rows, k, tb, samples):
    """function + coboundary (through pullback_sigma) on a large table."""
    def run():
        b = coh.function(validate(rows), k, tb)
        return b, coh.coboundary(b)

    def check(r):
        b, cb = r
        table = words(b.presentation, k + 1)
        for i in samples:
            w = table[i % len(table)]
            if cb.value_on_word(w) != b.value_on_word(w[:k]) - b.value_on_word(w[1:]):
                return "coboundary value wrong on a sampled word"
        return None
    return Task("coboundary-large", run, check,
                lambda r: ("done", fn_canon(r[1])))


def _task_move_flow(rows, kind, moved_rows, moved_kind):
    """Both moves preserve the flow class: flow_equivalent must say yes."""
    def run():
        return cl.flow_equivalent(validate(rows, kind), validate(moved_rows, moved_kind))

    def check(r):
        return None if r.verdict else "moved pair reported not flow equivalent"
    return Task("flow_equivalent", run, check,
                lambda r: ("yes" if r.verdict else "no", r.reason))


def cohom_transfer(seed: int) -> list[Task]:
    """Task kinds come in fixed numbers and the heavy tasks in narrow size
    bands, so that seeds differ in their inputs but not in their cost."""
    rng = random.Random(f"cohom-transfer/{seed}")
    tasks: list[Task] = []
    for i in range(144):
        if i % 3 == 0:
            n = 2 + (i // 3) % 5
            rows = gen.irreducible_01(rng, n, n)
        depth = 1 + i % 3
        nd = gen.word_count(rows, "vertex", depth)
        kind = i % 6
        if kind == 0:
            tasks.append(_task_zero(rows, depth, gen.values(rng, nd), None))
        elif kind == 1:
            tasks.append(_task_zero(rows, depth, None, gen.values(rng, nd)))
        elif kind == 2:
            tg = gen.values(rng, nd) if i % 12 == 2 else None
            tasks.append(_task_equal(rows, depth, gen.values(rng, nd),
                                     gen.values(rng, nd), tg))
        elif kind == 3:
            tasks.append(_task_nonneg(rows, depth, gen.values(rng, nd, -1, 4)))
        elif kind == 4:
            tasks.append(_task_order_unit(rows, depth, gen.values(rng, nd), i % 3))
        else:
            tasks.append(_task_action(rows, depth, gen.values(rng, nd),
                                      gen.values(rng, nd)))
    # a phi/psi round trip on A at depth k reads |B_(k+2)| words of A
    for i in range(40):
        depth = None
        while depth is None:
            c, d = gen.elementary_factors(rng, 4, 4, 2, 40_000, 5)
            a, b = gen.mat_mul(c, d), gen.mat_mul(d, c)
            depth = next((k for k in (1 + i % 2, 2 - i % 2) if all(
                300 <= gen.word_count(m, "edge", k + 2) <= 900 for m in (a, b))),
                None)
        for m, forward in ((a, True), (b, False)):
            tasks.append(_task_phi_psi(c, d, depth, gen.values(
                rng, gen.word_count(m, "edge", depth)), forward))
        if i % 2 == 0:
            tasks.append(_task_move_flow(a, "edge", b, "edge"))
    for i in range(20):
        rows = gen.irreducible_01(rng, 2 + i % 4, 2 + i % 4)
        vertex = rng.randrange(len(rows))
        big = gen.expanded_matrix(rows, vertex)
        for m, base_side in ((rows, True), (big, False)):
            depth = 1 + (i + base_side) % 3
            tasks.append(_task_xi_eta(rows, vertex, depth, gen.values(
                rng, gen.word_count(m, "vertex", depth)), base_side))
        if i % 2 == 0:
            tasks.append(_task_move_flow(rows, "vertex", big, "vertex"))
    rng.shuffle(tasks)
    # function algebra on large tables: one of 4-5e5 words (half the word
    # cap), then nineteen of 2-2.5e4.  Over a run's five passes the largest
    # gives five samples and the nineteen others ninety-five, so
    # task_tail_ms (ten samples beyond it) falls among the slow samples of a
    # group of like tasks rather than on a single draw.  Their shifts and
    # their evenly spaced places in the pass are the same for every seed, so
    # the word cache holds the same large tables at once (peak_rss_mb); only
    # their values follow the seed.
    shapes = random.Random("cohom-transfer/large")
    bands = [(400_000, 500_000, 12, 17)] + [(20_000, 25_000, 14, 20)] * 19
    for j, (low, high, k_min, k_max) in enumerate(bands):
        while True:
            rows = gen.irreducible_01(shapes, 4, 6)
            k = gen.length_reaching(rows, "vertex", low)
            if k is not None and k_min <= k <= k_max and \
                    gen.word_count(rows, "vertex", k) <= high:
                k -= 1
                break
        nk = gen.word_count(rows, "vertex", k)
        samples = [rng.randrange(1 << 30) for _ in range(200)]
        slot = (j % 2) * 10 + j // 2         # twenty evenly spaced slots
        tasks.insert(slot * len(tasks) // 20 + len(tasks) // 40,
                     _task_algebra(rows, k, gen.values(rng, nk), samples))
    return tasks


# -------------------------------------------------------------- orbit-verify

FIB = ((1, 1), (1, 0))
FULL2 = ((1, 1), (1, 1))
FULL3 = ((1, 1, 1), (1, 1, 1), (1, 1, 1))


def _machines(rows, move):
    """(forward, forward data, backward, backward data, base) of a block
    conjugacy (move = block length k) or of an expansion (move = ("x", v))."""
    p = validate(rows)
    if isinstance(move, int):
        bc = tr.block_conjugacy(p, move)
        return bc.forward, bc.forward_data, bc.backward, bc.backward_data, p
    e = mv.expand(p, move[1])
    return e.split, e.split_data, e.merge, e.merge_data, p


def _task_verify(rows, move, backward):
    """verify_orbit_relation at the default point bounds; every machine
    built here presents a genuine orbit map, so the relation must hold."""
    def run():
        fw, fd, bw, bd, _p = _machines(rows, move)
        return tr.verify_orbit_relation(bw, bd) if backward else \
            tr.verify_orbit_relation(fw, fd)

    def check(r):
        if not r.holds or r.machine_status != "equal" or r.points_checked < 1:
            return f"orbit relation of a known orbit map: {r.machine_status}"
        return None
    return Task("verify_orbit_relation", run, check,
                lambda r: ("holds" if r.holds else "fails", r.points_checked))


def _task_round_trip(rows, move, outer_first):
    """compose + equivalent_maps against the identity.  Backward after
    forward is the identity; forward after backward is too for a block
    conjugacy, but split after merge drops a leading new symbol."""
    truth = "unequal" if outer_first and not isinstance(move, int) else "equal"

    def run():
        fw, _fd, bw, _bd, p = _machines(rows, move)
        if outer_first:
            return tr.equivalent_maps(tr.compose(fw, bw),
                                      tr.identity_transducer(fw.codomain))
        return tr.equivalent_maps(tr.compose(bw, fw), tr.identity_transducer(p))

    def check(r):
        return None if r.status == truth else f"round trip is {r.status}"
    return Task("compose+equivalent_maps", run, check,
                lambda r: (r.status, r.delay_bound, r.witness))


def _task_detectors(rows, move, strong):
    """is_eventual_conjugacy / is_strong_coe: true for block conjugacies,
    false for the split map of an expansion (its l1 is 2 on one cylinder)."""
    truth = isinstance(move, int)

    def run():
        fw, fd, bw, bd, _p = _machines(rows, move)
        if strong:
            return tr.is_strong_coe(fw, fd)
        return tr.is_eventual_conjugacy(fw, fd, bw if truth else None,
                                        bd if truth else None)

    def check(r):
        return None if r.verdict == truth else \
            f"detector says {r.verdict} on a {'block conjugacy' if truth else 'expansion'}"
    return Task("is_strong_coe" if strong else "is_eventual_conjugacy", run,
                check, lambda r: ("yes" if r.verdict else "no",))


def _task_transfer(rows, move, depth, tf, points):
    """transfer_psi of a random function on the codomain.  Expansions are
    checked against psi_xi; block conjugacies against f(h(x)) on points."""
    def run():
        fw, fd, _bw, _bd, _p = _machines(rows, move)
        f = coh.function(fw.codomain, depth, tf)
        return fw, f, tr.transfer_psi(fw, fd, f)

    def check(r):
        fw, f, out = r
        if not isinstance(move, int):
            e = mv.expand(fw.domain, move[1])
            return None if _same(out, mv.psi_xi(e, f)) else \
                "transfer_psi differs from psi_xi"
        for pre, per in points:
            x = periodic_point(fw.domain, pre, per)
            if out.value_at_point(x) != f.value_at_point(tr.apply(fw, x)):
                return "transfer value differs from f(h(x))"
        return None
    return Task("transfer_psi", run, check, lambda r: ("done", fn_canon(r[2])))


def _task_consistency(rows, k):
    """consistency_check with the block conjugacy as a two-sided witness:
    the witness must verify, COE must be yes, and both detectors true."""
    def run():
        p = validate(rows)
        bc = tr.block_conjugacy(p, k)
        witness = cl.CoeWitness(bc.forward, bc.forward_data,
                                bc.backward, bc.backward_data)
        return cl.consistency_check(p, bc.forward.codomain, witness)

    def check(r):
        if not (r.witness_verified and r.eventual_conjugacy and r.strong_coe):
            return "block-conjugacy witness not accepted as a conjugacy"
        if r.coe.verdict != "yes":
            return f"COE verdict {r.coe.verdict} against a verified conjugacy"
        return _iso_witness_error(r.coe.iso, r.coe.a.k0_pointed, r.coe.b.k0_pointed)
    return Task("consistency_check", run, check,
                lambda r: (r.coe.verdict, r.coe.iso.witness,
                           fn_canon(r.unit_image_forward)))


def _walk(rng, rows):
    """A random admissible vertex walk of at most 6 symbols that closes into
    a cycle: returns (preperiod, period) of an eventually periodic point."""
    n = len(rows)
    while True:
        w = [rng.randrange(n)]
        for _ in range(rng.randint(0, 5)):
            w.append(rng.choice([j for j in range(n) if rows[w[-1]][j]]))
        cut = rng.randrange(len(w))
        if rows[w[-1]][w[cut]]:
            return tuple(w[:cut]), tuple(w[cut:])


def orbit_verify(seed: int) -> list[Task]:
    rng = random.Random(f"orbit-verify/{seed}")
    # the 2-block recoding of the full 3-shift: 84,321 points at the
    # default bounds, the heaviest single orbit check
    tasks = [_task_verify(FULL3, 1, False)]
    for rows in (FIB, FULL2):
        for k in (1, 2, 3):
            tasks += [_task_verify(rows, k, False), _task_verify(rows, k, True)]
    # random shifts stay small (at most 60 paths of length 6, a few hundred
    # points), so the heaviest tasks, which set task_tail_ms, are the fixed
    # full-shift ones above and do not move from seed to seed
    small = []
    while len(small) < 8:
        n = 3 + len(small) % 2
        rows = gen.irreducible_01(rng, n, n)
        if gen.path_count(rows, 6) <= 60:
            small.append(rows)
    tasks += [_task_consistency(rows, 1) for rows in (FIB, FULL2) + tuple(small[:2])]
    for i, rows in enumerate((FIB, FULL2, FULL3) + tuple(small)):
        if rows in (FIB, FULL2, FULL3):
            moves = [1, ("x", 0)]
        else:
            moves = [1 + i % 3, ("x", rng.randrange(len(rows)))]
        for move in moves:
            # the full shifts' block conjugacies are verified above; the full
            # 3-shift's expansion would be a second 84,321-point check
            if rows is not FULL3 and not (isinstance(move, int)
                                          and rows in (FIB, FULL2)):
                tasks += [_task_verify(rows, move, False),
                          _task_verify(rows, move, True)]
            tasks += [_task_round_trip(rows, move, False),
                      _task_round_trip(rows, move, True),
                      _task_detectors(rows, move, False),
                      _task_detectors(rows, move, True)]
            if isinstance(move, int):
                nb = gen.word_count(rows, "vertex", move + 1)
                points = [_walk(rng, rows) for _ in range(8)]
                tasks.append(_task_transfer(rows, move, 1, gen.values(rng, nb),
                                            points))
            else:
                big = gen.expanded_matrix(rows, move[1])
                depth = rng.randint(1, 2)
                tasks.append(_task_transfer(rows, move, depth, gen.values(
                    rng, gen.word_count(big, "vertex", depth)), None))
    rng.shuffle(tasks)
    return tasks


# ------------------------------------------------------------------ verdicts

# ROADMAP's mixed-case pair: (Z/2 + Z; [1,1]) against (Z/2 + Z; [1,-1])
MIXED = (((4, 4, 1), (2, 3, 0), (2, 2, 1)), ((5, 4, 3), (4, 5, 3), (4, 2, 0)))
# fixed 2x2 pairs with different traces (tr A is the number of fixed
# points, an SSE invariant): the search can only stop on its budget
NOT_SSE = (
    (((1, 1), (1, 0)), ((2, 1), (1, 0))), (((1, 2), (1, 0)), ((1, 1), (1, 1))),
    (((1, 3), (1, 0)), ((2, 1), (1, 1))), (((2, 1), (1, 1)), ((1, 1), (2, 1))),
)
# finite groups whose brute-force pointed search stays small (<= 4,096)
SEARCH_CAP = 4096
SMALL_SHAPES = ((2, 2), (2, 4), (2, 8), (4, 8), (3, 9), (5, 25), (2, 2, 2),
                (2, 2, 4), (2, 2, 8))


@functools.lru_cache(maxsize=None)
def _truth_groups(rows):
    """(det sign, BF factors, K0 factors) of I - A, independently of linalg;
    free rank shows as trailing 0 factors."""
    ia, iat = gen.identity_minus(rows), gen.identity_minus(rows, True)
    return (gen.det_sign(ia),
            tuple(d for d in gen.invariant_factors(ia) if d != 1),
            tuple(d for d in gen.invariant_factors(iat) if d != 1))


def _group_factors(g) -> tuple:
    return g.invariant_factors + (0,) * g.free_rank


def _iso_witness_error(iso, a, b) -> str | None:
    """A pointed-iso witness must carry the marked element to the marked
    element, coordinate by coordinate modulo the group's moduli."""
    moduli = a.group.moduli()
    w = iso.witness
    if w is None or len(w) != len(moduli) or any(len(row) != len(moduli) for row in w):
        return "pointed-iso witness missing or of the wrong shape"
    for i, d in enumerate(moduli):
        image = sum(w[i][j] * a.marked[j] for j in range(len(moduli)))
        if (image - b.marked[i]) % d if d else image != b.marked[i]:
            return "pointed-iso witness does not map marked to marked"
    return None


def _task_invariants(rows, kind):
    def run():
        return cl.invariants(validate(rows, kind))

    def check(r):
        got = (r.det_sign, _group_factors(r.bf_group),
               _group_factors(r.k0_pointed.group))
        return None if got == _truth_groups(rows) else \
            "invariants differ from the independent Smith oracle"

    def canon(r):
        return ("done", r.det_sign, _group_factors(r.bf_group),
                _group_factors(r.k0_pointed.group), r.k0_pointed.marked,
                r.spectral_radius_bounds)
    return Task("invariants", run, check, canon)


def _task_flow(pair, kinds, related):
    def run():
        return cl.flow_equivalent(validate(pair[0], kinds[0]),
                                  validate(pair[1], kinds[1]))

    def check(r):
        truth = _truth_groups(pair[0])[:2] == _truth_groups(pair[1])[:2]
        if related and not r.verdict:
            return "moved pair reported not flow equivalent"
        return None if r.verdict == truth else \
            "flow verdict differs from the independent Smith oracle"
    return Task("flow_equivalent", run, check,
                lambda r: ("yes" if r.verdict else "no", r.reason))


def _task_coe(pair, kinds):
    def run():
        return cl.coe_verdict(validate(pair[0], kinds[0]),
                              validate(pair[1], kinds[1]))

    def check(r):
        ta, tb = _truth_groups(pair[0]), _truth_groups(pair[1])
        if r.verdict == "yes":
            return _iso_witness_error(r.iso, r.a.k0_pointed, r.b.k0_pointed)
        if r.verdict == "no" and ta[0] == tb[0] and ta[2] != tb[2] and \
                r.iso.reason != "groups not isomorphic":
            return "different K0 groups reported with another reason"
        if r.verdict == "no" and ta[0] != tb[0] and r.iso is not None:
            return "different determinant signs not reported as such"
        return None

    def canon(r):
        return (r.verdict, r.reason, r.iso.witness if r.iso else None)
    return Task("coe_verdict", run, check, canon)


def _task_pointed(factors, src, dst):
    def run():
        g = la.FgAbelianGroup(0, factors)
        a, b = la.PointedGroup(g, src), la.PointedGroup(g, dst)
        return a, b, la.pointed_iso(a, b)

    def check(r):
        a, b, iso = r
        return _iso_witness_error(iso, a, b) if iso.verdict == "yes" else None
    return Task("pointed_iso", run, check,
                lambda r: (r[2].verdict, r[2].reason, r[2].witness))


def _task_sse(a, b):
    def run():
        return mv.sse_search(a, b)

    def check(r):
        if r.found is None:
            return None
        cur = a
        for ee in r.found:
            if gen.mat_mul(ee.c, ee.d) != cur:
                return "SSE step: C D is not the current matrix"
            cur = gen.mat_mul(ee.d, ee.c)
        return None if cur == b else "SSE chain does not end at B"

    def canon(r):
        if r.found is None:
            return ("not-found", r.attempts, r.nodes_explored)
        return ("found", tuple((ee.c, ee.d) for ee in r.found), r.attempts)
    return Task("sse_search", run, check, canon)


def _coe_pair_ok(pair) -> bool:
    """Skip pairs whose pointed search would be a brute force beyond the
    cap; the fixed Z/2+Z/4+Z/8 and Z/3+Z/3+Z/9 tasks stand for those."""
    ga, gb = _truth_groups(pair[0]), _truth_groups(pair[1])
    if ga[0] != gb[0] or ga[2] != gb[2] or 0 in ga[2] or len(ga[2]) < 2:
        return True
    return gen.pointed_search_size(ga[2]) <= SEARCH_CAP


def verdicts(seed: int) -> list[Task]:
    rng = random.Random(f"verdicts/{seed}")
    # fixed heavy tasks with the same inputs for every seed: two pointed
    # searches of about 1.5 s, then five budget-bound SSE searches of about
    # 0.6 s.  Over a run's three passes task_tail_ms (ten samples beyond it)
    # is the fifth of the fifteen SSE samples, not a sample on the edge
    # between two kinds of task.
    tasks = [_task_coe(MIXED, ("edge", "edge")),
             _task_sse(FIB, FULL2),
             _task_pointed((2, 4, 8), (1, 2, 7), (1, 0, 7)),
             _task_pointed((3, 3, 9), (2, 1, 7), (1, 2, 8))]
    tasks += [_task_sse(a, b) for a, b in NOT_SSE]
    pairs = []
    while len(pairs) < 36:
        kind = len(pairs) % 3
        n = 2 + (len(pairs) // 3) % 5
        if kind == 0:            # related by an expansion
            rows = gen.irreducible_01(rng, n, n)
            pair = (rows, gen.expanded_matrix(rows, rng.randrange(len(rows))))
            kinds = ("vertex", "vertex")
        elif kind == 1:          # related by an elementary equivalence
            c, d = gen.elementary_factors(rng, 3, 3, 2, 10**9, 1)
            pair, kinds = (gen.mat_mul(c, d), gen.mat_mul(d, c)), ("edge", "edge")
        else:                    # unrelated random edge matrices
            pair = (gen.edge_matrix(rng, n, 5), gen.edge_matrix(rng, n, 5))
            kinds = ("edge", "edge")
        if _coe_pair_ok(pair):
            pairs.append((pair, kinds, kind != 2))
    for pair, kinds, related in pairs:
        tasks += [_task_invariants(pair[0], kinds[0]),
                  _task_invariants(pair[1], kinds[1]),
                  _task_flow(pair, kinds, related), _task_coe(pair, kinds)]
    for i in range(24):
        factors = SMALL_SHAPES[i % len(SMALL_SHAPES)]
        src = tuple(rng.randrange(d) for d in factors)
        dst = tuple(rng.randrange(d) for d in factors)
        tasks.append(_task_pointed(factors, src, dst))
    for _ in range(8):           # A = CD is 1x1: chains are found quickly
        c, d = gen.elementary_factors(rng, 1, 3, 2, 10**9, 1)
        tasks.append(_task_sse(gen.mat_mul(c, d), gen.mat_mul(d, c)))
    rng.shuffle(tasks)
    return tasks

"""Acceptance gate: ten exact criteria, one test per criterion.

Each criterion is a single test so the verbose run shows one pass/fail line
per item.  Everything is exact integer or rational arithmetic; there are no
numeric tolerances anywhere."""
from __future__ import annotations

import itertools
import math
import random

from conftest import negate

import sftlab.actions as act
import sftlab.classify as cl
import sftlab.cohomology as coh
import sftlab.moves as mv
import sftlab.transducers as tr
from sftlab.cli import run
from sftlab.linalg import cokernel, determinant, smith
from sftlab.randgen import (
    random_elementary,
    random_function,
    random_irreducible,
)
from sftlab.shifts import enumerate_points, shift_point_by


def _identity_minus(m):
    n = len(m)
    return tuple(tuple((1 if i == j else 0) - m[i][j] for j in range(n))
                 for i in range(n))


def _path_count(matrix, length):
    """Number of length-`length` edge paths: total of all entries of the
    matrix power.  Used to skip instances whose word tables would be huge."""
    n = len(matrix)
    acc = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(length):
        acc = [[sum(acc[i][t] * matrix[t][j] for t in range(n))
                for j in range(n)] for i in range(n)]
    return sum(sum(row) for row in acc)


def test_criterion_01_coboundary_decision_soundness():
    rng = random.Random(101)
    for _ in range(200):
        p = random_irreducible(rng, 6)
        b = random_function(rng, p, max_depth=3, low=-5, high=5)
        cob = coh.coboundary(b)
        res = coh.class_is_zero(cob)
        assert res.is_coboundary
        assert coh.coboundary(res.potential) == cob
        shifted = coh.add(cob, coh.unit(p))
        bad = coh.class_is_zero(shifted)
        assert not bad.is_coboundary
        assert bad.cycle is not None
        assert coh.orbit_sum(shifted, bad.cycle) == len(bad.cycle) != 0


def test_criterion_02_action_equivalence_round_trip():
    rng = random.Random(202)
    for _ in range(100):
        p = random_irreducible(rng, 6)
        f = random_function(rng, p, max_depth=3, low=-5, high=5)
        b = random_function(rng, p, max_depth=3, low=-5, high=5)
        second = act.action(coh.add(f, coh.coboundary(b)))
        res = act.equivalent(act.action(f), second)
        assert res.is_coboundary
        assert coh.coboundary(res.potential) == coh.coboundary(b)
        assert not act.equivalent(coh.unit(p), coh.zero(p)).is_coboundary


def test_criterion_03_elementary_transfer_identities():
    rng = random.Random(303)
    done = draws = 0
    while done < 100:
        draws += 1
        assert draws < 2000, "rejection sampling budget exhausted"
        ee = random_elementary(rng, outer_max=4, inner_max=4, entry_max=2)
        if max(_path_count(ee.a.adjacency, 5),
               _path_count(ee.b.adjacency, 5)) > 40_000:
            continue
        f = random_function(rng, ee.a, max_depth=2)
        g = random_function(rng, ee.b, max_depth=2)
        assert mv.psi(ee, mv.phi(ee, f)) == coh.pullback_sigma(f)
        assert mv.phi(ee, mv.psi(ee, g)) == coh.pullback_sigma(g)
        done += 1


def test_criterion_04_expansion_transfer_identities():
    rng = random.Random(404)
    for _ in range(100):
        p = random_irreducible(rng, 5)
        e = mv.expand(p, rng.randrange(p.n_vertices))
        f = random_function(rng, p, max_depth=3, low=-5, high=5)
        ft = random_function(rng, e.expanded, max_depth=3, low=-5, high=5)
        assert mv.psi_xi(e, mv.psi_eta(e, f)) == f
        back = mv.psi_eta(e, mv.psi_xi(e, ft))
        diff = coh.subtract(back, ft)
        f0 = coh.multiply(ft, coh.indicator(e.expanded, (0,)))
        assert diff == coh.subtract(coh.pullback_sigma(f0), f0)
        assert coh.class_is_zero(diff).is_coboundary


def test_criterion_05_expansion_flow_invariants():
    rng = random.Random(505)
    for _ in range(100):
        p = random_irreducible(rng, 6)
        e = mv.expand(p, rng.randrange(p.n_vertices))
        ia = _identity_minus(p.adjacency)
        ib = _identity_minus(e.expanded.adjacency)
        assert determinant(ia) == determinant(ib)
        ga, gb = cokernel(ia).group, cokernel(ib).group
        assert ga.invariant_factors == gb.invariant_factors
        assert ga.free_rank == gb.free_rank


def _at(f, x):
    """The value of f at the point x."""
    return f.value_on_word(x.prefix(f.depth))


def test_criterion_06_machine_formula_agreement():
    rng = random.Random(606)
    for _ in range(25):
        p = random_irreducible(rng, 4)
        e = mv.expand(p, rng.randrange(p.n_vertices))
        ft = random_function(rng, e.expanded, max_depth=2)
        f = random_function(rng, p, max_depth=2)
        # the formulas at points: f(split x), plus f(shift(split x)) on the
        # expanded vertex v; 0 on the new symbol 0 and f(merge x) elsewhere
        xi = tr.transfer_psi(e.split, e.split_data, ft)
        for x in enumerate_points(p, 2, 3):
            y = tr.apply(e.split, x)
            on_v = x.prefix(1) == (e.vertex,)
            shifted = _at(ft, shift_point_by(y, 1)) if on_v else 0
            assert _at(xi, x) == _at(ft, y) + shifted
        eta = tr.transfer_psi(e.merge, e.merge_data, f)
        for x in enumerate_points(e.expanded, 2, 3):
            on_new = x.prefix(1) == (0,)
            assert _at(eta, x) == (0 if on_new else _at(f, tr.apply(e.merge, x)))
        assert tr.verify_orbit_relation(e.split, e.split_data).holds
        assert tr.verify_orbit_relation(e.merge, e.merge_data).holds
        round_trip = tr.compose(e.merge, e.split)
        res = tr.equivalent_maps(round_trip, tr.identity_transducer(p), 4)
        assert res.status == "equal"


def _det(m):
    if len(m) == 1:
        return m[0][0]
    total = 0
    for j, v in enumerate(m[0]):
        if v == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * v * _det(minor)
    return total


def _minor_gcd_diagonal(m):
    """Independent Smith-diagonal oracle: d_k = gcd of all k-minors, and the
    k-th invariant factor is d_k / d_{k-1}."""
    rows, cols = len(m), len(m[0])
    r = min(rows, cols)
    out: list[int] = []
    prev = 1
    for k in range(1, r + 1):
        g = 0
        for rsel in itertools.combinations(range(rows), k):
            for csel in itertools.combinations(range(cols), k):
                sub = [[m[i][j] for j in csel] for i in rsel]
                g = math.gcd(g, abs(_det(sub)))
        if g == 0:
            out.extend([0] * (r - len(out)))
            break
        out.append(g // prev)
        prev = g
    return tuple(out)


def test_criterion_07_classification_fixtures(fib, full2, full3, capsys,
                                              fixture_dir):
    rep = cl.flow_equivalent(fib, full2)
    assert rep.verdict is True
    assert rep.a.bf_group.describe() == "0"
    assert rep.b.bf_group.describe() == "0"
    assert cl.coe_verdict(fib, full2).verdict == "yes"

    rep = cl.flow_equivalent(full2, full3)
    assert rep.verdict is False
    assert rep.a.bf_group.describe() == "0"
    assert rep.b.bf_group.describe() == "Z/2"
    assert cl.coe_verdict(full2, full3).verdict == "no"

    # the verdicts ship with printed invariant reports
    code = run(["flow-equiv", str(fixture_dir / "full2.mat"),
                str(fixture_dir / "full3.mat")])
    out = capsys.readouterr().out
    assert code == 0
    assert "flow-equivalent: no" in out
    assert "full2.bf-group: 0" in out
    assert "full3.bf-group: Z/2" in out

    rng = random.Random(707)
    for _ in range(50):
        p = random_irreducible(rng, 6)
        e = mv.expand(p, rng.randrange(p.n_vertices))
        assert cl.flow_equivalent(p, e.expanded).verdict is True

    for _ in range(40):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = tuple(tuple(rng.randint(-4, 4) for _ in range(cols))
                  for _ in range(rows))
        assert smith(m).diagonal == _minor_gcd_diagonal(m)


def test_criterion_08_order_structure(fib, full2, full3):
    rng = random.Random(808)
    tested = [fib, full2, full3] + [random_irreducible(rng, 5)
                                    for _ in range(25)]
    for p in tested:
        gauge = coh.unit(p)
        res = coh.class_is_nonnegative(gauge)
        assert res.nonnegative
        assert min(res.representative.table) >= 0
        assert coh.class_equal(res.representative, gauge).is_coboundary
        assert coh.order_unit_check(gauge)
        assert not coh.class_is_nonnegative(negate(gauge)).nonnegative


def test_criterion_09_eventual_and_strong_detectors(fib, full2):
    for p, k in ((fib, 2), (fib, 3), (full2, 2)):
        bc = tr.block_conjugacy(p, k)
        verdict = tr.is_eventual_conjugacy(bc.forward, bc.forward_data,
                                           bc.backward, bc.backward_data)
        assert verdict.verdict is True

    e = mv.expand(fib)
    assert tr.is_eventual_conjugacy(e.split, e.split_data).verdict is False
    strong = tr.is_strong_coe(e.split, e.split_data)
    assert strong.verdict is False
    # hand computation at the fixed point on the first vertex
    assert coh.orbit_sum(strong.unit_image, (0,)) == 2
    assert coh.orbit_sum(coh.unit(fib), (0,)) == 1


def test_criterion_10_cli_determinism(fixture_dir, capsys):
    fx = fixture_dir
    commands = [
        ["validate", fx / "fib.mat"],
        ["words", fx / "fib.mat", "3"],
        ["snf", fx / "full3.mat"],
        ["invariants", fx / "full3.mat"],
        ["flow-equiv", fx / "fib.mat", fx / "full2.mat"],
        ["coe", fx / "full2.mat", fx / "full3.mat"],
        ["cohom", "class-equal", fx / "fib.mat", fx / "gauge.f", fx / "zero.f"],
        ["action", "equivalent", fx / "fib.mat", fx / "gauge.f", fx / "gauge.f"],
        ["expand", fx / "fib.mat"],
        ["elementary", fx / "c.mat", fx / "d.mat"],
        ["sse-search", fx / "two.mat", fx / "full2.mat"],
        ["selftest", "--count", "2"],
    ]

    def collect(extra=()):
        chunks = []
        for argv in commands:
            code = run([str(a) for a in list(extra) + argv])
            captured = capsys.readouterr()
            assert code == 0, captured.err
            chunks.append(captured.out)
        return "".join(chunks)

    first = collect()
    second = collect()
    assert first == second

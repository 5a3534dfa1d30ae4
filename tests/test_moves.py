"""Matrix moves: vertex expansion with its function transfers, elementary
equivalence A = CD / B = DC with its function transfers, and the bounded
strong-shift-equivalence search."""
from __future__ import annotations

import itertools
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import sftlab
import sftlab.cohomology as coh
import sftlab.linalg as la
import sftlab.moves as mv
import sftlab.transducers as tr
from sftlab.errors import (
    ContradictionDetected,
    FormatError,
    InvalidResult,
    NotVertexKind,
    PresentationMismatch,
)
from sftlab.graphs import path
from sftlab.linalg import cokernel, determinant, freeze, identity
from sftlab.randgen import (
    random_elementary,
    random_function,
    random_irreducible,
)
from sftlab.shifts import count_words, validate, words

seeds = st.integers(0, 10**6)


def identity_minus(m):
    n = len(m)
    return tuple(tuple((1 if i == j else 0) - m[i][j] for j in range(n))
                 for i in range(n))


class TestExpand:
    def test_fibonacci_pattern(self, fib):
        e = mv.expand(fib)
        assert e.expanded.adjacency == ((0, 1, 1), (1, 0, 0), (0, 1, 0))
        assert e.expanded.vertex_labels == ("0", "1", "2")

    def test_determinant_preserved(self, fib):
        e = mv.expand(fib)
        assert determinant(identity_minus(e.expanded.adjacency)) == \
            determinant(identity_minus(fib.adjacency)) == -1

    def test_new_vertex_has_no_self_loop(self, fib, full3):
        for p in (fib, full3):
            assert mv.expand(p).expanded.adjacency[0][0] == 0

    def test_other_vertex(self, full2):
        e = mv.expand(full2, vertex=1)
        assert e.expanded.adjacency == ((0, 1, 1), (0, 1, 1), (1, 0, 0))

    def test_rejects_edge_kind(self):
        p = validate(((2,),), "edge")
        with pytest.raises(NotVertexKind):
            mv.expand(p)

    def test_rejects_bad_vertex(self, fib):
        with pytest.raises(FormatError):
            mv.expand(fib, vertex=5)

    def test_fresh_label(self, fib):
        relabeled = validate(fib.adjacency, "vertex", ("0", "2"))
        e = mv.expand(relabeled)
        assert e.expanded.vertex_labels == ("0'", "0", "2")

    @given(seeds)
    def test_flow_invariants_preserved(self, seed):
        rng = random.Random(seed)
        p = random_irreducible(rng, 6)
        e = mv.expand(p, rng.randrange(p.n_vertices))
        ia, ib = identity_minus(p.adjacency), identity_minus(e.expanded.adjacency)
        assert determinant(ia) == determinant(ib)
        assert cokernel(ia).group == cokernel(ib).group


class TestPsiXiEta:
    def test_unit_transfers(self, fib):
        e = mv.expand(fib)
        down = mv.psi_xi(e, coh.unit(e.expanded))
        assert down == coh.add(coh.unit(fib), coh.indicator(fib, (0,)))
        up = mv.psi_eta(e, coh.unit(fib))
        assert up == coh.subtract(coh.unit(e.expanded),
                                  coh.indicator(e.expanded, (0,)))

    def test_presentation_checks(self, fib):
        e = mv.expand(fib)
        with pytest.raises(PresentationMismatch):
            mv.psi_xi(e, coh.unit(fib))
        with pytest.raises(PresentationMismatch):
            mv.psi_eta(e, coh.unit(e.expanded))

    @given(seeds)
    def test_section_identity(self, seed):
        """Pulling back after pushing forward recovers the function exactly."""
        rng = random.Random(seed)
        p = random_irreducible(rng, 5)
        e = mv.expand(p, rng.randrange(p.n_vertices))
        f = random_function(rng, p, max_depth=3)
        assert mv.psi_xi(e, mv.psi_eta(e, f)) == f

    @given(seeds)
    def test_retraction_defect_is_explicit_coboundary(self, seed):
        """The other composition differs from the identity by the coboundary
        of the function cut down to the new cylinder."""
        rng = random.Random(seed)
        p = random_irreducible(rng, 5)
        e = mv.expand(p, rng.randrange(p.n_vertices))
        g = random_function(rng, e.expanded, max_depth=3)
        back = mv.psi_eta(e, mv.psi_xi(e, g))
        cut = coh.multiply(g, coh.indicator(e.expanded, (0,)))
        defect = coh.subtract(back, g)
        assert defect == coh.subtract(coh.pullback_sigma(cut), cut)
        assert coh.class_is_zero(defect).is_coboundary

    @given(seeds)
    def test_agrees_with_machine_transfer(self, seed):
        """The transfer along the split and merge machines, with their data,
        is the transfer along the maps written out on words."""
        rng = random.Random(seed)
        p = random_irreducible(rng, 4)
        e = mv.expand(p, rng.randrange(p.n_vertices))
        f_exp = random_function(rng, e.expanded, max_depth=2)
        f_base = random_function(rng, p, max_depth=2)
        assert tr.transfer_psi(e.split, e.split_data, f_exp) == _ref_psi_xi(e, f_exp)
        assert tr.transfer_psi(e.merge, e.merge_data, f_base) == _ref_psi_eta(e, f_base)

    @given(seeds)
    def test_machine_streams_match_the_word_maps(self, seed):
        """The streams read off the split and merge machines are the words
        the maps make: v becomes v 0, and the new symbol 0 is erased."""
        rng = random.Random(seed)
        p = random_irreducible(rng, 5)
        e = mv.expand(p, rng.randrange(p.n_vertices))
        f_exp = random_function(rng, e.expanded, max_depth=3)
        f_base = random_function(rng, p, max_depth=3)
        assert mv.psi_xi(e, f_exp) == _ref_psi_xi(e, f_exp)
        assert mv.psi_eta(e, f_base) == _ref_psi_eta(e, f_base)


def _ref_psi_xi(e, f_exp):
    """psi_xi with the split map written out on words."""
    streams = []
    for w in words(e.base, f_exp.depth):
        out = []
        for a in w:
            out.append(a + 1)
            if a == e.vertex:
                out.append(0)
        streams.append((tuple(out), 2 if w[0] == e.vertex else 1))
    return coh.function(e.base, f_exp.depth, coh.window_sums(f_exp, streams),
                        f_exp.ring)


def _ref_psi_eta(e, f):
    """psi_eta with the merge map written out on words: erase symbol 0."""
    depth = 2 * f.depth - 1
    values = coh.window_sums(
        f, (((), 0) if w[0] == 0 else (tuple(a - 1 for a in w if a), 1)
            for w in words(e.expanded, depth)))
    return coh.function(e.expanded, depth, values, f.ring)


def _off_by_one(rows):
    rows = [list(row) for row in rows]
    rows[0][0] += 1
    return tuple(map(tuple, rows))


class TestElementary:
    def test_one_vertex_doubling(self):
        ee = mv.elementary(((1, 1),), ((1,), (1,)))
        assert ee.a.adjacency == ((2,),)
        assert ee.b.adjacency == ((1, 1), (1, 1))
        assert ee.z == ((0, 1, 1), (1, 0, 0), (1, 0, 0))

    def test_z_squares_to_block_diagonal(self):
        ee = mv.elementary(((1, 1),), ((1,), (1,)))
        n = len(ee.z)
        sq = tuple(tuple(sum(ee.z[i][t] * ee.z[t][j] for t in range(n))
                         for j in range(n)) for i in range(n))
        assert sq == ((2, 0, 0), (0, 1, 1), (0, 1, 1))

    def test_identity_move(self, fib):
        ee = mv.elementary(identity(2), fib.adjacency)
        assert ee.a.adjacency == fib.adjacency
        assert ee.b.adjacency == fib.adjacency

    def test_shape_mismatch(self):
        with pytest.raises(FormatError):
            mv.elementary(((1, 1),), ((1,),))

    def test_invalid_product_rejected(self):
        with pytest.raises(InvalidResult):
            mv.elementary(((1, 0), (0, 1)), ((1, 0), (0, 1)))   # A = identity

    def test_negative_rejected(self):
        with pytest.raises(InvalidResult):
            mv.elementary(((1, -1),), ((1,), (1,)))

    def test_miscounted_product_raises(self, monkeypatch):
        """A product whose entry disagrees with the factor edge pairs between
        its ends is a contradiction, not a pair table to gather through.
        ``elementary`` takes ``mat_mul`` from ``linalg`` when it runs."""
        real = la.mat_mul
        monkeypatch.setattr(la, "mat_mul", lambda x, y: _off_by_one(real(x, y)))
        with pytest.raises(ContradictionDetected,
                           match="A has 3 edges from 1 to 1 but 2 factor edge pairs"):
            mv.elementary(((1, 1),), ((1,), (1,)))

    def test_miscounted_product_raises_under_optimisation(self):
        """The check is no assert, so python -O keeps it."""
        code = ("import sftlab.linalg as la, sftlab.moves as mv\n"
                "from sftlab.errors import ContradictionDetected\n"
                "real = la.mat_mul\n"
                "def off_by_one(x, y):\n"
                "    rows = [list(row) for row in real(x, y)]\n"
                "    rows[0][0] += 1\n"
                "    return tuple(map(tuple, rows))\n"
                "la.mat_mul = off_by_one\n"
                "try:\n"
                "    mv.elementary(((1, 1),), ((1,), (1,)))\n"
                "except ContradictionDetected as exc:\n"
                "    print(exc)\n")
        src = pathlib.Path(sftlab.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-O", "-c", code],
                              capture_output=True, text=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=str(src)))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "A has 3 edges from 1 to 1 but 2 factor edge pairs\n"

    @given(seeds)
    def test_bijections_are_structured(self, seed):
        rng = random.Random(seed)
        ee = random_elementary(rng, outer_max=3, inner_max=3, entry_max=2)
        # each A-edge from i to j decodes to a C-edge i->k and a D-edge k->j
        for sym, (i, j, _p) in enumerate(ee.a.edges):
            ci, di = ee.a_pairs[sym]
            csrc, k, _ = ee.c_edges[ci]
            ksrc, jj, _ = ee.d_edges[di]
            assert (csrc, jj) == (i, j) and k == ksrc
        for sym, (i, j, _p) in enumerate(ee.b.edges):
            di, ci = ee.b_pairs[sym]
            dsrc, k, _ = ee.d_edges[di]
            ksrc, jj, _ = ee.c_edges[ci]
            assert (dsrc, jj) == (i, j) and k == ksrc
        assert len(set(ee.a_pairs)) == len(ee.a_pairs)
        assert len(set(ee.b_pairs)) == len(ee.b_pairs)


def _ref_edge_transfer(f, target, target_pairs, source_index):
    """Reference phi/psi over words: one stream of source edges per word of
    B_(k+1) of the target, summed over its one window by window_sums."""
    k = f.depth
    streams = []
    for w in words(target, k + 1):
        pairs = [target_pairs[s] for s in w]
        streams.append((tuple(source_index[(pairs[t][1], pairs[t + 1][0])]
                              for t in range(k)), 1))
    return coh.function(target, k + 1, coh.window_sums(f, streams), f.ring)


class TestPhiPsiMatchWordReference:
    """phi and psi rank image words arithmetically on the word levels; the
    reference builds the words.  Entries of C and D up to 2 give parallel
    edges, and the depth is 1 to 4 with |B_(depth+1)| of the target at most
    2000.  phi and psi build through the unchecked ``coh._build``, so their
    values must keep the exact type of the ring: a tuple == cannot tell
    Fraction(2) from 2."""

    @given(seeds, st.sampled_from([coh.RING_INT, coh.RING_RAT]))
    def test_phi_and_psi(self, seed, ring):
        rng = random.Random(seed)
        ee = random_elementary(rng, outer_max=3, inner_max=3, entry_max=2)
        cases = ((mv.phi, ee.a, ee.b, ee.b_pairs, ee.a_pair_index),
                 (mv.psi, ee.b, ee.a, ee.a_pairs, ee.b_pair_index))
        for transfer, source, target, target_pairs, source_index in cases:
            depth = rng.randint(1, 4)
            while depth > 1 and count_words(target, depth + 1) > 2000:
                depth -= 1
            table = [rng.randint(-3, 3) for _ in range(count_words(source, depth))]
            if ring == coh.RING_RAT:
                table = [Fraction(v, 3) for v in table]
            f = coh.function(source, depth, table, ring)
            got = transfer(ee, f)
            want = _ref_edge_transfer(f, target, target_pairs, source_index)
            assert (got.depth, got.table, got.ring) == \
                (want.depth, want.table, want.ring)
            exact = int if ring == coh.RING_INT else Fraction
            assert {type(v) for v in got.table} == {exact}


def test_level_transforms_build_no_word_tables(full3, stray_caches, no_word_tables):
    """phi, psi, coboundary, pullback_sigma and lift_table read word levels:
    they ask for no word table and leave no cache beyond the presentation's
    own, below and above the size from which one-level lifts split."""
    ee = mv.elementary(((1, 2), (1, 0)), ((1, 0), (1, 1)))
    p = validate(full3.adjacency)
    for depth in (1, 3):
        f = coh.function(ee.a, depth, range(count_words(ee.a, depth)))
        g = coh.function(ee.b, depth, range(count_words(ee.b, depth)))
        h = coh.function(p, depth, range(count_words(p, depth)))
        mv.psi(ee, mv.phi(ee, f))
        mv.phi(ee, mv.psi(ee, g))
        for fn in (f, g, h):
            coh.coboundary(fn)
            coh.pullback_sigma(fn)
            coh.lift_table(fn, depth + 2)
    # one level up from B_7 of the full 3-shift, lifts gather run by run
    assert count_words(p, 8) >= coh._SPLIT_WORDS
    h = coh.function(p, 7, [v % 5 for v in range(count_words(p, 7))])
    assert h.depth == 7
    coh.coboundary(h)
    coh.lift_table(h, 8)
    for q in (ee.a, ee.b, p):
        assert stray_caches(q) == set()


class TestPhiPsi:
    @given(seeds)
    def test_round_trips_are_pullbacks(self, seed):
        rng = random.Random(seed)
        ee = random_elementary(rng, outer_max=3, inner_max=2, entry_max=2)
        f = random_function(rng, ee.a, max_depth=2, low=-3, high=3)
        g = random_function(rng, ee.b, max_depth=2, low=-3, high=3)
        assert mv.psi(ee, mv.phi(ee, f)) == coh.pullback_sigma(f)
        assert mv.phi(ee, mv.psi(ee, g)) == coh.pullback_sigma(g)

    @given(seeds)
    def test_linear(self, seed):
        rng = random.Random(seed)
        ee = random_elementary(rng, outer_max=3, inner_max=3, entry_max=2)
        f = random_function(rng, ee.a, max_depth=2)
        g = random_function(rng, ee.a, max_depth=2)
        assert mv.phi(ee, coh.zero(ee.a)) == coh.zero(ee.b)
        assert mv.phi(ee, coh.add(f, g)) == coh.add(mv.phi(ee, f), mv.phi(ee, g))

    @given(seeds)
    def test_induces_class_inverse(self, seed):
        rng = random.Random(seed)
        ee = random_elementary(rng, outer_max=3, inner_max=3, entry_max=2)
        f = random_function(rng, ee.a, max_depth=1, low=-2, high=2)
        assert coh.class_equal(mv.psi(ee, mv.phi(ee, f)), f)

    @given(seeds)
    def test_depth_bound(self, seed):
        rng = random.Random(seed)
        ee = random_elementary(rng, outer_max=3, inner_max=3, entry_max=2)
        f = random_function(rng, ee.a, max_depth=2)
        assert mv.phi(ee, f).depth <= f.depth + 1

    @given(seeds)
    def test_bf_data_match(self, seed):
        rng = random.Random(seed)
        ee = random_elementary(rng, outer_max=3, inner_max=3, entry_max=2)
        ia = identity_minus(ee.a.adjacency)
        ib = identity_minus(ee.b.adjacency)
        assert cokernel(ia).group == cokernel(ib).group
        da, db = determinant(ia), determinant(ib)
        assert (da > 0) - (da < 0) == (db > 0) - (db < 0)

    @given(seeds)
    def test_identities_hold_for_any_bijection(self, seed):
        """The pair decompositions are a choice; the transfer identities must
        not depend on it.  Shuffle pair assignments within parallel edges."""
        rng = random.Random(seed)
        ee = random_elementary(rng, outer_max=3, inner_max=2, entry_max=2)

        def shuffle_within_groups(edges, pairs):
            out = list(pairs)
            by_st: dict[tuple[int, int], list[int]] = {}
            for sym, (i, j, _p) in enumerate(edges):
                by_st.setdefault((i, j), []).append(sym)
            for group in by_st.values():
                vals = [out[s] for s in group]
                rng.shuffle(vals)
                for s, v in zip(group, vals):
                    out[s] = v
            return tuple(out)

        other = mv.ElementaryEquivalence(
            ee.c, ee.d, ee.a, ee.b, ee.z, ee.c_edges, ee.d_edges,
            a_pairs=shuffle_within_groups(ee.a.edges, ee.a_pairs),
            b_pairs=shuffle_within_groups(ee.b.edges, ee.b_pairs))
        f = random_function(rng, ee.a, max_depth=1, low=-2, high=2)
        g = random_function(rng, ee.b, max_depth=1, low=-2, high=2)
        assert mv.psi(other, mv.phi(other, f)) == coh.pullback_sigma(f)
        assert mv.phi(other, mv.psi(other, g)) == coh.pullback_sigma(g)


def _ref_sse_search(a_matrix, b_matrix, inner_dim_bound, entry_bound, chain_bound):
    """The search as a hand-written level loop: a level is expanded only
    below the chain bound, and the search returns the moment the attempt
    budget is exceeded."""
    start, goal = freeze(a_matrix), freeze(b_matrix)
    parents = {start: None}
    frontier = [start]
    depth = nodes = attempts = 0
    if start == goal:
        return (), 0, 0
    while frontier and depth < chain_bound:
        nxt = []
        for node in frontier:
            nodes += 1
            n = len(node)
            for m in range(1, inner_dim_bound + 1):
                for flat in itertools.product(range(entry_bound + 1), repeat=n * m):
                    attempts += 1
                    if attempts > mv.SSE_ATTEMPT_BUDGET:
                        return None, nodes, attempts
                    c = tuple(tuple(flat[i * m:(i + 1) * m]) for i in range(n))
                    if any(all(v == 0 for v in row) for row in c):
                        continue
                    per_column = []
                    for j in range(n):
                        target = tuple(node[i][j] for i in range(n))
                        sols = mv._solve_factor_column(c, target, entry_bound, 16)
                        if not sols:
                            break
                        per_column.append(sols)
                    else:
                        for combo in itertools.product(*per_column):
                            attempts += 1
                            if attempts > mv.SSE_ATTEMPT_BUDGET:
                                return None, nodes, attempts
                            d = tuple(tuple(combo[j][i] for j in range(n))
                                      for i in range(m))
                            try:
                                ee = mv.elementary(c, d)
                            except InvalidResult:
                                continue
                            if ee.b.adjacency in parents:
                                continue
                            parents[ee.b.adjacency] = (node, ee)
                            if ee.b.adjacency == goal:
                                return path(parents, goal), nodes, attempts
                            nxt.append(ee.b.adjacency)
        frontier = nxt
        depth += 1
    return None, nodes, attempts


# (2) reaches TWO_STEPS through (1 1; 1 1) and no shorter way
TWO_STEPS = ((0, 0, 1), (1, 1, 0), (1, 1, 1))


class TestSseSearch:
    @pytest.mark.parametrize("budget", [0, 1, 7, 37, 500])
    @pytest.mark.parametrize("a, b", [
        (((2,),), TWO_STEPS), (TWO_STEPS, ((2,),)), (((2,),), ((1, 1), (1, 1))),
        (((1, 1), (1, 0)), ((1, 1), (1, 1))), (((2, 1), (1, 0)), ((2, 1), (1, 0)))])
    @pytest.mark.parametrize("bounds", [(3, 1, 3), (3, 1, 1), (2, 2, 2), (2, 2, 0)])
    def test_matches_the_level_loop(self, monkeypatch, budget, a, b, bounds):
        """Chains, node counts and attempt counts, with the budget spent in
        the middle of a level, after the goal, or not at all."""
        monkeypatch.setattr(mv, "SSE_ATTEMPT_BUDGET", budget)
        res = mv.sse_search(a, b, *bounds)
        assert ((res.found, res.nodes_explored, res.attempts)
                == _ref_sse_search(a, b, *bounds))

    def test_two_step_chain(self):
        res = mv.sse_search(((2,),), TWO_STEPS, 3, 1, 3)
        assert [ee.b.adjacency for ee in res.found] == [((1, 1), (1, 1)), TWO_STEPS]
        assert mv.sse_search(((2,),), TWO_STEPS, 3, 1, 1).found is None

    def test_same_matrix(self, fib):
        res = mv.sse_search(fib.adjacency, fib.adjacency)
        assert res.found == ()

    def test_one_step_doubling(self, full2):
        res = mv.sse_search(((2,),), full2.adjacency)
        assert res.found is not None and len(res.found) == 1
        ee = res.found[0]
        assert ee.a.adjacency == ((2,),)
        assert ee.b.adjacency == full2.adjacency

    def test_chain_links_match(self, full2):
        res = mv.sse_search(((2,),), full2.adjacency)
        chain = res.found
        assert chain[0].a.adjacency == ((2,),)
        for first, second in zip(chain, chain[1:]):
            assert first.b.adjacency == second.a.adjacency
        assert chain[-1].b.adjacency == full2.adjacency

    def test_different_entropy_not_found(self, fib, full2):
        res = mv.sse_search(fib.adjacency, full2.adjacency)
        assert res.found is None
        assert res.attempts > 0

"""Circle actions through their integer classifiers: group law, equivalence,
order, and exact phase evaluation."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import sftlab.actions as act
import sftlab.cohomology as coh
from sftlab.errors import Inadmissible, PresentationMismatch
from sftlab.randgen import random_function, random_irreducible, random_point
from sftlab.shifts import parse_point, shift_point_by

seeds = st.integers(0, 10**6)


class TestGroupLaw:
    def test_gauge_squared(self, fib):
        g = act.gauge_action(fib)
        assert act.compose(g, g).classifier == coh.constant(fib, 2)

    def test_inverse(self, fib):
        rng = random.Random(1)
        a = act.action(random_function(rng, fib))
        assert act.compose(a, act.inverse(a)).classifier == coh.zero(fib)

    def test_classifier_adds(self, fib):
        rng = random.Random(2)
        f = random_function(rng, fib)
        g = random_function(rng, fib)
        assert act.compose(act.action(f), act.action(g)).classifier == coh.add(f, g)

    def test_identity_element(self, fib):
        rng = random.Random(3)
        a = act.action(random_function(rng, fib))
        assert act.compose(a, act.trivial_action(fib)).classifier == a.classifier

    @given(seeds)
    def test_associative_commutative(self, seed):
        rng = random.Random(seed)
        p = random_irreducible(rng, 4)
        a, b, c = (act.action(random_function(rng, p, max_depth=2))
                   for _ in range(3))
        assert act.compose(act.compose(a, b), c).classifier == \
            act.compose(a, act.compose(b, c)).classifier
        assert act.compose(a, b).classifier == act.compose(b, a).classifier

    def test_presentation_mismatch(self, fib, full2):
        with pytest.raises(PresentationMismatch):
            act.compose(act.gauge_action(fib), act.gauge_action(full2))
        with pytest.raises(PresentationMismatch):
            act.equivalent(act.gauge_action(fib), act.gauge_action(full2))

    def test_distinct_classifiers_distinct_actions(self, fib):
        a = act.action(coh.indicator(fib, (0,)))
        b = act.action(coh.indicator(fib, (1,)))
        assert a.classifier != b.classifier


class TestEquivalence:
    @given(seeds)
    def test_coboundary_perturbation(self, seed):
        rng = random.Random(seed)
        p = random_irreducible(rng, 5)
        f = random_function(rng, p)
        b = random_function(rng, p, max_depth=2)
        a1 = act.action(f)
        a2 = act.action(coh.add(f, coh.coboundary(b)))
        res = act.equivalent(a1, a2)
        assert res.is_coboundary
        # the witness exponent produces the same coboundary
        assert coh.coboundary(res.potential) == coh.coboundary(b)

    def test_gauge_not_trivial(self, fib, full2, full3):
        for p in (fib, full2, full3):
            assert not act.equivalent(act.gauge_action(p), act.trivial_action(p))

    @given(seeds)
    def test_equivalence_relation(self, seed):
        rng = random.Random(seed)
        p = random_irreducible(rng, 4)
        f = random_function(rng, p, max_depth=2, low=-2, high=2)
        b = random_function(rng, p, max_depth=2, low=-2, high=2)
        a1 = act.action(f)
        a2 = act.action(coh.add(f, coh.coboundary(b)))
        a3 = act.action(random_function(rng, p, max_depth=2, low=-2, high=2))
        assert act.equivalent(a1, a1)
        assert bool(act.equivalent(a1, a2)) == bool(act.equivalent(a2, a1))
        if act.equivalent(a1, a3):
            assert act.equivalent(a2, a3)

    @given(seeds)
    def test_congruence_for_compose(self, seed):
        rng = random.Random(seed)
        p = random_irreducible(rng, 4)
        f = random_function(rng, p, max_depth=2, low=-2, high=2)
        g = random_function(rng, p, max_depth=2, low=-2, high=2)
        b1 = random_function(rng, p, max_depth=2, low=-2, high=2)
        b2 = random_function(rng, p, max_depth=2, low=-2, high=2)
        a1 = act.action(f)
        a1p = act.action(coh.add(f, coh.coboundary(b1)))
        a2 = act.action(g)
        a2p = act.action(coh.add(g, coh.coboundary(b2)))
        assert act.equivalent(act.compose(a1, a2), act.compose(a1p, a2p))


class TestOrder:
    def test_gauge_nonnegative_and_unit(self, fib, full2, full3):
        for p in (fib, full2, full3):
            g = act.gauge_action(p)
            assert act.class_nonnegative(g)
            assert act.is_order_unit(g)
            assert not act.class_nonnegative(act.inverse(g))

    def test_trivial_action_nonnegative(self, fib):
        assert act.class_nonnegative(act.trivial_action(fib))
        assert not act.is_order_unit(act.trivial_action(fib))


class TestPhase:
    def test_gauge_length_three(self, fib):
        g = act.gauge_action(fib)
        mu = (0, 0, 1)
        pe = act.phase_on_word(g, mu)
        assert pe.exponent.min_value() == pe.exponent.max_value() == 3
        x = parse_point(fib, ":12")          # admissible after mu
        assert act.evaluate_phase(g, mu, Fraction(1, 4), x) == Fraction(3, 4)

    def test_zero_classifier(self, fib):
        a = act.trivial_action(fib)
        x = parse_point(fib, ":12")
        assert act.evaluate_phase(a, (0,), Fraction(5, 7), x) == 0

    def test_indicator_two_step(self, fib):
        a = act.action(coh.indicator(fib, (0,)))
        mu = (0, 1)
        x = parse_point(fib, ":12")          # mu.x = 1212... is admissible
        assert act.phase_on_word(a, mu).exponent == coh.partial_sum(a.classifier, 2)
        assert act.evaluate_phase(a, mu, Fraction(1, 2), x) == Fraction(1, 2)

    def test_phase_reduced_mod_one(self, fib):
        g = act.gauge_action(fib)
        x = parse_point(fib, ":12")
        assert act.evaluate_phase(g, (0, 0, 1), Fraction(1, 2), x) == Fraction(1, 2)
        assert act.evaluate_phase(g, (0, 0, 1), Fraction(2, 3), x) == 0

    def test_inadmissible_word_rejected(self, fib):
        g = act.gauge_action(fib)
        with pytest.raises(Inadmissible):
            act.phase_on_word(g, (1, 1))

    def test_inadmissible_continuation_rejected(self, fib):
        g = act.gauge_action(fib)
        x = parse_point(fib, ":21")          # starts with 2; cannot follow 2
        with pytest.raises(Inadmissible):
            act.evaluate_phase(g, (0, 1), Fraction(1, 3), x)

    @given(seeds)
    def test_exponent_is_partial_sum(self, seed):
        rng = random.Random(seed)
        p = random_irreducible(rng, 4)
        f = random_function(rng, p, max_depth=2)
        a = act.action(f)
        x = random_point(rng, p)
        n = rng.randint(1, 4)
        mu = x.prefix(n)
        pe = act.phase_on_word(a, mu)
        assert pe.exponent == coh.partial_sum(f, n)
        # direct evaluation against the defining sum: mu followed by the tail
        # of x reassembles x itself
        t = Fraction(rng.randint(0, 7), 8)
        tail = shift_point_by(x, n)
        stream = x.prefix(n + f.depth)
        total = sum(f.value_on_word(stream[i:i + f.depth]) for i in range(n))
        assert act.evaluate_phase(a, mu, t, tail) == (t * total) % 1

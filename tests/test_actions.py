"""Circle actions through their integer classifiers: group law, equivalence,
order, and exact phase evaluation.  An action is its classifier, so the group
law is ``cohomology.add``, the gauge and trivial actions are ``unit`` and
``zero``, and the order is ``class_is_nonnegative``."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest
from conftest import negate, random_point
from hypothesis import given
from hypothesis import strategies as st

import sftlab.actions as act
import sftlab.cohomology as coh
from sftlab.errors import Inadmissible, PresentationMismatch, RationalNotSupported
from sftlab.randgen import random_function, random_irreducible
from sftlab.shifts import parse_point, shift_point_by

seeds = st.integers(0, 10**6)


class TestGroupLaw:
    def test_gauge_squared(self, fib):
        g = coh.unit(fib)
        assert coh.add(g, g) == coh.constant(fib, 2)

    def test_inverse(self, fib):
        rng = random.Random(1)
        a = act.action(random_function(rng, fib))
        assert coh.add(a, act.action(negate(a))) == coh.zero(fib)

    def test_classifier_adds(self, fib):
        """An action is its classifier, so composing adds them."""
        rng = random.Random(2)
        f = random_function(rng, fib)
        g = random_function(rng, fib)
        assert act.action(f) is f
        assert coh.add(act.action(f), act.action(g)).table == \
            tuple(map(sum, zip(coh.lift_table(f, 2), coh.lift_table(g, 2))))

    def test_rational_classifier_refused(self, fib):
        with pytest.raises(RationalNotSupported, match="classifiers are integer-valued"):
            act.action(coh.constant(fib, Fraction(1, 2), coh.RING_RAT))

    def test_identity_element(self, fib):
        rng = random.Random(3)
        a = act.action(random_function(rng, fib))
        assert coh.add(a, coh.zero(fib)) == a

    @given(seeds)
    def test_associative_commutative(self, seed):
        rng = random.Random(seed)
        p = random_irreducible(rng, 4)
        a, b, c = (act.action(random_function(rng, p, max_depth=2))
                   for _ in range(3))
        assert coh.add(coh.add(a, b), c) == coh.add(a, coh.add(b, c))
        assert coh.add(a, b) == coh.add(b, a)

    def test_presentation_mismatch(self, fib, full2):
        with pytest.raises(PresentationMismatch):
            coh.add(coh.unit(fib), coh.unit(full2))
        with pytest.raises(PresentationMismatch):
            act.equivalent(coh.unit(fib), coh.unit(full2))
        with pytest.raises(PresentationMismatch):
            act.evaluate_phase(coh.unit(fib), (0,), Fraction(1, 2),
                               parse_point(full2, ":1"))

    def test_distinct_classifiers_distinct_actions(self, fib):
        a = act.action(coh.indicator(fib, (0,)))
        b = act.action(coh.indicator(fib, (1,)))
        assert a != b
        assert not act.equivalent(a, b)


class TestEquivalence:
    @given(seeds)
    def test_coboundary_perturbation(self, seed):
        rng = random.Random(seed)
        p = random_irreducible(rng, 5)
        f = random_function(rng, p)
        b = random_function(rng, p, max_depth=2)
        a2 = coh.add(f, coh.coboundary(b))
        res = act.equivalent(f, a2)
        assert res.is_coboundary
        # the witness exponent produces the same coboundary: second minus first
        assert coh.coboundary(res.potential) == coh.coboundary(b)

    def test_gauge_not_trivial(self, fib, full2, full3):
        for p in (fib, full2, full3):
            res = act.equivalent(coh.zero(p), coh.unit(p))
            assert not res
            # a no's cycle sum is the orbit sum of the second minus the first
            assert res.cycle_sum == len(res.cycle) > 0

    @given(seeds)
    def test_equivalence_relation(self, seed):
        rng = random.Random(seed)
        p = random_irreducible(rng, 4)
        f = random_function(rng, p, max_depth=2, low=-2, high=2)
        b = random_function(rng, p, max_depth=2, low=-2, high=2)
        a1 = f
        a2 = coh.add(f, coh.coboundary(b))
        a3 = random_function(rng, p, max_depth=2, low=-2, high=2)
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
        a1p = coh.add(f, coh.coboundary(b1))
        a2p = coh.add(g, coh.coboundary(b2))
        assert act.equivalent(coh.add(f, g), coh.add(a1p, a2p))


class TestOrder:
    def test_gauge_nonnegative_and_unit(self, fib, full2, full3):
        for p in (fib, full2, full3):
            g = coh.unit(p)
            assert coh.class_is_nonnegative(g)
            assert coh.order_unit_check(g)
            assert not coh.class_is_nonnegative(negate(g))

    def test_trivial_action_nonnegative(self, fib):
        assert coh.class_is_nonnegative(coh.zero(fib))
        assert not coh.order_unit_check(coh.zero(fib))


class TestPhase:
    def test_gauge_length_three(self, fib):
        g = coh.unit(fib)
        mu = (0, 0, 1)
        exponent = coh.partial_sum(g, len(mu))
        assert exponent.min_value() == exponent.max_value() == 3
        x = parse_point(fib, ":12")          # admissible after mu
        assert act.evaluate_phase(g, mu, Fraction(1, 4), x) == Fraction(3, 4)

    def test_zero_classifier(self, fib):
        x = parse_point(fib, ":12")
        assert act.evaluate_phase(coh.zero(fib), (0,), Fraction(5, 7), x) == 0

    def test_indicator_two_step(self, fib):
        a = act.action(coh.indicator(fib, (0,)))
        mu = (0, 1)
        x = parse_point(fib, ":12")          # mu.x = 1212... is admissible
        assert act.evaluate_phase(a, mu, Fraction(1, 2), x) == Fraction(1, 2)

    def test_phase_reduced_mod_one(self, fib):
        g = coh.unit(fib)
        x = parse_point(fib, ":12")
        assert act.evaluate_phase(g, (0, 0, 1), Fraction(1, 2), x) == Fraction(1, 2)
        assert act.evaluate_phase(g, (0, 0, 1), Fraction(2, 3), x) == 0

    def test_inadmissible_word_rejected(self, fib):
        x = parse_point(fib, ":12")
        with pytest.raises(Inadmissible):
            act.evaluate_phase(coh.unit(fib), (1, 1), Fraction(1, 3), x)

    def test_inadmissible_continuation_rejected(self, fib):
        x = parse_point(fib, ":21")          # starts with 2; cannot follow 2
        with pytest.raises(Inadmissible):
            act.evaluate_phase(coh.unit(fib), (0, 1), Fraction(1, 3), x)

    @given(seeds)
    def test_exponent_is_partial_sum(self, seed):
        """The phase at t is t times the |mu|-step partial sum of f on mu.x,
        reduced mod 1: the exponent and phase the action command prints."""
        rng = random.Random(seed)
        p = random_irreducible(rng, 4)
        f = random_function(rng, p, max_depth=2)
        x = random_point(rng, p)
        n = rng.randint(0, 4)
        mu = x.prefix(n)
        # direct evaluation against the defining sum: mu followed by the tail
        # of x reassembles x itself
        t = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        tail = shift_point_by(x, n)
        stream = x.prefix(n + f.depth)
        total = sum(f.value_on_word(stream[i:i + f.depth]) for i in range(n))
        assert coh.partial_sum(f, n).value_on_word(stream) == total
        assert act.evaluate_phase(f, mu, t, tail) == (t * total) % 1


def test_module_keeps_only_what_is_particular_to_actions():
    """Composition, the gauge and trivial actions and the order are the
    cohomology routines themselves; no record class wraps a classifier."""
    public = {name for name, obj in vars(act).items() if not name.startswith("_")
              and getattr(obj, "__module__", None) == act.__name__}
    assert public == {"action", "equivalent", "evaluate_phase"}

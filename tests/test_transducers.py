"""Finite-state presentations of continuous shift maps: validation, images,
composition, map equivalence, orbit relations, and the transfer of functions
along them."""
from __future__ import annotations

import itertools
import random
import re
from fractions import Fraction

import pytest
from conftest import random_edge_presentation, random_point, reference_machine_check
from hypothesis import given, settings
from hypothesis import strategies as st

import sftlab.cohomology as coh
import sftlab.transducers as tr
from sftlab.errors import (
    FormatError,
    SftError,
    InadmissibleOutput,
    IncompleteTransducer,
    PresentationMismatch,
    RationalNotSupported,
    Starvation,
)
from sftlab.config import Limits
from sftlab.graphs import bfs
from sftlab.moves import expand, psi_eta
from sftlab.randgen import random_function, random_irreducible
from sftlab.shifts import (
    count_words,
    enumerate_points,
    higher_block,
    parse_point,
    periodic_point,
    shift_point_by,
    validate,
    words,
)

seeds = st.integers(0, 10**6)


@pytest.fixture(scope="module")
def fib_exp(fib):
    return expand(fib)


def direct(domain, codomain, rules):
    """A one-state machine built by the ``Transducer`` record itself, without
    make_transducer."""
    return tr.Transducer(domain, codomain, 1, 0, tuple(rules))


BUILDERS = pytest.mark.parametrize("build", [tr.make_transducer, direct],
                                   ids=["make_transducer", "direct"])


def random_machine(rng):
    """A random complete machine with up to 3 states between random shifts
    on up to 3 symbols that passes construction."""
    while True:
        dom, cod = random_irreducible(rng, 3), random_irreducible(rng, 3)
        n_states = rng.randint(1, 3)
        rules = [(q, a, rng.randrange(n_states),
                  rng.choice(words(cod, rng.randint(0, 2))))
                 for q in range(n_states) for a in range(dom.alphabet_size)]
        try:
            return tr.make_transducer(dom, cod, rules, n_states=n_states)
        except SftError:
            continue


def raw_machine(rng):
    """The fields of a small machine that may break any rule of
    construction: an initial state out of range, rules missing, repeated
    or out of range, empty outputs that may close a silent cycle, and
    outputs that may be inadmissible or not join."""
    dom, cod = random_irreducible(rng, 3), random_irreducible(rng, 3)
    n_states = rng.randint(1, 3)

    def pick(size):               # now and then one step out of range
        return rng.choice((-1, size)) if rng.random() < 0.03 else rng.randrange(size)

    rules = [(q, a, pick(n_states),
              tuple(pick(cod.alphabet_size) for _ in range(rng.choice((0, 0, 1, 1, 2)))))
             for q in range(n_states) for a in range(dom.alphabet_size)
             if rng.random() < 0.93]
    if rules and rng.random() < 0.05:
        rules.append(rng.choice(rules)[:2] + (0, ()))
    if rng.random() < 0.05:
        rules.append((pick(n_states), pick(dom.alphabet_size), 0, ()))
    rng.shuffle(rules)
    initial = n_states if rng.random() < 0.03 else 0
    return dom, cod, n_states, initial, tuple(rules)


def check_outcome(check, *args):
    """None when check(*args) passes, else the class and text of its refusal."""
    try:
        check(*args)
    except SftError as exc:
        return type(exc), str(exc)
    return None


def unchecked(fields) -> tr.Transducer:
    """The machine with these fields, built without its check."""
    t = object.__new__(tr.Transducer)
    vars(t).update(zip(tr.Transducer._fields, fields))
    return t


def sigma_machine(p):
    """One-symbol delay: skips the first input, then copies; computes the
    shift map."""
    rules = [(0, a, 1, ()) for a in range(p.alphabet_size)]
    rules += [(1, a, 1, (a,)) for a in range(p.alphabet_size)]
    return tr.make_transducer(p, p, rules, n_states=2)


def random_orbit_data(rng, p):
    """Nonnegative cocycle exponents: the transfer formula is defined for
    any, whether or not they satisfy the cocycle relation."""
    return tr.OrbitData(random_function(rng, p, max_depth=2, low=0, high=2),
                        random_function(rng, p, max_depth=2, low=0, high=2))


def random_transfer_case(rng):
    """A machine and nonnegative cocycle data: a block conjugacy (k = 1-3,
    either way), a split or a merge with their data, or a composite or a
    shifted image of one of those with random data."""
    kind = rng.choice(["block", "split", "merge", "compose", "shifted"])
    bc = tr.block_conjugacy(random_irreducible(rng, 3), rng.randint(1, 3))
    p = random_irreducible(rng, 4)
    e = expand(p, rng.randrange(p.n_vertices))
    if kind == "block":
        return rng.choice([(bc.forward, bc.forward_data),
                           (bc.backward, bc.backward_data)])
    if kind == "split":
        return e.split, e.split_data
    if kind == "merge":
        return e.merge, e.merge_data
    h = rng.choice([tr.compose(e.merge, e.split), tr.compose(e.split, e.merge),
                    tr.compose(bc.backward, bc.forward)])
    if kind == "shifted":
        amount = random_function(rng, h.domain, max_depth=2, low=0, high=2)
        h = tr.shifted_image(h, amount, rng.randint(0, 1))
    return h, random_orbit_data(rng, h.domain)


def output_bound_transfer(h, data, f):
    """transfer_psi at the depth of the bound it used before the least
    depth: m + 1 for the first m at which the shortest output over all
    admissible m-words, by a layered min-plus recurrence, holds
    l1.max + k1.max + f.depth symbols; no less than the depths of k1, l1."""
    need = data.l1.max_value() + data.k1.max_value() + f.depth
    layer, m = {(h.initial, None): 0}, 0
    while min(layer.values()) < need:
        m += 1
        nxt = {}
        for (q, prev), best in layer.items():
            for a in range(h.domain.alphabet_size) if prev is None \
                    else h.domain.successors(prev):
                q2, out = h.table[(q, a)]
                nxt[(q2, a)] = min(nxt.get((q2, a), best + len(out)),
                                   best + len(out))
        layer = nxt
    depth = max(m + 1, data.k1.depth, data.l1.depth)
    ws = words(h.domain, depth)
    gains = coh.window_sums(f, ((tr.run_on_word(h, w)[1], n)
                                for w, n in zip(ws, coh.lift_table(data.l1, depth))))
    losses = coh.window_sums(f, ((tr.run_on_word(h, w[1:])[1], n)
                                 for w, n in zip(ws, coh.lift_table(data.k1, depth))))
    return coh.function(h.domain, depth,
                        [g - loss for g, loss in zip(gains, losses)], f.ring)


# Machines from the 2-shift to fib with two faults each: the rules, the
# refusal, a rule that repairs the refused fault, and the refusal after it.
TWO_FAULTS = {
    # the search meets the bad join 2 then 2 at depth 1 and the missing rule
    # at depth 2, and completeness is refused first
    "missing rule and bad join": (
        [(0, 0, 1, (1,)), (0, 1, 1, (1,)), (1, 0, 1, (1,)), (1, 1, 2, (0,)),
         (2, 0, 2, (0,))],
        (IncompleteTransducer, "no rule for state 2 on symbol 2"),
        (2, 1, 2, (0,)),
        (InadmissibleOutput,
         r"outputs 2 then 2 cannot be concatenated \(state 1, input 1\)")),
    # states 2 and 1 are both reached at depth 1, state 2 first
    "two missing rules": (
        [(0, 0, 2, (0,)), (0, 1, 1, (0,)), (1, 0, 1, (0,)), (2, 1, 2, (0,))],
        (IncompleteTransducer, "no rule for state 2 on symbol 1"),
        (2, 0, 2, (0,)),
        (IncompleteTransducer, "no rule for state 1 on symbol 2")),
    # the join at state 2 is met at depth 1, the one at state 1 at depth 2
    "two bad joins": (
        [(0, 0, 2, (1,)), (0, 1, 1, (0,)), (1, 0, 1, (1,)), (1, 1, 1, (1,)),
         (2, 0, 2, (0,)), (2, 1, 2, (1,))],
        (InadmissibleOutput,
         r"outputs 2 then 2 cannot be concatenated \(state 2, input 2\)"),
        (2, 1, 2, (0,)),
        (InadmissibleOutput,
         r"outputs 2 then 2 cannot be concatenated \(state 1, input 1\)")),
}


class TestConstruction:
    def test_identity(self, fib):
        t = tr.identity_transducer(fib)
        assert t.n_states == 1
        x = parse_point(fib, "1:12")
        assert tr.apply(t, x).label() == "1:12"

    def test_duplicate_rule_rejected(self, fib):
        with pytest.raises(FormatError):
            tr.make_transducer(fib, fib,
                               [(0, 0, 0, (0,)), (0, 0, 0, (1,)), (0, 1, 0, (1,))])

    def test_duplicate_rule_rejected_when_built_directly(self, fib):
        """Two rules for one (state, symbol) would format to a file that
        parse_transducer_text refuses, so the record refuses them too."""
        with pytest.raises(FormatError, match="duplicate rule for state 0, symbol 0"):
            tr.Transducer(fib, fib, 1, 0,
                          ((0, 0, 0, (1,)), (0, 0, 0, (0,)), (0, 1, 0, (0,))))

    @pytest.mark.parametrize("initial", [-1, 1])
    def test_initial_state_out_of_range(self, fib, initial):
        """The machine owns the range check, so a hand-built one and a
        parsed file are refused with the same message."""
        rules = ((0, 0, 0, (0,)), (0, 1, 0, (1,)))
        msg = f"initial state {initial} out of range for 1 states"
        with pytest.raises(FormatError, match=msg):
            tr.Transducer(fib, fib, 1, initial, rules)
        text = f"transducer a b states=1 initial={initial}\n0 1 -> 0 1\n0 2 -> 0 2\n"
        with pytest.raises(FormatError, match=msg):
            tr.parse_transducer_text(text, fib, fib)

    @BUILDERS
    def test_incomplete_rejected(self, full2, build):
        with pytest.raises(IncompleteTransducer, match="no rule for state 0 on symbol 2"):
            build(full2, full2, [(0, 0, 0, (0,))])

    def test_partiality_allowed_off_domain(self, fib):
        # after reading 2 only 1 can follow, so state 1 needs no rule for 2
        rules = [(0, 0, 0, (0,)), (0, 1, 1, (1,)), (1, 0, 0, (0,))]
        t = tr.make_transducer(fib, fib, rules, n_states=2)
        assert tr.apply(t, parse_point(fib, ":12")).label() == ":12"

    @BUILDERS
    def test_starvation_rejected(self, fib, build):
        with pytest.raises(Starvation, match="cycle through state 0 emits no output"):
            build(fib, fib, [(0, 0, 0, ()), (0, 1, 0, ())])

    @BUILDERS
    def test_inadmissible_output_rejected(self, fib, build):
        # both inputs emit symbol 2; 22 is forbidden in the codomain
        with pytest.raises(InadmissibleOutput,
                           match="outputs 2 then 2 cannot be concatenated"):
            build(fib, fib, [(0, 0, 0, (1,)), (0, 1, 0, (1,))])

    @BUILDERS
    def test_inadmissible_output_within_one_emission(self, fib, build):
        with pytest.raises(InadmissibleOutput,
                           match=r"output 22 of rule \(0,0\) is inadmissible"):
            build(fib, fib, [(0, 0, 0, (1, 1)), (0, 1, 0, (0,))])

    @pytest.mark.parametrize("case", TWO_FAULTS)
    def test_first_of_two_faults_is_refused(self, fib, full2, case):
        """The refusal names the fault that comes first in the order of
        refusals and of the search; with it repaired, the other is refused."""
        rules, first, repair, second = TWO_FAULTS[case]
        repaired = [r for r in rules if r[:2] != repair[:2]] + [repair]
        for machine, (error, message) in ((rules, first), (repaired, second)):
            with pytest.raises(error, match=f"^{message}$"):
                tr.make_transducer(full2, fib, machine)

    @settings(max_examples=300)
    @given(seeds)
    def test_check_matches_the_reference(self, seed):
        """The record's check accepts and refuses what the reference check
        of ``conftest`` does, with the same class and text."""
        fields = raw_machine(random.Random(seed))
        assert check_outcome(tr.Transducer, *fields) == \
            check_outcome(reference_machine_check, unchecked(fields))

    def test_reference_cases_reach_every_refusal(self):
        """The machines the comparison above draws from reach every refusal
        of the check, and some pass it."""
        kinds = ("initial state", "duplicate rule", "unknown state", "unknown symbol",
                 "emits an unknown symbol", "is inadmissible", "no rule for state",
                 "emits no output", "cannot be concatenated")
        seen = set()
        for seed in range(400):
            outcome = check_outcome(tr.Transducer, *raw_machine(random.Random(seed)))
            seen.update(kind for kind in kinds if outcome and kind in outcome[1])
            seen.add(outcome is None)
        assert seen == {*kinds, True, False}

    @BUILDERS
    @pytest.mark.parametrize("rule, bad", [
        ((0.0, 1, 0, (1,)), "0.0"), ((0, 1.0, 0, (1,)), "1.0"),
        ((0, 1, 0.5, (1,)), "0.5"), ((0, 1, 0, (1.0,)), "1.0"),
        ((0, "1", 0, (1,)), "'1'"), ((0, 1, 0, (Fraction(1),)), "Fraction(1, 1)"),
    ], ids=["state", "symbol", "next-state", "output", "str", "Fraction"])
    def test_non_integer_rule_refused(self, fib, build, rule, bad):
        """A rule entry that ``operator.index`` refuses is a FormatError
        naming it, by make_transducer and by the record alike; a float
        symbol would otherwise build and break ``format_transducer_text``."""
        with pytest.raises(FormatError, match=rf"^expected an integer, got {re.escape(bad)}$"):
            build(fib, fib, [(0, 0, 0, (0,)), rule])

    @pytest.mark.parametrize("n_states, initial, bad", [(2.5, 0, "2.5"), (1, 0.0, "0.0")])
    def test_non_integer_state_count_or_initial_refused(self, fib, n_states, initial, bad):
        rules = ((0, 0, 0, (0,)), (0, 1, 0, (1,)))
        with pytest.raises(FormatError, match=rf"^expected an integer, got {bad}$"):
            tr.Transducer(fib, fib, n_states, initial, rules)
        with pytest.raises(FormatError, match=rf"^expected an integer, got {bad}$"):
            tr.make_transducer(fib, fib, rules, initial=initial, n_states=n_states)

    @BUILDERS
    def test_bool_entries_read_as_integers(self, fib, build):
        """What ``operator.index`` takes, a bool, builds the machine it reads as."""
        assert build(fib, fib, [(0, 0, 0, (0,)), (0, True, 0, (True,))]) == \
            tr.identity_transducer(fib)

    @settings(max_examples=10)
    @given(seeds)
    def test_constructed_machines_are_trusted(self, seed):
        """What construction proves is what apply and transfer_psi rely on:
        images are admissible points and the lookahead search ends."""
        rng = random.Random(seed)
        t = random_machine(rng)
        for x in enumerate_points(t.domain, 2, 3):
            y = tr.apply(t, x)
            assert periodic_point(t.codomain, y.preperiod, y.period) == y
        tr.transfer_psi(t, tr.conjugacy_data(t.domain), coh.unit(t.codomain))


class TestApply:
    def test_split_image(self, fib, fib_exp):
        x = parse_point(fib, ":12")
        assert tr.apply(fib_exp.split, x).label() == ":102"

    def test_split_fixed_point(self, fib, fib_exp):
        x = parse_point(fib, ":1")
        assert tr.apply(fib_exp.split, x).label() == ":10"

    def test_merge_after_split_is_identity(self, fib, fib_exp):
        for x in enumerate_points(fib, 2, 3):
            y = tr.apply(fib_exp.split, x)
            z = tr.apply(fib_exp.merge, y)
            assert (z.preperiod, z.period) == (x.preperiod, x.period)

    def test_sigma_machine(self, fib):
        t = sigma_machine(fib)
        x = parse_point(fib, "2:112")
        assert tr.apply(t, x).label() == shift_point_by(x, 1).label()

    def test_mismatched_point(self, fib, full2):
        t = tr.identity_transducer(fib)
        with pytest.raises(PresentationMismatch):
            tr.apply(t, parse_point(full2, ":2"))

    def test_run_on_word(self, fib, fib_exp):
        state, out = tr.run_on_word(fib_exp.split, (0, 1, 0))
        assert out == (1, 0, 2, 1, 0)


class TestCompose:
    def test_merge_split_identity_pointwise(self, fib, fib_exp):
        t = tr.compose(fib_exp.merge, fib_exp.split)
        for x in enumerate_points(fib, 1, 3):
            y = tr.apply(t, x)
            assert (y.preperiod, y.period) == (x.preperiod, x.period)

    def test_compose_with_identity(self, fib, fib_exp):
        t = tr.compose(fib_exp.split, tr.identity_transducer(fib))
        res = tr.equivalent_maps(t, fib_exp.split)
        assert res.status == "equal"

    def test_domain_mismatch(self, fib, fib_exp):
        with pytest.raises(PresentationMismatch):
            tr.compose(fib_exp.split, fib_exp.split)

    @given(seeds)
    def test_apply_factorizes(self, fib, fib_exp, seed):
        rng = random.Random(seed)
        x = random_point(rng, fib)
        t = tr.compose(fib_exp.merge, fib_exp.split)
        lhs = tr.apply(t, x)
        rhs = tr.apply(fib_exp.merge, tr.apply(fib_exp.split, x))
        assert (lhs.preperiod, lhs.period) == (rhs.preperiod, rhs.period)


class TestEquivalentMaps:
    def test_reflexive(self, fib_exp):
        assert tr.equivalent_maps(fib_exp.split, fib_exp.split).status == "equal"

    def test_split_vs_shifted_split(self, fib, fib_exp):
        shifted = tr.compose(sigma_machine(fib_exp.expanded), fib_exp.split)
        res = tr.equivalent_maps(fib_exp.split, shifted)
        assert res.status == "unequal"
        assert res.witness is not None and len(res.witness) <= 2
        # the witness input exhibits the divergence pointwise
        assert fib.is_admissible(res.witness)

    def test_merge_split_equals_identity(self, fib, fib_exp):
        t = tr.compose(fib_exp.merge, fib_exp.split)
        res = tr.equivalent_maps(t, tr.identity_transducer(fib), delay_bound=4)
        assert res.status == "equal"

    def test_merge_split_has_no_lag(self, fib, fib_exp):
        # split emits the doubled symbol at once and merge erases it, so the
        # composite tracks the identity with an empty buffer throughout
        t = tr.compose(fib_exp.merge, fib_exp.split)
        res = tr.equivalent_maps(t, tr.identity_transducer(fib), delay_bound=0)
        assert res.status == "equal"

    def test_tiny_delay_bound_is_inconclusive(self, fib):
        bc = tr.block_conjugacy(fib, 2)
        t = tr.compose(bc.backward, bc.forward)
        res = tr.equivalent_maps(t, tr.identity_transducer(fib), delay_bound=1)
        assert res.status == "inconclusive"

    def test_negative_delay_bound_refused(self, fib_exp):
        """A negative bound would leave a machine against itself
        inconclusive."""
        with pytest.raises(FormatError, match="delay bound must be nonnegative, got -1"):
            tr.equivalent_maps(fib_exp.split, fib_exp.split, -1)

    def test_unequal_witness_distinguishes_images(self, fib, fib_exp):
        shifted = tr.compose(sigma_machine(fib_exp.expanded), fib_exp.split)
        res = tr.equivalent_maps(fib_exp.split, shifted)
        w = res.witness
        # extend the witness to a point and compare actual images
        x = None
        for cand in enumerate_points(fib, len(w), 3):
            if cand.prefix(len(w)) == w:
                x = cand
                break
        assert x is not None
        a = tr.apply(fib_exp.split, x)
        b = tr.apply(shifted, x)
        assert (a.preperiod, a.period) != (b.preperiod, b.period)


class TestOrbitData:
    def test_negative_rejected(self, fib):
        with pytest.raises(ValueError):
            tr.OrbitData(coh.zero(fib), coh.constant(fib, -1))

    def test_conjugacy_data(self, fib):
        d = tr.conjugacy_data(fib)
        assert d.k1.is_zero()
        assert d.l1 == coh.unit(fib)


class TestVerifyOrbitRelation:
    def test_split_with_its_data(self, fib_exp):
        res = tr.verify_orbit_relation(fib_exp.split, fib_exp.split_data)
        assert res.holds
        assert res.machine_status == "equal"
        assert res.points_checked > 0

    def test_merge_with_its_data(self, fib_exp):
        assert tr.verify_orbit_relation(fib_exp.merge, fib_exp.merge_data).holds

    def test_identity_conjugacy_data(self, fib):
        t = tr.identity_transducer(fib)
        assert tr.verify_orbit_relation(t, tr.conjugacy_data(fib)).holds

    def test_negative_pre_shift_refused(self, fib):
        """A pre-shift of -1 would be read as a shift of +1."""
        h = tr.identity_transducer(fib)
        amount = coh.function(fib, 2, [0, 1, 1])
        with pytest.raises(FormatError, match="pre-shift must be nonnegative, got -1"):
            tr.shifted_image(h, amount, -1)

    def test_rational_shift_amount_refused(self, fib):
        h = tr.identity_transducer(fib)
        amount = coh.function(fib, 1, [Fraction(1, 2), 1], coh.RING_RAT)
        with pytest.raises(RationalNotSupported,
                           match="^shift amounts are nonnegative integers$"):
            tr.shifted_image(h, amount, 0)

    def test_negative_shift_amount_refused(self, fib):
        """A FormatError, as ``OrbitData`` gives for a negative exponent."""
        h = tr.identity_transducer(fib)
        amount = coh.function(fib, 2, [0, -1, 1])
        with pytest.raises(FormatError, match="^shift amounts must be nonnegative$"):
            tr.shifted_image(h, amount, 0)

    def test_split_with_wrong_data_fails(self, fib, fib_exp):
        bad = tr.OrbitData(coh.zero(fib), coh.unit(fib))
        res = tr.verify_orbit_relation(fib_exp.split, bad)
        assert not res.holds
        assert res.witness is not None
        assert res.witness[0] == 0           # divergence starts at symbol 1


class TestTransferPsi:
    def test_identity_transfer(self, fib):
        rng = random.Random(31)
        f = random_function(rng, fib, max_depth=2)
        t = tr.identity_transducer(fib)
        out = tr.transfer_psi(t, tr.conjugacy_data(fib), f)
        assert out == f

    def test_split_sends_unit_to_cocycle(self, fib, fib_exp):
        one = coh.unit(fib_exp.expanded)
        out = tr.transfer_psi(fib_exp.split, fib_exp.split_data, one)
        assert out == fib_exp.split_data.l1
        assert out == coh.add(coh.unit(fib), coh.indicator(fib, (0,)))

    def test_merge_sends_unit_to_indicator(self, fib, fib_exp):
        one = coh.unit(fib)
        out = tr.transfer_psi(fib_exp.merge, fib_exp.merge_data, one)
        expected = coh.subtract(coh.unit(fib_exp.expanded),
                                coh.indicator(fib_exp.expanded, (0,)))
        assert out == expected

    @given(seeds)
    def test_additive(self, fib, fib_exp, seed):
        rng = random.Random(seed)
        f = random_function(rng, fib_exp.expanded, max_depth=2)
        g = random_function(rng, fib_exp.expanded, max_depth=2)
        h, data = fib_exp.split, fib_exp.split_data
        lhs = tr.transfer_psi(h, data, coh.add(f, g))
        rhs = coh.add(tr.transfer_psi(h, data, f), tr.transfer_psi(h, data, g))
        assert lhs == rhs

    @given(seeds)
    def test_independent_of_common_padding(self, fib, fib_exp, seed):
        rng = random.Random(seed)
        f = random_function(rng, fib_exp.expanded, max_depth=2)
        h, data = fib_exp.split, fib_exp.split_data
        m = rng.randint(0, 2)
        padded = tr.OrbitData(coh.add(data.k1, coh.constant(fib, m)),
                              coh.add(data.l1, coh.constant(fib, m)))
        assert tr.transfer_psi(h, padded, f) == tr.transfer_psi(h, data, f)

    @given(seeds)
    def test_independent_of_functional_padding(self, fib, fib_exp, seed):
        rng = random.Random(seed)
        f = random_function(rng, fib_exp.expanded, max_depth=2)
        m = random_function(rng, fib, max_depth=2, low=0, high=2)
        h, data = fib_exp.split, fib_exp.split_data
        padded = tr.OrbitData(coh.add(data.k1, m), coh.add(data.l1, m))
        assert tr.verify_orbit_relation(h, padded).holds
        assert tr.transfer_psi(h, padded, f) == tr.transfer_psi(h, data, f)

    @given(seeds)
    def test_sends_coboundaries_to_coboundaries(self, fib, fib_exp, seed):
        rng = random.Random(seed)
        b = random_function(rng, fib_exp.expanded, max_depth=2)
        h, data = fib_exp.split, fib_exp.split_data
        img = tr.transfer_psi(h, data, coh.coboundary(b))
        assert coh.class_is_zero(img).is_coboundary

    @given(seeds)
    def test_preserves_positivity(self, fib, fib_exp, seed):
        rng = random.Random(seed)
        f = random_function(rng, fib_exp.expanded, max_depth=2, low=-2, high=2)
        if not coh.class_is_nonnegative(f).nonnegative:
            f = coh.subtract(f, coh.constant(fib_exp.expanded, f.min_value()))
        assert coh.class_is_nonnegative(f).nonnegative
        img = tr.transfer_psi(fib_exp.split, fib_exp.split_data, f)
        assert coh.class_is_nonnegative(img).nonnegative

    @given(seeds)
    def test_pointwise_formula(self, fib, fib_exp, seed):
        """Table evaluation agrees with the defining orbit-sum formula on
        eventually periodic points."""
        rng = random.Random(seed)
        f = random_function(rng, fib_exp.expanded, max_depth=2)
        h, data = fib_exp.split, fib_exp.split_data
        out = tr.transfer_psi(h, data, f)
        x = random_point(rng, fib)
        hx = tr.apply(h, x)
        hsx = tr.apply(h, shift_point_by(x, 1))
        lhs = sum(f.value_at_point(shift_point_by(hx, i))
                  for i in range(data.l1.value_at_point(x)))
        rhs = sum(f.value_at_point(shift_point_by(hsx, j))
                  for j in range(data.k1.value_at_point(x)))
        assert out.value_at_point(x) == lhs - rhs

    @given(seeds)
    def test_agrees_with_the_output_bound_depth(self, seed):
        """The least depth gives the function that the depth of the old
        output bound gave, in rings Z and Q."""
        rng = random.Random(seed)
        h, data = random_transfer_case(rng)
        f = random_function(rng, h.codomain, max_depth=2)
        if rng.random() < 0.5:
            f = coh.function(h.codomain, f.depth,
                             [Fraction(v, 3) for v in f.table], coh.RING_RAT)
        assert tr.transfer_psi(h, data, f) == output_bound_transfer(h, data, f)

    def test_least_depth_fits_the_word_cap(self):
        """Under a cap of 5 words the merge transfer of a depth-2 function
        on fib, expanded at its first vertex, reads B_3 of the expanded shift
        (5 words); the output bound over all words asked for B_7."""
        p = validate(((1, 1), (1, 0)), "vertex", limits=Limits(max_words=5))
        e = expand(p, 0)
        f = coh.function(p, 2, [1, 2, 3])
        out = tr.transfer_psi(e.merge, e.merge_data, f)
        # B_3 is 010 021 101 102 210: zero on the words that start with the
        # new symbol 0, else f on the merged words 00, 01 and 10
        assert out == coh.function(e.expanded, 3, [0, 0, 1, 2, 3])
        assert out == psi_eta(e, f)


class TestDetectors:
    def test_identity_is_eventual_conjugacy(self, fib):
        t = tr.identity_transducer(fib)
        d = tr.conjugacy_data(fib)
        res = tr.is_eventual_conjugacy(t, d, t, d)
        assert res.verdict

    def test_split_is_not_eventual_conjugacy(self, fib_exp):
        res = tr.is_eventual_conjugacy(
            fib_exp.split, fib_exp.split_data,
            fib_exp.merge, fib_exp.merge_data)
        assert not res.verdict

    def test_split_is_not_strong_coe_on_fibonacci(self, fib, fib_exp):
        res = tr.is_strong_coe(fib_exp.split, fib_exp.split_data)
        assert not res.verdict
        # hand computation at the fixed point 1^inf: transferred unit sums
        # to 2 over the period, the unit itself to 1
        assert coh.orbit_sum(res.unit_image, (0,)) == 2

    def test_strong_coe_for_conjugacy(self, fib):
        bc = tr.block_conjugacy(fib, 2)
        res = tr.is_strong_coe(bc.forward, bc.forward_data)
        assert res.verdict
        assert res.comparison.is_coboundary


class TestBlockConjugacy:
    def test_roundtrip_is_identity(self, fib):
        bc = tr.block_conjugacy(fib, 2)
        back_forth = tr.compose(bc.backward, bc.forward)
        res = tr.equivalent_maps(back_forth, tr.identity_transducer(fib),
                                 delay_bound=8)
        assert res.status == "equal"
        forth_back = tr.compose(bc.forward, bc.backward)
        target = bc.forward.codomain
        res2 = tr.equivalent_maps(forth_back, tr.identity_transducer(target),
                                  delay_bound=8)
        assert res2.status == "equal"

    def test_orbit_relations_hold(self, fib):
        bc = tr.block_conjugacy(fib, 2)
        assert tr.verify_orbit_relation(bc.forward, bc.forward_data).holds
        assert tr.verify_orbit_relation(bc.backward, bc.backward_data).holds

    def test_eventual_conjugacy(self, full2):
        bc = tr.block_conjugacy(full2, 2)
        res = tr.is_eventual_conjugacy(bc.forward, bc.forward_data,
                                       bc.backward, bc.backward_data)
        assert res.verdict

    def test_image_symbols_decode_to_blocks(self, fib):
        k = 2
        bc = tr.block_conjugacy(fib, k)
        x = parse_point(fib, "1:12")
        y = tr.apply(bc.forward, x)
        for i in range(6):
            sym = y.prefix(i + 1)[i]
            assert words(fib, k + 1)[sym] == x.prefix(i + k + 1)[i:i + k + 1]


    @given(seeds, st.integers(1, 3))
    def test_block_rules_match_word_reference(self, seed, k):
        """Vertex kind (even seed) and edge kind, parallel edges allowed:
        past the input buffer, the rules are those built from words, with a
        dict of B_k for the states and one of B_(k+1) for the symbols."""
        rng = random.Random(seed)
        p = random_edge_presentation(rng, 3) if seed % 2 else random_irreducible(rng, 4)
        while count_words(p, k) > 64:          # the block graph's vertex cap
            k -= 1
        full_index = {w: i for i, w in enumerate(words(p, k))}
        sym_of_word = {w: i for i, w in enumerate(words(p, k + 1))}
        base = sum(count_words(p, j) for j in range(k))
        want = []
        for w, i in full_index.items():
            for a in p.successors(w[-1]):
                block = w + (a,)
                want.append((base + i, a, base + full_index[block[1:]],
                             (sym_of_word[block],)))
        forward = tr.block_conjugacy(p, k).forward
        assert [r for r in forward.rules if r[0] >= base] == sorted(want)
        assert forward.n_states == base + len(full_index)

    @pytest.mark.parametrize("build", [higher_block, tr.block_conjugacy],
                             ids=["higher_block", "block_conjugacy"])
    def test_recodings_build_no_word_index(self, build, stray_caches):
        """The block graph is read off the word levels."""
        for rows, kind in ((((1, 1, 0), (0, 0, 1), (1, 1, 1)), "vertex"),
                           (((1, 2), (1, 0)), "edge")):
            for k in (1, 3):
                p = validate(rows, kind)
                build(p, k)
                assert stray_caches(p) == set()


# The word-keyed builders that the level-order machines replaced: the buffer
# states keyed by word tuples, h rerun from the start on each full buffer,
# and the block conjugacy's states and first symbols read off word tables.
def _ref_buffer(p, depth, on_full):
    ids = {w: i for i, w in enumerate(itertools.chain.from_iterable(
        words(p, length) for length in range(depth)))}
    rules = []
    for w, sid in ids.items():
        for a in p.successors(w[-1]) if w else range(p.alphabet_size):
            full = w + (a,)
            if len(full) < depth:
                rules.append((sid, a, ids[full], ()))
            else:
                q2, out = on_full(full)
                rules.append((sid, a, len(ids) + q2, out))
    return len(ids), rules


def _ref_shifted_image(h, amount, pre_shift):
    depth = max(amount.depth, pre_shift, 1)
    amount_at = dict(zip(words(h.domain, depth), coh.lift_table(amount, depth)))
    run_ids = {}

    def run_state(qh, drops):
        return run_ids.setdefault((qh, drops), len(run_ids))

    def on_full(full):
        qh, emitted = tr.run_on_word(h, full[pre_shift:])
        s = amount_at[full]
        return run_state(qh, max(s - len(emitted), 0)), emitted[s:]

    base, rules = _ref_buffer(h.domain, depth, on_full)

    def replay(key):
        qh, drops = key
        for (q, a), (q2, out) in sorted(h.table.items()):
            if q == qh:
                cut = min(drops, len(out))
                rules.append((base + run_ids[key], a,
                              base + run_state(q2, drops - cut), out[cut:]))
                yield a, (q2, drops - cut)

    bfs(list(run_ids), replay)
    return tr.make_transducer(h.domain, h.codomain, rules,
                              initial=0, n_states=base + len(run_ids))


def _ref_block_conjugacy(p, k):
    target = higher_block(p, k)
    full_index = {w: i for i, w in enumerate(words(p, k))}
    base, rules = _ref_buffer(p, k, lambda full: (full_index[full], ()))
    rules.extend((base + full_index[block[:-1]], block[-1],
                  base + full_index[block[1:]], (e,))
                 for e, block in enumerate(words(p, k + 1)))
    forward = tr.make_transducer(p, target, rules, initial=0,
                                 n_states=base + len(full_index))
    backward = tr.make_transducer(target, p, [(0, s, 0, (block[0],)) for s, block
                                              in enumerate(words(p, k + 1))])
    return forward, backward


def _machine(t):
    return t.rules, t.initial, t.n_states


def _level_machine_case(rng):
    """A presentation of either kind, a block length k with |B_k| within the
    block graph's vertex cap, and a machine on it or on its recoding: a block
    conjugacy either way, a split, a merge (vertex kind), a composite or the
    identity."""
    kind = rng.choice(["forward", "backward", "split", "merge", "compose", "identity"])
    edge = kind not in ("split", "merge") and rng.random() < 0.5
    p = random_edge_presentation(rng, 3) if edge else random_irreducible(rng, 3)
    k = rng.randint(1, 3)
    while count_words(p, k) > 64:
        k -= 1
    bc = tr.block_conjugacy(p, k)
    if kind in ("forward", "backward"):
        return p, k, getattr(bc, kind)
    if kind == "identity":
        return p, k, tr.identity_transducer(p)
    if kind == "compose" and edge:
        return p, k, tr.compose(bc.backward, bc.forward)
    e = expand(p, rng.randrange(p.n_vertices))
    return p, k, {"split": e.split, "merge": e.merge,
                  "compose": tr.compose(e.merge, e.split)}[kind]


class TestLevelOrderMachines:
    @given(seeds)
    def test_match_the_word_keyed_builders(self, seed):
        """Amount depths 1-3 and pre-shifts 0-3, cut back together while
        B_D is over 400 words: the same rules, initial state and state count
        as the builders keyed by words."""
        rng = random.Random(seed)
        p, k, h = _level_machine_case(rng)
        ref_forward, ref_backward = _ref_block_conjugacy(p, k)
        bc = tr.block_conjugacy(p, k)
        assert _machine(bc.forward) == _machine(ref_forward)
        assert _machine(bc.backward) == _machine(ref_backward)

        depth, pre_shift = rng.randint(1, 3), rng.randint(0, 3)
        while count_words(h.domain, max(depth, pre_shift)) > 400:
            depth, pre_shift = max(depth - 1, 1), max(pre_shift - 1, 0)
        amount = random_function(rng, h.domain, max_depth=depth, low=0, high=2)
        assert _machine(tr.shifted_image(h, amount, pre_shift)) == \
            _machine(_ref_shifted_image(h, amount, pre_shift))

        index = {w: i for i, w in enumerate(words(h.domain, depth))}
        assert tr._buffer(h.domain, depth, lambda c: (c % 3, (c,))) == \
            _ref_buffer(h.domain, depth, lambda w: (index[w] % 3, (index[w],)))

    @pytest.mark.parametrize("pre_shift", [0, 1, 3])
    def test_shifted_image_builds_no_word_tables(self, pre_shift, stray_caches,
                                                 no_word_tables):
        """The buffer and h's runs are read off the word levels."""
        for rows, kind in ((((1, 1, 0), (0, 0, 1), (1, 1, 1)), "vertex"),
                           (((1, 2), (1, 0)), "edge")):
            p = validate(rows, kind)
            amount = coh.function(p, 2, [i % 3 for i in range(count_words(p, 2))])
            tr.shifted_image(sigma_machine(p), amount, pre_shift)
            assert stray_caches(p) == set()


class TestTransducerText:
    def test_roundtrip(self, fib, fib_exp):
        text = tr.format_transducer_text(fib_exp.split, "fib", "exp")
        t = tr.parse_transducer_text(text, fib, fib_exp.expanded)
        assert t.rules == fib_exp.split.rules
        assert t.initial == fib_exp.split.initial

    def test_header_id_check(self, fib):
        t = tr.identity_transducer(fib)
        text = tr.format_transducer_text(t, "fib", "fib")
        with pytest.raises(FormatError):
            tr.parse_transducer_text(text, fib, fib, domain_id="other")

    def test_empty_output_dash(self, fib, fib_exp):
        text = tr.format_transducer_text(fib_exp.merge, "exp", "fib")
        assert " -\n" in text or text.endswith(" -")
        t = tr.parse_transducer_text(text, fib_exp.expanded, fib)
        assert t.rules == fib_exp.merge.rules

    def test_bool_fields_roundtrip(self, fib):
        """A machine built directly from bools holds the ints they read as,
        as make_transducer's does, so its text reads back."""
        rules = ((False, False, False, (False,)), (False, True, False, (True,)))
        t = tr.Transducer(fib, fib, True, False, rules)
        assert t == tr.make_transducer(fib, fib, rules, initial=False, n_states=True)
        entries = [t.n_states, t.initial,
                   *itertools.chain.from_iterable((q, a, q2, *out) for q, a, q2, out in t.rules)]
        assert {type(v) for v in entries} == {int}
        text = tr.format_transducer_text(t, "fib", "fib")
        assert text.splitlines()[0] == "transducer fib fib states=1 initial=0"
        assert tr.parse_transducer_text(text, fib, fib) == t

    def test_bad_rule_line(self, fib):
        text = "transducer a b states=1 initial=0\n0 1 -> 0\n"
        with pytest.raises(FormatError):
            tr.parse_transducer_text(text, fib, fib)

"""Invariant reports and the flow-equivalence / orbit-equivalence verdicts,
plus the witness consistency tripwire."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import sftlab.classify as cl
import sftlab.cohomology as coh
import sftlab.moves as mv
import sftlab.transducers as tr
from sftlab.errors import (
    ContradictionDetected,
    InvalidResult,
    PresentationMismatch,
)
from sftlab.randgen import random_irreducible
from sftlab.shifts import validate

seeds = st.integers(0, 10**6)

# two eigenvalues above 1 flip the determinant sign to +1
POSDET = ((3, 1), (1, 3))


def sigma_machine(p):
    """One-symbol delay: skips the first input, then copies; computes the
    shift map."""
    rules = [(0, a, 1, ()) for a in range(p.alphabet_size)]
    rules += [(1, a, 1, (a,)) for a in range(p.alphabet_size)]
    return tr.make_transducer(p, p, rules, n_states=2)


def _two_detector_report(pa, pb, witness):
    """consistency_check on a witness it accepts, with eventual conjugacy
    from ``is_eventual_conjugacy`` and strong COE from two ``class_equal``
    calls of its own, and the backward unit image left out of the report."""
    verdict = cl.coe_verdict(pa, pb)
    conj = tr.is_eventual_conjugacy(witness.forward, witness.forward_data,
                                    witness.backward, witness.backward_data)
    c1_fwd, c1_bwd = conj.forward_unit_image, conj.backward_unit_image
    strong = (coh.class_equal(c1_fwd, coh.unit(pa)).is_coboundary
              and coh.class_equal(c1_bwd, coh.unit(pb)).is_coboundary)
    return cl.ConsistencyReport(verdict, True, c1_fwd, conj.verdict, strong)


def identity_witness(p):
    ident = tr.identity_transducer(p)
    data = tr.conjugacy_data(p)
    return cl.CoeWitness(ident, data, ident, data)


class TestInvariants:
    def test_fibonacci(self, fib):
        rep = cl.invariants(fib)
        assert rep.bf_group.describe() == "0"
        assert rep.det_sign == -1
        lo, hi = rep.spectral_radius_bounds
        # the spectral radius is the golden ratio, the root of x^2 = x + 1
        assert lo * lo <= lo + 1 and hi * hi >= hi + 1
        assert lo <= hi

    def test_full_shifts(self, full2, full3):
        r2 = cl.invariants(full2)
        assert r2.bf_group.describe() == "0"
        assert r2.det_sign == -1
        assert r2.spectral_radius_bounds == (Fraction(2), Fraction(2))
        r3 = cl.invariants(full3)
        assert r3.bf_group.describe() == "Z/2"
        assert r3.det_sign == -1
        assert r3.spectral_radius_bounds == (Fraction(3), Fraction(3))

    def test_positive_sign(self):
        rep = cl.invariants(validate(POSDET, "edge"))
        assert rep.det_sign == 1
        assert rep.bf_group.describe() == "Z/3"

    def test_pointed_group_matches_bf_size(self, full3):
        rep = cl.invariants(full3)
        assert rep.k0_pointed.group == rep.bf_group

    @given(seeds)
    def test_bounds_enclose_an_eigenvalue(self, seed):
        """Collatz-Wielandt: some eigenvalue ratio lies between the extremes,
        so the bounds are ordered and at least 1 for irreducible matrices."""
        rng = random.Random(seed)
        p = random_irreducible(rng, 6)
        lo, hi = cl.invariants(p).spectral_radius_bounds
        assert 1 <= lo <= hi


class TestFlowEquivalent:
    def test_yes(self, fib, full2):
        rep = cl.flow_equivalent(fib, full2)
        assert rep.verdict is True
        assert "isomorphic" in rep.reason

    def test_no_by_group(self, full2, full3):
        rep = cl.flow_equivalent(full2, full3)
        assert rep.verdict is False
        assert "group" in rep.reason

    def test_no_by_sign(self, full3):
        rep = cl.flow_equivalent(validate(POSDET, "edge"), full3)
        assert rep.verdict is False
        assert "sign" in rep.reason

    @given(seeds)
    def test_expansion_preserves_verdict(self, seed):
        rng = random.Random(seed)
        p = random_irreducible(rng, 6)
        e = mv.expand(p, rng.randrange(p.n_vertices))
        assert cl.flow_equivalent(p, e.expanded).verdict is True

    @given(seeds)
    def test_reflexive_and_symmetric(self, seed):
        rng = random.Random(seed)
        pa = random_irreducible(rng, 5)
        pb = random_irreducible(rng, 5)
        assert cl.flow_equivalent(pa, pa).verdict is True
        assert (cl.flow_equivalent(pa, pb).verdict
                == cl.flow_equivalent(pb, pa).verdict)


class TestCoeVerdict:
    def test_same_presentation(self, fib):
        assert cl.coe_verdict(fib, fib).verdict == "yes"

    def test_fibonacci_full2(self, fib, full2):
        rep = cl.coe_verdict(fib, full2)
        assert rep.verdict == "yes"
        assert rep.iso is not None and rep.iso.verdict == "yes"

    def test_no_by_group(self, full2, full3):
        rep = cl.coe_verdict(full2, full3)
        assert rep.verdict == "no"

    def test_no_by_sign(self, full3):
        rep = cl.coe_verdict(validate(POSDET, "edge"), full3)
        assert rep.verdict == "no"
        assert "sign" in rep.reason

    @given(seeds)
    def test_yes_implies_flow_equivalent(self, seed):
        rng = random.Random(seed)
        pa = random_irreducible(rng, 5)
        pb = random_irreducible(rng, 5)
        if cl.coe_verdict(pa, pb).verdict == "yes":
            assert cl.flow_equivalent(pa, pb).verdict is True

    def test_expansion_can_change_the_verdict(self):
        """Expansion preserves flow equivalence but can move the marked unit
        class, so the orbit-equivalence verdict may legitimately flip."""
        p = validate(((0, 0, 0, 1, 0), (1, 0, 1, 0, 1), (0, 1, 0, 1, 1),
                      (0, 0, 0, 0, 1), (0, 0, 1, 0, 0)))
        e = mv.expand(p, 0)
        assert cl.flow_equivalent(p, e.expanded).verdict is True
        assert cl.coe_verdict(p, e.expanded).verdict == "no"


class TestConsistencyCheck:
    def test_without_witness(self, fib):
        rep = cl.consistency_check(fib, fib)
        assert rep.coe.verdict == "yes"
        assert rep.witness_verified is False
        assert rep.eventual_conjugacy is None and rep.strong_coe is None

    def test_identity_witness(self, fib):
        rep = cl.consistency_check(fib, fib, identity_witness(fib))
        assert rep.witness_verified is True
        assert rep.unit_image_forward == coh.unit(fib)
        assert rep.eventual_conjugacy is True
        assert rep.strong_coe is True

    def test_expansion_pair_rejected(self, fib):
        """Split and merge satisfy their orbit relations but split misses
        every point that starts inside an inserted block, so the pair does
        not invert on the expanded side and is refused as a witness."""
        e = mv.expand(fib)
        for machine, data in ((e.split, e.split_data),
                              (e.merge, e.merge_data)):
            assert tr.verify_orbit_relation(machine, data).holds
        witness = cl.CoeWitness(e.split, e.split_data, e.merge, e.merge_data)
        with pytest.raises(InvalidResult):
            cl.consistency_check(fib, e.expanded, witness)

    def test_block_witness(self, fib):
        bc = tr.block_conjugacy(fib, 2)
        witness = cl.CoeWitness(bc.forward, bc.forward_data,
                                bc.backward, bc.backward_data)
        rep = cl.consistency_check(fib, bc.forward.codomain, witness)
        assert rep.witness_verified is True
        assert rep.eventual_conjugacy is True
        assert rep.strong_coe is True

    def test_wrong_presentation_rejected(self, fib, full2):
        with pytest.raises(PresentationMismatch):
            cl.consistency_check(full2, full2, identity_witness(fib))
        with pytest.raises(PresentationMismatch):
            cl.consistency_check(fib, full2, identity_witness(fib))

    def test_wrong_data_rejected(self, fib):
        ident = tr.identity_transducer(fib)
        bad = tr.OrbitData(coh.zero(fib), coh.zero(fib))
        witness = cl.CoeWitness(ident, bad, ident, bad)
        with pytest.raises(InvalidResult):
            cl.consistency_check(fib, fib, witness)

    def test_non_inverse_pair_rejected(self, fib):
        """Two shift machines satisfy their orbit relations but compose to
        the square of the shift, not the identity."""
        sigma = sigma_machine(fib)
        data = tr.conjugacy_data(fib)
        witness = cl.CoeWitness(sigma, data, sigma, data)
        with pytest.raises(InvalidResult):
            cl.consistency_check(fib, fib, witness)

    def test_contradiction_tripwire(self, fib, monkeypatch):
        """A verified witness against a `no` verdict must raise, not return."""
        real = cl.coe_verdict(fib, fib)
        fake = cl.CoeReport("no", "stubbed for the tripwire", None,
                            real.a, real.b)
        monkeypatch.setattr(cl, "coe_verdict", lambda *a, **k: fake)
        with pytest.raises(ContradictionDetected):
            cl.consistency_check(fib, fib, identity_witness(fib))

    @pytest.mark.parametrize("shift", ["fib", "full2", "full3"])
    @pytest.mark.parametrize("k", [0, 1, 2, 3],
                             ids=lambda k: f"block{k}" if k else "identity")
    def test_matches_the_two_detector_body(self, shift, k, request, monkeypatch):
        """The report, and the transfers and class comparisons made, are
        those of a body that asks ``is_eventual_conjugacy`` and then
        compares each unit image with 1 by ``class_equal``."""
        p = request.getfixturevalue(shift)
        # the machine check decides each orbit relation; fewer cross-checked
        # points keep the full 3-shift's cases fast
        monkeypatch.setattr(tr, "POINT_CHECK_PERIOD", 3)
        if k:
            bc = tr.block_conjugacy(p, k)
            q = bc.forward.codomain
            witness = cl.CoeWitness(bc.forward, bc.forward_data,
                                    bc.backward, bc.backward_data)
        else:
            q, witness = p, identity_witness(p)
        calls = {"transfer_psi": [], "class_equal": []}
        for module, name in ((tr, "transfer_psi"), (coh, "class_equal")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, real=real, log=calls[name]:
                                log.append(a) or real(*a))
        report = cl.consistency_check(p, q, witness)
        made = {name: log[:] for name, log in calls.items()}
        for log in calls.values():
            log.clear()
        assert report == _two_detector_report(p, q, witness)
        assert made == calls
        assert report.eventual_conjugacy is report.strong_coe is True

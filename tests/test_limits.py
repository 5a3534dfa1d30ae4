"""A Limits object passed by the caller is honoured on every path of the
function transfers, also when the environment sets a smaller word cap."""
from __future__ import annotations

from fractions import Fraction

import pytest

import sftlab.actions as act
import sftlab.cohomology as coh
import sftlab.moves as mv
import sftlab.transducers as tr
from sftlab import Limits
from sftlab.config import MAX_WORDS_ENV
from sftlab.errors import EnvelopeExceeded
from sftlab.shifts import periodic_point


@pytest.fixture
def tiny_env_cap(monkeypatch):
    """|B_2| of the Fibonacci shift is 3; the environment allows 2."""
    monkeypatch.setenv(MAX_WORDS_ENV, "2")


def test_environment_cap_applies_without_limits(fib, tiny_env_cap):
    with pytest.raises(EnvelopeExceeded):
        coh.function(fib, 2, [1, 2, 3])


def test_function_and_kernel(fib, tiny_env_cap):
    lim = Limits()
    f = coh.function(fib, 2, [1, 2, 3], limits=lim)
    assert f.depth == 2
    assert coh.window_sums(f, [((0, 1, 0), 2)], lim) == [2 + 3]
    assert f.value_on_word((1, 0), lim) == 3
    assert f.value_at_point(periodic_point(fib, (), (0, 1)), lim) == 2
    assert coh.orbit_sum(f, (0, 1), lim) == 5
    assert coh.partial_sum(f, 2, lim).depth == 3
    assert coh.zero(fib, lim).is_zero()
    assert coh.unit(fib, lim) == coh.constant(fib, 1, coh.RING_INT, lim)


def test_phase(fib, tiny_env_cap):
    lim = Limits()
    a = act.action(coh.function(fib, 2, [1, 2, 3], limits=lim))
    x = periodic_point(fib, (), (0,))
    assert act.evaluate_phase(a, (0, 1), Fraction(1, 7), x, lim) == Fraction(5, 7)


def test_elementary_transfers(tiny_env_cap):
    lim = Limits()
    ee = mv.elementary(((1, 1),), ((1,), (1,)), lim)     # B = DC has 4 edges
    f = coh.function(ee.a, 2, [1, 2, 3, 4], limits=lim)
    g = coh.function(ee.b, 1, [1, 2, 3, 4], limits=lim)
    assert mv.psi(ee, mv.phi(ee, f, lim), lim) == coh.pullback_sigma(f, lim)
    assert mv.phi(ee, mv.psi(ee, g, lim), lim) == coh.pullback_sigma(g, lim)


def test_expansion_transfers(fib, tiny_env_cap):
    lim = Limits()
    e = mv.expand(fib, 0, lim)
    f = coh.function(fib, 2, [1, 2, 3], limits=lim)
    assert mv.psi_xi(e, mv.psi_eta(e, f, lim), lim) == f
    ft = coh.unit(e.expanded, lim)
    assert tr.transfer_psi(e.split, e.split_data, ft, lim) == mv.psi_xi(e, ft, lim)


def test_orbit_maps_and_detectors(fib, tiny_env_cap):
    lim = Limits()
    h = tr.identity_transducer(fib)
    data = tr.conjugacy_data(fib, lim)
    amount = coh.function(fib, 2, [0, 1, 1], limits=lim)
    assert tr.shifted_image(h, amount, 0, lim).domain == fib
    assert tr.verify_orbit_relation(h, data, lim).holds
    assert tr.is_eventual_conjugacy(h, data, h, data, lim).verdict
    assert tr.is_strong_coe(h, data, lim).verdict

"""Circle actions on the Cuntz-Krieger algebra of a presentation, held as
their integer classifier functions.

An action is a locally constant integer function f: the canonical generator
indexed by an admissible word mu is rotated by the partial sum of f over
|mu| steps (``cohomology.partial_sum``).  So actions need no object of their
own: composition adds classifiers (``cohomology.add``), the gauge action is
``cohomology.unit`` and the trivial one ``cohomology.zero``, and the order
on classes is ``cohomology.class_is_nonnegative``.  What is particular to
actions stays here: the integer refusal, equivalence with its witness
oriented from the first action to the second, and the exact phase.
"""
from __future__ import annotations

from fractions import Fraction

from . import cohomology as coh
from .errors import Inadmissible, PresentationMismatch, RationalNotSupported
from .shifts import EventuallyPeriodicPoint, Word


def action(f: coh.LocallyConstantFunction) -> coh.LocallyConstantFunction:
    """f as the classifier of an action: refused unless integer-valued."""
    if f.ring != coh.RING_INT:
        raise RationalNotSupported("classifiers are integer-valued")
    return f


def equivalent(a: coh.LocallyConstantFunction,
               b: coh.LocallyConstantFunction) -> coh.CoboundaryResult:
    """Unitary equivalence of the actions with classifiers a and b: are they
    cohomologous?  The witness potential generates the intertwining
    one-parameter unitary family; it is oriented so that its coboundary is
    the second classifier minus the first, and a no's ``cycle_sum`` is the
    orbit sum of that difference."""
    return coh.class_equal(b, a)


def evaluate_phase(f: coh.LocallyConstantFunction, mu: Word, t: Fraction,
                   x: EventuallyPeriodicPoint) -> Fraction:
    """Exact phase in [0, 1) by which the action with classifier f rotates
    the generator of mu at the point mu.x, for a rational circle parameter t."""
    p = f.presentation
    if x.presentation != p:
        raise PresentationMismatch("point lives on a different presentation")
    mu = tuple(mu)
    p.check_admissible(mu)
    n = len(mu)
    need = max(n - 1, 0) + f.depth
    stream = mu + x.prefix(need)
    if mu and not p.follow(mu[-1], stream[n]):
        raise Inadmissible(
            f"word {p.word_label(mu)} cannot precede the point {x.label()}")
    if not p.is_admissible(stream):
        raise Inadmissible("concatenated word-point stream is not admissible")
    total = coh.window_sums(f, [(stream, n)])[0]
    return (Fraction(t) * total) % 1

"""Circle actions on the Cuntz-Krieger algebra of a presentation, handled
entirely through their integer classifier functions.

An action is determined by a locally constant integer function f: the
canonical generator indexed by an admissible word mu is rotated by the
partial sum of f over |mu| steps.  Composition of actions adds classifiers,
equivalence (unitary conjugacy by a diagonal one-parameter family) is
equality of cohomology classes, and the order structure on classes matches
the operational cone from the cohomology module.  The gauge action is the
classifier 1.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import cohomology as coh
from .errors import Inadmissible, PresentationMismatch, RationalNotSupported
from .shifts import EventuallyPeriodicPoint, SftPresentation, Word


@dataclass(frozen=True)
class CircleAction:
    """A circle action, held as its integer classifier alone."""

    classifier: coh.LocallyConstantFunction

    def __post_init__(self):
        if self.classifier.ring != coh.RING_INT:
            raise RationalNotSupported("classifiers are integer-valued")

    @property
    def presentation(self) -> SftPresentation:
        return self.classifier.presentation


def action(f: coh.LocallyConstantFunction) -> CircleAction:
    return CircleAction(f)


def gauge_action(p: SftPresentation) -> CircleAction:
    """The gauge action: classifier constant 1."""
    return CircleAction(coh.unit(p))


def trivial_action(p: SftPresentation) -> CircleAction:
    return CircleAction(coh.zero(p))


def compose(a: CircleAction, b: CircleAction) -> CircleAction:
    """Pointwise composition of the two actions; classifiers add."""
    return CircleAction(coh.add(a.classifier, b.classifier))


def inverse(a: CircleAction) -> CircleAction:
    return CircleAction(coh.negate(a.classifier))


def equivalent(a: CircleAction, b: CircleAction) -> coh.CoboundaryResult:
    """Unitary equivalence of the two actions: are the classifiers
    cohomologous?  The witness potential generates the intertwining
    one-parameter unitary family; it is oriented so that its coboundary is
    the second classifier minus the first."""
    return coh.class_equal(b.classifier, a.classifier)


def class_nonnegative(a: CircleAction) -> coh.PositivityResult:
    """Order relation against the trivial action."""
    return coh.class_is_nonnegative(a.classifier)


def is_order_unit(a: CircleAction) -> bool:
    return coh.order_unit_check(a.classifier)


@dataclass(frozen=True)
class PhaseExponent:
    """Rotation exponent attached to the generator of an admissible word:
    the |word|-step partial sum of the classifier."""

    word: Word
    exponent: coh.LocallyConstantFunction


def phase_on_word(a: CircleAction, mu: Word) -> PhaseExponent:
    a.presentation.check_admissible(tuple(mu))
    return PhaseExponent(tuple(mu),
                         coh.partial_sum(a.classifier, len(mu)))


def evaluate_phase(a: CircleAction, mu: Word, t: Fraction,
                   x: EventuallyPeriodicPoint) -> Fraction:
    """Exact phase in [0, 1) by which the generator of mu is rotated at the
    point mu.x, for a rational circle parameter t."""
    p = a.presentation
    if x.presentation != p:
        raise PresentationMismatch("point lives on a different presentation")
    mu = tuple(mu)
    p.check_admissible(mu)
    n = len(mu)
    f = a.classifier
    need = max(n - 1, 0) + f.depth
    stream = mu + x.prefix(need)
    if mu and not p.follow(mu[-1], stream[n]):
        raise Inadmissible(
            f"word {p.word_label(mu)} cannot precede the point {x.label()}")
    if not p.is_admissible(stream):
        raise Inadmissible("concatenated word-point stream is not admissible")
    total = coh.window_sums(f, [(stream, n)])[0]
    return (Fraction(t) * total) % 1

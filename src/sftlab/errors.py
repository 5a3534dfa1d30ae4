"""Exception types shared across the library.

Error classes carry the name of the violated contract; messages add the
offending data.  Every refusal is an SftError, raised by the code that owns
the check, so ``cli.run`` alone turns it into one ``error:`` line (exit 1
for ContradictionDetected, 2 otherwise).  FormatError is also a ValueError,
for callers that catch the built-in.

FrozenField and FieldMismatch are not SftErrors: they guard the package's
own records (``sftlab.record``) against misuse by code, not against input,
so like the built-in errors they subclass they end a run with a traceback.
"""


class SftError(Exception):
    """Base class for all library errors."""


# ---------------------------------------------------------------- matrices

class NegativeEntry(SftError):
    pass


class NotZeroOne(SftError):
    pass


class PermutationMatrix(SftError):
    pass


class NotIrreducible(SftError):
    pass


class EnvelopeExceeded(SftError):
    """Input outside the supported size envelope (vertex count or word count)."""


class NotVertexKind(SftError):
    pass


# ------------------------------------------------------------ words/points

class Inadmissible(SftError):
    pass


class NotCyclicallyAdmissible(SftError):
    pass


# ---------------------------------------------------------------- functions

class PresentationMismatch(SftError):
    pass


class MismatchedInput(SftError):
    pass


class RationalNotSupported(SftError):
    """A ring-Q function where only integer values are defined: positivity
    decisions and the order-unit test, classifiers, cocycle exponents and
    shift amounts."""


# --------------------------------------------------------------- transducers

class IncompleteTransducer(SftError):
    """Missing transition for a reachable state and admissible input symbol."""


class Starvation(SftError):
    """A reachable cycle of the transition graph emits no output."""


class InadmissibleOutput(SftError):
    pass


class InsufficientLookahead(SftError):
    """Configured depth/delay bounds too small to settle the question."""


# ------------------------------------------------------------- moves/verdicts

class InvalidResult(SftError):
    """A constructed matrix fails presentation validation."""


class ContradictionDetected(SftError):
    """Tripwire: a verified witness contradicts an invariant verdict."""


def require(cond: bool, message: str) -> None:
    """A certificate re-check that ``python -O`` keeps (CLI exit code 1)."""
    if not cond:
        raise ContradictionDetected(message)


class FormatError(SftError, ValueError):
    """Malformed input: a file, a token, or an argument out of range."""


# ------------------------------------------------------------------ records

class FrozenField(AttributeError):
    """Assignment to or deletion of an attribute of a record."""


class FieldMismatch(TypeError):
    """A record built with a missing, unknown or repeated field."""

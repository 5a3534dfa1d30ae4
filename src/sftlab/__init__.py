"""Exact combinatorial invariants of one-sided shifts of finite type.

Everything is computed over the integers (or exact rationals): admissible
words, ordered cohomology of locally constant functions with verified
witnesses, circle actions classified by integer functions, finite-state
machines presenting continuous maps with their cocycle data and transfer
operators, matrix moves (vertex expansion, elementary equivalence), and
decidable flow-equivalence / orbit-equivalence verdicts from cokernel
invariants.
"""

__version__ = "0.1.0"

from .config import Limits, default_limits
from .errors import SftError
from .shifts import (
    EventuallyPeriodicPoint,
    SftPresentation,
    higher_block,
    parse_point,
    periodic_point,
    validate,
    words,
)

__all__ = [
    "EventuallyPeriodicPoint",
    "Limits",
    "SftError",
    "SftPresentation",
    "default_limits",
    "higher_block",
    "parse_point",
    "periodic_point",
    "validate",
    "words",
    "__version__",
]

"""The two input-size caps: vertices of a presentation, words in a table.

Both live in one frozen dataclass so call sites can thread a single object
through.  The word cap can be overridden with the SFTLAB_MAX_WORDS
environment variable.  The bounds of the searches and checks (pointed-iso
budget, SSE attempt budget, delay slack, point-check bounds) are constants
next to their one reader.

Limits are resolved only where a cap is read (``shifts.words`` and
``shifts.validate``, plus the CLI once per command); every other function
passes its ``limits`` on untouched, ``None`` included, so a caller's Limits
reach both readers.
"""
from __future__ import annotations

import functools
import os
from dataclasses import dataclass

from .errors import FormatError

MAX_WORDS_ENV = "SFTLAB_MAX_WORDS"


@dataclass(frozen=True)
class Limits:
    max_vertices: int = 64
    max_words: int = 1_000_000        # cap on any B_k enumeration


def default_limits() -> Limits:
    """Limits with the environment override applied.  Re-read on each call;
    a malformed value raises FormatError."""
    return _limits_for(os.environ.get(MAX_WORDS_ENV))


@functools.lru_cache(maxsize=None)
def _limits_for(cap: str | None) -> Limits:
    if cap is None:
        return Limits()
    try:
        value = int(cap)
    except ValueError:
        raise FormatError(f"{MAX_WORDS_ENV} must be an integer, got {cap!r}") from None
    if value <= 0:
        raise FormatError(f"{MAX_WORDS_ENV} must be positive, got {value}")
    return Limits(max_words=value)

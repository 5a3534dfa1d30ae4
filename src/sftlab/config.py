"""The two input-size caps: vertices of a presentation, words in a table.

Both live in one frozen dataclass, given where a presentation is built and
kept on it (``SftPresentation.limits``); presentations derived from it
inherit them.  The word cap can be overridden with the SFTLAB_MAX_WORDS
environment variable.  The bounds of the searches and checks (SSE attempt
budget, delay slack, point-check bounds) are constants next to their one
reader.

Limits are resolved only where a cap is read: ``shifts.validate`` reads the
vertex cap of the caller's Limits, ``shifts._check_word_cap`` the word cap
of the presentation's, and the CLI resolves once per command.  Every word
table and word level goes through that one reader: ``shifts.word_level``
calls it before it builds a level, and ``shifts.words`` through
``word_level``.  A presentation built without Limits (``None``) reads the
environment on each word-table request.
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

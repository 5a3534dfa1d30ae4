"""The two input-size caps: vertices of a presentation, words in a table.

Both live in one record, ``Limits``, kept on each presentation
(``SftPresentation.limits``); presentations derived from it inherit them.
The word cap can be overridden with the SFTLAB_MAX_WORDS environment
variable.  The bounds of the searches and checks (SSE attempt budget, delay
slack, point-check bounds) are constants next to their one reader.  The
three default ``sse-search`` bounds have two readers, ``moves.sse_search``
and the CLI parser, so they are held here.

Limits are resolved in one place: ``shifts.validate``, the one function that
takes them, stores the caller's Limits as given, or else ``default_limits()``,
which every other builder from raw matrices gets.  The environment is read
when a presentation is built, not on each word-table request; changing it
later affects only presentations built later.  ``shifts.validate`` reads the
vertex cap and ``shifts._check_word_cap`` the word cap, and every word table
and word level goes through that one reader.
"""
from __future__ import annotations

import os

from .errors import FormatError
from .record import Record

MAX_WORDS_ENV = "SFTLAB_MAX_WORDS"

# default inner dimension, entry and chain-length bounds of sse_search
SSE_INNER_DIM, SSE_ENTRY_BOUND, SSE_CHAIN_BOUND = 3, 2, 3


class Limits(Record):
    max_vertices: int = 64
    max_words: int = 1_000_000        # cap on any B_k enumeration


# the caps without an override; a record is frozen, so one serves every call
_DEFAULTS = Limits()


def default_limits() -> Limits:
    """Limits with the environment override applied.  Re-read on each call;
    a malformed value raises FormatError."""
    cap = os.environ.get(MAX_WORDS_ENV)
    if cap is None:
        return _DEFAULTS
    try:
        value = int(cap)
    except ValueError:
        raise FormatError(f"{MAX_WORDS_ENV} must be an integer, got {cap!r}") from None
    if value <= 0:
        raise FormatError(f"{MAX_WORDS_ENV} must be positive, got {value}")
    return Limits(max_words=value)

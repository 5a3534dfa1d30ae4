"""Resource bounds used by enumeration-heavy operations.

All limits live in one frozen dataclass so call sites can thread a single
object through.  The word-enumeration cap can be overridden with the
SFTLAB_MAX_WORDS environment variable; everything else is code-level.

Limits are resolved only where a field is read (``shifts.words`` and
``validate``, ``linalg.pointed_iso``, ``moves.sse_search``,
``transducers.default_delay_bound`` and ``verify_orbit_relation``, plus the
CLI once per command); every other function passes its ``limits`` on
untouched, ``None`` included, so a caller's Limits reach every reader.
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
    delay_slack: int = 8              # added to the product-size delay default
    point_check_preperiod: int = 4    # orbit-relation cross-check bounds
    point_check_period: int = 6
    pointed_iso_budget: int = 2_000_000   # candidate images tried before giving up
    sse_inner_dim: int = 3
    sse_entry_bound: int = 2
    sse_chain_bound: int = 3
    sse_node_budget: int = 20_000     # factorizations examined before NotFound


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

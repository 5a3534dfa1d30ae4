"""Seeded random instances for ``sftlab selftest`` and
``scripts/explore_random_moves.py``: irreducible presentations, functions
on them and elementary equivalences.

Everything takes an explicit random.Random so runs are reproducible from a
single seed.  Generators retry until validation passes; the constructions
make failure rare (a random full cycle guarantees irreducibility).  Only the
rejections a random candidate can hit are retried: a cap of the environment
that refuses a candidate, or a malformed one, is raised instead of looping."""
from __future__ import annotations

import random

from . import cohomology as coh
from .errors import InvalidResult, PermutationMatrix
from .moves import ElementaryEquivalence, elementary
from .shifts import SftPresentation, validate, word_level


def random_irreducible(rng: random.Random, n_max: int = 6) -> SftPresentation:
    """Random 0-1 irreducible non-permutation presentation."""
    while True:
        n = rng.randint(2, n_max)
        rows = [[0] * n for _ in range(n)]
        cycle = list(range(n))
        rng.shuffle(cycle)
        for i in range(n):
            rows[cycle[i]][cycle[(i + 1) % n]] = 1
        extra = rng.randint(1, n)
        for _ in range(extra):
            rows[rng.randrange(n)][rng.randrange(n)] = 1
        try:
            return validate(tuple(tuple(r) for r in rows), "vertex")
        except PermutationMatrix:
            continue


def random_function(rng: random.Random, p: SftPresentation,
                    max_depth: int = 3, low: int = -5,
                    high: int = 5) -> coh.LocallyConstantFunction:
    depth = rng.randint(1, max_depth)
    table = [rng.randint(low, high) for _ in range(word_level(p, depth).offsets[-1])]
    return coh.function(p, depth, table, coh.RING_INT)


def random_elementary(rng: random.Random, outer_max: int = 4, inner_max: int = 4,
                      entry_max: int = 2) -> ElementaryEquivalence:
    """Random valid elementary equivalence A = CD, B = DC."""
    while True:
        n = rng.randint(1, outer_max)
        m = rng.randint(1, inner_max)
        c = [[rng.randint(0, entry_max) for _ in range(m)] for _ in range(n)]
        d = [[rng.randint(0, entry_max) for _ in range(n)] for _ in range(m)]
        try:
            return elementary(c, d)
        except InvalidResult:
            continue

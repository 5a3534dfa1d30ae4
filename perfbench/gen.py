"""Seeded input generation in plain Python.

Nothing here calls sftlab: the inputs are matrices, value tables and small
integer vectors, so generating them neither warms the library's caches nor
depends on the library's speed.  Word counts are path counts of matrix
powers, computed here independently of ``sftlab.shifts.count_words``.
"""
from __future__ import annotations

import math
import random

Matrix = tuple[tuple[int, ...], ...]


def mat_mul(a, b) -> Matrix:
    bt = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt)
                 for row in a)


def path_count(m: Matrix, length: int) -> int:
    """Sum of the entries of m**length (length >= 0)."""
    n = len(m)
    acc = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    for _ in range(length):
        acc = mat_mul(acc, m)
    return sum(map(sum, acc))


def length_reaching(m: Matrix, kind: str, target: int, k_max: int = 64):
    """Least k with |B_k| >= target (vertex or edge presentation), or None."""
    n = len(m)
    row = (1,) * n                      # row sums of m**j, j = 0, 1, ...
    for j in range(k_max + 1):
        k = j + 1 if kind == "vertex" else j
        if sum(row) >= target:
            return k
        row = tuple(sum(row[i] * m[i][c] for i in range(n)) for c in range(n))
    return None


def word_count(m: Matrix, kind: str, k: int) -> int:
    """|B_k| of the vertex (0-1) or edge presentation of m."""
    if k == 0:
        return 1
    return path_count(m, k - 1 if kind == "vertex" else k)


def _reach(m: Matrix, transpose: bool) -> bool:
    n = len(m)
    seen = {0}
    frontier = [0]
    while frontier:
        u = frontier.pop()
        for v in range(n):
            if (m[v][u] if transpose else m[u][v]) and v not in seen:
                seen.add(v)
                frontier.append(v)
    return len(seen) == n


def is_shift_matrix(m: Matrix) -> bool:
    """Irreducible and not a permutation matrix: what sftlab.validate needs
    of a nonnegative square matrix."""
    n = len(m)
    if n == 0 or any(len(row) != n or not any(row) for row in m):
        return False
    if all(sum(row) == 1 for row in m) and \
            all(sum(m[i][j] for i in range(n)) == 1 for j in range(n)):
        return False
    return _reach(m, False) and _reach(m, True)


def irreducible_01(rng: random.Random, n_min: int, n_max: int) -> Matrix:
    """Random 0-1 irreducible non-permutation matrix: a random full cycle
    plus a few random extra edges."""
    while True:
        n = rng.randint(n_min, n_max)
        rows = [[0] * n for _ in range(n)]
        order = list(range(n))
        rng.shuffle(order)
        for i in range(n):
            rows[order[i]][order[(i + 1) % n]] = 1
        for _ in range(rng.randint(1, n)):
            rows[rng.randrange(n)][rng.randrange(n)] = 1
        m = tuple(map(tuple, rows))
        if is_shift_matrix(m):
            return m


def edge_matrix(rng: random.Random, n: int, entry_max: int) -> Matrix:
    """Random irreducible n x n nonnegative integer matrix (edge
    presentation)."""
    while True:
        rows = [[0] * n for _ in range(n)]
        order = list(range(n))
        rng.shuffle(order)
        for i in range(n):
            rows[order[i]][order[(i + 1) % n]] = rng.randint(1, entry_max)
        for _ in range(rng.randint(0, n)):
            rows[rng.randrange(n)][rng.randrange(n)] = rng.randint(0, entry_max)
        m = tuple(map(tuple, rows))
        if is_shift_matrix(m):
            return m


def elementary_factors(rng: random.Random, outer_max: int, inner_max: int,
                       entry_max: int, max_words: int, at_length: int):
    """Random (C, D) with A = CD and B = DC both valid edge presentations and
    |B_at_length| of each at most max_words."""
    while True:
        n = rng.randint(1, outer_max)
        m = rng.randint(1, inner_max)
        c = tuple(tuple(rng.randint(0, entry_max) for _ in range(m))
                  for _ in range(n))
        d = tuple(tuple(rng.randint(0, entry_max) for _ in range(n))
                  for _ in range(m))
        a, b = mat_mul(c, d), mat_mul(d, c)
        if not (is_shift_matrix(a) and is_shift_matrix(b)):
            continue
        if max(path_count(a, at_length), path_count(b, at_length)) <= max_words:
            return c, d


def expanded_matrix(m: Matrix, vertex: int) -> Matrix:
    """The vertex expansion of a 0-1 matrix as sftlab.moves.expand defines
    it: a new first vertex copies the chosen row, the chosen vertex keeps a
    single edge to it."""
    n = len(m)
    rows = [(0,) + m[vertex]]
    for i in range(n):
        rows.append((1,) + (0,) * n if i == vertex else (0,) + m[i])
    return tuple(rows)


def values(rng: random.Random, count: int, low: int = -5,
           high: int = 5) -> tuple[int, ...]:
    return tuple(rng.randint(low, high) for _ in range(count))


def invariant_factors(m: Matrix) -> tuple[int, ...]:
    """Smith diagonal of a square integer matrix (1s included, 0 for each
    free rank) by plain gcd elimination, written apart from
    sftlab.linalg.smith so that it can serve as an oracle."""
    a = [list(row) for row in m]
    n = len(a)
    diag = []
    for s in range(n):
        while True:
            nz = [(abs(a[i][j]), i, j) for i in range(s, n) for j in range(s, n)
                  if a[i][j]]
            if not nz:
                return tuple(diag + [0] * (n - s))
            _v, i, j = min(nz)
            a[s], a[i] = a[i], a[s]
            for row in a:
                row[s], row[j] = row[j], row[s]
            p = a[s][s]
            for i in range(s + 1, n):
                q = a[i][s] // p
                a[i] = [x - q * y for x, y in zip(a[i], a[s])]
            for j in range(s + 1, n):
                q = a[s][j] // p
                for row in a:
                    row[j] -= q * row[s]
            if any(a[i][s] for i in range(s + 1, n)) or \
                    any(a[s][j] for j in range(s + 1, n)):
                continue
            bad = next((i for i in range(s + 1, n)
                        if any(a[i][j] % p for j in range(s + 1, n))), None)
            if bad is None:
                diag.append(abs(p))
                break
            a[s] = [x + y for x, y in zip(a[s], a[bad])]
    return tuple(diag)


def det_sign(m: Matrix) -> int:
    """Sign of the determinant, by exact fraction-free elimination."""
    a = [list(row) for row in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    d = sign * a[n - 1][n - 1]
    return (d > 0) - (d < 0)


def identity_minus(m: Matrix, transpose: bool = False) -> Matrix:
    n = len(m)
    return tuple(tuple(int(i == j) - (m[j][i] if transpose else m[i][j])
                       for j in range(n)) for i in range(n))


def pointed_search_size(factors) -> int:
    """Candidate count of sftlab's brute-force pointed-isomorphism search
    over a finite group with these invariant factors."""
    total = 1
    for dj in factors:
        for di in factors:
            total *= math.gcd(di, dj)
    return total

"""Exact integer linear algebra: Smith form, cokernels, lattice membership,
pointed isomorphism.  Oracles: cofactor determinants, the minor-gcd
characterization of invariant factors, and automorphism orbits found by
enumerating endomorphism matrices."""
from __future__ import annotations

import functools
import itertools
import math
import os
import pathlib
import random
import subprocess
import sys
import time
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

import sftlab
from sftlab.linalg import (
    FgAbelianGroup,
    PointedGroup,
    cokernel,
    determinant,
    identity,
    is_unimodular,
    lattice_member,
    mat_mul,
    mat_vec,
    pointed_iso,
    smith,
    transpose,
)

seeds = st.integers(0, 10**6)


def det_oracle(m) -> int:
    """Cofactor expansion along the first row."""
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * det_oracle(minor)
    return total


def minor_gcd_diagonal(m) -> tuple[int, ...]:
    """Invariant factors via d_k = gcd of all k-minors, s_k = d_k / d_{k-1}."""
    rows, cols = len(m), len(m[0])
    r = min(rows, cols)
    out = []
    prev = 1
    for k in range(1, r + 1):
        g = 0
        for ri in itertools.combinations(range(rows), k):
            for ci in itertools.combinations(range(cols), k):
                sub = [[m[i][j] for j in ci] for i in ri]
                g = math.gcd(g, abs(det_oracle(sub)))
        if g == 0:
            out.extend([0] * (r - len(out)))
            break
        out.append(g // prev)
        prev = g
    return tuple(out)


def rand_matrix(rng, rows, cols, bound=4):
    return tuple(tuple(rng.randint(-bound, bound) for _ in range(cols))
                 for _ in range(rows))


class TestSmith:
    def test_antidiagonal(self):
        assert smith(((0, -1), (-1, 0))).diagonal == (1, 1)

    def test_zero_matrix(self):
        assert smith(((0, 0), (0, 0))).diagonal == (0, 0)

    def test_full3_presentation_matrix(self):
        # I - A for the full 3-shift
        m = ((0, -1, -1), (-1, 0, -1), (-1, -1, 0))
        assert smith(m).diagonal == (1, 1, 2)

    def test_rectangular(self):
        assert smith(((2, 4, 4),)).diagonal == (2,)

    def test_factorization_and_unimodularity(self):
        m = ((6, 4), (2, 8))
        sd = smith(m)
        assert mat_mul(mat_mul(sd.u, m), sd.v) == sd.d
        assert is_unimodular(sd.u) and is_unimodular(sd.v)

    def test_divisibility_chain(self):
        sd = smith(((2, 0, 0), (0, 6, 0), (0, 0, 4)))
        assert sd.diagonal == (2, 2, 12)

    @given(seeds, st.integers(1, 4), st.integers(1, 4))
    def test_against_minor_gcd_oracle(self, seed, rows, cols):
        rng = random.Random(seed)
        m = rand_matrix(rng, rows, cols)
        assert smith(m).diagonal == minor_gcd_diagonal(m)

    @given(seeds)
    def test_transpose_invariance(self, seed):
        rng = random.Random(seed)
        m = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        assert smith(m).diagonal == smith(transpose(m)).diagonal


class TestDeterminant:
    def test_fixtures(self):
        assert determinant(((0, -1), (-1, 1))) == -1       # I - Fibonacci
        assert determinant(((0, -1, -1), (-1, 0, -1), (-1, -1, 0))) == -2

    @given(seeds, st.integers(1, 4))
    def test_against_cofactor_oracle(self, seed, n):
        rng = random.Random(seed)
        m = rand_matrix(rng, n, n)
        assert determinant(m) == det_oracle(m)

    @given(seeds)
    def test_product_of_smith_diagonal(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 4)
        m = rand_matrix(rng, n, n)
        assert abs(determinant(m)) == abs(math.prod(smith(m).diagonal))


class TestCokernel:
    def test_fibonacci_trivial(self):
        ck = cokernel(((0, -1), (-1, 1)))
        assert ck.group == FgAbelianGroup(0, ())
        assert ck.group.describe() == "0"

    def test_full3_z2(self):
        ck = cokernel(((0, -1, -1), (-1, 0, -1), (-1, -1, 0)))
        assert ck.group == FgAbelianGroup(0, (2,))
        assert ck.group.describe() == "Z/2"

    def test_free_part(self):
        ck = cokernel(((0, 0), (0, 0)))
        assert ck.group == FgAbelianGroup(2, ())

    def test_project_kills_image(self):
        m = ((2, 0), (0, 3))
        ck = cokernel(m)
        for col in transpose(m):
            assert ck.project(col) == (0,) * len(ck.group.moduli())

    def test_project_additive(self):
        ck = cokernel(((2, 0), (0, 4)))
        a, b = (1, 3), (5, 2)
        s = tuple(x + y for x, y in zip(a, b))
        moduli = ck.group.moduli()
        left = ck.project(s)
        right = tuple((x + y) % d if d else x + y
                      for x, y, d in zip(ck.project(a), ck.project(b), moduli))
        assert left == right

    @given(seeds)
    def test_trivial_iff_unimodular(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 4)
        m = rand_matrix(rng, n, n)
        trivial = cokernel(m).group == FgAbelianGroup(0, ())
        assert trivial == (abs(determinant(m)) == 1)


class TestLatticeMember:
    def test_multiple_of_generator(self):
        res = lattice_member((2, 0), [(1, 0)])
        assert res.member and res.coefficients == (2,)

    def test_odd_vector_outside_even_lattice(self):
        res = lattice_member((1, 1), [(2, 0), (0, 2)])
        assert not res.member
        assert not res
        assert res.separating is not None

    def test_zero_vector(self):
        assert lattice_member((0, 0, 0), [(1, 2, 3)]).member

    def test_no_generators(self):
        assert lattice_member((0, 0), []).member
        assert not lattice_member((1, 0), []).member

    @given(seeds)
    def test_witnesses_verify(self, seed):
        rng = random.Random(seed)
        dim = rng.randint(1, 4)
        gens = [tuple(rng.randint(-5, 5) for _ in range(dim))
                for _ in range(rng.randint(1, 4))]
        v = tuple(rng.randint(-5, 5) for _ in range(dim))
        res = lattice_member(v, gens)
        if res.member:
            combo = tuple(
                sum(c * g[i] for c, g in zip(res.coefficients, gens))
                for i in range(dim))
            assert combo == v
        else:
            w = res.separating
            for g in gens:
                assert sum(Fraction(x) * y for x, y in zip(w, g)).denominator == 1
            assert sum(Fraction(x) * y for x, y in zip(w, v)).denominator != 1

    @given(seeds)
    def test_constructed_members_found(self, seed):
        rng = random.Random(seed)
        dim = rng.randint(1, 4)
        gens = [tuple(rng.randint(-5, 5) for _ in range(dim))
                for _ in range(rng.randint(1, 3))]
        coeffs = [rng.randint(-5, 5) for _ in gens]
        v = tuple(sum(c * g[i] for c, g in zip(coeffs, gens))
                  for i in range(dim))
        assert lattice_member(v, gens).member


def pg(free, factors, marked):
    return PointedGroup(FgAbelianGroup(free, tuple(factors)), tuple(marked))


class TestPointedIso:
    def test_equal_pairs(self):
        assert pointed_iso(pg(0, (2,), (1,)), pg(0, (2,), (1,))).verdict == "yes"

    def test_trivial_groups(self):
        assert pointed_iso(pg(0, (), ()), pg(0, (), ())).verdict == "yes"

    def test_marked_order_mismatch(self):
        res = pointed_iso(pg(0, (3,), (0,)), pg(0, (3,), (1,)))
        assert res.verdict == "no"

    def test_group_mismatch(self):
        assert pointed_iso(pg(0, (2,), (0,)), pg(0, (4,), (0,))).verdict == "no"

    def test_cyclic_unit_multiplier(self):
        res = pointed_iso(pg(0, (5,), (2,)), pg(0, (5,), (3,)))
        assert res.verdict == "yes"
        assert res.witness == ((4,),)

    def test_cyclic_no_unit(self):
        # both elements generate different subgroups of Z/8
        assert pointed_iso(pg(0, (8,), (2,)), pg(0, (8,), (4,))).verdict == "no"

    def test_free_content(self):
        assert pointed_iso(pg(1, (), (2,)), pg(1, (), (-2,))).verdict == "yes"
        assert pointed_iso(pg(1, (), (2,)), pg(1, (), (3,))).verdict == "no"

    def test_two_torsion_blocks(self):
        res = pointed_iso(pg(0, (2, 4), (0, 1)), pg(0, (2, 4), (1, 1)))
        assert res.verdict == "yes"
        self._check_witness(res, pg(0, (2, 4), (0, 1)), pg(0, (2, 4), (1, 1)))

    @staticmethod
    def _check_witness(res, a, b):
        moduli = a.group.moduli()
        img = mat_vec(res.witness, a.marked)
        reduced = tuple(v % d if d else v for v, d in zip(img, moduli))
        assert reduced == b.marked

    @given(seeds)
    def test_symmetry_and_reflexivity(self, seed):
        rng = random.Random(seed)
        factors = sorted(rng.choice([2, 2, 3, 4, 6]) for _ in range(rng.randint(0, 2)))
        while any(y % x for x, y in zip(factors, factors[1:])):
            factors = sorted(rng.choice([2, 4]) for _ in range(2))
        moduli = tuple(factors)
        marked_a = tuple(rng.randrange(d) for d in moduli)
        marked_b = tuple(rng.randrange(d) for d in moduli)
        a, b = pg(0, moduli, marked_a), pg(0, moduli, marked_b)
        assert pointed_iso(a, a).verdict == "yes"
        assert pointed_iso(a, b).verdict == pointed_iso(b, a).verdict

    @given(seeds)
    def test_automorphic_images_never_refused(self, seed):
        """Marking an element and its image under x -> u*x (u a unit) must
        not produce verdict no."""
        rng = random.Random(seed)
        d = rng.choice([2, 3, 4, 5, 6, 8, 9])
        units = [u for u in range(1, d) if math.gcd(u, d) == 1]
        u = rng.choice(units)
        x = rng.randrange(d)
        res = pointed_iso(pg(0, (d,), (x,)), pg(0, (d,), ((u * x) % d,)))
        assert res.verdict == "yes"


def _factor_chains(n: int, least: int = 2):
    """Invariant factors d1 | d2 | ... of each finite abelian group of order n."""
    if n == 1:
        yield ()
        return
    for d in range(least, n + 1):
        if n % d == 0:
            for rest in _factor_chains(n // d, d):
                if not rest or rest[0] % d == 0:
                    yield (d,) + rest


def _candidate_count(factors) -> int:
    """Endomorphism matrices of the group: entry (i, j) takes gcd(d_i, d_j)
    values."""
    return math.prod(math.gcd(x, y) for x in factors for y in factors)


@functools.lru_cache(maxsize=None)
def _automorphisms(factors):
    """Every automorphism matrix of the finite group, by enumerating the
    endomorphism matrices and keeping the bijective ones; with the group's
    elements."""
    r = len(factors)
    column_choices = [
        list(itertools.product(*(range(0, di, di // math.gcd(di, dj))
                                 for di in factors)))
        for dj in factors]
    elements = list(itertools.product(*(range(d) for d in factors)))
    autos = []
    for cols in itertools.product(*column_choices):
        mat = tuple(tuple(cols[j][i] for j in range(r)) for i in range(r))
        if len({_image(mat, x, factors) for x in elements}) == len(elements):
            autos.append(mat)
    return autos, elements


def _image(mat, x, moduli):
    return tuple(v % d if d else v for v, d in zip(mat_vec(mat, x), moduli))


SMALL_GROUPS = tuple(f for n in range(1, 65) for f in _factor_chains(n)
                     if _candidate_count(f) <= 256)
ORACLE_GROUPS = tuple(f for f in SMALL_GROUPS if math.prod(f) <= 16)


class TestPointedIsoOracle:
    """pointed_iso against the orbits of every automorphism."""

    def test_finite_groups_against_orbits(self):
        assert len(SMALL_GROUPS) == 84
        for factors in SMALL_GROUPS:
            autos, elements = _automorphisms(factors)
            rep = {}
            for x in elements:
                if x not in rep:
                    for m in autos:
                        rep[_image(m, x, factors)] = x
            for x in elements:
                for y in set(rep.values()):
                    a, b = pg(0, factors, x), pg(0, factors, y)
                    res = pointed_iso(a, b)
                    assert (res.verdict == "yes") == (rep[x] == y), (factors, x, y)
                    if res.verdict == "yes":
                        TestPointedIso._check_witness(res, a, b)

    @given(st.sampled_from(ORACLE_GROUPS), seeds)
    def test_free_rank_one_against_orbits(self, factors, seed):
        """Aut(T + Z) maps (t, v) to (at + bv, +-v) for a in Aut(T), b in T."""
        rng = random.Random(seed)
        autos, elements = _automorphisms(factors)
        t, s = rng.choice(elements), rng.choice(elements)
        v, w = rng.randint(-8, 8), rng.randint(-8, 8)
        orbit = {tuple((x + y * v) % d for x, y, d in zip(_image(m, t, factors),
                                                          shift, factors)) + (sign * v,)
                 for m in autos for shift in elements for sign in (1, -1)}
        a, b = pg(1, factors, t + (v,)), pg(1, factors, s + (w,))
        res = pointed_iso(a, b)
        assert (res.verdict == "yes") == (s + (w,) in orbit)
        if res.verdict == "yes":
            TestPointedIso._check_witness(res, a, b)

    def test_large_invariant_factors(self):
        """Invariant factors of 40 to 64 digits; none is factored."""
        p, q = 2**61 - 1, 2**89 - 1
        factors = (p, p * q, p * p * q)
        t = (5, 7 * q, 11 * p)
        alpha = ((3, 1, 1), (q, 2, 0), (p * q, p, 1))
        s = tuple(v % d for v, d in zip(mat_vec(alpha, t), factors))
        start = time.perf_counter()
        res = pointed_iso(pg(0, factors, t), pg(0, factors, s))
        assert time.perf_counter() - start < 1.0
        assert res.verdict == "yes"
        TestPointedIso._check_witness(res, pg(0, factors, t), pg(0, factors, s))
        res = pointed_iso(pg(1, factors[1:], (3, 2 * p, 6)),
                          pg(1, factors[1:], ((3 + 10 * p * q) % (p * q), 14 * p, -6)))
        assert res.verdict == "yes"
        res = pointed_iso(pg(0, factors, (p - 1, 0, 0)), pg(0, factors, (0, p, 0)))
        assert res.verdict == "no"


def _run_optimised(code: str) -> subprocess.CompletedProcess:
    src = pathlib.Path(sftlab.__file__).resolve().parents[1]
    return subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=str(src)))


class TestChecksUnderOptimisation:
    """The re-checks are no asserts, so python -O keeps them."""

    def test_smith_factorization_check(self):
        proc = _run_optimised(
            "import sftlab.linalg as la\n"
            "from sftlab.errors import ContradictionDetected\n"
            "real = la.mat_mul\n"
            "def off_by_one(x, y):\n"
            "    rows = [list(row) for row in real(x, y)]\n"
            "    rows[0][0] += 1\n"
            "    return tuple(map(tuple, rows))\n"
            "la.mat_mul = off_by_one\n"
            "try:\n"
            "    la.smith(((2, 0), (0, 3)))\n"
            "except ContradictionDetected as exc:\n"
            "    print(exc)\n")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "smith: U M V != D\n"

    def test_corrupted_pointed_witness(self):
        """A content reducer with a wrong inverse gives gamma = 1, which does
        not carry 2 to -2."""
        proc = _run_optimised(
            "import sftlab.linalg as la\n"
            "from sftlab.errors import ContradictionDetected\n"
            "real = la._content_reducer\n"
            "def wrong_inverse(v):\n"
            "    return real(v)[0], la.freeze(la.identity(len(v)))\n"
            "la._content_reducer = wrong_inverse\n"
            "g = la.FgAbelianGroup(1, ())\n"
            "try:\n"
            "    la.pointed_iso(la.PointedGroup(g, (2,)), la.PointedGroup(g, (-2,)))\n"
            "except ContradictionDetected as exc:\n"
            "    print(exc)\n")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == ("pointed_iso: witness is not an automorphism "
                               "carrying (Z; [2]) to (Z; [-2])\n")


class TestHelpers:
    def test_identity_and_mat_mul(self):
        m = ((1, 2), (3, 4))
        assert mat_mul(identity(2), m) == m

    def test_is_unimodular(self):
        assert is_unimodular(((1, 5), (0, 1)))
        assert not is_unimodular(((2, 0), (0, 1)))

"""Exact integer linear algebra: Smith form, cokernels, lattice membership,
pointed isomorphism.  Oracles: cofactor determinants and the minor-gcd
characterization of invariant factors."""
from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

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
        assert res.verdict in ("yes", "no")
        if res.verdict == "yes":
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


class TestHelpers:
    def test_identity_and_mat_mul(self):
        m = ((1, 2), (3, 4))
        assert mat_mul(identity(2), m) == m

    def test_is_unimodular(self):
        assert is_unimodular(((1, 5), (0, 1)))
        assert not is_unimodular(((2, 0), (0, 1)))

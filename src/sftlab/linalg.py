"""Exact integer linear algebra: Smith form, cokernels, lattice membership,
and isomorphism of finitely generated abelian groups with a marked element.

Everything runs on arbitrary-precision Python integers.  Witnesses returned
by a decision (transforms, coefficient vectors, isomorphism matrices) are
re-verified before they leave this module; a failed re-check is a bug and
raises AssertionError rather than returning a wrong answer.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

IntMatrix = tuple[tuple[int, ...], ...]


def freeze(rows) -> IntMatrix:
    return tuple(tuple(int(v) for v in row) for row in rows)


def identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_mul(a, b) -> IntMatrix:
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    bt = list(zip(*b)) if b else []
    return tuple(
        tuple(sum(a[i][k] * bt[j][k] for k in range(inner)) for j in range(cols))
        for i in range(rows))


def mat_vec(a, v) -> tuple[int, ...]:
    return tuple(sum(row[k] * v[k] for k in range(len(v))) for row in a)


def transpose(a) -> IntMatrix:
    return tuple(zip(*a)) if a else ()


def determinant(m) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(m)
    if n == 0:
        return 1
    a = [list(map(int, row)) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def is_unimodular(m) -> bool:
    return abs(determinant(m)) == 1


# ------------------------------------------------------------------- Smith

@dataclass(frozen=True)
class SmithDecomposition:
    """U @ M @ V == D with U, V unimodular and D diagonal with a divisibility
    chain d1 | d2 | ... followed by zeros."""

    u: IntMatrix
    d: IntMatrix
    v: IntMatrix
    diagonal: tuple[int, ...]


def _smallest_pivot(a, s: int):
    """Nonzero entry of least absolute value in the block a[s:][s:];
    ties broken row-major.  None when the block is zero."""
    best = None
    rows, cols = len(a), len(a[0])
    for i in range(s, rows):
        for j in range(s, cols):
            v = a[i][j]
            if v != 0 and (best is None or abs(v) < abs(a[best[0]][best[1]])):
                best = (i, j)
    return best


def smith(m) -> SmithDecomposition:
    """Smith normal form with recorded transforms.

    Pivot rule: smallest nonzero absolute value in the remaining block,
    row-major tie break.  The factorization U M V = D, unimodularity of the
    transforms, and the divisibility chain are re-checked on every call.
    """
    m = freeze(m)
    rows = len(m)
    cols = len(m[0]) if rows else 0
    a = [list(r) for r in m]
    u = identity(rows)
    v = identity(cols)

    def row_op(i, j, q):          # row_i -= q * row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):          # col_i -= q * col_j
        for r in a:
            r[i] -= q * r[j]
        for r in v:
            r[i] -= q * r[j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    limit = min(rows, cols)
    for s in range(limit):
        while True:
            pos = _smallest_pivot(a, s)
            if pos is None:
                break
            if pos != (s, s):
                if pos[0] != s:
                    swap_rows(s, pos[0])
                if pos[1] != s:
                    swap_cols(s, pos[1])
            pivot = a[s][s]
            dirty = False
            for i in range(s + 1, rows):
                if a[i][s] != 0:
                    q = a[i][s] // pivot
                    row_op(i, s, q)
                    if a[i][s] != 0:
                        dirty = True
            for j in range(s + 1, cols):
                if a[s][j] != 0:
                    q = a[s][j] // pivot
                    col_op(j, s, q)
                    if a[s][j] != 0:
                        dirty = True
            if dirty:
                continue
            # pivot clean; force it to divide the rest of the block
            offender = None
            for i in range(s + 1, rows):
                for j in range(s + 1, cols):
                    if a[i][j] % pivot != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_op(s, offender, -1)   # pulls the offending row into row s

        if a[s][s] < 0:
            a[s] = [-x for x in a[s]]
            u[s] = [-x for x in u[s]]

    d = freeze(a)
    uu, vv = freeze(u), freeze(v)
    diag = tuple(d[i][i] for i in range(limit))

    # re-verify the whole contract
    assert mat_mul(uu, mat_mul(m, vv)) == d, "smith: U M V != D"
    assert is_unimodular(uu) and is_unimodular(vv), "smith: transform not unimodular"
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert d[i][j] == 0, "smith: D not diagonal"
    for x, y in zip(diag, diag[1:]):
        assert (x == 0 and y == 0) or (x != 0 and y % x == 0), \
            "smith: divisibility chain broken"
    return SmithDecomposition(u=uu, d=d, v=vv, diagonal=diag)


# ------------------------------------------------------------------ groups

@dataclass(frozen=True)
class FgAbelianGroup:
    """Canonical form of a finitely generated abelian group:
    free rank plus invariant factors (each >= 2, ascending divisibility)."""

    free_rank: int
    invariant_factors: tuple[int, ...]

    def __post_init__(self):
        for x in self.invariant_factors:
            if x < 2:
                raise ValueError("invariant factors must be at least 2")
        for x, y in zip(self.invariant_factors, self.invariant_factors[1:]):
            if y % x != 0:
                raise ValueError("invariant factors must form a divisibility chain")

    @property
    def torsion_rank(self) -> int:
        return len(self.invariant_factors)

    @property
    def rank(self) -> int:
        return self.free_rank + self.torsion_rank

    def is_finite(self) -> bool:
        return self.free_rank == 0

    def order(self) -> int | None:
        if not self.is_finite():
            return None
        return math.prod(self.invariant_factors)

    def moduli(self) -> tuple[int, ...]:
        """Per-coordinate moduli: invariant factors then 0s for free coords."""
        return self.invariant_factors + (0,) * self.free_rank

    def describe(self) -> str:
        parts = [f"Z/{d}" for d in self.invariant_factors]
        parts.extend("Z" for _ in range(self.free_rank))
        return " + ".join(parts) if parts else "0"


def _reduce_coord(value: int, modulus: int) -> int:
    return value % modulus if modulus else value


@dataclass(frozen=True)
class PointedGroup:
    """Group in canonical form with a marked element given in canonical
    coordinates (torsion coordinates first, reduced mod the factor)."""

    group: FgAbelianGroup
    marked: tuple[int, ...]

    def __post_init__(self):
        moduli = self.group.moduli()
        if len(self.marked) != len(moduli):
            raise ValueError("marked element has the wrong number of coordinates")
        for v, d in zip(self.marked, moduli):
            if d and not (0 <= v < d):
                raise ValueError("marked torsion coordinates must be reduced")

    def describe(self) -> str:
        coords = ",".join(str(v) for v in self.marked)
        return f"({self.group.describe()}; [{coords}])"


@dataclass(frozen=True)
class CokernelPresentation:
    """Z^n / (M Z^n) with the coordinate map x -> U x onto the canonical form."""

    group: FgAbelianGroup
    smith_form: SmithDecomposition
    kept: tuple[int, ...]        # indices of diagonal entries >= 2, then zeros

    def project(self, vector) -> tuple[int, ...]:
        """Canonical coordinates of the class of an integer vector."""
        image = mat_vec(self.smith_form.u, tuple(vector))
        moduli = self.group.moduli()
        return tuple(_reduce_coord(image[i], d) for i, d in zip(self.kept, moduli))


def cokernel(m) -> CokernelPresentation:
    """Invariant-factor presentation of Z^rows / (M Z^cols)."""
    sd = smith(m)
    rows = len(sd.u)
    diag = list(sd.diagonal) + [0] * (rows - len(sd.diagonal))
    torsion = [i for i, v in enumerate(diag) if v >= 2]
    free = [i for i, v in enumerate(diag) if v == 0]
    group = FgAbelianGroup(free_rank=len(free),
                           invariant_factors=tuple(diag[i] for i in torsion))
    return CokernelPresentation(group=group, smith_form=sd,
                                kept=tuple(torsion + free))


# ------------------------------------------------------------ lattice tests

@dataclass(frozen=True)
class LatticeMembership:
    member: bool
    coefficients: tuple[int, ...] | None          # c with c @ G == v
    separating: tuple[Fraction, ...] | None       # w with w.g integral, w.v not

    def __iter__(self):
        yield self.member
        yield self.coefficients if self.member else self.separating


def lattice_member(vector, generators) -> LatticeMembership:
    """Decide v in the integer row span of the generators.

    Yes comes with coefficients (re-verified); no comes with a rational
    functional that is integral on every generator but not on v.
    """
    gens = freeze(generators)
    v = tuple(int(x) for x in vector)
    if not gens:
        # the zero lattice: membership means v = 0
        if all(x == 0 for x in v):
            return LatticeMembership(True, (), None)
        i = next(i for i, x in enumerate(v) if x != 0)
        w = tuple(Fraction(1 if j == i else 0, 2 * v[i]) for j in range(len(v)))
        return _verified_no(v, gens, w)
    n = len(v)
    if any(len(g) != n for g in gens):
        raise ValueError("generator length mismatch")
    gt = transpose(gens)                     # n x m
    sd = smith(gt)
    uv = mat_vec(sd.u, v)
    rank = sum(1 for d in sd.diagonal if d != 0)
    y = [0] * len(gens)
    for i in range(len(uv)):
        d = sd.diagonal[i] if i < len(sd.diagonal) else 0
        if d != 0:
            if uv[i] % d != 0:
                w = tuple(Fraction(x, d) for x in sd.u[i])
                return _verified_no(v, gens, w)
        else:
            if uv[i] != 0:
                w = tuple(Fraction(x, 2 * uv[i]) for x in sd.u[i])
                return _verified_no(v, gens, w)
    for i in range(rank):
        y[i] = uv[i] // sd.diagonal[i]
    coeffs = mat_vec(sd.v, tuple(y))
    combo = mat_vec(gt, coeffs)
    assert combo == v, "lattice_member: coefficient witness failed"
    return LatticeMembership(True, tuple(coeffs), None)


def _verified_no(v, gens, w) -> LatticeMembership:
    for g in gens:
        dot = sum(wi * gi for wi, gi in zip(w, g))
        assert dot.denominator == 1, "lattice_member: functional not integral on span"
    dot_v = sum(wi * vi for wi, vi in zip(w, v))
    assert dot_v.denominator != 1, "lattice_member: functional integral on v"
    return LatticeMembership(False, None, tuple(w))


# --------------------------------------------------------- pointed isomorphy

@dataclass(frozen=True)
class PointedIsoResult:
    """verdict in {"yes", "no", "undecided"}; yes carries a witness matrix in
    canonical coordinates (torsion block first), no carries a reason string."""

    verdict: str
    witness: IntMatrix | None = None
    reason: str | None = None


def _marked_order(group: FgAbelianGroup, marked) -> int | None:
    """Additive order of the marked element; None when infinite."""
    moduli = group.moduli()
    order = 1
    for v, d in zip(marked, moduli):
        if d == 0:
            if v != 0:
                return None
        elif v % d != 0:
            order = order * (d // math.gcd(d, v)) // \
                math.gcd(order, d // math.gcd(d, v))
    return order


def _divisor_profile(group: FgAbelianGroup, marked) -> tuple[int, ...]:
    """For each divisor k of the largest invariant factor, whether the marked
    element lies in k*G.  Automorphisms preserve each subgroup k*G.  Skipped
    (empty profile) when the factor is too large to enumerate divisors."""
    if not group.invariant_factors:
        return ()
    top = group.invariant_factors[-1]
    if top > 1_000_000:
        return ()
    divisors = []
    k = 1
    while k * k <= top:
        if top % k == 0:
            divisors.append(k)
            if k != top // k:
                divisors.append(top // k)
        k += 1
    profile = []
    for k in sorted(divisors):
        inside = all(v % math.gcd(k, d) == 0
                     for v, d in zip(marked, group.moduli()) if d)
        profile.append(1 if inside else 0)
    return tuple(profile)


def _is_endomorphism(mat, moduli) -> bool:
    """Columns are generator images; well-defined iff M_ij * d_j == 0 mod d_i
    for torsion coordinates (modulus 0 marks a free coordinate)."""
    r = len(moduli)
    for i in range(r):
        for j in range(r):
            di, dj = moduli[i], moduli[j]
            if di == 0:
                if dj != 0 and mat[i][j] != 0:
                    return False       # torsion cannot map into a free coord
            else:
                if dj == 0:
                    continue           # free generator may land anywhere
                if (mat[i][j] * dj) % di != 0:
                    return False
    return True


def _is_automorphism(mat, moduli) -> bool:
    """Surjectivity of the induced endomorphism: the block [M | diag(moduli)]
    must have trivial cokernel; plus the free block must be unimodular."""
    r = len(moduli)
    free = [i for i in range(r) if moduli[i] == 0]
    tor = [i for i in range(r) if moduli[i] != 0]
    if free:
        fblock = [[mat[i][j] for j in free] for i in free]
        if not is_unimodular(fblock):
            return False
    if tor:
        cols = [[mat[i][j] for i in tor] for j in range(r)]
        for t in tor:
            col = [0] * len(tor)
            col[tor.index(t)] = moduli[t]
            cols.append(col)
        block = transpose(tuple(tuple(c) for c in cols))
        ck = cokernel(block)
        if ck.group.rank != 0:
            return False
    return True


def _apply(mat, vec, moduli) -> tuple[int, ...]:
    image = mat_vec(mat, vec)
    return tuple(_reduce_coord(x, d) for x, d in zip(image, moduli))


def _verify_pointed_witness(mat, src, dst, moduli) -> bool:
    return (_is_endomorphism(mat, moduli) and _is_automorphism(mat, moduli)
            and _apply(mat, src, moduli) == dst)


def _column_candidates(j: int, moduli) -> "itertools.product":
    """Images of generator j: coordinate i ranges over multiples of
    d_i / gcd(d_i, d_j) so that the generator order is respected."""
    r = len(moduli)
    axes = []
    dj = moduli[j]
    for i in range(r):
        di = moduli[i]
        if di == 0:
            axes.append((0,) if dj != 0 else (0, 1, -1))
        elif dj == 0:
            axes.append(tuple(range(di)))
        else:
            step = di // math.gcd(di, dj)
            axes.append(tuple(range(0, di, step)))
    return itertools.product(*axes)


POINTED_ISO_BUDGET = 2_000_000      # candidate images tried before "undecided"


def _search_finite_auto(src, dst, moduli):
    """Backtracking over generator images for an automorphism carrying src to
    dst.  Returns (matrix, None) on success, (None, spent) on exhaustion,
    (None, None) when POINTED_ISO_BUDGET runs out."""
    r = len(moduli)
    total = 1
    for j in range(r):
        for i in range(r):
            total *= math.gcd(moduli[i], moduli[j])
        if total > POINTED_ISO_BUDGET:
            return None, None
    per_column = [list(_column_candidates(j, moduli)) for j in range(r)]
    cols: list[tuple[int, ...]] = []

    def place(j: int):
        if j == r:
            mat = tuple(tuple(cols[c][i] for c in range(r)) for i in range(r))
            if _verify_pointed_witness(mat, src, dst, moduli):
                return mat
            return None
        for cand in per_column[j]:
            cols.append(cand)
            found = place(j + 1)
            cols.pop()
            if found is not None:
                return found
        return None

    found = place(0)
    if found is not None:
        return found, None
    return None, total


def _cyclic_pointed(d: int, a: int, b: int):
    """Automorphism of Z/d sending a to b: unit u with u*a = b mod d.
    Exists iff gcd(a, d) == gcd(b, d)."""
    if math.gcd(a, d) != math.gcd(b, d):
        return None
    g = math.gcd(a, d)
    if g == d:                      # both zero
        return 1
    a1, b1, d1 = a // g, b // g, d // g
    u0 = (b1 * pow(a1, -1, d1)) % d1
    # lift to a unit mod d: u0 + t*d1 coprime to d for some t < number of prime factors
    for t in range(d // d1 + 1):
        u = (u0 + t * d1) % d
        if u and math.gcd(u, d) == 1:
            return u
    return None


def pointed_iso(a: PointedGroup, b: PointedGroup) -> PointedIsoResult:
    """Isomorphism of pairs (group, marked element).

    Complete for finite groups (bounded generator-image search, cyclic case
    solved directly) and for torsion-free groups (content comparison).  With
    free rank and torsion both present, necessary invariants are checked and
    a witness is searched for; "undecided" is returned when the search budget
    runs out without a decision.
    """
    if a.group != b.group:
        return PointedIsoResult("no", reason="groups not isomorphic")
    group = a.group
    moduli = group.moduli()
    r = len(moduli)
    if a.marked == b.marked:
        return PointedIsoResult("yes", witness=freeze(identity(r)))
    if _marked_order(group, a.marked) != _marked_order(group, b.marked):
        return PointedIsoResult("no", reason="marked elements have different order")
    if _divisor_profile(group, a.marked) != _divisor_profile(group, b.marked):
        return PointedIsoResult(
            "no", reason="marked elements lie in different subgroups k*G")

    tor = group.torsion_rank
    src_t, dst_t = a.marked[:tor], b.marked[:tor]
    src_f, dst_f = a.marked[tor:], b.marked[tor:]

    if group.free_rank == 0:
        if tor == 1:
            u = _cyclic_pointed(moduli[0], src_t[0], dst_t[0])
            if u is None:
                return PointedIsoResult("no", reason="no unit multiplier exists")
            mat = ((u,),)
            assert _verify_pointed_witness(mat, a.marked, b.marked, moduli)
            return PointedIsoResult("yes", witness=mat)
        mat, spent = _search_finite_auto(a.marked, b.marked, moduli)
        if mat is not None:
            assert _verify_pointed_witness(mat, a.marked, b.marked, moduli)
            return PointedIsoResult("yes", witness=mat)
        if spent is not None:
            return PointedIsoResult("no", reason="image search exhausted")
        return PointedIsoResult("undecided", reason="search budget exceeded")

    if tor == 0:
        ga = math.gcd(*src_f) if any(src_f) else 0
        gb = math.gcd(*dst_f) if any(dst_f) else 0
        if ga != gb:
            return PointedIsoResult("no", reason="free contents differ")
        if ga == 0:
            return PointedIsoResult("yes", witness=freeze(identity(r)))
        pa = _content_reducer(src_f)
        pb = _content_reducer(dst_f)
        # pa maps src to (g,0,..,0); invert pb to continue on to dst
        mat = mat_mul(_unimodular_inverse(pb), pa)
        assert _verify_pointed_witness(mat, a.marked, b.marked, moduli)
        return PointedIsoResult("yes", witness=mat)

    # mixed free + torsion: marked free parts both zero reduce to the finite
    # problem; otherwise compare what invariants we have and stop at undecided
    if not any(src_f) and not any(dst_f):
        sub = pointed_iso(
            PointedGroup(FgAbelianGroup(0, group.invariant_factors), src_t),
            PointedGroup(FgAbelianGroup(0, group.invariant_factors), dst_t))
        if sub.verdict == "yes":
            mat = [[0] * r for _ in range(r)]
            for i in range(tor):
                for j in range(tor):
                    mat[i][j] = sub.witness[i][j]
            for i in range(tor, r):
                mat[i][i] = 1
            mat = freeze(mat)
            assert _verify_pointed_witness(mat, a.marked, b.marked, moduli)
            return PointedIsoResult("yes", witness=mat)
        return sub
    if any(src_f) != any(dst_f):
        return PointedIsoResult("no", reason="free parts differ (zero vs nonzero)")
    ga, gb = math.gcd(*src_f), math.gcd(*dst_f)
    if ga != gb:
        return PointedIsoResult("no", reason="free contents differ")
    return PointedIsoResult("undecided",
                            reason="mixed free and torsion with nonzero free part")


def _content_reducer(vec) -> IntMatrix:
    """Unimodular P with P v = (gcd, 0, ..., 0)."""
    v = list(vec)
    n = len(v)
    p = identity(n)
    for i in range(1, n):
        a, b = v[0], v[i]
        if b == 0:
            continue
        g = math.gcd(a, b)
        if a == 0:
            v[0], v[i] = v[i], v[0]
            p[0], p[i] = p[i], p[0]
            a, b = v[0], v[i]
        # bezout: x*a + y*b = g; rows 0 and i updated unimodularly
        x, y = _bezout(a, b)
        r0 = [x * p[0][k] + y * p[i][k] for k in range(n)]
        ri = [-(b // g) * p[0][k] + (a // g) * p[i][k] for k in range(n)]
        p[0], p[i] = r0, ri
        v[0], v[i] = g, 0
    if v[0] < 0:
        p[0] = [-x for x in p[0]]
        v[0] = -v[0]
    return freeze(p)


def _bezout(a: int, b: int) -> tuple[int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_s, old_t = -old_s, -old_t
    return old_s, old_t


def _unimodular_inverse(m: IntMatrix) -> IntMatrix:
    """Exact inverse of a unimodular integer matrix."""
    n = len(m)
    det = determinant(m)
    assert abs(det) == 1
    # adjugate via cofactors; n stays small here
    cof = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [m[r][c] for c in range(n) if c != j]
                for r in range(n) if r != i]
            cof[i][j] = ((-1) ** (i + j)) * determinant(minor)
    adj = transpose(freeze(cof))
    inv = tuple(tuple(v * det for v in row) for row in adj)
    assert mat_mul(m, inv) == freeze(identity(n))
    return inv

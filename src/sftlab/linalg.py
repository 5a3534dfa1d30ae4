"""Exact integer linear algebra: Smith form, cokernels, lattice membership,
and isomorphism of finitely generated abelian groups with a marked element.

Everything runs on arbitrary-precision Python integers.  Witnesses returned
by a decision (transforms, coefficient vectors, isomorphism matrices) are
re-verified before they leave this module; a failed re-check is a bug and
raises ContradictionDetected (through ``errors.require``, which ``python -O``
keeps) rather than returning a wrong answer.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import FormatError, require

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
    require(mat_mul(uu, mat_mul(m, vv)) == d, "smith: U M V != D")
    require(is_unimodular(uu) and is_unimodular(vv),
            "smith: transform not unimodular")
    require(all(d[i][j] == 0 for i in range(rows) for j in range(cols) if i != j),
            "smith: D not diagonal")
    require(all((x == 0 and y == 0) or (x != 0 and y % x == 0)
                for x, y in zip(diag, diag[1:])),
            "smith: divisibility chain broken")
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
                raise FormatError("invariant factors must be at least 2")
        for x, y in zip(self.invariant_factors, self.invariant_factors[1:]):
            if y % x != 0:
                raise FormatError("invariant factors must form a divisibility chain")

    @property
    def torsion_rank(self) -> int:
        return len(self.invariant_factors)

    @property
    def rank(self) -> int:
        return self.free_rank + self.torsion_rank

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
            raise FormatError("marked element has the wrong number of coordinates")
        for v, d in zip(self.marked, moduli):
            if d and not (0 <= v < d):
                raise FormatError("marked torsion coordinates must be reduced")

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

    def __bool__(self):
        return self.member


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
        raise FormatError("generator length mismatch")
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
    require(combo == v, "lattice_member: coefficient witness failed")
    return LatticeMembership(True, tuple(coeffs), None)


def _verified_no(v, gens, w) -> LatticeMembership:
    for g in gens:
        dot = sum(wi * gi for wi, gi in zip(w, g))
        require(dot.denominator == 1,
                "lattice_member: functional not integral on span")
    dot_v = sum(wi * vi for wi, vi in zip(w, v))
    require(dot_v.denominator != 1, "lattice_member: functional integral on v")
    return LatticeMembership(False, None, tuple(w))


# --------------------------------------------------------- pointed isomorphy

@dataclass(frozen=True)
class PointedIsoResult:
    """verdict "yes" or "no".  Yes carries a witness matrix in canonical
    coordinates (torsion block first), re-checked before it is returned; no
    carries a reason string."""

    verdict: str
    witness: IntMatrix | None = None
    reason: str | None = None


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


def _coprime_base(values) -> list[int]:
    """Pairwise coprime integers > 1 whose powers multiply to each value
    (gcd factor refinement: split two members by their gcd until none
    share one).  Nothing is factored."""
    base: list[int] = []
    unplaced = [x for x in values if x > 1]
    while unplaced:
        x = unplaced.pop()
        for i, q in enumerate(base):
            g = math.gcd(x, q)
            if g > 1:
                del base[i]
                unplaced += [y for y in (g, x // g, q // g) if y > 1]
                break
        else:
            base.append(x)
    return sorted(base)


def _valuation(x: int, q: int) -> int:
    """Largest e with q**e dividing x > 0."""
    e = 0
    while x % q == 0:
        x //= q
        e += 1
    return e


def _height_reducer(t, q: int, exps, k: int):
    """Normal form of the q-part of t in ⊕ Z/q^a_i (a_i = exps[i]) modulo
    q^k, with an automorphism F and its inverse: (form, F, F⁻¹).

    Coordinate i holds q^e_i times a unit.  Unit scalings make it q^e_i;
    coordinate j kills i (a transvection z_i -= q^(e_i - e_j) z_j, a
    multiple of q^max(0, a_i - a_j)) when e_j <= e_i and
    a_j - e_j >= a_i - e_i; swaps move each survivor to the first coordinate
    of its order.  The form is the sorted (e_i, a_i) of the survivors, and
    F t equals sum q^e_i g_i over them modulo q^k.  F acts on rows, F⁻¹
    takes the inverse steps on columns; both are exact modulo the row's
    q^a_i."""
    n = len(exps)
    mods = [q ** a for a in exps]
    e = [_valuation(math.gcd(x, m), q) for x, m in zip(t, mods)]
    live = [i for i in range(n) if e[i] < min(exps[i], k)]

    def kills(j, i):
        return (e[j] <= e[i] and exps[j] - e[j] >= exps[i] - e[i]
                and ((e[j], exps[j]) != (e[i], exps[i]) or j < i))

    f, finv = identity(n), identity(n)
    for i in live:
        u = t[i] % mods[i] // q ** e[i]
        w = pow(u, -1, mods[i])
        f[i] = [x * w for x in f[i]]
        for row in finv:
            row[i] *= u
    survivors = [i for i in live if not any(kills(j, i) for j in live)]
    for i in live:
        if i not in survivors:
            j = next(j for j in survivors if kills(j, i))
            c = q ** (e[i] - e[j])
            f[i] = [x - c * y for x, y in zip(f[i], f[j])]
            for row in finv:
                row[j] += c * row[i]
    for i in survivors:
        p = exps.index(exps[i])
        f[i], f[p] = f[p], f[i]
        for row in finv:
            row[i], row[p] = row[p], row[i]
    form = tuple(sorted((e[i], exps[i]) for i in survivors))
    return form, f, finv


def pointed_iso(a: PointedGroup, b: PointedGroup) -> PointedIsoResult:
    """Isomorphism of pairs (group, marked element), decided with no search.

    In G = T ⊕ Z^f an automorphism maps (t, v) to (αt + βv, γv), so marks
    (t, v) and (s, w) are equivalent iff v and w have the same content g
    (gcd, 0 when v = 0) and αt - s lies in gT for some α in Aut(T).

    In a finite p-group, height (Ulm) sequences decide automorphism orbits
    (Kaplansky, *Infinite Abelian Groups*, 1954), and Aut(T) acts on each
    p-part alone; `_height_reducer`'s normal form records the heights,
    modulo the p-part of gT.  The parts are taken over a coprime base, not
    over primes: gcd refinement of the invariant factors d_i, gcd(t_i, d_i),
    gcd(s_i, d_i) and gcd(g, d_r).  Each of these is a product of powers of
    base elements, so at each prime p of a base element q every exponent is
    v_p(q) times its q-exponent, and the heights over q decide what the
    heights over p would.  Nothing is factored: on 64-vertex inputs the
    invariant factors can have tens of digits.

    The witness glues the blocks F_s⁻¹ F_t by CRT, takes γ = P_w⁻¹ P_v from
    the content reducers, and β = -c ⊗ (row 0 of P_v) where αt - s = gc.  It
    is re-checked before it is returned."""
    if a.group != b.group:
        return PointedIsoResult("no", reason="groups not isomorphic")
    factors = a.group.invariant_factors
    tor = len(factors)
    t, v = a.marked[:tor], a.marked[tor:]
    s, w = b.marked[:tor], b.marked[tor:]
    g = math.gcd(*v)
    if g != math.gcd(*w):
        return PointedIsoResult("no", reason="free contents differ")
    top = math.gcd(g, factors[-1]) if factors else 1
    base = _coprime_base([*factors, top, *(math.gcd(x, d) for x, d in
                                           zip(t + s, factors + factors))])
    alpha = [[0] * tor for _ in range(tor)]
    glued = [1] * tor
    for q in base:
        exps = [_valuation(d, q) for d in factors]
        k = _valuation(top, q)
        form_t, f_t, _ = _height_reducer(t, q, exps, k)
        form_s, _, finv_s = _height_reducer(s, q, exps, k)
        if form_t != form_s:
            return PointedIsoResult(
                "no", reason=f"marked elements have different heights at {q}")
        block = mat_mul(finv_s, f_t)
        # CRT: row i of alpha agrees with row i of each block mod q^a_i
        for i, x in enumerate(exps):
            m = q ** x
            lift = pow(glued[i], -1, m)
            alpha[i] = [y + glued[i] * ((z - y) * lift % m)
                        for y, z in zip(alpha[i], block[i])]
            glued[i] *= m

    p_v, _ = _content_reducer(v)
    _, pinv_w = _content_reducer(w)
    content_row = p_v[0] if v else ()          # content_row . v = g
    rows = []
    for i, d in enumerate(factors):
        h = math.gcd(g, d)
        diff = (sum(x * y for x, y in zip(alpha[i], t)) - s[i]) % d
        c = diff // h * pow(g // h, -1, d // h)
        rows.append(alpha[i] + [-c * x % d for x in content_row])
    rows += [[0] * tor + list(row) for row in mat_mul(pinv_w, p_v)]
    mat = freeze(rows)
    require(_verify_pointed_witness(mat, a.marked, b.marked, a.group.moduli()),
            "pointed_iso: witness is not an automorphism carrying "
            f"{a.describe()} to {b.describe()}")
    return PointedIsoResult("yes", witness=mat)


def _content_reducer(vec) -> tuple[IntMatrix, IntMatrix]:
    """Unimodular P with P v = (gcd, 0, ..., 0), and P⁻¹ from the same
    Bézout steps."""
    v = list(vec)
    n = len(v)
    p, pinv = identity(n), identity(n)
    for i in range(1, n):
        a, b = v[0], v[i]
        if b == 0:
            continue
        g = math.gcd(a, b)
        if a == 0:
            v[0], v[i] = v[i], v[0]
            p[0], p[i] = p[i], p[0]
            for row in pinv:
                row[0], row[i] = row[i], row[0]
            a, b = v[0], v[i]
        # bezout: x*a + y*b = g; rows 0 and i of P go through
        # ((x, y), (-b/g, a/g)), columns 0 and i of P⁻¹ through its inverse
        x, y = _bezout(a, b)
        r0 = [x * p[0][k] + y * p[i][k] for k in range(n)]
        ri = [-(b // g) * p[0][k] + (a // g) * p[i][k] for k in range(n)]
        p[0], p[i] = r0, ri
        for row in pinv:
            c0, ci = row[0], row[i]
            row[0], row[i] = (a // g) * c0 + (b // g) * ci, -y * c0 + x * ci
        v[0], v[i] = g, 0
    if n and v[0] < 0:
        p[0] = [-x for x in p[0]]
        for row in pinv:
            row[0] = -row[0]
        v[0] = -v[0]
    return freeze(p), freeze(pinv)


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

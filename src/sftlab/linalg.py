"""Exact integer linear algebra: Smith form, cokernels, and isomorphism of
finitely generated abelian groups with a marked element.

Everything runs on arbitrary-precision Python integers; the group records
take theirs by ``record.integer``'s rule.  Witnesses returned by a decision
(transforms, isomorphism matrices) are re-verified before they leave this
module: a pointed isomorphism against its inverse, by products modulo the
moduli.  A failed re-check is a bug and raises ContradictionDetected
(through ``errors.require``, which ``python -O`` keeps) rather than
returning a wrong answer.
"""
from __future__ import annotations

import math

from .errors import FormatError, require
from .record import Record, freeze

IntMatrix = tuple[tuple[int, ...], ...]


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
    a = [list(row) for row in freeze(m)]
    n = len(a)
    if any(len(row) != n for row in a):
        raise FormatError("matrix is not square")
    if n == 0:
        return 1
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

class SmithDecomposition(Record):
    """U @ M @ V == D with U, V unimodular and D diagonal with a divisibility
    chain d1 | d2 | ... followed by zeros."""

    u: IntMatrix
    d: IntMatrix
    v: IntMatrix
    diagonal: tuple[int, ...]


def _smallest_pivot(a, s: int, rows: int, cols: int):
    """Nonzero entry of least absolute value in the block a[s:rows][s:cols];
    ties broken row-major.  None when the block is zero."""
    best = None
    for i in range(s, rows):
        for j in range(s, cols):
            v = a[i][j]
            if v != 0 and (best is None or abs(v) < abs(a[best[0]][best[1]])):
                best = (i, j)
    return best


def smith(m) -> SmithDecomposition:
    """Smith normal form with recorded transforms.

    Pivot rule: smallest nonzero absolute value in the remaining block,
    row-major tie break.  The steps run on one matrix [[M, I], [I, 0]]:
    a row step on M is recorded in U, the top right block, and a column step
    in V, the bottom left one; D is the top left block.  The factorization
    U M V = D, unimodularity of the transforms, and the divisibility chain
    are re-checked on every call.
    """
    m = freeze(m)
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if any(len(row) != cols for row in m):
        raise FormatError("matrix rows differ in length")
    a = [list(r) + e for r, e in zip(m, identity(rows))]
    a += [e + [0] * rows for e in identity(cols)]

    def row_op(i, j, q):          # row_i -= q * row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]

    limit = min(rows, cols)
    for s in range(limit):
        while True:
            pos = _smallest_pivot(a, s, rows, cols)
            if pos is None:
                break
            i, j = pos
            a[s], a[i] = a[i], a[s]
            if j != s:
                for r in a:
                    r[s], r[j] = r[j], r[s]
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
                    for r in a:   # col_j -= q * col_s
                        r[j] -= q * r[s]
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

    d = freeze(row[:cols] for row in a[:rows])
    uu = freeze(row[cols:] for row in a[:rows])
    vv = freeze(row[:cols] for row in a[rows:])
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

class FgAbelianGroup(Record):
    """Canonical form of a finitely generated abelian group:
    free rank plus invariant factors (each >= 2, ascending divisibility)."""

    free_rank: int
    invariant_factors: tuple[int, ...]

    def __post_init__(self):
        # integers by ``record.integer``'s rule, stored as converted (a bool
        # as its int); ``freeze`` keeps int tuples as they are given
        (free_rank,), factors = freeze(((self.free_rank,), self.invariant_factors))
        vars(self).update(free_rank=free_rank, invariant_factors=factors)
        if self.free_rank < 0:
            raise FormatError(f"free rank must be nonnegative, got {self.free_rank}")
        for x in self.invariant_factors:
            if x < 2:
                raise FormatError("invariant factors must be at least 2")
        for x, y in zip(self.invariant_factors, self.invariant_factors[1:]):
            if y % x != 0:
                raise FormatError("invariant factors must form a divisibility chain")

    def moduli(self) -> tuple[int, ...]:
        """Per-coordinate moduli: invariant factors then 0s for free coords."""
        return self.invariant_factors + (0,) * self.free_rank

    def describe(self) -> str:
        parts = [f"Z/{d}" for d in self.invariant_factors]
        parts.extend("Z" for _ in range(self.free_rank))
        return " + ".join(parts) if parts else "0"


class PointedGroup(Record):
    """Group in canonical form with a marked element given in canonical
    coordinates (torsion coordinates first, reduced mod the factor)."""

    group: FgAbelianGroup
    marked: tuple[int, ...]

    def __post_init__(self):
        marked, = freeze((self.marked,))
        vars(self).update(marked=marked)
        moduli = self.group.moduli()
        if len(self.marked) != len(moduli):
            raise FormatError("marked element has the wrong number of coordinates")
        for v, d in zip(self.marked, moduli):
            if d and not (0 <= v < d):
                raise FormatError("marked torsion coordinates must be reduced")

    def describe(self) -> str:
        coords = ",".join(str(v) for v in self.marked)
        return f"({self.group.describe()}; [{coords}])"


class CokernelPresentation(Record):
    """Z^n / (M Z^n) with the coordinate map x -> U x onto the canonical form."""

    group: FgAbelianGroup
    smith_form: SmithDecomposition
    kept: tuple[int, ...]        # indices of diagonal entries >= 2, then zeros

    def project(self, vector) -> tuple[int, ...]:
        """Canonical coordinates of the class of an integer vector."""
        image = mat_vec(self.smith_form.u, tuple(vector))
        moduli = self.group.moduli()
        return tuple(image[i] % d if d else image[i] for i, d in zip(self.kept, moduli))


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


# --------------------------------------------------------- pointed isomorphy

class PointedIsoResult(Record):
    """verdict "yes" or "no".  Yes carries a witness matrix in canonical
    coordinates (torsion block first), re-checked before it is returned; no
    carries a reason string."""

    verdict: str
    witness: IntMatrix | None = None
    reason: str | None = None


def _divides(d: int, x: int) -> bool:
    """d | x, where 0, the modulus of a free coordinate, divides only 0."""
    return x % d == 0 if d else x == 0


def _is_endomorphism(mat, moduli) -> bool:
    """Columns are generator images; well-defined iff d_i divides M_ij d_j
    (modulus 0 marks a free coordinate, which no torsion generator reaches)."""
    return all(_divides(di, x * dj)
               for row, di in zip(mat, moduli) for x, dj in zip(row, moduli))


def _is_pointed_automorphism(mat, inv, src, dst, moduli) -> bool:
    """mat and inv are endomorphisms, mat inv and inv mat are the identity
    modulo each row's modulus, and mat carries src to dst."""
    def is_identity(prod):
        return all(_divides(d, x - (i == j)) for i, (row, d) in
                   enumerate(zip(prod, moduli)) for j, x in enumerate(row))
    image = mat_vec(mat, src)
    return (_is_endomorphism(mat, moduli) and _is_endomorphism(inv, moduli)
            and is_identity(mat_mul(mat, inv)) and is_identity(mat_mul(inv, mat))
            and all(_divides(d, x - y) for x, y, d in zip(image, dst, moduli)))


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

    The witness W = (α β; 0 γ) glues the blocks F_s⁻¹ F_t by CRT, takes
    γ = P_w⁻¹ P_v from the content reducers, and β = -c ⊗ (row 0 of P_v)
    where αt - s = gc.  The same steps give its inverse W′ = (α′ β′; 0 γ′):
    α′ glues F_t⁻¹ F_s, γ′ = P_v⁻¹ P_w and β′ = -α′βγ′.  A yes is re-checked
    against W′ by products alone: W and W′ are well-defined, W W′ and W′ W
    are the identity modulo the moduli, and W carries the mark of a to the
    mark of b."""
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
    alpha_inv = [[0] * tor for _ in range(tor)]
    glued = [1] * tor
    for q in base:
        exps = [_valuation(d, q) for d in factors]
        k = _valuation(top, q)
        form_t, f_t, finv_t = _height_reducer(t, q, exps, k)
        form_s, f_s, finv_s = _height_reducer(s, q, exps, k)
        if form_t != form_s:
            return PointedIsoResult(
                "no", reason=f"marked elements have different heights at {q}")
        blocks = mat_mul(finv_s, f_t), mat_mul(finv_t, f_s)
        # CRT: row i of alpha (alpha_inv) agrees with row i of each block
        # mod q^a_i
        for i, x in enumerate(exps):
            m = q ** x
            lift = pow(glued[i], -1, m)
            for glue, block in zip((alpha, alpha_inv), blocks):
                glue[i] = [y + glued[i] * ((z - y) * lift % m)
                           for y, z in zip(glue[i], block[i])]
            glued[i] *= m

    p_v, pinv_v = _content_reducer(v)
    p_w, pinv_w = _content_reducer(w)
    content_row = p_v[0] if v else ()          # content_row . v = g
    beta = []
    for i, d in enumerate(factors):
        h = math.gcd(g, d)
        diff = (sum(x * y for x, y in zip(alpha[i], t)) - s[i]) % d
        c = diff // h * pow(g // h, -1, d // h)
        beta.append([-c * x % d for x in content_row])
    gamma_inv = mat_mul(pinv_v, p_w)
    beta_inv = [[-x % d for x in row] for row, d in
                zip(mat_mul(alpha_inv, mat_mul(beta, gamma_inv)), factors)]
    mat = freeze([[*x, *y] for x, y in zip(alpha, beta)]
                 + [[0] * tor + list(row) for row in mat_mul(pinv_w, p_v)])
    inv = ([[*x, *y] for x, y in zip(alpha_inv, beta_inv)]
           + [[0] * tor + list(row) for row in gamma_inv])
    require(_is_pointed_automorphism(mat, inv, a.marked, b.marked,
                                     a.group.moduli()),
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

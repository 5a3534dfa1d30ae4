"""Decidable equivalence verdicts from exact integer invariants.

For a presentation with adjacency matrix A the report carries the cokernel
of I - A (the flow-equivalence group), the cokernel of I - A^T pointed at
the class of the all-ones vector, the sign of det(I - A), and a rational
Collatz-Wielandt enclosure of the spectral radius (diagnostic only).

Flow equivalence is decided by group isomorphism plus determinant sign;
continuous orbit equivalence by pointed isomorphism plus determinant sign
(Matsumoto-Matui, Kyoto J. Math. 54, 2014), which `linalg.pointed_iso`
decides outright, so both verdicts are yes or no.  A consistency check
cross-validates verdicts against explicit two-sided machine witnesses and
raises on any contradiction; it alone imports the machine layers
(``transducers``, ``cohomology``), so the verdicts load neither."""
from __future__ import annotations

from fractions import Fraction

from .errors import (
    ContradictionDetected,
    InsufficientLookahead,
    InvalidResult,
    PresentationMismatch,
    require,
)
from .linalg import (
    FgAbelianGroup,
    PointedGroup,
    PointedIsoResult,
    cokernel,
    determinant,
    mat_vec,
    pointed_iso,
    transpose,
)
from .record import Record
from .shifts import Matrix, SftPresentation


def _identity_minus(m: Matrix) -> Matrix:
    n = len(m)
    return tuple(
        tuple((1 if i == j else 0) - m[i][j] for j in range(n))
        for i in range(n))


class InvariantReport(Record):
    bf_group: FgAbelianGroup                      # coker(I - A)
    k0_pointed: PointedGroup                      # coker(I - A^T), class of 1
    det_sign: int
    spectral_radius_bounds: tuple[Fraction, Fraction]


def invariants(p: SftPresentation) -> InvariantReport:
    a = p.adjacency
    n = len(a)
    i_minus_a = _identity_minus(a)
    bf_cok = cokernel(i_minus_a)
    k0_cok = cokernel(_identity_minus(transpose(a)))
    marked = k0_cok.project((1,) * n)
    det = determinant(i_minus_a)
    sign = (det > 0) - (det < 0)
    # det(I - A) = +-(product of invariant factors), so sign 0 means free rank
    require((sign == 0) == (bf_cok.group.free_rank > 0),
            "invariants: det(I - A) sign disagrees with the free rank")

    v = tuple(1 for _ in range(n))
    for _ in range(8):
        v = mat_vec(a, v)
    av = mat_vec(a, v)
    ratios = [Fraction(av[i], v[i]) for i in range(n)]
    bounds = (min(ratios), max(ratios))

    return InvariantReport(
        bf_group=bf_cok.group,
        k0_pointed=PointedGroup(k0_cok.group, marked),
        det_sign=sign,
        spectral_radius_bounds=bounds)


class FlowReport(Record):
    verdict: bool
    reason: str
    a: InvariantReport
    b: InvariantReport


def flow_equivalent(pa: SftPresentation, pb: SftPresentation) -> FlowReport:
    """Groups isomorphic (canonical invariant factors equal) and determinant
    signs equal."""
    ra = invariants(pa)
    rb = invariants(pb)
    if ra.det_sign != rb.det_sign:
        return FlowReport(False, "determinant signs differ", ra, rb)
    if ra.bf_group != rb.bf_group:
        return FlowReport(False, "groups are not isomorphic", ra, rb)
    return FlowReport(True, "groups isomorphic and signs equal", ra, rb)


class CoeReport(Record):
    verdict: str                         # yes / no
    reason: str
    iso: PointedIsoResult | None
    a: InvariantReport
    b: InvariantReport


def coe_verdict(pa: SftPresentation, pb: SftPresentation) -> CoeReport:
    """Pointed isomorphism of the marked cokernels plus determinant sign."""
    ra = invariants(pa)
    rb = invariants(pb)
    if ra.det_sign != rb.det_sign:
        return CoeReport("no", "determinant signs differ", None, ra, rb)
    iso = pointed_iso(ra.k0_pointed, rb.k0_pointed)
    if iso.verdict == "yes":
        return CoeReport("yes", "pointed groups isomorphic and signs equal",
                         iso, ra, rb)
    return CoeReport("no", f"pointed groups differ: {iso.reason}", iso, ra, rb)


# -------------------------------------------------------------- consistency

class CoeWitness(Record):
    """Two-sided machine witness of a continuous orbit equivalence: mutually
    inverse transducers with verified cocycle data."""

    forward: tr.Transducer
    forward_data: tr.OrbitData
    backward: tr.Transducer
    backward_data: tr.OrbitData


class ConsistencyReport(Record):
    coe: CoeReport
    witness_verified: bool
    unit_image_forward: coh.LocallyConstantFunction | None
    eventual_conjugacy: bool | None
    strong_coe: bool | None


def _check_witness(pa: SftPresentation, pb: SftPresentation,
                   witness: CoeWitness) -> None:
    from . import transducers as tr
    fwd, bwd = witness.forward, witness.backward
    if fwd.domain != pa or fwd.codomain != pb:
        raise PresentationMismatch("forward witness does not map A to B")
    if bwd.domain != pb or bwd.codomain != pa:
        raise PresentationMismatch("backward witness does not map B to A")
    for machine, data, name in ((fwd, witness.forward_data, "forward"),
                                (bwd, witness.backward_data, "backward")):
        rel = tr.verify_orbit_relation(machine, data)
        if not rel.holds:
            raise InvalidResult(
                f"{name} witness violates its orbit relation on "
                f"{machine.domain.word_label(rel.witness)}")
    for outer, inner, p, name in ((bwd, fwd, pa, "backward after forward"),
                                  (fwd, bwd, pb, "forward after backward")):
        round_trip = tr.compose(outer, inner)
        res = tr.equivalent_maps(round_trip, tr.identity_transducer(p))
        if res.status == "unequal":
            raise InvalidResult(
                f"{name} is not the identity "
                f"(splits on {p.word_label(res.witness)})")
        if res.status == "inconclusive":
            raise InsufficientLookahead(
                f"cannot certify that {name} is the identity")


def consistency_check(pa: SftPresentation, pb: SftPresentation,
                      witness: CoeWitness | None = None) -> ConsistencyReport:
    """Cross-validate the invariant verdict against an explicit witness.

    A witness is accepted only if its orbit relations verify and the two
    machines invert each other; an accepted witness together with a `no`
    verdict trips ContradictionDetected.  Both flags read the image of the
    constant 1 along each machine, from one ``is_strong_coe`` per side:
    strong COE when both images are cohomologous to 1, eventual conjugacy
    when both equal 1."""
    from . import cohomology as coh, transducers as tr
    verdict = coe_verdict(pa, pb)
    if witness is None:
        return ConsistencyReport(verdict, False, None, None, None)
    _check_witness(pa, pb, witness)
    if verdict.verdict == "no":
        raise ContradictionDetected(
            "verified orbit-equivalence witness against a 'no' verdict: "
            + verdict.reason)
    fwd = tr.is_strong_coe(witness.forward, witness.forward_data)
    bwd = tr.is_strong_coe(witness.backward, witness.backward_data)
    conj = fwd.unit_image == coh.unit(pa) and bwd.unit_image == coh.unit(pb)
    return ConsistencyReport(verdict, True, fwd.unit_image, conj,
                             fwd.verdict and bwd.verdict)

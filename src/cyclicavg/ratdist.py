"""The rational-distances machinery for the unit regular 24-gon.

The pipeline: a point at rational distances from every vertex of a unit-side
regular n-gon forces rational cyclic averages S2 and S4, which in turn make
sin(pi/n) a root of the rational quartic

    8 (S4 - S2^2) x^4 - 4 S2 x^2 + 1 = 0,

hence an algebraic number of degree at most 4.  For n = 24 the nested
radical sin(pi/24) = sqrt(2 - sqrt(2 + sqrt 3)) / 2 satisfies a degree-8
integer polynomial certified irreducible here, so its degree is 8 > 4 and no
such point exists.  Everything in the report is recomputed on the spot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DegenerateQuarticError, NonRationalInputError
from .fields import Scalar, exact_sqrt
from .geometry import PlanePlacement, PolygonSpec, polygon_distances_sq
from .intpoly import DegreeCertificate, IntegerPolynomial, certify_no_small_factor, \
    poly_mul, poly_sub, rational_roots
from .polygon import recover_r2_l2
from .relations import BranchPair, _window_areas


def side_from_averages(n: int, s2: float, s4: float) -> BranchPair:
    """Both branches of the squared side a^2 = 4 sin^2(pi/n) {R^2, L^2}, in float.

    The pair is recover_r2_l2's.  One branch reproduces (2 R sin(pi/n))^2 for
    genuine data; the other swaps the roles of R and L.
    """
    hi, lo = recover_r2_l2(float(s2), float(s4))
    factor = 4.0 * math.sin(math.pi / n) ** 2
    return BranchPair(factor * hi, factor * lo)


@dataclass(frozen=True)
class QuarticWitness:
    """Coefficients (c4, c2, c0) of c4 x^4 + c2 x^2 + c0 annihilating sin(pi/n)."""

    c4: Scalar
    c2: Scalar
    c0: Scalar

    def __call__(self, x: float) -> float:
        x2 = float(x) * float(x)
        return float(self.c4) * x2 * x2 + float(self.c2) * x2 + float(self.c0)


def quartic_witness(s2: Scalar, s4: Scalar) -> QuarticWitness:
    """The quartic 8(S4 - S2^2) x^4 - 4 S2 x^2 + 1 from a placement's averages.

    Rational coefficients whenever S2, S4 are rational: that is the entire
    point.  Degenerate (S4 = S2^2, i.e. L = 0 or R = 0) inputs are refused.
    """
    gap = s4 - s2 * s2
    if not gap > 0:
        raise DegenerateQuarticError(
            "S4 - S2^2 must be positive (the placement must have R > 0 and L > 0)")
    return QuarticWitness(8 * gap, -4 * s2, 1)


def sin_pi_24_float() -> float:
    """sin(pi/24) evaluated from its nested radical."""
    return 0.5 * math.sqrt(2.0 - math.sqrt(2.0 + math.sqrt(3.0)))


def sin_pi_24_minimal_polynomial() -> IntegerPolynomial:
    """Degree-8 integer polynomial with root sin(pi/24), derived by squaring.

    From 4 x^2 = 2 - sqrt(2 + sqrt 3): isolate and square twice,
    ((2 - 4x^2)^2 - 2)^2 = 3.  Expanded here symbolically rather than
    hard-coded.
    """
    inner = [2, 0, -4]                      # 2 - 4 x^2
    squared_once = poly_sub(poly_mul(inner, inner), [2])
    squared_twice = poly_sub(poly_mul(squared_once, squared_once), [3])
    return IntegerPolynomial(tuple(squared_twice))


@dataclass(frozen=True)
class AreaConditionReport:
    """Rationality/equality of the paired triangle areas for n = 4 or 6."""

    n: int
    scaled_area_sq: tuple[Fraction, Fraction]  # (area or sqrt3*area)^2 per window
    area_values: tuple[Fraction | None, Fraction | None]  # None when irrational
    rational: tuple[bool, bool]
    equal: bool

    @property
    def satisfied(self) -> bool:
        return self.equal and all(self.rational)


def necessary_condition_areas(n: int, d_sq: Sequence[Scalar]) -> AreaConditionReport:
    """Exact necessary conditions for a rational-distance point on n = 4, 6.

    The two index windows must give equal areas, and the area (n = 4) or
    sqrt(3) times the area (n = 6) must be rational.  Inputs are squared
    distances and must be exact rationals.
    """
    try:
        d = [Fraction(x) for x in d_sq]
    except (TypeError, ValueError, OverflowError) as exc:
        raise NonRationalInputError("squared distances must be rational") from exc
    if n not in (4, 6):
        raise NonRationalInputError("area conditions exist for n = 4 and n = 6")
    if len(d) != n:
        raise NonRationalInputError(f"need {n} squared distances")
    # area(d1, sqrt2 d2, d3)^2 or (sqrt3 * area(d1, d3, d5))^2 = h16/16
    scaled = tuple(Fraction(h16, 16) for _, h16 in _window_areas(n, d))
    values = tuple(exact_sqrt(s) if s >= 0 else None for s in scaled)
    rational = tuple(v is not None for v in values)
    return AreaConditionReport(n, scaled, values, rational, scaled[0] == scaled[1])


# ---------------------------------------------------------------------------
# the full impossibility report


@dataclass(frozen=True)
class RationalDistanceReport:
    """Complete argument chain for the unit 24-gon, all values recomputed."""

    sin_value: float
    quartic_example: QuarticWitness
    quartic_residual: float
    octic: IntegerPolynomial
    octic_float_residual: float
    rational_root_count: int
    approximant_values: tuple[tuple[Fraction, int], ...]  # (p/q, sign of value)
    certificate: DegreeCertificate
    conclusion: str

    def render(self) -> str:
        lines = []
        w = lines.append
        w("Rational distances to the vertices of the unit regular 24-gon")
        w("=" * 62)
        w("")
        w("Suppose a plane point had rational distances to all 24 vertices of")
        w("the 24-gon with side 1.  Its cyclic averages S2 and S4 (means of the")
        w("squared and fourth-powered distances) would then be rational, and")
        w("sin(pi/24) would satisfy the rational quartic")
        w("")
        w("    8(S4 - S2^2) x^4 - 4 S2 x^2 + 1 = 0,")
        w("")
        w("making it an algebraic number of degree at most 4.")
        w("")
        q = self.quartic_example
        w("Spot check from one genuine unit-side placement (float):")
        w(f"    quartic ({q.c4:.12g}, {q.c2:.12g}, {q.c0:.12g})")
        w(f"    value at sin(pi/24): {self.quartic_residual:.3e}")
        w("")
        w(f"But sin(pi/24) = sqrt(2 - sqrt(2 + sqrt 3))/2 = {self.sin_value:.8f}")
        w("satisfies the integer polynomial (derived by repeated squaring)")
        w(f"    p(x) = {self.octic}")
        w(f"    degree {self.octic.degree}, |p(sin(pi/24))| = "
          f"{abs(self.octic_float_residual):.3e}")
        w(f"    rational roots found: {self.rational_root_count}")
        approx = ", ".join(f"p({a})!=0" for a, _ in self.approximant_values[:3])
        w(f"    nearby rational approximants are not roots: {approx}")
        w("")
        cert = self.certificate
        if cert.certified:
            how = {
                "single-prime": f"p is irreducible mod {cert.certifying_prime}",
                "degree-patterns": "mod-prime factor-degree patterns exclude "
                                   "every degree up to 4",
                "divisor-search": "exhaustive exact divisor search (integer "
                                  "interpolation at 5 sample points) finds no "
                                  "factor of degree <= 4",
            }[cert.method]
            w(f"Certificate: {how}.")
            if cert.fully_irreducible:
                w("Hence p is irreducible and is the minimal polynomial of")
                w("sin(pi/24): its algebraic degree is exactly 8 > 4.")
            else:
                w("Hence the minimal polynomial of sin(pi/24) has degree > 4.")
        else:
            w("Certificate: INCONCLUSIVE; the degree bound was not established."
              if cert.small_factor is None else
              f"Certificate: NONE; the divisor search found a factor of degree "
              f"{cert.small_factor.degree}, so p is reducible.")
            lines.extend(f"    {note}" for note in cert.notes)
        pattern_text = "; ".join(
            f"{q_}:{list(deg)}" for q_, deg in cert.prime_patterns[:6])
        w("")
        w("```")
        w(f"degree: {self.octic.degree}")
        w(f"certifying_prime: {cert.certifying_prime if cert.certifying_prime else 'none'}")
        w(f"factor_degrees: {pattern_text}")
        w(f"conclusion: {self.conclusion}")
        w("```")
        w("")
        if cert.certified:
            w("The two degree statements contradict each other, so no point of")
            w("the plane is at rational distances from all vertices of the unit")
            w("regular 24-gon: no rational-distance point exists.")
        elif cert.small_factor is not None:
            w("reducible: the search found a factor of p, so p proves no degree bound.")
        else:
            w("inconclusive: certificate search exhausted without a proof.")
        return "\n".join(lines)


def rational24_report() -> RationalDistanceReport:
    """Build the full report; every number is recomputed, none hard-coded."""
    n = 24
    sin_value = sin_pi_24_float()
    # one genuine placement on the unit-side 24-gon: R = 1/(2 sin(pi/24))
    R = 1.0 / (2.0 * sin_value)
    L = 0.8 * R
    alpha = 0.37
    d_sq = polygon_distances_sq(PolygonSpec(n, R), PlanePlacement(L, alpha))
    s2 = math.fsum(d_sq) / n
    s4 = math.fsum(x * x for x in d_sq) / n
    witness = quartic_witness(s2, s4)
    octic = sin_pi_24_minimal_polynomial()
    roots = rational_roots(octic)
    approximants = []
    for denom_power in range(3, 9):
        approx = Fraction(sin_value).limit_denominator(10 ** denom_power)
        value = octic(approx)
        approximants.append((approx, 1 if value > 0 else (-1 if value < 0 else 0)))
    certificate = certify_no_small_factor(octic, max_degree=4)
    conclusion = ("no rational-distance point exists" if certificate.certified
                  else "inconclusive" if certificate.small_factor is None
                  else "p is reducible")
    return RationalDistanceReport(
        sin_value=sin_value,
        quartic_example=witness,
        quartic_residual=witness(sin_value),
        octic=octic,
        octic_float_residual=octic(sin_value),
        rational_root_count=len(roots),
        approximant_values=tuple(approximants),
        certificate=certificate,
        conclusion=conclusion,
    )

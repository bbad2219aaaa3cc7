"""Power sums of squared vertex distances for the five Platonic solids.

The vertex sets are spherical t-designs (strengths in the geometry table,
``SolidKind.t``), so for m = 1..t the per-vertex average is the
design-moment formula of :mod:`cyclicavg.polygon` at d = 3, with
A = R^2 + L^2:

    S^(2m) = sum_k C(m,2k) A^(m-2k) (4 R^2 L^2)^k E_3[cos^2k],
    E_3[cos^2k] = 1/(2k+1).

Beyond t the sums depend on the direction of the placement, not only on L.

The exact oracle reads the vertex tables directly: it works in Z[sqrt 5]
over one integer denominator and divides once at the end, so it shares no
arithmetic with the closed forms it checks.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import NoAntipodesError, OutOfRangeError
from .fields import GOLDEN_RATIO, Scalar, Surd, _over_one_denominator, _root5_product, _surd, power
from .geometry import _VERTICES, SolidKind, SolidSpec, SpacePlacement, solid_distances_sq
from .polygon import (Locus, _check_power, _classify, _design_sum, _finite, _power_sum,
                      _recover, _sphere_residual, power_sum_closed)

_SOLID_VERTEX_COUNTS = frozenset(kind.n for kind in SolidKind)
# The table scalars s_k = 0, 1, phi, 1/phi as integer pairs (u, w) = U s_k
# over their one denominator U, then their negatives in reverse, so that
# signed table index -k reads -U s_k.
_U, _UNITS = _over_one_denominator((0, 1, GOLDEN_RATIO, 1 / GOLDEN_RATIO))
_UNITS += [(-u, -w) for u, w in reversed(_UNITS[1:])]


def solid_power_sum_closed_sq(kind: SolidKind, m: int, r_sq: Scalar,
                              l_sq: Scalar) -> Scalar:
    """Closed-form sum of d_i^(2m) over all vertices, from squared inputs."""
    _check_power(m, kind.t, kind.value)
    return _finite(kind.n * _design_sum(m, 3, r_sq + l_sq, r_sq * l_sq))


solid_power_sum_closed = power_sum_closed


def solid_power_sum_brute(spec: SolidSpec, m: int, p: SpacePlacement) -> Scalar:
    """Oracle: sum d_i^(2m) from the vertex coordinates. Any m >= 1.

    Exact for exact spec and placement (Q(sqrt 5) for the golden-ratio
    solids); float otherwise.  With D the common denominator of c and the
    placement, UD times each vertex coordinate c (u + w sqrt 5)/U and each
    placement coordinate is an integer pair in Z[sqrt 5]; every (UD)^2 d^2
    is raised to the m-th power as a pair, and the sum is divided once by
    (UD)^(2m).
    """
    values = (spec.c, p.x, p.y, p.z)
    if m < 1 or any(isinstance(v, float) for v in values):
        return _power_sum(solid_distances_sq(spec, p), m)
    D, ((cu, cw), *place) = _over_one_denominator(values)
    place = [(_U * a, _U * b) for a, b in place]
    coords = [(cu * u + 5 * cw * w, cu * w + cw * u) for u, w in _UNITS]  # UD c s_k
    depth, getters = _VERTICES[spec.kind]
    total_a = total_b = 0
    for get in getters:
        sa = sb = 0
        for (xa, xb), (va, vb) in zip(place, get(coords)):
            da, db = xa - va, xb - vb
            sa += da * da + 5 * db * db
            sb += 2 * da * db
        a, b = power((sa, sb), m, _root5_product, (1, 0))
        total_a += a
        total_b += b
    scale = (_U * D) ** (2 * m)
    if depth > 1 or any(isinstance(v, Surd) for v in values):  # phi in the table
        return _surd(total_a, total_b, scale)
    if any(isinstance(v, Fraction) for v in values):
        return Fraction(total_a, scale)
    return total_a // scale


def solid_locus_classify(spec: SolidSpec, m: int, C: Scalar) -> Locus:
    """Sphere of the unique radius, the centroid, or the empty set."""
    return _classify(spec, m, C)


def recover_r2_l2_solid(s2: Scalar, s4: Scalar) -> tuple[Scalar, Scalar]:
    """{R^2, L^2} from a solid's first two cyclic averages.

    Solves S2 = R^2 + L^2, S4 = S2^2 + (4/3) R^2 L^2; the discriminant
    4 S2^2 - 3 S4 equals (R^2 - L^2)^2 for consistent data.
    """
    return _recover(3, s2, s4)


def circumsphere_residual(d_sq: Sequence[Scalar]) -> Scalar:
    """4 (sum d^2)^2 - 3 n sum d^4; zero exactly on the circumsphere."""
    if len(d_sq) not in _SOLID_VERTEX_COUNTS:
        raise OutOfRangeError("need the full distance multiset of one solid")
    return _sphere_residual(3, d_sq)


def solid_relation_residuals(kind: SolidKind, r_sq: Scalar, s2: Scalar,
                             s4: Scalar, s6: Scalar | None = None,
                             s8: Scalar | None = None,
                             s10: Scalar | None = None) -> list[tuple[str, Scalar, Scalar]]:
    """(label, lhs, rhs) for every average-level relation the kind supports.

    Callers compare lhs against rhs at their own tolerance; exact inputs give
    exact equality.
    """
    rows: list[tuple[str, Scalar, Scalar]] = []
    rows.append(("S4 + 16/9 R^4 = (S2 + 2/3 R^2)^2",
                 s4 + Fraction(16, 9) * r_sq * r_sq, (s2 + Fraction(2, 3) * r_sq) ** 2))
    if kind.t >= 3 and s6 is not None:
        rows.append(("S6 = S2((S2 + 2R^2)^2 - 8R^4)",
                     s6, s2 * ((s2 + 2 * r_sq) ** 2 - 8 * r_sq * r_sq)))
        rows.append(("S6 = S2(3 S4 - 2 S2^2)",
                     s6, s2 * (3 * s4 - 2 * s2 * s2)))
    if kind.t >= 5 and s8 is not None and s10 is not None:
        gap = s2 - r_sq  # equals L^2
        rows.append(("S8 - S2^4 = 8R^2 L^2 (S2^2 + 2/5 R^2 L^2)",
                     s8 - s2 ** 4,
                     8 * r_sq * gap * (s2 * s2 + Fraction(2, 5) * r_sq * gap)))
        rows.append(("S10 - S2^5 = 8R^2 S2 L^2 (5/3 S2^2 + 2 R^2 L^2)",
                     s10 - s2 ** 5,
                     8 * r_sq * s2 * gap * (Fraction(5, 3) * s2 * s2 + 2 * r_sq * gap)))
        rows.append(("S8 = (9 S4^2 + 12 S4 S2^2 - 16 S2^4)/5",
                     s8, Fraction(1, 5) * (9 * s4 * s4 + 12 * s4 * s2 * s2 - 16 * s2 ** 4)))
        rows.append(("S10 = S2 S4 (9 S4 - 8 S2^2)",
                     s10, s2 * s4 * (9 * s4 - 8 * s2 * s2)))
    return rows


def cube_quadruple_residuals(d_sq: Sequence[Scalar], r_sq: Scalar,
                             l_sq: Scalar) -> list[Scalar]:
    """Residuals of the two embedded-tetrahedron quadruples of a cube.

    Odd- and even-indexed cube vertices each span a regular tetrahedron with
    the same circumradius, so their quadruple sums obey the tetrahedron
    closed forms for m = 1, 2.  Order: (odd m=1, even m=1, odd m=2, even m=2).
    """
    if len(d_sq) != 8:
        raise OutOfRangeError("need the cube's 8 squared distances")
    out: list[Scalar] = []
    for m in (1, 2):
        closed = solid_power_sum_closed_sq(SolidKind.TETRAHEDRON, m, r_sq, l_sq)
        for quad in (d_sq[0::2], d_sq[1::2]):
            out.append(sum(d ** m for d in quad) - closed)
    return out


def antipodal_pair_sums(kind: SolidKind, d_sq: Sequence[Scalar]) -> tuple[Scalar, ...]:
    """d^2 sums over antipodal vertex pairs (2j-1, 2j); all equal 2(R^2+L^2).

    The tetrahedron has no antipodal vertices and is rejected.
    """
    if kind is SolidKind.TETRAHEDRON:
        raise NoAntipodesError("the tetrahedron has no diametrically opposite vertices")
    if len(d_sq) != kind.n:
        raise OutOfRangeError(f"need {kind.n} squared distances")
    return tuple(d_sq[2 * j] + d_sq[2 * j + 1] for j in range(kind.n // 2))

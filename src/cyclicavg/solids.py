"""Power sums of squared vertex distances for the five Platonic solids.

The vertex sets are spherical t-designs with strengths t = 2 (tetrahedron),
3 (octahedron, cube) and 5 (icosahedron, dodecahedron), so for m = 1..t the
per-vertex average is the design-moment formula of :mod:`cyclicavg.polygon`
at d = 3, with A = R^2 + L^2:

    S^(2m) = sum_k C(m,2k) A^(m-2k) (4 R^2 L^2)^k E_3[cos^2k],
    E_3[cos^2k] = 1/(2k+1).

Beyond t the sums depend on the direction of the placement, not only on L.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import NoAntipodesError, OutOfRangeError
from .fields import Scalar, ratio_like
from .geometry import SolidKind, SolidSpec, SpacePlacement, solid_distances_sq
from .polygon import (CyclicAverage, Locus, _check_power, _classify, _design_sum, _finite,
                      _recover, _sphere_residual)

MAX_POWER_INDEX = {
    SolidKind.TETRAHEDRON: 2,
    SolidKind.OCTAHEDRON: 3,
    SolidKind.CUBE: 3,
    SolidKind.ICOSAHEDRON: 5,
    SolidKind.DODECAHEDRON: 5,
}


def per_vertex_solid_power_sum_sq(m: int, r_sq: Scalar, l_sq: Scalar) -> Scalar:
    """The solid cyclic average S^(2m) in terms of R^2 and L^2 (any backend)."""
    _check_power(m, 5, "Platonic solids")
    return _design_sum(m, 3, r_sq + l_sq, r_sq * l_sq)


def solid_power_sum_closed_sq(kind: SolidKind, m: int, r_sq: Scalar,
                              l_sq: Scalar) -> Scalar:
    """Closed-form sum of d_i^(2m) over all vertices, from squared inputs."""
    _check_power(m, MAX_POWER_INDEX[kind], kind.value)
    return _finite(kind.n * per_vertex_solid_power_sum_sq(m, r_sq, l_sq))


def solid_power_sum_closed(spec: SolidSpec, m: int, L: Scalar) -> Scalar:
    if isinstance(L, float) or isinstance(spec.c, float):
        L = float(L)
        return solid_power_sum_closed_sq(spec.kind, m, float(spec.R_sq), L * L)
    return solid_power_sum_closed_sq(spec.kind, m, spec.R_sq, L * L)


def solid_cyclic_average(spec: SolidSpec, m: int, L: Scalar) -> CyclicAverage:
    value = solid_power_sum_closed(spec, m, L) / spec.n
    return CyclicAverage(m, value, spec)


def solid_power_sum_brute(spec: SolidSpec, m: int, p: SpacePlacement) -> Scalar:
    """Oracle: sum d_i^(2m) from the vertex coordinates. Any m >= 1.

    Exact for exact spec and placement (Q(sqrt 5) for the golden-ratio
    solids); float otherwise.
    """
    if m < 1:
        raise OutOfRangeError("power index m must be >= 1")
    d_sq = solid_distances_sq(spec, p)
    if any(isinstance(d, float) for d in d_sq):
        try:
            total = math.fsum(float(d) ** m for d in d_sq)
        except OverflowError:
            total = math.inf
        return _finite(total)
    total: Scalar = 0
    for d in d_sq:
        total = total + d ** m
    return total


def solid_locus_classify(spec: SolidSpec, m: int, C: Scalar) -> Locus:
    """Sphere of the unique radius, the centroid, or the empty set."""
    _check_power(m, MAX_POWER_INDEX[spec.kind], spec.kind.value)
    return _classify(spec.n, m, spec.R_sq, C, 3)


def recover_r2_l2_solid(s2: Scalar, s4: Scalar) -> tuple[Scalar, Scalar]:
    """{R^2, L^2} from a solid's first two cyclic averages.

    Solves S2 = R^2 + L^2, S4 = S2^2 + (4/3) R^2 L^2; the discriminant
    4 S2^2 - 3 S4 equals (R^2 - L^2)^2 for consistent data.
    """
    return _recover(3, s2, s4)


def circumsphere_residual(d_sq: Sequence[Scalar]) -> Scalar:
    """4 (sum d^2)^2 - 3 n sum d^4; zero exactly on the circumsphere."""
    if len(d_sq) not in (4, 6, 8, 12, 20):
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
    c169 = ratio_like(16, 9, s2)
    c23 = ratio_like(2, 3, s2)
    rows.append(("S4 + 16/9 R^4 = (S2 + 2/3 R^2)^2",
                 s4 + c169 * r_sq * r_sq, (s2 + c23 * r_sq) ** 2))
    if MAX_POWER_INDEX[kind] >= 3 and s6 is not None:
        rows.append(("S6 = S2((S2 + 2R^2)^2 - 8R^4)",
                     s6, s2 * ((s2 + 2 * r_sq) ** 2 - 8 * r_sq * r_sq)))
        rows.append(("S6 = S2(3 S4 - 2 S2^2)",
                     s6, s2 * (3 * s4 - 2 * s2 * s2)))
    if MAX_POWER_INDEX[kind] >= 5 and s8 is not None and s10 is not None:
        gap = s2 - r_sq  # equals L^2
        c25 = ratio_like(2, 5, s2)
        c53 = ratio_like(5, 3, s2)
        c15 = ratio_like(1, 5, s2)
        rows.append(("S8 - S2^4 = 8R^2 L^2 (S2^2 + 2/5 R^2 L^2)",
                     s8 - s2 ** 4,
                     8 * r_sq * gap * (s2 * s2 + c25 * r_sq * gap)))
        rows.append(("S10 - S2^5 = 8R^2 S2 L^2 (5/3 S2^2 + 2 R^2 L^2)",
                     s10 - s2 ** 5,
                     8 * r_sq * s2 * gap * (c53 * s2 * s2 + 2 * r_sq * gap)))
        rows.append(("S8 = (9 S4^2 + 12 S4 S2^2 - 16 S2^4)/5",
                     s8, c15 * (9 * s4 * s4 + 12 * s4 * s2 * s2 - 16 * s2 ** 4)))
        rows.append(("S10 = S2 S4 (9 S4 - 8 S2^2)",
                     s10, s2 * s4 * (9 * s4 - 8 * s2 * s2)))
    return rows


_CUBE_QUADRUPLES = ((1, 3, 5, 7), (2, 4, 6, 8))


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
        closed = 4 * per_vertex_solid_power_sum_sq(m, r_sq, l_sq)
        for quad in _CUBE_QUADRUPLES:
            out.append(sum(d_sq[i - 1] ** m for i in quad) - closed)
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

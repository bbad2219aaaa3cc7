"""Figure specifications, placements, vertex coordinates, squared distances.

Conventions used throughout the library:

* vertices are numbered 1..n,
* polygon vertex i sits at angle (i-1) * 2*pi/n on the circumcircle, and the
  polar angle ``alpha`` of a plane placement is measured from vertex 1,
* all five solids are centred on the origin, with vertex orders fixed by
  the tables below: vertices 2j-1, 2j of every centrally symmetric solid are
  antipodal, and each solid's n and R^2/c^2 are read off its table.

Distances are handled squared wherever possible: every identity in the
library is polynomial in squared distances, squared circumradius and squared
centroid distance, which is what keeps the exact backend radical-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from operator import itemgetter
from typing import ClassVar

from .errors import OutOfRangeError
from .fields import GOLDEN_RATIO, Scalar

Triple = tuple[Scalar, Scalar, Scalar]


@dataclass(frozen=True)
class PolygonSpec:
    """A regular n-gon given by vertex count and circumradius.

    Every figure spec answers n (vertex count), dim (2 or 3), t (the design
    strength: sums of d^(2m) are direction-free for m <= t), R_sq and name.
    """

    n: int
    R: Scalar = 1.0
    dim: ClassVar[int] = 2

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 3:
            raise OutOfRangeError(f"polygon needs an integer n >= 3, got {self.n!r}")
        if not self.R > 0:
            raise OutOfRangeError("circumradius must be positive")

    @property
    def t(self) -> int:
        return self.n - 1

    @property
    def name(self) -> str:
        return f"{self.n}-gon"

    @property
    def R_sq(self) -> Scalar:
        return self.R * self.R


class SolidKind(Enum):
    TETRAHEDRON = "tetrahedron"
    OCTAHEDRON = "octahedron"
    CUBE = "cube"
    ICOSAHEDRON = "icosahedron"
    DODECAHEDRON = "dodecahedron"

    @property
    def n(self) -> int:
        return _SIZE[self][0]

    @property
    def t(self) -> int:
        return _STRENGTH[self]

    @classmethod
    def parse(cls, text: str) -> "SolidKind":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise OutOfRangeError(f"unknown solid {text!r}; expected one of "
                                  + ", ".join(k.value for k in cls)) from None


# Design strength t; every other fact about a solid is read off its table.
_STRENGTH = {
    SolidKind.TETRAHEDRON: 2,
    SolidKind.OCTAHEDRON: 3,
    SolidKind.CUBE: 3,
    SolidKind.ICOSAHEDRON: 5,
    SolidKind.DODECAHEDRON: 5,
}


@dataclass(frozen=True)
class SolidSpec:
    """A Platonic solid given by kind and coordinate scale c (see tables)."""

    kind: SolidKind
    c: Scalar = 1.0
    dim: ClassVar[int] = 3

    def __post_init__(self) -> None:
        if not self.c > 0:
            raise OutOfRangeError("coordinate scale must be positive")

    @classmethod
    def from_circumradius(cls, kind: SolidKind, R: float) -> "SolidSpec":
        if not R > 0:
            raise OutOfRangeError("circumradius must be positive")
        return cls(kind, R / math.sqrt(_SIZE[kind][1]))

    @property
    def n(self) -> int:
        return self.kind.n

    @property
    def t(self) -> int:
        return self.kind.t

    @property
    def name(self) -> str:
        return self.kind.value

    @property
    def R_sq(self) -> Scalar:
        return _SIZE[self.kind][1] * (self.c * self.c)

    @property
    def R(self) -> float:
        return math.sqrt(float(self.R_sq))


@dataclass(frozen=True)
class PlanePlacement:
    """Evaluation point in the polygon's plane: polar (L, alpha) about the centroid."""

    L: float
    alpha: float = 0.0

    def __post_init__(self) -> None:
        if not self.L >= 0:
            raise OutOfRangeError("centroid distance L must be >= 0")


@dataclass(frozen=True)
class SpacePlacement:
    """Evaluation point in space, Cartesian, centroid at the origin."""

    x: Scalar
    y: Scalar
    z: Scalar

    @property
    def L_sq(self) -> Scalar:
        return self.x * self.x + self.y * self.y + self.z * self.z

    @property
    def L(self) -> float:
        return math.sqrt(float(self.L_sq))


# ---------------------------------------------------------------------------
# polygons


def polygon_vertex(spec: PolygonSpec, i: int) -> tuple[float, float]:
    """Cartesian coordinates of vertex i on the circumcircle (float)."""
    _check_vertex(i, spec.n)
    theta = (i - 1) * 2.0 * math.pi / spec.n
    R = float(spec.R)
    return (R * math.cos(theta), R * math.sin(theta))


def sum_basis(R: Scalar, L: Scalar) -> tuple[Scalar, Scalar]:
    """The pair A = R^2 + L^2, B = 2RL every distance formula runs on.

    A >= B >= 0 by AM-GM, with equality exactly when R = L; hence every
    squared distance A - B cos(theta) is at least (R - L)^2.
    """
    return R * R + L * L, 2 * R * L


def polygon_distances_sq(spec: PolygonSpec, p: PlanePlacement) -> tuple[float, ...]:
    """d_i^2 = R^2 + L^2 - 2 R L cos(alpha - (i-1) 2 pi / n) for i = 1..n."""
    a, b = sum_basis(float(spec.R), p.L)
    n = spec.n
    return tuple([a - b * math.cos(p.alpha - k * 2.0 * math.pi / n) for k in range(n)])


# n -> the trace 2 cos(2 pi/n) of the rotation by one vertex, an integer
# exactly for these n (the crystallographic restriction).
_TRACE = {3: -1, 4: 0, 6: 1}


def polygon_side_sq(n: int, R_sq: Scalar) -> Scalar:
    """Squared side a^2 = 4 R^2 sin^2(pi/n) = (2 - trace) R^2; exact for n in _TRACE."""
    if n in _TRACE:
        return Fraction(2 - _TRACE[n]) * R_sq
    return 4.0 * float(R_sq) * math.sin(math.pi / n) ** 2


# ---------------------------------------------------------------------------
# solids


# One vertex v per antipodal pair, placed as v then -v (the tetrahedron, which
# has no antipodes, whole), as signed indices into the scalars 0, c, c*phi and
# c/phi: -k stands for the negated scalar k.  The dodecahedron contains the cube.
_CUBE_PAIRS = ((-1, -1, -1), (1, 1, -1), (1, -1, 1), (-1, 1, 1))
_TABLES = {
    SolidKind.TETRAHEDRON: ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)),
    SolidKind.OCTAHEDRON: ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    SolidKind.CUBE: _CUBE_PAIRS,
    SolidKind.ICOSAHEDRON: ((0, 1, 2), (0, -1, 2), (1, 2, 0), (1, -2, 0), (2, 0, 1), (2, 0, -1)),
    SolidKind.DODECAHEDRON: _CUBE_PAIRS + ((0, 3, 2), (0, -3, 2), (3, 2, 0), (-3, 2, 0),
                                          (2, 0, 3), (2, 0, -3)),
}
# (scalars needed, one getter per vertex in canonical order)
_VERTICES = {
    kind: (max(abs(i) for v in table for i in v),
           tuple(itemgetter(*w) for v in table
                 for w in ((v,) if kind is SolidKind.TETRAHEDRON else (v, tuple(-i for i in v)))))
    for kind, table in _TABLES.items()
}


def solid_vertices(kind: SolidKind, c: Scalar = 1) -> tuple[Triple, ...]:
    """Vertex coordinates in the library's canonical order.

    Exact inputs give exact coordinates; the two golden-ratio solids then
    carry Surd components in Q(sqrt 5).
    """
    depth, getters = _VERTICES[kind]
    scalars = [c]
    if depth > 1:
        scalars.append(c * GOLDEN_RATIO)
    if depth > 2:
        scalars.append(c / GOLDEN_RATIO)
    # index -k of (0, s_1..s_depth, -s_depth..-s_1) is -s_k
    signed = (c - c, *scalars, *[-s for s in reversed(scalars)])
    return tuple([get(signed) for get in getters])


# (n, R^2 / c^2): the vertex count and the first vertex's squared norm at
# c = 1; the icosahedron's 1 + phi^2 lies in Q(sqrt 5).
_SIZE = {kind: (len(vs), sum(x * x for x in vs[0]))
         for kind in SolidKind for vs in (solid_vertices(kind),)}


def solid_distances_sq(spec: SolidSpec, p: SpacePlacement) -> tuple[Scalar, ...]:
    out = []
    for vx, vy, vz in solid_vertices(spec.kind, spec.c):
        dx = p.x - vx
        dy = p.y - vy
        dz = p.z - vz
        out.append(dx * dx + dy * dy + dz * dz)
    return tuple(out)


# ---------------------------------------------------------------------------
# triangle areas from squared sides


def heron_area_16sq(a_sq: Scalar, b_sq: Scalar, c_sq: Scalar) -> Scalar:
    """16 * area^2 of the triangle with squared sides a_sq, b_sq, c_sq.

    Polynomial in the squared sides, so the exact backend never needs a
    radical; a negative value means no such triangle exists.
    """
    return (
        2 * (a_sq * b_sq + a_sq * c_sq + b_sq * c_sq)
        - a_sq * a_sq - b_sq * b_sq - c_sq * c_sq
    )


def _check_vertex(i: int, n: int) -> None:
    if not 1 <= i <= n:
        raise OutOfRangeError(f"vertex index {i} outside 1..{n}")

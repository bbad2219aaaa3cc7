"""Power sums of squared vertex distances, stated once for every dimension.

A regular n-gon's vertices form a spherical (n-1)-design on the circle (d = 2),
a Platonic solid's a t-design on the sphere (d = 3, see solids).  So for a
point at distance L from the centroid, circumradius R, A = R^2 + L^2 and any
power index m = 1..t, the cyclic average is the whole sphere's:

    S^(2m) = sum_k C(m,2k) A^(m-2k) (4 R^2 L^2)^k E_d[cos^2k],
    E_d[cos^2k] = prod_{i<k} (2i+1)/(d+2i),

which for d = 2 is sum_k C(m,2k) C(2k,k) (R^2 L^2)^k A^(m-2k).  For m > t the
sum depends on the direction of the point and the closed form is refused;
the brute-force oracles remain available for every m.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence, Union

from .errors import InvalidAverageError, NegativeDiscriminantError, OutOfRangeError
from .fields import (Rational, Scalar, exact_cos_cycle, exact_cos_sq_cycle, is_exact,
                     ratio_like, sqrt_scalar)
from .geometry import (
    PlanePlacement,
    PolygonSpec,
    SolidSpec,
    distance_sq_from_cos,
    polygon_distance_sq,
)


@functools.lru_cache(maxsize=256)
def design_coefficients(m: int, dim: int) -> tuple[Rational, ...]:
    """C(m,2k) 4^k E_dim[cos^2k] for k = 1..floor(m/2); integral values as int."""
    out: list[Rational] = []
    moment = Fraction(1)
    for k in range(1, m // 2 + 1):
        moment *= Fraction(2 * k - 1, dim + 2 * k - 2)
        c = math.comb(m, 2 * k) * 4 ** k * moment
        out.append(c.numerator if c.denominator == 1 else c)
    return tuple(out)


def _design_sum(m: int, dim: int, a: Scalar, rl: Scalar) -> Scalar:
    """The design-moment average at A = a, R^2 L^2 = rl; float overflow gives inf."""
    try:
        total = a ** m
        for k, c in enumerate(design_coefficients(m, dim), 1):
            total += c * rl ** k * a ** (m - 2 * k)
    except OverflowError:
        return math.inf
    return total


def _finite(value: Scalar) -> Scalar:
    """value, unless it is a float that overflowed."""
    if isinstance(value, float) and not math.isfinite(value):
        raise OutOfRangeError("the float result overflows; use smaller inputs "
                              "or the exact backend")
    return value


def _check_power(m: int, top: int, figure: str) -> None:
    if not 1 <= m <= top:
        raise OutOfRangeError(
            f"power index m={m} outside 1..{top} for the {figure}: beyond it "
            "the sum depends on the placement's direction, not only on L"
        )


def per_vertex_power_sum_sq(m: int, r_sq: Scalar, l_sq: Scalar) -> Scalar:
    """The cyclic average S^(2m) as a function of R^2 and L^2 (any backend)."""
    return _design_sum(m, 2, r_sq + l_sq, r_sq * l_sq)


def power_sum_closed_sq(n: int, m: int, r_sq: Scalar, l_sq: Scalar) -> Scalar:
    """Closed-form sum of d_i^(2m) over all n vertices, from squared inputs."""
    _check_power(m, n - 1, f"{n}-gon")
    return _finite(n * per_vertex_power_sum_sq(m, r_sq, l_sq))


def power_sum_closed(spec: PolygonSpec, m: int, L: Scalar) -> Scalar:
    return power_sum_closed_sq(spec.n, m, spec.R_sq, L * L)


@dataclass(frozen=True)
class CyclicAverage:
    """Average of the 2m-th distance powers over the figure's vertices."""

    m: int
    value: Scalar
    source: Union[PolygonSpec, SolidSpec]


def cyclic_average(spec: PolygonSpec, m: int, L: Scalar) -> CyclicAverage:
    _check_power(m, spec.n - 1, f"{spec.n}-gon")
    return CyclicAverage(m, _finite(per_vertex_power_sum_sq(m, spec.R_sq, L * L)), spec)


def power_sum_brute(spec: PolygonSpec, m: int, p: PlanePlacement) -> float:
    """Oracle: sum d_i^(2m) at a concrete placement. Defined for every m >= 1."""
    if m < 1:
        raise OutOfRangeError("power index m must be >= 1")
    try:
        total = math.fsum(polygon_distance_sq(spec, p, i) ** m
                          for i in range(1, spec.n + 1))
    except OverflowError:
        total = math.inf
    return _finite(total)


def polygon_distances_sq_exact(n: int, R: Scalar, L: Scalar,
                               cycle_n: int | None = None,
                               offset: int = 0) -> tuple[Scalar, ...]:
    """Exact squared distances at angles with representable cosines.

    The placement angle is alpha = offset * 2*pi/cycle_n, with cycle_n a
    multiple of n drawn from the exact cosine tables; default alpha = 0 on
    the polygon's own cycle.  R and L must be exact.
    """
    cyc = cycle_n or n
    table = exact_cos_cycle(cyc)
    if table is None or cyc % n != 0:
        raise OutOfRangeError(f"no exact cosine cycle for n={n} (cycle {cyc})")
    step = cyc // n
    return tuple(distance_sq_from_cos(R, L, table[(offset - i * step) % cyc])
                 for i in range(n))


def power_sum_brute_exact(n: int, m: int, R: Scalar, L: Scalar,
                          cycle_n: int | None = None, offset: int = 0) -> Scalar:
    """Exact oracle: sum of d^(2m) at a rational-cosine placement angle."""
    if m < 1:
        raise OutOfRangeError("power index m must be >= 1")
    total: Scalar = 0
    for d_sq in polygon_distances_sq_exact(n, R, L, cycle_n, offset):
        total = total + d_sq ** m
    return total


def power_sum_brute_even_exact(n: int, m: int, r_sq: Scalar, l_sq: Scalar) -> Scalar:
    """Exact oracle for even n at alpha = 0, parameterised by R^2 and L^2.

    Antipodal vertices are summed in pairs: with c = cos of the vertex angle,

        (A - Bc)^m + (A + Bc)^m = 2 * sum_{j even} C(m,j) A^(m-j) (B^2 c^2)^(j/2),

    which only ever needs cos^2 of the vertex angles and B^2 = 4 R^2 L^2.
    This reaches cycles (n = 24) whose cosines are not themselves quadratic
    surds, and it never touches the closed form being checked.
    """
    if n % 2 != 0:
        raise OutOfRangeError("antipodal pairing needs an even vertex count")
    cos_sq = exact_cos_sq_cycle(n)
    if cos_sq is None:
        raise OutOfRangeError(f"no exact squared-cosine cycle for n={n}")
    a = r_sq + l_sq
    b_sq = 4 * r_sq * l_sq
    a_pow = [a ** 0]
    for _ in range(m):
        a_pow.append(a_pow[-1] * a)
    total: Scalar = 0
    for k in range(n // 2):
        t = b_sq * cos_sq[k]
        term: Scalar = 0
        t_pow: Scalar = 1
        for j in range(0, m + 1, 2):
            if j:
                t_pow = t_pow * t
            term = term + math.comb(m, j) * a_pow[m - j] * t_pow
        total = total + 2 * term
    return total


# ---------------------------------------------------------------------------
# locus classification


@dataclass(frozen=True)
class Locus:
    """Locus of points whose 2m-th power distance sum equals a constant."""

    kind: str  # "circle" | "sphere" | "centroid" | "empty"
    L: float | None = None

    def __str__(self) -> str:
        if self.kind in ("circle", "sphere"):
            return f"{self.kind} L={self.L:.12g}"
        return self.kind


def bisect_radius_sq(f: Callable[[float], float], target: float) -> float:
    """Unique root in L^2 of the monotone map f(L^2) = target, by bisection."""

    def value(u: float) -> float:
        try:
            return f(u)
        except OverflowError:
            return math.inf

    lo = 0.0
    hi = 1.0
    while value(hi) < target:
        hi *= 2.0
        if hi > 1e200:
            raise OutOfRangeError("target sum out of reachable range")
    while hi - lo > 1e-13 * hi:
        mid = 0.5 * (lo + hi)
        if value(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _classify(n: int, m: int, r_sq: Scalar, C: Scalar, dim: int) -> Locus:
    """Locus for an n-vertex design in dimension dim (2: circle, 3: sphere)."""
    if not C > 0:
        raise OutOfRangeError("the constant must be positive")
    centre_value = n * r_sq ** m
    if is_exact(C) and is_exact(r_sq):
        if C == centre_value:
            return Locus("centroid")
        if C < centre_value:
            return Locus("empty")
    else:
        cf = float(C)
        nf = float(centre_value)
        if abs(cf - nf) <= 1e-12 * nf:
            return Locus("centroid")
        if cf < nf:
            return Locus("empty")
    r_sq_f = float(r_sq)
    root = bisect_radius_sq(
        lambda u: n * float(_design_sum(m, dim, r_sq_f + u, r_sq_f * u)), float(C))
    return Locus("circle" if dim == 2 else "sphere", math.sqrt(root))


def locus_classify(spec: PolygonSpec, m: int, C: Scalar) -> Locus:
    """Circle of the unique radius, the centroid, or the empty set."""
    _check_power(m, spec.n - 1, f"{spec.n}-gon")
    return _classify(spec.n, m, spec.R_sq, C, 2)


# ---------------------------------------------------------------------------
# conversions between averages and (R^2, L^2)


def _recover(dim: int, s2: Scalar, s4: Scalar) -> tuple[Scalar, Scalar]:
    """{R^2, L^2} from S2 = R^2 + L^2 and S4 = S2^2 + (4/dim) R^2 L^2.

    The discriminant (dim+1) S2^2 - dim S4 equals (R^2 - L^2)^2 for
    consistent data.
    """
    if not s2 > 0:
        raise InvalidAverageError("S2 must be positive")
    disc = (dim + 1) * s2 * s2 - dim * s4
    if disc < 0:
        raise NegativeDiscriminantError(
            f"{dim + 1}*S2^2 - {dim}*S4 = {disc} < 0: no real (R^2, L^2) exists")
    root = sqrt_scalar(disc)
    half = ratio_like(1, 2, s2)
    return (half * (s2 + root), half * (s2 - root))


def recover_r2_l2(s2: Scalar, s4: Scalar) -> tuple[Scalar, Scalar]:
    """The unordered pair {R^2, L^2} from a polygon's first two cyclic averages.

    Solves S2 = R^2 + L^2, S4 = S2^2 + 2 R^2 L^2; the discriminant
    3 S2^2 - 2 S4 equals (R^2 - L^2)^2 for consistent data.
    """
    return _recover(2, s2, s4)


def s2m_from_s2(m: int, s2: Scalar, r_sq: Scalar) -> Scalar:
    """S^(2m) from S2 and R^2 alone (valid for m <= n-1 on any n-gon)."""
    if m < 2:
        raise OutOfRangeError("conversion defined for m >= 2")
    if s2 < r_sq:
        raise InvalidAverageError("S2 < R^2 would force L^2 < 0")
    return _finite(per_vertex_power_sum_sq(m, r_sq, s2 - r_sq))


def s2m_from_s2_s4(m: int, s2: Scalar, s4: Scalar) -> Scalar:
    """S^(2m) from S2 and S4 alone: eliminates R^2 via S4 - S2^2 = 2 R^2 L^2."""
    if m < 3:
        raise OutOfRangeError("conversion defined for m >= 3")
    gap = s4 - s2 * s2
    if gap < 0:
        raise InvalidAverageError("S4 < S2^2 is impossible for genuine data")
    return _finite(_design_sum(m, 2, s2, ratio_like(1, 2, gap) * gap))


def _sphere_residual(dim: int, d_sq: Sequence[Scalar]) -> Scalar:
    """(dim+1) (sum d^2)^2 - dim n sum d^4; zero exactly when L = R."""
    n = len(d_sq)
    s2 = sum(d_sq)
    s4 = sum(d * d for d in d_sq)
    return (dim + 1) * s2 * s2 - dim * n * s4


def circumcircle_residual(d_sq: tuple[Scalar, ...]) -> Scalar:
    """3 (sum d^2)^2 - 2 n sum d^4; zero exactly on the circumcircle."""
    if len(d_sq) < 3:
        raise OutOfRangeError("need at least 3 distances")
    return _sphere_residual(2, d_sq)

"""Identities and solvers tied to specific vertex counts.

Everything here is stated in squared distances: the triangle/square
"symmetric" identities, the explicit two-branch distance solvers for
n = 3, 4, 6, the inverse problem (R^2, L^2 from a measured multiset), and
the divisor-subset identities that composite n-gons inherit from the regular
sub-polygon spanned by every (n/q)-th vertex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Sequence

from .errors import (
    InconsistentDistancesError,
    OutOfRangeError,
    UnattainableError,
)
from .fields import Scalar, is_exact, ratio_like, sqrt_scalar
from .geometry import heron_area_16sq
from .polygon import power_sum_closed_sq


@dataclass(frozen=True)
class BranchPair:
    """The two values produced by a +/- formula (mirror placements)."""

    plus: Any
    minus: Any

    def __iter__(self):
        return iter((self.plus, self.minus))


def _branch_sqrt(x: Scalar, scale: Scalar, error: type[Exception]) -> Scalar:
    """sqrt of a solver discriminant; clamps float noise just below zero."""
    if isinstance(x, float):
        if x < 0:
            if x > -1e-9 * max(1.0, float(scale)):
                return 0.0
            raise error(f"negative discriminant {x}")
        return math.sqrt(x)
    if x < 0:
        raise error(f"negative discriminant {x}")
    return sqrt_scalar(x)


def triangle_symmetric_residual(d_sq: Sequence[Scalar], side_sq: Scalar) -> Scalar:
    """3(d1^4 + d2^4 + d3^4 + a^4) - (d1^2 + d2^2 + d3^2 + a^2)^2.

    Zero exactly when the three distances and the side belong to one point in
    the plane of an equilateral triangle.
    """
    if len(d_sq) != 3:
        raise OutOfRangeError("triangle identity needs 3 squared distances")
    quartic = sum(d * d for d in d_sq) + side_sq * side_sq
    quadratic = sum(d_sq) + side_sq
    return 3 * quartic - quadratic * quadratic


def square_symmetric_residual(d_sq: Sequence[Scalar], side_sq: Scalar) -> Scalar:
    """4(sum d^4 + 3 a^4) - (sum d^2 + 2 a^2)^2, the square analogue."""
    if len(d_sq) != 4:
        raise OutOfRangeError("square identity needs 4 squared distances")
    quartic = sum(d * d for d in d_sq) + 3 * side_sq * side_sq
    quadratic = sum(d_sq) + 2 * side_sq
    return 4 * quartic - quadratic * quadratic


def solve_distances(n: int, R: Scalar, L: Scalar, d1_sq: Scalar) -> BranchPair:
    """Full squared-distance multisets from (R, L, d1^2), for n in {3, 4, 6}.

    Both sign branches are returned; they are the two mirror placements of
    the evaluation point across the axis through vertex 1.  d1^2 must lie in
    [(R-L)^2, (R+L)^2], otherwise no placement attains it.
    """
    r_sq = R * R
    l_sq = L * L
    a = r_sq + l_sq
    h16 = heron_area_16sq(r_sq, l_sq, d1_sq)
    half = ratio_like(1, 2, d1_sq)
    if n == 3:
        # d2^2, d3^2 = (3A - d1^2 +- 4 sqrt(3) area(R, L, d1)) / 2
        t = _branch_sqrt(3 * h16, a * a, UnattainableError)
        plus = (d1_sq, half * (3 * a - d1_sq + t), half * (3 * a - d1_sq - t))
        minus = (d1_sq, half * (3 * a - d1_sq - t), half * (3 * a - d1_sq + t))
        return BranchPair(plus, minus)
    if n == 4:
        # d2^2, d4^2 = A +- 4 area;  d3^2 = 2A - d1^2
        t = _branch_sqrt(h16, a * a, UnattainableError)
        d3 = 2 * a - d1_sq
        return BranchPair((d1_sq, a + t, d3, a - t), (d1_sq, a - t, d3, a + t))
    if n == 6:
        # d2^2, d6^2 = (A + d1^2 +- 4 sqrt(3) area)/2
        # d3^2, d5^2 = (3A - d1^2 +- 4 sqrt(3) area)/2;  d4^2 = 2A - d1^2
        t = _branch_sqrt(3 * h16, a * a, UnattainableError)
        d4 = 2 * a - d1_sq
        plus = (d1_sq, half * (a + d1_sq + t), half * (3 * a - d1_sq + t),
                d4, half * (3 * a - d1_sq - t), half * (a + d1_sq - t))
        minus = (d1_sq, half * (a + d1_sq - t), half * (3 * a - d1_sq - t),
                 d4, half * (3 * a - d1_sq + t), half * (a + d1_sq + t))
        return BranchPair(plus, minus)
    raise OutOfRangeError("explicit distance solvers exist for n in {3, 4, 6} only")


def recover_spec_from_distances(n: int, d_sq: Sequence[Scalar]) -> BranchPair:
    """Candidate (R^2, L^2) pairs from a measured multiset, n in {3, 4, 6}.

    Returns both sign branches; they swap the roles of R^2 and L^2.  For
    n = 4 and n = 6 two independent index windows each determine the answer
    and must agree, which catches multisets no placement can produce.
    """
    if n == 3:
        _need(d_sq, 3)
        return _recover_from_triple(d_sq)
    if n == 4:
        _need(d_sq, 4)
        d1, d2, d3, d4 = d_sq
        w1 = _recover_square_window(d1, d2, d3)
        w2 = _recover_square_window(d2, d3, d4)
        _require_matching_windows(w1, w2)
        return w1
    if n == 6:
        _need(d_sq, 6)
        w1 = _recover_from_triple((d_sq[0], d_sq[2], d_sq[4]))
        w2 = _recover_from_triple((d_sq[1], d_sq[3], d_sq[5]))
        _require_matching_windows(w1, w2)
        return w1
    raise OutOfRangeError("recovery formulas exist for n in {3, 4, 6} only")


def _need(d_sq: Sequence[Scalar], n: int) -> None:
    if len(d_sq) != n:
        raise OutOfRangeError(f"need {n} squared distances, got {len(d_sq)}")


def _recover_from_triple(triple: Sequence[Scalar]) -> BranchPair:
    # R^2, L^2 = (sum +- 4 sqrt(3) area(da, db, dc)) / 6
    h16 = heron_area_16sq(*triple)
    s = sum(triple)
    t = _branch_sqrt(3 * h16, s * s, InconsistentDistancesError)
    sixth = ratio_like(1, 6, s)
    return BranchPair((sixth * (s + t), sixth * (s - t)),
                      (sixth * (s - t), sixth * (s + t)))


def _recover_square_window(da: Scalar, db: Scalar, dc: Scalar) -> BranchPair:
    # R^2, L^2 = (da + dc)/4 +- area(da, sqrt2 db, dc)
    h16 = heron_area_16sq(da, 2 * db, dc)
    s = da + db + dc
    area = _branch_sqrt(h16, s * s, InconsistentDistancesError) / 4
    base = ratio_like(1, 4, da) * (da + dc)
    return BranchPair((base + area, base - area), (base - area, base + area))


def _require_matching_windows(w1: BranchPair, w2: BranchPair) -> None:
    a1, b1 = w1.plus
    a2, b2 = w2.plus
    if is_exact(a1) and is_exact(a2):
        if a1 != a2 or b1 != b2:
            raise InconsistentDistancesError("index windows disagree")
        return
    scale = max(abs(float(a1)), abs(float(b1)), 1e-300)
    if abs(float(a1) - float(a2)) > 1e-7 * scale or \
       abs(float(b1) - float(b2)) > 1e-7 * scale:
        raise InconsistentDistancesError("index windows disagree")


def opposite_pair_sums(d_sq: Sequence[Scalar]) -> tuple[Scalar, ...]:
    """d_i^2 + d_{i+n/2}^2 for i = 1..n/2; all equal 2(R^2+L^2) for real data."""
    n = len(d_sq)
    if n % 2 != 0:
        raise OutOfRangeError("opposite-vertex pairs need an even vertex count")
    k = n // 2
    return tuple(d_sq[i] + d_sq[i + k] for i in range(k))


_SUBSET_POWERS = {2: (1,), 3: (1, 2), 4: (2, 3), 5: (1, 2, 3, 4)}


def subset_sum_residuals(d_sq: Sequence[Scalar], divisor: int,
                         r_sq: Scalar, l_sq: Scalar) -> list[Scalar]:
    """Residuals of every embedded-subfigure power sum against its closed value.

    When q divides n, the vertices i, i+n/q, i+2n/q, ... span a regular q-gon
    with the same circumradius and the same evaluation point, so each
    window's power sum for m <= q-1 equals the q-gon closed form.  Residuals
    are listed power-major, window-minor.
    """
    n = len(d_sq)
    if divisor not in _SUBSET_POWERS:
        raise OutOfRangeError("divisor must be one of 2, 3, 4, 5")
    if n % divisor != 0:
        raise OutOfRangeError(f"{divisor} does not divide n={n}")
    step = n // divisor
    out: list[Scalar] = []
    for m in _SUBSET_POWERS[divisor]:
        closed = power_sum_closed_sq(divisor, m, r_sq, l_sq)
        for start in range(step):
            window_sum = sum(d_sq[start + j * step] ** m for j in range(divisor))
            out.append(window_sum - closed)
    return out


def square_sixth_factorization_residual(d_sq: Sequence[Scalar]) -> Scalar:
    """3 (d1+d2-d3-d4)(d1+d3-d2-d4)(d1+d4-d2-d3) on squared distances.

    Vanishes for every point in a square's plane: the middle factor is the
    opposite-pair identity d1^2 + d3^2 = d2^2 + d4^2.
    """
    if len(d_sq) != 4:
        raise OutOfRangeError("need 4 squared distances")
    a, b, c, d = d_sq
    return 3 * (a + b - c - d) * (a + c - b - d) * (a + d - b - c)

"""Identities and solvers tied to specific vertex counts.

Everything here is stated in squared distances: the "symmetric" identity
and the two-branch rotation solver for the n whose trace 2 cos(2 pi/n) is
an integer (3, 4, 6), the inverse problem (R^2, L^2 from a measured
multiset), and the divisor-subset identities that composite n-gons inherit
from the regular sub-polygon spanned by every (n/q)-th vertex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Sequence

from .errors import (
    InconsistentDistancesError,
    OutOfRangeError,
    UnattainableError,
)
from .fields import Scalar, describe, is_exact
from .geometry import _TRACE, heron_area_16sq
from .polygon import _root, power_sum_closed_sq

_HALF = Fraction(1, 2)
_QUARTER = Fraction(1, 4)
_SIXTH = Fraction(1, 6)


@dataclass(frozen=True)
class BranchPair:
    """The two values produced by a +/- formula (mirror placements)."""

    plus: Any
    minus: Any

    def __iter__(self):
        return iter((self.plus, self.minus))


def symmetric_residual(d_sq: Sequence[Scalar], side_sq: Scalar) -> Scalar:
    """n(sum d^4 + (3n/f^2) a^4) - (sum d^2 + (n/f) a^2)^2, n = len(d_sq).

    a^2 = f R^2 with f = 2 - trace, so (3n/f^2, n/f) is (1, 1), (3, 2) or
    (18, 6).  Zero exactly when the distances and the side a belong to one
    point in the plane of a regular n-gon, n in {3, 4, 6}.
    """
    n = len(d_sq)
    if n not in _TRACE:
        raise OutOfRangeError("symmetric identities need 3, 4 or 6 squared distances")
    f = 2 - _TRACE[n]
    quartic = sum(d * d for d in d_sq) + (3 * n // (f * f)) * side_sq * side_sq
    quadratic = sum(d_sq) + (n // f) * side_sq
    return n * quartic - quadratic * quadratic


def solve_distances(n: int, R: Scalar, L: Scalar, d1_sq: Scalar) -> BranchPair:
    """Full squared-distance multisets from (R, L, d1^2), for n in {3, 4, 6}.

    d_{k+1}^2 = ((2 - c_k) A + c_k d1^2 +- s_k sqrt((4 - c_1^2) h16)) / 2 with
    A = R^2 + L^2, h16 = heron_area_16sq(R^2, L^2, d1^2), c_k = 2 cos(2 pi k/n)
    and s_k = sin(2 pi k/n) / sin(2 pi/n): integers obeying x_{k+1} = c_1 x_k
    - x_{k-1}.  The two sign branches are the mirror placements across the
    axis through vertex 1, so the minus branch lists d2..dn in reverse.
    Needs finite R > 0, L >= 0 and d1^2 in [(R-L)^2, (R+L)^2].
    """
    if not (0 < R < math.inf and 0 <= L < math.inf):
        raise OutOfRangeError("need R > 0 and L >= 0, both finite, "
                              f"got R = {describe(R)}, L = {describe(L)}")
    if n not in _TRACE:
        raise OutOfRangeError("explicit distance solvers exist for n in {3, 4, 6} only")
    trace = _TRACE[n]
    a = R * R + L * L
    h16 = heron_area_16sq(R * R, L * L, d1_sq)
    t = _root((4 - trace * trace) * h16, a,
              lambda x: UnattainableError(f"negative discriminant {describe(x)}"))
    plus = [d1_sq]
    c_prev, c, s_prev, s = 2, trace, 0, 1
    for _ in range(n - 1):
        plus.append(_HALF * ((2 - c) * a + c * d1_sq + s * t))
        c_prev, c = c, trace * c - c_prev
        s_prev, s = s, trace * s - s_prev
    return BranchPair(tuple(plus), (d1_sq, *reversed(plus[1:])))


# n -> (factor on the middle squared side, weight on 16 area^2, index windows):
# each window's squared distances are the squared sides of one triangle.  The
# square's has the side sqrt(2) d2; n = 3, 6 weigh by 3 for sqrt(3) * area.
_WINDOWS = {
    3: (1, 3, ((0, 1, 2),)),
    4: (2, 1, ((0, 1, 2), (1, 2, 3))),
    6: (1, 3, ((0, 2, 4), (1, 3, 5))),
}


def _window_areas(n: int, d_sq: Sequence[Scalar]) -> list[tuple[tuple, Scalar]]:
    """Each index window's three squared distances and weighted heron_area_16sq."""
    if n not in _WINDOWS:
        raise OutOfRangeError("recovery formulas exist for n in {3, 4, 6} only")
    if len(d_sq) != n:
        raise OutOfRangeError(f"need {n} squared distances, got {len(d_sq)}")
    middle, weight, windows = _WINDOWS[n]
    triples = [(d_sq[i], d_sq[j], d_sq[k]) for i, j, k in windows]
    return [(w, weight * heron_area_16sq(w[0], middle * w[1], w[2])) for w in triples]


def recover_spec_from_distances(n: int, d_sq: Sequence[Scalar]) -> BranchPair:
    """Candidate (R^2, L^2) pairs from a measured multiset, n in {3, 4, 6}.

    Returns both sign branches; they swap the roles of R^2 and L^2.  For
    n = 4 and n = 6 two independent index windows each determine the answer
    and must agree, which catches multisets no placement can produce.
    """
    pairs = []
    for window, h16 in _window_areas(n, d_sq):
        s = sum(window)
        t = _root(h16, s, lambda x: InconsistentDistancesError(
            f"negative discriminant {describe(x)}"))
        if n == 4:  # R^2, L^2 = (d1 + d3)/4 +- area(d1, sqrt2 d2, d3)
            base, area = _QUARTER * (window[0] + window[2]), t / 4
            pairs.append((base + area, base - area))
        else:  # R^2, L^2 = (sum +- 4 sqrt(3) area(da, db, dc)) / 6
            pairs.append((_SIXTH * (s + t), _SIXTH * (s - t)))
    for other in pairs[1:]:
        _require_matching_windows(pairs[0], other)
    return BranchPair(pairs[0], pairs[0][::-1])


def _require_matching_windows(w1: tuple, w2: tuple) -> None:
    a1, b1 = w1
    a2, b2 = w2
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

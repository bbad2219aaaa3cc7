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

import collections
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence, Union

from .errors import (
    InvalidAverageError,
    NegativeDiscriminantError,
    NonRationalInputError,
    OutOfRangeError,
)
from .fields import Rational, Scalar, _over_one_denominator, describe, is_exact, sqrt_scalar
from .geometry import PlanePlacement, PolygonSpec, SolidSpec, polygon_distances_sq
from .intpoly import cyclotomic, divmod_monic


_HALF = Fraction(1, 2)

Figure = Union[PolygonSpec, SolidSpec]


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


@functools.lru_cache(maxsize=256)
def _design_integers(m: int, dim: int) -> tuple[int, ...]:
    """E (1, c_1, ..., c_K) for the design coefficients c_k and their least
    common denominator E, all integers."""
    E, pairs = _over_one_denominator(design_coefficients(m, dim))
    return (E,) + tuple(u for u, _ in pairs)


def _design_sum(m: int, dim: int, a: Scalar, rl: Scalar) -> Scalar:
    """The design-moment average at A = a, R^2 L^2 = rl (m >= 1); float overflow gives inf.

    Rational a = p/q and rl = r/s run as one integer sum divided once:
    with (e_0, ..., e_K) = _design_integers(m, dim), the average is
    sum_k e_k (r q^2)^k (s p^2)^(K-k) p^(m-2K) / (e_0 q^m s^K).  It is an int
    exactly where the term-by-term sum below would be: for int a with no
    terms, or int a and rl with integer coefficients.
    """
    if isinstance(a, (int, Fraction)) and isinstance(rl, (int, Fraction)):
        e = _design_integers(m, dim)
        K = len(e) - 1
        p, q, r, s = a.numerator, a.denominator, rl.numerator, rl.denominator
        x, y = r * q * q, s * p * p
        total, y_power = e[K], 1
        for coeff in reversed(e[:K]):  # Horner in x, e_K down to e_0
            y_power *= y
            total = total * x + coeff * y_power
        total *= p ** (m - 2 * K)
        if isinstance(a, int) and (K == 0 or isinstance(rl, int) and e[0] == 1):
            return total
        return Fraction(total, e[0] * q ** m * s ** K)
    try:
        total = a ** m
        for k, c in enumerate(design_coefficients(m, dim), 1):
            total += c * rl ** k * a ** (m - 2 * k)
    except OverflowError:
        return math.inf
    return total


def _finite(value: Scalar, advice: str = "use smaller inputs or the exact backend") -> Scalar:
    """value, unless it is a float that overflowed."""
    if isinstance(value, float) and not math.isfinite(value):
        raise OutOfRangeError(f"the float result overflows; {advice}")
    return value


def _check_power(m: int, top: int, figure: str) -> None:
    if not 1 <= m <= top:
        raise OutOfRangeError(
            f"power index m={m} outside 1..{top} for the {figure}: beyond it "
            "the sum depends on the placement's direction, not only on L"
        )


def power_sum_closed_sq(n: int, m: int, r_sq: Scalar, l_sq: Scalar) -> Scalar:
    """Closed-form sum of d_i^(2m) over all n vertices, from squared inputs."""
    _check_power(m, n - 1, f"{n}-gon")
    return _finite(n * _design_sum(m, 2, r_sq + l_sq, r_sq * l_sq))


def _average(spec: Figure, m: int, L: Scalar) -> Scalar:
    """The closed-form cyclic average of either figure at centroid distance L."""
    if not L >= 0:
        raise OutOfRangeError("centroid distance L must be >= 0")
    _check_power(m, spec.t, spec.name)
    r_sq, l_sq = spec.R_sq, L * L
    return _design_sum(m, spec.dim, r_sq + l_sq, r_sq * l_sq)


def power_sum_closed(spec: Figure, m: int, L: Scalar) -> Scalar:
    """Closed-form sum of d_i^(2m) over the vertices of a polygon or solid."""
    return _finite(spec.n * _average(spec, m, L))


@dataclass(frozen=True)
class CyclicAverage:
    """Average of the 2m-th distance powers over the figure's vertices."""

    m: int
    value: Scalar
    source: Figure


def cyclic_average(spec: Figure, m: int, L: Scalar) -> CyclicAverage:
    return CyclicAverage(m, _finite(_average(spec, m, L)), spec)


def _power_sum(d_sq: Sequence[Scalar], m: int) -> Scalar:
    """sum d^m over squared distances: fsum if any is a float, else exact.

    The exact branch is the plain reference sum the Z[sqrt 5] kernel of
    solids.solid_power_sum_brute is tested against.
    """
    if m < 1:
        raise OutOfRangeError("power index m must be >= 1")
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


def power_sum_brute(spec: PolygonSpec, m: int, p: PlanePlacement) -> float:
    """Oracle: sum d_i^(2m) at a concrete placement. Defined for every m >= 1."""
    return _power_sum(polygon_distances_sq(spec, p), m)


def _vertex_turns(n: int, R: Rational, L: Rational, cycle_n: int | None,
                  offset: int) -> tuple[int, int, int, int, list[int]]:
    """(N, 2a, b, 2D, [e_i]): vertex i is 2D d_i^2 = 2a - b (x^e_i + x^-e_i), x = zeta_N.

    N = cycle_n (default n); e_i = offset - i*N/n is folded to 0..N/2 as cos
    is even.  With g the common denominator of R = r/g and L = l/g,
    A = R^2 + L^2 = a/D and B = 2RL = b/D over D = g^2: a = r^2 + l^2, b = 2rl.
    """
    if not (isinstance(R, (int, Fraction)) and isinstance(L, (int, Fraction))):
        raise NonRationalInputError("the exact polygon oracle needs int or Fraction R and L")
    if not R > 0:
        raise OutOfRangeError("circumradius must be positive")
    if not L >= 0:
        raise OutOfRangeError("centroid distance L must be >= 0")
    N = cycle_n or n
    if n < 1 or N < 1 or N % n:
        raise OutOfRangeError(f"cycle {N} is not a positive multiple of n={n}")
    g, ((r, _), (l, _)) = _over_one_denominator((R, L))
    turns = [min((offset - i * N // n) % N, (i * N // n - offset) % N) for i in range(n)]
    return N, 2 * (r * r + l * l), 2 * r * l, 2 * g * g, turns


@functools.lru_cache(maxsize=128)
def _cosine_rows(N: int) -> tuple[tuple[int, ...], ...]:
    """Row j is x^j + x^-j in Z[x]/(Phi_N), x = zeta_N, for j = 0..N-1."""
    phi = cyclotomic(N).coeffs
    rows = []
    for j in range(N):
        pair = [0] * (N + 1)
        pair[j] += 1
        pair[N - j] += 1
        rows.append(tuple(divmod_monic(pair, phi)[1]))
    return tuple(rows)


@functools.lru_cache(maxsize=256)
def _orbit_sums(N: int, counts: tuple[tuple[int, int], ...]
                ) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(h, s_h) for each h in 0..N-1 where s_h = sum_i (y_i^h + y_i^-h) in
    Z[x]/(Phi_N) is not zero; a zero s_h is left out.

    counts holds (turn e, vertex count) pairs with y_i = x^e_i, so s_h
    depends only on h mod N and on the turn multiset.
    """
    rows = _cosine_rows(N)
    out = []
    for h in range(N):
        s = [0] * len(rows[0])
        for e, count in counts:
            s = [t + count * v for t, v in zip(s, rows[h * e % N])]
        if any(s):
            out.append((h, tuple(s)))
    return tuple(out)


def polygon_distances_sq_exact(n: int, R: Rational, L: Rational,
                               cycle_n: int | None = None,
                               offset: int = 0) -> tuple[Fraction, ...]:
    """Exact squared distances at alpha = offset * 2*pi/cycle_n, all rational.

    cycle_n is a multiple of n (default n).  Vertex i is (2a - b row_e)/2D
    for the row x^e + x^-e of its turn e; where one is irrational this
    raises OutOfRangeError, though power_sum_brute_exact still sums such
    placements exactly.
    """
    N, two_a, b, scale, turns = _vertex_turns(n, R, L, cycle_n, offset)
    rows = _cosine_rows(N)
    d_sq = {}
    for e in set(turns):
        if b and any(rows[e][1:]):
            raise OutOfRangeError(f"irrational squared distances for n={n} on cycle "
                                  f"{cycle_n or n} at offset {offset}")
        d_sq[e] = Fraction(two_a - b * rows[e][0], scale)
    return tuple(d_sq[e] for e in turns)


def _power_sums_exact(n: int, ms: Iterable[int], R: Rational, L: Rational,
                      cycle_n: int | None, offset: int) -> list[Fraction | None]:
    """Exact sums of d^(2m) at alpha = offset * 2*pi/cycle_n for every m in ms.

    Every vertex is 2a - b (y + 1/y) at y = x^e in Z[x]/(Phi_N), and its m-th
    power is sum_h P_m(h) y^h for the palindromic P_m(h) = P_m(-h), which one
    chain of products expands.  Exchanging the sums over vertices and h, the
    total over the V vertices is P_m(0) V + sum_{h=1..m} P_m(h) s_h, where
    s_h = sum_i (y_i^h + y_i^-h) depends only on h mod N (see _orbit_sums).
    A total is None (irrational) where a non-constant coordinate remains.
    The closed form is never consulted.
    """
    ms = tuple(ms)
    if min(ms) < 1:
        raise OutOfRangeError("power index m must be >= 1")
    N, two_a, b, scale, turns = _vertex_turns(n, R, L, cycle_n, offset)
    orbit = _orbit_sums(N, tuple(sorted(collections.Counter(turns).items())))
    width = cyclotomic(N).degree
    p, chain = [1], []  # p[h] is P_m(h) for h = 0..m
    for _ in range(max(ms)):
        q = p + [0, 0]  # P_m+1(h) = 2a P_m(h) - b (P_m(h - 1) + P_m(h + 1)), P_m(-1) = P_m(1)
        p = [two_a * x - b * (y + z) for x, y, z in zip(q, q[1:2] + q, q[1:])]
        chain.append(p)
    sums = []
    for m in ms:
        p = chain[m - 1]
        total = [p[0] * len(turns)] + [0] * (width - 1)
        for j, s in orbit:
            c = sum(p[j or N::N])  # every h = j mod N in 1..m
            if c:
                total = [t + c * v for t, v in zip(total, s)]
        sums.append(None if any(total[1:]) else Fraction(total[0], scale ** m))
    return sums


def power_sum_brute_exact(n: int, m: int, R: Rational, L: Rational,
                          cycle_n: int | None = None, offset: int = 0) -> Fraction:
    """Exact oracle: sum of d^(2m) at alpha = offset * 2*pi/cycle_n; irrational sums raise."""
    value = _power_sums_exact(n, (m,), R, L, cycle_n, offset)[0]
    if value is None:
        raise OutOfRangeError(f"the sum is irrational for n={n}, m={m} on cycle "
                              f"{cycle_n or n} at offset {offset}")
    return value


# ---------------------------------------------------------------------------
# locus classification


@dataclass(frozen=True)
class Locus:
    """Locus of points whose 2m-th power distance sum equals a constant."""

    kind: str  # "circle" | "sphere" | "centroid" | "empty"
    L: float | None = None


@functools.lru_cache(maxsize=256)
def _u_coefficients(m: int, dim: int) -> tuple[Rational, ...]:
    """q_0..q_m, all > 0: _design_sum(m, dim, r + u, r u) = sum_j q_j r^(m-j) u^j."""
    c = (1,) + design_coefficients(m, dim)
    return tuple(sum(c[k] * math.comb(m - 2 * k, j - k) for k in range(min(j, m - j) + 1))
                 for j in range(m + 1))


def _radius_sq(q: tuple[Rational, ...], n: int, r: float, C: float) -> float:
    """The root u = L^2 of n sum_j q_j r^(m-j) u^j = C, by monotone Newton.

    With w = (C/n)^(1/m) and u = w s this reads sum_j b_j s^j = 1 for
    b_j = q_j (r/w)^(m-j), whose root lies in (0, 1], so no term overflows.
    The polynomial is increasing and convex for s >= 0: Newton from the upper
    bound min_j b_j^(-1/j) descends monotonically, until an iterate no
    longer decreases.
    """
    m = len(q) - 1
    w = (C / n) ** (1.0 / m)
    if w == 0.0:
        raise OutOfRangeError("the locus radius underflows a float; use larger inputs")
    b = [qj * (r / w) ** (m - j) for j, qj in enumerate(q)]
    s = min((bj ** (-1.0 / j) for j, bj in enumerate(b) if j and bj > 1.0), default=1.0)
    b[0] -= 1.0
    b.reverse()
    while True:
        p = dp = 0.0
        for bj in b:
            dp = dp * s + p
            p = p * s + bj
        s_next = max(s - p / dp, 0.0)  # clamps only where C rounds to n r^m
        if not s_next < s:
            return w * s
        s = s_next


def _float(x: Scalar) -> float:
    """float(x), refused where it overflows."""
    try:
        value = float(x)
    except OverflowError:
        value = math.inf
    return _finite(value, "the locus radius is a float on every backend; use smaller inputs")


def _classify(spec: Figure, m: int, C: Scalar) -> Locus:
    """Locus of sum d^(2m) = C: circle (dim 2) or sphere (dim 3), centroid or empty."""
    _check_power(m, spec.t, spec.name)
    n, r_sq, dim = spec.n, spec.R_sq, spec.dim
    if not C > 0:
        raise OutOfRangeError("the constant must be positive")
    if is_exact(C) and is_exact(r_sq):
        centre_value = n * r_sq ** m
        if C == centre_value:
            return Locus("centroid")
        if C < centre_value:
            return Locus("empty")
    else:
        try:
            nf = float(n * r_sq ** m)
        except OverflowError:
            nf = math.inf
        nf = _finite(nf)
        cf = _float(C)
        if abs(cf - nf) <= 1e-12 * nf:
            return Locus("centroid")
        if cf < nf:
            return Locus("empty")
    root = _radius_sq(_u_coefficients(m, dim), n, _float(r_sq), _float(C))
    return Locus("circle" if dim == 2 else "sphere", math.sqrt(root))


def locus_classify(spec: Figure, m: int, C: Scalar) -> Locus:
    """Circle or sphere of the unique radius, the centroid, or the empty set."""
    return _classify(spec, m, C)


# ---------------------------------------------------------------------------
# conversions between averages and (R^2, L^2)


def _nonnegative(x: Scalar, scale: Scalar, refuse: Callable[[Scalar], Exception]) -> Scalar:
    """x, which genuine data keep >= 0; the one float allowance.

    A float x down to -1e-12 scale^2 reads as 0, and below that
    ``refuse(x)`` is raised; exact inputs get none.
    """
    if not x < 0:
        return x
    if is_exact(x) or x < -1e-12 * scale * scale:
        raise refuse(x)
    return 0.0


def _root(x: Scalar, scale: Scalar, refuse: Callable[[Scalar], Exception]) -> Scalar:
    """sqrt of a discriminant x of size scale^2 (see _nonnegative)."""
    return sqrt_scalar(_nonnegative(_finite(x), scale, refuse))


def _s4_gap(s2: Scalar, s4: Scalar) -> Scalar:
    """S4 - S2^2, which genuine data keep >= 0."""
    return _nonnegative(s4 - _finite(s2 * s2), s2, lambda _: InvalidAverageError(
        "S4 < S2^2 is impossible for genuine data"))


def _recover(dim: int, s2: Scalar, s4: Scalar) -> tuple[Scalar, Scalar]:
    """{R^2, L^2} from S2 = R^2 + L^2 and S4 = S2^2 + (4/dim) R^2 L^2.

    The discriminant (dim+1) S2^2 - dim S4 equals (R^2 - L^2)^2 for
    consistent data; a float one down to -1e-12 S2^2 reads as 0.
    """
    if not s2 > 0:
        raise InvalidAverageError("S2 must be positive")
    _s4_gap(s2, s4)  # (4/dim) R^2 L^2, refused when negative
    root = _root((dim + 1) * s2 * s2 - dim * s4, s2, lambda disc: (
        NegativeDiscriminantError(f"{dim + 1}*S2^2 - {dim}*S4 = {describe(disc)} < 0: "
                                  "no real (R^2, L^2) exists")))
    low = _HALF * (s2 - root)  # a float may round below 0 at the centre
    return (_HALF * (s2 + root), max(low, 0.0) if isinstance(low, float) else low)


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
    l_sq = s2 - r_sq
    return _finite(_design_sum(m, 2, r_sq + l_sq, r_sq * l_sq))


def s2m_from_s2_s4(m: int, s2: Scalar, s4: Scalar) -> Scalar:
    """S^(2m) from S2 and S4 alone: eliminates R^2 via S4 - S2^2 = 2 R^2 L^2."""
    if m < 3:
        raise OutOfRangeError("conversion defined for m >= 3")
    return _finite(_design_sum(m, 2, s2, _HALF * _s4_gap(s2, s4)))


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

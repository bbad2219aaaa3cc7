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
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence, Union

from .errors import (
    InvalidAverageError,
    NegativeDiscriminantError,
    NonRationalInputError,
    OutOfRangeError,
)
from .fields import (Rational, Scalar, Surd, _no_exact_sqrt, _over_one_denominator,
                     _root5_isqrt, _root5_product, _root5_sign, _surd, _triple, describe,
                     is_exact, power, sqrt_scalar)
from .geometry import PlanePlacement, PolygonSpec, SolidSpec, polygon_distances_sq
from .intpoly import cyclotomic, divmod_monic


_HALF = Fraction(1, 2)
# the refusals of S2 <= 0 and of S4 < S2^2, for float and exact data alike
_S2_NOT_POSITIVE = "S2 must be positive"
_S4_BELOW_S2_SQ = "S4 < S2^2 is impossible for genuine data"

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


# (mul, add, int times element, one) of Z, and of Z[sqrt 5] on the pairs
# (u, w) standing for u + w sqrt 5
_INTEGERS = (operator.mul, operator.add, operator.mul, 1)
_ROOT5_PAIRS = (_root5_product, lambda x, y: (x[0] + y[0], x[1] + y[1]),
                lambda k, x: (k * x[0], k * x[1]), (1, 0))


def _design_numerator(e: tuple[int, ...], x, y_sq, ring):
    """sum_k e_k x^k y_sq^(K-k) over k = 0..K for e = (e_0, ..., e_K), by
    Horner in x, in the ring (mul, add, scale, one) given."""
    mul, add, scale, one = ring
    total, y_power = scale(e[-1], one), one
    for coeff in reversed(e[:-1]):
        y_power = mul(y_power, y_sq)
        total = add(mul(total, x), scale(coeff, y_power))
    return total


def _design_terms(m: int, dim: int, a: Scalar, rl: Scalar) -> Scalar:
    """A^m + sum_k c_k (R^2 L^2)^k A^(m-2k) at A = a, R^2 L^2 = rl, one term at
    a time in the arithmetic of the operands; float overflow gives inf."""
    try:
        total = a ** m
        for k, c in enumerate(design_coefficients(m, dim), 1):
            total += c * rl ** k * a ** (m - 2 * k)
    except OverflowError:
        return math.inf
    return total


def _design_ratio(m: int, dim: int, x: tuple[int, int], y: tuple[int, int],
                  y_sq: tuple[int, int], den: int, field: type, n: int = 1) -> Scalar:
    """n y^(m-2K) sum_k e_k x^k y_sq^(K-k) / (e_0 den), one integer sum divided
    once, for (e_0, ..., e_K) = _design_integers(m, dim), K = m // 2, and
    integer pairs x, y, y_sq standing for u + w sqrt 5 (y_sq = y^2 up to an
    integer factor).

    The result is of the type ``field`` that the term-by-term sum has: Surd,
    Fraction, or int (a Fraction unless e_0 = 1).
    """
    e = _design_integers(m, dim)
    if x[1] or y[1]:
        u, w = _design_numerator(e, x, y_sq, _ROOT5_PAIRS)
        if m % 2:
            u, w = _root5_product((u, w), y)
    else:
        u, w = _design_numerator(e, x[0], y_sq[0], _INTEGERS) * (y[0] if m % 2 else 1), 0
    if field is Surd:
        return _surd(n * u, n * w, e[0] * den)
    if field is int and e[0] == 1:
        return n * u
    return Fraction(n * u, e[0] * den)


def _design_sum(m: int, dim: int, r_sq: Scalar, l_sq: Scalar, n: int = 1) -> Scalar:
    """n times the design-moment average at R^2 = r_sq, L^2 = l_sq (m >= 1).

    Exact values are lifted once to r/D, l/D over one denominator D (pairs
    in Z[sqrt 5] where either holds sqrt 5).  Then A = (r + l)/D and
    R^2 L^2 = r l/D^2, and the average is
    sum_k e_k (r l)^k (r + l)^(m-2k) / (e_0 D^m), summed by _design_ratio.
    Otherwise the term-by-term sum runs in floats; float overflow gives inf.
    """
    if not (is_exact(r_sq) and is_exact(l_sq)):
        return n * _design_terms(m, dim, r_sq + l_sq, r_sq * l_sq)
    D, ((ru, rw), (lu, lw)) = _over_one_denominator((r_sq, l_sq))
    y = (ru + lu, rw + lw)
    if rw or lw:
        x, y_sq = _root5_product((ru, rw), (lu, lw)), _root5_product(y, y)
    else:
        x, y_sq = (ru * lu, 0), (y[0] * y[0], 0)
    if isinstance(r_sq, Surd) or isinstance(l_sq, Surd):
        field = Surd
    else:
        field = int if isinstance(r_sq, int) and isinstance(l_sq, int) else Fraction
    return _design_ratio(m, dim, x, y, y_sq, D ** m, field, n)


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
    return _finite(_design_sum(m, 2, r_sq, l_sq, n))


def _average(spec: Figure, m: int, L: Scalar, n: int = 1) -> Scalar:
    """n times the closed-form cyclic average of either figure at centroid distance L."""
    if not L >= 0:
        raise OutOfRangeError("centroid distance L must be >= 0")
    _check_power(m, spec.t, spec.name)
    return _design_sum(m, spec.dim, spec.R_sq, L * L, n)


def power_sum_closed(spec: Figure, m: int, L: Scalar) -> Scalar:
    """Closed-form sum of d_i^(2m) over the vertices of a polygon or solid."""
    return _finite(_average(spec, m, L, spec.n))


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
    g, ((r, _), (l, _)) = _over_one_denominator((R, L))
    if not r > 0:
        raise OutOfRangeError("circumradius must be positive")
    if not l >= 0:
        raise OutOfRangeError("centroid distance L must be >= 0")
    N = cycle_n or n
    if n < 1 or N < 1 or N % n:
        raise OutOfRangeError(f"cycle {N} is not a positive multiple of n={n}")
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
    """q_0..q_m, all > 0: _design_sum(m, dim, r, u) = sum_j q_j r^(m-j) u^j."""
    c = (1,) + design_coefficients(m, dim)
    return tuple(sum(c[k] * math.comb(m - 2 * k, j - k) for k in range(min(j, m - j) + 1))
                 for j in range(m + 1))


@functools.lru_cache(maxsize=256)
def _u_floats(m: int, dim: int) -> tuple[float, ...]:
    """_u_coefficients(m, dim) as floats; a rational q_j times a float is
    float(q_j) times it, so the products keep their bits."""
    return tuple(map(float, _u_coefficients(m, dim)))


def _radius_sq(m: int, dim: int, n: int, r: float, C: float) -> float:
    """The root u = L^2 of n sum_j q_j r^(m-j) u^j = C (q = _u_coefficients(m, dim)),
    by monotone Newton.

    With w = (C/n)^(1/m) and u = w s this reads sum_j b_j s^j = 1 for
    b_j = q_j (r/w)^(m-j), whose root lies in (0, 1], so no term overflows.
    The polynomial is increasing and convex for s >= 0: Newton from the upper
    bound min_j b_j^(-1/j) descends monotonically, until an iterate no
    longer decreases.
    """
    w = (C / n) ** (1.0 / m)
    if w == 0.0:
        raise OutOfRangeError("the locus radius underflows a float; use larger inputs")
    b = [qj * (r / w) ** (m - j) for j, qj in enumerate(_u_floats(m, dim))]
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
        # cross-multiplied: C = c/p and R^2 = r/q give C - n R^(2m) the sign
        # of c q^m - n p r^m, in Z or Z[sqrt 5]
        cu, cw, p = _triple(C)
        ru, rw, q = _triple(r_sq)
        if rw:
            ru, rw = power((ru, rw), m, _root5_product, (1, 0))
        else:
            ru **= m
        scale = q ** m
        side = _root5_sign(cu * scale - n * p * ru, cw * scale - n * p * rw)
        if side == 0:
            return Locus("centroid")
        if side < 0:
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
    root = _radius_sq(m, dim, n, _float(r_sq), _float(C))
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
    return _nonnegative(s4 - _finite(s2 * s2), s2, lambda _: InvalidAverageError(_S4_BELOW_S2_SQ))


def _negative_discriminant(dim: int, disc: Scalar) -> NegativeDiscriminantError:
    return NegativeDiscriminantError(f"{dim + 1}*S2^2 - {dim}*S4 = {describe(disc)} < 0: "
                                     "no real (R^2, L^2) exists")


def _recover_exact(dim: int, s2: Scalar, s4: Scalar) -> tuple[Scalar, Scalar]:
    """_recover on exact S2 = a/D and S4 = b/D, in integers (pairs in Z[sqrt 5]).

    S4 - S2^2 and the discriminant are the pairs b D - a^2 and
    (dim+1) a^2 - dim b D over D^2, and the root of the discriminant is an
    integer pair over D, so {R^2, L^2} = (a +- root)/2D.  A Surd input
    makes the field Q(sqrt 5), else it is Q: a rational radicand's root
    y sqrt 5 is refused there.
    """
    D, ((a, a5), (b, b5)) = _over_one_denominator((s2, s4))
    surd = isinstance(s2, Surd) or isinstance(s4, Surd)
    if _root5_sign(a, a5) <= 0:
        raise InvalidAverageError(_S2_NOT_POSITIVE)
    sq, sq5 = _root5_product((a, a5), (a, a5))
    if _root5_sign(b * D - sq, b5 * D - sq5) < 0:
        raise InvalidAverageError(_S4_BELOW_S2_SQ)
    disc = ((dim + 1) * sq - dim * b * D, (dim + 1) * sq5 - dim * b5 * D)
    negative = _root5_sign(*disc) < 0
    root = None if negative else _root5_isqrt(*disc)
    if root is None or not surd and root[1]:
        # the discriminant's value, of the type the operands' arithmetic gives
        if surd:
            value = _surd(*disc, D * D)
        elif isinstance(s2, int) and isinstance(s4, int):
            value = disc[0]
        else:
            value = Fraction(disc[0], D * D)
        raise _negative_discriminant(dim, value) if negative else _no_exact_sqrt(value)
    x, y = root
    if surd:
        return _surd(a + x, a5 + y, 2 * D), _surd(a - x, a5 - y, 2 * D)
    return Fraction(a + x, 2 * D), Fraction(a - x, 2 * D)


def _recover(dim: int, s2: Scalar, s4: Scalar) -> tuple[Scalar, Scalar]:
    """{R^2, L^2} from S2 = R^2 + L^2 and S4 = S2^2 + (4/dim) R^2 L^2.

    The discriminant (dim+1) S2^2 - dim S4 equals (R^2 - L^2)^2 for
    consistent data; a float one down to -1e-12 S2^2 reads as 0.  Exact
    data take the integer path of _recover_exact, with the same refusals.
    """
    if is_exact(s2) and is_exact(s4):
        return _recover_exact(dim, s2, s4)
    if not s2 > 0:
        raise InvalidAverageError(_S2_NOT_POSITIVE)
    _s4_gap(s2, s4)  # (4/dim) R^2 L^2, refused when negative
    root = _root((dim + 1) * s2 * s2 - dim * s4, s2,
                 lambda disc: _negative_discriminant(dim, disc))
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
    return _finite(_design_sum(m, 2, r_sq, s2 - r_sq))


def s2m_from_s2_s4(m: int, s2: Scalar, s4: Scalar) -> Scalar:
    """S^(2m) from S2 and S4 alone: eliminates R^2 via S4 - S2^2 = 2 R^2 L^2."""
    if m < 3:
        raise OutOfRangeError("conversion defined for m >= 3")
    if not (is_exact(s2) and is_exact(s4)):
        return _finite(_design_terms(m, 2, s2, _HALF * _s4_gap(s2, s4)))
    # S2 = y/q, S4 = b/t and R^2 L^2 = (S4 - S2^2)/2 = x/(2 t q^2) over integer
    # pairs: the average times e_0 q^m (2t)^K is y^(m-2K) sum_k e_k x^k (2 t y^2)^(K-k)
    yu, yw, q = _triple(s2)
    bu, bw, t = _triple(s4)
    su, sw = _root5_product((yu, yw), (yu, yw))
    x = (bu * q * q - t * su, bw * q * q - t * sw)
    if _root5_sign(*x) < 0:
        raise InvalidAverageError(_S4_BELOW_S2_SQ)
    field = Surd if isinstance(s2, Surd) or isinstance(s4, Surd) else Fraction
    return _design_ratio(m, 2, x, (yu, yw), (2 * t * su, 2 * t * sw),
                         q ** m * (2 * t) ** (m // 2), field)


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

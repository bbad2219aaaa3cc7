"""Integer polynomials and degree certificates.

Provides just enough machinery to certify that a squarefree integer
polynomial has no rational factor of small degree:

1. reduce mod many primes and read off the irreducible factor-degree
   multiset via distinct-degree factorization -- a rational factor's degree
   must be a sub-multiset sum for every good prime, so intersecting the
   achievable sums across primes can rule degrees out cheaply;
2. when the degree patterns cannot decide (they often cannot: abelian
   splitting fields keep every local factor degree small), fall back to an
   exhaustive exact divisor search in the style of Kronecker: a degree-k
   integer factor g satisfies g(t) | p(t) at k+1 integer sample points, so
   interpolating every signed divisor combination and test-dividing decides
   the question outright.

Both routes only ever claim what they have proved; an exhausted search
budget surfaces as "inconclusive", never as a certificate.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import NoCertificateFoundError, OutOfRangeError
from .fields import power

PRIME_BOUND = 200  # reduce mod every prime below this
MAX_PATTERNS = 10  # stop collecting factor-degree patterns after this many primes
SEARCH_BUDGET = 2_000_000  # divisor combinations the exact search may try


@dataclass(frozen=True)
class IntegerPolynomial:
    """Dense integer polynomial, coefficients in ascending degree order."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        trimmed = list(self.coeffs)
        while len(trimmed) > 1 and trimmed[-1] == 0:
            trimmed.pop()
        if not trimmed:
            trimmed = [0]
        object.__setattr__(self, "coeffs", tuple(int(c) for c in trimmed))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        return self.coeffs[-1]

    def __call__(self, x):
        out = 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def derivative(self) -> "IntegerPolynomial":
        return IntegerPolynomial(tuple(i * c for i, c in enumerate(self.coeffs))[1:] or (0,))

    def is_zero(self) -> bool:
        return self.coeffs == (0,)

    def __str__(self) -> str:
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            term = f"{c}" if i == 0 else (f"{c}*x" if i == 1 else f"{c}*x^{i}")
            parts.append(term)
        return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def poly_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def poly_sub(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = list(a) + [0] * max(0, len(b) - len(a))
    for i, y in enumerate(b):
        out[i] -= y
    return out


def divmod_monic(a: Sequence, b: Sequence) -> tuple[list, list]:
    """Quotient and remainder of a by the monic polynomial b.

    The package's only long division: over Z directly, over Q with
    ``Fraction`` coefficients, and over F_q with b made monic mod q and both
    results reduced by ``_mod``.  The remainder always has len(b) - 1
    coefficients, so residues mod b are fixed-length vectors.
    """
    k = len(b) - 1
    rem = list(a) + [0] * max(0, k - len(a))
    quo = [0] * max(1, len(rem) - k)
    for i in range(len(rem) - 1 - k, -1, -1):
        f = rem[i + k]
        if f:
            quo[i] = f
            for j, y in enumerate(b):
                rem[i + j] -= f * y
    return quo, rem[:k]


@functools.lru_cache(maxsize=128)
def cyclotomic(n: int) -> IntegerPolynomial:
    """Phi_n: x^n - 1 divided exactly by Phi_d for every proper divisor d of n."""
    if n < 1:
        raise OutOfRangeError(f"no cyclotomic polynomial of order {n}")
    p = [-1] + [0] * (n - 1) + [1]
    for d in _divisors(n)[:-1]:
        p = divmod_monic(p, cyclotomic(d).coeffs)[0]
    return IntegerPolynomial(tuple(p))


def divides(candidate: IntegerPolynomial, target: IntegerPolynomial) -> bool:
    """Exact divisibility over the rationals; a zero candidate divides nothing."""
    if candidate.degree == 0:
        return not candidate.is_zero()
    if target.degree < candidate.degree:
        return False
    lead = candidate.leading
    return not any(divmod_monic(target.coeffs, [Fraction(c, lead) for c in candidate.coeffs])[1])


def rational_roots(p: IntegerPolynomial) -> list[Fraction]:
    """All rational roots, found exactly over divisors of the end coefficients."""
    if p.is_zero():
        raise OutOfRangeError("the zero polynomial has every root")
    coeffs = list(p.coeffs)
    # strip x^k factors: 0 is a root as long as the constant term vanishes
    roots: list[Fraction] = []
    while coeffs[0] == 0 and len(coeffs) > 1:
        coeffs.pop(0)
        if not roots:
            roots.append(Fraction(0))
    poly = IntegerPolynomial(tuple(coeffs))
    if poly.degree == 0:
        return roots
    for num in _signed_divisors(poly.coeffs[0]):
        for den in _divisors(abs(poly.leading)):
            cand = Fraction(num, den)
            if cand not in roots and poly(cand) == 0:
                roots.append(cand)
    return sorted(roots)


def _divisors(n: int) -> list[int]:
    n = abs(n)
    small, large = [], []
    i = 1
    while i * i <= n:
        if n % i == 0:
            small.append(i)
            if i != n // i:
                large.append(n // i)
        i += 1
    return small + large[::-1]


def _signed_divisors(n: int) -> list[int]:
    ds = _divisors(n)
    return [d for base in ds for d in (base, -base)]


def is_squarefree(p: IntegerPolynomial) -> bool:
    """Squarefree over the rationals: gcd(p, p') is constant."""
    a = [Fraction(c) for c in p.coeffs]
    b = [Fraction(c) for c in p.derivative().coeffs]
    while any(b):
        while not b[-1]:
            b.pop()
        a, b = b, divmod_monic(a, [c / b[-1] for c in b])[1]
    return not any(a[1:])


# ---------------------------------------------------------------------------
# arithmetic in F_q[x]


def _mod(a: Sequence[int], q: int) -> list[int]:
    """a reduced mod q and trimmed; an empty remainder reads as [0]."""
    out = [c % q for c in a] or [0]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _mod_gcd(a: list[int], b: list[int], q: int) -> list[int]:
    """Monic gcd over F_q of reduced, trimmed a and b."""
    while b != [0]:
        inv = pow(b[-1], -1, q)
        a, b = b, _mod(divmod_monic(a, _mod([c * inv for c in b], q))[1], q)
    inv = pow(a[-1], -1, q)
    return _mod([c * inv for c in a], q)


def _mod_pow_x(e: int, modulus: list[int], q: int) -> list[int]:
    """x^e reduced mod the monic modulus of degree >= 2 over F_q."""
    return power([0, 1], e, lambda u, v: _mod(divmod_monic(poly_mul(u, v), modulus)[1], q), [1])


def factor_degrees_mod(p: IntegerPolynomial, q: int) -> list[int] | None:
    """Sorted irreducible-factor degree multiset of p mod q.

    None when q is unusable: q divides the leading coefficient or the
    reduction is not squarefree.
    """
    f = _mod(p.coeffs, q)
    if len(f) - 1 != p.degree:
        return None
    inv = pow(f[-1], -1, q)
    f = _mod([c * inv for c in f], q)
    deriv = _mod([i * c for i, c in enumerate(f)][1:], q)
    if deriv == [0] or len(_mod_gcd(f, deriv, q)) > 1:
        return None
    degrees: list[int] = []
    d = 0
    while len(f) - 1 >= 1:
        d += 1
        if 2 * d > len(f) - 1:
            degrees.append(len(f) - 1)
            break
        g = _mod_gcd(f, _mod(poly_sub(_mod_pow_x(q ** d, f, q), [0, 1]), q), q)
        if len(g) > 1:
            degrees.extend([d] * ((len(g) - 1) // d))
            f = _mod(divmod_monic(f, g)[0], q)
    return sorted(degrees)


def subset_sums(degrees: Iterable[int]) -> frozenset[int]:
    sums = {0}
    for d in degrees:
        sums |= {s + d for s in sums}
    return frozenset(sums)


def _primes_below(bound: int) -> list[int]:
    sieve = bytearray([1]) * bound
    sieve[:2] = b"\x00\x00"
    for i in range(2, int(bound ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = b"\x00" * len(sieve[i * i::i])
    return [i for i, v in enumerate(sieve) if v]


# ---------------------------------------------------------------------------
# exhaustive exact small-factor search


def kronecker_small_factor(p: IntegerPolynomial, max_degree: int) -> IntegerPolynomial | None:
    """An integer factor of degree 1..max_degree, or None if none exists.

    Complete and exact: by Gauss's lemma any rational factor scales to an
    integer one, whose values at integer points divide p's values there.
    Raises NoCertificateFoundError if the divisor combinations exceed
    SEARCH_BUDGET (then and only then is the question left open).
    """
    max_degree = min(max_degree, p.degree - 1)  # degree-p factors are p itself
    if max_degree < 1:
        return None
    samples: list[tuple[int, int]] = []
    t = 0
    while len(samples) < max_degree + 1:
        for cand in (t, -t) if t else (0,):
            value = p(cand)
            if value == 0:
                return IntegerPolynomial((-cand, 1))
            samples.append((cand, value))
            if len(samples) == max_degree + 1:
                break
        t += 1
    for deg in range(1, max_degree + 1):
        pts = samples[: deg + 1]
        divisor_lists = [_signed_divisors(v) for _, v in pts]
        combos = math.prod(len(dl) for dl in divisor_lists)
        if combos > SEARCH_BUDGET:
            raise NoCertificateFoundError(
                f"divisor search for degree {deg} needs {combos} combinations")
        xs = [x for x, _ in pts]
        for values in itertools.product(*divisor_lists):
            coeffs = _interpolate(xs, values)
            if coeffs is None or coeffs[-1] == 0:
                continue
            cand = IntegerPolynomial(tuple(coeffs))
            if divides(cand, p):
                return cand
    return None


def _interpolate(xs: Sequence[int], ys: Sequence[int]) -> list[int] | None:
    """Integer coefficients of the polynomial through (xs, ys), or None.

    Newton divided differences in place by exact division: over distinct
    integer nodes each is an integer combination of the interpolant's
    coefficients, so the first remainder rules out an integer interpolant."""
    c = list(ys)
    for j in range(1, len(xs)):
        for i in range(len(xs) - 1, j - 1, -1):
            c[i], r = divmod(c[i] - c[i - 1], xs[i] - xs[i - j])
            if r:
                return None
    poly = [c[-1]]  # Horner on the Newton form: poly <- poly (x - x_k) + c_k
    for ck, xk in zip(c[-2::-1], xs[-2::-1]):
        poly = [ck - xk * poly[0]] + [lo - xk * hi for lo, hi in zip(poly, poly[1:])] + [poly[-1]]
    return poly


# ---------------------------------------------------------------------------
# the certificate


@dataclass(frozen=True)
class DegreeCertificate:
    """Outcome of the small-factor exclusion procedure.

    certified            -- no proper rational factor of degree 1..max_degree
    fully_irreducible    -- the stronger statement p is irreducible over Q
    certifying_prime     -- prime with irreducible reduction, when one exists
    prime_patterns       -- (q, factor degree multiset) for the primes used
    possible_degrees     -- factor degrees <= max_degree the patterns allow
    method               -- "single-prime" | "degree-patterns" |
                            "divisor-search" | "inconclusive"
    small_factor         -- a witness factor when one exists (not certified)
    """

    max_degree: int
    certified: bool
    fully_irreducible: bool
    certifying_prime: int | None
    prime_patterns: tuple[tuple[int, tuple[int, ...]], ...]
    possible_degrees: tuple[int, ...]
    method: str
    small_factor: IntegerPolynomial | None = None
    notes: tuple[str, ...] = field(default_factory=tuple)


def certify_no_small_factor(p: IntegerPolynomial, max_degree: int = 4) -> DegreeCertificate:
    """Certify that p has no rational factor of degree 1..max_degree.

    Strategy: a single prime with irreducible reduction settles everything;
    otherwise intersect achievable factor-degree sums across good primes;
    otherwise run the exhaustive exact divisor search.  The result never
    overstates: ``certified`` is True only with a sound proof in hand.
    """
    if p.degree < 1:
        raise OutOfRangeError("need a nonconstant polynomial")
    if not is_squarefree(p):
        raise OutOfRangeError("polynomial must be squarefree over the rationals")
    # only proper factors matter: a factor of full degree is p itself
    target = set(range(1, min(max_degree, p.degree - 1) + 1))
    patterns: list[tuple[int, tuple[int, ...]]] = []
    possible: set[int] | None = None
    for q in _primes_below(PRIME_BOUND):
        degrees = factor_degrees_mod(p, q)
        if degrees is None:
            continue
        patterns.append((q, tuple(degrees)))
        if degrees == [p.degree]:
            return DegreeCertificate(
                max_degree, True, True, q, tuple(patterns), (), "single-prime")
        sums = subset_sums(degrees)
        possible = sums if possible is None else (possible & sums)
        if not possible & target:
            return DegreeCertificate(
                max_degree, True, False, None, tuple(patterns),
                tuple(sorted(possible & target)), "degree-patterns")
        if len(patterns) >= MAX_PATTERNS:
            break
    remaining = tuple(sorted((possible or set(target)) & target))
    try:
        factor = kronecker_small_factor(p, max_degree)
    except NoCertificateFoundError as exc:
        return DegreeCertificate(
            max_degree, False, False, None, tuple(patterns), remaining,
            "inconclusive", notes=(str(exc),))
    if factor is not None:
        return DegreeCertificate(
            max_degree, False, False, None, tuple(patterns), remaining,
            "divisor-search", small_factor=factor,
            notes=(f"found factor {factor}",))
    # no factor of degree <= max_degree; for 2*max_degree >= degree this
    # already forces irreducibility (any split has a half of small degree)
    fully = 2 * max_degree >= p.degree
    return DegreeCertificate(
        max_degree, True, fully, None, tuple(patterns), remaining,
        "divisor-search")

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

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import NoCertificateFoundError, OutOfRangeError


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

    def eval_float(self, x: float) -> float:
        out = 0.0
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


def divides(candidate: IntegerPolynomial, target: IntegerPolynomial) -> bool:
    """Exact divisibility over the rationals, by fraction-free long division."""
    if candidate.is_zero() or candidate.degree == 0:
        return not candidate.is_zero()
    rem = [Fraction(c) for c in target.coeffs]
    div = [Fraction(c) for c in candidate.coeffs]
    if len(rem) < len(div):
        return False
    for i in range(len(rem) - len(div), -1, -1):
        f = rem[i + len(div) - 1] / div[-1]
        if f:
            for j, y in enumerate(div):
                rem[i + j] -= f * y
    return all(c == 0 for c in rem)


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
        a, b = b, _frac_poly_mod(a, b)
    deg = max((i for i, c in enumerate(a) if c), default=0)
    return deg == 0


def _frac_poly_mod(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    while b and b[-1] == 0:
        b = b[:-1]
    rem = list(a)
    for i in range(len(rem) - len(b), -1, -1):
        f = rem[i + len(b) - 1] / b[-1]
        if f:
            for j, y in enumerate(b):
                rem[i + j] -= f * y
    out = rem[: len(b) - 1]
    return out if out else [Fraction(0)]


# ---------------------------------------------------------------------------
# arithmetic in F_q[x]


def _mod_trim(a: list[int]) -> list[int]:
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def _mod_mul(a: list[int], b: list[int], q: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % q
    return _mod_trim(out)


def _mod_divmod(a: list[int], b: list[int], q: int) -> tuple[list[int], list[int]]:
    rem = list(a)
    if len(rem) < len(b):
        return [0], _mod_trim(rem)
    quo = [0] * (len(rem) - len(b) + 1)
    inv = pow(b[-1], -1, q)
    for i in range(len(rem) - len(b), -1, -1):
        f = rem[i + len(b) - 1] * inv % q
        quo[i] = f
        if f:
            for j, y in enumerate(b):
                rem[i + j] = (rem[i + j] - f * y) % q
    return _mod_trim(quo), _mod_trim(rem[: len(b) - 1] or [0])


def _mod_gcd(a: list[int], b: list[int], q: int) -> list[int]:
    a = _mod_trim(list(a))
    b = _mod_trim(list(b))
    while b != [0]:
        _, r = _mod_divmod(a, b, q)
        a, b = b, r
    inv = pow(a[-1], -1, q)
    return _mod_trim([c * inv % q for c in a])


def _mod_pow_x(e: int, modulus: list[int], q: int) -> list[int]:
    """x^e reduced mod (modulus) over F_q, by square and multiply."""
    result = [1]
    base = _mod_divmod([0, 1], modulus, q)[1] if len(modulus) <= 2 else [0, 1]
    while e:
        if e & 1:
            result = _mod_divmod(_mod_mul(result, base, q), modulus, q)[1]
        base = _mod_divmod(_mod_mul(base, base, q), modulus, q)[1]
        e >>= 1
    return result


def factor_degrees_mod(p: IntegerPolynomial, q: int) -> list[int] | None:
    """Sorted irreducible-factor degree multiset of p mod q.

    None when q is unusable: q divides the leading coefficient or the
    reduction is not squarefree.
    """
    f = _mod_trim([c % q for c in p.coeffs])
    if len(f) - 1 != p.degree:
        return None
    inv = pow(f[-1], -1, q)
    f = [c * inv % q for c in f]
    deriv = _mod_trim([(i * c) % q for i, c in enumerate(f)][1:] or [0])
    if deriv == [0] or len(_mod_gcd(f, deriv, q)) > 1:
        return None
    degrees: list[int] = []
    d = 0
    while len(f) - 1 >= 1:
        d += 1
        if 2 * d > len(f) - 1:
            degrees.append(len(f) - 1)
            break
        xq = _mod_pow_x(q ** d, f, q)
        probe = list(xq) + [0] * max(0, 2 - len(xq))
        probe[1] = (probe[1] - 1) % q
        g = _mod_gcd(f, _mod_trim(probe), q)
        if len(g) > 1:
            degrees.extend([d] * ((len(g) - 1) // d))
            f, _ = _mod_divmod(f, g, q)
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


def kronecker_small_factor(p: IntegerPolynomial, max_degree: int,
                           budget: int = 2_000_000) -> IntegerPolynomial | None:
    """An integer factor of degree 1..max_degree, or None if none exists.

    Complete and exact: by Gauss's lemma any rational factor scales to an
    integer one, whose values at integer points divide p's values there.
    Raises NoCertificateFoundError if the divisor combinations exceed the
    budget (then and only then is the question left open).
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
        if combos > budget:
            raise NoCertificateFoundError(
                f"divisor search for degree {deg} needs {combos} combinations")
        basis = _lagrange_basis([x for x, _ in pts])
        for values in itertools.product(*divisor_lists):
            coeffs = [sum(v * b[k] for v, b in zip(values, basis))
                      for k in range(deg + 1)]
            if coeffs[-1] == 0 or any(c.denominator != 1 for c in coeffs):
                continue
            cand = IntegerPolynomial(tuple(int(c) for c in coeffs))
            if cand.degree == deg and divides(cand, p):
                return cand
    return None


def _lagrange_basis(xs: Sequence[int]) -> list[list[Fraction]]:
    """Coefficient vectors of the Lagrange basis polynomials over xs."""
    out = []
    for i, xi in enumerate(xs):
        poly = [Fraction(1)]
        den = 1
        for j, xj in enumerate(xs):
            if i == j:
                continue
            poly = [Fraction(0)] + poly
            for k in range(len(poly) - 1):
                poly[k] -= xj * poly[k + 1]
            den *= xi - xj
        out.append([c / den for c in poly])
    return out


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


def certify_no_small_factor(p: IntegerPolynomial, max_degree: int = 4,
                            prime_bound: int = 200, max_patterns: int = 10,
                            search_budget: int = 2_000_000) -> DegreeCertificate:
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
    for q in _primes_below(prime_bound):
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
        if len(patterns) >= max_patterns:
            break
    remaining = tuple(sorted((possible or set(target)) & target))
    try:
        factor = kronecker_small_factor(p, max_degree, budget=search_budget)
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

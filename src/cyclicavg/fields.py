"""Scalar backends and exact irrational constants.

Two interchangeable backends flow through every formula in the library:

* exact  -- ``fractions.Fraction``, extended where needed by :class:`Surd`
  values ``a + b*sqrt(5)`` (the golden-ratio solids),
* float  -- IEEE doubles, compared with a relative tolerance.

All computational routines are written against the shared arithmetic protocol
(``+ - * / ** int``), so the same code path is exact on exact inputs.  The
mixing rule is the one ``Fraction`` already follows: a float operand makes the
result float, computed as the same operation on ``float(x)``.  Exact constants
such as ``Fraction(1, 2)`` therefore serve both backends, and a float run gives
the same bits as one written with float literals.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Callable, Iterable, TypeVar, Union

from .errors import InexactSqrtError

Rational = Union[int, Fraction]
Scalar = Union[int, float, Fraction, "Surd"]
_T = TypeVar("_T")

_ROOT5 = math.sqrt(5)


def rel_err(a: float, b: float) -> float:
    """|a - b| scaled by the larger magnitude (0 when both vanish)."""
    scale = max(abs(a), abs(b))
    if scale == 0.0:
        return 0.0
    return abs(a - b) / scale


def power(x: _T, k: int, mul: Callable[[_T, _T], _T], one: _T) -> _T:
    """x ** k for k >= 0 by square and multiply in any ring given by mul.

    Never multiplies by one and never squares past the top bit of k.
    """
    out = None
    while k:
        if k & 1:
            out = x if out is None else mul(out, x)
        k >>= 1
        if k:
            x = mul(x, x)
    return one if out is None else out


def exact_sqrt(x: Rational) -> Fraction | None:
    """Square root of a nonnegative rational, or None when irrational."""
    x = Fraction(x)
    if x < 0:
        return None
    rn = math.isqrt(x.numerator)
    rd = math.isqrt(x.denominator)
    if rn * rn != x.numerator or rd * rd != x.denominator:
        return None
    return Fraction(rn, rd)


def describe(x: Scalar) -> str:
    """str(x) for an error message, or its type when an exact x holds an
    integer past the interpreter's int-to-str digit limit."""
    try:
        return str(x)
    except ValueError:
        return f"a {type(x).__name__} too long to print"


def is_exact(x: Scalar) -> bool:
    return isinstance(x, (int, Fraction, Surd))


def _root5_product(x: tuple[_T, _T], y: tuple[_T, _T]) -> tuple[_T, _T]:
    """(a + b sqrt 5)(c + d sqrt 5) on the pairs (a, b), (c, d) of any ring."""
    (a, b), (c, d) = x, y
    return a * c + b * d * 5, a * d + b * c


def _root5_sign(u: int, w: int) -> int:
    """Exact sign of u + w sqrt 5: that of u when u^2 > 5 w^2, else that of w.

    u^2 = 5 w^2 only at zero, since sqrt(5) is irrational.
    """
    lead = u if u * u > 5 * w * w else w
    return (lead > 0) - (lead < 0)


def _root5_isqrt(a: int, b: int) -> tuple[int, int] | None:
    """(x, y) with (x + y sqrt 5)^2 = a + b sqrt 5 and x + y sqrt 5 >= 0, or None.

    x^2 + 5 y^2 = a and 2xy = b, so x^2 = (a +- e)/2 for e^2 = a^2 - 5 b^2
    and 5 y^2 = a - x^2.  A root in Q(sqrt 5) of an element of Z[sqrt 5] is
    an algebraic integer, in Z[phi]; the elements (x + y sqrt 5)/2 of Z[phi]
    with x, y odd square outside Z[sqrt 5], so integer x, y find every root.
    """
    norm = a * a - 5 * b * b
    if norm < 0:
        return None
    e = math.isqrt(norm)
    if e * e != norm or (a + e) % 2:
        return None
    for t in ((a + e) // 2, (a - e) // 2):
        y_sq, rest = divmod(a - t, 5)
        if t < 0 or y_sq < 0 or rest:
            continue
        x, y = math.isqrt(t), math.isqrt(y_sq)
        if x * x == t and y * y == y_sq:
            y = y if b >= 0 else -y
            return (x, y) if _root5_sign(x, y) >= 0 else (-x, -y)
    return None


def _operator_fallbacks(exact: Callable[["Surd", "Surd"], _T], fallback: Callable):
    """Forward and reflected methods for one binary operator, built the way
    ``fractions.Fraction`` builds its own.

    An int or Fraction operand is lifted to a Surd by _rational and ``exact``
    runs on the pair in operand order; a float operand gives ``fallback`` on
    ``float(self)`` in the same order; anything else is NotImplemented.
    """
    def forward(a, b):
        if isinstance(b, Surd):
            return exact(a, b)
        if isinstance(b, (int, Fraction)):
            return exact(a, _rational(b))
        return fallback(float(a), b) if isinstance(b, float) else NotImplemented

    def reverse(b, a):
        if isinstance(a, (int, Fraction)):
            return exact(_rational(a), b)
        if isinstance(a, Surd):
            return exact(a, b)
        return fallback(a, float(b)) if isinstance(a, float) else NotImplemented

    return forward, reverse


def _surd(u: int, w: int, q: int) -> "Surd":
    """(u + w sqrt 5)/q for q != 0, stored in lowest terms with q > 0."""
    g = math.gcd(u, w, q)
    if q < 0:
        g = -g
    x = object.__new__(Surd)
    x._u, x._w, x._q = u // g, w // g, q // g
    return x


def _rational(x: Rational) -> "Surd":
    """x as the Surd (numerator + 0 sqrt 5)/denominator, already in lowest terms."""
    y = object.__new__(Surd)
    y._u, y._w, y._q = x.numerator, 0, x.denominator
    return y


def _linear(op: Callable[[int, int], int]) -> Callable[["Surd", "Surd"], "Surd"]:
    """x op y for op + or -, over the product of the denominators."""
    return lambda x, y: _surd(op(x._u * y._q, y._u * x._q), op(x._w * y._q, y._w * x._q),
                              x._q * y._q)


def _triple(x: Scalar) -> tuple[int, int, int]:
    """(u, w, q) with exact x = (u + w sqrt 5)/q in lowest terms, q > 0."""
    return (x._u, x._w, x._q) if isinstance(x, Surd) else (x.numerator, 0, x.denominator)


def _over_one_denominator(values: Iterable[Scalar]) -> tuple[int, list[tuple[int, int]]]:
    """(D, [(u, w), ...]) with each exact x = (u + w sqrt 5)/D over the least
    common denominator D of the values (int, Fraction or Surd)."""
    parts = [_triple(x) for x in values]
    D = math.lcm(*[q for _, _, q in parts])
    return D, [(u * (D // q), w * (D // q)) for u, w, q in parts]


class Surd:
    """Element ``a + b*sqrt(5)`` of Q(sqrt 5), the golden ratio's field.

    Stored as three ints, ``(u + w*sqrt(5))/q`` in lowest terms
    (gcd(u, w, q) = 1) with ``q > 0``, so equal values hold equal triples;
    ``a = u/q`` and ``b = w/q`` read as Fractions, and a value with
    ``b == 0`` is plain rational.  A float operand gives the float result
    ``op(float(self), other)``, as for Fraction.
    """

    __slots__ = ("_u", "_w", "_q")

    def __init__(self, a: Rational = 0, b: Rational = 0):
        if not isinstance(a, (int, Fraction)):
            a = Fraction(a)
        if not isinstance(b, (int, Fraction)):
            b = Fraction(b)
        # a and b in lowest terms over their lcm leave no common factor
        p, q, v, s = a.numerator, a.denominator, b.numerator, b.denominator
        g = math.gcd(q, s)
        self._u, self._w, self._q = p * (s // g), v * (q // g), q // g * s

    @property
    def a(self) -> Fraction:
        return Fraction(self._u, self._q)

    @property
    def b(self) -> Fraction:
        return Fraction(self._w, self._q)

    # -- ring operations -------------------------------------------------

    __add__, __radd__ = _operator_fallbacks(_linear(operator.add), operator.add)
    __sub__, __rsub__ = _operator_fallbacks(_linear(operator.sub), operator.sub)
    __mul__, __rmul__ = _operator_fallbacks(
        lambda x, y: _surd(*_root5_product((x._u, x._w), (y._u, y._w)), x._q * y._q),
        operator.mul)

    def _div(x, y):
        # y^-1 = q (u - w sqrt 5) / (u^2 - 5 w^2); the norm is 0 only at y = 0
        norm = y._u * y._u - 5 * y._w * y._w
        if not norm:
            raise ZeroDivisionError("Surd division by zero")
        return x * _surd(y._q * y._u, -y._q * y._w, norm)

    __truediv__, __rtruediv__ = _operator_fallbacks(_div, operator.truediv)

    def __neg__(self) -> "Surd":
        return _surd(-self._u, -self._w, self._q)

    def __pow__(self, n: int) -> "Surd":
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        return power(self, n, operator.mul, _ONE)

    # -- structure -------------------------------------------------------

    __eq__ = _operator_fallbacks(
        lambda x, y: x._u == y._u and x._w == y._w and x._q == y._q, operator.eq)[0]

    def __hash__(self) -> int:
        if self._w == 0:
            return hash(self.a)
        return hash((self.a, self.b))

    def sign(self) -> int:
        """Exact sign of (u + w*sqrt(5))/q, that of u + w*sqrt(5) as q > 0."""
        return _root5_sign(self._u, self._w)

    # x > y is y < x reflected, so each pair comes from one exact test
    __lt__, __gt__ = _operator_fallbacks(lambda x, y: (x - y).sign() < 0, operator.lt)
    __le__, __ge__ = _operator_fallbacks(lambda x, y: (x - y).sign() <= 0, operator.le)

    def __bool__(self) -> bool:
        return self._u != 0 or self._w != 0

    def __float__(self) -> float:
        """u/q + (w/q) sqrt 5, each quotient correctly rounded.  Where u and w
        differ in sign the two terms cancel, so the value is read off the
        conjugate instead: (u^2 - 5 w^2)/q^2 over u/q - (w/q) sqrt 5, whose
        numerator is the exact norm and whose terms share a sign."""
        u, w, q = self._u, self._w, self._q
        if u * w < 0:
            try:
                return (u * u - 5 * w * w) / (q * q) / (u / q - w / q * _ROOT5)
            except OverflowError:  # a norm past the float range
                pass
        return u / q + w / q * _ROOT5

    def __repr__(self) -> str:
        if self._w == 0:
            return f"Surd({self.a})"
        return f"Surd({self.a}, {self.b})"

    @property
    def is_rational(self) -> bool:
        return self._w == 0

    def sqrt(self) -> "Surd | None":
        """The nonnegative square root within Q(sqrt 5), or None.

        sqrt((u + w sqrt 5)/q) is the root of the integer pair (u q, w q)
        over q (see _root5_isqrt); a rational radicand's root is x or
        y*sqrt(5).
        """
        root = _root5_isqrt(self._u * self._q, self._w * self._q)
        return None if root is None else _surd(*root, self._q)


_ONE = _rational(1)
GOLDEN_RATIO = Surd(Fraction(1, 2), Fraction(1, 2))


def _no_exact_sqrt(x: Scalar) -> InexactSqrtError:
    """The refusal of sqrt(x) for an exact x whose root leaves its field."""
    where = "does not lie in the same field" if isinstance(x, Surd) else \
        "is irrational; use the float backend"
    return InexactSqrtError(f"sqrt({describe(x)}) {where}")


def sqrt_scalar(x: Scalar) -> Scalar:
    """Backend-aware square root: exact for exact inputs, float otherwise."""
    if isinstance(x, (int, Fraction)):
        r = exact_sqrt(x)
    elif isinstance(x, Surd):
        r = x.sqrt()
    else:
        return math.sqrt(x)
    if r is None:
        raise _no_exact_sqrt(x)
    return r

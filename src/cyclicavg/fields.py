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
from typing import Callable, TypeVar, Union

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


class Surd:
    """Element ``a + b*sqrt(5)`` of Q(sqrt 5), the golden ratio's field.

    ``a`` and ``b`` are Fractions; a value with ``b == 0`` is plain rational.
    A float operand gives the float result ``op(float(self), other)``, as
    for Fraction.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: Rational = 0, b: Rational = 0):
        self.a = Fraction(a)
        self.b = Fraction(b)

    def _coerce(self, other: Scalar) -> "Surd":
        if isinstance(other, Surd):
            return other
        if isinstance(other, (int, Fraction)):
            return Surd(other)
        return NotImplemented  # type: ignore[return-value]

    def _mixed(self, op: Callable, other: object, reflected: bool = False):
        # only reached when _coerce declined, so the exact path pays nothing
        if isinstance(other, float):
            return op(other, float(self)) if reflected else op(float(self), other)
        return NotImplemented

    # -- ring operations -------------------------------------------------

    def __add__(self, other: Scalar) -> "Surd":
        o = self._coerce(other)
        if o is NotImplemented:
            return self._mixed(operator.add, other)
        return Surd(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other: Scalar) -> "Surd":
        o = self._coerce(other)
        if o is NotImplemented:
            return self._mixed(operator.sub, other)
        return Surd(self.a - o.a, self.b - o.b)

    def __rsub__(self, other: Scalar) -> "Surd":
        o = self._coerce(other)
        if o is NotImplemented:
            return self._mixed(operator.sub, other, reflected=True)
        return Surd(o.a - self.a, o.b - self.b)

    def __neg__(self) -> "Surd":
        return Surd(-self.a, -self.b)

    def __mul__(self, other: Scalar) -> "Surd":
        o = self._coerce(other)
        if o is NotImplemented:
            return self._mixed(operator.mul, other)
        return Surd(self.a * o.a + self.b * o.b * 5, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar) -> "Surd":
        o = self._coerce(other)
        if o is NotImplemented:
            return self._mixed(operator.truediv, other)
        if o.b == 0:
            return Surd(self.a / o.a, self.b / o.a)
        norm = o.a * o.a - o.b * o.b * 5
        return self * Surd(o.a / norm, -o.b / norm)

    def __rtruediv__(self, other: Scalar) -> "Surd":
        o = self._coerce(other)
        if o is NotImplemented:
            return self._mixed(operator.truediv, other, reflected=True)
        return o / self

    def __pow__(self, n: int) -> "Surd":
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        return power(self, n, operator.mul, Surd(1))

    # -- structure -------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is NotImplemented:
            return self._mixed(operator.eq, other)
        return self.a == o.a and self.b == o.b

    def __hash__(self) -> int:
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b))

    def sign(self) -> int:
        """Exact sign of a + b*sqrt(5)."""
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a^2 against 5 b^2
        lead = 1 if a > 0 else -1
        diff = a * a - b * b * 5
        if diff == 0:
            return 0
        return lead if diff > 0 else -lead

    def _compare(self, other: Scalar, op: Callable[[int, int], bool]) -> bool:
        o = self._coerce(other)
        if o is NotImplemented:
            return self._mixed(op, other)
        return op((self - o).sign(), 0)

    def __lt__(self, other: Scalar) -> bool:
        return self._compare(other, operator.lt)

    def __le__(self, other: Scalar) -> bool:
        return self._compare(other, operator.le)

    def __gt__(self, other: Scalar) -> bool:
        return self._compare(other, operator.gt)

    def __ge__(self, other: Scalar) -> bool:
        return self._compare(other, operator.ge)

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * _ROOT5

    def __repr__(self) -> str:
        if self.b == 0:
            return f"Surd({self.a})"
        return f"Surd({self.a}, {self.b})"

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def sqrt(self) -> "Surd | None":
        """The nonnegative square root within Q(sqrt 5), or None."""
        if self.b == 0:
            # a rational has a root in the field as r or as q*sqrt(5)
            r = exact_sqrt(self.a)
            if r is not None:
                return Surd(r)
            q = exact_sqrt(self.a / 5)
            return None if q is None else Surd(0, q)
        # (x + y*sqrt(5))^2 = a + b*sqrt(5):  x^2 + 5 y^2 = a,  2xy = b.
        e = exact_sqrt(self.a * self.a - self.b * self.b * 5)
        if e is None:
            return None
        for t in ((self.a + e) / 2, (self.a - e) / 2):
            x = exact_sqrt(t)
            if x is not None and x != 0:
                cand = Surd(x, self.b / (2 * x))
                if cand * cand == self:
                    return cand if cand.sign() > 0 else -cand
        return None


GOLDEN_RATIO = Surd(Fraction(1, 2), Fraction(1, 2))


def sqrt_scalar(x: Scalar) -> Scalar:
    """Backend-aware square root: exact for exact inputs, float otherwise."""
    if isinstance(x, (int, Fraction)):
        r = exact_sqrt(x)
        if r is None:
            raise InexactSqrtError(f"sqrt({describe(x)}) is irrational; use the float backend")
        return r
    if isinstance(x, Surd):
        r = x.sqrt()
        if r is None:
            raise InexactSqrtError(f"sqrt({describe(x)}) does not lie in the same field")
        return r
    return math.sqrt(x)


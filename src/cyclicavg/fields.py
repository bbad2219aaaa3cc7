"""Scalar backends and exact irrational constants.

Two interchangeable backends flow through every formula in the library:

* exact  -- ``fractions.Fraction``, extended where needed by :class:`Surd`
  values ``a + b*sqrt(d)`` (the golden-ratio solids need d = 5),
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
from typing import Callable, Union

from .errors import InexactSqrtError, MixedRadicandError

Rational = Union[int, Fraction]
Scalar = Union[int, float, Fraction, "Surd"]


def rel_err(a: float, b: float) -> float:
    """|a - b| scaled by the larger magnitude (0 when both vanish)."""
    scale = max(abs(a), abs(b))
    if scale == 0.0:
        return 0.0
    return abs(a - b) / scale


def rel_close(a: float, b: float, rel_tol: float = 1e-9, abs_tol: float = 0.0) -> bool:
    return abs(a - b) <= max(rel_tol * max(abs(a), abs(b)), abs_tol)


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


def is_exact(x: Scalar) -> bool:
    return isinstance(x, (int, Fraction, Surd))


class Surd:
    """Element ``a + b*sqrt(d)`` of a real quadratic extension of the rationals.

    ``a`` and ``b`` are Fractions, ``d`` a squarefree integer > 1.  A value
    with ``b == 0`` is plain rational and combines freely with Surds of any
    radicand; mixing two distinct irrational radicands raises.  A float
    operand gives the float result ``op(float(self), other)``, as for Fraction.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a: Rational = 0, b: Rational = 0, d: int = 0):
        a = Fraction(a)
        b = Fraction(b)
        if b == 0:
            d = 0
        elif d <= 1:
            raise ValueError("radicand must exceed 1 for an irrational part")
        self.a = a
        self.b = b
        self.d = d

    def _coerce(self, other: Scalar) -> "Surd":
        if isinstance(other, Surd):
            if self.d and other.d and self.d != other.d:
                raise MixedRadicandError(f"mixed radicands sqrt({self.d}) and sqrt({other.d})")
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
        return Surd(self.a + o.a, self.b + o.b, self.d or o.d)

    __radd__ = __add__

    def __sub__(self, other: Scalar) -> "Surd":
        o = self._coerce(other)
        if o is NotImplemented:
            return self._mixed(operator.sub, other)
        return Surd(self.a - o.a, self.b - o.b, self.d or o.d)

    def __rsub__(self, other: Scalar) -> "Surd":
        o = self._coerce(other)
        if o is NotImplemented:
            return self._mixed(operator.sub, other, reflected=True)
        return Surd(o.a - self.a, o.b - self.b, self.d or o.d)

    def __neg__(self) -> "Surd":
        return Surd(-self.a, -self.b, self.d)

    def __mul__(self, other: Scalar) -> "Surd":
        o = self._coerce(other)
        if o is NotImplemented:
            return self._mixed(operator.mul, other)
        d = self.d or o.d
        return Surd(self.a * o.a + self.b * o.b * d, self.a * o.b + self.b * o.a, d)

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar) -> "Surd":
        o = self._coerce(other)
        if o is NotImplemented:
            return self._mixed(operator.truediv, other)
        if o.b == 0:
            return Surd(self.a / o.a, self.b / o.a, self.d)
        norm = o.a * o.a - o.b * o.b * o.d
        return self * Surd(o.a / norm, -o.b / norm, o.d)

    def __rtruediv__(self, other: Scalar) -> "Surd":
        o = self._coerce(other)
        if o is NotImplemented:
            return self._mixed(operator.truediv, other, reflected=True)
        return o / self

    def __pow__(self, n: int) -> "Surd":
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        out = None
        base = self
        while n:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if n:
                base = base * base
        return Surd(1) if out is None else out

    # -- structure -------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is NotImplemented:
            return self._mixed(operator.eq, other)
        return self.a == o.a and self.b == o.b

    def __hash__(self) -> int:
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def sign(self) -> int:
        """Exact sign of a + b*sqrt(d)."""
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a^2 against b^2 d
        lead = 1 if a > 0 else -1
        diff = a * a - b * b * self.d
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
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    def __repr__(self) -> str:
        if self.b == 0:
            return f"Surd({self.a})"
        return f"Surd({self.a}, {self.b}, {self.d})"

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def sqrt(self) -> "Surd | None":
        """Exact square root within the same field, or None."""
        if self.b == 0:
            r = exact_sqrt(self.a)
            if r is not None:
                return Surd(r)
            if self.d:
                q = exact_sqrt(self.a / self.d)
                if q is not None:
                    return Surd(0, q, self.d)
            return None
        # (x + y*sqrt(d))^2 = a + b*sqrt(d):  x^2 + d y^2 = a,  2xy = b.
        e = exact_sqrt(self.a * self.a - self.b * self.b * self.d)
        if e is None:
            return None
        for t in ((self.a + e) / 2, (self.a - e) / 2):
            x = exact_sqrt(t)
            if x is not None and x != 0:
                y = self.b / (2 * x)
                cand = Surd(x, y, self.d)
                if cand * cand == self:
                    return cand
        return None


GOLDEN_RATIO = Surd(Fraction(1, 2), Fraction(1, 2), 5)
SQRT5 = Surd(0, 1, 5)


def sqrt_scalar(x: Scalar) -> Scalar:
    """Backend-aware square root: exact for exact inputs, float otherwise."""
    if isinstance(x, (int, Fraction)):
        r = exact_sqrt(x)
        if r is None:
            raise InexactSqrtError(f"sqrt({x}) is irrational; use the float backend")
        return r
    if isinstance(x, Surd):
        r = x.sqrt()
        if r is None:
            raise InexactSqrtError(f"sqrt({x!r}) does not lie in the same field")
        return r
    return math.sqrt(x)


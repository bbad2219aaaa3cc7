"""Scalar backends and exact irrational constants.

Two interchangeable backends flow through every formula in the library:

* exact  -- ``fractions.Fraction``, extended where needed by :class:`Surd`
  values ``a + b*sqrt(d)`` (the geometry only ever needs d in {2, 3, 5}),
* float  -- IEEE doubles, compared with a relative tolerance.

All computational routines are written against the shared arithmetic protocol
(``+ - * / ** int``), so the same code path is exact on exact inputs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

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


def ratio_like(num: int, den: int, template: Scalar) -> Scalar:
    """The constant num/den in template's backend: a Fraction or a float."""
    return Fraction(num, den) if is_exact(template) else num / den


class Surd:
    """Element ``a + b*sqrt(d)`` of a real quadratic extension of the rationals.

    ``a`` and ``b`` are Fractions, ``d`` a squarefree integer > 1.  A value
    with ``b == 0`` is plain rational and combines freely with Surds of any
    radicand; mixing two distinct irrational radicands raises.
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

    # -- ring operations -------------------------------------------------

    def __add__(self, other: Scalar) -> "Surd":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Surd(self.a + o.a, self.b + o.b, self.d or o.d)

    __radd__ = __add__

    def __sub__(self, other: Scalar) -> "Surd":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Surd(self.a - o.a, self.b - o.b, self.d or o.d)

    def __rsub__(self, other: Scalar) -> "Surd":
        return (-self) + other

    def __neg__(self) -> "Surd":
        return Surd(-self.a, -self.b, self.d)

    def __mul__(self, other: Scalar) -> "Surd":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d = self.d or o.d
        return Surd(self.a * o.a + self.b * o.b * d, self.a * o.b + self.b * o.a, d)

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar) -> "Surd":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.b == 0:
            return Surd(self.a / o.a, self.b / o.a, self.d)
        norm = o.a * o.a - o.b * o.b * o.d
        return self * Surd(o.a / norm, -o.b / norm, o.d)

    def __rtruediv__(self, other: Scalar) -> "Surd":
        return Surd(other) / self

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
        if isinstance(other, float):
            return float(self) == other
        if not isinstance(other, (int, Fraction, Surd)):
            return NotImplemented
        o = self._coerce(other)
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

    def __lt__(self, other: Scalar) -> bool:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return (self - o).sign() < 0

    def __le__(self, other: Scalar) -> bool:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return (self - o).sign() <= 0

    def __gt__(self, other: Scalar) -> bool:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return (self - o).sign() > 0

    def __ge__(self, other: Scalar) -> bool:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return (self - o).sign() >= 0

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

    @property
    def rational_part(self) -> Fraction:
        return self.a

    def conjugate(self) -> "Surd":
        return Surd(self.a, -self.b, self.d)

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


_HALF = Fraction(1, 2)

# cos(2*pi*k/N) for one full cycle, for every N whose cosines live in a single
# quadratic field.  Index k runs 0..N-1.
_COS_CYCLES: dict[int, tuple] = {
    1: (Fraction(1),),
    2: (Fraction(1), Fraction(-1)),
    3: (Fraction(1), -_HALF, -_HALF),
    4: (Fraction(1), Fraction(0), Fraction(-1), Fraction(0)),
    6: (Fraction(1), _HALF, -_HALF, Fraction(-1), -_HALF, _HALF),
    8: (
        Fraction(1),
        Surd(0, _HALF, 2),
        Fraction(0),
        Surd(0, -_HALF, 2),
        Fraction(-1),
        Surd(0, -_HALF, 2),
        Fraction(0),
        Surd(0, _HALF, 2),
    ),
    12: (
        Fraction(1),
        Surd(0, _HALF, 3),
        _HALF,
        Fraction(0),
        -_HALF,
        Surd(0, -_HALF, 3),
        Fraction(-1),
        Surd(0, -_HALF, 3),
        -_HALF,
        Fraction(0),
        _HALF,
        Surd(0, _HALF, 3),
    ),
}


def exact_cos_cycle(n: int) -> tuple | None:
    """Exact values cos(2*pi*k/n), k = 0..n-1, when representable; else None."""
    return _COS_CYCLES.get(n)


def exact_cos_sq_cycle(n: int) -> tuple | None:
    """Exact cos^2(2*pi*k/n), k = 0..n-1.

    Available for every n with an exact cosine cycle and additionally for
    n = 24, where the half-angle identity cos^2 t = (1 + cos 2t)/2 pulls the
    squares down into the field of the n = 12 cycle.
    """
    cycle = _COS_CYCLES.get(n)
    if cycle is not None:
        return tuple(c * c for c in cycle)
    if n % 2 == 0 and (_COS_CYCLES.get(n // 2)) is not None:
        half = _COS_CYCLES[n // 2]
        return tuple((half[k % (n // 2)] + 1) * _HALF for k in range(n))
    return None

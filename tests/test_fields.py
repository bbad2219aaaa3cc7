import math
import random
from fractions import Fraction

import pytest

from cyclicavg.errors import DomainError, InexactSqrtError
from cyclicavg.fields import (
    GOLDEN_RATIO,
    Surd,
    exact_cos_cycle,
    exact_cos_sq_cycle,
    exact_sqrt,
    rel_close,
    sqrt_scalar,
)


def test_rational_arithmetic_stays_reduced():
    rng = random.Random(11)
    for _ in range(200):
        a = Fraction(rng.randint(-40, 40), rng.randint(1, 40))
        b = Fraction(rng.randint(-40, 40), rng.randint(1, 40))
        s = a + b
        assert math.gcd(s.numerator, s.denominator) == 1
        assert s - b == a


def test_exact_sqrt():
    assert exact_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert exact_sqrt(Fraction(0)) == 0
    assert exact_sqrt(Fraction(2)) is None
    assert exact_sqrt(Fraction(-1)) is None
    assert sqrt_scalar(Fraction(49, 121)) == Fraction(7, 11)
    with pytest.raises(InexactSqrtError):
        sqrt_scalar(Fraction(3))
    assert sqrt_scalar(2.0) == math.sqrt(2.0)


class TestSurd:
    def test_basic_arithmetic(self):
        x = Surd(1, 2, 5)  # 1 + 2*sqrt(5)
        y = Surd(3, -1, 5)
        assert x + y == Surd(4, 1, 5)
        assert x - y == Surd(-2, 3, 5)
        assert x * y == Surd(3 - 10, 6 - 1, 5)
        assert (x * y) / y == x
        assert x * 2 == Surd(2, 4, 5)
        assert 1 + x == Surd(2, 2, 5)
        assert (x ** 3) == x * x * x
        assert x ** 0 == 1 and x ** 1 == x and x ** 4 == x * x * x * x

    def test_rational_collapse_and_mixing(self):
        z = Surd(1, 1, 5) - Surd(0, 1, 5)
        assert z.is_rational and z == 1
        # a rational-valued Surd combines with any radicand
        assert z + Surd(0, 1, 3) == Surd(1, 1, 3)
        with pytest.raises(ValueError) as exc:
            Surd(0, 1, 5) + Surd(0, 1, 3)
        assert isinstance(exc.value, DomainError)

    def test_ordering_is_exact(self):
        assert Surd(0, 1, 5) > 2              # sqrt5 > 2
        assert Surd(0, 1, 5) < Fraction(9, 4)
        assert Surd(7, -3, 5) > 0             # 49 > 45
        assert Surd(-7, 3, 5) < 0
        assert (Surd(2, -1, 3)).sign() == 1   # 2 > sqrt3
        assert (Surd(1, -1, 3)).sign() == -1  # 1 < sqrt3

    def test_float_conversion(self):
        assert math.isclose(float(GOLDEN_RATIO), (1 + math.sqrt(5)) / 2)

    def test_sqrt_in_field(self):
        phi = GOLDEN_RATIO
        sq = phi * phi
        back = sq.sqrt()
        assert back is not None and back * back == sq
        assert Surd(4).sqrt() == 2
        assert Surd(0, 2, 5).sqrt() is None or Surd(0, 2, 5).sqrt() ** 2 == Surd(0, 2, 5)

    def test_golden_identities(self):
        phi = GOLDEN_RATIO
        assert phi * phi == phi + 1
        assert 1 + phi ** 4 == 3 * phi * phi
        assert phi * phi == (1 + phi * phi) ** 2 / 5
        assert 1 / (phi * phi) + phi * phi == 3


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8, 12])
def test_cos_cycles_match_float(n):
    cycle = exact_cos_cycle(n)
    assert cycle is not None and len(cycle) == n
    for k, value in enumerate(cycle):
        assert abs(float(value) - math.cos(2 * math.pi * k / n)) < 1e-15


def test_cos_sq_cycle_24():
    cycle = exact_cos_sq_cycle(24)
    assert cycle is not None and len(cycle) == 24
    for k, value in enumerate(cycle):
        assert abs(float(value) - math.cos(2 * math.pi * k / 24) ** 2) < 1e-15
    assert exact_cos_cycle(24) is None  # the plain cosines need a deeper field


def test_rel_close():
    assert rel_close(1.0, 1.0 + 1e-12)
    assert not rel_close(1.0, 1.01)

import cmath
import math
import random
from fractions import Fraction

import pytest

from cyclicavg.errors import InexactSqrtError
from cyclicavg.fields import (
    GOLDEN_RATIO,
    Surd,
    exact_sqrt,
    sqrt_scalar,
)
from cyclicavg.intpoly import cyclotomic, divmod_monic, poly_mul


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
        x = Surd(1, 2)  # 1 + 2*sqrt(5)
        y = Surd(3, -1)
        assert x + y == Surd(4, 1)
        assert x - y == Surd(-2, 3)
        assert x * y == Surd(3 - 10, 6 - 1)
        assert (x * y) / y == x
        assert x * 2 == Surd(2, 4)
        assert 1 + x == Surd(2, 2)
        assert (x ** 3) == x * x * x
        assert x ** 0 == 1 and x ** 1 == x and x ** 4 == x * x * x * x

    def test_rational_collapse(self):
        z = Surd(1, 1) - Surd(0, 1)
        assert z.is_rational and z == 1
        assert hash(z) == hash(1)
        assert z + Surd(0, 1) == Surd(1, 1)

    def test_ordering_is_exact(self):
        assert Surd(0, 1) > 2           # sqrt5 > 2
        assert Surd(0, 1) < Fraction(9, 4)
        assert Surd(7, -3) > 0          # 49 > 45
        assert Surd(-7, 3) < 0
        assert Surd(3, -1).sign() == 1  # 3 > sqrt5
        assert Surd(2, -1).sign() == -1  # 2 < sqrt5

    def test_float_conversion(self):
        assert math.isclose(float(GOLDEN_RATIO), (1 + math.sqrt(5)) / 2)

    def test_float_operand_gives_float(self):
        phi = float(GOLDEN_RATIO)
        for value, expected in ((GOLDEN_RATIO + 0.5, phi + 0.5),
                                (0.5 - GOLDEN_RATIO, 0.5 - phi),
                                (3.0 * GOLDEN_RATIO, 3.0 * phi),
                                (1.5 / GOLDEN_RATIO, 1.5 / phi)):
            assert type(value) is float and value == expected
        # the float is not silently made exact
        assert 0.1 / Surd(1) == 0.1 and type(0.1 / Surd(1)) is float
        assert GOLDEN_RATIO < 1.7 and 1.6 < GOLDEN_RATIO

    def test_sqrt_in_field(self):
        phi = GOLDEN_RATIO
        sq = phi * phi
        back = sq.sqrt()
        assert back is not None and back * back == sq
        assert Surd(4).sqrt() == 2
        assert Surd(0, 2).sqrt() is None
        # a rational root in the field may be a rational multiple of sqrt5
        assert Surd(5).sqrt() == Surd(0, 1)
        assert Surd(Fraction(45, 4)).sqrt() == Surd(0, Fraction(3, 2))
        assert Surd(3).sqrt() is None and Surd(-5).sqrt() is None
        assert sqrt_scalar(Surd(20)) == Surd(0, 2)
        with pytest.raises(InexactSqrtError):
            sqrt_scalar(Surd(2))

    def test_golden_identities(self):
        phi = GOLDEN_RATIO
        assert phi * phi == phi + 1
        assert 1 + phi ** 4 == 3 * phi * phi
        assert phi * phi == (1 + phi * phi) ** 2 / 5
        assert 1 / (phi * phi) + phi * phi == 3


# The exact cosine cycles are elements of Z[x]/Phi_N, x = zeta_N:
# 2 cos(2*pi*k/N) = x^k + x^-k, reduced by the cyclotomic polynomial.
CYCLES = (1, 2, 3, 4, 5, 6, 7, 8, 12, 16, 24)


def _two_cos(N, k):
    x_k = [0] * N
    x_k[k % N] += 1
    x_k[-k % N] += 1
    return divmod_monic(x_k, cyclotomic(N).coeffs)[1]


def _square(v, N):
    return divmod_monic(poly_mul(v, v), cyclotomic(N).coeffs)[1]


def _at_zeta(v, N):
    zeta = cmath.exp(2j * math.pi / N)
    return sum(c * zeta ** j for j, c in enumerate(v))


@pytest.mark.parametrize("n", CYCLES)
def test_cos_cycles_match_float(n):
    for k in range(n):
        value = _at_zeta(_two_cos(n, k), n)
        assert abs(value - 2 * math.cos(2 * math.pi * k / n)) < 1e-12


def test_cos_sq_cycle_24():
    for k in range(24):
        four_cos_sq = _square(_two_cos(24, k), 24)
        assert abs(_at_zeta(four_cos_sq, 24) / 4 - math.cos(2 * math.pi * k / 24) ** 2) < 1e-12
    # the 24-cycle's own cosines need the whole ring, not a quadratic field
    assert any(_two_cos(24, 1)[1:]) and any(_two_cos(24, 2)[1:])


@pytest.mark.parametrize("n", CYCLES)
def test_derived_cycles_obey_double_angle(n):
    two = [2] + [0] * (len(cyclotomic(n).coeffs) - 2)
    for k in range(n):
        # (2 cos t)^2 - 2 = 2 cos 2t, exactly in the ring
        square = _square(_two_cos(n, k), n)
        assert [s - t for s, t in zip(square, two)] == _two_cos(n, 2 * k)

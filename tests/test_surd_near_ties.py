"""Exact Surd signs where the float value is no help, and a float value
that stays accurate there."""

import decimal
import math
import random
from fractions import Fraction

import pytest

from cyclicavg.fields import GOLDEN_RATIO, Surd


def _lucas_fibonacci(k_max):
    """(k, L_k, F_k) for k = 1..k_max."""
    lucas, fib = 1, 1
    for k in range(1, k_max + 1):
        yield k, lucas, fib
        lucas, fib = (lucas + 5 * fib) // 2, (lucas + fib) // 2


def test_sign_at_near_ties():
    # L_k - F_k sqrt(5) = 2 psi^k with psi = -1/phi: its norm is 4 (-1)^k,
    # and its float loses the sign from k = 40 on
    for k, lucas, fib in _lucas_fibonacci(200):
        assert lucas * lucas - 5 * fib * fib == 4 * (-1) ** k
        assert Surd(lucas, -fib).sign() == (-1) ** k
        assert (Surd(lucas) > Surd(0, fib)) == (k % 2 == 0)
    # operands other than int, Fraction, float and Surd are refused
    for op in (lambda: Surd(1) + "x", lambda: Surd(1) * 1j, lambda: Surd(1) < None):
        with pytest.raises(TypeError):
            op()
    assert (Surd(1) == "x") is False


def test_float_at_near_ties():
    # where u and w sqrt(5) cancel, the float is read off the conjugate:
    # float(+-(L_k - F_k sqrt 5)) stays within 2 ulps of +-2 psi^k
    with decimal.localcontext() as ctx:
        ctx.prec = 120
        psi = (1 - decimal.Decimal(5).sqrt()) / 2
        refs = [float(2 * psi ** k) for k in range(1, 201)]
    for (k, lucas, fib), ref in zip(_lucas_fibonacci(200), refs):
        for sign in (1, -1):
            assert abs(float(Surd(sign * lucas, -sign * fib)) - sign * ref) <= 2 * math.ulp(ref)
    assert float(1 / GOLDEN_RATIO) == 0.6180339887498948
    # a norm past the float range falls back to the sum of the two terms
    assert float(Surd(10 ** 200, -10 ** 200)) == 1e200 + -1e200 * math.sqrt(5)


def test_float_of_same_signs_keeps_its_bits():
    # a and b of one sign (every c * phi of the vertex tables) keep the
    # float a + float b * sqrt(5) of the pair form
    rng = random.Random(5)
    values = [c * GOLDEN_RATIO for c in (1, Fraction(1, 3), Fraction(-7, 5), Fraction(10 ** 20 + 1, 3))]
    values += [Surd(Fraction(rng.randint(0, 10 ** 9), rng.randint(1, 10 ** 9)),
                    Fraction(rng.randint(0, 10 ** 9), rng.randint(1, 10 ** 9))) for _ in range(500)]
    for x in values:
        assert float(x) == float(x.a) + float(x.b) * math.sqrt(5)
        assert float(-x) == -float(x)

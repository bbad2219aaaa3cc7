"""Exact Surd signs where the float value is no help."""

import pytest

from cyclicavg.fields import Surd


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

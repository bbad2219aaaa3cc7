"""Hypothesis properties of Surd: the field axioms of Q(sqrt 5), powers,
the exact sign and the nonnegative exact square root."""

import functools
import operator
from fractions import Fraction

import pytest

from cyclicavg.fields import Surd

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
SETTINGS = hypothesis.settings(max_examples=100, deadline=None, derandomize=True,
                               database=None)
rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=1000)
surds = st.builds(Surd, rationals, rationals)
# elements of either kind, so the rational coercion is exercised too
scalars = st.one_of(surds, rationals, st.integers(-50, 50))


@SETTINGS
@hypothesis.given(surds, scalars)
def test_commutative(x, y):
    assert x + y == y + x
    assert x * y == y * x


@SETTINGS
@hypothesis.given(surds, scalars, scalars)
def test_associative_and_distributive(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert (y + z) * x == y * x + z * x


@SETTINGS
@hypothesis.given(surds)
def test_inverse(x):
    hypothesis.assume(x != 0)
    assert x * (1 / x) == 1
    assert x / x == 1
    assert x - x == 0 and x + (-x) == 0


@SETTINGS
@hypothesis.given(surds, st.integers(0, 12))
def test_power_is_repeated_multiplication(x, k):
    assert x ** k == functools.reduce(operator.mul, [x] * k, Surd(1))


@SETTINGS
@hypothesis.given(surds)
def test_sign_agrees_with_float(x):
    f = float(x)
    hypothesis.assume(abs(f) > 1e-9)
    assert x.sign() == (1 if f > 0 else -1)
    assert (x > 0) == (f > 0) and (x < 0) == (f < 0)


@SETTINGS
@hypothesis.given(surds)
def test_sqrt_of_a_square(x):
    root = (x * x).sqrt()
    assert root is not None
    assert root == x or root == -x
    assert root >= 0


def test_sqrt_of_a_square_examples():
    # the rational squares of q*sqrt(5) need the second branch of sqrt
    for x in (Surd(0, 1), Surd(0, Fraction(-3, 7)), Surd(0), Surd(1, -1)):
        root = (x * x).sqrt()
        assert (root == x or root == -x) and root >= 0

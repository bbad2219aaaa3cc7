"""Hypothesis properties of Surd: the field axioms of Q(sqrt 5), powers,
the exact sign and the nonnegative exact square root, and every operation
against a reference model on the pair (a, b) of Fractions."""

import decimal
import functools
import math
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


# -- reference model: a Surd against the pair (a, b) of Fractions ------------

def _model_mul(x, y):
    (a, b), (c, d) = x, y
    return a * c + 5 * b * d, a * d + b * c


def _model_sign(x):
    """Sign of a + b sqrt 5 from 100 decimal digits, which resolve every
    nonzero value of the strategies' size."""
    with decimal.localcontext() as ctx:
        ctx.prec = 100
        a, b = x
        v = (decimal.Decimal(a.numerator) / a.denominator
             + decimal.Decimal(b.numerator) / b.denominator * decimal.Decimal(5).sqrt())
    return (v > 0) - (v < 0)


def _pair(x):
    return (x.a, x.b) if isinstance(x, Surd) else (Fraction(x), Fraction(0))


def _agrees(value, model):
    """value is the Surd of the model pair, held as a reduced triple."""
    u, w, q = value._u, value._w, value._q
    assert q > 0 and math.gcd(u, w, q) == 1
    assert (value.a, value.b) == model
    assert value == Surd(*model)


@SETTINGS
@hypothesis.given(surds, scalars)
def test_ring_operations_match_the_pair_model(x, y):
    (a, b), (c, d) = _pair(x), _pair(y)
    _agrees(x + y, (a + c, b + d))
    _agrees(y + x, (a + c, b + d))
    _agrees(x - y, (a - c, b - d))
    _agrees(y - x, (c - a, d - b))
    _agrees(x * y, _model_mul((a, b), (c, d)))
    _agrees(y * x, _model_mul((a, b), (c, d)))
    _agrees(-x, (-a, -b))
    norm = c * c - 5 * d * d
    if norm:
        _agrees(x / y, _model_mul((a, b), (c / norm, -d / norm)))
    else:
        for op in (lambda: x / y, lambda: 1 / Surd(*_pair(y))):
            with pytest.raises(ZeroDivisionError):
                op()


@SETTINGS
@hypothesis.given(surds, st.integers(0, 12))
def test_powers_match_the_pair_model(x, k):
    model = (Fraction(1), Fraction(0))
    for _ in range(k):
        model = _model_mul(model, _pair(x))
    _agrees(x ** k, model)


@SETTINGS
@hypothesis.given(surds, scalars)
def test_order_equality_and_hash_match_the_pair_model(x, y):
    (a, b), (c, d) = _pair(x), _pair(y)
    diff = _model_sign((a - c, b - d))
    assert (x < y, x <= y, x > y, x >= y) == (diff < 0, diff <= 0, diff > 0, diff >= 0)
    assert (x == y) == ((a, b) == (c, d)) == (y == x)
    assert x.sign() == _model_sign((a, b))
    assert hash(x) == (hash(a) if b == 0 else hash((a, b)))
    if x == y:
        assert hash(x) == hash(y)


@SETTINGS
@hypothesis.given(surds)
def test_sqrt_matches_the_pair_model(x):
    root = x.sqrt()
    if root is None:
        return
    assert root.sign() >= 0
    _agrees(root * root, _pair(x))


def test_division_by_zero():
    for zero in (0, Fraction(0), Surd(0), Surd(Fraction(0), 0)):
        for x in (Surd(1, 1), Surd(0), Surd(Fraction(2, 3))):
            with pytest.raises(ZeroDivisionError):
                x / zero
    for x in (2, Fraction(1, 2)):
        with pytest.raises(ZeroDivisionError):
            x / Surd(0)

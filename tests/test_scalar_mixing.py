"""The float mixing rule: a float operand makes the result float, computed as
the same operation on float(x), for Fraction and Surd alike."""

import operator
import struct
from fractions import Fraction

import pytest

from cyclicavg.fields import Surd

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
SETTINGS = hypothesis.settings(max_examples=300, deadline=None, derandomize=True,
                               database=None)
rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=1000)
surds = st.builds(Surd, rationals, rationals)
floats = st.floats(allow_nan=False)
ARITHMETIC = (operator.add, operator.sub, operator.mul, operator.truediv)
COMPARISONS = (operator.eq, operator.ne, operator.lt, operator.le, operator.gt,
               operator.ge)


def _outcome(compute):
    """(type, bits) of a float result, or the exception type it raised."""
    try:
        value = compute()
    except ArithmeticError as exc:
        return type(exc)
    return type(value), struct.pack("<d", value)


@SETTINGS
@hypothesis.given(surds, floats)
def test_surd_with_float_is_the_float_operation(s, x):
    f = float(s)
    for op in ARITHMETIC:
        assert _outcome(lambda: op(s, x)) == _outcome(lambda: op(f, x))
        assert _outcome(lambda: op(x, s)) == _outcome(lambda: op(x, f))
    for op in COMPARISONS:
        assert op(s, x) == op(f, x)
        assert op(x, s) == op(x, f)


@SETTINGS
@hypothesis.given(st.integers(-10**6, 10**6), st.integers(1, 10**6), floats)
def test_fraction_constant_times_float_is_the_float_literal(p, q, x):
    # why exact constants may replace float literals in the float backend
    assert _outcome(lambda: Fraction(p, q) * x) == _outcome(lambda: (p / q) * x)
    assert _outcome(lambda: x * Fraction(p, q)) == _outcome(lambda: x * (p / q))

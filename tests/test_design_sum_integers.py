"""Hypothesis property: on rational inputs the design sum, evaluated as one
integer sum over one denominator, equals the term-by-term sum in value and
in type."""

from fractions import Fraction

import pytest

from cyclicavg.polygon import _design_sum, design_coefficients


hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
SETTINGS = hypothesis.settings(max_examples=200, deadline=None, derandomize=True,
                               database=None)
# ints and Fractions alike, a Fraction with denominator 1 included
rationals = st.one_of(st.integers(-50, 50),
                      st.fractions(min_value=-50, max_value=50, max_denominator=60))
nonnegative = st.one_of(st.integers(0, 50),
                        st.fractions(min_value=0, max_value=50, max_denominator=60))


def _term_by_term(m, dim, a, rl):
    """The reference: A^m + sum_k c_k (R^2 L^2)^k A^(m-2k), one term at a time."""
    total = a ** m
    for k, c in enumerate(design_coefficients(m, dim), 1):
        total += c * rl ** k * a ** (m - 2 * k)
    return total


@SETTINGS
@hypothesis.given(st.integers(1, 30), st.sampled_from([2, 3]), rationals, nonnegative)
def test_integer_sum_equals_the_term_by_term_sum(m, dim, a, rl):
    got, want = _design_sum(m, dim, a, rl), _term_by_term(m, dim, a, rl)
    assert got == want
    assert type(got) is type(want)


def test_types_at_the_edges():
    for m in range(1, 31):
        # dim 2 coefficients are integers, so int inputs give an int
        assert type(_design_sum(m, 2, 7, 3)) is int
        assert type(_design_sum(m, 2, 7, 0)) is int
        for a, rl in ((Fraction(7), 3), (7, Fraction(3)), (Fraction(7, 2), 0)):
            assert type(_design_sum(m, 2, a, rl)) is type(_term_by_term(m, 2, a, rl))
        assert type(_design_sum(m, 3, 7, 3)) is type(_term_by_term(m, 3, 7, 3))
    # m = 1 has no terms: the sum is a itself, whatever rl is
    assert type(_design_sum(1, 3, 5, Fraction(1, 3))) is int

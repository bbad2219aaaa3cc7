"""Hypothesis properties of the integer divisor search: intpoly._interpolate
and kronecker_small_factor against a Fraction Lagrange reference."""

import itertools
import math
from fractions import Fraction

import pytest

from cyclicavg import intpoly
from cyclicavg.errors import NoCertificateFoundError
from cyclicavg.intpoly import (IntegerPolynomial, _interpolate, _signed_divisors, divides,
                               kronecker_small_factor, poly_mul)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
SETTINGS = hypothesis.settings(max_examples=200, deadline=None, derandomize=True,
                               database=None)
NODES = (0, 1, -1, 2, -2, 3, -3)  # the search's sample points, in its order


def lagrange(xs, ys):
    """Integer coefficients of the interpolant by the Fraction Lagrange basis, or None."""
    coeffs = [Fraction(0)] * len(xs)
    for i, xi in enumerate(xs):
        basis, den = [1], 1
        for j, xj in enumerate(xs):
            if j != i:
                basis = poly_mul(basis, [-xj, 1])
                den *= xi - xj
        for k, b in enumerate(basis):
            coeffs[k] += Fraction(ys[i] * b, den)
    if any(c.denominator != 1 for c in coeffs):
        return None
    return [int(c) for c in coeffs]


def reference_search(p, max_degree):
    """The divisor search written over the Lagrange reference."""
    max_degree = min(max_degree, p.degree - 1)
    if max_degree < 1:
        return None
    samples = []
    for x in NODES[:max_degree + 1]:
        if p(x) == 0:
            return IntegerPolynomial((-x, 1))
        samples.append((x, p(x)))
    for deg in range(1, max_degree + 1):
        pts = samples[:deg + 1]
        divisor_lists = [_signed_divisors(v) for _, v in pts]
        if math.prod(len(dl) for dl in divisor_lists) > intpoly.SEARCH_BUDGET:
            raise NoCertificateFoundError("over budget")
        for values in itertools.product(*divisor_lists):
            coeffs = lagrange([x for x, _ in pts], values)
            if coeffs is None or coeffs[-1] == 0:
                continue
            cand = IntegerPolynomial(tuple(coeffs))
            if divides(cand, p):
                return cand
    return None


def polynomials(max_degree, bound):
    """Coefficient lists, ascending, with a nonzero leading coefficient."""
    return st.integers(0, max_degree).flatmap(lambda d: st.tuples(
        st.lists(st.integers(-bound, bound), min_size=d, max_size=d),
        st.integers(1, bound), st.sampled_from((1, -1)),
    ).map(lambda t: t[0] + [t[1] * t[2]]))


@SETTINGS
@hypothesis.given(polynomials(6, 1000), st.integers(0, 3))
def test_integer_polynomials_come_back(coeffs, extra):
    xs = NODES[:len(coeffs) + extra]  # more nodes than the degree needs pad with zeros
    ys = [IntegerPolynomial(tuple(coeffs))(x) for x in xs]
    out = _interpolate(xs, ys)
    assert out == lagrange(xs, ys)
    assert out == coeffs + [0] * (len(xs) - len(coeffs))


@SETTINGS
@hypothesis.given(polynomials(6, 1000), st.data())
def test_perturbed_values_match_the_reference(coeffs, data):
    xs = NODES[:len(coeffs)]
    ys = [IntegerPolynomial(tuple(coeffs))(x) for x in xs]
    i = data.draw(st.integers(0, len(ys) - 1))
    ys[i] += data.draw(st.integers(-30, 30))
    assert _interpolate(xs, ys) == lagrange(xs, ys)  # the same coefficients, or both None


# factors with no root among the nodes, so that the search runs past its samples
FACTORS = polynomials(3, 4).filter(lambda c: all(IntegerPolynomial(tuple(c))(x) for x in NODES))


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.lists(FACTORS, min_size=2, max_size=3), st.integers(1, 4))
def test_search_returns_the_reference_factor(factors, max_degree):
    coeffs = [1]
    for f in factors:
        coeffs = poly_mul(coeffs, f)
    p = IntegerPolynomial(tuple(coeffs))
    hypothesis.assume(p.degree >= 2)
    budget = intpoly.SEARCH_BUDGET
    intpoly.SEARCH_BUDGET = 3000  # keeps the Fraction reference fast
    try:
        outcomes = []
        for search in (kronecker_small_factor, reference_search):
            try:
                outcomes.append(search(p, max_degree))
            except NoCertificateFoundError:
                outcomes.append("over budget")
    finally:
        intpoly.SEARCH_BUDGET = budget
    assert outcomes[0] == outcomes[1]

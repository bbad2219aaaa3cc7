import math
from fractions import Fraction

import pytest

from cyclicavg.errors import OutOfRangeError
from cyclicavg.intpoly import (
    IntegerPolynomial,
    certify_no_small_factor,
    cyclotomic,
    divides,
    divmod_monic,
    factor_degrees_mod,
    is_squarefree,
    kronecker_small_factor,
    poly_mul,
    rational_roots,
    subset_sums,
)

X2_MINUS_2 = IntegerPolynomial((-2, 0, 1))
X4_PLUS_1 = IntegerPolynomial((1, 0, 0, 0, 1))
OCTIC = IntegerPolynomial((1, 0, -64, 0, 320, 0, -512, 0, 256))


class TestIntegerPolynomial:
    def test_trim_and_degree(self):
        p = IntegerPolynomial((1, 2, 0, 0))
        assert p.coeffs == (1, 2)
        assert p.degree == 1
        assert IntegerPolynomial((0, 0)).is_zero()

    def test_evaluation(self):
        p = IntegerPolynomial((1, -3, 2))  # 2x^2 - 3x + 1
        assert p(2) == 3
        assert p(Fraction(1, 2)) == 0
        assert p(2.0) == pytest.approx(3.0)

    def test_derivative_and_str(self):
        p = IntegerPolynomial((5, 0, 3))
        assert p.derivative().coeffs == (0, 6)
        assert str(p) == "3*x^2 + 5"


def test_poly_mul():
    assert poly_mul([1, 1], [1, 1]) == [1, 2, 1]
    assert poly_mul([-2, 0, 1], [-3, 0, 1]) == [6, 0, -5, 0, 1]


def test_divides():
    product = IntegerPolynomial(tuple(poly_mul([-2, 0, 1], [-3, 0, 1])))
    assert divides(X2_MINUS_2, product)
    assert not divides(IntegerPolynomial((-1, 0, 1)), product)
    # non-monic: 3x - 1 divides (2x + 1)(3x - 1) over the rationals
    non_monic = IntegerPolynomial(tuple(poly_mul([1, 2], [-1, 3])))
    assert divides(IntegerPolynomial((-1, 3)), non_monic)
    assert not divides(IntegerPolynomial((1, 3)), non_monic)


def test_divides_edge_cases():
    assert divides(IntegerPolynomial((3,)), OCTIC)           # nonzero constants divide
    assert not divides(IntegerPolynomial((0,)), OCTIC)       # zero divides nothing
    assert not divides(OCTIC, X2_MINUS_2)                    # degree guard
    assert divides(IntegerPolynomial((-1, 2)), IntegerPolynomial((1, -3, 2)))  # 2x - 1


def test_divmod_monic():
    a, b = [5, 0, 3, 1], [1, 0, 1]
    quo, rem = divmod_monic(a, b)
    assert len(rem) == 2
    assert [x + y for x, y in zip(poly_mul(quo, b), rem + [0, 0])] == a
    assert divmod_monic([7], [2, 0, 1]) == ([0], [7, 0])
    # over Q: Fraction coefficients, a = q*b + r exactly
    a, b = [Fraction(1, 2), 3, Fraction(-2, 3), 5, 1], [Fraction(1, 3), Fraction(-3, 2), 1]
    quo, rem = divmod_monic(a, b)
    assert len(rem) == 2 and any(rem)
    assert [x + y for x, y in zip(poly_mul(quo, b), rem + [0, 0, 0])] == a


def _totient(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


@pytest.mark.parametrize("n", range(1, 41))
def test_cyclotomic_products_give_x_n_minus_1(n):
    assert cyclotomic(n).degree == _totient(n)
    assert cyclotomic(n).leading == 1
    product = [1]
    for d in range(1, n + 1):
        if n % d == 0:
            product = poly_mul(product, cyclotomic(d).coeffs)
    assert product == [-1] + [0] * (n - 1) + [1]


def test_cyclotomic_order_must_be_positive():
    with pytest.raises(OutOfRangeError):
        cyclotomic(0)


def test_rational_roots():
    p = IntegerPolynomial((-1, 0, 1))  # x^2 - 1
    assert rational_roots(p) == [-1, 1]
    q = IntegerPolynomial((1, -3, 2))  # (2x - 1)(x - 1)
    assert rational_roots(q) == [Fraction(1, 2), 1]
    assert rational_roots(OCTIC) == []
    assert rational_roots(IntegerPolynomial((0, 0, 1))) == [0]


def test_is_squarefree():
    assert is_squarefree(X2_MINUS_2)
    assert is_squarefree(IntegerPolynomial((-1, 0, 1)))
    assert not is_squarefree(IntegerPolynomial((1, 2, 1)))  # (x + 1)^2
    two_x_plus_1 = [1, 2]
    squared = poly_mul(poly_mul(two_x_plus_1, two_x_plus_1), [-3, 1])
    assert not is_squarefree(IntegerPolynomial(tuple(squared)))  # (2x + 1)^2 (x - 3)
    assert is_squarefree(IntegerPolynomial(tuple(poly_mul(two_x_plus_1, [-1, 3]))))


class TestFactorDegreesMod:
    def test_x2_minus_2(self):
        assert factor_degrees_mod(X2_MINUS_2, 3) == [2]   # 2 not a square mod 3
        assert factor_degrees_mod(X2_MINUS_2, 7) == [1, 1]  # 3^2 = 2 mod 7

    def test_unusable_primes_are_skipped(self):
        assert factor_degrees_mod(IntegerPolynomial((1, 0, 2)), 2) is None
        assert factor_degrees_mod(IntegerPolynomial((1, 2, 1)), 5) is None

    def test_octic_patterns(self):
        assert factor_degrees_mod(OCTIC, 5) == [4, 4]
        assert factor_degrees_mod(OCTIC, 7) == [2, 2, 2, 2]
        assert factor_degrees_mod(OCTIC, 47) == [1] * 8

    def test_degree_sum_is_preserved(self):
        for q in (3, 5, 11, 13, 101):
            degrees = factor_degrees_mod(OCTIC, q)
            if degrees is not None:
                assert sum(degrees) == 8


def test_subset_sums():
    assert subset_sums([4, 4]) == {0, 4, 8}
    assert subset_sums([2, 2, 2, 2]) == {0, 2, 4, 6, 8}
    assert subset_sums([1, 2]) == {0, 1, 2, 3}


class TestKronecker:
    def test_finds_quadratic_factor(self):
        product = IntegerPolynomial(tuple(poly_mul([-2, 0, 1], [-3, 0, 1])))
        factor = kronecker_small_factor(product, 4)
        assert factor is not None
        assert divides(factor, product)
        assert 1 <= factor.degree <= 4

    def test_finds_linear_factor(self):
        p = IntegerPolynomial(tuple(poly_mul([-1, 1], [1, 1, 3])))
        factor = kronecker_small_factor(p, 1)
        assert factor is not None and factor.degree == 1

    def test_none_for_irreducibles(self):
        assert kronecker_small_factor(X2_MINUS_2, 1) is None
        assert kronecker_small_factor(OCTIC, 4) is None
        assert kronecker_small_factor(X4_PLUS_1, 3) is None


class TestCertificate:
    def test_single_prime_route(self):
        cert = certify_no_small_factor(X2_MINUS_2, max_degree=4)
        assert cert.certified and cert.fully_irreducible
        assert cert.method == "single-prime"
        assert cert.certifying_prime == 3

    def test_reducible_is_never_certified(self):
        cert = certify_no_small_factor(IntegerPolynomial((-1, 0, 1)), max_degree=4)
        assert not cert.certified
        assert cert.small_factor is not None

    def test_x4_plus_1_needs_the_search_route(self):
        # reducible mod every prime, yet irreducible over the rationals
        cert = certify_no_small_factor(X4_PLUS_1, max_degree=3)
        assert cert.certified and cert.fully_irreducible
        assert cert.method == "divisor-search"
        assert cert.certifying_prime is None

    def test_octic_certificate(self):
        cert = certify_no_small_factor(OCTIC, max_degree=4)
        assert cert.certified and cert.fully_irreducible
        assert cert.method == "divisor-search"
        # the mod-p patterns alone cannot exclude a degree-4 factor
        assert 4 in cert.possible_degrees
        observed = {degrees for _, degrees in cert.prime_patterns}
        assert observed <= {(4, 4), (2, 2, 2, 2), (1,) * 8}

    def test_requires_squarefree_input(self):
        with pytest.raises(OutOfRangeError):
            certify_no_small_factor(IntegerPolynomial((1, 2, 1)))

    def test_never_falsely_certifies(self):
        # five reducible (each with a proper factor of degree <= 4) and five
        # irreducible polynomials with known status
        reducible = [
            tuple(poly_mul([-2, 0, 1], [-3, 0, 1])),       # (x^2-2)(x^2-3)
            tuple(poly_mul([-1, 1], [1, 1, 1])),           # (x-1)(x^2+x+1)
            tuple(poly_mul([1, 0, 1], [2, 0, 0, 1])),      # (x^2+1)(x^3+2)
            tuple(poly_mul([-3, 1], [1, 0, 0, 0, 1])),     # (x-3)(x^4+1)
            tuple(poly_mul([1, 1, 3], [-2, 0, 0, 1])),     # (x^2+x+3)(x^3-2)
        ]
        irreducible = [
            (-2, 0, 1),              # x^2 - 2
            (1, 0, 0, 0, 1),         # x^4 + 1
            (1, 1, 0, 0, 1),         # x^4 + x + 1
            (-1, -1, 0, 0, 0, 1),    # x^5 - x - 1
            OCTIC.coeffs,
        ]
        for coeffs in reducible:
            cert = certify_no_small_factor(IntegerPolynomial(coeffs), max_degree=4)
            assert not cert.certified
            assert cert.small_factor is not None
            assert divides(cert.small_factor, IntegerPolynomial(coeffs))
        for coeffs in irreducible:
            cert = certify_no_small_factor(IntegerPolynomial(coeffs), max_degree=4)
            assert cert.certified
            assert cert.fully_irreducible

"""The one-pass exact polygon oracle: every m in one pass, each sum exact,
marked irrational exactly where it is, and blind to the closed form."""

import itertools
import math
from fractions import Fraction

import pytest

from cyclicavg import polygon, verify
from cyclicavg.errors import OutOfRangeError
from cyclicavg.geometry import PlanePlacement, PolygonSpec
from cyclicavg.polygon import (
    _power_sums_exact,
    power_sum_brute,
    power_sum_brute_exact,
    power_sum_closed_sq,
)

R = Fraction(3, 2)
DISTANCES = (Fraction(0), R, Fraction(5, 7))


def _float_sum(n, m, L, N, offset):
    """sum d_i^(2m) in floats at alpha = offset * 2*pi/N."""
    alpha = offset * 2 * math.pi / N
    if n >= 3:
        return power_sum_brute(PolygonSpec(n, float(R)), m, PlanePlacement(float(L), alpha))
    a, b = float(R * R + L * L), float(2 * R * L)
    return math.fsum((a - b * math.cos(alpha - 2 * math.pi * i / n)) ** m
                     for i in range(n))


def _irrational(n, m, L, N, offset):
    """Whether sum (A - B cos theta_i)^m is irrational, for m < 2n or N/n <= 3.

    The sum over the n vertices keeps only the Fourier modes cos(k theta)
    with n | k.  For m < 2n that is the constant and k = n, whose coefficient
    is nonzero when B = 2RL > 0 (its binomial terms share one sign), so the
    sum is irrational iff m >= n, L > 0 and cos(2*pi*offset/M), M = N/n, is
    irrational: by Niven's theorem iff M / gcd(offset, M) is not 1, 2, 3, 4
    or 6.  For M <= 3 every cos(2*pi*q*offset/M) is rational, whatever m.
    """
    M = N // n
    return m >= n and L > 0 and M // math.gcd(offset, M) not in (1, 2, 3, 4, 6)


@pytest.mark.parametrize("n", range(1, 25))
def test_one_pass_equals_single_m_and_float_oracle(n):
    # single-m calls at every m would cost each case a dozen one-pass calls,
    # so they are compared at the ends of the range and around the boundary
    ms = range(1, n + 3)
    single = {1, n - 1, n, n + 2} - {0}
    for N, offset, L in itertools.product((n, 2 * n, 3 * n), range(3), DISTANCES):
        assert not any(_irrational(n, m, L, N, offset) for m in ms)
        sums = _power_sums_exact(n, ms, R, L, N, offset)
        assert len(sums) == len(ms)
        for m, value in zip(ms, sums):
            assert isinstance(value, Fraction)
            assert math.isclose(float(value), _float_sum(n, m, L, N, offset),
                                rel_tol=1e-12), (N, offset, L, m)
            if m in single:
                assert value == power_sum_brute_exact(n, m, R, L, N, offset)


@pytest.mark.parametrize("n", range(3, 13))
def test_refused_exactly_where_irrational(n):
    refused = 0
    for N, offset, L in itertools.product((n, 5 * n, 8 * n), range(3), DISTANCES):
        sums = _power_sums_exact(n, range(1, n + 3), R, L, N, offset)
        for m, value in zip(range(1, n + 3), sums):
            assert (value is None) == _irrational(n, m, L, N, offset)
            if value is None:
                with pytest.raises(OutOfRangeError, match=f"irrational for n={n}, m={m} "):
                    power_sum_brute_exact(n, m, R, L, N, offset)
                refused += 1
            else:
                assert value == power_sum_brute_exact(n, m, R, L, N, offset)
                assert math.isclose(float(value), _float_sum(n, m, L, N, offset),
                                    rel_tol=1e-12), (N, offset, L, m)
    assert refused == 3 * 2 * 3  # m = n..n+2, L = R and 5/7, (5n, 1), (5n, 2), (8n, 1)


def test_one_pass_marks_what_the_single_m_oracle_refuses():
    with pytest.raises(OutOfRangeError, match="power index m must be >= 1"):
        _power_sums_exact(5, range(0, 3), R, R, None, 0)
    with pytest.raises(OutOfRangeError, match="cycle 8 is not a positive multiple of n=3"):
        _power_sums_exact(3, (1,), R, R, 8, 0)
    # the 3-gon at alpha = pi/12: the m = 3 sum carries cos(pi/4)
    half = Fraction(1, 2)
    sums = _power_sums_exact(3, (1, 2, 3), Fraction(1), half, 24, 1)
    assert sums[:2] == [power_sum_brute_exact(3, m, Fraction(1), half, 24, 1) for m in (1, 2)]
    assert sums[2] is None
    with pytest.raises(OutOfRangeError, match="irrational for n=3, m=3 on cycle 24 at offset 1"):
        power_sum_brute_exact(3, 3, Fraction(1), half, 24, 1)
    assert _power_sums_exact(4, (3, 1, 3), R, R, None, 0) \
        == [power_sum_brute_exact(4, m, R, R) for m in (3, 1, 3)]


def test_oracle_never_reads_the_closed_form(monkeypatch):
    L = Fraction(5, 7)
    expected = [power_sum_closed_sq(9, m, R * R, L * L) for m in range(1, 9)]

    def refuse(*args):
        raise AssertionError("the exact oracle consulted the closed form")

    monkeypatch.setattr(polygon, "design_coefficients", refuse)
    monkeypatch.setattr(polygon, "_design_sum", refuse)
    assert _power_sums_exact(9, range(1, 9), R, L, 27, 2) == expected
    assert [power_sum_brute_exact(9, m, R, L) for m in range(1, 9)] == expected
    with pytest.raises(AssertionError):
        power_sum_closed_sq(9, 2, R * R, L * L)


@pytest.mark.parametrize("turn", [0, 1, 12])
def test_interpolation_sweep_fails_on_a_miscounted_vertex(monkeypatch, turn):
    # one turn's vertex weight off by one: a wrong rational sum at turns 0
    # and 12, an irrational one at turn 1; the sweep reports FAIL for each
    assert verify.sweep_exact_interpolation(0).passed
    vertex_turns = polygon._vertex_turns

    def one_extra_vertex(*args):
        N, two_a, b, scale, turns = vertex_turns(*args)
        return N, two_a, b, scale, turns + [turn]

    monkeypatch.setattr(polygon, "_vertex_turns", one_extra_vertex)
    row = verify.sweep_exact_interpolation(0)
    assert (row.checks, row.max_rel, row.passed) == (0, math.inf, False)

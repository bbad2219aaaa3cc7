"""The one-pass exact polygon oracle: every m in one pass, each sum exact,
marked irrational exactly where it is, and blind to the closed form."""

import cmath
import itertools
import math
from fractions import Fraction

import pytest

from cyclicavg import polygon, verify
from cyclicavg.errors import OutOfRangeError
from cyclicavg.geometry import PlanePlacement, PolygonSpec
from cyclicavg.intpoly import cyclotomic, divmod_monic
from cyclicavg.polygon import (
    _cosine_rows,
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


def _scatter_reference(ms, N, two_a, b, scale, turns):
    """The sums over the vertices that polygon._vertex_turns describes, by the
    plain route: each vertex's (2a - b (y + 1/y))^m scattered into
    Z[x]/(x^N - 1), the total divided by Phi_N per m."""
    sums = []
    for m in ms:
        p = [1]  # p[k] is the coefficient of y^(k - m)
        for _ in range(m):
            p = [two_a * x - b * (y + z)
                 for x, y, z in zip([0] + p + [0], p + [0, 0], [0, 0] + p)]
        total = [0] * N
        for e in turns:
            for k, coeff in enumerate(p):
                total[(k - m) * e % N] += coeff
        rem = divmod_monic(total, cyclotomic(N).coeffs)[1]
        sums.append(None if any(rem[1:]) else Fraction(rem[0], scale ** m))
    return sums


@pytest.mark.parametrize("n", range(1, 27))
def test_oracle_matches_the_scatter_reference(n):
    # every offset of cycles n, 2n, 3n and 5n, at the centre, on the circle
    # and off it; unordered and repeated m, m past N on the cycles n and 2n.
    # The reference sums over the vertices in any order, so it runs once per
    # turn multiset, and once per turn for the distances
    for N, L in itertools.product((n, 2 * n, 3 * n, 5 * n), (Fraction(0), R, Fraction(5, 7))):
        ms = (3, 1, 3, n + 1) + ((N, N + 1) if N <= 2 * n else ())
        sums, d_sq = {}, {}
        for offset in range(N):
            vertex = polygon._vertex_turns(n, R, L, N, offset)
            turns = vertex[-1]
            key = tuple(sorted(turns))
            if key not in sums:
                sums[key] = _scatter_reference(ms, *vertex)
            assert _power_sums_exact(n, ms, R, L, N, offset) == sums[key], (N, L, offset)
            for e in turns:
                if e not in d_sq:
                    d_sq[e] = _scatter_reference((1,), *vertex[:-1], [e])[0]
            if any(d_sq[e] is None for e in turns):
                with pytest.raises(OutOfRangeError, match="irrational squared distances"):
                    polygon.polygon_distances_sq_exact(n, R, L, N, offset)
            else:
                assert polygon.polygon_distances_sq_exact(n, R, L, N, offset) \
                    == tuple(d_sq[e] for e in turns)


def test_oracle_counts_vertices_from_the_turn_list(monkeypatch):
    # a turn list longer than n: the vertex count comes from the list
    vertex_turns = polygon._vertex_turns

    def one_extra_vertex(*args):
        N, two_a, b, scale, turns = vertex_turns(*args)
        return N, two_a, b, scale, turns + [turns[-1]]

    monkeypatch.setattr(polygon, "_vertex_turns", one_extra_vertex)
    for n, L in itertools.product((1, 4, 6, 7), (Fraction(0), R, Fraction(5, 7))):
        for N, offset in itertools.product((n, 2 * n), range(3)):
            ms = (2, 1, n + 1, 2 * n)
            assert _power_sums_exact(n, ms, R, L, N, offset) \
                == _scatter_reference(ms, *polygon._vertex_turns(n, R, L, N, offset)), \
                (n, N, L, offset)


@pytest.mark.parametrize("N", range(1, 41))
def test_cosine_rows_are_reduced_pairs_of_powers(N):
    rows = _cosine_rows(N)
    assert rows is _cosine_rows(N)  # one table per N
    zeta = cmath.exp(2j * math.pi / N)
    for j, row in enumerate(rows):
        pair = [0] * (N + 1)
        pair[j] += 1
        pair[N - j] += 1
        assert list(row) == divmod_monic(pair, cyclotomic(N).coeffs)[1]
        value = sum(c * zeta ** k for k, c in enumerate(row))
        assert cmath.isclose(value, 2 * math.cos(2 * math.pi * j / N), abs_tol=1e-9)

"""Hypothesis properties of the exact integer kernels: both closed forms
and the S2, S4 conversion against a term-by-term sum written here, in
value and in type, and the exact averages recovery against a reference in
the operands' own arithmetic, refusals included."""

import math
from fractions import Fraction

import pytest

from cyclicavg.errors import (
    InexactSqrtError,
    InvalidAverageError,
    NegativeDiscriminantError,
)
from cyclicavg.fields import Surd
from cyclicavg.geometry import SolidKind, SolidSpec
from cyclicavg.polygon import power_sum_closed_sq, recover_r2_l2, s2m_from_s2_s4
from cyclicavg.solids import recover_r2_l2_solid, solid_power_sum_closed_sq

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
SETTINGS = hypothesis.settings(max_examples=200, deadline=None, derandomize=True,
                               database=None)
fractions = st.fractions(min_value=-50, max_value=50, max_denominator=60)
nonnegative_fractions = st.fractions(min_value=0, max_value=50, max_denominator=60)
# every exact type, a Fraction with denominator 1 and a rational Surd included
r_squares = st.one_of(
    st.integers(1, 50), nonnegative_fractions, st.builds(Fraction, st.integers(1, 50)),
    st.builds(Surd, nonnegative_fractions, fractions), st.builds(Surd, st.integers(0, 9)),
    st.builds(lambda c: SolidSpec(SolidKind.ICOSAHEDRON, c).R_sq,
              st.fractions(min_value=Fraction(1, 10), max_value=10, max_denominator=12)))
l_squares = st.one_of(st.just(0), st.just(Fraction(0)), st.integers(0, 50),
                      nonnegative_fractions, st.builds(Surd, nonnegative_fractions, fractions))
KINDS = tuple(SolidKind)


def _times(x, y):
    """(a + b sqrt 5)(c + d sqrt 5) on pairs of Fractions, written here so that
    the reference shares no multiplication with Surd."""
    return x[0] * y[0] + 5 * x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _coefficients(m, dim):
    """(k, C(m,2k) 4^k E_dim[cos^2k]) for k = 1..m//2, integral ones as int."""
    moment = Fraction(1)
    for k in range(1, m // 2 + 1):
        moment *= Fraction(2 * k - 1, dim + 2 * k - 2)
        c = math.comb(m, 2 * k) * 4 ** k * moment
        yield k, c.numerator if c.denominator == 1 else c


def _term_by_term(n, m, dim, r_sq, l_sq):
    """n (A^m + sum_k C(m,2k) 4^k E_dim[cos^2k] (R^2 L^2)^k A^(m-2k)), one term
    at a time, with integral coefficients kept as int.

    Rational inputs run in their own arithmetic, which fixes the type; where
    a Surd is given, the sum runs on pairs (a, b) with _times and the result
    is the Surd built from them.
    """
    surd = isinstance(r_sq, Surd) or isinstance(l_sq, Surd)
    if surd:
        r, l = ((x.a, x.b) if isinstance(x, Surd) else (Fraction(x), 0) for x in (r_sq, l_sq))
        a, rl = (r[0] + l[0], r[1] + l[1]), _times(r, l)
        one = (1, 0)

        def pow_(x, k):
            out = one
            for _ in range(k):
                out = _times(out, x)
            return out

        def term(c, k):
            t = _times(pow_(rl, k), pow_(a, m - 2 * k))
            return c * t[0], c * t[1]
    else:
        a, rl = r_sq + l_sq, r_sq * l_sq

        def term(c, k):
            return c * rl ** k * a ** (m - 2 * k)
    total = term(1, 0)
    for k, c in _coefficients(m, dim):
        t = term(c, k)
        total = (total[0] + t[0], total[1] + t[1]) if surd else total + t
    return Surd(n * total[0], n * total[1]) if surd else n * total


def _same(got, want):
    assert got == want
    assert type(got) is type(want)


@SETTINGS
@hypothesis.given(st.integers(3, 12), st.data(), r_squares, l_squares)
def test_polygon_closed_form_is_the_term_by_term_sum(n, data, r_sq, l_sq):
    m = data.draw(st.integers(1, n - 1))
    _same(power_sum_closed_sq(n, m, r_sq, l_sq), _term_by_term(n, m, 2, r_sq, l_sq))


@SETTINGS
@hypothesis.given(st.sampled_from(KINDS), st.data(), r_squares, l_squares)
def test_solid_closed_form_is_the_term_by_term_sum(kind, data, r_sq, l_sq):
    m = data.draw(st.integers(1, kind.t))
    _same(solid_power_sum_closed_sq(kind, m, r_sq, l_sq),
          _term_by_term(kind.n, m, 3, r_sq, l_sq))


def test_closed_forms_at_the_edges():
    icosahedron_r_sq = SolidSpec(SolidKind.ICOSAHEDRON, Fraction(2, 3)).R_sq
    for r_sq in (7, Fraction(7, 2), Surd(7), icosahedron_r_sq):
        for l_sq in (0, Fraction(0), 3, Fraction(3, 4)):
            for m in range(1, 6):
                _same(power_sum_closed_sq(6, m, r_sq, l_sq),
                      _term_by_term(6, m, 2, r_sq, l_sq))
                _same(solid_power_sum_closed_sq(SolidKind.ICOSAHEDRON, m, r_sq, l_sq),
                      _term_by_term(12, m, 3, r_sq, l_sq))


@SETTINGS
@hypothesis.given(st.integers(3, 11), r_squares, l_squares)
def test_s2m_from_s2_s4_is_the_term_by_term_sum(m, r_sq, l_sq):
    s2 = r_sq + l_sq
    if r_sq * l_sq < 0:  # a negative Surd L^2 leaves S4 < S2^2
        with pytest.raises(InvalidAverageError):
            s2m_from_s2_s4(m, s2, s2 * s2 + 2 * r_sq * l_sq)
        return
    got = s2m_from_s2_s4(m, s2, s2 * s2 + 2 * r_sq * l_sq)
    assert got == _term_by_term(1, m, 2, r_sq, l_sq)
    # the operands are S2 and (S4 - S2^2)/2, a Fraction unless a Surd is given
    assert type(got) is (Surd if isinstance(s2, Surd) else Fraction)


@SETTINGS
@hypothesis.given(st.integers(3, 11), fractions, fractions)
def test_s2m_from_s2_s4_on_random_rationals(m, s2, s4):
    rl = (s4 - s2 * s2) / 2
    if rl < 0:
        with pytest.raises(InvalidAverageError) as refused:
            s2m_from_s2_s4(m, s2, s4)
        assert str(refused.value) == "S4 < S2^2 is impossible for genuine data"
        return
    _same(s2m_from_s2_s4(m, s2, s4),
          s2 ** m + sum(c * rl ** k * s2 ** (m - 2 * k) for k, c in _coefficients(m, 2)))


# ---------------------------------------------------------------------------
# exact recovery of {R^2, L^2} from (S2, S4)


def _rational_sqrt(x):
    x = Fraction(x)
    if x < 0:
        return None
    num, den = math.isqrt(x.numerator), math.isqrt(x.denominator)
    return Fraction(num, den) if num * num == x.numerator and den * den == x.denominator \
        else None


def _surd_sqrt(s):
    """The nonnegative root of a + b sqrt 5 from x^2 + 5 y^2 = a, 2xy = b, in Fractions."""
    a, b = s.a, s.b
    e = _rational_sqrt(a * a - 5 * b * b)
    if e is None:
        return None
    for t in ((a + e) / 2, (a - e) / 2):
        x, y = _rational_sqrt(t), _rational_sqrt((a - t) / 5)
        if x is not None and y is not None:
            root = Surd(x, y if b >= 0 else -y)
            return root if root >= 0 else -root
    return None


def _reference_recover(dim, s2, s4):
    """The solve in the operands' own arithmetic, with the library's refusals
    in the library's order."""
    if not s2 > 0:
        raise InvalidAverageError("S2 must be positive")
    if s4 - s2 * s2 < 0:
        raise InvalidAverageError("S4 < S2^2 is impossible for genuine data")
    disc = (dim + 1) * s2 * s2 - dim * s4
    if disc < 0:
        raise NegativeDiscriminantError(f"{dim + 1}*S2^2 - {dim}*S4 = {disc} < 0: "
                                        "no real (R^2, L^2) exists")
    if isinstance(disc, Surd):
        root, where = _surd_sqrt(disc), "does not lie in the same field"
    else:
        root, where = _rational_sqrt(disc), "is irrational; use the float backend"
    if root is None:
        raise InexactSqrtError(f"sqrt({disc}) {where}")
    return (s2 + root) / 2, (s2 - root) / 2


def _outcome(solve, *args):
    try:
        return solve(*args)
    except (InvalidAverageError, NegativeDiscriminantError, InexactSqrtError) as exc:
        return type(exc), str(exc)


RECOVERIES = {2: recover_r2_l2, 3: recover_r2_l2_solid}
positives = st.fractions(min_value=Fraction(1, 100), max_value=100, max_denominator=100)
nonnegatives = st.fractions(min_value=0, max_value=100, max_denominator=100)


@SETTINGS
@hypothesis.given(st.sampled_from([2, 3]), positives, nonnegatives)
def test_rational_pairs_come_back_exactly(dim, r_sq, l_sq):
    s2 = r_sq + l_sq
    got = RECOVERIES[dim](s2, s2 * s2 + Fraction(4, dim) * r_sq * l_sq)
    assert set(got) == {r_sq, l_sq}
    assert all(type(x) is Fraction for x in got)


@SETTINGS
@hypothesis.given(st.sampled_from([2, 3]),
                  st.one_of(st.integers(-20, 20),
                            st.fractions(min_value=-20, max_value=20, max_denominator=30)),
                  st.fractions(min_value=-2, max_value=1, max_denominator=40))
def test_rational_refusals_match_the_reference(dim, s2, f):
    # S4 = S2^2 (1 + f) crosses every refusal: S4 < S2^2 for f < 0, a
    # negative discriminant for f > 1/dim, irrational or rational roots between
    s4 = s2 * s2 * (1 + f)
    cases = [(s2, s4)] + ([(s2, s4.numerator)] if s4.denominator == 1 else [])
    for args in cases:
        assert _outcome(RECOVERIES[dim], *args) == _outcome(_reference_recover, dim, *args)


@SETTINGS
@hypothesis.given(st.sampled_from([2, 3]),
                  st.builds(Surd, st.fractions(min_value=-4, max_value=8, max_denominator=4),
                            st.fractions(min_value=-2, max_value=2, max_denominator=4)),
                  st.fractions(min_value=-1, max_value=1, max_denominator=6),
                  st.fractions(min_value=-1, max_value=1, max_denominator=6))
def test_surd_refusals_match_the_reference(dim, s2, f, g):
    s4 = s2 * s2 * (1 + Surd(f, g))
    assert _outcome(RECOVERIES[dim], s2, s4) == _outcome(_reference_recover, dim, s2, s4)


@SETTINGS
@hypothesis.given(st.fractions(min_value=Fraction(1, 10), max_value=10, max_denominator=12),
                  nonnegatives)
def test_icosahedron_pairs_come_back_exactly(c, l_sq):
    r_sq = SolidSpec(SolidKind.ICOSAHEDRON, c).R_sq
    s2 = r_sq + l_sq
    got = recover_r2_l2_solid(s2, s2 * s2 + Fraction(4, 3) * r_sq * l_sq)
    assert set(got) == {r_sq, l_sq}
    assert all(type(x) is Surd for x in got)


def test_each_refusal_is_reached():
    cases = {  # (dim, S2, S4) -> refusal class
        (2, 0, 1): InvalidAverageError, (2, Fraction(-1, 2), 0): InvalidAverageError,
        (2, 2, 3): InvalidAverageError, (2, 2, 7): NegativeDiscriminantError,
        (3, Fraction(3), Fraction(10)): InexactSqrtError,
        (3, Surd(3), Surd(10)): InexactSqrtError,
        (2, Surd(1, 1), Surd(0)): InvalidAverageError,
    }
    for (dim, s2, s4), error in cases.items():
        got = _outcome(RECOVERIES[dim], s2, s4)
        assert got == _outcome(_reference_recover, dim, s2, s4)
        assert got[0] is error
    # a rational radicand may have the root y sqrt 5, which only Q(sqrt 5) holds
    assert _outcome(recover_r2_l2, Fraction(3), Fraction(11))[0] is InexactSqrtError
    assert recover_r2_l2(Surd(3), Surd(11)) == (Surd(Fraction(3, 2), Fraction(1, 2)),
                                               Surd(Fraction(3, 2), Fraction(-1, 2)))

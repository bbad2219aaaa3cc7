import math
import random
from fractions import Fraction

import pytest

from cyclicavg.errors import (
    InvalidAverageError,
    NegativeDiscriminantError,
    NonRationalInputError,
    OutOfRangeError,
)
from cyclicavg.fields import Surd
from cyclicavg.geometry import (
    PlanePlacement,
    PolygonSpec,
    SolidKind,
    SolidSpec,
    SpacePlacement,
    polygon_distances_sq,
    solid_distances_sq,
)
from cyclicavg.polygon import (
    _design_sum,
    _power_sums_exact,
    _u_coefficients,
    Locus,
    circumcircle_residual,
    cyclic_average,
    locus_classify,
    polygon_distances_sq_exact,
    power_sum_brute,
    power_sum_brute_exact,
    power_sum_closed,
    power_sum_closed_sq,
    recover_r2_l2,
    s2m_from_s2,
    s2m_from_s2_s4,
)
from cyclicavg.solids import recover_r2_l2_solid


class TestClosedForm:
    def test_reference_values(self):
        assert power_sum_closed(PolygonSpec(4, 1.0), 1, 2.0) == pytest.approx(20.0)
        assert power_sum_closed(PolygonSpec(4, 1.0), 3, 2.0) == pytest.approx(980.0)
        assert power_sum_closed(PolygonSpec(7, 1.0), 5, 0.0) == pytest.approx(7.0)
        assert power_sum_closed_sq(4, 3, Fraction(1), Fraction(4)) == 980

    def test_m_range_is_enforced(self):
        with pytest.raises(OutOfRangeError):
            power_sum_closed(PolygonSpec(4, 1.0), 4, 2.0)
        with pytest.raises(OutOfRangeError):
            power_sum_closed(PolygonSpec(4, 1.0), 0, 2.0)
        # the brute-force oracle stays available past the closed-form range
        value = power_sum_brute(PolygonSpec(4, 1.0), 4, PlanePlacement(2.0, 0.1))
        assert value > 0

    def test_monotone_in_l_squared(self):
        previous = 0.0
        for k in range(1, 30):
            value = power_sum_closed_sq(9, 7, 2.0, 0.3 * k)
            assert value > previous
            previous = value

    def test_matches_brute_force(self):
        rng = random.Random(12)
        for _ in range(300):
            n = rng.randint(3, 16)
            m = rng.randint(1, n - 1)
            R = rng.uniform(0.01, 10.0)
            L = rng.uniform(0.01, 10.0)
            alpha = rng.uniform(0.0, 2 * math.pi)
            closed = power_sum_closed_sq(n, m, R * R, L * L)
            brute = power_sum_brute(PolygonSpec(n, R), m, PlanePlacement(L, alpha))
            assert abs(closed - brute) / brute < 1e-9

    def test_cross_n_equality_exact(self):
        # the exact oracle's averages at alpha = (n // 2) pi/n agree for every n > m
        R, L = Fraction(7, 3), Fraction(2, 5)
        averages = {n: [s / n for s in _power_sums_exact(n, range(1, min(n, 8)), R, L,
                                                          2 * n, n // 2)]
                    for n in range(2, 16)}
        for m in range(1, 8):
            assert {averages[n][m - 1] for n in range(m + 1, 16)} == {averages[m + 1][m - 1]}


class TestBruteForce:
    def test_reference_values(self):
        assert power_sum_brute(PolygonSpec(4, 1.0), 2,
                               PlanePlacement(2.0, 0.0)) == pytest.approx(132.0)
        assert power_sum_brute(PolygonSpec(3, 1.0), 1,
                               PlanePlacement(1.0, 0.0)) == pytest.approx(6.0)

    def test_alpha_dependence_beyond_range(self):
        spec = PolygonSpec(3, 1.0)
        a = power_sum_brute(spec, 3, PlanePlacement(1.0, 0.0))
        b = power_sum_brute(spec, 3, PlanePlacement(1.0, 0.5))
        assert abs(a - b) > 1e-3 * abs(a)

    def test_alpha_independence_within_range(self):
        spec = PolygonSpec(7, 1.3)
        values = [power_sum_brute(spec, 6, PlanePlacement(0.9, alpha))
                  for alpha in (0.0, 0.4, 1.1, 2.7, 5.5)]
        assert (max(values) - min(values)) / min(values) < 1e-9

    @pytest.mark.parametrize("n", range(3, 25))
    def test_exact_oracle_agrees_with_closed_form(self, n):
        R, L = Fraction(5, 4), Fraction(2, 3)
        for m in range(1, n):
            closed = power_sum_closed_sq(n, m, R * R, L * L)
            assert power_sum_brute_exact(n, m, R, L) == closed
        # same placement expressed on a finer exact cycle
        assert power_sum_brute_exact(n, 1, R, L, cycle_n=4 * n, offset=0) \
            == power_sum_closed_sq(n, 1, R * R, L * L)
        # a turn of a finer cycle that is no vertex angle
        for m in {1, n // 2, n - 1}:
            assert power_sum_brute_exact(n, m, R, L, 3 * n, 1) \
                == power_sum_closed_sq(n, m, R * R, L * L)

    def test_exact_distances_example(self):
        d_sq = polygon_distances_sq_exact(4, Fraction(1), Fraction(2))
        assert d_sq == (1, 5, 9, 5)

    def test_even_pairing_oracle_n24(self):
        for m in (1, 2, 5, 12, 23):
            for L in (Fraction(1, 3), Fraction(7, 2)):
                closed = power_sum_closed_sq(24, m, Fraction(1), L * L)
                assert power_sum_brute_exact(24, m, Fraction(1), L) == closed

    @pytest.mark.parametrize("n", range(3, 25))
    def test_exact_boundary_at_m_equal_n(self, n):
        # at alpha = 0 the m = n sum exceeds the design average by the one
        # Fourier term the n-gon does not average away
        R, L = Fraction(3, 2), Fraction(4, 5)
        excess = power_sum_brute_exact(n, n, R, L) \
            - n * _design_sum(n, 2, R * R + L * L, R * R * (L * L))
        assert excess == (-1) ** n * 2 * n * (R * L) ** n

    def test_irrational_sum_is_refused(self):
        # the 3-gon at alpha = pi/12: the m = 3 sum carries cos(pi/4)
        R, L = Fraction(1), Fraction(1, 2)
        with pytest.raises(OutOfRangeError):
            power_sum_brute_exact(3, 3, R, L, 24, 1)
        assert power_sum_brute_exact(3, 2, R, L, 24, 1) \
            == power_sum_closed_sq(3, 2, R * R, L * L)

    def test_exact_distances_exist_only_at_rational_cosines(self):
        R, L = Fraction(1), Fraction(2)
        for n in range(-1, 50):
            if n in (1, 2, 3, 4, 6):
                assert len(polygon_distances_sq_exact(n, R, L)) == n
            else:
                with pytest.raises(OutOfRangeError):
                    polygon_distances_sq_exact(n, R, L)
        with pytest.raises(OutOfRangeError):
            polygon_distances_sq_exact(3, R, L, 12, 1)
        with pytest.raises(OutOfRangeError):
            polygon_distances_sq_exact(3, R, L, 8)  # 8 is not a multiple of 3
        assert polygon_distances_sq_exact(3, R, L, 12, 2) == (3, 3, 9)

    @pytest.mark.parametrize("R", [Surd(1, 1), 1.0])
    def test_exact_oracle_needs_rational_inputs(self, R):
        with pytest.raises(NonRationalInputError):
            power_sum_brute_exact(4, 2, R, Fraction(1))
        with pytest.raises(NonRationalInputError):
            polygon_distances_sq_exact(4, Fraction(1), R)

    @pytest.mark.parametrize("R, L, message", [
        (Fraction(1), Fraction(-1, 2), "centroid distance L must be >= 0"),
        (-1, Fraction(1, 2), "circumradius must be positive"),
        (0, Fraction(1, 2), "circumradius must be positive"),
    ])
    def test_exact_oracle_refuses_what_the_specs_refuse(self, R, L, message):
        # a negative L would be the mirrored point at alpha + pi
        with pytest.raises(OutOfRangeError, match=message):
            power_sum_brute_exact(3, 3, R, L)
        with pytest.raises(OutOfRangeError, match=message):
            polygon_distances_sq_exact(4, R, L)


class TestCyclicAverage:
    def test_reference_values(self):
        assert cyclic_average(PolygonSpec(5, 1.0), 2, 1.0).value == pytest.approx(6.0)
        assert cyclic_average(PolygonSpec(6, 2.0), 4, 0.0).value == pytest.approx(256.0)

    def test_high_power_average_matches_oracle(self):
        # n = 10, m = 9 at R = L = 1: average = 48620, confirmed by vertex sum
        avg = cyclic_average(PolygonSpec(10, 1.0), 9, 1.0).value
        brute = power_sum_brute(PolygonSpec(10, 1.0), 9, PlanePlacement(1.0, 0.77))
        assert avg == pytest.approx(48620.0)
        assert avg == pytest.approx(brute / 10.0)


class TestLocus:
    def test_circle(self):
        locus = locus_classify(PolygonSpec(4, 1.0), 3, 980.0)
        assert locus.kind == "circle"
        assert locus.L == pytest.approx(2.0, rel=1e-10)

    def test_centroid_and_empty(self):
        assert locus_classify(PolygonSpec(5, 1.0), 2, 5.0).kind == "centroid"
        assert locus_classify(PolygonSpec(3, 1.0), 1, 2.0).kind == "empty"
        # exact backend: decided exactly, circle radius reported as float
        assert locus_classify(PolygonSpec(5, Fraction(1)), 2, Fraction(5)).kind \
            == "centroid"
        circle = locus_classify(PolygonSpec(4, Fraction(1)), 3, Fraction(980))
        assert circle.kind == "circle" and isinstance(circle.L, float)
        assert circle.L == pytest.approx(2.0, rel=1e-10)
        # exactly above the centre value, but equal to it as floats
        near = locus_classify(PolygonSpec(4, Fraction(1)), 2, 4 + Fraction(1, 10 ** 30))
        assert near == Locus("circle", 0.0)

    def test_round_trip(self):
        rng = random.Random(31)
        for _ in range(50):
            n = rng.randint(3, 12)
            m = rng.randint(1, n - 1)
            R = rng.uniform(0.2, 4.0)
            L = rng.uniform(0.01, 6.0)
            C = power_sum_closed_sq(n, m, R * R, L * L)
            locus = locus_classify(PolygonSpec(n, R), m, C)
            assert locus.kind == "circle"
            assert locus.L == pytest.approx(L, rel=1e-9)

    @staticmethod
    def _backward_error(n, m, R, C):
        locus = locus_classify(PolygonSpec(n, R), m, C)
        assert locus.kind == "circle"
        return abs(power_sum_closed_sq(n, m, R * R, locus.L * locus.L) - C) / C

    def test_backward_error(self):
        rng = random.Random(19)
        for _ in range(2000):
            n = rng.randint(3, 64)
            m = rng.randint(1, n - 1)
            R, L = rng.uniform(1e-4, 10.0), rng.uniform(1e-4, 10.0)
            C = power_sum_closed_sq(n, m, R * R, L * L)
            assert self._backward_error(n, m, R, C) <= 1e-13, (n, m, R, L)

    @pytest.mark.parametrize("n, R, m, C", [
        # a relative step-size stop never fires on these two
        (9, 1.0807724743899378, 5, 1896.666399950361),
        (42, 0.5479102991241604, 36, 344.7760298613689),
        # just off the centre value, and near the largest float
        (64, 1.0, 63, 64 * (1 + 1e-9)),
        (64, 1.0, 63, 1.7e308),
    ])
    def test_hard_constants(self, n, R, m, C):
        assert self._backward_error(n, m, R, C) <= 1e-13

    @pytest.mark.parametrize("dim", [2, 3])
    def test_u_coefficients_expand_the_design_sum(self, dim):
        r, u = Fraction(3, 7), Fraction(5, 11)
        for m in range(1, 25):
            q = _u_coefficients(m, dim)
            assert q[0] == q[m] == 1 and all(qj > 0 for qj in q)
            assert sum(qj * r ** (m - j) * u ** j for j, qj in enumerate(q)) \
                == _design_sum(m, dim, r + u, r * u)

    def test_rejects_invalid_inputs(self):
        with pytest.raises(OutOfRangeError):
            locus_classify(PolygonSpec(4, 1.0), 9, 10.0)
        with pytest.raises(OutOfRangeError):
            locus_classify(PolygonSpec(4, 1.0), 2, 0.0)


class TestAverageConversions:
    def test_recover_reference_values(self):
        assert set(recover_r2_l2(Fraction(5), Fraction(33))) == {1, 4}
        assert set(recover_r2_l2(Fraction(2), Fraction(6))) == {1}      # R = L
        assert set(recover_r2_l2(Fraction(1), Fraction(1))) == {0, 1}   # centroid
        with pytest.raises(NegativeDiscriminantError):
            recover_r2_l2(1.0, 2.0)

    @pytest.mark.parametrize("recover", [recover_r2_l2, recover_r2_l2_solid])
    def test_recover_refuses_s4_below_s2_squared(self, recover):
        # S4 - S2^2 = (4/dim) R^2 L^2 is never negative; exact data get no allowance
        for s2, s4 in ((1.0, -1.0), (2.0, 3.9), (Fraction(1), Fraction(-1)),
                       (Fraction(1), 1 - Fraction(1, 10 ** 30))):
            with pytest.raises(InvalidAverageError, match="S4 < S2"):
                recover(s2, s4)

    @pytest.mark.parametrize("recover", [recover_r2_l2, recover_r2_l2_solid])
    @pytest.mark.parametrize("s2, s4", [(1e200, 1e300), (1e154, 1.4e308)])
    def test_recover_refuses_float_overflow(self, recover, s2, s4):
        # S2^2, or (dim+1) S2^2 in the discriminant, overflows: inf - inf must
        # not slip past the guards as R^2 = inf or nan
        with pytest.raises(OutOfRangeError, match="overflows"):
            recover(s2, s4)

    def test_recover_accepts_float_data_at_r_equal_l(self):
        # at L = R the discriminant (R^2 - L^2)^2 is 0, and rounding can put it
        # just below; that is genuine data, and the pair must give S2, S4 back
        rng = random.Random(29)
        draws = []
        for _ in range(2000):
            n, R = rng.randint(3, 64), rng.uniform(0.2, 3.0)
            d_sq = polygon_distances_sq(PolygonSpec(n, R), PlanePlacement(R, rng.uniform(0, 6.3)))
            draws.append((recover_r2_l2, 2.0, d_sq))
        for _ in range(400):
            for kind in SolidKind:
                spec = SolidSpec(kind, rng.uniform(0.5, 2.0))
                u = [rng.gauss(0, 1) for _ in range(3)]
                scale = spec.R / math.sqrt(math.fsum(x * x for x in u))
                d_sq = solid_distances_sq(spec, SpacePlacement(*(scale * x for x in u)))
                draws.append((recover_r2_l2_solid, 4.0 / 3.0, d_sq))
        for recover, ratio, d_sq in draws:
            s2 = math.fsum(d_sq) / len(d_sq)
            s4 = math.fsum(d * d for d in d_sq) / len(d_sq)
            hi, lo = recover(s2, s4)
            assert hi + lo == pytest.approx(s2, rel=1e-9)
            assert (hi + lo) ** 2 + ratio * hi * lo == pytest.approx(s4, rel=1e-9)

    def test_recover_gives_exact_discriminants_no_allowance(self):
        # an exact 3 S2^2 - 2 S4 of -2e-30 is refused, and so is a float one of
        # -2e-11; a float one of -4.4e-16 is rounding at R = L
        with pytest.raises(NegativeDiscriminantError):
            recover_r2_l2(Fraction(1), Fraction(3, 2) + Fraction(1, 10 ** 30))
        with pytest.raises(NegativeDiscriminantError):
            recover_r2_l2(1.0, 1.5 + 1e-11)
        assert recover_r2_l2(1.0, 1.5 + 2e-16) == (0.5, 0.5)

    def test_recover_accepts_float_centroid_data(self):
        # at L = 0 rounding can put S4 just below S2^2; that is genuine data
        rng = random.Random(3)
        below = 0
        for n in range(3, 65):
            for _ in range(5):
                d_sq = polygon_distances_sq(PolygonSpec(n, rng.uniform(0.2, 3.0)),
                                            PlanePlacement(0.0, rng.uniform(0, 6.3)))
                s2 = math.fsum(d_sq) / n
                s4 = math.fsum(d * d for d in d_sq) / n
                below += s4 < s2 * s2
                hi, lo = recover_r2_l2(s2, s4)
                assert hi == pytest.approx(s2) and abs(lo) <= 1e-12 * s2
                assert s2m_from_s2_s4(3, s2, s4) == pytest.approx(s2 ** 3, rel=1e-12)
        assert below > 0

    def test_s2m_reads_float_noise_below_s2_squared_as_zero_gap(self):
        # the hexagon with R = 0.3 measured at its centre: S4 rounds below S2^2,
        # which recover_r2_l2 and s2m_from_s2_s4 must both accept as L = 0
        d_sq = polygon_distances_sq(PolygonSpec(6, 0.3), PlanePlacement(0.0, 0.0))
        s2 = math.fsum(d_sq) / 6
        s4 = math.fsum(d * d for d in d_sq) / 6
        assert (s2, s4) == (0.09000000000000001, 0.0081) and s4 < s2 * s2
        assert max(recover_r2_l2(s2, s4)) == pytest.approx(0.09)
        assert s2m_from_s2_s4(3, s2, s4) == pytest.approx(0.000729, rel=1e-12)
        # exact data get no allowance
        with pytest.raises(InvalidAverageError, match="S4 < S2"):
            s2m_from_s2_s4(3, Fraction(1), 1 - Fraction(1, 10 ** 30))

    def test_recover_round_trip_exact(self):
        rng = random.Random(13)
        for _ in range(100):
            r_sq = Fraction(rng.randint(1, 99), rng.randint(1, 99))
            l_sq = Fraction(rng.randint(0, 99), rng.randint(1, 99))
            s2 = r_sq + l_sq
            s4 = s2 * s2 + 2 * r_sq * l_sq
            assert set(recover_r2_l2(s2, s4)) == {r_sq, l_sq}

    def test_s2m_from_s2(self):
        assert s2m_from_s2(2, Fraction(5), Fraction(1)) == 33
        assert s2m_from_s2(3, Fraction(5), Fraction(1)) == 245
        assert s2m_from_s2(2, Fraction(1), Fraction(1)) == 1   # centroid
        with pytest.raises(InvalidAverageError):
            s2m_from_s2(2, 1.0, 2.0)
        with pytest.raises(OutOfRangeError):
            s2m_from_s2(1, 5.0, 1.0)

    def test_s2m_from_s2_s4(self):
        assert s2m_from_s2_s4(3, Fraction(5), Fraction(33)) == 245
        # m = 4 from the same data; equals the direct closed form at R=1, L=2
        assert s2m_from_s2_s4(4, Fraction(5), Fraction(33)) == 1921
        assert s2m_from_s2_s4(4, Fraction(5), Fraction(33)) \
            == power_sum_closed_sq(5, 4, Fraction(1), Fraction(4)) / 5
        assert s2m_from_s2_s4(3, Fraction(1), Fraction(1)) == 1
        with pytest.raises(InvalidAverageError):
            s2m_from_s2_s4(3, 2.0, 1.0)
        with pytest.raises(OutOfRangeError):
            s2m_from_s2_s4(2, 5.0, 33.0)
        # an S2^2 that overflows is not data with S4 < S2^2
        with pytest.raises(OutOfRangeError, match="overflows"):
            s2m_from_s2_s4(3, 1e200, 1e300)

    def test_conversions_agree(self):
        rng = random.Random(17)
        for _ in range(50):
            r_sq = Fraction(rng.randint(1, 30), rng.randint(1, 10))
            l_sq = Fraction(rng.randint(0, 30), rng.randint(1, 10))
            s2 = r_sq + l_sq
            s4 = s2 * s2 + 2 * r_sq * l_sq
            for m in range(3, 8):
                direct = power_sum_closed_sq(m + 1, m, r_sq, l_sq) / (m + 1)
                assert s2m_from_s2(m, s2, r_sq) == direct
                assert s2m_from_s2_s4(m, s2, s4) == direct


class TestCircumcircleResidual:
    def test_reference_values(self):
        assert circumcircle_residual((0, 3, 3)) == 0
        assert circumcircle_residual((1, 1, 1)) == 9
        s = math.sqrt(2.0)
        d_sq = (2 - s, 2 - s, 2 + s, 2 + s)
        assert circumcircle_residual(d_sq) == pytest.approx(0.0, abs=1e-12)

    def test_vanishes_exactly_on_circle(self):
        # L = R placements at exact-cosine angles
        for n in (3, 4, 6):
            R = Fraction(7, 5)
            d_sq = polygon_distances_sq_exact(n, R, R)
            assert circumcircle_residual(d_sq) == 0

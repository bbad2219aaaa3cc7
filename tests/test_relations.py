import math
import random
from fractions import Fraction

import pytest

from cyclicavg.errors import (
    InconsistentDistancesError,
    OutOfRangeError,
    UnattainableError,
)
from cyclicavg.geometry import (
    _TRACE,
    PlanePlacement,
    PolygonSpec,
    heron_area_16sq,
    polygon_distances_sq,
    polygon_side_sq,
)
from cyclicavg import relations
from cyclicavg.polygon import polygon_distances_sq_exact
from cyclicavg.ratdist import necessary_condition_areas
from cyclicavg.relations import (
    opposite_pair_sums,
    recover_spec_from_distances,
    solve_distances,
    square_sixth_factorization_residual,
    subset_sum_residuals,
    symmetric_residual,
)


def _sorted_floats(values):
    return sorted(float(v) for v in values)


def _multisets_close(a, b, tol=1e-9):
    for x, y in zip(_sorted_floats(a), _sorted_floats(b)):
        if abs(x - y) > tol * max(abs(x), abs(y), 1.0):
            return False
    return True


class TestSymmetricIdentities:
    def test_triangle_reference_values(self):
        assert symmetric_residual((1, 1, 1), 3) == 0          # centroid
        assert symmetric_residual((0, 3, 3), 3) == 0          # on a vertex
        assert symmetric_residual((1, 1, 1), 1) == -4         # inconsistent

    def test_square_reference_values(self):
        assert symmetric_residual((1, 1, 1, 1), 2) == 0         # centroid
        assert symmetric_residual((1, 5, 9, 5), 2) == 0
        assert symmetric_residual((1, 1, 1, 1), 1) == -8        # inconsistent

    def test_hexagon_reference_values(self):
        assert symmetric_residual((1,) * 6, 1) == 0             # centroid
        assert symmetric_residual((0, 1, 3, 4, 3, 1), 1) == 0   # on a vertex
        assert symmetric_residual((1, 1, 1, 1, 1, 2), 1) == -7  # inconsistent

    @pytest.mark.parametrize("length", [0, 1, 2, 5, 7, 8, 12])
    def test_other_lengths_are_refused(self, length):
        with pytest.raises(OutOfRangeError):
            symmetric_residual((1.0,) * length, 1.0)

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_vanishes_for_all_placements(self, n):
        rng = random.Random(21)
        for _ in range(200):
            R = rng.uniform(0.2, 4.0)
            L = rng.uniform(0.0, 4.0)
            d_sq = polygon_distances_sq(PolygonSpec(n, R),
                                        PlanePlacement(L, rng.uniform(0, 7)))
            side_sq = polygon_side_sq(n, R * R)
            scale = (sum(d_sq) + 3 * side_sq) ** 2
            assert abs(symmetric_residual(d_sq, side_sq)) < 1e-7 * scale

    def test_exact_for_exact_placements(self):
        R, L = Fraction(5, 3), Fraction(1, 2)
        for n in (3, 4, 6):
            d_sq = polygon_distances_sq_exact(n, R, L)
            assert symmetric_residual(d_sq, polygon_side_sq(n, R * R)) == 0

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_exact_zero_off_the_symmetry_axes(self, n):
        # cos(theta) = (w u^2 - 4)/(w u^2 + 4) with w = 4 - c1^2 makes w sin^2(theta)
        # a rational square, so d1^2 = A - 2RL cos(theta) has rational branches
        R, L = Fraction(5, 3), Fraction(1, 2)
        for u in (Fraction(1, 3), Fraction(3, 2), Fraction(-5, 7)):
            w = 4 - _TRACE[n] ** 2
            cos = (w * u * u - 4) / (w * u * u + 4)
            for branch in solve_distances(n, R, L, R * R + L * L - 2 * R * L * cos):
                assert symmetric_residual(branch, polygon_side_sq(n, R * R)) == 0


class TestSolveDistances:
    def test_triangle_collinear_example(self):
        branches = solve_distances(3, 1.0, 2.0, 1.0)
        assert branches.plus == pytest.approx((1.0, 7.0, 7.0))
        assert branches.minus == pytest.approx((1.0, 7.0, 7.0))

    def test_square_collinear_example(self):
        branches = solve_distances(4, 1.0, 2.0, 1.0)
        assert branches.plus == pytest.approx((1.0, 5.0, 9.0, 5.0))

    def test_hexagon_vertex_example(self):
        branches = solve_distances(6, Fraction(1), Fraction(1), Fraction(0))
        assert branches.plus == (0, 1, 3, 4, 3, 1)

    def test_unattainable_first_distance(self):
        with pytest.raises(UnattainableError):
            solve_distances(3, 1.0, 2.0, 25.0)   # beyond (R+L)^2 = 9
        with pytest.raises(UnattainableError):
            solve_distances(4, 1.0, 2.0, 0.5)    # below (R-L)^2 = 1

    def test_unsupported_n(self):
        with pytest.raises(OutOfRangeError):
            solve_distances(5, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("R, L", [(-1.0, 1.0), (0.0, 1.0), (Fraction(0), Fraction(1)),
                                      (1.0, -0.5), (Fraction(1), Fraction(-1, 2)),
                                      (math.nan, 1.0), (1.0, math.nan)])
    def test_refuses_nonpositive_R_and_negative_L(self, R, L):
        for n in (3, 4, 6):
            with pytest.raises(OutOfRangeError):
                solve_distances(n, R, L, 1.0)

    @pytest.mark.parametrize("n, R, L, d1_sq", [
        # R, L and d1 span a triangle with a rational area (n = 4) or with a
        # rational sqrt(3) times its area (n = 3, 6), so both branches are exact
        (3, 2, 1, 3), (4, 3, 4, 25), (6, 2, 1, 3)])
    def test_minus_branch_is_the_reversed_tail_mirror(self, n, R, L, d1_sq):
        plus, minus = solve_distances(n, Fraction(R), Fraction(L), Fraction(d1_sq))
        assert plus != minus
        assert minus == (plus[0], *reversed(plus[1:]))

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_a_branch_is_the_exact_placement(self, n):
        # every turn of a 12-cycle whose squared distances are all rational
        for R, L in ((Fraction(5, 3), Fraction(1, 2)), (Fraction(2), Fraction(7, 4)),
                     (Fraction(1), Fraction(1)), (Fraction(3, 7), Fraction(0))):
            for offset in range(12):
                try:
                    d_sq = polygon_distances_sq_exact(n, R, L, 12, offset)
                except OutOfRangeError:
                    continue
                assert d_sq in tuple(solve_distances(n, R, L, d_sq[0]))

    @pytest.mark.parametrize("R, L, d1_sq", [
        (1.0, 1.0, math.nan), (1.0, 1.0, math.inf), (1.0, 1.0, -math.inf),
        (math.inf, 1.0, 1.0), (1.0, math.inf, 1.0), (1e200, 1.0, 1.0)])
    def test_refuses_nonfinite_input_and_overflow(self, R, L, d1_sq):
        for n in (3, 4, 6):
            with pytest.raises(OutOfRangeError):
                solve_distances(n, R, L, d1_sq)

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_round_trip_against_placements(self, n):
        rng = random.Random(100 + n)
        for _ in range(100):
            R = rng.uniform(0.3, 4.0)
            L = rng.uniform(0.0, 4.0)
            d_sq = polygon_distances_sq(PolygonSpec(n, R),
                                        PlanePlacement(L, rng.uniform(0, 7)))
            branches = solve_distances(n, R, L, d_sq[0])
            assert any(_multisets_close(branch, d_sq) for branch in branches)

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_mirror_branches_share_the_multiset(self, n):
        branches = solve_distances(n, 1.0, 1.7, 1.2)
        assert _multisets_close(branches.plus, branches.minus)


class TestRecoverSpec:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e300])
    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_refuses_nonfinite_input_and_overflow(self, n, bad):
        for i in range(n):
            d_sq = [1.0] * n
            d_sq[i] = bad
            with pytest.raises(OutOfRangeError):
                recover_spec_from_distances(n, d_sq)

    def test_windows_cover_the_trace_table(self):
        assert relations._WINDOWS.keys() == _TRACE.keys()

    def test_reference_values(self):
        pair = recover_spec_from_distances(3, (Fraction(1), Fraction(7), Fraction(7)))
        assert pair.plus == (4, 1)
        assert pair.minus == (1, 4)
        pair = recover_spec_from_distances(3, (1, 1, 1))
        assert pair.plus == (1, 0)
        pair = recover_spec_from_distances(6, (0, 1, 3, 4, 3, 1))
        assert pair.plus == (1, 1)

    def test_square_window_cross_check(self):
        pair = recover_spec_from_distances(4, (Fraction(1), Fraction(5),
                                               Fraction(9), Fraction(5)))
        assert pair.plus == (4, 1)
        with pytest.raises(InconsistentDistancesError):
            recover_spec_from_distances(4, (1.0, 2.0, 3.0, 5.0))

    def test_rejects_impossible_triple(self):
        with pytest.raises(InconsistentDistancesError):
            recover_spec_from_distances(3, (1.0, 1.0, 25.0))

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_round_trip_float(self, n):
        rng = random.Random(200 + n)
        for _ in range(100):
            R = rng.uniform(0.3, 4.0)
            L = rng.uniform(0.0, 4.0)
            d_sq = polygon_distances_sq(PolygonSpec(n, R),
                                        PlanePlacement(L, rng.uniform(0, 7)))
            pair = recover_spec_from_distances(n, d_sq)
            hit = any(
                abs(r2 - R * R) < 1e-9 * max(R * R, 1) and
                abs(l2 - L * L) < 1e-9 * max(L * L, 1)
                for r2, l2 in pair)
            assert hit

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_round_trip_exact_at_rational_cosine_angles(self, n):
        rng = random.Random(300 + n)
        for _ in range(30):
            R = Fraction(rng.randint(1, 30), rng.randint(1, 15))
            L = Fraction(rng.randint(0, 30), rng.randint(1, 15))
            d_sq = polygon_distances_sq_exact(n, R, L)
            pair = recover_spec_from_distances(n, d_sq)
            assert (R * R, L * L) in tuple(pair)

    @pytest.mark.parametrize("n", [4, 6])
    def test_recovery_and_area_conditions_read_the_same_windows(self, n):
        rng = random.Random(400 + n)
        for _ in range(30):
            R = Fraction(rng.randint(1, 30), rng.randint(1, 15))
            L = Fraction(rng.randint(0, 30), rng.randint(1, 15))
            d_sq = polygon_distances_sq_exact(n, R, L)
            assert (R * R, L * L) in tuple(recover_spec_from_distances(n, d_sq))
            assert necessary_condition_areas(n, d_sq).equal

    def test_perturbed_square_fails_both_window_readers(self):
        # (R, L) = (2, 1) gives (1, 5, 9, 5); with d4^2 = 17 each window still
        # has a rational area, but the second reads (R^2, L^2) = (10, 1)
        d_sq = polygon_distances_sq_exact(4, Fraction(2), Fraction(1))
        perturbed = (*d_sq[:3], d_sq[3] + 12)
        with pytest.raises(InconsistentDistancesError):
            recover_spec_from_distances(4, perturbed)
        assert not necessary_condition_areas(4, perturbed).equal


class TestOneAllowanceAtEveryScale:
    """The float allowance is relative to the data's scale, so a verdict on
    the same figure does not depend on the unit of length."""

    SCALES = [10.0 ** k for k in (-8, -4, -2, 0, 4, 8)]
    # squared distances whose first index window has sides 1, 1, 3 (the
    # square's window reads sqrt(2) d2), which span no triangle
    NO_TRIANGLE = {3: (1, 1, 9), 4: (1, 0.5, 9, 1), 6: (1, 1, 1, 1, 9, 1)}

    @pytest.mark.parametrize("s", SCALES)
    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_boundary_data_solve_and_recover(self, n, s):
        R = 1.3 * s
        for L in (0.0, 0.6 * R, R):
            for alpha in (0.0, 1.0, math.pi):
                d_sq = polygon_distances_sq(PolygonSpec(n, R), PlanePlacement(L, alpha))
                tol = 1e-6 * (R * R + L * L)
                assert any(max(abs(x - y) for x, y in zip(sorted(branch), sorted(d_sq))) < tol
                           for branch in solve_distances(n, R, L, d_sq[0]))
                assert any(abs(r2 - R * R) < tol and abs(l2 - L * L) < tol
                           for r2, l2 in recover_spec_from_distances(n, d_sq))

    @pytest.mark.parametrize("s", SCALES)
    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_off_boundary_data_is_refused(self, n, s):
        with pytest.raises(UnattainableError):
            solve_distances(n, s, s, 1.001 * (2 * s) ** 2)  # beyond (R+L)^2
        with pytest.raises(InconsistentDistancesError):
            recover_spec_from_distances(n, [x * s * s for x in self.NO_TRIANGLE[n]])


class TestPairAndSubsetIdentities:
    def test_opposite_pairs_reference(self):
        assert opposite_pair_sums((1, 5, 9, 5)) == (10, 10)
        assert opposite_pair_sums((0, 1, 3, 4, 3, 1)) == (4, 4, 4)
        with pytest.raises(OutOfRangeError):
            opposite_pair_sums((1, 2, 3))

    def test_pair_sums_equal_for_placements(self):
        rng = random.Random(41)
        for n in (4, 6, 8, 10, 12):
            for _ in range(50):
                R = rng.uniform(0.3, 3.0)
                L = rng.uniform(0.0, 3.0)
                d_sq = polygon_distances_sq(PolygonSpec(n, R),
                                            PlanePlacement(L, rng.uniform(0, 7)))
                sums = opposite_pair_sums(d_sq)
                expected = 2 * (R * R + L * L)
                assert max(abs(s - expected) for s in sums) < 1e-9 * expected

    def test_subset_residuals_vanish(self):
        rng = random.Random(43)
        cases = [(6, 3), (9, 3), (12, 3), (8, 4), (12, 4), (16, 4),
                 (10, 5), (15, 5), (20, 5), (8, 2), (14, 2)]
        for n, divisor in cases:
            for _ in range(50):
                R = rng.uniform(0.3, 3.0)
                L = rng.uniform(0.0, 3.0)
                d_sq = polygon_distances_sq(PolygonSpec(n, R),
                                            PlanePlacement(L, rng.uniform(0, 7)))
                residuals = subset_sum_residuals(d_sq, divisor, R * R, L * L)
                scale = divisor * (R * R + L * L) ** 4 + 1.0
                assert max(abs(r) for r in residuals) < 1e-7 * scale

    def test_subset_centroid_values(self):
        # centroid of a 10-gon: every pentagon window sums to 5 R^(2m)
        d_sq = tuple([Fraction(4)] * 10)  # R = 2, L = 0
        residuals = subset_sum_residuals(d_sq, 5, Fraction(4), Fraction(0))
        assert all(r == 0 for r in residuals)

    def test_subset_divisor_validation(self):
        with pytest.raises(OutOfRangeError):
            subset_sum_residuals((1,) * 10, 3, 1.0, 0.0)
        with pytest.raises(OutOfRangeError):
            subset_sum_residuals((1,) * 10, 7, 1.0, 0.0)

    def test_sixth_power_factorization(self):
        assert square_sixth_factorization_residual((1, 5, 9, 5)) == 0
        assert square_sixth_factorization_residual((1, 1, 1, 1)) == 0
        assert square_sixth_factorization_residual((1, 2, 3, 5)) == 45


class TestCircumcircleChords:
    def test_square_chord_relations_on_minor_arc(self):
        # point on the arc between vertices 1 and 2:
        # d1 + sqrt2 d2 = d3 and d2 + d4 = sqrt2 d3
        for t in (0.1, 0.45, 0.8):
            alpha = t * math.pi / 2
            d = [math.sqrt(v) for v in polygon_distances_sq(
                PolygonSpec(4, 1.0), PlanePlacement(1.0, alpha))]
            assert d[0] + math.sqrt(2) * d[1] == pytest.approx(d[2], abs=1e-9)
            assert d[1] + d[3] == pytest.approx(math.sqrt(2) * d[2], abs=1e-9)

    def test_hexagon_chord_relations_on_minor_arc(self):
        # d1 + d3 = d5 and d2 + d6 = d4
        for t in (0.15, 0.5, 0.9):
            alpha = t * math.pi / 3
            d = [math.sqrt(v) for v in polygon_distances_sq(
                PolygonSpec(6, 1.0), PlanePlacement(1.0, alpha))]
            assert d[0] + d[2] == pytest.approx(d[4], abs=1e-9)
            assert d[1] + d[5] == pytest.approx(d[3], abs=1e-9)

    def test_triangle_degenerate_area_on_circle(self):
        # on the circumcircle the three distances span a degenerate triangle
        for alpha in (0.2, 0.9, 1.7):
            d_sq = polygon_distances_sq(PolygonSpec(3, 1.0), PlanePlacement(1.0, alpha))
            assert heron_area_16sq(*d_sq) == pytest.approx(0.0, abs=1e-9)

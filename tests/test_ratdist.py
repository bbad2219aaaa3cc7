import dataclasses
import math
from fractions import Fraction

import pytest

from cyclicavg import intpoly, ratdist

from cyclicavg.errors import (
    DegenerateQuarticError,
    DomainError,
    InvalidAverageError,
    NegativeDiscriminantError,
    NonRationalInputError,
)
from cyclicavg.geometry import PlanePlacement, PolygonSpec, polygon_distances_sq
from cyclicavg.intpoly import IntegerPolynomial, certify_no_small_factor
from cyclicavg.ratdist import (
    necessary_condition_areas,
    quartic_witness,
    rational24_report,
    side_from_averages,
    sin_pi_24_float,
    sin_pi_24_minimal_polynomial,
)


def _averages(n, R, L, alpha):
    d_sq = polygon_distances_sq(PolygonSpec(n, R), PlanePlacement(L, alpha))
    s2 = math.fsum(d_sq) / n
    s4 = math.fsum(x * x for x in d_sq) / n
    return s2, s4


class TestSideFromAverages:
    def test_reference_values(self):
        branches = side_from_averages(4, 5.0, 33.0)
        assert sorted(branches) == [pytest.approx(2.0), pytest.approx(8.0)]
        # centroid of a hexagon: genuine branch equals R^2 (side = R)
        branches = side_from_averages(6, 1.0, 1.0)
        assert sorted(branches) == [pytest.approx(0.0, abs=1e-12),
                                    pytest.approx(1.0)]
        # circumcircle data for a triangle: both branches coincide at 3 R^2
        branches = side_from_averages(3, 2.0, 6.0)
        assert branches.plus == pytest.approx(3.0)
        assert branches.minus == pytest.approx(3.0)

    def test_negative_discriminant(self):
        with pytest.raises(NegativeDiscriminantError):
            side_from_averages(4, 1.0, 2.0)

    @pytest.mark.parametrize("s2, s4, message", [
        (1.0, 0.5, "S4 < S2"), (2.0, 3.9, "S4 < S2"),
        (0.0, 1.0, "S2 must be positive"), (-1.0, 1.0, "S2 must be positive"),
    ])
    def test_refuses_impossible_averages(self, s2, s4, message):
        # impossible averages are refused as such: a domain error, CLI exit 2
        with pytest.raises(InvalidAverageError, match=message) as caught:
            side_from_averages(4, s2, s4)
        assert isinstance(caught.value, DomainError)

    def test_genuine_branch_across_figures(self):
        import random

        rng = random.Random(19)
        for n in range(3, 25):
            for _ in range(10):
                R = rng.uniform(0.3, 4.0)
                s2, s4 = _averages(n, R, rng.uniform(0.0, 3.0),
                                   rng.uniform(0, 2 * math.pi))
                true_sq = (2 * R * math.sin(math.pi / n)) ** 2
                best = min(abs(b - true_sq) for b in side_from_averages(n, s2, s4))
                assert best < 1e-9 * max(true_sq, 1.0)


class TestQuarticWitness:
    def test_coefficients(self):
        w = quartic_witness(Fraction(5), Fraction(33))
        assert (w.c4, w.c2, w.c0) == (64, -20, 1)

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(DegenerateQuarticError):
            quartic_witness(1.0, 1.0)

    def test_annihilates_unit_square_sine(self):
        R = 1.0 / (2.0 * math.sin(math.pi / 4))   # unit-side square
        s2, s4 = _averages(4, R, 0.6 * R, 0.81)
        w = quartic_witness(s2, s4)
        assert abs(w(math.sin(math.pi / 4))) < 1e-9

    def test_annihilates_for_every_n(self):
        for n in range(3, 25):
            sin_n = math.sin(math.pi / n)
            R = 1.0 / (2.0 * sin_n)
            s2, s4 = _averages(n, R, 1.3 * R, 0.2)
            assert abs(quartic_witness(s2, s4)(sin_n)) < 1e-8

    def test_rational_data_gives_rational_coefficients(self):
        w = quartic_witness(Fraction(7, 2), Fraction(51, 4))
        assert isinstance(w.c4, Fraction) and isinstance(w.c2, Fraction)


class TestOcticPolynomial:
    def test_shape(self):
        p = sin_pi_24_minimal_polynomial()
        assert p.degree == 8
        assert p(0) == 1
        assert p.coeffs == (1, 0, -64, 0, 320, 0, -512, 0, 256)

    def test_annihilates_float_value(self):
        p = sin_pi_24_minimal_polynomial()
        s = sin_pi_24_float()
        assert abs(s - math.sin(math.pi / 24)) < 1e-15
        assert abs(p(s)) < 1e-12

    def test_no_rational_root_near_the_value(self):
        p = sin_pi_24_minimal_polynomial()
        s = sin_pi_24_float()
        for k in (3, 4, 5, 6, 7, 8):
            approx = Fraction(s).limit_denominator(10 ** k)
            assert abs(float(approx) - s) < 10.0 ** (-k + 1)
            assert p(approx) != 0


class TestNecessaryConditions:
    def test_unit_hexagon_centroid(self):
        report = necessary_condition_areas(6, [1] * 6)
        assert report.satisfied
        assert report.equal
        # sqrt(3) * area of a unit equilateral triangle = 3/4, rational
        assert report.area_values == (Fraction(3, 4), Fraction(3, 4))

    def test_square_placement_passes(self):
        report = necessary_condition_areas(4, [1, 5, 9, 5])
        assert report.satisfied
        assert report.area_values[0] == Fraction(3, 2)

    def test_unequal_windows_fail(self):
        report = necessary_condition_areas(4, [1, 1, 1, 4])
        assert not report.equal
        assert not report.satisfied

    def test_centroid_square_passes(self):
        report = necessary_condition_areas(4, [1, 1, 1, 1])
        assert report.satisfied
        assert report.area_values == (Fraction(1, 2), Fraction(1, 2))

    def test_irrational_area_detected(self):
        # windows agree but the common area is irrational: not satisfied
        report = necessary_condition_areas(4, [1, 2, 3, 2])
        assert report.equal
        assert report.scaled_area_sq == (Fraction(3, 4), Fraction(3, 4))
        assert not report.rational[0]
        assert not report.satisfied

    def test_bad_inputs(self):
        with pytest.raises(NonRationalInputError):
            necessary_condition_areas(5, [1] * 5)
        with pytest.raises(NonRationalInputError):
            necessary_condition_areas(4, ["x", 1, 1, 1])

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_nonfinite_input_is_not_rational(self, bad):
        with pytest.raises(NonRationalInputError):
            necessary_condition_areas(4, [1, 5, 9, bad])


class TestReport:
    def test_full_pipeline(self):
        report = rational24_report()
        assert report.conclusion == "no rational-distance point exists"
        assert report.certificate.certified
        assert report.certificate.fully_irreducible
        assert abs(report.quartic_residual) < 1e-9
        assert abs(report.octic_float_residual) < 1e-12
        assert report.rational_root_count == 0
        assert all(sign != 0 for _, sign in report.approximant_values)

    def test_render_contains_key_facts(self):
        text = rational24_report().render()
        assert "0.13052619" in text
        assert "degree: 8" in text
        assert "certifying_prime:" in text
        assert "factor_degrees:" in text
        assert "conclusion: no rational-distance point exists" in text
        assert text.count("```") == 2
        assert "no rational-distance point exists" in text.splitlines()[-1]

    def test_inconclusive_report_shows_the_budget_message(self, monkeypatch):
        monkeypatch.setattr(intpoly, "SEARCH_BUDGET", 1)
        report = rational24_report()
        assert report.certificate.method == "inconclusive"
        (note,) = report.certificate.notes
        assert note.startswith("divisor search for degree 1 needs ")
        lines = report.render().splitlines()
        assert lines[lines.index("Certificate: INCONCLUSIVE; the degree bound was not "
                                 "established.") + 1] == f"    {note}"
        assert lines[-1] == "inconclusive: certificate search exhausted without a proof."

    def test_found_factor_report_shows_the_factor(self, monkeypatch):
        # (x^2 - 2)(x^2 - 3): no rational root, so the search finds the quadratic
        certificate = certify_no_small_factor(IntegerPolynomial((6, 0, -5, 0, 1)), 2)
        assert certificate.method == "divisor-search"
        assert not certificate.certified
        octic_text = rational24_report().render()
        text = dataclasses.replace(rational24_report(), certificate=certificate).render()
        assert f"    found factor {certificate.small_factor}\n" in text
        # a report built around such a certificate concludes the same
        monkeypatch.setattr(ratdist, "certify_no_small_factor", lambda p, max_degree: certificate)
        report = rational24_report()
        assert report.conclusion == "p is reducible"
        assert report.render() == text.replace("conclusion: no rational-distance point exists",
                                               "conclusion: p is reducible")
        lines = text.splitlines()
        assert lines[lines.index("    found factor -1*x^2 + 2") - 1] == (
            "Certificate: NONE; the divisor search found a factor of degree 2, "
            "so p is reducible.")
        assert "INCONCLUSIVE" not in text and "exhausted" not in text
        assert lines[-1] == ("reducible: the search found a factor of p, "
                             "so p proves no degree bound.")
        assert "found factor" not in octic_text

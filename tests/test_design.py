"""The design-moment closed form, against its two former hand-written states.

The Hypothesis properties against the exact oracles are in
test_design_properties.py, so these run without Hypothesis installed."""

import math
from fractions import Fraction

import pytest

from cyclicavg.polygon import design_coefficients


@pytest.mark.parametrize("m", range(1, 30))
def test_circle_coefficients_are_central_binomials(m):
    expected = tuple(math.comb(m, 2 * k) * math.comb(2 * k, k)
                     for k in range(1, m // 2 + 1))
    coeffs = design_coefficients(m, 2)
    assert coeffs == expected
    assert all(type(c) is int for c in coeffs)


def test_sphere_coefficients_match_the_former_solid_formulas():
    F = Fraction
    former = {1: (), 2: (F(4, 3),), 3: (4,), 4: (8, F(16, 5)), 5: (F(40, 3), 16)}
    for m, expected in former.items():
        assert design_coefficients(m, 3) == expected


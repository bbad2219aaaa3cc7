"""The design-moment closed form, against its two former hand-written states
and against the exact oracles."""

import math
from fractions import Fraction

import pytest

from cyclicavg.geometry import SolidKind, SolidSpec, SpacePlacement
from cyclicavg.polygon import design_coefficients, power_sum_brute_exact, power_sum_closed_sq
from cyclicavg.solids import MAX_POWER_INDEX, solid_power_sum_brute, solid_power_sum_closed_sq


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


hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
SETTINGS = hypothesis.settings(max_examples=40, deadline=None, derandomize=True,
                               database=None)
positive = st.fractions(min_value=Fraction(1, 20), max_value=5, max_denominator=20)
coordinate = st.fractions(min_value=-3, max_value=3, max_denominator=20)
# cosine cycles each polygon can be placed on exactly
CYCLES = {3: (3, 6, 12), 4: (4, 8, 12), 6: (6, 12), 8: (8,), 12: (12,)}


@SETTINGS
@hypothesis.given(st.data(), positive, positive)
def test_polygon_closed_form_equals_exact_oracle(data, R, L):
    n = data.draw(st.sampled_from(sorted(CYCLES)))
    m = data.draw(st.integers(1, n - 1))
    cycle = data.draw(st.sampled_from(CYCLES[n]))
    offset = data.draw(st.integers(0, cycle - 1))
    assert power_sum_brute_exact(n, m, R, L, cycle, offset) \
        == power_sum_closed_sq(n, m, R * R, L * L)


@SETTINGS
@hypothesis.given(st.sampled_from(list(SolidKind)), st.data(), positive,
                  coordinate, coordinate, coordinate)
def test_solid_closed_form_equals_exact_oracle(kind, data, c, x, y, z):
    m = data.draw(st.integers(1, MAX_POWER_INDEX[kind]))
    spec = SolidSpec(kind, c)
    p = SpacePlacement(x, y, z)
    assert solid_power_sum_brute(spec, m, p) \
        == solid_power_sum_closed_sq(kind, m, spec.R_sq, p.L_sq)

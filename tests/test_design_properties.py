"""Hypothesis properties: the design-moment closed form equals the exact
oracles, for polygons at every turn of every cycle and for the solids."""

from fractions import Fraction

import pytest

from cyclicavg.geometry import SolidKind, SolidSpec, SpacePlacement
from cyclicavg.polygon import power_sum_brute_exact, power_sum_closed_sq
from cyclicavg.solids import solid_power_sum_brute, solid_power_sum_closed_sq


hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
SETTINGS = hypothesis.settings(max_examples=40, deadline=None, derandomize=True,
                               database=None)
positive = st.fractions(min_value=Fraction(1, 20), max_value=5, max_denominator=20)
coordinate = st.fractions(min_value=-3, max_value=3, max_denominator=20)


@SETTINGS
@hypothesis.given(st.data(), positive, positive)
def test_polygon_closed_form_equals_exact_oracle(data, R, L):
    n = data.draw(st.integers(3, 16))
    m = data.draw(st.integers(1, n - 1))
    cycle = n * data.draw(st.integers(1, 3))
    offset = data.draw(st.integers(0, cycle - 1))
    assert power_sum_brute_exact(n, m, R, L, cycle, offset) \
        == power_sum_closed_sq(n, m, R * R, L * L)


@SETTINGS
@hypothesis.given(st.sampled_from(list(SolidKind)), st.data(), positive,
                  coordinate, coordinate, coordinate)
def test_solid_closed_form_equals_exact_oracle(kind, data, c, x, y, z):
    m = data.draw(st.integers(1, kind.t))
    spec = SolidSpec(kind, c)
    p = SpacePlacement(x, y, z)
    assert solid_power_sum_brute(spec, m, p) \
        == solid_power_sum_closed_sq(kind, m, spec.R_sq, p.L_sq)

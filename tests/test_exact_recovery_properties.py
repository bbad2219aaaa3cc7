"""Hypothesis properties: exact data recover {R^2, L^2} exactly, from a
polygon's or the icosahedron's averages and from a polygon's distances."""

from fractions import Fraction

import pytest

from cyclicavg.errors import OutOfRangeError
from cyclicavg.geometry import SolidKind, SolidSpec, SpacePlacement
from cyclicavg.polygon import polygon_distances_sq_exact, recover_r2_l2
from cyclicavg.relations import recover_spec_from_distances
from cyclicavg.solids import recover_r2_l2_solid, solid_power_sum_brute

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
SETTINGS = hypothesis.settings(max_examples=100, deadline=None, derandomize=True,
                               database=None)
positives = st.fractions(min_value=Fraction(1, 100), max_value=100, max_denominator=100)
nonnegatives = st.fractions(min_value=0, max_value=100, max_denominator=100)
coordinates = st.fractions(min_value=-10, max_value=10, max_denominator=30)


@SETTINGS
@hypothesis.given(positives, nonnegatives)
def test_polygon_averages_recover_exactly(r_sq, l_sq):
    s2 = r_sq + l_sq
    assert {*recover_r2_l2(s2, s2 * s2 + 2 * r_sq * l_sq)} == {r_sq, l_sq}


@SETTINGS
@hypothesis.given(positives, coordinates, coordinates, coordinates)
def test_icosahedron_averages_recover_exactly(c, x, y, z):
    # the averages lie in Q(sqrt 5), and so does the discriminant's root
    spec, p = SolidSpec(SolidKind.ICOSAHEDRON, c), SpacePlacement(x, y, z)
    s2, s4 = (solid_power_sum_brute(spec, m, p) / spec.n for m in (1, 2))
    assert {*recover_r2_l2_solid(s2, s4)} == {spec.R_sq, p.L_sq}


@SETTINGS
@hypothesis.given(st.sampled_from((3, 4, 6)), positives, nonnegatives, st.integers(0, 11))
def test_polygon_distances_recover_exactly(n, R, L, offset):
    try:
        d_sq = polygon_distances_sq_exact(n, R, L, 12, offset)
    except OutOfRangeError:  # some turns of the 12-cycle give irrational distances
        hypothesis.assume(False)
    assert {*recover_spec_from_distances(n, d_sq).plus} == {R * R, L * L}

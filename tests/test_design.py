"""The design-moment closed form, against its two former hand-written states,
and the one figure interface (n, dim, t) that polygons and solids share.

The Hypothesis properties against the exact oracles are in
test_design_properties.py, so these run without Hypothesis installed."""

import math
from fractions import Fraction

import pytest

from cyclicavg.errors import OutOfRangeError
from cyclicavg.geometry import PolygonSpec, SolidKind, SolidSpec
from cyclicavg.polygon import (
    Locus,
    _design_sum,
    cyclic_average,
    design_coefficients,
    locus_classify,
    power_sum_closed,
    power_sum_closed_sq,
)
from cyclicavg.solids import solid_locus_classify, solid_power_sum_closed_sq


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


# the strengths the README states: 2 (tetrahedron), 3 (octahedron, cube),
# 5 (icosahedron, dodecahedron)
SOLID_STRENGTH = {SolidKind.TETRAHEDRON: 2, SolidKind.OCTAHEDRON: 3, SolidKind.CUBE: 3,
                  SolidKind.ICOSAHEDRON: 5, SolidKind.DODECAHEDRON: 5}


def _figure(figure, scale):
    """(spec, closed-form sum from squares, own locus)."""
    if isinstance(figure, int):
        return (PolygonSpec(figure, scale),
                lambda m, r_sq, l_sq: power_sum_closed_sq(figure, m, r_sq, l_sq),
                locus_classify)
    return (SolidSpec(figure, scale),
            lambda m, r_sq, l_sq: solid_power_sum_closed_sq(figure, m, r_sq, l_sq),
            solid_locus_classify)


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
@pytest.mark.parametrize("figure", [*range(3, 9), *SolidKind], ids=str)
def test_one_interface_serves_polygons_and_solids(figure, exact):
    scale, L = (Fraction(3, 2), Fraction(2, 3)) if exact else (1.5, 2 / 3)
    spec, closed_sq, own_locus = _figure(figure, scale)
    r_sq = spec.R_sq
    assert spec.t == (figure - 1 if isinstance(figure, int) else SOLID_STRENGTH[figure])
    for m in range(1, spec.t + 1):
        total = closed_sq(m, r_sq, L * L)
        assert power_sum_closed(spec, m, L) == total
        assert cyclic_average(spec, m, L).value \
            == _design_sum(m, spec.dim, r_sq + L * L, r_sq * (L * L))
        centre = spec.n * r_sq ** m
        assert locus_classify(spec, m, centre) == Locus("centroid")
        locus = locus_classify(spec, m, total)
        assert locus == own_locus(spec, m, total)
        assert locus.kind == ("circle" if spec.dim == 2 else "sphere")
        assert locus.L == pytest.approx(2 / 3, rel=1e-9)
    for fn in (power_sum_closed, cyclic_average, locus_classify):
        with pytest.raises(OutOfRangeError, match=spec.name):
            fn(spec, spec.t + 1, L)


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
@pytest.mark.parametrize("figure", [4, SolidKind.CUBE], ids=str)
def test_closed_form_refuses_negative_L(figure, exact):
    # d^2 depends on L only through L^2, so a negative L used to be answered
    spec = _figure(figure, Fraction(1) if exact else 1.0)[0]
    for fn in (power_sum_closed, cyclic_average):
        with pytest.raises(OutOfRangeError, match="L must be >= 0"):
            fn(spec, 3, Fraction(-2) if exact else -2.0)

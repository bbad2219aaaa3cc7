import itertools
import math
import random
from fractions import Fraction

import pytest

from cyclicavg.errors import OutOfRangeError
from cyclicavg.fields import GOLDEN_RATIO, Surd
from cyclicavg.polygon import polygon_distances_sq_exact
from cyclicavg.geometry import (
    _TRACE,
    PlanePlacement,
    PolygonSpec,
    SolidKind,
    SolidSpec,
    SpacePlacement,
    heron_area_16sq,
    polygon_distances_sq,
    polygon_side_sq,
    polygon_vertex,
    solid_distances_sq,
    solid_vertices,
    sum_basis,
)

ALL_KINDS = list(SolidKind)


def test_polygon_spec_validation():
    with pytest.raises(OutOfRangeError):
        PolygonSpec(2, 1.0)
    with pytest.raises(OutOfRangeError):
        PolygonSpec(4, 0.0)
    with pytest.raises(OutOfRangeError):
        PlanePlacement(-0.5)


def test_polygon_distance_collinear_cases():
    spec = PolygonSpec(4, 1.0)
    p = PlanePlacement(2.0, 0.0)
    d_sq = polygon_distances_sq(spec, p)
    assert d_sq[0] == pytest.approx(1.0)   # (2-1)^2
    assert d_sq[2] == pytest.approx(9.0)   # (2+1)^2
    assert d_sq[1] == pytest.approx(5.0)   # to (0,1)
    assert len(d_sq) == 4
    with pytest.raises(OutOfRangeError):
        polygon_vertex(spec, 5)
    with pytest.raises(OutOfRangeError):
        polygon_vertex(spec, 0)


def test_polygon_distance_matches_cartesian():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(3, 20)
        spec = PolygonSpec(n, rng.uniform(0.1, 8.0))
        p = PlanePlacement(rng.uniform(0.0, 8.0), rng.uniform(0.0, 2 * math.pi))
        i = rng.randint(1, n)
        vx, vy = polygon_vertex(spec, i)
        px, py = p.L * math.cos(p.alpha), p.L * math.sin(p.alpha)
        direct = (px - vx) ** 2 + (py - vy) ** 2
        value = polygon_distances_sq(spec, p)[i - 1]
        assert abs(value - direct) <= 1e-12 * max(direct, 1e-12)


H = Fraction(1, 2)
# cos(2*pi*k/n), k = 0..n-1, for the polygons whose cosines are rational
RATIONAL_COS_CYCLES = {3: (1, -H, -H), 4: (1, 0, -1, 0), 6: (1, H, -H, -1, -H, H)}


@pytest.mark.parametrize("n", [3, 4, 6])
def test_exact_distances_match_cartesian_at_alpha_zero(n):
    # at alpha = 0 the cross terms with sin alpha vanish, so the direct
    # Cartesian computation is rational too: d^2 = (L - R c)^2 + R^2 (1 - c^2)
    R, L = Fraction(3, 2), Fraction(5, 7)
    cycle = RATIONAL_COS_CYCLES[n]
    d_sq = polygon_distances_sq_exact(n, R, L)
    for i in range(n):
        c = cycle[(-i) % n]
        expected = (L - R * c) ** 2 + R * R * (1 - c * c)
        assert d_sq[i] == expected


def test_sum_basis_invariant():
    rng = random.Random(7)
    for _ in range(200):
        R = Fraction(rng.randint(1, 60), rng.randint(1, 60))
        L = Fraction(rng.randint(0, 60), rng.randint(1, 60))
        a, b = sum_basis(R, L)
        assert a >= b >= 0
        assert (a == b) == (R == L)


def test_every_distance_at_least_gap_squared():
    rng = random.Random(9)
    for _ in range(200):
        n = rng.randint(3, 16)
        R = rng.uniform(0.1, 5.0)
        L = rng.uniform(0.0, 5.0)
        spec = PolygonSpec(n, R)
        p = PlanePlacement(L, rng.uniform(0, 2 * math.pi))
        for d_sq in polygon_distances_sq(spec, p):
            assert d_sq >= (R - L) ** 2 - 1e-9


def test_polygon_side_sq():
    assert polygon_side_sq(3, Fraction(1)) == 3
    assert polygon_side_sq(4, Fraction(9, 4)) == Fraction(9, 2)
    assert polygon_side_sq(6, Fraction(4)) == 4
    assert polygon_side_sq(5, 1.0) == pytest.approx(4 * math.sin(math.pi / 5) ** 2)


def test_trace_table_holds_every_integer_trace():
    # 2 cos(2 pi/n) is an integer exactly for n = 3, 4, 6 (crystallographic restriction)
    for n in range(3, 65):
        trace = 2 * math.cos(2 * math.pi / n)
        assert (abs(trace - round(trace)) < 1e-9) == (n in _TRACE)
        if n in _TRACE:
            assert round(trace) == _TRACE[n]


class TestSolidVertices:
    def test_tetrahedron_coordinates(self):
        assert set(solid_vertices(SolidKind.TETRAHEDRON, 1)) == {
            (1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)}

    def test_octahedron_coordinates(self):
        assert set(solid_vertices(SolidKind.OCTAHEDRON, 1)) == {
            (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)}

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_counts_and_centroid(self, kind):
        vs = solid_vertices(kind, Fraction(1))
        assert len(vs) == kind.n
        for axis in range(3):
            assert sum(v[axis] for v in vs) == 0

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_circumradius_exact(self, kind):
        spec = SolidSpec(kind, Fraction(2, 3))
        for v in solid_vertices(kind, Fraction(2, 3)):
            assert sum(t * t for t in v) == spec.R_sq

    @pytest.mark.parametrize("kind", [k for k in ALL_KINDS if k != SolidKind.TETRAHEDRON])
    def test_consecutive_vertices_are_antipodal(self, kind):
        vs = solid_vertices(kind, Fraction(1))
        for j in range(kind.n // 2):
            a, b = vs[2 * j], vs[2 * j + 1]
            assert all(x == -y for x, y in zip(a, b))

    def test_tetrahedron_edges_all_equal(self):
        vs = solid_vertices(SolidKind.TETRAHEDRON, Fraction(1))
        gaps = {sum((x - y) ** 2 for x, y in zip(u, v))
                for u, v in itertools.combinations(vs, 2)}
        assert gaps == {8}

    @pytest.mark.parametrize("kind,edge_sq_over_csq", [
        (SolidKind.OCTAHEDRON, 2),
        (SolidKind.CUBE, 4),
    ])
    def test_edge_lengths(self, kind, edge_sq_over_csq):
        vs = solid_vertices(kind, Fraction(1))
        pairwise = sorted(sum((x - y) ** 2 for x, y in zip(u, v))
                          for u, v in itertools.combinations(vs, 2))
        assert pairwise[0] == edge_sq_over_csq

    def test_icosahedron_edge_structure(self):
        # every vertex has exactly 5 nearest neighbours at squared distance 4c^2
        vs = solid_vertices(SolidKind.ICOSAHEDRON, Fraction(1))
        for u in vs:
            gaps = sorted(sum((x - y) ** 2 for x, y in zip(u, v))
                          for v in vs if v != u)
            assert gaps[:5] == [Surd(4)] * 5 or gaps[:5] == [4] * 5

    @pytest.mark.parametrize("kind,n,r_sq_over_csq", [
        (SolidKind.TETRAHEDRON, 4, 3),
        (SolidKind.OCTAHEDRON, 6, 1),
        (SolidKind.CUBE, 8, 3),
        (SolidKind.ICOSAHEDRON, 12, 1 + GOLDEN_RATIO ** 2),
        (SolidKind.DODECAHEDRON, 20, 3),
    ])
    def test_count_and_circumradius_read_off_the_table(self, kind, n, r_sq_over_csq):
        assert kind.n == n
        assert SolidSpec(kind, Fraction(1)).R_sq == r_sq_over_csq
        assert SolidSpec(kind, Fraction(5, 4)).R_sq == r_sq_over_csq * Fraction(25, 16)

    def test_cube_halves_are_regular_tetrahedra(self):
        c = Fraction(5, 4)
        vs = solid_vertices(SolidKind.CUBE, c)
        for half in (vs[0::2], vs[1::2]):
            gaps = [sum((x - y) ** 2 for x, y in zip(u, v))
                    for u, v in itertools.combinations(half, 2)]
            assert gaps == [8 * c * c] * 6

    def test_dodecahedron_contains_cube(self):
        cube = solid_vertices(SolidKind.CUBE, Fraction(1))
        dodeca = solid_vertices(SolidKind.DODECAHEDRON, Fraction(1))
        assert dodeca[:8] == cube


def test_solid_distance_examples():
    octa = SolidSpec(SolidKind.OCTAHEDRON, 1.0)
    assert solid_distances_sq(octa, SpacePlacement(0.0, 0.0, 1.0))[4] == pytest.approx(0.0)
    tetra = SolidSpec(SolidKind.TETRAHEDRON, 1.0)
    assert solid_distances_sq(tetra, SpacePlacement(1.0, 0.0, 0.0))[0] == pytest.approx(2.0)
    cube = SolidSpec(SolidKind.CUBE, 1.0)
    d_sq = solid_distances_sq(cube, SpacePlacement(0.0, 0.0, 0.0))
    assert list(d_sq) == pytest.approx([3.0] * 8)


def test_space_placement_length_identity_exact():
    p = SpacePlacement(Fraction(1, 3), Fraction(-2, 5), Fraction(7, 4))
    assert p.L_sq == Fraction(1, 9) + Fraction(4, 25) + Fraction(49, 16)


def test_solid_spec_from_circumradius():
    for kind in ALL_KINDS:
        spec = SolidSpec.from_circumradius(kind, 2.5)
        assert spec.R == pytest.approx(2.5)
        for v in solid_vertices(kind, spec.c):
            assert sum(t * t for t in v) == pytest.approx(6.25)
        for R in (0.0, -1.0):
            with pytest.raises(OutOfRangeError, match="circumradius must be positive"):
                SolidSpec.from_circumradius(kind, R)


def test_solid_kind_parse():
    assert SolidKind.parse("cube") is SolidKind.CUBE
    assert SolidKind.parse(" Icosahedron ") is SolidKind.ICOSAHEDRON
    with pytest.raises(OutOfRangeError):
        SolidKind.parse("pyramid")


class TestHeron:
    def test_reference_values(self):
        assert heron_area_16sq(1, 1, 1) == 3          # equilateral, side 1
        assert heron_area_16sq(1, 4, 9) == 0          # collinear 1, 2, 3
        # sides 1, 1, 3 break the triangle inequality; the factored form
        # (a+b+c)(-a+b+c)(a-b+c)(a+b-c) = 5*3*3*(-1) fixes the value
        assert heron_area_16sq(1, 1, 9) == -45

    def test_symmetry(self):
        values = (Fraction(2), Fraction(5, 3), Fraction(7))
        results = {heron_area_16sq(*perm) for perm in itertools.permutations(values)}
        assert len(results) == 1

    def test_matches_coordinate_area(self):
        rng = random.Random(3)
        for _ in range(100):
            ax, ay = rng.uniform(-3, 3), rng.uniform(-3, 3)
            bx, by = rng.uniform(-3, 3), rng.uniform(-3, 3)
            cx, cy = rng.uniform(-3, 3), rng.uniform(-3, 3)
            area = abs((bx - ax) * (cy - ay) - (cx - ax) * (by - ay)) / 2
            h16 = heron_area_16sq((ax - bx) ** 2 + (ay - by) ** 2,
                                  (bx - cx) ** 2 + (by - cy) ** 2,
                                  (cx - ax) ** 2 + (cy - ay) ** 2)
            assert h16 == pytest.approx(16 * area * area, rel=1e-9, abs=1e-9)

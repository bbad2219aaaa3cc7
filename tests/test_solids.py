import math
import random
from fractions import Fraction

import pytest

from cyclicavg.errors import (
    NegativeDiscriminantError,
    NoAntipodesError,
    OutOfRangeError,
)
from cyclicavg.fields import GOLDEN_RATIO, Surd
from cyclicavg.geometry import (
    SolidKind,
    SolidSpec,
    SpacePlacement,
    solid_distances_sq,
    solid_vertices,
)
from cyclicavg.polygon import _design_sum, _power_sum, cyclic_average
from cyclicavg.solids import (
    antipodal_pair_sums,
    circumsphere_residual,
    cube_quadruple_residuals,
    recover_r2_l2_solid,
    solid_locus_classify,
    solid_power_sum_brute,
    solid_power_sum_closed,
    solid_power_sum_closed_sq,
    solid_relation_residuals,
)

ALL_KINDS = list(SolidKind)
# exact scales and placements of every type, for the exact oracle kernel
EXACT_SCALES = (2, Fraction(3, 2), Surd(Fraction(1, 2), Fraction(1, 3)))
EXACT_PLACEMENTS = (
    (0, 0, 0),
    (1, -2, 3),
    (Fraction(1, 3), Fraction(-2, 5), Fraction(7, 2)),
    (Surd(1, 1), Surd(Fraction(-1, 2), 2), Surd(0, Fraction(1, 3))),
    (Fraction(5, 4), -1, Surd(Fraction(1, 2), Fraction(1, 2))),
)


def _random_point(rng, radius):
    while True:
        x, y, z = rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1)
        norm = math.sqrt(x * x + y * y + z * z)
        if norm > 1e-9:
            r = radius * rng.random() ** (1 / 3)
            return SpacePlacement(x / norm * r, y / norm * r, z / norm * r)


class TestClosedForms:
    def test_reference_values(self):
        tetra = SolidSpec(SolidKind.TETRAHEDRON, 1.0)   # R^2 = 3
        assert solid_power_sum_closed(tetra, 2, 1.0) == pytest.approx(80.0)
        octa = SolidSpec(SolidKind.OCTAHEDRON, 1.0)
        assert solid_power_sum_closed(octa, 2, 1.0) == pytest.approx(32.0)
        for kind in ALL_KINDS:
            spec = SolidSpec(kind, 1.0)
            for m in range(1, kind.t + 1):
                centroid = solid_power_sum_closed(spec, m, 0.0)
                assert centroid == pytest.approx(kind.n * float(spec.R_sq) ** m)

    def test_power_range_is_enforced(self):
        with pytest.raises(OutOfRangeError):
            solid_power_sum_closed(SolidSpec(SolidKind.TETRAHEDRON, 1.0), 3, 1.0)
        with pytest.raises(OutOfRangeError):
            solid_power_sum_closed(SolidSpec(SolidKind.CUBE, 1.0), 4, 1.0)
        with pytest.raises(OutOfRangeError):
            solid_power_sum_closed(SolidSpec(SolidKind.ICOSAHEDRON, 1.0), 6, 1.0)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_brute_force(self, kind):
        rng = random.Random(500 + kind.n)
        spec = SolidSpec(kind, rng.uniform(0.5, 2.0))
        for m in range(1, kind.t + 1):
            for _ in range(100):
                p = _random_point(rng, 3.0 * spec.R)
                closed = solid_power_sum_closed_sq(kind, m, float(spec.R_sq),
                                                   float(p.L_sq))
                brute = solid_power_sum_brute(spec, m, p)
                assert abs(closed - brute) / brute < 1e-9

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_exact_backends_agree(self, kind):
        spec = SolidSpec(kind, Fraction(4, 3))
        p = SpacePlacement(Fraction(1, 2), Fraction(-1, 3), Fraction(2, 7))
        for m in range(1, kind.t + 1):
            closed = solid_power_sum_closed_sq(kind, m, spec.R_sq, p.L_sq)
            brute = solid_power_sum_brute(spec, m, p)
            assert closed == brute

    def test_cross_solid_equality(self):
        rng = random.Random(77)
        for _ in range(30):
            R = rng.uniform(0.5, 3.0)
            p = _random_point(rng, 2.0 * R)
            for m in (1, 2):
                values = [solid_power_sum_brute(SolidSpec.from_circumradius(k, R), m, p)
                          / k.n for k in ALL_KINDS]
                assert max(values) - min(values) < 1e-9 * min(values)

    def test_direction_dependence_beyond_range(self):
        # the tetrahedron's third-power sum feels the direction of the point
        spec = SolidSpec(SolidKind.TETRAHEDRON, 1.0)
        along_x = solid_power_sum_brute(spec, 3, SpacePlacement(1.0, 0.0, 0.0))
        along_v = solid_power_sum_brute(
            spec, 3, SpacePlacement(*(1 / math.sqrt(3),) * 3))
        assert along_x == pytest.approx(448.0)
        assert abs(along_x - along_v) > 1e-3 * along_x

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_direction_witness_at_first_invalid_power(self, kind):
        rng = random.Random(900 + kind.n)
        spec = SolidSpec(kind, 1.0)
        m = kind.t + 1
        L = spec.R
        values = []
        for _ in range(60):
            x, y, z = rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1)
            norm = math.sqrt(x * x + y * y + z * z)
            values.append(solid_power_sum_brute(
                spec, m, SpacePlacement(L * x / norm, L * y / norm, L * z / norm)))
        assert (max(values) - min(values)) / min(values) > 1e-3


class TestBruteForce:
    def test_cube_centre(self):
        spec = SolidSpec(SolidKind.CUBE, 1.0)
        assert solid_power_sum_brute(spec, 3, SpacePlacement(0.0, 0.0, 0.0)) \
            == pytest.approx(216.0)

    def test_icosahedron_exact_value_on_axis(self):
        spec = SolidSpec(SolidKind.ICOSAHEDRON, Fraction(1))
        value = solid_power_sum_brute(spec, 1, SpacePlacement(0, 0, Fraction(1)))
        phi_sq = GOLDEN_RATIO * GOLDEN_RATIO
        assert value == 12 * (2 + phi_sq)
        assert value == Surd(42, 6)

    @pytest.mark.parametrize("c", EXACT_SCALES, ids=repr)
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_exact_kernel_matches_generic_sum(self, kind, c):
        spec = SolidSpec(kind, c)
        on_vertex = SpacePlacement(*solid_vertices(kind, c)[1])
        assert 0 in solid_distances_sq(spec, on_vertex)
        for p in [SpacePlacement(*xyz) for xyz in EXACT_PLACEMENTS] + [on_vertex]:
            for m in (*range(1, kind.t + 4), 12):
                kernel = solid_power_sum_brute(spec, m, p)
                generic = _power_sum(solid_distances_sq(spec, p), m)
                assert kernel == generic
                assert type(kernel) is type(generic)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_nonpositive_power_is_refused(self, kind):
        for c, p in ((Fraction(3, 2), SpacePlacement(1, 0, Surd(0, 1))),
                     (1.5, SpacePlacement(1.0, 0.0, 0.0))):
            for m in (0, -1):
                with pytest.raises(OutOfRangeError, match=r"^power index m must be >= 1$"):
                    solid_power_sum_brute(SolidSpec(kind, c), m, p)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_one_float_input_takes_the_fsum_path(self, kind):
        values = [Fraction(3, 2), Fraction(1, 3), Surd(Fraction(-1, 2), 1), 2]
        slot = ALL_KINDS.index(kind) % len(values)
        values[slot] = float(values[slot])
        spec, p = SolidSpec(kind, values[0]), SpacePlacement(*values[1:])
        m = kind.t + 1
        value = solid_power_sum_brute(spec, m, p)
        assert type(value) is float
        assert value == math.fsum(float(d) ** m for d in solid_distances_sq(spec, p))


class TestLocus:
    def test_sphere(self):
        spec = SolidSpec(SolidKind.TETRAHEDRON, 1.0)   # R = sqrt(3)
        locus = solid_locus_classify(spec, 2, 80.0)
        assert locus.kind == "sphere"
        assert locus.L == pytest.approx(1.0, rel=1e-10)

    def test_centroid_and_empty(self):
        octa = SolidSpec(SolidKind.OCTAHEDRON, 1.0)
        assert solid_locus_classify(octa, 3, 6.0).kind == "centroid"
        dodeca = SolidSpec(SolidKind.DODECAHEDRON, 1.0)  # n R^10 = 20 * 243
        assert solid_locus_classify(dodeca, 5, 1.0).kind == "empty"

    def test_round_trip(self):
        rng = random.Random(55)
        for kind in ALL_KINDS:
            spec = SolidSpec(kind, 1.0)
            for m in range(1, kind.t + 1):
                L = rng.uniform(0.05, 4.0)
                C = solid_power_sum_closed(spec, m, L)
                locus = solid_locus_classify(spec, m, C)
                assert locus.kind == "sphere"
                assert locus.L == pytest.approx(L, rel=1e-9)

    def test_backward_error(self):
        rng = random.Random(23)
        for kind in ALL_KINDS:
            for m in range(1, kind.t + 1):
                for _ in range(50):
                    spec = SolidSpec(kind, rng.uniform(1e-4, 10.0))
                    L = rng.uniform(1e-4, 10.0)
                    C = solid_power_sum_closed(spec, m, L)
                    locus = solid_locus_classify(spec, m, C)
                    assert locus.kind == "sphere"
                    back = solid_power_sum_closed(spec, m, locus.L)
                    assert abs(back - C) / C <= 1e-13, (kind, m, spec.c, L)


class TestRelations:
    def test_recover_reference_values(self):
        # forward data from R^2 = 3, L^2 = 1: S4 = 16 + (4/3)*3 = 20
        pair = recover_r2_l2_solid(Fraction(4), Fraction(20))
        assert set(pair) == {3, 1}
        assert set(recover_r2_l2_solid(Fraction(1), Fraction(1))) == {0, 1}
        assert set(recover_r2_l2_solid(Fraction(2), Fraction(16, 3))) == {1}
        with pytest.raises(NegativeDiscriminantError):
            recover_r2_l2_solid(1.0, 2.0)

    def test_relation_rows_exact(self):
        for kind in ALL_KINDS:
            spec = SolidSpec(kind, Fraction(1))
            r_sq = spec.R_sq
            l_sq = Fraction(7, 5)
            avgs = {m: _design_sum(m, 3, r_sq, l_sq)
                    for m in range(1, kind.t + 1)}
            rows = solid_relation_residuals(kind, r_sq, avgs.get(1), avgs.get(2),
                                            avgs.get(3), avgs.get(4), avgs.get(5))
            expected_rows = {SolidKind.TETRAHEDRON: 1,
                             SolidKind.OCTAHEDRON: 3, SolidKind.CUBE: 3,
                             SolidKind.ICOSAHEDRON: 7, SolidKind.DODECAHEDRON: 7}
            assert len(rows) == expected_rows[kind]
            for label, lhs, rhs in rows:
                assert lhs == rhs, (kind, label)

    def test_circumsphere_reference_values(self):
        # octahedron, point on the axis: distances (2,2,2,2,0,4)
        spec = SolidSpec(SolidKind.OCTAHEDRON, Fraction(1))
        d_sq = solid_distances_sq(spec, SpacePlacement(0, 0, Fraction(1)))
        assert d_sq == (2, 2, 2, 2, 0, 4)
        assert circumsphere_residual(d_sq) == 0
        # centroid: residual n^2 R^4
        for kind in ALL_KINDS:
            d_sq = tuple([Fraction(9)] * kind.n)   # R^2 = 9
            assert circumsphere_residual(d_sq) == kind.n ** 2 * 81

    def test_circumsphere_vanishes_on_sphere(self):
        rng = random.Random(71)
        for kind in ALL_KINDS:
            spec = SolidSpec(kind, 1.0)
            for _ in range(50):
                x, y, z = rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1)
                norm = math.sqrt(x * x + y * y + z * z)
                p = SpacePlacement(*(spec.R * t / norm for t in (x, y, z)))
                d_sq = solid_distances_sq(spec, p)
                residual = circumsphere_residual(d_sq)
                assert abs(residual) < 1e-9 * (4 * sum(d_sq) ** 2)

    def test_cube_quadruples(self):
        spec = SolidSpec(SolidKind.CUBE, Fraction(1))
        p = SpacePlacement(Fraction(1), Fraction(0), Fraction(0))
        d_sq = solid_distances_sq(spec, p)
        assert all(r == 0 for r in cube_quadruple_residuals(d_sq, Fraction(3),
                                                            Fraction(1)))
        rng = random.Random(73)
        fspec = SolidSpec(SolidKind.CUBE, 1.0)
        for _ in range(50):
            p = _random_point(rng, 4.0)
            d_sq = solid_distances_sq(fspec, p)
            scale = solid_power_sum_closed_sq(SolidKind.TETRAHEDRON, 2, 3.0, float(p.L_sq))
            worst = max(abs(r) for r in cube_quadruple_residuals(d_sq, 3.0,
                                                                 float(p.L_sq)))
            assert worst < 1e-9 * scale

    def test_antipodal_pairs(self):
        spec = SolidSpec(SolidKind.OCTAHEDRON, Fraction(1))
        d_sq = solid_distances_sq(spec, SpacePlacement(0, 0, Fraction(1)))
        assert antipodal_pair_sums(SolidKind.OCTAHEDRON, d_sq) == (4, 4, 4)
        with pytest.raises(NoAntipodesError):
            antipodal_pair_sums(SolidKind.TETRAHEDRON, (1, 2, 3, 4))

    def test_antipodal_pairs_constant_for_placements(self):
        rng = random.Random(79)
        for kind in [k for k in ALL_KINDS if k is not SolidKind.TETRAHEDRON]:
            spec = SolidSpec(kind, 1.0)
            for _ in range(50):
                p = _random_point(rng, 3.0)
                sums = antipodal_pair_sums(kind, solid_distances_sq(spec, p))
                expected = 2 * (float(spec.R_sq) + float(p.L_sq))
                assert max(abs(s - expected) for s in sums) < 1e-9 * expected

    def test_embedded_tetrahedra_match_closed_forms(self):
        # the cube's odd-indexed quadruple is itself a regular tetrahedron and
        # follows the tetrahedron closed form with the same R and L
        spec = SolidSpec(SolidKind.CUBE, Fraction(2, 3))
        p = SpacePlacement(Fraction(1, 5), Fraction(1, 2), Fraction(-2, 7))
        d_sq = solid_distances_sq(spec, p)
        odd = [d_sq[i] for i in (0, 2, 4, 6)]
        for m in (1, 2):
            expected = solid_power_sum_closed_sq(SolidKind.TETRAHEDRON, m, spec.R_sq, p.L_sq)
            assert sum(v ** m for v in odd) == expected


def test_cyclic_average_wrapper():
    avg = cyclic_average(SolidSpec(SolidKind.OCTAHEDRON, 1.0), 2, 1.0)
    assert avg.value == pytest.approx(32.0 / 6.0)
    assert avg.m == 2

"""Seeded verification sweeps over every identity the library implements.

Each sweep draws its randomness from its own deterministically derived
generator, so a given (scope, seed) prints byte-identical output on every
run.  Residuals are tracked relative to the magnitude of what they check.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from . import errata as errata_mod
from . import ratdist, trigsums
from .fields import GOLDEN_RATIO, rel_err
from .intpoly import certify_no_small_factor, rational_roots
from .geometry import (
    PlanePlacement,
    PolygonSpec,
    SolidKind,
    SolidSpec,
    SpacePlacement,
    polygon_distances_sq,
    polygon_side_sq,
    solid_distances_sq,
    solid_vertices,
)
from .polygon import (
    _power_sums_exact,
    circumcircle_residual,
    per_vertex_power_sum_sq,
    power_sum_brute,
    power_sum_closed_sq,
    recover_r2_l2,
)
from .relations import (
    opposite_pair_sums,
    recover_spec_from_distances,
    solve_distances,
    square_sixth_factorization_residual,
    square_symmetric_residual,
    subset_sum_residuals,
    triangle_symmetric_residual,
)
from .solids import (
    MAX_POWER_INDEX,
    antipodal_pair_sums,
    circumsphere_residual,
    cube_quadruple_residuals,
    per_vertex_solid_power_sum_sq,
    recover_r2_l2_solid,
    solid_power_sum_brute,
    solid_power_sum_closed_sq,
    solid_relation_residuals,
)

SCOPES = ("all", "polygon", "solid", "rational")


@dataclass
class SweepRow:
    name: str
    checks: int
    max_rel: float
    passed: bool
    note: str = ""


def _rng(seed: int, name: str) -> random.Random:
    return random.Random(f"{seed}/{name}")


def _row(name: str, checks: int, max_rel: float, tol: float, note: str = "") -> SweepRow:
    return SweepRow(name, checks, max_rel, max_rel < tol, note)


# ---------------------------------------------------------------------------
# polygon sweeps


def sweep_closed_vs_brute(seed: int) -> SweepRow:
    rng = _rng(seed, "closed-vs-brute")
    worst = 0.0
    checks = 0
    for n in range(3, 17):
        for m in range(1, n):
            for _ in range(50):
                R = rng.uniform(1e-3, 10.0)
                L = rng.uniform(1e-3, 10.0)
                alpha = rng.uniform(0.0, 2.0 * math.pi)
                spec = PolygonSpec(n, R)
                closed = power_sum_closed_sq(n, m, R * R, L * L)
                brute = power_sum_brute(spec, m, PlanePlacement(L, alpha))
                worst = max(worst, abs(closed - brute) / brute)
                checks += 1
    return _row("closed form vs brute force, n=3..16, m<n", checks, worst, 1e-9)


def sweep_alpha_boundary(seed: int) -> list[SweepRow]:
    # the witness is strongest at L = R, where the alpha-sensitive part of
    # the m = n sum peaks at 4n(RL)^n; its relative size still shrinks like
    # 4/2^n, so the pass condition is a contrast against the m = n-1 noise
    # floor rather than a fixed percentage
    rng = _rng(seed, "alpha-boundary")
    worst_free = 0.0
    weakest_contrast = math.inf
    checks = 0
    for n in range(3, 13):
        spec = PolygonSpec(n, 1.0)
        values_free = []
        values_dep = []
        for k in range(8 * n):
            alpha = 2.0 * math.pi * k / (8 * n) + rng.uniform(0.0, 0.002)
            values_free.append(power_sum_brute(spec, n - 1, PlanePlacement(1.0, alpha)))
            values_dep.append(power_sum_brute(spec, n, PlanePlacement(1.0, alpha)))
            checks += 2
        mean = math.fsum(values_free) / len(values_free)
        spread_free = (max(values_free) - min(values_free)) / mean
        spread_dep = (max(values_dep) - min(values_dep)) / min(values_dep)
        worst_free = max(worst_free, spread_free)
        weakest_contrast = min(weakest_contrast,
                               spread_dep / max(spread_free, 1e-15))
    rows = [_row("alpha-independence of the sum at m = n-1", checks // 2,
                 worst_free, 1e-9)]
    rows.append(SweepRow("alpha-dependence witness at m = n", checks // 2,
                         weakest_contrast, weakest_contrast > 1e3,
                         note="smallest spread contrast vs m = n-1"))
    return rows


def sweep_exact_interpolation(seed: int) -> SweepRow:
    # polynomial identity in L^2 for the 24-gon: closed form against the exact
    # vertex sum in Z[zeta_24] at m+1 rational nodes L, one pass per node
    del seed  # fully deterministic
    checks = 0
    for j in range(24):
        L = Fraction(2 * j + 1, 3)
        ms = range(max(1, j), 24)
        for m, brute in zip(ms, _power_sums_exact(24, ms, Fraction(1), L, None, 0)):
            if brute != power_sum_closed_sq(24, m, Fraction(1), L * L):
                return SweepRow("exact 24-gon interpolation identity, m=1..23",
                                checks, math.inf, False)
            checks += 1
    return SweepRow("exact 24-gon interpolation identity, m=1..23", checks, 0.0, True)


def sweep_cross_n_equality(seed: int) -> SweepRow:
    rng = _rng(seed, "cross-n")
    checks = 0
    for _ in range(40):
        r_sq = Fraction(rng.randint(1, 50), rng.randint(1, 50))
        l_sq = Fraction(rng.randint(0, 50), rng.randint(1, 50))
        for m in range(1, 12):
            reference = per_vertex_power_sum_sq(m, r_sq, l_sq)
            for n in range(m + 1, 14):
                value = power_sum_closed_sq(n, m, r_sq, l_sq)
                if value != n * reference:
                    return SweepRow("cross-n equality of cyclic averages",
                                    checks, math.inf, False)
                checks += 1
    return SweepRow("cross-n equality of cyclic averages", checks, 0.0, True)


def sweep_recover_exact(seed: int) -> SweepRow:
    rng = _rng(seed, "recover-exact")
    checks = 0
    for _ in range(100):
        r_sq = Fraction(rng.randint(1, 120), rng.randint(1, 60))
        l_sq = Fraction(rng.randint(0, 120), rng.randint(1, 60))
        s2 = r_sq + l_sq
        s4 = s2 * s2 + 2 * r_sq * l_sq
        hi, lo = recover_r2_l2(s2, s4)
        if {hi, lo} != {r_sq, l_sq}:
            return SweepRow("recover {R^2, L^2} from S2, S4 (exact)", checks,
                            math.inf, False)
        # reconstruct the averages from the recovered pair
        if hi + lo != s2 or (hi + lo) ** 2 + 2 * hi * lo != s4:
            return SweepRow("recover {R^2, L^2} from S2, S4 (exact)", checks,
                            math.inf, False)
        checks += 1
    return SweepRow("recover {R^2, L^2} from S2, S4 (exact)", checks, 0.0, True)


def _sorted_close(a, b) -> float:
    worst = 0.0
    for x, y in zip(sorted(a), sorted(b)):
        worst = max(worst, rel_err(float(x), float(y)))
    return worst


def sweep_solver_round_trips(seed: int) -> list[SweepRow]:
    rows = []
    for n in (3, 4, 6):
        rng = _rng(seed, f"solver-{n}")
        worst = 0.0
        worst_rec = 0.0
        for _ in range(100):
            R = rng.uniform(0.2, 5.0)
            L = rng.uniform(0.0, 5.0)
            alpha = rng.uniform(0.0, 2.0 * math.pi)
            d_sq = polygon_distances_sq(PolygonSpec(n, R), PlanePlacement(L, alpha))
            branches = solve_distances(n, R, L, d_sq[0])
            worst = max(worst, min(_sorted_close(b, d_sq) for b in branches))
            pair = recover_spec_from_distances(n, d_sq)
            best = min(
                max(rel_err(float(r2), R * R), rel_err(float(l2), L * L))
                for (r2, l2) in pair)
            worst_rec = max(worst_rec, best)
        rows.append(_row(f"distance solver round-trip, n={n}", 100, worst, 1e-9))
        rows.append(_row(f"(R^2, L^2) recovery from distances, n={n}", 100,
                         worst_rec, 1e-9))
    return rows


def sweep_identity_residuals(seed: int) -> list[SweepRow]:
    rng = _rng(seed, "identities")
    rows = []

    def run(name, n, fn, samples=200, R_high=4.0):
        worst = 0.0
        for _ in range(samples):
            R = rng.uniform(0.2, R_high)
            L = rng.uniform(0.0, R_high)
            alpha = rng.uniform(0.0, 2.0 * math.pi)
            spec = PolygonSpec(n, R)
            d_sq = polygon_distances_sq(spec, PlanePlacement(L, alpha))
            worst = max(worst, fn(R, L, d_sq))
        rows.append(_row(name, samples, worst, 1e-7))

    run("sum of squared distances = n(R^2 + L^2)", 7,
        lambda R, L, d: rel_err(math.fsum(d), 7 * (R * R + L * L)))
    run("triangle symmetric fourth-power identity", 3,
        lambda R, L, d: abs(triangle_symmetric_residual(d, polygon_side_sq(3, R * R)))
        / (sum(d) + 3 * R * R) ** 2)
    run("square symmetric fourth-power identity", 4,
        lambda R, L, d: abs(square_symmetric_residual(d, polygon_side_sq(4, R * R)))
        / (sum(d) + 2 * 2 * R * R) ** 2)
    run("opposite-vertex pair sums are constant", 10,
        lambda R, L, d: (max(opposite_pair_sums(d)) - min(opposite_pair_sums(d)))
        / (2 * (R * R + L * L)))
    run("embedded triangle subsets (divisor 3)", 9,
        lambda R, L, d: max(abs(r) for r in subset_sum_residuals(d, 3, R * R, L * L))
        / (3 * per_vertex_power_sum_sq(2, R * R, L * L)))
    run("embedded square subsets (divisor 4)", 8,
        lambda R, L, d: max(abs(r) for r in subset_sum_residuals(d, 4, R * R, L * L))
        / (4 * per_vertex_power_sum_sq(3, R * R, L * L)))
    run("embedded pentagon subsets (divisor 5)", 10,
        lambda R, L, d: max(abs(r) for r in subset_sum_residuals(d, 5, R * R, L * L))
        / (5 * per_vertex_power_sum_sq(4, R * R, L * L)))
    run("square sixth-power factorization", 4,
        lambda R, L, d: abs(square_sixth_factorization_residual(d))
        / (sum(d) ** 3 + 1.0))

    # circumcircle characterization needs L = R placements
    worst = 0.0
    for _ in range(200):
        n = rng.randint(3, 16)
        R = rng.uniform(0.2, 4.0)
        alpha = rng.uniform(0.0, 2.0 * math.pi)
        d_sq = polygon_distances_sq(PolygonSpec(n, R), PlanePlacement(R, alpha))
        worst = max(worst, abs(circumcircle_residual(d_sq)) / (3 * math.fsum(d_sq) ** 2))
    rows.append(_row("circumcircle characterization 3(sum d^2)^2 = 2n sum d^4",
                     200, worst, 1e-7))
    return rows


def sweep_trig_oracles(seed: int) -> list[SweepRow]:
    rng = _rng(seed, "trig")
    worst_vanish = 0.0
    worst_closed = 0.0
    checks = 0
    for n in range(2, 25):
        for m in range(1, n):
            for _ in range(20):
                alpha = rng.uniform(0.0, 2.0 * math.pi)
                worst_vanish = max(worst_vanish,
                                   abs(trigsums.multiple_angle_cosine_sum(n, m, alpha)))
                value = trigsums.cosine_power_sum(n, m, alpha)
                expected = 0.0 if m % 2 else n * math.comb(m, m // 2) / 2.0 ** m
                worst_closed = max(worst_closed, abs(value - expected) / max(1.0, n))
                checks += 1
    rows = [
        _row("multiple-angle cosine sums vanish for m < n", checks, worst_vanish, 1e-9),
        _row("cosine power sums hit closed values for m < n", checks, worst_closed, 1e-9),
    ]
    worst = 0.0
    for m in range(1, 13):
        for _ in range(20):
            theta = rng.uniform(0.0, 2.0 * math.pi)
            value = math.fsum(float(c) * math.cos(h * theta)
                              for h, c in trigsums.power_reduction_coefficients(m))
            worst = max(worst, abs(value - math.cos(theta) ** m))
    rows.append(_row("cosine power-reduction coefficients", 240, worst, 1e-12))
    # failure witness at m = n
    weakest = math.inf
    for n in range(1, 13):
        values = [trigsums.cosine_power_sum(n, n, 2.0 * math.pi * k / 40)
                  for k in range(40)]
        weakest = min(weakest, max(values) - min(values))
    rows.append(SweepRow("cosine power sums depend on alpha at m = n", 12,
                         weakest, weakest > 0.01, note="smallest spread"))
    return rows


# ---------------------------------------------------------------------------
# solid sweeps


def _random_direction(rng: random.Random) -> tuple[float, float, float]:
    while True:
        x, y, z = rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1)
        norm = math.sqrt(x * x + y * y + z * z)
        if norm > 1e-6:
            return (x / norm, y / norm, z / norm)


def sweep_solid_closed_vs_brute(seed: int) -> list[SweepRow]:
    rows = []
    for kind in SolidKind:
        rng = _rng(seed, f"solid-{kind.value}")
        spec = SolidSpec(kind, rng.uniform(0.5, 2.0))
        r = spec.R
        worst = 0.0
        checks = 0
        for m in range(1, MAX_POWER_INDEX[kind] + 1):
            for _ in range(100):
                direction = _random_direction(rng)
                radius = 3.0 * r * rng.random() ** (1.0 / 3.0)
                p = SpacePlacement(*(radius * t for t in direction))
                closed = solid_power_sum_closed_sq(kind, m, float(spec.R_sq),
                                                   float(p.L_sq))
                brute = solid_power_sum_brute(spec, m, p)
                worst = max(worst, abs(closed - brute) / brute)
                checks += 1
        rows.append(_row(f"{kind.value}: closed form vs brute force", checks,
                         worst, 1e-9))
    return rows


def sweep_direction_witness(seed: int) -> list[SweepRow]:
    rows = []
    for kind in SolidKind:
        rng = _rng(seed, f"witness-{kind.value}")
        spec = SolidSpec(kind, 1.0)
        m = MAX_POWER_INDEX[kind] + 1
        L = spec.R
        values = []
        directions = []
        for v in solid_vertices(kind, 1.0):
            norm = math.sqrt(sum(float(t) ** 2 for t in v))
            directions.append(tuple(float(t) / norm for t in v))
        for _ in range(48):
            directions.append(_random_direction(rng))
        for d in directions:
            p = SpacePlacement(*(L * t for t in d))
            values.append(solid_power_sum_brute(spec, m, p))
        spread = (max(values) - min(values)) / min(values)
        rows.append(SweepRow(
            f"{kind.value}: direction dependence appears at m = {m}",
            len(values), spread, spread > 1e-3, note="spread at fixed L"))
    return rows


def sweep_solid_relations(seed: int) -> list[SweepRow]:
    rng = _rng(seed, "solid-relations")
    rows = []
    worst_rel = 0.0
    worst_rec = 0.0
    worst_pairs = 0.0
    checks = 0
    for kind in SolidKind:
        spec = SolidSpec(kind, 1.0)
        r_sq = float(spec.R_sq)
        for _ in range(50):
            direction = _random_direction(rng)
            radius = rng.uniform(0.0, 3.0 * spec.R)
            p = SpacePlacement(*(radius * t for t in direction))
            l_sq = float(p.L_sq)
            averages = {m: per_vertex_solid_power_sum_sq(m, r_sq, l_sq)
                        for m in range(1, MAX_POWER_INDEX[kind] + 1)}
            for label, lhs, rhs in solid_relation_residuals(
                    kind, r_sq, averages.get(1), averages.get(2),
                    averages.get(3), averages.get(4), averages.get(5)):
                worst_rel = max(worst_rel, rel_err(float(lhs), float(rhs)))
                checks += 1
            hi, lo = recover_r2_l2_solid(averages[1], averages[2])
            worst_rec = max(worst_rec,
                            min(max(rel_err(hi, r_sq), rel_err(lo, l_sq)),
                                max(rel_err(hi, l_sq), rel_err(lo, r_sq))))
            if kind is not SolidKind.TETRAHEDRON:
                d_sq = solid_distances_sq(spec, p)
                sums = antipodal_pair_sums(kind, d_sq)
                worst_pairs = max(worst_pairs,
                                  (max(sums) - min(sums)) / (2 * (r_sq + l_sq)))
    rows.append(_row("average-level relations for all solids", checks, worst_rel, 1e-9))
    rows.append(_row("recover {R^2, L^2} from solid S2, S4", 250, worst_rec, 1e-9))
    rows.append(_row("antipodal pair sums are constant", 200, worst_pairs, 1e-9))

    # circumsphere characterization: placements with L = R
    worst = 0.0
    for kind in SolidKind:
        spec = SolidSpec(kind, 1.0)
        for _ in range(50):
            p = SpacePlacement(*(spec.R * t for t in _random_direction(rng)))
            d_sq = solid_distances_sq(spec, p)
            worst = max(worst, abs(circumsphere_residual(d_sq))
                        / (4 * math.fsum(d_sq) ** 2))
    rows.append(_row("circumsphere characterization 4(sum d^2)^2 = 3n sum d^4",
                     250, worst, 1e-9))

    # cube quadruples obey the tetrahedron closed forms
    spec = SolidSpec(SolidKind.CUBE, 1.0)
    worst = 0.0
    for _ in range(50):
        p = SpacePlacement(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-3, 3))
        d_sq = solid_distances_sq(spec, p)
        scale = 4 * per_vertex_solid_power_sum_sq(2, 3.0, float(p.L_sq))
        worst = max(worst,
                    max(abs(r) for r in cube_quadruple_residuals(
                        d_sq, 3.0, float(p.L_sq))) / scale)
    rows.append(_row("cube quadruples follow the tetrahedron closed forms",
                     50, worst, 1e-9))

    # cross-solid equality of cyclic averages (shared R, L, shared m)
    worst = 0.0
    checks = 0
    for _ in range(50):
        R = rng.uniform(0.5, 3.0)
        direction = _random_direction(rng)
        radius = rng.uniform(0.0, 2.0 * R)
        p = SpacePlacement(*(radius * t for t in direction))
        for m in (1, 2):
            values = []
            for kind in SolidKind:
                spec = SolidSpec.from_circumradius(kind, R)
                values.append(solid_power_sum_brute(spec, m, p) / kind.n)
            worst = max(worst, (max(values) - min(values)) / min(values))
            checks += 1
    rows.append(_row("cyclic averages agree across solids (brute force)",
                     checks, worst, 1e-9))

    # golden ratio identities, exact
    phi = GOLDEN_RATIO
    exact_ok = (
        phi * phi == phi + 1
        and 1 + phi ** 4 == 3 * phi * phi
        and phi * phi == (1 + phi * phi) ** 2 / 5
        and 1 / (phi * phi) + phi * phi == 3
    )
    rows.append(SweepRow("golden ratio identities hold exactly in Q(sqrt 5)",
                         4, 0.0 if exact_ok else math.inf, exact_ok))

    # exact oracle equality for rational placements on every solid
    exact_worst_ok = True
    for kind in SolidKind:
        espec = SolidSpec(kind, Fraction(3, 2))
        p = SpacePlacement(Fraction(1, 3), Fraction(-2, 5), Fraction(1, 2))
        for m in range(1, MAX_POWER_INDEX[kind] + 1):
            closed = solid_power_sum_closed_sq(kind, m, espec.R_sq, p.L_sq)
            brute = solid_power_sum_brute(espec, m, p)
            if not closed == brute:
                exact_worst_ok = False
    rows.append(SweepRow("exact closed = exact brute on rational placements",
                         sum(MAX_POWER_INDEX.values()), 0.0 if exact_worst_ok
                         else math.inf, exact_worst_ok))
    return rows


# ---------------------------------------------------------------------------
# rational-distance sweeps


def sweep_quartic_annihilation(seed: int) -> SweepRow:
    rng = _rng(seed, "quartic")
    worst = 0.0
    checks = 0
    for n in range(3, 25):
        sin_n = math.sin(math.pi / n)
        R = 1.0 / (2.0 * sin_n)  # unit side
        for _ in range(20):
            L = rng.uniform(0.05, 2.0) * R
            alpha = rng.uniform(0.0, 2.0 * math.pi)
            d_sq = polygon_distances_sq(PolygonSpec(n, R), PlanePlacement(L, alpha))
            s2 = math.fsum(d_sq) / n
            s4 = math.fsum(x * x for x in d_sq) / n
            witness = ratdist.quartic_witness(s2, s4)
            worst = max(worst, abs(witness(sin_n)))
            checks += 1
    return _row("quartic witness annihilates sin(pi/n), unit-side n-gons",
                checks, worst, 1e-8)


def sweep_side_recovery(seed: int) -> SweepRow:
    rng = _rng(seed, "side")
    worst = 0.0
    checks = 0
    for n in range(3, 25):
        for _ in range(10):
            R = rng.uniform(0.3, 4.0)
            L = rng.uniform(0.0, 3.0)
            alpha = rng.uniform(0.0, 2.0 * math.pi)
            d_sq = polygon_distances_sq(PolygonSpec(n, R), PlanePlacement(L, alpha))
            s2 = math.fsum(d_sq) / n
            s4 = math.fsum(x * x for x in d_sq) / n
            branches = ratdist.side_from_averages(n, s2, s4)
            true_side_sq = (2.0 * R * math.sin(math.pi / n)) ** 2
            best = min(rel_err(b, true_side_sq) for b in branches)
            worst = max(worst, best)
            checks += 1
    return _row("one side branch equals (2R sin(pi/n))^2", checks, worst, 1e-9)


def sweep_octic(seed: int) -> list[SweepRow]:
    del seed
    octic = ratdist.sin_pi_24_minimal_polynomial()
    s = ratdist.sin_pi_24_float()
    rows = [_row("degree-8 polynomial annihilates sin(pi/24) (float)", 1,
                 abs(octic.eval_float(s)), 1e-12)]
    rows.append(SweepRow("degree-8 polynomial has no rational roots", 1, 0.0,
                         len(rational_roots(octic)) == 0))
    approx_ok = all(octic(Fraction(s).limit_denominator(10 ** k)) != 0
                    for k in (3, 4, 5, 6, 7, 8))
    rows.append(SweepRow("rational approximants of sin(pi/24) are not roots",
                         6, 0.0, approx_ok))
    cert = certify_no_small_factor(octic, max_degree=4)
    rows.append(SweepRow(
        "no factor of degree <= 4: certificate for the octic", 1, 0.0,
        cert.certified,
        note=f"method={cert.method}"
             + (f", prime={cert.certifying_prime}" if cert.certifying_prime else "")))
    return rows


def sweep_necessary_conditions(seed: int) -> SweepRow:
    del seed
    ok = True
    # centroid of the unit-side hexagon: all distances 1
    hexagon = ratdist.necessary_condition_areas(6, [1, 1, 1, 1, 1, 1])
    ok &= hexagon.satisfied and hexagon.area_values[0] == Fraction(3, 4)
    # a square placement passes, an inconsistent multiset fails
    ok &= ratdist.necessary_condition_areas(4, [1, 5, 9, 5]).satisfied
    ok &= not ratdist.necessary_condition_areas(4, [1, 1, 1, 4]).equal
    return SweepRow("exact area conditions for n = 4, 6", 3, 0.0, bool(ok))


# ---------------------------------------------------------------------------
# driver


def _polygon_rows(seed: int) -> list[SweepRow]:
    rows = [sweep_closed_vs_brute(seed)]
    rows += sweep_alpha_boundary(seed)
    rows.append(sweep_exact_interpolation(seed))
    rows.append(sweep_cross_n_equality(seed))
    rows.append(sweep_recover_exact(seed))
    rows += sweep_solver_round_trips(seed)
    rows += sweep_identity_residuals(seed)
    rows += sweep_trig_oracles(seed)
    rows += _errata_rows()
    return rows


def _solid_rows(seed: int) -> list[SweepRow]:
    rows = sweep_solid_closed_vs_brute(seed)
    rows += sweep_direction_witness(seed)
    rows += sweep_solid_relations(seed)
    rows += _errata_rows()
    return rows


def _rational_rows(seed: int) -> list[SweepRow]:
    rows = [sweep_quartic_annihilation(seed), sweep_side_recovery(seed)]
    rows += sweep_octic(seed)
    rows.append(sweep_necessary_conditions(seed))
    return rows


def _errata_rows() -> list[SweepRow]:
    rows = []
    for check in errata_mod.verify_errata():
        rows.append(SweepRow(
            f"erratum [{check.key}]", 2, check.corrected_rel_dev,
            check.confirmed,
            note=f"as printed deviates {check.printed_rel_dev:.1e}; "
                 "corrected form verified"))
    return rows


def run_verify(scope: str = "all", seed: int = 7) -> tuple[str, bool]:
    """Run the selected sweeps; returns (report text, all passed)."""
    if scope not in SCOPES:
        raise ValueError(f"scope must be one of {SCOPES}")
    sections: list[tuple[str, list[SweepRow]]] = []
    if scope in ("all", "polygon"):
        sections.append(("polygon", _polygon_rows(seed)))
    if scope in ("all", "solid"):
        sections.append(("solid", _solid_rows(seed)))
    if scope in ("all", "rational"):
        sections.append(("rational", _rational_rows(seed)))
    lines = [f"verification sweeps  scope={scope}  seed={seed}", "=" * 78]
    total = failures = rows_n = 0
    for section, rows in sections:
        lines.append(f"-- {section} " + "-" * (74 - len(section)))
        for row in rows:
            status = "PASS" if row.passed else "FAIL"
            residual = ("exact" if row.max_rel == 0.0
                        else f"{row.max_rel:.2e}")
            note = f"  ({row.note})" if row.note else ""
            lines.append(f"{row.name:<58} {row.checks:>6}  {residual:>9}  "
                         f"{status}{note}")
            total += row.checks
            rows_n += 1
            if not row.passed:
                failures += 1
    lines.append("=" * 78)
    lines.append(f"{rows_n} sweeps, {total} checks, {failures} failures")
    return "\n".join(lines) + "\n", failures == 0

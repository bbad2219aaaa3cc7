"""Seeded verification sweeps over every identity the library implements.

Each sweep draws its randomness from its own deterministically derived
generator, so a given (scope, seed) prints byte-identical output on every
run.  Residuals are tracked relative to the magnitude of what they check.
A sweep only samples; ``_worst``, ``_exact`` or ``_above`` judges each row,
and a NaN residual or witness fails its row.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from . import errata as errata_mod
from . import ratdist, trigsums
from .fields import GOLDEN_RATIO, rel_err
from .geometry import (
    PlanePlacement,
    PolygonSpec,
    SolidKind,
    SolidSpec,
    SpacePlacement,
    _TRACE,
    polygon_distances_sq,
    polygon_side_sq,
    solid_distances_sq,
    solid_vertices,
)
from .polygon import (
    _design_sum,
    _power_sums_exact,
    circumcircle_residual,
    power_sum_brute,
    power_sum_closed_sq,
    recover_r2_l2,
)
from .relations import (
    opposite_pair_sums,
    recover_spec_from_distances,
    solve_distances,
    square_sixth_factorization_residual,
    subset_sum_residuals,
    symmetric_residual,
)
from .solids import (
    antipodal_pair_sums,
    circumsphere_residual,
    cube_quadruple_residuals,
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


# ---------------------------------------------------------------------------
# row runners


def _nan_or(fold, values):
    """fold(values), or NaN when any value is NaN (min and max may skip it)."""
    values = list(values)
    return math.nan if any(map(math.isnan, values)) else fold(values)


def _spread(values) -> float:
    return _nan_or(lambda v: max(v) - min(v), values)


def _worst(name: str, residuals, tol: float) -> SweepRow:
    """One check per residual; passes when the largest is below tol."""
    residuals = list(residuals)
    worst = _nan_or(max, residuals)
    return SweepRow(name, len(residuals), worst, worst < tol)


def _exact(name: str, equalities, note: str = "") -> SweepRow:
    """Counts equalities up to the first miss, which fails the row with inf."""
    checks = 0
    for equal in equalities:
        if not equal:
            return SweepRow(name, checks, math.inf, False, note)
        checks += 1
    return SweepRow(name, checks, 0.0, True, note)


def _above(name: str, checks: int, value: float, floor: float, note: str) -> SweepRow:
    """A witness row: passes when value (a spread or a contrast) exceeds floor."""
    return SweepRow(name, checks, value, value > floor, note)


def _plane_sample(rng: random.Random, n: int, r_lo: float, r_hi: float,
                  l_hi: float) -> tuple[float, float, tuple[float, ...]]:
    """R, L and the n-gon's squared distances to (L, alpha), drawn in that order."""
    R = rng.uniform(r_lo, r_hi)
    L = rng.uniform(0.0, l_hi)
    alpha = rng.uniform(0.0, 2.0 * math.pi)
    return R, L, polygon_distances_sq(PolygonSpec(n, R), PlanePlacement(L, alpha))


def _averages(d_sq) -> tuple[float, float]:
    """The cyclic averages S2 and S4 of the squared distances."""
    n = len(d_sq)
    return math.fsum(d_sq) / n, math.fsum(x * x for x in d_sq) / n


# ---------------------------------------------------------------------------
# polygon sweeps


def sweep_closed_vs_brute(seed: int) -> SweepRow:
    rng = _rng(seed, "closed-vs-brute")

    def residuals():
        for n in range(3, 17):
            for m in range(1, n):
                for _ in range(50):
                    R = rng.uniform(1e-3, 10.0)
                    L = rng.uniform(1e-3, 10.0)
                    alpha = rng.uniform(0.0, 2.0 * math.pi)
                    closed = power_sum_closed_sq(n, m, R * R, L * L)
                    brute = power_sum_brute(PolygonSpec(n, R), m, PlanePlacement(L, alpha))
                    yield abs(closed - brute) / brute

    return _worst("closed form vs brute force, n=3..16, m<n", residuals(), 1e-9)


def sweep_alpha_boundary(seed: int) -> list[SweepRow]:
    # the witness is strongest at L = R, where the alpha-sensitive part of
    # the m = n sum peaks at 4n(RL)^n; its relative size still shrinks like
    # 4/2^n, so the pass condition is a contrast against the m = n-1 noise
    # floor rather than a fixed percentage
    rng = _rng(seed, "alpha-boundary")
    spreads_free = []
    contrasts = []
    for n in range(3, 13):
        spec = PolygonSpec(n, 1.0)
        values_free = []
        values_dep = []
        for k in range(8 * n):
            alpha = 2.0 * math.pi * k / (8 * n) + rng.uniform(0.0, 0.002)
            values_free.append(power_sum_brute(spec, n - 1, PlanePlacement(1.0, alpha)))
            values_dep.append(power_sum_brute(spec, n, PlanePlacement(1.0, alpha)))
        spread_free = _spread(values_free) / (math.fsum(values_free) / len(values_free))
        spread_dep = _spread(values_dep) / min(values_dep)
        # each sample at this n is judged by the spread of its n
        spreads_free += [spread_free] * len(values_free)
        contrasts.append(spread_dep / max(spread_free, 1e-15))
    return [_worst("alpha-independence of the sum at m = n-1", spreads_free, 1e-9),
            _above("alpha-dependence witness at m = n", len(spreads_free),
                   _nan_or(min, contrasts), 1e3,
                   "smallest spread contrast vs m = n-1")]


def sweep_exact_interpolation(seed: int) -> SweepRow:
    # polynomial identity in L^2 for the 24-gon: closed form against the exact
    # vertex sum in Z[zeta_24] at m+1 rational nodes L, one pass per node
    del seed  # fully deterministic

    def equalities():
        for j in range(24):
            L = Fraction(2 * j + 1, 3)
            ms = range(max(1, j), 24)
            for m, brute in zip(ms, _power_sums_exact(24, ms, Fraction(1), L, None, 0)):
                yield brute == power_sum_closed_sq(24, m, Fraction(1), L * L)

    return _exact("exact 24-gon interpolation identity, m=1..23", equalities())


def sweep_cross_n_equality(seed: int) -> SweepRow:
    # the exact oracle's average of d^(2m) at a random turn of cycle 2n is the
    # same on every n-gon with n > m: each one is compared with the (m+1)-gon's
    rng = _rng(seed, "cross-n")

    def equalities():
        for _ in range(40):
            R = Fraction(rng.randint(1, 50), rng.randint(1, 50))
            L = Fraction(rng.randint(0, 50), rng.randint(1, 50))
            averages = {n: [s / n for s in _power_sums_exact(
                            n, range(1, min(n, 12)), R, L, 2 * n, rng.randrange(2 * n))]
                        for n in range(2, 15)}
            for m in range(1, 12):
                for n in range(m + 2, 15):
                    yield averages[n][m - 1] == averages[m + 1][m - 1]

    return _exact("cross-n equality of cyclic averages", equalities())


def sweep_recover_exact(seed: int) -> SweepRow:
    rng = _rng(seed, "recover-exact")

    def equalities():
        for _ in range(100):
            r_sq = Fraction(rng.randint(1, 120), rng.randint(1, 60))
            l_sq = Fraction(rng.randint(0, 120), rng.randint(1, 60))
            s2 = r_sq + l_sq
            s4 = s2 * s2 + 2 * r_sq * l_sq
            hi, lo = recover_r2_l2(s2, s4)
            # the recovered pair is the drawn one and reproduces the averages
            yield ({hi, lo} == {r_sq, l_sq} and hi + lo == s2
                   and (hi + lo) ** 2 + 2 * hi * lo == s4)

    return _exact("recover {R^2, L^2} from S2, S4 (exact)", equalities())


def _sorted_close(a, b) -> float:
    return _nan_or(max, (rel_err(float(x), float(y)) for x, y in zip(sorted(a), sorted(b))))


def _best_pair(pairs, r_sq: float, l_sq: float) -> float:
    """Relative error of the candidate (R^2, L^2) pair closest to (r_sq, l_sq)."""
    return _nan_or(min, (_nan_or(max, (rel_err(float(a), r_sq), rel_err(float(b), l_sq)))
                         for a, b in pairs))


def sweep_solver_round_trips(seed: int) -> list[SweepRow]:
    rows = []
    for n in _TRACE:
        rng = _rng(seed, f"solver-{n}")
        solved = []
        recovered = []
        for _ in range(100):
            R, L, d_sq = _plane_sample(rng, n, 0.2, 5.0, 5.0)
            branches = solve_distances(n, R, L, d_sq[0])
            solved.append(_nan_or(min, (_sorted_close(b, d_sq) for b in branches)))
            recovered.append(_best_pair(recover_spec_from_distances(n, d_sq), R * R, L * L))
        rows.append(_worst(f"distance solver round-trip, n={n}", solved, 1e-9))
        rows.append(_worst(f"(R^2, L^2) recovery from distances, n={n}", recovered, 1e-9))
    return rows


# (name, n, residual(R, L, d_sq)) for each identity checked on random placements
_IDENTITIES = (
    ("sum of squared distances = n(R^2 + L^2)", 7,
     lambda R, L, d: rel_err(math.fsum(d), 7 * (R * R + L * L))),
    ("triangle symmetric fourth-power identity", 3,
     lambda R, L, d: abs(symmetric_residual(d, polygon_side_sq(3, R * R)))
     / (sum(d) + 3 * R * R) ** 2),
    ("square symmetric fourth-power identity", 4,
     lambda R, L, d: abs(symmetric_residual(d, polygon_side_sq(4, R * R)))
     / (sum(d) + 2 * 2 * R * R) ** 2),
    ("opposite-vertex pair sums are constant", 10,
     lambda R, L, d: _spread(opposite_pair_sums(d)) / (2 * (R * R + L * L))),
    ("embedded triangle subsets (divisor 3)", 9,
     lambda R, L, d: _nan_or(max, map(abs, subset_sum_residuals(d, 3, R * R, L * L)))
     / power_sum_closed_sq(3, 2, R * R, L * L)),
    ("embedded square subsets (divisor 4)", 8,
     lambda R, L, d: _nan_or(max, map(abs, subset_sum_residuals(d, 4, R * R, L * L)))
     / power_sum_closed_sq(4, 3, R * R, L * L)),
    ("embedded pentagon subsets (divisor 5)", 10,
     lambda R, L, d: _nan_or(max, map(abs, subset_sum_residuals(d, 5, R * R, L * L)))
     / power_sum_closed_sq(5, 4, R * R, L * L)),
    ("square sixth-power factorization", 4,
     lambda R, L, d: abs(square_sixth_factorization_residual(d)) / (sum(d) ** 3 + 1.0)),
)


def sweep_identity_residuals(seed: int) -> list[SweepRow]:
    rng = _rng(seed, "identities")
    rows = [_worst(name, (residual(*_plane_sample(rng, n, 0.2, 4.0, 4.0))
                          for _ in range(200)), 1e-7)
            for name, n, residual in _IDENTITIES]
    # circumcircle characterization needs L = R placements
    circle = []
    for _ in range(200):
        n = rng.randint(3, 16)
        R = rng.uniform(0.2, 4.0)
        alpha = rng.uniform(0.0, 2.0 * math.pi)
        d_sq = polygon_distances_sq(PolygonSpec(n, R), PlanePlacement(R, alpha))
        circle.append(abs(circumcircle_residual(d_sq)) / (3 * math.fsum(d_sq) ** 2))
    return rows + [_worst("circumcircle characterization 3(sum d^2)^2 = 2n sum d^4",
                          circle, 1e-7)]


def sweep_trig_oracles(seed: int) -> list[SweepRow]:
    rng = _rng(seed, "trig")
    vanish = []
    closed = []
    for n in range(2, 25):
        for m in range(1, n):
            expected = 0.0 if m % 2 else n * math.comb(m, m // 2) / 2.0 ** m
            for _ in range(20):
                alpha = rng.uniform(0.0, 2.0 * math.pi)
                vanish.append(abs(trigsums.multiple_angle_cosine_sum(n, m, alpha)))
                closed.append(abs(trigsums.cosine_power_sum(n, m, alpha) - expected) / n)
    reduction = []
    for m in range(1, 13):
        for _ in range(20):
            theta = rng.uniform(0.0, 2.0 * math.pi)
            value = math.fsum(float(c) * math.cos(h * theta)
                              for h, c in trigsums.power_reduction_coefficients(m))
            reduction.append(abs(value - math.cos(theta) ** m))
    # failure witness at m = n
    spreads = [_spread([trigsums.cosine_power_sum(n, n, 2.0 * math.pi * k / 40)
                        for k in range(40)])
               for n in range(1, 13)]
    return [_worst("multiple-angle cosine sums vanish for m < n", vanish, 1e-9),
            _worst("cosine power sums hit closed values for m < n", closed, 1e-9),
            _worst("cosine power-reduction coefficients", reduction, 1e-12),
            _above("cosine power sums depend on alpha at m = n", len(spreads),
                   _nan_or(min, spreads), 0.01, "smallest spread")]


# ---------------------------------------------------------------------------
# solid sweeps


def _random_direction(rng: random.Random) -> tuple[float, float, float]:
    while True:
        x, y, z = rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1)
        norm = math.sqrt(x * x + y * y + z * z)
        if norm > 1e-6:
            return (x / norm, y / norm, z / norm)


def _at(radius: float, direction) -> SpacePlacement:
    return SpacePlacement(*(radius * t for t in direction))


def sweep_solid_closed_vs_brute(seed: int) -> list[SweepRow]:
    rows = []
    for kind in SolidKind:
        rng = _rng(seed, f"solid-{kind.value}")
        spec = SolidSpec(kind, rng.uniform(0.5, 2.0))
        r, r_sq = spec.R, float(spec.R_sq)
        residuals = []
        for m in range(1, kind.t + 1):
            for _ in range(100):
                direction = _random_direction(rng)
                p = _at(3.0 * r * rng.random() ** (1.0 / 3.0), direction)
                closed = solid_power_sum_closed_sq(kind, m, r_sq, float(p.L_sq))
                brute = solid_power_sum_brute(spec, m, p)
                residuals.append(abs(closed - brute) / brute)
        rows.append(_worst(f"{kind.value}: closed form vs brute force", residuals, 1e-9))
    return rows


def sweep_direction_witness(seed: int) -> list[SweepRow]:
    rows = []
    for kind in SolidKind:
        rng = _rng(seed, f"witness-{kind.value}")
        spec = SolidSpec(kind, 1.0)
        m = kind.t + 1
        directions = []
        for v in solid_vertices(kind, 1.0):
            norm = math.sqrt(sum(float(t) ** 2 for t in v))
            directions.append(tuple(float(t) / norm for t in v))
        directions += [_random_direction(rng) for _ in range(48)]
        values = [solid_power_sum_brute(spec, m, _at(spec.R, d)) for d in directions]
        rows.append(_above(f"{kind.value}: direction dependence appears at m = {m}",
                           len(values), _spread(values) / min(values), 1e-3,
                           "spread at fixed L"))
    return rows


def sweep_solid_relations(seed: int) -> list[SweepRow]:
    rng = _rng(seed, "solid-relations")
    relations = []
    recovered = []
    pair_spreads = []
    for kind in SolidKind:
        spec = SolidSpec(kind, 1.0)
        r_sq = float(spec.R_sq)
        for _ in range(50):
            direction = _random_direction(rng)
            p = _at(rng.uniform(0.0, 3.0 * spec.R), direction)
            l_sq = float(p.L_sq)
            averages = {m: _design_sum(m, 3, r_sq + l_sq, r_sq * l_sq)
                        for m in range(1, kind.t + 1)}
            relations += (rel_err(float(lhs), float(rhs)) for _, lhs, rhs in
                          solid_relation_residuals(kind, r_sq,
                                                   *(averages.get(m) for m in range(1, 6))))
            hi, lo = recover_r2_l2_solid(averages[1], averages[2])
            recovered.append(_best_pair(((hi, lo), (lo, hi)), r_sq, l_sq))
            if kind is not SolidKind.TETRAHEDRON:
                sums = antipodal_pair_sums(kind, solid_distances_sq(spec, p))
                pair_spreads.append(_spread(sums) / (2 * (r_sq + l_sq)))
    # circumsphere characterization: placements with L = R
    sphere = []
    for kind in SolidKind:
        spec = SolidSpec(kind, 1.0)
        for _ in range(50):
            d_sq = solid_distances_sq(spec, _at(spec.R, _random_direction(rng)))
            sphere.append(abs(circumsphere_residual(d_sq)) / (4 * math.fsum(d_sq) ** 2))
    # cube quadruples obey the tetrahedron closed forms
    cube = SolidSpec(SolidKind.CUBE, 1.0)
    quadruples = []
    for _ in range(50):
        p = SpacePlacement(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-3, 3))
        residuals = cube_quadruple_residuals(solid_distances_sq(cube, p), 3.0, float(p.L_sq))
        quadruples.append(_nan_or(max, map(abs, residuals))
                          / solid_power_sum_closed_sq(SolidKind.TETRAHEDRON, 2, 3.0,
                                                      float(p.L_sq)))
    # cross-solid equality of cyclic averages (shared R, L, shared m)
    cross = []
    for _ in range(50):
        R = rng.uniform(0.5, 3.0)
        direction = _random_direction(rng)
        p = _at(rng.uniform(0.0, 2.0 * R), direction)
        for m in (1, 2):
            values = [solid_power_sum_brute(SolidSpec.from_circumradius(kind, R), m, p)
                      / kind.n for kind in SolidKind]
            cross.append(_spread(values) / min(values))
    # golden ratio identities, exact
    phi = GOLDEN_RATIO
    golden = (phi * phi == phi + 1, 1 + phi ** 4 == 3 * phi * phi,
              phi * phi == (1 + phi * phi) ** 2 / 5, 1 / (phi * phi) + phi * phi == 3)
    # exact oracle equality for rational placements on every solid
    q = SpacePlacement(Fraction(1, 3), Fraction(-2, 5), Fraction(1, 2))
    exact = (solid_power_sum_closed_sq(e.kind, m, e.R_sq, q.L_sq)
             == solid_power_sum_brute(e, m, q)
             for e in [SolidSpec(kind, Fraction(3, 2)) for kind in SolidKind]
             for m in range(1, e.t + 1))
    return [_worst("average-level relations for all solids", relations, 1e-9),
            _worst("recover {R^2, L^2} from solid S2, S4", recovered, 1e-9),
            _worst("antipodal pair sums are constant", pair_spreads, 1e-9),
            _worst("circumsphere characterization 4(sum d^2)^2 = 3n sum d^4", sphere, 1e-9),
            _worst("cube quadruples follow the tetrahedron closed forms", quadruples, 1e-9),
            _worst("cyclic averages agree across solids (brute force)", cross, 1e-9),
            _exact("golden ratio identities hold exactly in Q(sqrt 5)", golden),
            _exact("exact closed = exact brute on rational placements", exact)]


# ---------------------------------------------------------------------------
# rational-distance sweeps


def sweep_quartic_annihilation(seed: int) -> SweepRow:
    rng = _rng(seed, "quartic")
    witnesses = []
    for n in range(3, 25):
        sin_n = math.sin(math.pi / n)
        R = 1.0 / (2.0 * sin_n)  # unit side
        for _ in range(20):
            L = rng.uniform(0.05, 2.0) * R
            alpha = rng.uniform(0.0, 2.0 * math.pi)
            d_sq = polygon_distances_sq(PolygonSpec(n, R), PlanePlacement(L, alpha))
            witnesses.append(abs(ratdist.quartic_witness(*_averages(d_sq))(sin_n)))
    return _worst("quartic witness annihilates sin(pi/n), unit-side n-gons",
                  witnesses, 1e-8)


def sweep_side_recovery(seed: int) -> SweepRow:
    rng = _rng(seed, "side")
    gaps = []
    for n in range(3, 25):
        for _ in range(10):
            R, L, d_sq = _plane_sample(rng, n, 0.3, 4.0, 3.0)
            true_side_sq = (2.0 * R * math.sin(math.pi / n)) ** 2
            branches = ratdist.side_from_averages(n, *_averages(d_sq))
            gaps.append(_nan_or(min, (rel_err(b, true_side_sq) for b in branches)))
    return _worst("one side branch equals (2R sin(pi/n))^2", gaps, 1e-9)


def sweep_octic(seed: int) -> list[SweepRow]:
    del seed
    report = ratdist.rational24_report()
    cert = report.certificate
    prime = f", prime={cert.certifying_prime}" if cert.certifying_prime else ""
    return [
        _worst("degree-8 polynomial annihilates sin(pi/24) (float)",
               [abs(report.octic_float_residual)], 1e-12),
        _exact("degree-8 polynomial has no rational roots",
               [report.rational_root_count == 0]),
        _exact("rational approximants of sin(pi/24) are not roots",
               (sign != 0 for _, sign in report.approximant_values)),
        _exact("no factor of degree <= 4: certificate for the octic", [cert.certified],
               f"method={cert.method}{prime}")]


def sweep_necessary_conditions(seed: int) -> SweepRow:
    del seed
    # centroid of the unit-side hexagon: all distances 1
    hexagon = ratdist.necessary_condition_areas(6, [1, 1, 1, 1, 1, 1])
    return _exact("exact area conditions for n = 4, 6", (
        hexagon.satisfied and hexagon.area_values[0] == Fraction(3, 4),
        # a square placement passes, an inconsistent multiset fails
        ratdist.necessary_condition_areas(4, [1, 5, 9, 5]).satisfied,
        not ratdist.necessary_condition_areas(4, [1, 1, 1, 4]).equal,
    ))


# ---------------------------------------------------------------------------
# driver


# each sweep is called by its module-level name, where the benchmark's tracer
# wraps it


def _polygon_rows(seed: int) -> list[SweepRow]:
    return [sweep_closed_vs_brute(seed), *sweep_alpha_boundary(seed),
            sweep_exact_interpolation(seed), sweep_cross_n_equality(seed),
            sweep_recover_exact(seed), *sweep_solver_round_trips(seed),
            *sweep_identity_residuals(seed), *sweep_trig_oracles(seed), *_errata_rows()]


def _solid_rows(seed: int) -> list[SweepRow]:
    return [*sweep_solid_closed_vs_brute(seed), *sweep_direction_witness(seed),
            *sweep_solid_relations(seed), *_errata_rows()]


def _rational_rows(seed: int) -> list[SweepRow]:
    return [sweep_quartic_annihilation(seed), sweep_side_recovery(seed),
            *sweep_octic(seed), sweep_necessary_conditions(seed)]


def _errata_rows() -> list[SweepRow]:
    return [SweepRow(f"erratum [{check.key}]", 2, check.corrected_rel_dev, check.confirmed,
                     note=f"as printed deviates {check.printed_rel_dev:.1e}; "
                          "corrected form verified")
            for check in errata_mod.verify_errata()]


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
            failures += not row.passed
    lines.append("=" * 78)
    lines.append(f"{rows_n} sweeps, {total} checks, {failures} failures")
    return "\n".join(lines) + "\n", failures == 0

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` for the per-criterion lines.
Criteria carry their stated tolerances and time budgets; nothing here is
calibrated after the fact.
"""

import math
import random
import time
from fractions import Fraction

from cyclicavg import cli
from cyclicavg.errata import verify_errata
from cyclicavg.fields import GOLDEN_RATIO, rel_err
from cyclicavg.geometry import (
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
from cyclicavg.intpoly import certify_no_small_factor, rational_roots
from cyclicavg.polygon import (
    _design_sum,
    circumcircle_residual,
    power_sum_brute,
    power_sum_brute_exact,
    power_sum_closed_sq,
    recover_r2_l2,
)
from cyclicavg.ratdist import quartic_witness, sin_pi_24_float, \
    sin_pi_24_minimal_polynomial
from cyclicavg.relations import (
    opposite_pair_sums,
    recover_spec_from_distances,
    solve_distances,
    square_sixth_factorization_residual,
    subset_sum_residuals,
    symmetric_residual,
)
from cyclicavg.solids import (
    antipodal_pair_sums,
    circumsphere_residual,
    cube_quadruple_residuals,
    recover_r2_l2_solid,
    solid_power_sum_brute,
    solid_power_sum_closed_sq,
    solid_relation_residuals,
)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}  {detail}")


def test_criterion_01_master_formula_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(101)
    worst = 0.0
    checks = 0
    for n in range(3, 17):
        for m in range(1, n):
            for _ in range(50):
                R = rng.uniform(1e-6, 10.0)
                L = rng.uniform(1e-6, 10.0)
                alpha = rng.uniform(0.0, 2.0 * math.pi)
                closed = power_sum_closed_sq(n, m, R * R, L * L)
                brute = power_sum_brute(PolygonSpec(n, R), m, PlanePlacement(L, alpha))
                worst = max(worst, abs(closed - brute) / brute)
                checks += 1
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 5.0
    _report(1, ok, f"closed vs brute on {checks} samples: "
                   f"max rel {worst:.2e}, {elapsed:.2f}s")
    assert worst < 1e-9
    assert elapsed < 5.0


def test_criterion_02_exact_interpolation_identity_24gon():
    start = time.perf_counter()
    checks = 0
    for m in range(1, 24):
        # m+1 distinct rational nodes pin the degree-m polynomial in L^2
        for j in range(m + 1):
            L = Fraction(3 * j + 2, 7)
            closed = power_sum_closed_sq(24, m, Fraction(1), L * L)
            brute = power_sum_brute_exact(24, m, Fraction(1), L)
            assert brute == closed, (m, L)
            checks += 1
    elapsed = time.perf_counter() - start
    ok = elapsed < 10.0
    _report(2, ok, f"exact equality at {checks} interpolation nodes "
                   f"(m = 1..23), {elapsed:.2f}s")
    assert elapsed < 10.0


def test_criterion_03_alpha_dependence_boundary():
    # stated thresholds: > 0.1% variation at m = n, < 1e-9 at m = n-1, for
    # every n in 3..12.  The m = n variation is maximised at L = R, where
    # the alpha-sensitive part of the sum is -(+-)2n(RL)^n cos(n alpha),
    # giving a best possible relative spread of 4(t/2)^n / F_n(t) <= 4/2^n
    # (t = 2RL/(R^2+L^2)); from n = 8 on that is below 0.1% for every
    # placement, so the stated bound cannot be met there.
    free_worst = 0.0
    table = []
    for n in range(3, 13):
        spec = PolygonSpec(n, 1.0)
        best = 0.0
        for L in (0.8, 1.0, 1.25):
            values = [power_sum_brute(spec, n, PlanePlacement(L, 2 * math.pi * k / (8 * n)))
                      for k in range(8 * n)]
            best = max(best, (max(values) - min(values)) / min(values))
        table.append((n, best))
        values = [power_sum_brute(spec, n - 1, PlanePlacement(1.0, 2 * math.pi * k / 24))
                  for k in range(24)]
        free_worst = max(free_worst,
                         (max(values) - min(values)) / (sum(values) / len(values)))
    failing = [(n, spread) for n, spread in table if not spread > 1e-3]
    ok = free_worst < 1e-9 and not failing
    detail = ("m=n spreads " + ", ".join(f"n={n}:{s:.1e}" for n, s in table)
              + f"; m=n-1 worst {free_worst:.1e}")
    _report(3, ok, detail)
    assert free_worst < 1e-9
    assert not failing, (
        "alpha variation at m = n stays below the stated 0.1% for "
        f"{failing}: the maximum attainable relative spread is "
        "4(t/2)^n / F_n(t) with t = 2RL/(R^2+L^2) <= 1, which is below "
        "1e-3 for every placement once n >= 8 (largest possible values: "
        "n=8 3.1e-4, n=9 8.2e-5, n=10 2.2e-5, n=11 5.7e-6, n=12 1.5e-6); "
        "the dependence itself is real and is asserted by the witness "
        "sweeps at an attainable threshold"
    )


def test_criterion_04_round_trips():
    rng = random.Random(104)
    for _ in range(100):
        r_sq = Fraction(rng.randint(1, 99), rng.randint(1, 99))
        l_sq = Fraction(rng.randint(0, 99), rng.randint(1, 99))
        s2 = r_sq + l_sq
        s4 = s2 * s2 + 2 * r_sq * l_sq
        assert set(recover_r2_l2(s2, s4)) == {r_sq, l_sq}
    solver_worst = 0.0
    recover_worst = 0.0
    for n in (3, 4, 6):
        for _ in range(100):
            R = rng.uniform(0.2, 5.0)
            L = rng.uniform(0.0, 5.0)
            d_sq = polygon_distances_sq(PolygonSpec(n, R),
                                        PlanePlacement(L, rng.uniform(0, 7)))
            branches = solve_distances(n, R, L, d_sq[0])
            best = min(
                max(rel_err(x, y) for x, y in zip(sorted(b), sorted(d_sq)))
                for b in branches)
            solver_worst = max(solver_worst, best)
            pair = recover_spec_from_distances(n, d_sq)
            best = min(max(rel_err(r2, R * R), rel_err(l2, L * L))
                       for r2, l2 in pair)
            recover_worst = max(recover_worst, best)
    ok = solver_worst < 1e-9 and recover_worst < 1e-9
    _report(4, ok, f"exact average round-trip 100/100; solver max rel "
                   f"{solver_worst:.2e}; recovery max rel {recover_worst:.2e}")
    assert solver_worst < 1e-9
    assert recover_worst < 1e-9


def test_criterion_05_identity_residual_suite():
    start = time.perf_counter()
    rng = random.Random(105)
    worst = {}

    def sample(n, rmax=4.0):
        R = rng.uniform(0.2, rmax)
        L = rng.uniform(0.0, rmax)
        d_sq = polygon_distances_sq(PolygonSpec(n, R),
                                    PlanePlacement(L, rng.uniform(0, 7)))
        return R, L, d_sq

    for _ in range(200):
        R, L, d = sample(8)
        worst["sum of squares"] = max(worst.get("sum of squares", 0.0),
                                      rel_err(math.fsum(d), 8 * (R * R + L * L)))
        R, L, d = sample(3)
        side_sq = polygon_side_sq(3, R * R)
        worst["triangle symmetric"] = max(
            worst.get("triangle symmetric", 0.0),
            abs(symmetric_residual(d, side_sq))
            / (sum(d) + side_sq) ** 2)
        R, L, d = sample(4)
        side_sq = polygon_side_sq(4, R * R)
        worst["square symmetric"] = max(
            worst.get("square symmetric", 0.0),
            abs(symmetric_residual(d, side_sq)) / (sum(d) + 2 * side_sq) ** 2)
        worst["sixth factorization"] = max(
            worst.get("sixth factorization", 0.0),
            abs(square_sixth_factorization_residual(d)) / (sum(d) ** 3))
        R, L, d = sample(10)
        sums = opposite_pair_sums(d)
        worst["opposite pairs"] = max(worst.get("opposite pairs", 0.0),
                                      (max(sums) - min(sums)) / (2 * (R * R + L * L)))
        for n, divisor in ((9, 3), (8, 4), (10, 5)):
            R, L, d = sample(n)
            residuals = subset_sum_residuals(d, divisor, R * R, L * L)
            scale = divisor * float((R * R + L * L + 1.0)) ** 4
            worst[f"divisor {divisor} subsets"] = max(
                worst.get(f"divisor {divisor} subsets", 0.0),
                max(abs(r) for r in residuals) / scale)
        n = rng.randint(3, 16)
        R = rng.uniform(0.2, 4.0)
        d = polygon_distances_sq(PolygonSpec(n, R),
                                 PlanePlacement(R, rng.uniform(0, 7)))
        worst["circumcircle"] = max(worst.get("circumcircle", 0.0),
                                    abs(circumcircle_residual(d))
                                    / (3 * math.fsum(d) ** 2))
    elapsed = time.perf_counter() - start
    bad = {k: v for k, v in worst.items() if not v < 1e-7}
    ok = not bad and elapsed < 10.0
    _report(5, ok, "max rel residuals: "
            + ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
            + f"; {elapsed:.2f}s")
    assert not bad, bad
    assert elapsed < 10.0


def test_criterion_06_solid_oracle_equivalence_and_witnesses():
    rng = random.Random(106)
    worst = 0.0
    for kind in SolidKind:
        spec = SolidSpec(kind, rng.uniform(0.5, 2.0))
        for m in range(1, kind.t + 1):
            for _ in range(100):
                x, y, z = rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1)
                norm = math.sqrt(x * x + y * y + z * z) or 1.0
                r = 3.0 * spec.R * rng.random() ** (1 / 3)
                p = SpacePlacement(x / norm * r, y / norm * r, z / norm * r)
                closed = solid_power_sum_closed_sq(kind, m, float(spec.R_sq),
                                                   float(p.L_sq))
                brute = solid_power_sum_brute(spec, m, p)
                worst = max(worst, abs(closed - brute) / brute)
    witnesses = {}
    for kind in SolidKind:
        spec = SolidSpec(kind, 1.0)
        m = kind.t + 1
        L = spec.R
        dirs = []
        for v in solid_vertices(kind, 1.0):
            norm = math.sqrt(sum(float(t) ** 2 for t in v))
            dirs.append(tuple(float(t) / norm for t in v))
        for _ in range(48):
            x, y, z = rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1)
            norm = math.sqrt(x * x + y * y + z * z) or 1.0
            dirs.append((x / norm, y / norm, z / norm))
        values = [solid_power_sum_brute(spec, m, SpacePlacement(*(L * t for t in d)))
                  for d in dirs]
        witnesses[kind.value] = (max(values) - min(values)) / min(values)
    ok = worst < 1e-9 and all(w > 1e-3 for w in witnesses.values())
    _report(6, ok, f"oracle max rel {worst:.2e}; direction witnesses "
            + ", ".join(f"{k} {v:.1e}" for k, v in witnesses.items()))
    assert worst < 1e-9
    for kind, w in witnesses.items():
        assert w > 1e-3, (kind, w)


def test_criterion_07_solid_relation_suite():
    rng = random.Random(107)
    worst = 0.0
    for kind in SolidKind:
        spec = SolidSpec(kind, 1.0)
        r_sq = float(spec.R_sq)
        for _ in range(50):
            x, y, z = rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1)
            norm = math.sqrt(x * x + y * y + z * z) or 1.0
            r = rng.uniform(0.0, 3.0) * spec.R
            p = SpacePlacement(x / norm * r, y / norm * r, z / norm * r)
            l_sq = float(p.L_sq)
            avgs = {m: _design_sum(m, 3, r_sq + l_sq, r_sq * l_sq)
                    for m in range(1, kind.t + 1)}
            for _, lhs, rhs in solid_relation_residuals(
                    kind, r_sq, avgs.get(1), avgs.get(2), avgs.get(3),
                    avgs.get(4), avgs.get(5)):
                worst = max(worst, rel_err(float(lhs), float(rhs)))
            hi, lo = recover_r2_l2_solid(avgs[1], avgs[2])
            worst = max(worst, min(max(rel_err(hi, r_sq), rel_err(lo, l_sq)),
                                   max(rel_err(hi, l_sq), rel_err(lo, r_sq))))
            d_sq = solid_distances_sq(spec, p)
            if kind is SolidKind.CUBE:
                scale = solid_power_sum_closed_sq(SolidKind.TETRAHEDRON, 2, r_sq, l_sq)
                worst = max(worst, max(abs(v) for v in cube_quadruple_residuals(
                    d_sq, r_sq, l_sq)) / scale)
            if kind is not SolidKind.TETRAHEDRON:
                sums = antipodal_pair_sums(kind, d_sq)
                worst = max(worst, (max(sums) - min(sums)) / (2 * (r_sq + l_sq)))
            on_sphere = SpacePlacement(x / norm * spec.R, y / norm * spec.R,
                                       z / norm * spec.R)
            d_sphere = solid_distances_sq(spec, on_sphere)
            worst = max(worst, abs(circumsphere_residual(d_sphere))
                        / (4 * math.fsum(d_sphere) ** 2))
    phi = GOLDEN_RATIO
    golden_exact = (phi * phi == phi + 1
                    and 1 + phi ** 4 == 3 * phi * phi
                    and phi * phi == (1 + phi * phi) ** 2 / 5)
    ok = worst < 1e-9 and golden_exact
    _report(7, ok, f"relation residual max rel {worst:.2e}; "
                   f"golden-ratio identities exact: {golden_exact}")
    assert worst < 1e-9
    assert golden_exact


def test_criterion_08_errata_registry():
    rows = verify_errata()
    assert len(rows) == 4
    ok = all(r.printed_rel_dev > 1e-3 and r.corrected_rel_dev < 1e-9 for r in rows)
    _report(8, ok, "; ".join(
        f"{r.key}: printed {r.printed_rel_dev:.1e}, corrected "
        f"{r.corrected_rel_dev:.1e}" for r in rows))
    for r in rows:
        assert r.printed_rel_dev > 1e-3, r.key
        assert r.corrected_rel_dev < 1e-9, r.key


def test_criterion_09_rational_distance_pipeline():
    octic = sin_pi_24_minimal_polynomial()
    s = sin_pi_24_float()
    float_residual = abs(octic(s))
    roots = rational_roots(octic)
    cert = certify_no_small_factor(octic, max_degree=4)
    rng = random.Random(109)
    quartic_worst = 0.0
    for n in range(3, 25):
        sin_n = math.sin(math.pi / n)
        R = 1.0 / (2.0 * sin_n)
        for _ in range(10):
            d_sq = polygon_distances_sq(
                PolygonSpec(n, R),
                PlanePlacement(rng.uniform(0.05, 2.0) * R, rng.uniform(0, 7)))
            s2 = math.fsum(d_sq) / n
            s4 = math.fsum(v * v for v in d_sq) / n
            quartic_worst = max(quartic_worst,
                                abs(quartic_witness(s2, s4)(sin_n)))
    ok = (float_residual < 1e-12 and not roots and cert.certified
          and quartic_worst < 1e-8)
    _report(9, ok, f"octic residual {float_residual:.1e}; rational roots "
                   f"{len(roots)}; certificate {cert.method}; quartic max "
                   f"{quartic_worst:.1e}")
    assert float_residual < 1e-12
    assert roots == []
    assert cert.certified, "criterion waived only if search is inconclusive"
    assert quartic_worst < 1e-8


def test_criterion_10_cli_verify_determinism(capsys):
    start = time.perf_counter()
    code1 = cli.main(["verify", "--scope", "all", "--seed", "7"])
    out1 = capsys.readouterr().out
    code2 = cli.main(["verify", "--scope", "all", "--seed", "7"])
    out2 = capsys.readouterr().out
    elapsed = time.perf_counter() - start
    ok = code1 == 0 and code2 == 0 and out1 == out2 and elapsed < 60.0
    _report(10, ok, f"two runs byte-identical ({len(out1)} bytes), "
                    f"exit 0, {elapsed:.2f}s total")
    assert code1 == 0 and code2 == 0
    assert out1 == out2
    assert elapsed < 60.0

"""Seeded query streams for the three benchmark workloads.

A query is one or more library calls on the same generated input plus the
check its outputs must pass.  Everything a check compares against is
computed while the query is generated, before any call is timed; the few
checks that call the library again run after the timing and outside any
trace.  Calls are named by (module, attribute) and resolved when they run,
so wrappers installed by the tracer are picked up.
"""

from __future__ import annotations

import hashlib
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

from cyclicavg import geometry, polygon, ratdist, relations, solids, verify
from cyclicavg.errors import DomainError
from cyclicavg.geometry import (
    PlanePlacement,
    PolygonSpec,
    SolidKind,
    SolidSpec,
    SpacePlacement,
)

# design strength t of each solid: the sums are direction-free for m <= t
STRENGTH = {
    SolidKind.TETRAHEDRON: 2,
    SolidKind.OCTAHEDRON: 3,
    SolidKind.CUBE: 3,
    SolidKind.ICOSAHEDRON: 5,
    SolidKind.DODECAHEDRON: 5,
}
KINDS = tuple(SolidKind)
REL_TOL = 1e-9
EXACT_POLYGONS = (3, 4, 6, 8, 12)

REJECTED = "rejected"  # a known defect: genuine data refused, or a tolerance missed


@dataclass(frozen=True)
class Query:
    calls: tuple  # ((module, attribute, args), ...)
    check: Callable[[list], str | None]  # None, REJECTED, or a failure reason


def _rel(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


def _close(a, b) -> str | None:
    err = _rel(float(a), float(b))
    return None if err <= REL_TOL else f"relative error {err:.3e}"


def _raised(outs: list) -> BaseException | None:
    return next((o for o in outs if isinstance(o, BaseException)), None)


def _guard(check: Callable[[list], str | None]) -> Callable[[list], str | None]:
    """Any exception makes the query fail; its check only sees real outputs."""
    def guarded(outs: list) -> str | None:
        exc = _raised(outs)
        if exc is not None:
            return f"raised {type(exc).__name__}: {exc}"
        return check(outs)
    return guarded


def _recovery(check: Callable[[list], str | None]) -> Callable[[list], str | None]:
    """A DomainError from a recovery call on genuine data is a rejection."""
    def guarded(outs: list) -> str | None:
        exc = _raised(outs)
        if isinstance(exc, DomainError):
            return REJECTED
        if exc is not None:
            return f"raised {type(exc).__name__}: {exc}"
        return check(outs)
    return guarded


# ---------------------------------------------------------------------------
# independent float references


_UNIT_VERTICES = {kind: tuple(tuple(float(t) for t in v)
                              for v in geometry.solid_vertices(kind, 1.0))
                  for kind in KINDS}


def polygon_d_sq(n: int, R: float, L: float, alpha: float) -> list[float]:
    a = R * R + L * L
    b = 2.0 * R * L
    step = 2.0 * math.pi / n
    return [a - b * math.cos(alpha - k * step) for k in range(n)]


def solid_d_sq(kind: SolidKind, c: float, p: tuple) -> list[float]:
    x, y, z = p
    return [(x - c * vx) ** 2 + (y - c * vy) ** 2 + (z - c * vz) ** 2
            for vx, vy, vz in _UNIT_VERTICES[kind]]


def _power_sum(d_sq: list[float], m: int) -> float:
    return math.fsum(d ** m for d in d_sq)


def _averages(d_sq: list[float]) -> tuple[float, float]:
    n = len(d_sq)
    return math.fsum(d_sq) / n, math.fsum(d * d for d in d_sq) / n


def _direction(rng: random.Random) -> tuple[float, float, float]:
    while True:
        x, y, z = rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1)
        norm = math.sqrt(x * x + y * y + z * z)
        if norm > 1e-6:
            return (x / norm, y / norm, z / norm)


def _reproduces_averages(s2: float, s4: float, ratio: float):
    """Check that a recovered {R^2, L^2} gives back S2 and S4.

    S4 = S2^2 + ratio * R^2 L^2, with ratio 2 for polygons and 4/3 for solids.
    """
    def check(outs: list) -> str | None:
        hi, lo = outs[0]
        return (_close(hi + lo, s2)
                or _close((hi + lo) ** 2 + ratio * hi * lo, s4))
    return check


# ---------------------------------------------------------------------------
# float-queries


def _float_polygon_power(rng: random.Random) -> Query:
    n = rng.randint(3, 64)
    m = rng.randint(1, n)  # m = n is past the strength t = n - 1
    R = rng.uniform(0.2, 3.0)
    L = rng.uniform(0.05, 3.0)
    alpha = rng.uniform(0.0, 2.0 * math.pi)
    spec = PolygonSpec(n, R)
    brute = (polygon, "power_sum_brute", (spec, m, PlanePlacement(L, alpha)))
    if m < n:
        return Query(((polygon, "power_sum_closed", (spec, m, L)), brute),
                     _guard(lambda outs: _close(outs[0], outs[1])))
    ref = _power_sum(polygon_d_sq(n, R, L, alpha), m)
    return Query((brute,), _guard(lambda outs: _close(outs[0], ref)))


def _float_solid_placement(rng: random.Random, on_sphere: bool = False):
    kind = rng.choice(KINDS)
    spec = SolidSpec(kind, rng.uniform(0.5, 2.0))
    radius = spec.R if on_sphere else spec.R * rng.uniform(0.05, 3.0)
    p = tuple(radius * t for t in _direction(rng))
    return kind, spec, p


def _float_solid_power(rng: random.Random) -> Query:
    kind, spec, p = _float_solid_placement(rng)
    m = rng.randint(1, STRENGTH[kind] + 1)
    place = SpacePlacement(*p)
    brute = (solids, "solid_power_sum_brute", (spec, m, place))
    if m <= STRENGTH[kind]:
        return Query(((solids, "solid_power_sum_closed", (spec, m, place.L)), brute),
                     _guard(lambda outs: _close(outs[0], outs[1])))
    ref = _power_sum(solid_d_sq(kind, spec.c, p), m)
    return Query((brute,), _guard(lambda outs: _close(outs[0], ref)))


def _locus_check(kind: str, closed: Callable[[float], float], C: float):
    """The locus is of the expected kind and its L gives C back."""
    def check(outs: list) -> str | None:
        locus = outs[0]
        if locus.kind != kind:
            return f"locus kind {locus.kind}, expected {kind}"
        return _close(closed(locus.L * locus.L), C)
    return _guard(check)


def _float_polygon_locus(rng: random.Random) -> Query:
    n = rng.randint(3, 64)
    m = rng.randint(1, n - 1)
    R = rng.uniform(0.2, 3.0)
    C = _power_sum(polygon_d_sq(n, R, rng.uniform(0.05, 3.0),
                                rng.uniform(0.0, 2.0 * math.pi)), m)
    return Query(((polygon, "locus_classify", (PolygonSpec(n, R), m, C)),),
                 _locus_check("circle",
                              lambda l_sq: polygon.power_sum_closed_sq(n, m, R * R, l_sq),
                              C))


def _float_solid_locus(rng: random.Random) -> Query:
    kind, spec, p = _float_solid_placement(rng)
    m = rng.randint(1, STRENGTH[kind])
    C = _power_sum(solid_d_sq(kind, spec.c, p), m)
    r_sq = spec.R_sq
    return Query(((solids, "solid_locus_classify", (spec, m, C)),),
                 _locus_check("sphere",
                              lambda l_sq: solids.solid_power_sum_closed_sq(kind, m, r_sq, l_sq),
                              C))


def _float_polygon_recover_averages(rng: random.Random, on_circle_share: float) -> Query:
    n = rng.randint(3, 64)
    R = rng.uniform(0.2, 3.0)
    L = R if rng.random() < on_circle_share else rng.uniform(0.05, 3.0)
    s2, s4 = _averages(polygon_d_sq(n, R, L, rng.uniform(0.0, 2.0 * math.pi)))
    return Query(((polygon, "recover_r2_l2", (s2, s4)),),
                 _recovery(_reproduces_averages(s2, s4, 2.0)))


def _float_solid_recover_averages(rng: random.Random, on_circle_share: float) -> Query:
    kind, spec, p = _float_solid_placement(rng, rng.random() < on_circle_share)
    s2, s4 = _averages(solid_d_sq(kind, spec.c, p))
    return Query(((solids, "recover_r2_l2_solid", (s2, s4)),),
                 _recovery(_reproduces_averages(s2, s4, 4.0 / 3.0)))


def _float_polygon_recover_distances(rng: random.Random) -> Query:
    n = rng.choice((3, 4, 6))
    d_sq = polygon_d_sq(n, rng.uniform(0.2, 3.0), rng.uniform(0.05, 3.0),
                        rng.uniform(0.0, 2.0 * math.pi))
    s2, s4 = _averages(d_sq)
    check = _reproduces_averages(s2, s4, 2.0)
    return Query(((relations, "recover_spec_from_distances", (n, tuple(d_sq))),),
                 _recovery(lambda outs: check([outs[0].plus])))


# ---------------------------------------------------------------------------
# exact-queries


def _rational(rng: random.Random, top: int = 30, den: int = 12) -> Fraction:
    return Fraction(rng.randint(-top, top), rng.randint(1, den))


def _positive_rational(rng: random.Random, top: int, den: int) -> Fraction:
    return Fraction(rng.randint(1, top), rng.randint(1, den))


def _exact_equal(outs: list) -> str | None:
    return None if outs[0] == outs[1] else "closed form != exact oracle"


def _exact_solid_placement(rng: random.Random, pool: list[Fraction]):
    kind = rng.choice(KINDS)
    spec = SolidSpec(kind, rng.choice(pool))
    return kind, spec, SpacePlacement(_rational(rng), _rational(rng), _rational(rng))


def _exact_solid_power(rng: random.Random, pool: list[Fraction]) -> Query:
    kind, spec, p = _exact_solid_placement(rng, pool)
    m = rng.randint(1, STRENGTH[kind] + 1)
    brute = (solids, "solid_power_sum_brute", (spec, m, p))
    if m <= STRENGTH[kind]:
        closed = (solids, "solid_power_sum_closed_sq", (kind, m, spec.R_sq, p.L_sq))
        return Query((closed, brute), _guard(_exact_equal))
    ref = _power_sum(solid_d_sq(kind, float(spec.c),
                                (float(p.x), float(p.y), float(p.z))), m)
    return Query((brute,), _guard(lambda outs: _close(outs[0], ref)))


def _exact_polygon_power(rng: random.Random, pool: list[Fraction]) -> Query:
    n = rng.choice(EXACT_POLYGONS)
    m = rng.randint(1, n)
    R = rng.choice(pool)
    L = _positive_rational(rng, 40, 12)
    offset = rng.randint(0, n - 1)
    brute = (polygon, "power_sum_brute_exact", (n, m, R, L, None, offset))
    if m < n:
        closed = (polygon, "power_sum_closed_sq", (n, m, R * R, L * L))
        return Query((closed, brute), _guard(_exact_equal))
    ref = _power_sum(polygon_d_sq(n, float(R), float(L), 2.0 * math.pi * offset / n), m)
    return Query((brute,), _guard(lambda outs: _close(outs[0], ref)))


def _exact_polygon_recover_averages(rng: random.Random) -> Query:
    r_sq = _positive_rational(rng, 120, 60)
    l_sq = _positive_rational(rng, 120, 60)
    s2 = r_sq + l_sq
    s4 = s2 * s2 + 2 * r_sq * l_sq

    def check(outs: list) -> str | None:
        return None if set(outs[0]) == {r_sq, l_sq} else "recovered pair differs"
    return Query(((polygon, "recover_r2_l2", (s2, s4)),), _guard(check))


def _exact_locus_check(kind: str, l_sq: Fraction):
    """The locus is of the expected kind, and its L matches the placement's."""
    expected = kind if l_sq else "centroid"

    def check(outs: list) -> str | None:
        locus = outs[0]
        if locus.kind != expected:
            return f"locus kind {locus.kind}, expected {expected}"
        return _close(locus.L * locus.L, l_sq) if l_sq else None
    return _guard(check)


def _exact_polygon_locus(rng: random.Random, pool: list[Fraction]) -> Query:
    n = rng.randint(3, 24)
    m = rng.randint(1, n - 1)
    R = rng.choice(pool)
    l_sq = _positive_rational(rng, 60, 20)
    C = polygon.power_sum_closed_sq(n, m, R * R, l_sq)
    return Query(((polygon, "locus_classify", (PolygonSpec(n, R), m, C)),),
                 _exact_locus_check("circle", l_sq))


def _exact_solid_locus(rng: random.Random, pool: list[Fraction]) -> Query:
    kind, spec, p = _exact_solid_placement(rng, pool)
    m = rng.randint(1, STRENGTH[kind])
    C = solids.solid_power_sum_closed_sq(kind, m, spec.R_sq, p.L_sq)
    return Query(((solids, "solid_locus_classify", (spec, m, C)),),
                 _exact_locus_check("sphere", p.L_sq))


# ---------------------------------------------------------------------------
# verify-all


def verify_pass(seed: int) -> tuple[str, bool, bool]:
    text, ok = verify.run_verify("all", seed)
    return text, ok, ratdist.rational24_report().certificate.certified


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _tolerance_miss(row: str, misses: dict) -> bool:
    """A FAIL row of a known tolerance miss: a listed row, residual in bound."""
    head, _, note = row.partition(" FAIL")
    if note or not head.startswith(tuple(misses["rows"])):
        return False
    try:
        residual = float(head.split()[-1])
    except ValueError:  # "exact" rows
        return False
    return residual < misses["max_residual"]


def verify_query(seed: int, spec: dict, known: dict[int, str]) -> Query:
    """One proof pass; its text must match any digest already known for the seed.

    A pass whose only FAIL rows are known tolerance misses (spec's
    "tolerance_misses") is a known-defect rejection; any other FAIL row
    fails it.
    """
    totals, misses = spec["verify_totals"], spec["tolerance_misses"]

    def check(outs: list) -> str | None:
        text, ok, certified = outs[0]
        lines = text.rstrip("\n").split("\n")
        if seed in known and digest(text) != known[seed]:
            return f"verify text at seed {seed} differs from its earlier pass"
        if not certified:
            return "rational24 certificate not certified"
        if not lines[-1].startswith(totals + ","):
            return f"verify seed {seed}: {lines[-1]}"
        failing = [line for line in lines if " FAIL" in line]
        if ok and not failing:
            return None
        if failing and all(_tolerance_miss(line, misses) for line in failing):
            return REJECTED
        return f"verify seed {seed}: {lines[-1]}"
    return Query(((sys.modules[__name__], "verify_pass", (seed,)),), _guard(check))


def verify_stream(seed: int, spec: dict, known: dict[int, str]) -> Iterator[Query]:
    """Proof passes at seeds seed, seed + 1, ..."""
    i = 0
    while True:
        yield verify_query(seed + i, spec, known)
        i += 1


# ---------------------------------------------------------------------------
# streams


def _mixer(rng: random.Random, makers: dict[str, Callable[[], Query]],
           mix: dict[str, float]) -> Iterator[Query]:
    names = list(mix)
    weights = [mix[name] for name in names]
    while True:
        yield makers[rng.choices(names, weights)[0]]()


def query_stream(workload: str, seed: int, spec: dict, part: str) -> Iterator[Query]:
    """The infinite query sequence of a query workload, fixed by (seed, part)."""
    rng = random.Random(f"{workload}/{seed}/{part}")
    if workload == "float-queries":
        share = spec["on_circle_share"]
        makers = {
            "polygon_power": lambda: _float_polygon_power(rng),
            "solid_power": lambda: _float_solid_power(rng),
            "polygon_locus": lambda: _float_polygon_locus(rng),
            "solid_locus": lambda: _float_solid_locus(rng),
            "polygon_recover_averages": lambda: _float_polygon_recover_averages(rng, share),
            "solid_recover_averages": lambda: _float_solid_recover_averages(rng, share),
            "polygon_recover_distances": lambda: _float_polygon_recover_distances(rng),
        }
    elif workload == "exact-queries":
        pool = [Fraction(text) for text in spec["scale_pool"]]
        makers = {
            "solid_power": lambda: _exact_solid_power(rng, pool),
            "polygon_power": lambda: _exact_polygon_power(rng, pool),
            "polygon_recover_averages": lambda: _exact_polygon_recover_averages(rng),
            "polygon_locus": lambda: _exact_polygon_locus(rng, pool),
            "solid_locus": lambda: _exact_solid_locus(rng, pool),
        }
    else:
        raise ValueError(f"not a query workload: {workload!r}")
    return _mixer(rng, makers, spec["mix"])

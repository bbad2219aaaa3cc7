"""Spans and counters recorded from outside the library.

The tracer wraps public functions at every name their callers resolve (each
module attribute bound to the function object), so calls between library
modules are seen as well as calls from the benchmark.  Spans carry their
parent's id and are kept in flat arrays until the run ends.  Arithmetic in
``fields`` is only counted: a span around every ``Surd`` operator would
swamp the timings it is meant to explain.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

from cyclicavg.fields import Surd

VERIFY_SWEEPS = (
    "sweep_closed_vs_brute",
    "sweep_alpha_boundary",
    "sweep_exact_interpolation",
    "sweep_cross_n_equality",
    "sweep_recover_exact",
    "sweep_solver_round_trips",
    "sweep_identity_residuals",
    "sweep_trig_oracles",
    "sweep_solid_closed_vs_brute",
    "sweep_direction_witness",
    "sweep_solid_relations",
    "sweep_quartic_annihilation",
    "sweep_side_recovery",
    "sweep_octic",
    "sweep_necessary_conditions",
)

# (module, function) pairs that get a span; the span is named module.function
SPANNED = (
    ("polygon", "power_sum_brute"),
    ("polygon", "power_sum_brute_exact"),
    ("polygon", "power_sum_brute_even_exact"),
    ("polygon", "power_sum_closed_sq"),
    ("polygon", "locus_classify"),
    ("polygon", "recover_r2_l2"),
    ("geometry", "solid_vertices"),
    ("solids", "solid_power_sum_closed_sq"),
    ("solids", "solid_locus_classify"),
    ("solids", "recover_r2_l2_solid"),
    ("relations", "solve_distances"),
    ("relations", "recover_spec_from_distances"),
    ("trigsums", "cosine_power_sum"),
    ("trigsums", "multiple_angle_cosine_sum"),
    ("errata", "verify_errata"),
    ("ratdist", "rational24_report"),
    ("intpoly", "certify_no_small_factor"),
    ("intpoly", "kronecker_small_factor"),
)

# Surd operators, counted under fields.<key>.calls
SURD_COUNTED = {
    "__mul__": "surd_mul", "__rmul__": "surd_mul",
    "__add__": "surd_addsub", "__radd__": "surd_addsub",
    "__sub__": "surd_addsub", "__rsub__": "surd_addsub",
    "__truediv__": "surd_div", "__rtruediv__": "surd_div",
    "sign": "surd_sign",
}

ROOT = "op"


class Tracer:
    """Span store plus counters; records only while ``active`` is set."""

    def __init__(self) -> None:
        self.active = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.ops = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        sid = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self._stack.pop()

    def begin_op(self) -> None:
        self.active = True
        self.open(self.name_id(ROOT))

    def end_op(self) -> None:
        self.close(self._stack[-1])
        self.active = False
        self.ops += 1

    # -- aggregation ------------------------------------------------------

    def times(self) -> tuple[dict[str, float], dict[str, float], Counter]:
        """Per span name: total self seconds, total inclusive seconds, calls."""
        n = len(self.start)
        child = [0.0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        self_s: dict[str, float] = defaultdict(float)
        incl_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for i in range(n):
            name = self.names[self.name_of[i]]
            dur = end[i] - start[i]
            self_s[name] += dur - child[i]
            incl_s[name] += dur
            calls[name] += 1
        return self_s, incl_s, calls

    def write(self, path) -> None:
        with open(path, "w") as out:
            out.write("id\tparent\tname\tstart_s\tend_s\n")
            names, name_of, parent = self.names, self.name_of, self.parent
            for i, (t0, t1) in enumerate(zip(self.start, self.end)):
                out.write(f"{i}\t{parent[i]}\t{names[name_of[i]]}\t{t0:.9f}\t{t1:.9f}\n")


# ---------------------------------------------------------------------------
# wrappers


def _spanned(tracer: Tracer, name: str, fn):
    nid = tracer.name_id(name)
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        sid = tracer.open(nid)
        try:
            return fn(*args, **kwargs)
        except Exception:
            counts[name + ".raised"] += 1
            raise
        finally:
            tracer.close(sid)
    return wrapper


def _solid_brute(tracer: Tracer, fn):
    """solid_power_sum_brute, its span named by the backend it ran on."""
    ids = {True: tracer.name_id("solids.solid_power_sum_brute.float"),
           False: tracer.name_id("solids.solid_power_sum_brute.exact")}

    @functools.wraps(fn)
    def wrapper(spec, m, p):
        if not tracer.active:
            return fn(spec, m, p)
        sid = tracer.open(ids[False])
        try:
            out = fn(spec, m, p)
        finally:
            tracer.close(sid)
        tracer.name_of[sid] = ids[isinstance(out, float)]
        return out
    return wrapper


def _counted(tracer: Tracer, key: str, fn):
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.active:
            counts[key] += 1
        return fn(*args, **kwargs)
    return wrapper


def _factor_degrees(tracer: Tracer, fn):
    """factor_degrees_mod, counting calls and primes with a usable reduction."""
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(p, q):
        out = fn(p, q)
        if tracer.active:
            counts["intpoly.factor_degrees_mod.calls"] += 1
            counts["intpoly.factor_degrees_mod.usable"] += out is not None
        return out
    return wrapper


def _bisect(tracer: Tracer, fn):
    """bisect_radius_sq, counting how often it evaluates the map it inverts."""
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(f, target):
        if not tracer.active:
            return fn(f, target)
        counts["polygon.bisect_radius_sq.calls"] += 1

        def counted_f(u):
            counts["polygon.bisect_radius_sq.evals"] += 1
            return f(u)
        return fn(counted_f, target)
    return wrapper


def _library_modules() -> list:
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "cyclicavg" or name.startswith("cyclicavg."))]


def _rebind(modules: list, original, wrapper) -> None:
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap every traced function at each name it is bound to."""
    modules = _library_modules()
    by_name = {m.__name__: m for m in modules}

    def wrap(module: str, attr: str, make) -> None:
        original = getattr(by_name[f"cyclicavg.{module}"], attr, None)
        if original is not None:
            _rebind(modules, original, make(original))

    for sweep in VERIFY_SWEEPS:
        wrap("verify", sweep, lambda fn, s=sweep: _spanned(tracer, f"verify.{s}", fn))
    wrap("verify", "_errata_rows", lambda fn: _spanned(tracer, "verify.errata_rows", fn))
    for module, attr in SPANNED:
        wrap(module, attr, lambda fn, n=f"{module}.{attr}": _spanned(tracer, n, fn))
    wrap("solids", "solid_power_sum_brute", lambda fn: _solid_brute(tracer, fn))
    wrap("geometry", "polygon_distance_sq",
         lambda fn: _counted(tracer, "geometry.polygon_distance_sq.calls", fn))
    wrap("intpoly", "factor_degrees_mod", lambda fn: _factor_degrees(tracer, fn))
    wrap("polygon", "bisect_radius_sq", lambda fn: _bisect(tracer, fn))
    for method, key in SURD_COUNTED.items():
        setattr(Surd, method, _counted(tracer, f"fields.{key}.calls", getattr(Surd, method)))


# ---------------------------------------------------------------------------
# per-layer metrics


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, verify_checks: float) -> dict[str, tuple[float, str]]:
    """Per-layer numbers per traced op (per verify pass on verify-all)."""
    ops = max(tracer.ops, 1)
    self_s, incl_s, calls = tracer.times()
    counts = tracer.counts
    out: dict[str, tuple[float, str]] = {}

    def per_op_ms(key: str, seconds: float) -> None:
        out[key] = (1000.0 * seconds / ops, "ms/op")

    def per_op_calls(key: str, n: float) -> None:
        out[key] = (n / ops, "count/op")

    for sweep in VERIFY_SWEEPS:
        per_op_ms(f"verify.{sweep}.ms", incl_s.get(f"verify.{sweep}", 0.0))
    per_op_ms("verify.errata_rows.ms", incl_s.get("verify.errata_rows", 0.0))
    out["verify.checks"] = (verify_checks, "count/op")

    for name in ("polygon.power_sum_brute_even_exact", "polygon.power_sum_brute",
                 "polygon.power_sum_closed_sq", "polygon.locus_classify",
                 "geometry.solid_vertices"):
        per_op_calls(f"{name}.calls", calls.get(name, 0))
    for name in ("polygon.power_sum_brute_even_exact", "polygon.power_sum_brute_exact",
                 "polygon.power_sum_brute", "polygon.power_sum_closed_sq",
                 "polygon.locus_classify", "polygon.recover_r2_l2",
                 "geometry.solid_vertices", "solids.solid_power_sum_closed_sq",
                 "solids.solid_locus_classify", "relations.solve_distances",
                 "relations.recover_spec_from_distances", "trigsums.cosine_power_sum",
                 "trigsums.multiple_angle_cosine_sum", "errata.verify_errata",
                 "ratdist.rational24_report", "intpoly.certify_no_small_factor",
                 "intpoly.kronecker_small_factor"):
        per_op_ms(f"{name}.ms", self_s.get(name, 0.0))
    per_op_ms("solids.solid_power_sum_brute.exact_ms",
              self_s.get("solids.solid_power_sum_brute.exact", 0.0))
    per_op_ms("solids.solid_power_sum_brute.float_ms",
              self_s.get("solids.solid_power_sum_brute.float", 0.0))

    for key in sorted(set(SURD_COUNTED.values())):
        per_op_calls(f"fields.{key}.calls", counts[f"fields.{key}.calls"])
    per_op_calls("geometry.polygon_distance_sq.calls", counts["geometry.polygon_distance_sq.calls"])
    per_op_calls("intpoly.factor_degrees_mod.calls", counts["intpoly.factor_degrees_mod.calls"])
    out["intpoly.usable_prime_ratio"] = (
        _ratio(counts["intpoly.factor_degrees_mod.usable"],
               counts["intpoly.factor_degrees_mod.calls"]), "ratio")
    out["polygon.bisect_radius_sq.evals_per_call"] = (
        _ratio(counts["polygon.bisect_radius_sq.evals"],
               counts["polygon.bisect_radius_sq.calls"]), "count/call")
    for name in ("polygon.recover_r2_l2", "solids.recover_r2_l2_solid"):
        out[f"{name}.failed"] = (_ratio(counts[f"{name}.raised"], calls.get(name, 0)), "ratio")
    return out


def import_self_ms(stderr: str) -> dict[str, float]:
    """Self import time per cyclicavg module, from ``-X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3:
            continue
        module = fields[2].strip()
        if module == "cyclicavg" or module.startswith("cyclicavg."):
            try:
                out[module] = int(fields[0]) / 1000.0
            except ValueError:
                continue
    return out


MODULES = ("cyclicavg",) + tuple(
    f"cyclicavg.{m}" for m in ("errors", "fields", "geometry", "intpoly", "polygon",
                               "relations", "ratdist", "solids", "trigsums", "errata",
                               "verify", "plotting", "cli"))

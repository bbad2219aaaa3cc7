"""Benchmark of the cyclicavg library and CLI.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Runs one workload (see workloads.json) as a closed loop with one client in
this process, checks every output, prints one line per metric with its unit
and sample count, and ends with a JSON result line.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` reports the per-layer metrics, from a
separate traced phase that follows an untraced one of the same length, and
writes the spans under .perfbench_out/.  Run from anywhere; the library is
imported from the checkout's src/.  Exits 1 if an output check fails, or if
failed checks plus known-defect rejections exceed the workload's ceiling
(failed_ratio.max in workloads.json), and 2 if the library is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from array import array
from fractions import Fraction
from itertools import islice
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("verify-all", "float-queries", "exact-queries")
SETUP_LAUNCHES = 20  # interpreter launches behind setup_s, spread over the run
IMPORTTIME_LAUNCHES = 7  # launches behind the per-module import times
WARMUP_SECONDS = 1.0
BATCH = 256  # queries generated at a time, before any of them is timed
LATENCY_SAMPLES = 1 << 16  # latencies kept, the latest ones, for p50 and p99
P99_MIN_SAMPLES = 1000  # p99 needs at least 10 samples beyond it
# On a shared 2-vCPU virtual machine the speed of Python code drifts by up to
# 1.6x within minutes, much alike for any such code.  So the timed phase stops
# after every STEP_S of call time to run a fixed reference unit until the
# reference has taken REFERENCE_SHARE of the call time so far, and ops_per_s
# and setup_s are scaled to a host that runs one unit in REFERENCE_UNIT_S.
# The unit uses only the standard library, so no change to the library moves
# it.
STEP_S = 0.1
REFERENCE_SHARE = 0.1
REFERENCE_UNIT_S = 0.001

# the child answers the first CLI call; setup_s ends when its answer arrives
CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
from cyclicavg import cli
t1 = time.perf_counter()
code = cli.main(["eval", "--backend", "float", "--polygon", "4", "--R", "1",
                 "--L", "2", "--m", "3"])
t2 = time.perf_counter()
sys.stderr.write(f"first_call_s {t2 - t1!r} {code}\\n")
"""
CHILD_ANSWER = "980"


def launch(importtime: bool) -> tuple[float, float, str]:
    """(launch-to-answer seconds, first-call seconds, stderr) of a fresh CLI."""
    cmd = [sys.executable, "-S", "-u"]
    if importtime:
        cmd += ["-X", "importtime"]
    cmd += ["-c", CHILD, str(SRC)]
    env = {k: v for k, v in os.environ.items() if k != "CYCLICAVG_BACKEND"}
    t0 = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env, text=True, cwd=ROOT) as proc:
        answer = proc.stdout.readline()
        t1 = perf_counter()
        try:
            _, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
    if proc.returncode != 0 or answer.strip() != CHILD_ANSWER:
        raise RuntimeError(f"CLI launch answered {answer!r}, exit {proc.returncode}: {err}")
    first_call = next(float(line.split()[1]) for line in err.splitlines()
                      if line.startswith("first_call_s "))
    return t1 - t0, first_call, err


class Reference:
    """Times the reference unit: exact fractions, float loops, small dicts."""

    def __init__(self) -> None:
        self.units = 0
        self.seconds = 0.0

    @staticmethod
    def unit() -> tuple:
        acc = Fraction(0)
        for k in range(1, 80):
            acc += Fraction(k, k + 3) * Fraction(2 * k + 1, 7)
        x = 0.0
        for k in range(1500):
            x += (1.5 - 0.7 * math.cos(0.3 - k * 0.01)) ** 3
        d: dict = {}
        for k in range(800):
            d[(k, k & 7)] = d.get((k - 1, (k - 1) & 7), 0) + 1
        return acc, x, d

    def run_until(self, seconds: float) -> None:
        """Run units until they have taken `seconds` in all.

        The unit makes no reference cycles, so the collector is off while it
        runs: its pauses would otherwise grow with the library's heap.
        """
        gc.disable()
        try:
            while self.seconds < seconds:
                t0 = perf_counter()
                self.unit()
                self.seconds += perf_counter() - t0
                self.units += 1
        finally:
            gc.enable()

    def unit_s(self) -> float:
        return self.seconds / self.units

    def slowdown(self) -> float:
        """How much slower than nominal the host ran: > 1 when slower."""
        return self.unit_s() / REFERENCE_UNIT_S


class Phase:
    """Latencies and verdict counts of the calls made in one phase."""

    def __init__(self) -> None:
        self.ops = 0
        self.busy = 0.0  # seconds spent inside library calls
        # a ring of the latest call times, allocated up front so that the
        # memory it takes does not depend on how many calls the host manages
        self.latencies = array("d", bytes(8 * LATENCY_SAMPLES))
        self.attempted = 0
        self.failed = 0
        self.rejected = 0
        self.failures: list[str] = []
        self.last_outputs: list = []
        self._pending: list = []  # generated queries not yet issued, last first

    def run(self, queries, seconds: float, tracer=None) -> "Phase":
        """Issue queries back to back until `seconds` of call time is spent in all."""
        while self.busy < seconds:
            if not self._pending:
                self._pending = list(islice(queries, BATCH))[::-1]
                if not self._pending:
                    break
            query = self._pending.pop()
            outs = []
            for owner, attr, args in query.calls:
                fn = getattr(owner, attr)
                t0 = perf_counter()
                if tracer is not None:
                    tracer.begin_op()
                try:
                    out = fn(*args)
                except Exception as exc:  # judged by the query's check
                    out = exc
                if tracer is not None:
                    tracer.end_op()
                latency = perf_counter() - t0
                self.latencies[self.ops % LATENCY_SAMPLES] = latency
                self.busy += latency
                self.ops += 1
                outs.append(out)
            self.record(query.check(outs), len(outs))
            self.last_outputs = outs
        return self

    def record(self, verdict: str | None, ops: int) -> None:
        self.attempted += ops
        if verdict == REJECTED:
            self.rejected += ops
        elif verdict is not None:
            self.failed += ops
            if len(self.failures) < 5:
                self.failures.append(verdict)

    def failed_ratio(self) -> float:
        """Failed checks plus known-defect rejections, over ops attempted."""
        return (self.failed + self.rejected) / self.attempted


def warm_up(workload: str, seed: int, spec: dict) -> tuple[Phase, dict]:
    """Untimed calls before measuring; for verify-all also the digest checks."""
    if workload == "verify-all":
        known = {int(s): d for s, d in spec["verify_digests"].items()}
        phase = Phase().run(iter([wl.verify_query(s, spec, known) for s in sorted(known)]),
                            float("inf"))
        if seed not in known:
            known[seed] = wl.digest(wl.verify_pass(seed)[0])
        return phase, known
    return Phase().run(wl.query_stream(workload, seed, spec, "warmup"), WARMUP_SECONDS), {}


def timed_queries(workload: str, seed: int, spec: dict, known: dict):
    if workload == "verify-all":
        return wl.verify_stream(seed, spec, known)
    return wl.query_stream(workload, seed, spec, "timed")


def measure(queries, seconds: float, tracer=None,
            setups: list[float] | None = None) -> tuple[Phase, Reference]:
    """A timed phase of `seconds` call time, with the reference run between
    its stretches, and if `setups` is given, SETUP_LAUNCHES timed launches
    spread through it, so that both see the same spells of the host."""
    phase, reference = Phase(), Reference()
    while phase.busy < seconds:
        phase.run(queries, min(phase.busy + STEP_S, seconds), tracer)
        reference.run_until(REFERENCE_SHARE * phase.busy)
        while (setups is not None and len(setups) < SETUP_LAUNCHES
               and phase.busy >= seconds * (len(setups) + 1) / SETUP_LAUNCHES):
            setups.append(launch(importtime=False)[0])
    return phase, reference


def end_to_end(phase: Phase, reference: Reference, setups: list[float],
               rss_mb: float) -> tuple[list[tuple], list[tuple]]:
    """(name, value, unit, samples) rows: those in the JSON, then report-only ones.

    The report-only rows: latency_p50_ms, unscaled, drifts with the host and,
    in a closed loop with one client, adds little to ops_per_s; failed_ratio
    counts known-defect rejections with the failed checks, so it reads 0 on
    some workloads; latency_p99_ms needs 1000 samples, so it is left out on
    verify-all; reference_unit_ms gives the unscaled figures: the rate is
    ops_per_s times 1 ms over it, the launch time setup_s times it over 1 ms.
    """
    kept = sorted(phase.latencies[:min(phase.ops, LATENCY_SAMPLES)])
    slowdown = reference.slowdown()
    rows = [
        ("setup_s", statistics.median(setups) / slowdown, "s", len(setups)),
        ("ops_per_s", slowdown * phase.ops / phase.busy, "1/s", phase.ops),
        ("peak_rss_mb", rss_mb, "MB", 1),
    ]
    extra = [
        ("reference_unit_ms", 1000.0 * reference.unit_s(), "ms", reference.units),
        ("latency_p50_ms", 1000.0 * statistics.median(kept), "ms", len(kept)),
        ("failed_ratio", phase.failed_ratio(), "ratio", phase.attempted),
    ]
    if len(kept) >= P99_MIN_SAMPLES:
        extra.append(("latency_p99_ms", 1000.0 * kept[int(0.99 * len(kept))], "ms", len(kept)))
    return rows, extra


def per_layer(workload: str, seed: int, spec: dict, known: dict, seconds: float) -> tuple:
    """Import-time launches, an untraced phase, then a traced phase."""
    imports: dict[str, list[float]] = {m: [] for m in tracing.MODULES}
    first_calls = []
    for _ in range(IMPORTTIME_LAUNCHES):
        _, first_call, err = launch(importtime=True)
        first_calls.append(first_call)
        for module, ms in tracing.import_self_ms(err).items():
            if module in imports:
                imports[module].append(ms)
    half = seconds / 2.0
    plain, plain_ref = measure(timed_queries(workload, seed, spec, known), half)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    traced, traced_ref = measure(timed_queries(workload, seed, spec, known), half, tracer)

    checks = 0.0
    if workload == "verify-all" and traced.last_outputs:
        checks = float(traced.last_outputs[0][0].rstrip("\n").rsplit("\n", 1)[-1].split()[2])
    ops = traced.ops
    rows = [(name, value, unit, ops)
            for name, (value, unit) in tracing.layer_metrics(tracer, checks).items()]
    for module, samples in imports.items():
        rows.append((f"import.{module}.ms", statistics.median(samples) if samples else 0.0,
                     "ms", len(samples)))
    rows.append(("cli.first_call.ms", 1000.0 * statistics.median(first_calls), "ms",
                 len(first_calls)))
    rows.append(("trace.op_ms", 1000.0 * traced.busy / ops, "ms/op", ops))
    overhead = ((traced_ref.slowdown() * ops / traced.busy)
                / (plain_ref.slowdown() * plain.ops / plain.busy))
    rows.append(("trace.overhead_ratio", overhead, "ratio", ops))

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{workload}-seed{seed}.tsv")
    return rows, [plain, traced]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((HERE / "workloads.json").read_text())["workloads"][args.workload]
    warm, known = warm_up(args.workload, args.seed, spec)
    if args.trace:
        rows, phases = per_layer(args.workload, args.seed, spec, known, args.seconds)
        extra = []
    else:
        launch(importtime=False)  # fills the file cache; not counted
        setups: list[float] = []
        phase, reference = measure(timed_queries(args.workload, args.seed, spec, known),
                                   args.seconds, setups=setups)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rows, extra = end_to_end(phase, reference, setups, rss_mb)
        phases = [phase]

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    failures = warm.failures + [f for p in phases for f in p.failures]
    ratio = sum(p.failed + p.rejected for p in phases) / attempted
    ceiling = spec["failed_ratio"]["max"]
    if ratio > ceiling:
        failures.append(f"failed_ratio {ratio:.4g} over its ceiling {ceiling}")
    correct = warm.failed == 0 and failed == 0 and ratio <= ceiling
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, value, unit, samples in rows + extra:
        print(f"{name} = {value!r} {unit} (n={samples})")
    for reason in failures:
        print(f"FAILED: {reason}")
    metrics = {name: {"value": value, "unit": unit} for name, value, unit, _ in rows}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    # the library under test is the checkout's own, never an installed copy
    if not (SRC / "cyclicavg" / "__init__.py").is_file():
        print(f"error: no library at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads as wl
    from workloads import REJECTED
    sys.exit(main())

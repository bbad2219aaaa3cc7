"""Quick self-test of the benchmark: python3 perfbench/selftest.py

Runs every workload briefly at a fixed seed, untraced and traced, prints
each run's metrics, and exits nonzero unless:

* every metric named in BENCHMARK.json is reported, with its unit, and no other;
* no output check failed, and failed_ratio (failed checks plus known-defect
  rejections, over ops attempted) is at its baseline in workloads.json: equal
  to it where it is 0, else from half of it to the recorded ceiling;
* on verify-all, verify.checks is the check total of workloads.json (29021)
  per pass, and the verify.<sweep>.ms times sum to the untraced pass time
  within the tracing overhead.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 1
SECONDS = 2


def run(workload: str, trace: int) -> tuple[dict, dict, list[str]]:
    """(JSON result, {name: (value, unit)} from the report lines, problems)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180, cwd=ROOT)
    sys.stdout.write(proc.stdout)
    problems = [] if proc.returncode == 0 else [f"exit {proc.returncode}: {proc.stderr[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return {}, {}, problems + ["no output"]
    result = json.loads(lines[-1])
    reported = {}
    for line in lines[:-1]:
        name, sep, rest = line.partition(" = ")
        if sep:
            value, unit = rest.split()[:2]
            reported[name] = (float(value), unit)
    return result, reported, problems


def check_names(result: dict, declared: list[dict]) -> list[str]:
    got = {name: m["unit"] for name, m in result.get("metrics", {}).items()}
    want = {m["name"]: m["unit"] for m in declared}
    problems = [f"missing metric {name}" for name in want if name not in got]
    problems += [f"undeclared metric {name}" for name in got if name not in want]
    problems += [f"{name}: unit {got[name]}, declared {unit}"
                 for name, unit in want.items() if name in got and got[name] != unit]
    return problems


def check_failed_ratio(ratio: float, recorded: dict) -> list[str]:
    baseline, ceiling = recorded["baseline"], recorded["max"]
    if baseline == 0.0:
        ok = ratio == 0.0
    else:
        ok = baseline / 2.0 <= ratio <= ceiling
    if ok:
        return []
    return [f"failed_ratio {ratio} off its baseline {baseline} (ceiling {ceiling})"]


def check_verify_layers(metrics: dict, totals: str) -> list[str]:
    value = {name: m["value"] for name, m in metrics.items()}
    expected = float(totals.split(", ")[1].split()[0])
    problems = []
    if value["verify.checks"] != expected:
        problems.append(f"verify.checks = {value['verify.checks']}, expected {expected:g}")
    sweeps = sum(v for name, v in value.items()
                 if name.startswith("verify.") and name.endswith(".ms"))
    traced = value["trace.op_ms"]
    untraced = traced * value["trace.overhead_ratio"]
    if not untraced - abs(traced - untraced) <= sweeps <= traced:
        problems.append(f"sweeps sum to {sweeps:.1f} ms per pass; untraced pass "
                        f"{untraced:.1f} ms, traced {traced:.1f} ms")
    return problems


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = json.loads((HERE / "workloads.json").read_text())["workloads"]
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            result, reported, found = run(workload, trace)
            if result:
                found += check_names(result, declared)
                if not result["correct"] or result["failed"]:
                    found.append(f"{result['failed']} ops failed their checks")
            if result and trace == 0:
                ratio = reported.get("failed_ratio", (float("nan"), ""))[0]
                found += check_failed_ratio(ratio, specs[workload]["failed_ratio"])
            if result and trace == 1 and workload == "verify-all":
                found += check_verify_layers(result["metrics"], specs[workload]["verify_totals"])
            problems += [f"{workload} trace={trace}: {p}" for p in found]
    for problem in problems:
        print(f"SELFTEST FAILED: {problem}")
    if not problems:
        print("selftest passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

import ast
import dataclasses
import hashlib
import importlib
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from cyclicavg import ratdist, verify
from cyclicavg.verify import SCOPES, run_verify

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "perfbench" / "workloads.json"
DIGESTS = json.loads(WORKLOADS.read_text())["workloads"]["verify-all"]["verify_digests"]


@pytest.mark.parametrize("seed", [3, 7, 11])
def test_verify_text_matches_recorded_digest(seed):
    # a fixed digest also pins determinism and the float operation order
    text, ok = run_verify("all", seed)
    assert ok
    assert "0 failures" in text
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[str(seed)]


def test_benchmark_calls_resolve():
    # the benchmark names library functions as (module, "attribute") tuples and
    # module.attribute uses; a deleted or renamed one would break its runs
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    modules = {alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "cyclicavg"
               for alias in node.names}
    used = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Tuple) and len(node.elts) >= 2
                and isinstance(node.elts[0], ast.Name) and node.elts[0].id in modules
                and isinstance(node.elts[1], ast.Constant)):
            used.add((node.elts[0].id, node.elts[1].value))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules):
            used.add((node.value.id, node.attr))
    assert used, "no library call found in workloads.py"
    missing = [f"{module}.{attr}" for module, attr in sorted(used)
               if not hasattr(importlib.import_module(f"cyclicavg.{module}"), attr)]
    assert not missing


def test_runtime_imports_are_stdlib_only():
    # every absolute import of the package names a standard-library module
    foreign = []
    for path in sorted((ROOT / "src" / "cyclicavg").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert not foreign


def _sections(text: str) -> dict[str, list[str]]:
    sections: dict[str, list[str]] = {}
    current = None
    for line in text.splitlines():
        if line.startswith("-- "):
            current = sections.setdefault(line.split()[1], [])
        elif line.startswith("="):
            current = None
        elif current is not None:
            current.append(line)
    return sections


def test_scopes_are_subsets():
    # every scope prints, line for line, its sections of the digest-pinned
    # "all" text
    full, ok = run_verify("all", 11)
    assert ok
    full_sections = _sections(full)
    assert list(full_sections) == ["polygon", "solid", "rational"]
    for scope in SCOPES[1:]:
        text, ok = run_verify(scope, 11)
        assert ok
        assert _sections(text) == {scope: full_sections[scope]}


def test_nan_residual_fails_its_row(monkeypatch):
    # min and max skip a NaN that does not come first, so the oracle turns NaN
    # only midway through each sweep, at n = 5
    real = verify.power_sum_brute
    monkeypatch.setattr(verify, "power_sum_brute",
                        lambda spec, m, p: math.nan if spec.n == 5 else real(spec, m, p))
    row = verify.sweep_closed_vs_brute(7)
    assert not row.passed and math.isnan(row.max_rel)
    free, witness = verify.sweep_alpha_boundary(7)
    assert not free.passed and math.isnan(free.max_rel)
    assert not witness.passed and math.isnan(witness.max_rel)


def test_failed_certificate_reports_a_miss(monkeypatch):
    # an exact row that misses shows the checks before the miss and inf
    real = ratdist.certify_no_small_factor
    monkeypatch.setattr(ratdist, "certify_no_small_factor",
                        lambda *a, **k: dataclasses.replace(real(*a, **k), certified=False))
    row = verify.sweep_octic(0)[-1]
    assert (row.checks, row.max_rel, row.passed) == (0, math.inf, False)
    assert row.note.startswith("method=")


def test_benchmark_tracer_spans_every_sweep():
    # the tracer rebinds module attributes, so a sweep called through a
    # container would run unspanned
    script = textwrap.dedent("""
        import json, sys
        sys.path.insert(0, sys.argv[1])
        from cyclicavg import verify
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.begin_op()
        verify.run_verify("all", 7)
        tracer.end_op()
        calls = tracer.times()[2]
        print(json.dumps([tracing.VERIFY_SWEEPS, calls]))
    """)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", script, str(ROOT / "perfbench")],
                         capture_output=True, text=True, env=env, timeout=300, check=True)
    sweeps, calls = json.loads(out.stdout)
    assert len(sweeps) == 15
    for name in [f"verify.{sweep}" for sweep in sweeps] + ["verify.errata_rows"]:
        assert calls.get(name, 0) >= 1, name


def test_benchmark_surd_counters_see_internal_steps():
    # a division multiplies through __mul__ and a comparison subtracts
    # through __sub__ and then calls sign, so each is counted as well
    script = textwrap.dedent("""
        import json, sys
        sys.path.insert(0, sys.argv[1])
        from cyclicavg.fields import GOLDEN_RATIO, Surd
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
        x, y = Surd(1, 2), Surd(3, -1)
        tracer.begin_op()
        x + y, x - y, x * y, x / GOLDEN_RATIO, x < y
        tracer.end_op()
        print(json.dumps(tracer.counts))
    """)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", script, str(ROOT / "perfbench")],
                         capture_output=True, text=True, env=env, timeout=60, check=True)
    assert json.loads(out.stdout) == {"fields.surd_addsub.calls": 3, "fields.surd_mul.calls": 2,
                                      "fields.surd_div.calls": 1, "fields.surd_sign.calls": 1}

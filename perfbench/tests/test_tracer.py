"""Self-tests of the benchmark's tracer and result plumbing.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer as tracing  # noqa: E402

PER_LAYER = run.metric_units("per_layer")


class ScriptedClock:
    def __init__(self, times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def union_length(intervals):
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


# (layer, start, end, children): A holds B (which holds C) and D
SPANS = ("A", 0.0, 20.0, [
    ("B", 1.0, 9.0, [("C", 2.0, 5.5, [])]),
    ("D", 11.0, 17.0, []),
])


def _events(span, out):
    layer, start, end, children = span
    out.append((start, "enter", layer))
    for child in children:
        _events(child, out)
    out.append((end, "exit", layer))
    return out


def _expected_self(span, acc):
    layer, start, end, children = span
    covered = union_length([(c[1], c[2]) for c in children])
    acc[layer] = acc.get(layer, 0.0) + (end - start) - covered
    for child in children:
        _expected_self(child, acc)
    return acc


def test_self_time_is_duration_minus_union_of_children():
    events = _events(SPANS, [])
    tr = tracing.Tracer(clock=ScriptedClock(t for t, _, _ in events))
    for _, kind, layer in events:
        tr.enter(layer) if kind == "enter" else tr.exit()
    expected = _expected_self(SPANS, {})
    assert expected == {"A": 20.0 - 8.0 - 6.0, "B": 8.0 - 3.5, "C": 3.5, "D": 6.0}
    assert dict(tr.self_s) == pytest.approx(expected)
    assert sum(tr.self_s.values()) == pytest.approx(20.0)


def test_group_counts_outermost_span_only():
    tr = tracing.Tracer(clock=ScriptedClock([0.0, 1.0, 4.0, 10.0]))
    tr.enter("series", "series.product_form")
    tr.enter("series", "series.product_form")  # nested: not counted again
    tr.exit()
    tr.exit()
    assert tr.incl_s == {"series.product_form": 10.0}
    assert tr.self_s == {"series": 10.0}


def test_exception_closes_its_span():
    tr = tracing.Tracer(clock=ScriptedClock([0.0, 2.0, 5.0, 9.0]))

    def boom():
        raise ValueError("bad input")

    traced = tr.wrap(boom, "symfunc", "symfunc.boom", hook=tracing._count("boom.calls"))
    tr.enter("registry")
    with pytest.raises(ValueError):
        traced()
    tr.exit()
    assert tr._stack == []
    assert tr.incl_s == {"symfunc.boom": 3.0}
    assert dict(tr.self_s) == {"symfunc": 3.0, "registry": 6.0}
    assert "boom.calls" not in tr.counts  # hooks run on success only


def _totals(tr):
    return {"self_s": dict(tr.self_s), "incl_s": dict(tr.incl_s), "counts": dict(tr.counts),
            "hook_errors": dict(tr.hook_errors), "kernel_memo_entries": 0}


def test_missing_targets_report_zeros():
    # a package without most of its layers: nothing to wrap, nothing raised
    symfunc = types.ModuleType("plethy.symfunc")

    def hall_inner(a, b):
        return 0

    symfunc.hall_inner = hall_inner
    tr = tracing.Tracer()
    tracing.install(tr, {"symfunc": symfunc, "schur": types.ModuleType("plethy.schur")})
    assert symfunc.hall_inner is not hall_inner
    symfunc.hall_inner(1, 2)
    totals = _totals(tr)
    assert run.trace_error(totals) is None
    values = run.layer_values(totals, PER_LAYER)
    assert values["symfunc.self_s"] > 0
    assert all(values[name] == 0 for name in PER_LAYER if name != "symfunc.self_s")
    assert run.layer_values(None, PER_LAYER) == dict.fromkeys(PER_LAYER, 0)
    assert run.trace_error(None) is not None


def test_hook_error_fails_the_call():
    # the target is still there but no longer fits its counter hook
    symfunc = types.ModuleType("plethy.symfunc")

    def mul_trunc(a, b, cap):
        return a

    symfunc.mul_trunc = mul_trunc
    tr = tracing.Tracer()
    tracing.install(tr, {"symfunc": symfunc})
    assert symfunc.mul_trunc(1, 2, 3) == 1  # the program's result is untouched
    assert symfunc.mul_trunc(4, 5, 6) == 4
    [(where, times)] = tr.hook_errors.items()
    assert where.startswith("test_hook_error_fails_the_call.<locals>.mul_trunc: AttributeError")
    assert times == 2
    assert "mul_trunc" in run.trace_error(_totals(tr))


def _traced_counts(tmp_path, hashseed):
    trace = tmp_path / f"trace{hashseed}.json"
    env = run.child_env(hashseed)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "call", "--trace", str(trace),
         "--", "verify", "--all", "--cap", "7", "--json"],
        env=env, capture_output=True, timeout=300,
    )
    plain = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "call", "--",
         "verify", "--all", "--cap", "7", "--json"],
        env=env, capture_output=True, timeout=300,
    )
    assert proc.returncode == plain.returncode == 0
    assert proc.stdout == plain.stdout  # tracing changes no output byte
    totals = json.loads(trace.read_text())
    assert run.trace_error(totals) is None
    return run.layer_values(totals, PER_LAYER)


def _kernel_name():
    proc = subprocess.run([sys.executable, str(BENCH / "child.py"), "import"],
                          env=run.child_env(0), capture_output=True, timeout=60, check=True)
    return json.loads(proc.stdout)["kernel"]


def test_counts_repeat_across_calls_and_hash_seeds(tmp_path):
    a = _traced_counts(tmp_path, 1)
    b = _traced_counts(tmp_path, 2)
    counts = [name for name, unit in PER_LAYER.items() if unit == "count"]
    assert {n: a[n] for n in counts} == {n: b[n] for n in counts}
    nonzero = ["symfunc.mul.calls", "symfunc.plethysm.calls", "series.ctx.builds",
               "schur.to_schur.calls", "lie_family.calls"]
    if _kernel_name() == "pure-python":  # a compiled kernel's memo is not visible
        nonzero.append("kernel.memo_entries")
    for name in nonzero:
        assert a[name] > 0, name
    assert a["registry.identity.THRALL.s"] > 0


def test_spawn_scales_by_probe_slices_and_kills_at_the_deadline(tmp_path):
    out = tmp_path / "child.out"
    done = run.spawn(["-c", "import time; time.sleep(0.3)"], run.child_env(0), out, 30)
    assert done["exit_code"] == 0 and not done["timed_out"]
    assert done["wall_s"] >= 0.3 and 0 < done["scale"] < 100
    hung = run.spawn(["-c", "import time; time.sleep(60)"], run.child_env(0), out, 1)
    assert hung["timed_out"] and hung["exit_code"] != 0
    assert hung["wall_s"] < 30


def test_every_workload_has_a_reference():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    refs = run.references()
    for w in spec["workloads"]:
        assert (run.REFS / f"{w['name']}.stdout").read_bytes()
        assert refs[w["name"]]["exit_code"] == 0


def test_refuses_a_directory_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    (bench / "refs").mkdir()
    for f in ("run.py", "child.py", "tracer.py", "refs/index.json"):
        (bench / f).write_bytes((BENCH / f).read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "upos-16", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no plethy source" in proc.stderr

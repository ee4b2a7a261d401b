#!/usr/bin/env python3
"""End-to-end benchmark of the plethy command line.

    python3 perfbench/run.py --workload verify-cap12 --seed 1 --seconds 20 --trace 0

One closed-loop client makes one `plethy.cli.main(argv)` call at a time,
each in a fresh interpreter, so every cache starts cold.  Every call's
stdout and exit code must equal the reference captured in perfbench/refs/;
a call that differs is counted as failed and still measured.  The seed
becomes the children's PYTHONHASHSEED and changes no output byte.

Times are scaled to a reference host speed by probe slices timed on the
same CPU while each child runs (see PROBE_PERIOD_S).

--trace 0 prints the end-to-end metrics (median over the run's calls);
--trace 1 alternates plain and traced calls, at least two of each, and
prints the per-layer metrics.  Metric names and units come from
BENCHMARK.json, each workload's argv from refs/index.json.  The last stdout
line is the result object; the line before it records provenance.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFS = HERE / "refs"

SETUP_PROBES = 9  # fresh-interpreter imports per run, after one warm-up
RUN_DEADLINE_S = 165.0  # every run ends well inside three minutes
TRACE_PAIRS = 2  # a traced run makes at least this many plain+traced pairs

# Host speed.  The shared host's speed swings by a third within seconds, as
# other tenants come and go, and that swing hides any change to plethy.  So
# the benchmark pins itself and its children to one CPU, and while a child
# runs it times a fixed probe slice on that CPU every PROBE_PERIOD_S, plus
# PROBE_EDGE slices just before and after.  Each child's times are scaled
# by REF_SLICE_S / (mean slice time): seconds at the reference host speed,
# where one slice takes REF_SLICE_S of CPU.
PROBE_PERIOD_S = 0.1
PROBE_EDGE = 3
REF_SLICE_S = 0.002


class BenchError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


def child_env(seed: int) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PLETHY_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    return env


def _walk(n: int, m: int, memo: dict) -> int:
    if n < 2:
        return 1
    value = memo.get((n, m))
    if value is None:
        value = _walk(n - 1, m, memo) + (_walk(n - 2, m + 1, memo) if m < 8 else 1)
        memo[n, m] = value
    return value


def probe_slice() -> float:
    """CPU seconds this thread takes for a fixed slice of the two kinds of
    work plethy does: Fraction sums kept in a dict (the ring layers) and a
    memoised recursion on tuple keys (the character kernel).  Either kind
    alone tracks the other workloads' slowdowns worse than the two do
    together.  The garbage collector is held off, so it cannot add a pause."""
    gc.disable()
    try:
        t0 = time.thread_time()
        total, seen = Fraction(0), {}
        for i in range(1, 300):
            total += Fraction(1, i % 97 + 1)
            seen[i, i % 7] = total
        for _ in range(5):
            _walk(60, 0, {})
        return time.thread_time() - t0
    finally:
        gc.enable()


def spawn(args: list[str], env: dict, out: Path, timeout: float) -> dict:
    """Run one child with stdout to `out`; return its exit code, its costs
    and `scale`, the factor that turns its times into reference seconds."""
    wflags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    slices = [probe_slice() for _ in range(PROBE_EDGE)]
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], env, file_actions=[
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(out), wflags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(out) + ".err", wflags, 0o644),
    ])
    pidfd = os.pidfd_open(pid)
    deadline = t0 + max(timeout, 1.0)
    ready = False
    try:
        while not ready and time.perf_counter() < deadline:
            ready = bool(select.select([pidfd], [], [], PROBE_PERIOD_S)[0])
            if not ready:
                slices.append(probe_slice())
        if not ready:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
    finally:
        _, status, usage = os.wait4(pid, 0)
        os.close(pidfd)
    wall = time.perf_counter() - t0
    slices += [probe_slice() for _ in range(PROBE_EDGE)]
    return {
        "exit_code": os.waitstatus_to_exitcode(status),
        "timed_out": not ready,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # Linux reports KiB
        "scale": REF_SLICE_S * len(slices) / sum(slices),
    }


def references() -> dict[str, dict]:
    """Workload name -> {"argv", "exit_code"} of its reference call."""
    return json.loads((REFS / "index.json").read_text())


def metric_units(kind: str) -> dict[str, str]:
    """Metric name -> unit for kind "end_to_end" or "per_layer"."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def src_tree_id(path: Path) -> str:
    """The git tree id of the files under path, computed without git.

    It identifies the code in a checkout that is not a git repository, and
    equals `git rev-parse <commit>:src` when every tracked file is present."""
    entries = []
    for child in path.iterdir():
        if child.name == "__pycache__" or child.suffix in (".pyc", ".so") or child.name.endswith(".egg-info"):
            continue
        if child.is_dir():
            mode, oid = b"40000", src_tree_id(child)
        else:
            data = child.read_bytes()
            mode = b"100755" if os.access(child, os.X_OK) else b"100644"
            oid = hashlib.sha1(b"blob %d\0" % len(data) + data).hexdigest()
        key = child.name + ("/" if child.is_dir() else "")
        entries.append((key, mode + b" " + child.name.encode() + b"\0" + bytes.fromhex(oid)))
    body = b"".join(e for _, e in sorted(entries))
    return hashlib.sha1(b"tree %d\0" % len(body) + body).hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


class Run:
    def __init__(self, workload: str, seed: int, work: Path):
        ref = references()[workload]
        self.workload = workload
        self.argv = ref["argv"]
        self.env = child_env(seed)
        self.work = work
        self.start = time.perf_counter()
        self.ref_stdout = (REFS / f"{workload}.stdout").read_bytes()
        self.ref_exit = ref["exit_code"]
        self.attempted = 0
        self.failed = 0
        self.kernel = None
        self.measured: dict[str, float] = {}  # medians before scaling, for provenance

    def remaining(self) -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - self.start)

    def probe_import(self) -> tuple[float, float]:
        """Time `import plethy.cli` in a fresh interpreter: (seconds, scale)."""
        out = self.work / "probe.out"
        res = spawn([str(HERE / "child.py"), "import"], self.env, out, self.remaining())
        if res["exit_code"] != 0:
            raise BenchError("cannot import plethy.cli:\n" + Path(str(out) + ".err").read_text())
        probe = json.loads(out.read_text())
        if not Path(probe["plethy_file"]).resolve().is_relative_to(ROOT / "src"):
            raise BenchError(f"plethy was imported from {probe['plethy_file']}, not this checkout")
        self.kernel = probe["kernel"]
        return probe["import_s"], res["scale"]

    def setup_s(self) -> float:
        self.probe_import()  # warm-up: writes the byte-code caches on a fresh checkout
        probes = [self.probe_import() for _ in range(SETUP_PROBES)]
        self.measured["setup_s"] = statistics.median(t for t, _ in probes)
        return statistics.median(t * scale for t, scale in probes)

    def call(self, traced: bool = False) -> dict:
        """One plethy call, checked against the reference; with traced, the
        child's layer totals come back under "trace"."""
        out, trace = self.work / "call.out", self.work / "trace.json"
        trace.unlink(missing_ok=True)
        opts = ["--trace", str(trace)] if traced else []
        res = spawn([str(HERE / "child.py"), "call", *opts, "--", *self.argv],
                    self.env, out, self.remaining())
        self.attempted += 1
        res["ref_wall_s"] = res["wall_s"] * res["scale"]
        res["ref_cpu_s"] = res["cpu_s"] * res["scale"]
        res["ok"] = (not res["timed_out"] and res["exit_code"] == self.ref_exit
                     and out.read_bytes() == self.ref_stdout)
        if traced:
            res["trace"] = json.loads(trace.read_text()) if trace.exists() else None
            problem = trace_error(res["trace"])
            if problem:
                res["ok"] = False
                print(f"{self.workload} call {self.attempted}: {problem}", file=sys.stderr)
        if not res["ok"]:
            self.failed += 1
        print(f"{self.workload} call {self.attempted}: {'ok' if res['ok'] else 'FAILED'}"
              f" wall {res['wall_s']:.3f} s cpu {res['cpu_s']:.3f} s"
              f" (scaled by {res['scale']:.3f}: {res['ref_wall_s']:.3f} s, {res['ref_cpu_s']:.3f} s)"
              f" rss {res['peak_rss_mb']:.1f} MB{' traced' if traced else ''}",
              file=sys.stderr, flush=True)
        return res

    def calls_for(self, seconds: float, traced: bool = False) -> list[dict]:
        """Closed loop: the next call starts when the last ends, until the
        run has measured `seconds` or the next call might miss the deadline."""
        t0 = time.perf_counter()
        calls = []
        while True:
            calls.append(self.call(traced))
            if time.perf_counter() - t0 >= seconds:
                break
            if self.remaining() < 1.5 * calls[-1]["wall_s"]:
                break
        return calls


def trace_error(trace: dict | None) -> str | None:
    """Why a traced call's layer totals cannot be used, or None."""
    if trace is None:
        return "the traced child wrote no layer totals"
    if trace["hook_errors"]:
        return "counter hooks failed: " + "; ".join(
            f"{where} ({n} times)" for where, n in trace["hook_errors"].items())
    return None


def end_to_end(run: Run, seconds: float) -> dict:
    setup = run.setup_s()
    calls = run.calls_for(seconds)
    for name in ("wall_s", "cpu_s"):
        run.measured[name] = statistics.median(c[name] for c in calls)
    return {
        "wall_s": statistics.median(c["ref_wall_s"] for c in calls),
        "cpu_s": statistics.median(c["ref_cpu_s"] for c in calls),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in calls),
        "setup_s": setup,
    }


def layer_values(total: dict | None, units: dict[str, str]) -> dict:
    """The per-layer metrics in units from one traced call's totals; a
    metric the trace does not produce reads 0."""
    if total is None:
        return dict.fromkeys(units, 0)
    found = {f"{layer}.self_s": s for layer, s in total["self_s"].items()}
    found.update((group + ".s", s) for group, s in total["incl_s"].items())
    found.update(total["counts"])
    found["kernel.memo_entries"] = total["kernel_memo_entries"]
    return {name: found.get(name, 0) for name in units}


def per_layer(run: Run, seconds: float, units: dict[str, str]) -> dict:
    """Plain and traced calls alternate; trace.overhead_s is the median of
    the pairs' differences in wall time.  Times are scaled to the reference
    host speed like the end-to-end ones.  Counts come from the first traced
    call, and every later one must repeat them exactly."""
    run.probe_import()
    t0 = time.perf_counter()
    pairs = []
    while True:
        pairs.append((run.call(), run.call(traced=True)))
        if len(pairs) < TRACE_PAIRS:
            continue
        if time.perf_counter() - t0 >= seconds:
            break
        if run.remaining() < 1.5 * sum(c["wall_s"] for c in pairs[-1]):
            break
    traced = [t for _, t in pairs]
    values = [layer_values(c["trace"], units) for c in traced]
    for call, v in zip(traced, values):
        v.update((name, v[name] * call["scale"]) for name, unit in units.items() if unit == "s")
    counts = [name for name, unit in units.items() if unit == "count"]
    for call, v in zip(traced[1:], values[1:]):
        if call["ok"] and any(v[name] != values[0][name] for name in counts):
            call["ok"] = False
            run.failed += 1
            print(f"{run.workload}: work counts differ between traced calls", file=sys.stderr)
    metrics = {
        name: statistics.median(v[name] for v in values) if unit == "s" else values[0][name]
        for name, unit in units.items()
    }
    metrics["trace.overhead_s"] = statistics.median(t["ref_wall_s"] - p["ref_wall_s"] for p, t in pairs)
    return metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(references()), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "plethy" / "cli.py").is_file():
        print(f"perfbench: no plethy source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})  # children inherit it; see PROBE_PERIOD_S
    try:
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
            units = metric_units("per_layer" if args.trace else "end_to_end")
            run = Run(args.workload, args.seed, Path(tmp))
            if args.trace:
                values = per_layer(run, args.seconds, units)
            else:
                values = end_to_end(run, args.seconds)
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    provenance = {
        "git_sha": git_sha(),
        "src_tree": src_tree_id(ROOT / "src"),
        "python": sys.version.split()[0],
        "nproc": len(cpus),
        "pinned_cpu": min(cpus),
        "kernel": run.kernel,
        "plethy_env": "PLETHY_* removed; PLETHY_CACHE_DIR unset, no .npy cache",
        "workload": args.workload,
        "argv": run.argv,
        "seed": args.seed,
        "trace": args.trace,
        "measured": run.measured,
        "ref_slice_s": REF_SLICE_S,
    }
    print(json.dumps({"provenance": provenance}))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

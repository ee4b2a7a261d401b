#!/usr/bin/env python3
"""Run sets of benchmark runs and summarise how steady they are.

    python3 perfbench/sets.py --sets 2 --seeds 10 --out runs.jsonl
    python3 perfbench/sets.py --summary runs.jsonl

Each set runs every workload of BENCHMARK.json once per seed, for its
run_seconds (set k takes the next N seeds, workloads interleaved), with
--trace 0, and appends every result line to the JSONL file.  The summary gives, per workload and end-to-end metric, each set's
median and quartiles (statistics.quantiles, n=4), the spread
(Q3 - Q1) / median, and how much the later set's median is worse than the
first's, against the bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_sets(sets: int, seeds: int, out: Path) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    with out.open("a") as fh:
        for s in range(1, sets + 1):
            for seed in range((s - 1) * seeds + 1, s * seeds + 1):
                for w in workloads:
                    proc = subprocess.run(
                        [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                         "--seconds", str(seconds), "--trace", "0"],
                        cwd=ROOT, capture_output=True, text=True, timeout=600,
                    )
                    *_, provenance, result = map(json.loads, proc.stdout.strip().splitlines())
                    record = {"set": s, "seed": seed, "workload": w, "exit": proc.returncode, **result,
                              **provenance, "log": proc.stderr}
                    fh.write(json.dumps(record) + "\n")
                    fh.flush()
                    print(f"set {s} seed {seed} {w}: " + ", ".join(
                        f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)


def summary(path: Path) -> str:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    records = [json.loads(line) for line in path.read_text().splitlines() if line.strip()]
    failed = sum(r["failed"] for r in records)
    attempted = sum(r["attempted"] for r in records)
    lines = [f"{len(records)} runs, {failed} failed of {attempted} calls attempted", "",
             "| workload | metric | set | n | median | Q1 | Q3 | spread | bound | worse than set 1 |",
             "| --- | --- | --- | --- | --- | --- | --- | --- | --- | --- |"]
    for w in [x["name"] for x in spec["workloads"]]:
        for metric, bound in bounds.items():
            first = None
            for s in sorted({r["set"] for r in records}):
                vals = [r["metrics"][metric]["value"] for r in records if r["workload"] == w and r["set"] == s]
                if len(vals) < 2:
                    continue
                q1, med, q3 = statistics.quantiles(vals, n=4)
                worse = "" if first is None else f"{(med - first) / first:+.1%}"
                first = med if first is None else first
                lines.append(f"| {w} | {metric} | {s} | {len(vals)} | {med:.4g} | {q1:.4g} | {q3:.4g} "
                             f"| {(q3 - q1) / med:.1%} | {bound:.0%} | {worse} |")
    return "\n".join(lines)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--out", type=Path, help="JSONL file the results are appended to")
    ap.add_argument("--summary", type=Path, help="only summarise this JSONL file")
    args = ap.parse_args()
    if args.summary:
        print(summary(args.summary))
        return 0
    if args.out is None:
        ap.error("--out or --summary is required")
    run_sets(args.sets, args.seeds, args.out)
    print(summary(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

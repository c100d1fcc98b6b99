#!/usr/bin/env python3
"""Run the benchmark on several workloads and seeds and report the spread.

    python3 bench/report.py                       # every workload, seed 0
    python3 bench/report.py --seeds 1-10          # run-to-run spread
    python3 bench/report.py --workloads mc_batch --seeds 1-5 --trace 1

Each run is a fresh ``bench/run.py`` process. For every metric the report
prints its unit, the median and quartiles over the runs
(``statistics.quantiles(values, n=4)``) and the spread (Q3 - Q1) / median,
next to the metric's bound from BENCHMARK.json. It also checks that the
runs print exactly the metrics BENCHMARK.json names, and that all passed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    env = next((ln[6:] for ln in lines if ln.startswith("# env ")), "{}")
    return {"env": json.loads(env), **json.loads(lines[-1])}


def summarize(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seeds", default="0", help="e.g. 0 or 1-10 or 3,5,8")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", help="also write every run's result to this file")
    opts = ap.parse_args()

    declared = spec["per_layer"] if opts.trace else spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in declared}
    seeds = parse_seeds(opts.seeds)
    everything = {}
    ok = True
    for workload in opts.workloads.split(","):
        results = []
        for seed in seeds:
            t0 = time.monotonic()
            res = run_once(workload, seed, opts.seconds, opts.trace)
            results.append(res)
            print(f"# {workload} seed={seed} correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} "
                  f"wall={time.monotonic() - t0:.1f}s", flush=True)
        everything[workload] = results
        env = results[0]["env"]
        print(f"\n{workload}: {len(results)} runs of {opts.seconds} s, trace={opts.trace}, "
              f"python {env.get('python')}, numpy {env.get('numpy')}, "
              f"nproc {env.get('nproc')}, seeds {opts.seeds}, requests per run "
              f"{[r['attempted'] for r in results]}")
        print(f"{'metric':<44} {'unit':<7} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
            if len(vals) != len(results):
                print(f"{name:<44} missing from {len(results) - len(vals)} runs")
                ok = False
                continue
            unit = results[0]["metrics"][name]["unit"]
            med, q1, q3, spread = summarize(vals)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  above bound/3"
            print(f"{name:<44} {unit:<7} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.4f} {bound if bound is not None else '':>6}{flag}")
        extra = set(results[0]["metrics"]) - set(bounds)
        if extra:
            print(f"not in BENCHMARK.json: {sorted(extra)}")
            ok = False
        ok = ok and all(r["correct"] and r["failed"] == 0 for r in results)
    if opts.json:
        Path(opts.json).write_text(json.dumps(everything, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run one workload repeatedly and show how steady its end-to-end metrics are.

    python3 bench/steady.py --workload NAME [--runs 10]

Run k uses seed k (seeds 1..runs) and the run length from BENCHMARK.json.  For
every end-to-end metric the table gives the median of the runs, the first
and third quartiles (statistics.quantiles, n=4), the spread (q3 - q1) /
median, and the metric's bound from BENCHMARK.json.  A metric is steady when
its spread stays below a third of its bound; the last column, three times the
spread, is the smallest bound this workload supports, and is how the bounds
in BENCHMARK.json were chosen (the largest such value over all workloads,
rounded up to a multiple of 0.05, at most 0.25).  The failed share must
read the same in every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("--runs must be at least 2 for quartiles")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    cmd = list(spec["command"])

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    shares = []
    for seed in range(1, args.runs + 1):
        proc = subprocess.run(
            cmd + ["--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, cwd=ROOT, timeout=600,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"seed {seed}: exit code {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        shares.append((result["failed"], result["attempted"]))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        line = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} {line}", flush=True)

    print(f"\n{args.workload}: {args.runs} runs of {seconds:g} s")
    print(f"{'metric':<12} {'unit':<5} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6} {'3*spread':>9}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        bound = bounds.get(name, float("nan"))
        print(f"{name:<12} {units[name]:<5} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{spread:>8.4f} {bound:>6.3g} {3 * spread:>9.4f}")
    distinct = {f / a for f, a in shares}
    print(f"failed share: {sorted(distinct)}" + ("" if len(distinct) == 1 else "  NOT STEADY"))
    return 0


if __name__ == "__main__":
    sys.exit(main())

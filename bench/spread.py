#!/usr/bin/env python3
"""Run the benchmark on several seeds and summarize each metric's spread.

    python3 bench/spread.py --workload eval-m --seeds 1-10 [--trace 0]

Each run lasts run_seconds from BENCHMARK.json, and runs go one after
another. Each run's result line, with its wall time, is printed as JSON.
For every metric it then prints the median over the runs and the distance
between the first and third quartile (statistics.quantiles, n=4) as a share
of the median, next to the bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    config = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in config["end_to_end"] + config["per_layer"]}

    results = []
    for seed in args.seeds:
        argv = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
                "--seed", str(seed), "--seconds", str(config["run_seconds"]), "--trace", str(args.trace)]
        start = time.perf_counter()
        done = subprocess.run(argv, capture_output=True, text=True, check=False)
        wall = time.perf_counter() - start
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        results.append(result)
        line = {"workload": args.workload, "seed": seed, "run_wall_s": round(wall, 1), **result}
        print(json.dumps(line), flush=True)

    print(f"\n{args.workload}: {len(results)} runs, all correct: {all(r['correct'] for r in results)}, "
          f"failed/attempted: {sorted({(r['failed'], r['attempted']) for r in results})[:3]}...")
    print(f"{'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / abs(med) if med else float("nan")
        bound = bounds.get(name)
        print(f"{name:28s} {med:12.6g} {q1:12.6g} {q3:12.6g} {share:8.4f} {bound if bound is not None else '':>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

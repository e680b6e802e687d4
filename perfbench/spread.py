"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload react --seeds 1 2 3 4 5

For every end-to-end metric it prints the median, the distance between
the first and third quartile (``statistics.quantiles(values, n=4)``)
as a share of the median, the metric's bound from ``BENCHMARK.json``
and whether that spread is under a third of the bound.  Runs are
sequential, one process at a time, with the ``run_seconds`` of
``BENCHMARK.json`` unless ``--seconds`` is given.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in args.seeds:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: {wall:.1f} s, correct={result['correct']}, "
              f"attempted={result['attempted']}, failed={result['failed']}", flush=True)
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])

    print(f"{'metric':<22}{'median':>14}{'iqr/median':>12}{'bound':>8}  steady")
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / median
        print(f"{m['name']:<22}{median:>14.6g}{share:>12.4f}{m['bound']:>8}  "
              f"{'yes' if share < m['bound'] / 3 else 'NO'}")
        print("    " + " ".join(f"{v:.6g}" for v in vals))
    return 0


if __name__ == "__main__":
    sys.exit(main())

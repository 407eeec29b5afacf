"""Run the benchmark on several seeds and report each metric's spread.

    python3 bench/steadiness.py --workloads percap coupled online --seeds 10

Runs seeds 0 to N-1 with ``--trace 0``, one after another, each in its own
process, with the ``run_seconds`` of BENCHMARK.json.  For every metric it
prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``), the spread (quartile distance over
the median) and the bound from BENCHMARK.json, and exits with 1 if any
spread is above its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args(argv)
    if args.seeds < 2:
        parser.error("--seeds must be at least 2 to give quartiles")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    failed = False
    for workload in args.workloads:
        results = []
        for seed in range(args.seeds):
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return 1
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"== {workload}: seeds 0..{args.seeds - 1}, "
              f"correct {all(r['correct'] for r in results)}, failed shares {sorted(shares)}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds[name]
            flag = ""
            if not spread <= bound:
                flag, failed = "  OVER BOUND", True
            print(f"{name:34s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:.4f}"
                  f"  bound {bound}{flag}")
        sys.stdout.flush()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

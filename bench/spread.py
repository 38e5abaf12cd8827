"""Run-to-run spread of the end-to-end metrics.

Runs ``bench/run.py`` once per seed on each named workload, one run at a
time, and prints for every end-to-end metric the median of the runs,
their quartiles (``statistics.quantiles(values, n=4)``) and the distance
between the quartiles as a share of the median, next to the bound that
BENCHMARK.json fixes for the metric.  The share of failed operations is
printed too.  Every run's result line is appended to
``.bench_out/spread.jsonl``.

    python3 bench/spread.py --workloads solve-dense,cli-files --seeds 1-10
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10", help="a range lo-hi or a comma list")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    log_path = os.path.join(ROOT, ".bench_out", "spread.jsonl")
    worst = 0.0
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            with open(log_path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(dict(result, workload=workload, seed=seed)) + "\n")
            runs.append(result)
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"{workload}: {len(runs)} runs, correct={all(r['correct'] for r in runs)}, "
              f"failed shares={sorted(shares)}")
        for metric, limit in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / q2
            if metric != "setup_s":
                worst = max(worst, spread / limit)
            print(f"  {metric:12s} median {q2:.4g}  q1 {q1:.4g}  q3 {q3:.4g}  "
                  f"spread {spread:.3f}  bound {limit}")
    print(f"largest spread as a share of its bound (setup_s excluded): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Repeat the benchmark over seeds and report each metric's spread.

    python3 perfbench/spread.py --workload guided --seeds 1-10 \\
        [--json OUT.json]

Runs ``run.py --trace 0`` once per seed of the range, for ``run_seconds``
from ``BENCHMARK.json``, in the repository root, one run at a time, and
prints for every end-to-end metric the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the quartile distance
as a share of the median.  With ``--json`` the per-run results are written
out too.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    lo, hi = text.split("-")
    return list(range(int(lo), int(hi) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True,
                        help="inclusive range LO-HI")
    parser.add_argument("--json", type=Path)
    args = parser.parse_args()
    seconds = json.loads(
        (HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(seconds), "--trace", "0"],
            cwd=HERE.parent, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines \
            else None
        if result is None or not result["correct"]:
            print(f"seed {seed}: run failed (exit {proc.returncode})\n"
                  f"{proc.stdout[-3000:]}{proc.stderr[-3000:]}")
            return 1
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: " + ", ".join(
            f"{k} {v['value']:.6g}" for k, v in result["metrics"].items()),
            flush=True)

    print(f"{args.workload}: {len(runs)} runs of {seconds} s")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / median if median else 0.0
        print(f"  {name:<38} median {median:12.6g}  q1 {q1:12.6g}  "
              f"q3 {q3:12.6g}  spread {share:.4f}")
    if args.json:
        args.json.write_text(json.dumps(runs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

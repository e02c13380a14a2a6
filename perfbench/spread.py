"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload wave_dense --seeds 1-10 [--seconds 55]

Runs the benchmark once per seed, one run after another, and prints for each
end-to-end metric its median, its quartile spread (Q3 - Q1) / median and the
metric's bound from BENCHMARK.json, plus the elapsed time of each run.  A
steady benchmark keeps every spread but setup_s well below its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in args.seeds:
        start = perf_counter()
        proc = subprocess.run(
            [*spec["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=False,
        )
        elapsed = perf_counter() - start
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stdout[-2000:], proc.stderr[-2000:], sep="\n")
            return 1
        result = json.loads(lines[-1])
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
        row = " ".join(f"{n}={m['value']:.5g}" for n, m in result["metrics"].items())
        print(f"seed {seed}: {elapsed:.1f} s elapsed, correct={result['correct']} {row}", flush=True)
    for metric in spec["end_to_end"]:
        vals = values[metric["name"]]
        spread = stats.quartile_spread(vals) if len(vals) >= 2 else float("nan")
        print(
            f"{args.workload} {metric['name']}: median {stats.median(vals):.6g} {metric['unit']}, "
            f"spread {spread:.4f} (bound {metric['bound']})"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())

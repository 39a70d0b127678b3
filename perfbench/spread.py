"""Run the benchmark on several seeds and report each end-to-end metric's
spread: the distance between the first and third quartile of its values
(``statistics.quantiles(values, n=4)``) as a share of their median, next to
the metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py --seeds 1-10 [--workload toybox_mlp ...] [--out FILE]

Every run is one ``run.py`` call with ``--seconds`` from BENCHMARK.json,
started one after the other.  ``--out`` writes the per-seed values and the
spreads as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def run_once(workload: str, seed: int, seconds: int) -> dict:
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                         cwd=ROOT, capture_output=True, text=True, check=False)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if out.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed:\n{out.stdout}{out.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--out", help="write per-seed values and spreads here (JSON)")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    report = {}
    for name in names:
        runs = {}
        for seed in _seeds(args.seeds):
            runs[seed] = run_once(name, seed, spec["run_seconds"])
            print(f"{name} seed {seed}: " + "  ".join(
                f"{k}={v:.5g}" for k, v in runs[seed].items()), flush=True)
        rows = {}
        for metric in spec["end_to_end"]:
            values = [r[metric["name"]] for r in runs.values()]
            rows[metric["name"]] = {"median": statistics.median(values),
                                    "spread": spread(values), "bound": metric["bound"]}
        report[name] = {"runs": runs, "metrics": rows}
        print(f"{name}: metric, median, spread (share of median), bound")
        for metric, row in rows.items():
            flag = "" if row["spread"] < row["bound"] / 3 else "   <-- above a third of bound"
            print(f"  {metric:<22} {row['median']:>12.6g}  {row['spread']:.4f}  "
                  f"{row['bound']}{flag}", flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())

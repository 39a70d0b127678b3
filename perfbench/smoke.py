"""Smoke test of the benchmark: every workload at a tiny size, untraced and
traced, must pass its correctness gate and emit every metric named in
BENCHMARK.json with its unit.  Takes well under a minute; the numbers it
produces mean nothing.

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check(workload: str, trace: int, spec: dict) -> list[str]:
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                          "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"],
                         cwd=ROOT, capture_output=True, text=True, timeout=170, check=False)
    where = f"{workload} trace={trace}"
    try:
        result = json.loads(out.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return [f"{where}: no result line\n{out.stdout}{out.stderr}"]
    errors = []
    if out.returncode != 0 or not result["correct"]:
        errors.append(f"{where}: exit {out.returncode}, correct={result['correct']}\n"
                      f"{out.stdout}{out.stderr}")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{where}: result keys {sorted(result)}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    got = result["metrics"]
    for metric in wanted:
        entry = got.get(metric["name"])
        if entry is None:
            errors.append(f"{where}: metric {metric['name']} missing")
        elif entry.get("unit") != metric["unit"] or not isinstance(entry.get("value"),
                                                                   (int, float)):
            errors.append(f"{where}: metric {metric['name']} reads {entry}")
    extra = set(got) - {m["name"] for m in wanted}
    if extra:
        errors.append(f"{where}: metrics not in BENCHMARK.json: {sorted(extra)}")
    return errors


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check(workload, trace, spec)
            print(f"{'FAIL' if found else 'ok  '}  {workload} trace={trace}", flush=True)
            errors += found
    for e in errors:
        print(e, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

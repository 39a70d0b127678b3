"""fpx benchmark: train a workload through ``fpx.cli.main``, reload its
parameter blob, run forward-only inference on held-out inputs, check every
output and print each metric with its unit.

    python3 perfbench/run.py --workload toybox_mlp --seed 1 --seconds 40 --trace 0

Each repetition runs in a fresh worker process (``worker.py``), one at a
time: a closed loop with one caller.  An untraced run first times set-up
alone in a few workers.  Repetitions start until the next one would overrun
``--seconds``; every repetition of a run does the same work, and timings are
scaled to the machine's nominal speed (``reference.py``) and taken at their
median over them (see ``end_to_end``).  ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` alternates untraced and traced
repetitions and prints the per-layer metrics.  The last line of output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
THREADS = "1"          # FPX_THREADS for every worker; at most nproc
RUN_CAP_S = 170.0      # a run ends within this, whatever --seconds says
SETUPS = 5             # set-up-only workers per untraced run (setup_s is their median)
SEGMENT_UNITS = 10     # a training segment is scaled by at least this many reference units
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS")


def _worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
    env["FPX_THREADS"] = THREADS        # fpx maps it onto the BLAS variables
    return env


def _run_worker(args, rep: int, traced: bool, deadline: float,
                setup_only: bool = False) -> dict:
    name = f"setup{rep}" if setup_only else str(rep)
    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}-{name}")
    result = work + ".json"
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--work", work, "--result", result]
    if traced:
        cmd += ["--trace", "--spans", os.path.join(WORK, f"spans-{args.workload}.npz")]
    if setup_only:
        cmd.append("--setup-only")
    elif rep == 0:
        cmd.append("--baseline")
    # the cores slow down independently: successive repetitions (with tracing,
    # successive untraced/traced pairs) take the run's CPUs in turn
    cpus = sorted(os.sched_getaffinity(0))
    slot = rep // 2 if args.trace else rep
    cmd += ["--cpu", str(cpus[slot % len(cpus)])]
    if args.tiny:
        cmd.append("--tiny")
    start = time.monotonic()
    try:
        subprocess.run(cmd, env=_worker_env(), cwd=ROOT, check=False,
                       timeout=max(1.0, deadline - start), stdout=subprocess.DEVNULL)
        with open(result, encoding="utf-8") as fh:
            record = json.load(fh)
    except subprocess.TimeoutExpired:
        record = {"ok": False, "traced": traced, "setup_only": setup_only,
                  "error": "worker timed out"}
    except (OSError, ValueError) as exc:
        record = {"ok": False, "traced": traced, "setup_only": setup_only,
                  "error": f"no worker record: {exc}"}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if os.path.exists(result):
            os.remove(result)
    record["wall_s"] = time.monotonic() - start
    return record


def _repetitions(args) -> list[dict]:
    """Run the set-up-only workers of an untraced run, then repetitions until
    the next would overrun --seconds (at least one, and with tracing at
    least one untraced and one traced).  Returns every record."""
    start = time.monotonic()
    deadline = start + RUN_CAP_S
    setups = [] if args.trace else [_run_worker(args, i, False, deadline, setup_only=True)
                                    for i in range(SETUPS)]
    if not all(r["ok"] for r in setups):
        return setups
    records: list[dict] = []
    while True:
        traced = bool(args.trace) and len(records) % 2 == 1
        records.append(_run_worker(args, len(records), traced, deadline))
        if not records[-1]["ok"]:
            break
        nxt = bool(args.trace) and len(records) % 2 == 1
        same = [r["wall_s"] for r in records if r["traced"] == nxt] or [records[-1]["wall_s"]]
        elapsed = time.monotonic() - start
        done = len(records) >= (2 if args.trace else 1)
        if done and elapsed + statistics.median(same) > args.seconds:
            break
        if elapsed + max(same) > RUN_CAP_S - 5:
            break
    return setups + records


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _slowdown(record: dict, units: list[float], scaled: bool) -> float:
    """How many times slower than nominal the machine ran while ``units``
    (reference unit times of one phase of ``record``) were taken."""
    return statistics.median(units) / record["reference_nominal_s"] if scaled else 1.0


def _all_units(record: dict) -> list[float]:
    return record["reference_train_s"] + [t for p in record["reference_infer_s"] for t in p]


def _segment_slowdowns(record: dict, scaled: bool) -> list[float]:
    """The slowdown of each training segment: the median of the reference
    units run at the optimizer step that ends it and at the nearest other
    steps, at least SEGMENT_UNITS units in all.  The machine switches speed
    within a repetition, so one slowdown for the whole training tracks it
    less well.  The last segment (after the last step) takes the last step's."""
    segments = record["train_segments_s"]
    units = record["reference_train_s"]
    if len(segments) < 2 or not units:
        return [_slowdown(record, _all_units(record), scaled)] * len(segments)
    per_step = len(units) // (len(segments) - 1)
    k = SEGMENT_UNITS // per_step // 2
    bursts = [units[i * per_step:(i + 1) * per_step] for i in range(len(segments) - 1)]
    bursts.append(bursts[-1])
    return [_slowdown(record, [t for b in bursts[max(0, i - k):i + k + 1] for t in b], scaled)
            for i in range(len(segments))]


def _median_train_s(records: list[dict], scaled: bool) -> float:
    """Training wall time with each segment between optimizer steps at its
    median over the repetitions (they run the same steps); the median whole
    repetition if the step counts disagree."""
    segments = [[t / k for t, k in zip(r["train_segments_s"], _segment_slowdowns(r, scaled))]
                for r in records]
    if len({len(s) for s in segments}) != 1:
        return statistics.median(sum(s) for s in segments)
    return sum(statistics.median(seg) for seg in zip(*segments))


def end_to_end(records: list[dict], setups: list[dict], scaled: bool = True) -> dict:
    """Timings are medians.  With ``scaled`` each is first divided by the
    slowdown the reference units measured in its phase (set-up, one
    training segment, one inference pass), so it reads as at the machine's
    nominal speed.  Every repetition trains the same steps and solves the same
    held-out inputs with the same trained model, so each training segment
    and each solve's latency is taken at its median over every time it ran;
    percentiles and throughput are taken over those per-solve medians.
    Set-up time is the median over the set-up-only workers and the
    repetitions."""
    samples = [[] for _ in records[0]["latencies_ms"]]
    for r in records:
        for p, units in enumerate(r["reference_infer_s"]):
            k = _slowdown(r, units, scaled)
            for solve, times in zip(samples, r["latencies_ms"]):
                solve.append(times[p] / k)
    typical = [statistics.median(solve) for solve in samples]
    m = {}
    m["setup_s"] = statistics.median(r["setup_s"] / (r["setup_slowdown"] if scaled else 1.0)
                                     for r in setups + records)
    m["train_samples_per_s"] = records[0]["train_samples"] / _median_train_s(records, scaled)
    m["infer_samples_per_s"] = 1e3 * records[0]["infer_samples"] / sum(typical)
    m["infer_ms_p50"] = statistics.median(typical)
    m["infer_ms_p90"] = _percentile(typical, 90)
    m["test_mse"] = records[0]["test_mse"]
    m["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in records)
    solves = sum(r["solves"] for r in records)
    m["converged_share"] = 1.0 - sum(r["solves_failed"] for r in records) / solves
    return m


def slowdown(record: dict) -> float:
    """The slowdown over a repetition's training and inference."""
    return _slowdown(record, _all_units(record), True)


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    m = {k: statistics.median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
    wall = lambda r: r["train_s"] + r["infer_s"]
    m["trace.overhead_ratio"] = (statistics.median(wall(r) for r in traced)
                                 / statistics.median(wall(r) for r in untraced))
    return m


def _count_keys(layers: dict) -> list[str]:
    return [k for k in layers if k.endswith((".calls", ".solves", ".iters_mean",
                                             ".unconverged", ".peak_live_nodes", ".spans"))]


def _check_repeats(records: list[dict]) -> list[str]:
    """Repetitions of one seed must agree exactly on outputs and counts."""
    problems = []
    if len({r["test_mse"] for r in records}) > 1:
        problems.append("test_mse differs between repetitions of one seed")
    traced = [r for r in records if r["traced"]]
    for key in _count_keys(traced[0]["layers"]) if traced else []:
        if len({r["layers"][key] for r in traced}) > 1:
            problems.append(f"{key} differs between traced repetitions of one seed")
    return problems


def _git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=False)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fpx benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes: seconds per workload, numbers meaningless")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "fpx", "__init__.py")):
        print(f"error: no fpx sources under {ROOT}/src; run from a full checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    os.makedirs(WORK, exist_ok=True)
    records = _repetitions(args)
    problems = [r["error"].strip().splitlines()[-1] for r in records if not r["ok"]]
    good = [r for r in records if r["ok"]]
    setups = [r for r in good if r["setup_only"]]
    reps = [r for r in good if not r["setup_only"]]
    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    metrics, unscaled = {}, {}
    if not problems:
        problems += _check_repeats(reps)
        values = per_layer(untraced, traced) if args.trace else end_to_end(untraced, setups)
        unscaled = {} if args.trace else end_to_end(untraced, setups, scaled=False)
        metrics = {w["name"]: {"value": values[w["name"]], "unit": w["unit"]} for w in wanted}

    facts = dict(good[0]["facts"] if good else {}, nproc=os.cpu_count(),
                 commit=_git_commit(), workload=args.workload, seed=args.seed,
                 setup_workers=len(setups), repetitions=len(reps),
                 traced_repetitions=len(traced))
    if untraced:
        facts["slowdown"] = [round(slowdown(r), 4) for r in untraced]
        facts.update({k: untraced[0][k] for k in ("untrained_mse", "train_fwd_iters",
                                                   "train_bwd_iters", "infer_iters")
                      if k in untraced[0]})
    print(f"fpx benchmark  workload={args.workload}  seed={args.seed}  trace={args.trace}")
    for w in wanted:
        if w["name"] in metrics:
            print(f"  {w['name']:<40} {metrics[w['name']]['value']:>14.6g} {w['unit']:<8}"
                  f" ({w['better']} is better)")
    if unscaled:
        print("unscaled: " + "  ".join(f"{k}={v:.6g}" for k, v in unscaled.items()))
    print("facts: " + json.dumps(facts, sort_keys=True))
    for p in problems:
        print(f"FAILED: {p}")
    result = os.path.join(WORK, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(result, "w", encoding="utf-8") as fh:
        json.dump({"facts": facts, "metrics": metrics, "unscaled": unscaled,
                   "problems": problems,
                   "records": records}, fh)
    failed = len(records) - len(good) + (1 if problems and len(good) == len(records) else 0)
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""One repetition of one workload, in a fresh process.

Imports fpx from the checkout's ``src``, builds the workload inputs, trains
through ``fpx.cli.main``, reloads the parameter blob, runs forward-only
inference on held-out inputs and checks every output.  Timings, counts and
the outcome of each check go to a JSON record; with ``--trace`` the fpx
functions are wrapped by the span tracer and per-layer figures are added.

Run by ``run.py``; not meant to be called by hand.
"""

import time

_T0 = time.perf_counter()   # set-up time counts from here, before fpx loads

import argparse
import csv
import glob
import json
import math
import os
import platform
import resource
import statistics
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_UNITS = 10    # small reference units right after set-up, to scale setup_s


def _import_fpx():
    sys.path.insert(0, SRC)
    import fpx
    import fpx.cli
    if not os.path.abspath(fpx.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"fpx was imported from {fpx.__file__}, not from {SRC}")
    return fpx


def _facts(fpx, np):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "FPX_THREADS": os.environ.get("FPX_THREADS", ""),
            "fpx": getattr(fpx, "__version__", "?")}


def _read_metrics(path, wl, cfg, W, record):
    """Check metrics.csv against the expected rows; return the solver
    counts of training as (forward unconverged, backward unconverged)."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    keys = {(r["epoch"], r["split"], r["metric"]) for r in rows}
    expected = W.expected_rows(wl, cfg)
    if keys != expected or len(rows) != len(expected):
        raise AssertionError(f"metrics.csv rows differ: missing {sorted(expected - keys)}, "
                             f"unexpected {sorted(keys - expected)}")
    if len({r["run_id"] for r in rows}) != 1:
        raise AssertionError("metrics.csv mixes run ids")
    values = {(r["epoch"], r["split"], r["metric"]): float(r["value"]) for r in rows}
    if not all(math.isfinite(v) for v in values.values()):
        raise AssertionError("metrics.csv holds a non-finite value")
    per_epoch = W.train_solves(wl, cfg) // cfg.epochs
    for name, key in (("train_fwd_iters", "fpi_forward_iters"),
                      ("train_bwd_iters", "fpi_backward_iters")):
        record[name] = statistics.mean(values[(str(e), "train", key)]
                                       for e in range(1, cfg.epochs + 1))
    fwd = sum(values[(str(e), "train", "fpi_unconverged_rate")]
              for e in range(1, cfg.epochs + 1)) * per_epoch
    bwd = sum(values[(str(e), "train", "fpi_backward_unconverged_rate")]
              for e in range(1, cfg.epochs + 1)) * per_epoch
    return round(fwd), round(bwd)


def _reload_params(fpx, np, module, out, work):
    """Load the blob the run saved; check names, shapes, finiteness and that
    saving it again reproduces the file byte for byte."""
    blobs = glob.glob(os.path.join(out, "params-*.bin"))
    if len(blobs) != 1:
        raise AssertionError(f"expected one parameter blob in {out}, found {len(blobs)}")
    params, meta = fpx.layers.load_parameters(blobs[0])
    shapes = {n: tuple(params[n].shape) for n in params}
    want = {n: tuple(s) for n, s in module.param_shapes().items()}
    if shapes != want:
        raise AssertionError(f"blob parameters {shapes} != module parameters {want}")
    if not all(np.all(np.isfinite(params[n].data)) for n in params):
        raise AssertionError("parameter blob holds a non-finite value")
    again = os.path.join(work, "reloaded.bin")
    fpx.layers.save_parameters(again, params, meta)
    with open(blobs[0], "rb") as a, open(again, "rb") as b:
        if a.read() != b.read():
            raise AssertionError("parameter blob does not reload bit-exact")
    return params


def _mark_steps(fpx, marks: list, between):
    """Mark every optimizer step: each fpx binding of ``fpx.train.adam_step``
    is replaced by a wrapper that calls ``between()``, appends the
    ``perf_counter()`` interval it took to ``marks`` and calls through."""
    original = fpx.train.adam_step

    def adam_step(*args, **kwargs):
        start = time.perf_counter()
        between()
        marks.append((start, time.perf_counter()))
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "fpx" or name.startswith("fpx."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, adam_step)


def _solve_pass(fpx, module, params, solver, inputs, between=None):
    """Forward-only inference: one forward_fpi solve per input, each followed
    by ``between()`` if given.  Returns each solve's latency and result."""
    zeros = fpx.tensor.zeros
    latencies, results = [], []
    for z in inputs:
        start = time.perf_counter()
        results.append(fpx.fpi.forward_fpi(module, zeros(module.state_shape(z)), z,
                                           params, solver))
        latencies.append(time.perf_counter() - start)
        if between:
            between()
    return latencies, results


def _mse(np, results, targets):
    total = sum(float(np.sum((r.x_hat.data - t) ** 2)) for r, t in zip(results, targets))
    return total / sum(t.size for t in targets)


def run(args, record):
    fpx = _import_fpx()
    import numpy as np      # only after fpx, which caps BLAS threads before numpy loads
    import workloads as W
    from reference import Reference
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    wl = W.WORKLOADS[args.workload]
    work = args.work
    os.makedirs(work, exist_ok=True)
    cfg_path = W.write_config(wl, work, args.tiny)
    out = os.path.join(work, "out")
    cfg = fpx.cli.make_config(wl.task, cfg_path, seed=W.MODEL_SEED, model=wl.model, out_dir=out)
    pairs = W.make_inputs(fpx, wl, cfg, work, args.seed, args.tiny)
    module = W.build_module(fpx, wl, cfg)
    solver = fpx.cli.fpi_config(cfg)
    inputs = [fpx.tensor.Tensor(z) for z, _ in pairs]
    targets = [t for _, t in pairs]
    record["setup_s"] = time.perf_counter() - _T0
    record["facts"] = dict(_facts(fpx, np), model_seed=W.MODEL_SEED)
    # an untraced repetition samples the machine's speed between the timed
    # spans: reference units at each optimizer step and after each solve
    reference = None if tracer else Reference(np, wl.reference)

    def step_units():
        for _ in range(wl.reference_units_per_step):
            reference.unit()

    if reference:
        # set-up is Python and small numpy work in every workload
        after_setup = Reference(np, "small")
        for _ in range(SETUP_UNITS):
            after_setup.unit()
        record["setup_slowdown"] = statistics.median(after_setup.times) / after_setup.nominal_s
        record["reference_nominal_s"] = reference.nominal_s
    if args.setup_only:
        record["ok"] = True
        return

    argv = [wl.task, "--config", cfg_path, "--seed", str(W.MODEL_SEED), "--out", out,
            "--model", wl.model, "--quiet"]
    fpx.graph.reset_peak_live_node_count()
    marks: list[tuple[float, float]] = []
    if tracer:
        start = time.perf_counter()
        rc = tracer.span("cli.main", "cli", fpx.cli.main, argv)
    else:
        _mark_steps(fpx, marks, step_units)
        start = time.perf_counter()
        rc = fpx.cli.main(argv)
    end = time.perf_counter()
    # the run cut at each optimizer step (less the reference units run there):
    # set-up to step 1, step to step, last step to return
    starts = [start] + [b for _, b in marks]
    ends = [a for a, _ in marks] + [end]
    record["train_segments_s"] = [b - a for a, b in zip(starts, ends)]
    record["train_s"] = sum(record["train_segments_s"])
    if reference:
        record["reference_train_s"], reference.times = reference.times, []
    record["train_samples"] = W.train_samples(wl, cfg)
    if rc != 0:
        raise AssertionError(f"fpx.cli.main returned {rc}")
    fwd_bad, bwd_bad = _read_metrics(cfg.metrics_path, wl, cfg, W, record)
    params = _reload_params(fpx, np, module, out, work)

    # passes over the held-out inputs; each computes the same results
    latencies: list[list[float]] = [[] for _ in inputs]
    record["infer_s"] = 0.0
    for _ in range(W.infer_passes(wl, args.tiny)):
        start = time.perf_counter()
        if tracer:
            times, results = tracer.span("bench.infer", "bench", _solve_pass,
                                         fpx, module, params, solver, inputs)
            record["infer_s"] += time.perf_counter() - start
        else:
            times, results = _solve_pass(fpx, module, params, solver, inputs,
                                         reference.unit)
            record["infer_s"] += sum(times)
            record.setdefault("reference_infer_s", []).append(reference.times)
            reference.times = []
        for solve, t in zip(latencies, times):
            solve.append(1e3 * t)
    record["infer_samples"] = len(inputs) * wl.infer_batch
    record["latencies_ms"] = latencies
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["peak_live_nodes"] = fpx.graph.peak_live_node_count()
    if tracer:
        tracer.uninstall()

    for r, t in zip(results, targets):
        if r.x_hat.shape != t.shape or not np.all(np.isfinite(r.x_hat.data)):
            raise AssertionError(f"inference output of shape {r.x_hat.shape} is not "
                                 f"finite or not shaped like its target {t.shape}")
    record["test_mse"] = _mse(np, results, targets)
    record["infer_iters"] = statistics.mean(r.iterations for r in results)
    n_train = W.train_solves(wl, cfg)
    infer_bad = sum(0 if r.converged else 1 for r in results)
    record["solves"] = 2 * n_train + len(results)
    record["solves_failed"] = fwd_bad + bwd_bad + infer_bad
    if args.baseline:
        untrained = W.untrained_params(module, wl, cfg, W.MODEL_SEED)
        _, base = _solve_pass(fpx, module, untrained, solver, inputs)
        record["untrained_mse"] = _mse(np, base, targets)
        if not record["test_mse"] < record["untrained_mse"]:
            raise AssertionError(f"test_mse {record['test_mse']:.6g} is not below the "
                                 f"untrained model's {record['untrained_mse']:.6g}")
    if tracer:
        record["layers"] = layer_metrics(tracer, record)
        if args.spans:
            tracer.save_spans(args.spans, np)
    record["ok"] = True


def layer_metrics(tracer, record) -> dict:
    """Per-layer figures of one traced repetition (names as in BENCHMARK.json)."""
    from tracer import KERNELS
    m = {}
    for k in KERNELS:
        group = f"tensor.{k}"
        self_s = tracer.self_s.get(group, 0.0)
        gflop = tracer.flop[k] / 1e9
        m[f"{group}.calls"] = tracer.calls.get(group, 0)
        m[f"{group}.self_s"] = self_s
        m[f"{group}.gflop"] = gflop
        m[f"{group}.gbyte"] = tracer.bytes[k] / 1e9
        m[f"{group}.gflop_per_s"] = gflop / self_s if self_s > 0 else 0.0
    for group in ("tensor.other", "graph.op", "graph.backward", "graph.partial_diff",
                  "layers.build", "train.adam_step"):
        m[f"{group}.calls"] = tracer.calls.get(group, 0)
        m[f"{group}.self_s"] = tracer.self_s.get(group, 0.0)
    m["graph.peak_live_nodes"] = record["peak_live_nodes"]
    fwd, bwd = tracer.fwd, tracer.bwd
    m["fpi.fwd.solves"] = fwd["solves"]
    m["fpi.fwd.iters_mean"] = fwd["iters"] / fwd["solves"] if fwd["solves"] else 0.0
    m["fpi.fwd.unconverged"] = fwd["unconverged"]
    m["fpi.fwd.s"] = fwd["s"]
    m["fpi.fwd.iter_ms"] = 1e3 * fwd["s"] / fwd["iters"] if fwd["iters"] else 0.0
    m["fpi.bwd.solves"] = bwd["solves"]
    m["fpi.bwd.iters_mean"] = bwd["iters"] / bwd["solves"] if bwd["solves"] else 0.0
    m["fpi.bwd.unconverged"] = bwd["unconverged"]
    m["fpi.bwd.s"] = bwd["s"]
    m["fpi.bwd.iter_ms"] = 1e3 * bwd["cotangent_s"] / bwd["iters"] if bwd["iters"] else 0.0
    m["fpi.bwd.final_sweep_s"] = bwd["final_sweep_s"]
    m["fpi.self_s"] = tracer.self_s.get("fpi", 0.0)
    m["layers.apply.calls"] = tracer.calls.get("layers.apply", 0)
    m["layers.apply.s"] = tracer.total_s.get("layers.apply", 0.0)
    m["train.loss.self_s"] = tracer.self_s.get("train.loss", 0.0)
    m["train.grad_clamp.self_s"] = tracer.self_s.get("train.grad_clamp", 0.0)
    m["data.load.s"] = tracer.total_s.get("data.load", 0.0)
    m["data.generate.s"] = tracer.total_s.get("data.generate", 0.0)
    m["cli.self_s"] = tracer.self_s.get("cli", 0.0)
    # share of the traced train + infer wall that layer self times cover:
    # everything below the two root spans, outside set-up
    covered = sum(v for g, v in tracer.self_s.items()
                  if g not in ("cli", "bench", "data.generate"))
    m["trace.layer_self_share"] = covered / (record["train_s"] + record["infer_s"])
    m["trace.spans"] = len(tracer.span_start)
    m["trace.missing_hooks"] = len(tracer.missing)
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True, help="scratch directory of this repetition")
    parser.add_argument("--result", required=True, help="where to write the JSON record")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--baseline", action="store_true",
                        help="also solve with the untrained parameters (quality gate)")
    parser.add_argument("--spans", help="write the traced spans to this .npz file")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up (run.py times set-up in several processes)")
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    parser.add_argument("--cpu", type=int, help="pin this process to one CPU")
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    record = {"ok": False, "traced": args.trace, "setup_only": args.setup_only, "cpu": args.cpu}
    try:
        run(args, record)
    except Exception:
        record["error"] = traceback.format_exc()
        print(record["error"], file=sys.stderr)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

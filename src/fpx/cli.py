"""Experiment runner: desk-scale tasks, configuration, and reporting.

Four tasks share one entry point: a constrained-projection toy problem with
synthetic data, grayscale denoising on a PGM corpus, sparse multi-label
classification, and the randomized verification suite.  Runs are fully
deterministic given (config, seed): metrics files reproduce byte for byte.
"""

from __future__ import annotations

import argparse
import configparser
import logging
import os
import sys
from dataclasses import dataclass, fields, replace
from typing import Callable, Iterable

import numpy as np

from . import gradcheck as gradcheck_mod
from . import tensor as T
from .data import (
    SparseDataset,
    generate_synthetic_corpus,
    load_image_dir,
    load_sparse_dataset,
)
from .fpi import Criterion, FpiConfig, fpi_layer, forward_fpi
from .graph import Graph, backward
from .layers import ConvG, EnergyNet, GdG, GModule, MlpG, Parameters, save_parameters
from .tensor import Tensor
from .train import (
    AdamState,
    adam_step,
    build_bce,
    build_mse,
    f1_score,
    grad_clamp,
    mse_loss,
    psnr,
    select_threshold,
)

log = logging.getLogger("fpx.cli")


@dataclass
class ExperimentConfig:
    task: str = "gradcheck"
    model: str = "fpi_nn"
    seed: int = 0
    epochs: int = 40
    batch_size: int = 100
    init_scale: float = 0.1
    lr: float = 1e-3
    grad_clamp_norm: float = 0.0            # 0 disables clamping
    on_unconverged: str = "warn"            # or "abort"
    # fixed-point solver
    tol: float = 1e-6
    criterion: str = "relative_beta"
    max_iter: int = 500
    gamma: float = 0.01                     # step size of the fpi_gd update map
    # toybox
    dim: int = 10
    hidden: int = 32
    n_train: int = 10000
    n_test: int = 1000
    sigma_train: float = 2.0
    sigma_test: float = 1.0
    # denoise
    corpus: str = ""
    crop: int = 64
    n_train_images: int = 100
    n_test_images: int = 25
    sigmas: tuple = (25.0,)
    channels: int = 32
    # multilabel
    gd_tol: float = 1e-4                    # descent-flavor solver tolerance
    train_path: str = ""
    test_path: str = ""
    n_features: int = 1836
    n_labels: int = 159
    expected_train: int = 0                 # 0 disables the split check
    expected_test: int = 0
    val_fraction: float = 0.1
    # gradcheck
    n_models: int = 20
    # output
    out_dir: str = "runs"
    metrics_path: str = ""                  # default: <out_dir>/metrics.csv


TASK_DEFAULTS = {
    "toybox": dict(epochs=40, batch_size=100, tol=1e-6, gamma=0.01, max_iter=500,
                   init_scale=0.1),
    "denoise": dict(epochs=20, batch_size=10, tol=1e-7, grad_clamp_norm=0.1,
                    init_scale=0.1, model="both"),
    "multilabel": dict(epochs=20, batch_size=100, tol=1e-8, gamma=1.0,
                       init_scale=0.1, hidden=512),
    "gradcheck": dict(),
}

_OTHER_SECTIONS = {
    "fpi": ("tol", "criterion", "max_iter", "gamma"),
    "data": ("corpus", "train_path", "test_path"),
    "output": ("out_dir", "metrics_path"),
}
# [experiment] takes every other field; the task comes from the command line
_SECTION_FIELDS = {
    "experiment": tuple(f.name for f in fields(ExperimentConfig) if f.name != "task"
                        and not any(f.name in keys for keys in _OTHER_SECTIONS.values())),
    **_OTHER_SECTIONS,
}


def _coerce(name: str, raw: str):
    kind = ExperimentConfig.__dataclass_fields__[name].type
    raw = raw.strip()
    if name == "sigmas":
        return tuple(float(tok) for tok in raw.split(",") if tok)
    if kind == "int":
        return int(raw)
    if kind == "float":
        return float(raw)
    return raw


def make_config(task: str, path: str | None = None, **overrides) -> ExperimentConfig:
    if task not in TASK_DEFAULTS:
        raise ValueError(f"unknown task {task!r}")
    cfg = ExperimentConfig(task=task)
    cfg = replace(cfg, **TASK_DEFAULTS[task])
    if path:
        parser = configparser.ConfigParser()
        if not parser.read(path):
            raise FileNotFoundError(path)
        for section, names in _SECTION_FIELDS.items():
            if not parser.has_section(section):
                continue
            for key, raw in parser.items(section):
                if key == "task":
                    continue
                if key not in names:
                    raise ValueError(f"{path}: unknown key {key!r} in [{section}]")
                cfg = replace(cfg, **{key: _coerce(key, raw)})
    cfg = replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
    if cfg.on_unconverged not in ("warn", "abort"):
        raise ValueError(f"on_unconverged must be 'warn' or 'abort', "
                         f"got {cfg.on_unconverged!r}")
    if not cfg.metrics_path:
        cfg = replace(cfg, metrics_path=os.path.join(cfg.out_dir, "metrics.csv"))
    return cfg


def fpi_config(cfg: ExperimentConfig) -> FpiConfig:
    return FpiConfig(tol=cfg.tol, criterion=Criterion(cfg.criterion),
                     max_iter=cfg.max_iter)


# ---------------------------------------------------------------------------
# reporting


def emit_metrics(path, rows: list[tuple]) -> None:
    """Write (run_id, epoch, split, metric, value) rows as a sorted CSV."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    ordered = sorted(rows, key=lambda r: (r[1], r[3], r[2], r[0]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("run_id,epoch,split,metric,value\n")
        for run_id, epoch, split, metric, value in ordered:
            fh.write(f"{run_id},{epoch},{split},{metric},{value:.12g}\n")


class SolveStats:
    """Per-epoch forward/backward iteration counts and convergence rates."""

    def __init__(self):
        self.fwd_iters = 0
        self.bwd_iters = 0
        self.fwd_solves = 0
        self.bwd_solves = 0
        self.fwd_unconverged = 0
        self.bwd_unconverged = 0

    def record_node(self, node):
        res = node.attrs["result"]
        self.fwd_solves += 1
        self.fwd_iters += res.iterations
        self.fwd_unconverged += 0 if res.converged else 1
        bres = node.attrs.get("backward_result")
        if bres is not None:
            self.bwd_solves += 1
            self.bwd_iters += bres.iterations
            self.bwd_unconverged += 0 if bres.converged else 1

    def rows(self, run_id: str, epoch: int) -> list[tuple]:
        if self.fwd_solves == 0:
            return []
        out = [
            (run_id, epoch, "train", "fpi_forward_iters", self.fwd_iters / self.fwd_solves),
            (run_id, epoch, "train", "fpi_unconverged_rate",
             self.fwd_unconverged / self.fwd_solves),
        ]
        if self.bwd_solves:
            out.append((run_id, epoch, "train", "fpi_backward_iters",
                        self.bwd_iters / self.bwd_solves))
            out.append((run_id, epoch, "train", "fpi_backward_unconverged_rate",
                        self.bwd_unconverged / self.bwd_solves))
        return out

    def merge(self, other: "SolveStats"):
        for name in vars(self):
            setattr(self, name, getattr(self, name) + getattr(other, name))


# ---------------------------------------------------------------------------
# the training loop shared by every task


def _predict_vector(cfg, module, theta, z: Tensor, post_sigmoid, is_fpi) -> Tensor:
    if is_fpi:
        out = forward_fpi(module, T.zeros(module.state_shape(z)), z, theta,
                          fpi_config(cfg)).x_hat
    else:
        out = module.apply(T.zeros(module.state_shape(z)), z, theta)
    return T.sigmoid(out) if post_sigmoid else out


def _batched_prediction(cfg, module, theta, z_all: np.ndarray, post_sigmoid, is_fpi,
                        batch: int = 200) -> np.ndarray:
    cols = []
    for start in range(0, z_all.shape[1], batch):
        zb = Tensor(z_all[:, start : start + batch])
        cols.append(_predict_vector(cfg, module, theta, zb, post_sigmoid, is_fpi).data)
    return np.concatenate(cols, axis=1)


def _flag_convergence(run_id, rows, total_stats: SolveStats, final_epoch):
    rate = (total_stats.fwd_unconverged / total_stats.fwd_solves
            if total_stats.fwd_solves else 0.0)
    flagged = rate > 0.01
    rows.append((run_id, final_epoch, "train", "convergence_flag", 1.0 if flagged else 0.0))
    if flagged:
        log.warning(f"WARNING {run_id}: {100 * rate:.2f}% of forward solves failed to "
                    f"converge; results are suspect")


@dataclass
class _Run:
    """One training run as ``_fit`` drives it.

    ``examples(idx, epoch)`` turns one batch of shuffled example indices into
    (input, target) pairs; each pair gets its own graph, and the batch
    gradient is the mean over the pairs.  ``evaluate(theta)`` scores the
    parameters after every epoch; with ``keep_best`` the highest-scoring
    epoch's parameters are saved, otherwise the last epoch's.
    ``finish(last, kept, best)`` returns the rows and parameter-blob header
    entries reported once, after the last epoch; ``best`` is (score, epoch).
    """

    run_id: str
    model: str
    module: GModule
    is_fpi: bool                  # False: one application of the module
    stream: int                   # init RNG stream; shuffling uses stream + 1
    n_train: int
    examples: Callable[[np.ndarray, int], Iterable[tuple[Tensor, Tensor]]]
    loss: str                     # "mse" or "bce", also the train metric
    post_sigmoid: bool
    evaluate: Callable[[Parameters], float]
    score: tuple[str, str]        # (split, metric) of the evaluate rows
    epoch_line: str               # log format with {train} and {score}
    keep_best: bool
    finish: Callable | None = None


def _fit(cfg: ExperimentConfig, run: _Run) -> list[tuple]:
    """Train ``run.module`` with Adam, one step per batch; returns the metric
    rows and saves the kept parameters as ``params-<run_id>.bin``."""
    module, names = run.module, run.module.param_names
    theta = module.init_params(cfg.init_scale, np.random.default_rng([cfg.seed, run.stream]))
    state = AdamState(lr=cfg.lr)
    shuffle_rng = np.random.default_rng([cfg.seed, run.stream + 1])
    solver = fpi_config(cfg)
    rows: list[tuple] = []
    total_stats = SolveStats()
    best, best_theta = (-np.inf, 0), theta
    for epoch in range(1, cfg.epochs + 1):
        stats = SolveStats()
        losses = []
        order = shuffle_rng.permutation(run.n_train)
        for start in range(0, run.n_train, cfg.batch_size):
            acc = {n: np.zeros(theta[n].shape) for n in names}
            pairs, batch_loss = 0, 0.0
            for z, target in run.examples(order[start : start + cfg.batch_size], epoch):
                # built inline, so each pair's graph lives until the next replaces
                # it: freeing it first (in a helper) doubled the minor page faults
                # of desk denoise runs, as glibc trimmed and re-faulted the heap top
                g = Graph()
                znode = g.leaf(z)
                tnodes = {n: g.leaf(theta[n]) for n in names}
                if run.is_fpi:
                    xnode = fpi_layer(g, module, znode, tnodes, solver)
                else:
                    xnode = module.build(g, g.leaf(T.zeros(module.state_shape(z))), znode,
                                         tnodes)
                pred = g.sigmoid(xnode) if run.post_sigmoid else xnode
                build_loss = build_mse if run.loss == "mse" else build_bce
                loss = build_loss(g, pred, g.leaf(target))
                grads_map = backward(g, loss)
                for n in names:
                    gn = grads_map.get(tnodes[n].id)
                    if gn is not None:
                        acc[n] += gn.data
                pairs += 1
                batch_loss += loss.value.item()
                if run.is_fpi:
                    stats.record_node(xnode)
                    res = xnode.attrs["result"]
                    if not res.converged and cfg.on_unconverged == "abort":
                        raise RuntimeError(f"forward solve failed to converge (residual "
                                           f"{res.residual:.3e}); aborting per policy")
            grads = Parameters({n: Tensor(acc[n] / pairs) for n in names})
            if cfg.grad_clamp_norm > 0:
                grads = grad_clamp(grads, cfg.grad_clamp_norm)
            theta = adam_step(theta, grads, state)
            losses.append(batch_loss / pairs)
        score = run.evaluate(theta)
        if run.keep_best and score > best[0]:
            best, best_theta = (score, epoch), theta
        rows.append((run.run_id, epoch, "train", run.loss, float(np.mean(losses))))
        rows.append((run.run_id, epoch, *run.score, score))
        rows.extend(stats.rows(run.run_id, epoch))
        total_stats.merge(stats)
        log.info(f"[{run.run_id}] epoch {epoch:3d}  "
                 + run.epoch_line.format(train=np.mean(losses), score=score))
        if stats.bwd_unconverged:
            log.warning(f"WARNING {run.run_id}: epoch {epoch}: {stats.bwd_unconverged} of "
                        f"{stats.bwd_solves} backward solves hit max_iter; their "
                        f"gradients are best-effort")
    _flag_convergence(run.run_id, rows, total_stats, cfg.epochs)
    kept = best_theta if run.keep_best else theta
    meta = {"task": cfg.task, "model": run.model, "seed": cfg.seed}
    if run.keep_best:
        meta["best_epoch"] = best[1]
    if run.finish is not None:
        extra_rows, extra_meta = run.finish(theta, kept, best)
        rows.extend(extra_rows)
        meta.update(extra_meta)
    os.makedirs(cfg.out_dir, exist_ok=True)
    save_parameters(os.path.join(cfg.out_dir, f"params-{run.run_id}.bin"), kept, meta=meta)
    return rows


# ---------------------------------------------------------------------------
# toybox: learn x* = clamp(a) for a ~ N(0, sigma^2 I)


def _toybox_module(cfg: ExperimentConfig):
    if cfg.model in ("fpi_nn", "feedforward"):
        return MlpG(cfg.dim, cfg.dim, cfg.hidden, final_sigmoid=False)
    if cfg.model == "fpi_gd":
        energy = EnergyNet(cfg.dim, cfg.dim, cfg.hidden, body_dim=cfg.dim)
        return GdG(energy, gamma=cfg.gamma)
    raise ValueError(f"toybox does not know model {cfg.model!r}")


def _toybox_data(cfg: ExperimentConfig):
    rng = np.random.default_rng([cfg.seed, 0])
    a_train = rng.standard_normal((cfg.dim, cfg.n_train)) * cfg.sigma_train
    a_test = rng.standard_normal((cfg.dim, cfg.n_test)) * cfg.sigma_test
    return (a_train, np.clip(a_train, -1.0, 1.0),
            a_test, np.clip(a_test, -1.0, 1.0))


def run_toybox(cfg: ExperimentConfig) -> list[tuple]:
    run_id = f"toybox-{cfg.model}-seed{cfg.seed}"
    log.info(f"[{run_id}] dim={cfg.dim} hidden={cfg.hidden} train={cfg.n_train} "
             f"test={cfg.n_test} epochs={cfg.epochs} tol={cfg.tol:g}")
    z_train, t_train, z_test, t_test = _toybox_data(cfg)
    module = _toybox_module(cfg)
    is_fpi = cfg.model != "feedforward"

    def evaluate(theta):
        pred = _batched_prediction(cfg, module, theta, z_test, False, is_fpi)
        return mse_loss(Tensor(pred), Tensor(t_test)).item()

    return _fit(cfg, _Run(
        run_id, cfg.model, module, is_fpi, stream=1, n_train=cfg.n_train,
        examples=lambda idx, epoch: [(Tensor(z_train[:, idx]), Tensor(t_train[:, idx]))],
        loss="mse", post_sigmoid=False, evaluate=evaluate, score=("test", "mse"),
        epoch_line="train mse {train:.6f}  test mse {score:.6f}", keep_best=False))


# ---------------------------------------------------------------------------
# denoising: recover clean grayscale crops from Gaussian-corrupted inputs


def _noisy(clean: np.ndarray, sigma: float, seed_parts: list[int]) -> Tensor:
    rng = np.random.default_rng(seed_parts)
    return Tensor(clean[None] + rng.standard_normal((1, *clean.shape)) * (sigma / 255.0))


def _denoise_one_model(cfg, model_kind, sigma, images_train, images_test) -> list[tuple]:
    run_id = f"denoise-{model_kind}-s{sigma:g}-seed{cfg.seed}"
    module = ConvG(channels=cfg.channels)
    is_fpi = model_kind == "fpi_nn"
    test_noisy = [_noisy(img, sigma, [cfg.seed, 13, i]) for i, img in enumerate(images_test)]

    def examples(idx, epoch):
        # one image per pair, its noise drawn afresh every epoch
        for i in idx:
            clean = Tensor(images_train[i][None])
            yield _noisy(images_train[i], sigma, [cfg.seed, 14, epoch, int(i)]), clean

    def evaluate(theta):
        return float(np.mean([psnr(_predict_vector(cfg, module, theta, z, False, is_fpi),
                                   Tensor(clean[None]), peak=1.0)
                              for z, clean in zip(test_noisy, images_test)]))

    def finish(last, kept, best):
        return ([(run_id, cfg.epochs, "test", "psnr_best", best[0]),
                 (run_id, cfg.epochs, "test", "psnr_best_epoch", float(best[1]))],
                {"sigma": sigma})

    return _fit(cfg, _Run(
        run_id, model_kind, module, is_fpi, stream=11, n_train=len(images_train),
        examples=examples, loss="mse", post_sigmoid=False, evaluate=evaluate,
        score=("test", "psnr"), epoch_line="train mse {train:.6f}  test psnr {score:.3f} dB",
        keep_best=True, finish=finish))


def run_denoise(cfg: ExperimentConfig) -> list[tuple]:
    if not cfg.corpus:
        raise ValueError("denoise needs a PGM corpus; set [data] corpus or --data "
                         "(fpx make-images generates a synthetic one)")
    total = cfg.n_train_images + cfg.n_test_images
    images = load_image_dir(cfg.corpus, total, cfg.crop)
    images_train = images[: cfg.n_train_images]
    images_test = images[cfg.n_train_images :]
    models = ("fpi_nn", "feedforward") if cfg.model == "both" else (cfg.model,)
    rows: list[tuple] = []
    for sigma in cfg.sigmas:
        for model_kind in models:
            rows.extend(_denoise_one_model(cfg, model_kind, sigma,
                                           images_train, images_test))
    return rows


# ---------------------------------------------------------------------------
# multi-label classification on the sparse text format


def _multilabel_module(cfg: ExperimentConfig, model_kind: str):
    if model_kind == "fpi_nn":
        return MlpG(cfg.n_labels, cfg.n_features, cfg.hidden, final_sigmoid=True), False
    if model_kind == "fpi_gd":
        energy = EnergyNet(cfg.n_labels, cfg.n_features, cfg.hidden)
        return GdG(energy, gamma=cfg.gamma), True
    raise ValueError(f"multilabel does not know model {model_kind!r}")


def _multilabel_solver(cfg: ExperimentConfig, model_kind: str) -> ExperimentConfig:
    if model_kind == "fpi_gd":
        # descent steps carry no natural scale: absolute criterion
        return replace(cfg, criterion="absolute_beta", tol=cfg.gd_tol)
    return cfg


def _multilabel_one_model(cfg, model_kind, train: SparseDataset,
                          test: SparseDataset) -> list[tuple]:
    run_id = f"multilabel-{model_kind}-seed{cfg.seed}"
    cfg = _multilabel_solver(cfg, model_kind)
    module, post_sigmoid = _multilabel_module(cfg, model_kind)
    z_train = train.features.data.T
    t_train = train.labels.data.T
    n = z_train.shape[1]
    n_val = max(1, int(round(cfg.val_fraction * n)))
    val_idx = np.random.default_rng([cfg.seed, 23]).permutation(n)[:n_val]
    log.info(f"[{run_id}] {n} train samples ({n_val} for threshold selection), "
             f"{test.n_samples} test, tol={cfg.tol:g} ({cfg.criterion})")
    z_val, t_val = z_train[:, val_idx], Tensor(t_train[:, val_idx])
    t_test = Tensor(test.labels.data.T)

    def f1_at(theta, z, target, tau):
        scores = _batched_prediction(cfg, module, theta, z, post_sigmoid, True)
        return f1_score(Tensor((scores >= tau).astype(np.float64)), target)

    def swept(theta):
        """The threshold swept on the validation scores, and the F1 there."""
        scores = Tensor(_batched_prediction(cfg, module, theta, z_val, post_sigmoid, True))
        tau = select_threshold(scores, t_val)
        return tau, f1_score(Tensor((scores.data >= tau).astype(np.float64)), t_val)

    def finish(last, kept, best):
        tau, _ = swept(kept)
        test_f1 = f1_at(kept, test.features.data.T, t_test, tau)
        last_f1 = f1_at(last, test.features.data.T, t_test, tau)
        log.info(f"[{run_id}] threshold {tau:.2f}  test f1 {100 * test_f1:.1f} "
                 f"(best epoch {best[1]}), last-epoch f1 {100 * last_f1:.1f}")
        return ([(run_id, cfg.epochs, "test", "f1", test_f1),
                 (run_id, cfg.epochs, "test", "f1_last_epoch", last_f1),
                 (run_id, cfg.epochs, "val", "threshold", tau),
                 (run_id, cfg.epochs, "val", "f1_best_epoch", float(best[1]))],
                {"threshold": tau})

    return _fit(cfg, _Run(
        run_id, model_kind, module, True, stream=21, n_train=n,
        examples=lambda idx, epoch: [(Tensor(z_train[:, idx]), Tensor(t_train[:, idx]))],
        loss="bce", post_sigmoid=post_sigmoid,
        evaluate=lambda theta: swept(theta)[1], score=("val", "f1_swept"),
        epoch_line="train bce {train:.5f}  val f1@swept {score:.4f}", keep_best=True,
        finish=finish))


def run_multilabel(cfg: ExperimentConfig) -> list[tuple]:
    if not cfg.train_path or not cfg.test_path:
        raise ValueError("multilabel needs [data] train_path and test_path")
    train = load_sparse_dataset(cfg.train_path, cfg.n_features, cfg.n_labels,
                                cfg.expected_train or None)
    test = load_sparse_dataset(cfg.test_path, cfg.n_features, cfg.n_labels,
                               cfg.expected_test or None)
    if float(np.min(test.labels.data.sum(axis=1))) == 0.0:
        log.info("note: test split contains samples with empty label sets")
    models = ("fpi_nn", "fpi_gd") if cfg.model == "both" else (cfg.model,)
    rows: list[tuple] = []
    for model_kind in models:
        rows.extend(_multilabel_one_model(cfg, model_kind, train, test))
    return rows


# ---------------------------------------------------------------------------
# gradcheck: the verification suite as a task


def run_gradcheck(cfg: ExperimentConfig) -> tuple[list[tuple], int]:
    run_id = f"gradcheck-seed{cfg.seed}"
    log.info(f"[{run_id}] running {cfg.n_models}-model verification suite")
    outcomes = gradcheck_mod.run_all(cfg.seed, cfg.n_models)
    rows: list[tuple] = []
    failed = 0
    width = max(len(o.name) for o in outcomes)
    for o in outcomes:
        status = "PASS" if o.passed else "FAIL"
        failed += 0 if o.passed else 1
        log.info(f"  {status}  {o.name:<{width}}  observed {o.observed:.3e}  "
                 f"threshold {o.threshold:.3e}")
        rows.append((run_id, 0, "check", o.name, o.observed))
        rows.append((run_id, 0, "check", f"{o.name}.threshold", o.threshold))
        rows.append((run_id, 0, "check", f"{o.name}.passed", 1.0 if o.passed else 0.0))
    rows.append((run_id, 0, "check", "checks_failed", float(failed)))
    log.info(f"[{run_id}] {len(outcomes)} checks, {failed} failed")
    return rows, failed


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fpx",
        description="Train and verify fixed-point-iteration layers on desk-scale tasks.")
    parser.add_argument("task",
                        choices=["toybox", "denoise", "multilabel", "gradcheck",
                                 "make-images"])
    parser.add_argument("--config", help="INI config file (flat key=value sections)")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out", help="output directory (metrics, params, run log)")
    parser.add_argument("--model",
                        help="fpi_nn | fpi_gd | feedforward | both (task-dependent)")
    parser.add_argument("--epochs", type=int)
    parser.add_argument("--tol", type=float)
    parser.add_argument("--data", help="dataset location: corpus dir (denoise) or "
                        "train,test files (multilabel)")
    parser.add_argument("--count", type=int, default=125,
                        help="make-images: number of images")
    parser.add_argument("--size", type=int, default=64,
                        help="make-images: image side length")
    parser.add_argument("--quiet", action="store_true",
                        help="log to <out>/run.log only, not to stdout")
    args = parser.parse_args(argv)

    cfg = None
    if args.task != "make-images":
        overrides = dict(seed=args.seed, out_dir=args.out, model=args.model,
                         epochs=args.epochs, tol=args.tol)
        if args.data:
            if args.task == "denoise":
                overrides["corpus"] = args.data
            elif args.task == "multilabel":
                try:
                    train_path, test_path = args.data.split(",")
                except ValueError:
                    parser.error("--data for multilabel is 'train_file,test_file'")
                overrides.update(train_path=train_path, test_path=test_path)
        cfg = make_config(args.task, args.config, **overrides)

    handlers = [] if args.quiet else [logging.StreamHandler(sys.stdout)]
    if cfg is not None:
        os.makedirs(cfg.out_dir, exist_ok=True)
        handlers.append(logging.FileHandler(os.path.join(cfg.out_dir, "run.log"), "w",
                                            encoding="utf-8"))
    fpx_log = logging.getLogger("fpx")
    level = fpx_log.level
    fpx_log.setLevel(logging.INFO)
    for handler in handlers:
        handler.setFormatter(logging.Formatter("%(message)s"))
        fpx_log.addHandler(handler)
    try:
        if cfg is None:
            out = args.out or "images"
            generate_synthetic_corpus(out, args.count, args.size, args.seed or 0)
            log.info(f"wrote {args.count} {args.size}x{args.size} PGM images to {out}")
            return 0
        failed = 0
        if cfg.task == "toybox":
            rows = run_toybox(cfg)
        elif cfg.task == "denoise":
            rows = run_denoise(cfg)
        elif cfg.task == "multilabel":
            rows = run_multilabel(cfg)
        else:
            rows, failed = run_gradcheck(cfg)
        emit_metrics(cfg.metrics_path, rows)
        log.info(f"metrics written to {cfg.metrics_path}")
        return 1 if failed else 0
    finally:
        fpx_log.setLevel(level)
        for handler in handlers:
            fpx_log.removeHandler(handler)
            handler.close()


if __name__ == "__main__":
    sys.exit(main())

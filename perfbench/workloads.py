"""The benchmark's workloads: the config each one hands to ``fpx.cli.main``,
the held-out inputs its inference phase solves, and the rows its
``metrics.csv`` must hold.

The data the benchmark makes (the denoise corpus, the held-out inputs) is
derived from the workload seed, so the same seed gives the same inputs.  The
model is not: the CLI gets ``--seed MODEL_SEED`` whatever the workload seed,
so every run starts training from the same initial parameters.  The initial
parameters decide how many iterations the trained model's solves take (a
denoise model solves every image in 5 iterations or every one in 6, by its
init), so with the init following the workload seed the timings moved by
about 20% from seed to seed.  Modules and solver settings come from the same config the CLI
reads (``fpx.cli.make_config``), so inference solves exactly what training
used.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    task: str                   # fpx task
    model: str                  # --model
    experiment: dict            # [experiment] entries written to the config
    infer_solves: int           # held-out inputs, one solve each per pass
    infer_passes: int = 1       # passes over them per repetition (latency: median)
    infer_batch: int = 1        # samples per inference solve (toybox columns)
    reference: str = "small"    # reference kernel that tracks machine speed (reference.py)
    reference_units_per_step: int = 1   # reference units at each optimizer step
    tiny: dict = field(default_factory=dict)    # smoke-test overrides


WORKLOADS = {
    w.name: w for w in (
        Workload("toybox_mlp", "toybox", "fpi_nn", {"epochs": 2},
                 infer_solves=100, infer_passes=10, infer_batch=100,
                 tiny={"n_train": 200, "n_test": 100, "epochs": 1}),
        Workload("toybox_gd", "toybox", "fpi_gd", {"epochs": 1, "n_train": 500},
                 infer_solves=100, infer_passes=10, infer_batch=100,
                 reference_units_per_step=50,
                 tiny={"n_train": 100, "n_test": 100}),
        Workload("denoise_conv", "denoise", "fpi_nn", {"epochs": 1},
                 infer_solves=100, infer_passes=4, reference="conv",
                 tiny={"crop": 16, "channels": 4, "n_train_images": 4,
                       "n_test_images": 2, "batch_size": 2}),
    )
}

TINY_INFER_SOLVES = 10
MODEL_SEED = 0      # the CLI's --seed (init, shuffling, training noise; toybox data)


def write_config(wl: Workload, work: str, tiny: bool) -> str:
    """Write the INI config for one repetition; returns its path."""
    parser = configparser.ConfigParser()
    experiment = dict(wl.experiment, **(wl.tiny if tiny else {}))
    parser["experiment"] = {k: str(v) for k, v in experiment.items()}
    if wl.task == "denoise":
        parser["data"] = {"corpus": os.path.join(work, "corpus")}
    path = os.path.join(work, "bench.ini")
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)
    return path


def infer_solves(wl: Workload, tiny: bool) -> int:
    return TINY_INFER_SOLVES if tiny else wl.infer_solves


def infer_passes(wl: Workload, tiny: bool) -> int:
    return 1 if tiny else wl.infer_passes


def make_inputs(fpx, wl: Workload, cfg, work: str, seed: int, tiny: bool):
    """Build the corpus the CLI trains on (denoise) and the held-out
    inference set: a list of (input, target) arrays, one pair per solve."""
    n = infer_solves(wl, tiny)
    if wl.task == "toybox":
        rng = np.random.default_rng([seed, 901])
        a = rng.standard_normal((n, cfg.dim, wl.infer_batch)) * cfg.sigma_test
        return [(a[i], np.clip(a[i], -1.0, 1.0)) for i in range(n)]
    # denoise: the CLI reads the first train+test images (sorted by name); the
    # next n images of the same corpus are held out for inference
    used = cfg.n_train_images + cfg.n_test_images
    corpus = os.path.join(work, "corpus")
    fpx.data.generate_synthetic_corpus(corpus, used + n, cfg.crop, seed)
    rng = np.random.default_rng([seed, 902])
    pairs = []
    for i in range(used, used + n):
        clean = fpx.data.read_pgm(os.path.join(corpus, f"img_{i:04d}.pgm"))[None]
        noisy = clean + rng.standard_normal(clean.shape) * (cfg.sigmas[0] / 255.0)
        pairs.append((noisy, clean))
    return pairs


def build_module(fpx, wl: Workload, cfg):
    """The update module the CLI trains for this workload."""
    layers = fpx.layers
    if wl.model == "fpi_gd":
        energy = layers.EnergyNet(cfg.dim, cfg.dim, cfg.hidden, body_dim=cfg.dim)
        return layers.GdG(energy, gamma=cfg.gamma)
    if wl.task == "toybox":
        return layers.MlpG(cfg.dim, cfg.dim, cfg.hidden, final_sigmoid=False)
    return layers.ConvG(channels=cfg.channels)


def untrained_params(module, wl: Workload, cfg, seed: int):
    """The parameters the CLI starts training from (same init stream)."""
    stream = 1 if wl.task == "toybox" else 11
    return module.init_params(cfg.init_scale, np.random.default_rng([seed, stream]))


def train_samples(wl: Workload, cfg) -> int:
    per_epoch = cfg.n_train if wl.task == "toybox" else cfg.n_train_images
    return per_epoch * cfg.epochs


def train_solves(wl: Workload, cfg) -> int:
    """Forward solves per training run (one backward solve follows each)."""
    if wl.task == "toybox":
        return -(-cfg.n_train // cfg.batch_size) * cfg.epochs
    return cfg.n_train_images * cfg.epochs       # one solve per image


def expected_rows(wl: Workload, cfg) -> set[tuple[str, str, str]]:
    """(epoch, split, metric) keys the run's metrics.csv must hold."""
    solver = ("fpi_forward_iters", "fpi_unconverged_rate",
              "fpi_backward_iters", "fpi_backward_unconverged_rate")
    test_metric = "mse" if wl.task == "toybox" else "psnr"
    rows = set()
    for epoch in range(1, cfg.epochs + 1):
        e = str(epoch)
        rows |= {(e, "train", "mse"), (e, "test", test_metric)}
        rows |= {(e, "train", m) for m in solver}
    last = str(cfg.epochs)
    rows.add((last, "train", "convergence_flag"))
    if wl.task == "denoise":
        rows |= {(last, "test", "psnr_best"), (last, "test", "psnr_best_epoch")}
    return rows

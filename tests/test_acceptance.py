"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The two dataset-bound
criteria (paper-scale denoising, Bibtex multi-label) skip with an explanatory
message when their corpora are not available; everything else is
self-contained and seeded.
"""

import os
import time

import pytest

from fpx import gradcheck
from fpx.cli import emit_metrics, make_config, run_denoise, run_gradcheck, run_toybox
from fpx.data import generate_synthetic_corpus

SEED = 2024


def _report(name: str, passed: bool, detail: str = ""):
    line = f"{'PASS' if passed else 'FAIL'}: {name}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert passed, line


@pytest.fixture(scope="module")
def zoo():
    return gradcheck.build_model_zoo(SEED, n_models=20)


def _assert_outcomes(name, outcomes, detail=""):
    bad = [o for o in outcomes if not o.passed]
    msg = "; ".join(f"{o.name}: {o.observed:.3e} vs {o.threshold:.3e}" for o in bad[:4])
    _report(name, not bad, detail or msg)


def test_criterion_1_gradient_oracle_equivalence(zoo):
    start = time.time()
    outcomes = gradcheck.check_gradient_agreement(
        zoo, tol_closed=1e-6, tol_unrolled=1e-5, tol_fd=1e-4, seed=SEED + 1)
    elapsed = time.time() - start
    assert len(zoo) == 20
    _assert_outcomes("criterion 1: three-way gradient agreement on 20 models",
                     outcomes, f"{elapsed:.1f}s")
    _report("criterion 1: runtime under one minute", elapsed < 60.0, f"{elapsed:.1f}s")


def test_criterion_2_banach_uniqueness(zoo):
    outcomes = gradcheck.check_banach(zoo, tol=1e-10, starts=5, seed=SEED + 2)
    _assert_outcomes("criterion 2: unique fixed point and residual bound", outcomes)


def test_criterion_3_backward_convergence_rate(zoo):
    outcomes = gradcheck.check_backward_rate(zoo, tol=1e-10, rate_constant=3.0,
                                             seed=SEED + 3)
    rate_checks = [o for o in outcomes if "backward_rate" in o.name]
    flagged = [o for o in outcomes if o.name.startswith("injected")]
    assert rate_checks and len(flagged) == 1
    _assert_outcomes("criterion 3: backward iteration count within geometric bound",
                     rate_checks)
    _report("criterion 3: injected non-contraction flagged divergent",
            flagged[0].passed)


def test_criterion_4_fpi_gd_stationarity():
    outcomes = gradcheck.check_stationarity(seed=SEED + 4, n_models=8)
    _assert_outcomes("criterion 4: gradient norm at descent fixed points "
                     "below sqrt(tol)/gamma on 100% of solves", outcomes)


def test_criterion_5_toybox_ordering(tmp_path):
    start = time.time()
    results = {}
    for model in ("fpi_nn", "feedforward"):
        cfg = make_config("toybox", model=model, seed=SEED,
                          out_dir=str(tmp_path / model))
        rows = run_toybox(cfg)
        results[model] = {r[1]: r[4] for r in rows
                          if r[2] == "test" and r[3] == "mse"}[cfg.epochs]
    elapsed = time.time() - start
    _report("criterion 5: trained FPI mlp beats same-architecture feedforward "
            "on the constrained toy task",
            results["fpi_nn"] < results["feedforward"],
            f"fpi_nn {results['fpi_nn']:.5f} vs feedforward "
            f"{results['feedforward']:.5f}, {elapsed:.0f}s")
    _report("criterion 5: runtime under 15 minutes", elapsed < 900.0, f"{elapsed:.0f}s")


@pytest.fixture(scope="module")
def desk_corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus")
    generate_synthetic_corpus(path, 125, 64, seed=SEED)
    return path


def test_criterion_6_denoising_desk_scale(desk_corpus, tmp_path):
    cfg = make_config("denoise", corpus=str(desk_corpus), seed=SEED,
                      out_dir=str(tmp_path))
    assert cfg.crop == 64 and cfg.n_train_images == 100 and cfg.epochs == 20
    assert cfg.sigmas == (25.0,)
    rows = run_denoise(cfg)
    best = {r[0]: r[4] for r in rows if r[3] == "psnr_best"}
    gap = best[f"denoise-fpi_nn-s25-seed{SEED}"] \
        - best[f"denoise-feedforward-s25-seed{SEED}"]
    _report("criterion 6: FPI denoiser beats feedforward baseline by >= 0.2 dB "
            "at sigma=25 (desk scale)", gap >= 0.2, f"gap {gap:.3f} dB")


def test_criterion_6_denoising_paper_scale():
    corpus = os.environ.get("FPX_FLYING_CHAIRS_PGM")
    if not corpus:
        pytest.skip(
            "paper-scale denoising (180x180 crops, 400 train/100 test images, "
            "Table-1 gap targets 0.25/0.56/0.65 dB within +-0.3) needs the "
            "grayscale Flying Chairs PGM corpus; set FPX_FLYING_CHAIRS_PGM to "
            "its directory to run this multi-hour check")
    cfg = make_config("denoise", corpus=corpus, seed=SEED, crop=180,
                      n_train_images=400, n_test_images=100,
                      sigmas=(15.0, 20.0, 25.0), out_dir="runs/denoise-paper")
    rows = run_denoise(cfg)
    best = {r[0]: r[4] for r in rows if r[3] == "psnr_best"}
    targets = {15.0: 0.25, 20.0: 0.56, 25.0: 0.65}
    for sigma, target in targets.items():
        gap = best[f"denoise-fpi_nn-s{sigma:g}-seed{SEED}"] \
            - best[f"denoise-feedforward-s{sigma:g}-seed{SEED}"]
        _report(f"criterion 6 (paper scale): sigma={sigma:g} gap within 0.3 dB "
                f"of the reported {target} dB", abs(gap - target) <= 0.3,
                f"gap {gap:.3f} dB")


def _bibtex_paths():
    root = os.environ.get("FPX_BIBTEX_DIR", "data/bibtex")
    train = os.path.join(root, "train.txt")
    test = os.path.join(root, "test.txt")
    return (train, test) if os.path.exists(train) and os.path.exists(test) else None


def test_criterion_7_bibtex_multilabel(tmp_path):
    paths = _bibtex_paths()
    if paths is None:
        pytest.skip(
            "Bibtex multi-label (F1 >= 42.0 for the mlp flavor, >= 41.5 for the "
            "descent flavor on the standard 4880/2515 split) needs the dataset; "
            "place train.txt/test.txt under data/bibtex or set FPX_BIBTEX_DIR")
    from fpx.cli import run_multilabel
    start = time.time()
    cfg = make_config("multilabel", model="both", train_path=paths[0],
                      test_path=paths[1], expected_train=4880, expected_test=2515,
                      seed=SEED, out_dir=str(tmp_path))
    rows = run_multilabel(cfg)
    f1 = {r[0]: 100.0 * r[4] for r in rows if r[3] == "f1"}
    elapsed = time.time() - start
    _report("criterion 7: Bibtex F1 (mlp flavor) >= 42.0",
            f1[f"multilabel-fpi_nn-seed{SEED}"] >= 42.0,
            f"{f1[f'multilabel-fpi_nn-seed{SEED}']:.1f}, {elapsed:.0f}s")
    _report("criterion 7: Bibtex F1 (descent flavor) >= 41.5",
            f1[f"multilabel-fpi_gd-seed{SEED}"] >= 41.5,
            f"{f1[f'multilabel-fpi_gd-seed{SEED}']:.1f}")
    _report("criterion 7: runtime under 30 minutes", elapsed < 1800.0, f"{elapsed:.0f}s")


def test_criterion_8_constant_memory_backward():
    outcomes = gradcheck.check_constant_memory(seed=SEED + 8)
    _assert_outcomes("criterion 8: backward-pass peak node count independent of "
                     "forward iteration count", outcomes)


def test_criterion_9_determinism(tmp_path):
    for task, runner, kwargs in (
        ("gradcheck", run_gradcheck, dict(n_models=3)),
        ("toybox", run_toybox, dict(n_train=400, n_test=100, epochs=2, hidden=16)),
    ):
        payloads = []
        for attempt in ("a", "b"):
            cfg = make_config(task, seed=SEED, out_dir=str(tmp_path / f"{task}-{attempt}"),
                              **kwargs)
            out = runner(cfg)
            rows = out[0] if task == "gradcheck" else out
            emit_metrics(cfg.metrics_path, rows)
            payloads.append(open(cfg.metrics_path, "rb").read())
        _report(f"criterion 9: {task} metrics byte-identical across reruns",
                payloads[0] == payloads[1])

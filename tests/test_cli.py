import os

import numpy as np
import pytest

from fpx.cli import (
    ExperimentConfig,
    RunLog,
    emit_metrics,
    fpi_config,
    main,
    make_config,
    run_denoise,
    run_gradcheck,
    run_multilabel,
    run_toybox,
)
from fpx.data import generate_synthetic_corpus
from fpx.fpi import Criterion


class TestConfig:
    def test_task_defaults(self):
        cfg = make_config("toybox")
        assert cfg.epochs == 40 and cfg.batch_size == 100
        assert cfg.tol == 1e-6 and cfg.gamma == 0.01
        cfg = make_config("denoise")
        assert cfg.tol == 1e-7 and cfg.grad_clamp_norm == 0.1 and cfg.model == "both"
        cfg = make_config("multilabel")
        assert cfg.tol == 1e-8 and cfg.gd_tol == 1e-4 and cfg.hidden == 512

    def test_ini_overrides_and_flag_priority(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(
            "[experiment]\nseed = 7\nepochs = 3\nsigmas = 15,25\n"
            "[fpi]\ntol = 1e-9\ncriterion = absolute_beta\n"
            "[output]\nout_dir = somewhere\n")
        cfg = make_config("denoise", str(path), epochs=5)
        assert cfg.seed == 7
        assert cfg.epochs == 5                      # flag wins over file
        assert cfg.sigmas == (15.0, 25.0)
        assert cfg.tol == 1e-9
        assert fpi_config(cfg).criterion is Criterion.ABSOLUTE_BETA
        assert cfg.metrics_path == os.path.join("somewhere", "metrics.csv")

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[experiment]\nbogus = 1\n")
        with pytest.raises(ValueError, match="bogus"):
            make_config("toybox", str(path))

    def test_unknown_task_rejected(self):
        with pytest.raises(ValueError):
            make_config("florp")

    def test_unknown_unconverged_policy_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="abrot"):
            make_config("toybox", on_unconverged="abrot")
        path = tmp_path / "run.ini"
        path.write_text("[experiment]\non_unconverged = ignore\n")
        with pytest.raises(ValueError, match="ignore"):
            make_config("toybox", str(path))
        assert make_config("toybox", on_unconverged="abort").on_unconverged == "abort"


class TestEmitMetrics:
    def test_empty_rows_give_header_only(self, tmp_path):
        path = tmp_path / "m.csv"
        emit_metrics(path, [])
        assert path.read_text() == "run_id,epoch,split,metric,value\n"

    def test_rows_sorted_by_epoch_then_metric(self, tmp_path):
        path = tmp_path / "m.csv"
        rows = [
            ("r", 2, "train", "loss", 0.5),
            ("r", 1, "test", "acc", 0.25),
            ("r", 1, "train", "loss", 1.0),
            ("r", 2, "test", "acc", 0.75),
        ]
        emit_metrics(path, rows)
        lines = path.read_text().splitlines()
        assert len(lines) == 5
        assert lines[1] == "r,1,test,acc,0.25"
        assert lines[2] == "r,1,train,loss,1"
        assert lines[3] == "r,2,test,acc,0.75"
        assert lines[4] == "r,2,train,loss,0.5"

    def test_rerun_is_byte_identical(self, tmp_path):
        rows = [("r", 1, "train", "x", 1 / 3), ("r", 1, "train", "y", 2 / 7)]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_metrics(a, rows)
        emit_metrics(b, list(rows))
        assert a.read_bytes() == b.read_bytes()


def _tiny_config(task, tmp_path, out, **overrides):
    """Config of a seconds-long ``task`` run writing to ``out``; its data is
    made under ``tmp_path`` on first use."""
    if task == "toybox":
        sizes = dict(model="fpi_nn", n_train=200, n_test=60, epochs=2, hidden=16)
    elif task == "denoise":
        corpus = tmp_path / "imgs"
        if not corpus.exists():
            generate_synthetic_corpus(corpus, 10, 20, seed=5)
        sizes = dict(corpus=str(corpus), crop=16, n_train_images=6, n_test_images=3,
                     epochs=2, batch_size=3, channels=4)
    else:
        data = tmp_path / "data"
        if not data.exists():
            data.mkdir()
            rng = np.random.default_rng(0)
            for name, n in (("train.txt", 60), ("test.txt", 30)):
                with open(data / name, "w") as fh:
                    for _ in range(n):
                        feats = sorted(rng.choice(20, size=4, replace=False))
                        labs = sorted(set(int(f) % 6 for f in feats[:2]))
                        fh.write(",".join(map(str, labs)) + " "
                                 + " ".join(f"{f}:1" for f in feats) + "\n")
        sizes = dict(model="both", train_path=str(data / "train.txt"),
                     test_path=str(data / "test.txt"), n_features=20, n_labels=6,
                     hidden=8, epochs=2, batch_size=20)
    return make_config(task, out_dir=str(out), **{**sizes, **overrides})


_RUNNERS = {"toybox": run_toybox, "denoise": run_denoise, "multilabel": run_multilabel}


class TestRunners:
    def test_toybox_ground_truth_projection(self):
        from fpx.cli import _toybox_data
        cfg = make_config("toybox", n_train=10, n_test=5)
        z, t, _, _ = _toybox_data(cfg)
        np.testing.assert_array_equal(t, np.clip(z, -1, 1))
        assert z.shape == (10, 10)

    @pytest.mark.parametrize("model", ["fpi_nn", "fpi_gd", "feedforward"])
    def test_toybox_runs_and_learns(self, tmp_path, model):
        cfg = _tiny_config("toybox", tmp_path, tmp_path, model=model, epochs=3)
        rows = run_toybox(cfg, RunLog(cfg.out_dir, quiet=True))
        test_mse = [r[4] for r in rows if r[2] == "test" and r[3] == "mse"]
        assert len(test_mse) == 3
        assert all(np.isfinite(v) for v in test_mse)
        assert os.path.exists(tmp_path / f"params-toybox-{model}-seed0.bin")

    @pytest.mark.parametrize("task", ["toybox", "denoise", "multilabel"])
    def test_metrics_deterministic(self, tmp_path, task):
        outputs = []
        for name in ("a", "b"):
            cfg = _tiny_config(task, tmp_path, tmp_path / name, seed=3)
            rows = _RUNNERS[task](cfg, RunLog(cfg.out_dir, quiet=True))
            emit_metrics(cfg.metrics_path, rows)
            outputs.append({p.name: p.read_bytes() for p in (tmp_path / name).iterdir()
                            if p.suffix in (".csv", ".bin")})
        assert outputs[0] == outputs[1]
        assert "metrics.csv" in outputs[0]
        blobs = [name for name in outputs[0] if name.startswith("params-")]
        assert len(blobs) == (1 if task == "toybox" else 2)

    @pytest.mark.parametrize("task", ["toybox", "denoise"])
    def test_unconverged_forward_solve_policy(self, tmp_path, task):
        cfg = _tiny_config(task, tmp_path, tmp_path / "abort", model="fpi_nn", max_iter=1,
                           on_unconverged="abort")
        with pytest.raises(RuntimeError, match="failed to converge"):
            _RUNNERS[task](cfg, RunLog(cfg.out_dir, quiet=True))
        cfg = _tiny_config(task, tmp_path, tmp_path / "warn", model="fpi_nn", max_iter=1,
                           on_unconverged="warn")
        rows = _RUNNERS[task](cfg, RunLog(cfg.out_dir, quiet=True))
        assert [r[4] for r in rows if r[3] == "convergence_flag"] == [1.0]
        assert all(r[4] == 1.0 for r in rows if r[3] == "fpi_unconverged_rate")

    def test_denoise_runs_both_models(self, tmp_path):
        cfg = _tiny_config("denoise", tmp_path, tmp_path / "out")
        rows = run_denoise(cfg, RunLog(cfg.out_dir, quiet=True))
        run_ids = {r[0] for r in rows}
        assert run_ids == {"denoise-fpi_nn-s25-seed0", "denoise-feedforward-s25-seed0"}
        assert any(r[3] == "psnr_best" for r in rows)
        assert any(r[3] == "fpi_forward_iters" for r in rows)

    def test_multilabel_runs_on_synthetic_split(self, tmp_path):
        cfg = _tiny_config("multilabel", tmp_path, tmp_path / "out", model="fpi_nn")
        rows = run_multilabel(cfg, RunLog(cfg.out_dir, quiet=True))
        f1 = [r for r in rows if r[3] == "f1"]
        assert len(f1) == 1 and 0.0 <= f1[0][4] <= 1.0
        assert any(r[3] == "threshold" for r in rows)

    def test_multilabel_keeps_the_epoch_with_the_best_swept_f1(self, tmp_path):
        # at this rate the swept F1 rises for five epochs and drops at the
        # sixth, so keeping the first or the last epoch would both be caught;
        # F1 at a fixed 0.5 threshold is 0 until epoch 6 and would keep epoch 6
        cfg = _tiny_config("multilabel", tmp_path, tmp_path / "out", model="fpi_nn",
                           epochs=6, lr=0.03)
        rows = run_multilabel(cfg, RunLog(cfg.out_dir, quiet=True))
        scores = [r[4] for r in rows if r[3] == "f1_swept"]
        assert len(scores) == 6 and len(set(scores)) > 1
        best = int(np.argmax(scores))   # the first maximum: the earliest epoch wins ties
        assert 0 < best < 5
        assert [r[4] for r in rows if r[3] == "f1_best_epoch"] == [1.0 + best]
        assert any(r[3] == "threshold" for r in rows)

    def test_multilabel_split_check_aborts(self, tmp_path):
        (tmp_path / "train.txt").write_text("1 2:1\n0 3:1\n")
        (tmp_path / "test.txt").write_text("1 2:1\n")
        cfg = make_config("multilabel", train_path=str(tmp_path / "train.txt"),
                          test_path=str(tmp_path / "test.txt"), n_features=4, n_labels=2,
                          expected_train=4880, out_dir=str(tmp_path / "out"))
        with pytest.raises(Exception, match="nonstandard split"):
            run_multilabel(cfg, RunLog(cfg.out_dir, quiet=True))

    def test_gradcheck_small_suite_passes(self, tmp_path):
        cfg = make_config("gradcheck", n_models=3, out_dir=str(tmp_path))
        rows, failed = run_gradcheck(cfg, RunLog(cfg.out_dir, quiet=True))
        assert failed == 0
        assert any(r[3] == "checks_failed" and r[4] == 0.0 for r in rows)

    def test_gradcheck_metrics_deterministic(self, tmp_path):
        payloads = []
        for name in ("a", "b"):
            cfg = make_config("gradcheck", n_models=3, out_dir=str(tmp_path / name))
            rows, _ = run_gradcheck(cfg, RunLog(cfg.out_dir, quiet=True))
            emit_metrics(cfg.metrics_path, rows)
            payloads.append(open(cfg.metrics_path, "rb").read())
        assert payloads[0] == payloads[1]


class TestMain:
    def test_make_images(self, tmp_path):
        out = tmp_path / "imgs"
        rc = main(["make-images", "--out", str(out), "--count", "3", "--size", "12",
                   "--quiet"])
        assert rc == 0
        assert len(list(out.glob("*.pgm"))) == 3

    def test_toybox_end_to_end(self, tmp_path):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text("[experiment]\nn_train = 120\nn_test = 40\nhidden = 8\n")
        rc = main(["toybox", "--config", str(cfg_path), "--epochs", "1",
                   "--out", str(tmp_path / "out"), "--quiet"])
        assert rc == 0
        assert (tmp_path / "out" / "metrics.csv").exists()
        assert (tmp_path / "out" / "run.log").exists()

    def test_gradcheck_exit_code_zero_on_pass(self, tmp_path):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text("[experiment]\nn_models = 2\n")
        rc = main(["gradcheck", "--config", str(cfg_path), "--out", str(tmp_path / "o"),
                   "--quiet"])
        assert rc == 0

    def test_multilabel_data_flag_shape(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["multilabel", "--data", "only_one_file", "--quiet",
                  "--out", str(tmp_path)])

import logging
import os
import subprocess
import sys

import numpy as np
import pytest

import fpx
from fpx.cli import (
    ExperimentConfig,
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
        rows = run_toybox(cfg)
        test_mse = [r[4] for r in rows if r[2] == "test" and r[3] == "mse"]
        assert len(test_mse) == 3
        assert all(np.isfinite(v) for v in test_mse)
        assert os.path.exists(tmp_path / f"params-toybox-{model}-seed0.bin")

    @pytest.mark.parametrize("task", ["toybox", "denoise", "multilabel"])
    def test_metrics_deterministic(self, tmp_path, task):
        outputs = []
        for name in ("a", "b"):
            cfg = _tiny_config(task, tmp_path, tmp_path / name, seed=3)
            rows = _RUNNERS[task](cfg)
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
            _RUNNERS[task](cfg)
        cfg = _tiny_config(task, tmp_path, tmp_path / "warn", model="fpi_nn", max_iter=1,
                           on_unconverged="warn")
        rows = _RUNNERS[task](cfg)
        assert [r[4] for r in rows if r[3] == "convergence_flag"] == [1.0]
        assert all(r[4] == 1.0 for r in rows if r[3] == "fpi_unconverged_rate")

    def test_unconverged_backward_solve_policy(self, tmp_path):
        # an untrained fpi_gd forward solve stops after one step, while its
        # backward solve runs to max_iter
        ini = tmp_path / "run.ini"
        ini.write_text("[experiment]\non_unconverged = abort\n[fpi]\nmax_iter = 5\n")
        sizes = dict(model="fpi_gd", n_train=200, n_test=60, epochs=2, hidden=16)
        cfg = make_config("toybox", str(ini), out_dir=str(tmp_path / "abort"), **sizes)
        with pytest.raises(RuntimeError, match="backward solve failed to converge"):
            run_toybox(cfg)
        cfg = make_config("toybox", str(ini), out_dir=str(tmp_path / "warn"),
                          on_unconverged="warn", **sizes)
        rows = run_toybox(cfg)
        assert [r[4] for r in rows if r[3] == "fpi_unconverged_rate"] == [0.0, 0.0]
        assert [r[4] for r in rows if r[3] == "fpi_backward_unconverged_rate"] == [1.0, 1.0]

    def test_denoise_runs_both_models(self, tmp_path):
        cfg = _tiny_config("denoise", tmp_path, tmp_path / "out")
        rows = run_denoise(cfg)
        run_ids = {r[0] for r in rows}
        assert run_ids == {"denoise-fpi_nn-s25-seed0", "denoise-feedforward-s25-seed0"}
        assert any(r[3] == "psnr_best" for r in rows)
        assert any(r[3] == "fpi_forward_iters" for r in rows)

    def test_multilabel_runs_on_synthetic_split(self, tmp_path):
        cfg = _tiny_config("multilabel", tmp_path, tmp_path / "out", model="fpi_nn")
        rows = run_multilabel(cfg)
        f1 = [r for r in rows if r[3] == "f1"]
        assert len(f1) == 1 and 0.0 <= f1[0][4] <= 1.0
        assert any(r[3] == "threshold" for r in rows)

    def test_multilabel_keeps_the_epoch_with_the_best_swept_f1(self, tmp_path):
        # at this rate the swept F1 rises for five epochs and drops at the
        # sixth, so keeping the first or the last epoch would both be caught;
        # F1 at a fixed 0.5 threshold is 0 until epoch 6 and would keep epoch 6
        cfg = _tiny_config("multilabel", tmp_path, tmp_path / "out", model="fpi_nn",
                           epochs=6, lr=0.03)
        rows = run_multilabel(cfg)
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
            run_multilabel(cfg)

    def test_gradcheck_small_suite_passes(self, tmp_path):
        cfg = make_config("gradcheck", n_models=3, out_dir=str(tmp_path))
        rows, failed = run_gradcheck(cfg)
        assert failed == 0
        assert any(r[3] == "checks_failed" and r[4] == 0.0 for r in rows)

    def test_gradcheck_metrics_deterministic(self, tmp_path):
        payloads = []
        for name in ("a", "b"):
            cfg = make_config("gradcheck", n_models=3, out_dir=str(tmp_path / name))
            rows, _ = run_gradcheck(cfg)
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

    def test_make_images_reports_on_stdout(self, tmp_path, capsys):
        out = tmp_path / "imgs"
        assert main(["make-images", "--out", str(out), "--count", "2", "--size", "8"]) == 0
        assert capsys.readouterr().out == f"wrote 2 8x8 PGM images to {out}\n"
        assert not (out / "run.log").exists()

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

    @staticmethod
    def _ini(path, fpi=None, **experiment):
        text = "[experiment]\n" + "".join(f"{k} = {v}\n" for k, v in experiment.items())
        if fpi:
            text += "[fpi]\n" + "".join(f"{k} = {v}\n" for k, v in fpi.items())
        path.write_text(text)
        return str(path)

    def test_each_run_log_holds_only_its_own_run(self, tmp_path):
        cfg_path = self._ini(tmp_path / "cfg.ini", n_train=60, n_test=20, hidden=8)
        logs = {}
        for seed in (1, 2):
            out = tmp_path / f"out{seed}"
            assert main(["toybox", "--config", cfg_path, "--epochs", "1", "--seed",
                         str(seed), "--out", str(out), "--quiet"]) == 0
            logs[seed] = (out / "run.log").read_text()
        assert (tmp_path / "out1" / "run.log").read_text() == logs[1]   # closed after run 1
        for seed, other in ((1, 2), (2, 1)):
            assert f"seed{seed}" in logs[seed] and f"seed{other}" not in logs[seed]
            assert logs[seed].count("metrics written to") == 1
        assert [type(h) for h in logging.getLogger("fpx").handlers] == [logging.NullHandler]

    @pytest.mark.parametrize("quiet", [True, False])
    def test_stdout_is_the_run_log_unless_quiet(self, tmp_path, capsys, quiet):
        cfg_path = self._ini(tmp_path / "cfg.ini", n_models=2)
        argv = ["gradcheck", "--config", cfg_path, "--out", str(tmp_path / "o")]
        assert main(argv + (["--quiet"] if quiet else [])) == 0
        log_text = (tmp_path / "o" / "run.log").read_text(encoding="utf-8")
        assert log_text.endswith("metrics written to "
                                 f"{tmp_path / 'o' / 'metrics.csv'}\n")
        assert capsys.readouterr().out == ("" if quiet else log_text)

    def test_module_entry_point_logs_to_the_run_log_and_stdout(self, tmp_path):
        # under ``python -m`` the CLI's records must still reach the fpx handlers
        cfg_path = self._ini(tmp_path / "cfg.ini", n_train=60, n_test=20, hidden=8)
        src = os.path.dirname(os.path.dirname(fpx.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        out = subprocess.run([sys.executable, "-m", "fpx.cli", "toybox", "--config", cfg_path,
                              "--epochs", "1", "--out", str(tmp_path / "o")],
                             env=env, capture_output=True, text=True, timeout=120, check=True)
        log_text = (tmp_path / "o" / "run.log").read_text(encoding="utf-8")
        assert "metrics written to" in log_text
        assert out.stdout == log_text

    def test_run_log_has_the_data_loader_records(self, tmp_path):
        cfg = _tiny_config("multilabel", tmp_path, tmp_path / "unused")
        cfg_path = self._ini(tmp_path / "cfg.ini", n_features=20, n_labels=6, hidden=8,
                             batch_size=20)
        assert main(["multilabel", "--config", cfg_path, "--epochs", "1", "--quiet",
                     "--data", f"{cfg.train_path},{cfg.test_path}",
                     "--out", str(tmp_path / "o")]) == 0
        lines = (tmp_path / "o" / "run.log").read_text().splitlines()
        assert f"{cfg.train_path}: 60 samples, detected 0-based indexing" in lines
        assert f"{cfg.test_path}: 30 samples, detected 0-based indexing" in lines

    def test_run_log_counts_best_effort_backward_solves(self, tmp_path):
        cfg_path = self._ini(tmp_path / "cfg.ini", {"max_iter": 2}, n_train=60, n_test=20,
                             hidden=8, batch_size=20)
        assert main(["toybox", "--config", cfg_path, "--model", "fpi_gd", "--epochs", "1",
                     "--out", str(tmp_path / "o"), "--quiet"]) == 0
        lines = (tmp_path / "o" / "run.log").read_text().splitlines()
        assert ("WARNING toybox-fpi_gd-seed0: epoch 1: 3 of 3 backward solves hit "
                "max_iter; their gradients are best-effort") in lines

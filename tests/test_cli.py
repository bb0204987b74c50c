"""End-to-end command surface: artifacts, determinism, and exit codes.

Training runs here use a deliberately tiny model (32px, thin channels)
so the whole file stays in the seconds range.
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from coopseg import cli
from coopseg import tensor as T
from coopseg.checkpoint import load_checkpoint, save_checkpoint
from coopseg.cli import main
from coopseg.config import RunConfig, parse_config_file
from coopseg.data import read_raster
from coopseg.model import SegmentationModel, ViewOutputs
from coopseg.tensor import BLAS_THREAD_VARS
from coopseg.train import EpochReport, train_epoch

TINY = {
    "image_size": "32",
    "depth": "2",
    "d_model": "48",
    "heads": "6",
    "stem_channels": "4",
    "stage_units": "1",
    "c4": "8",
    "c8": "12",
    "c16": "16",
    "batch_size": "2",
    "epochs": "2",
    "synth_samples": "2",
    "lr": "0.0002",
}


def write_cfg(path, **extra):
    lines = dict(TINY)
    lines.update({k: str(v) for k, v in extra.items()})
    path.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
    return str(path)


def run_python(*args, blas_threads=None):
    """``python *args`` in a fresh process that imports this coopseg. ``blas_threads``
    sets OPENBLAS_NUM_THREADS; None leaves every BLAS thread variable unset, so BLAS
    takes one thread per CPU."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=120)


def run_coopseg(*args, blas_threads=None):
    """``python -m coopseg`` in a fresh process (``run_python``)."""
    return run_python("-m", "coopseg", *args, blas_threads=blas_threads)


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("trained")
    cfg = write_cfg(root / "tiny.cfg", out_dir=str(root / "run"))
    assert main(["train", "--config", cfg, "--seed", "3"]) == 0
    return root


class TestTrain:
    def test_artifacts_present(self, trained_dir):
        run = trained_dir / "run"
        assert (run / "epoch_0001.ckpt").is_file()
        assert (run / "epoch_0002.ckpt").is_file()
        assert (run / "model_final.ckpt").is_file()
        assert (run / "train_log.csv").is_file()
        assert (run / "config_used.cfg").is_file()

    def test_log_columns_and_simplex_rows(self, trained_dir):
        lines = (trained_dir / "run" / "train_log.csv").read_text().splitlines()
        assert lines[0] == "epoch,loss_1,loss_2,loss_3,w_1,w_2,w_3,objective"
        assert len(lines) == 3
        for line in lines[1:]:
            cells = line.split(",")
            assert len(cells) == 8
            w = [float(c) for c in cells[4:7]]
            assert abs(sum(w) - 1.0) <= 1e-9
            assert all(v >= 0 for v in w)

    def test_config_echo_reparses(self, trained_dir):
        from coopseg.config import build_config, parse_config_file

        cfg = build_config(parse_config_file(trained_dir / "run" / "config_used.cfg"))
        assert cfg.image_size == 32
        assert cfg.seed == 3
        assert cfg.epochs == 2

    def test_deterministic_across_runs(self, tmp_path):
        cfg_a = write_cfg(tmp_path / "a.cfg", out_dir=str(tmp_path / "run_a"))
        cfg_b = write_cfg(tmp_path / "b.cfg", out_dir=str(tmp_path / "run_b"))
        assert main(["train", "--config", cfg_a, "--seed", "7"]) == 0
        assert main(["train", "--config", cfg_b, "--seed", "7"]) == 0
        final_a = (tmp_path / "run_a" / "model_final.ckpt").read_bytes()
        final_b = (tmp_path / "run_b" / "model_final.ckpt").read_bytes()
        assert final_a == final_b

    def test_seed_changes_checkpoint(self, tmp_path):
        cfg_a = write_cfg(tmp_path / "a.cfg", out_dir=str(tmp_path / "run_a"))
        cfg_b = write_cfg(tmp_path / "b.cfg", out_dir=str(tmp_path / "run_b"))
        assert main(["train", "--config", cfg_a, "--seed", "1", "--epochs", "1"]) == 0
        assert main(["train", "--config", cfg_b, "--seed", "2", "--epochs", "1"]) == 0
        a = (tmp_path / "run_a" / "model_final.ckpt").read_bytes()
        b = (tmp_path / "run_b" / "model_final.ckpt").read_bytes()
        assert a != b

    def test_crash_keeps_the_finished_epochs_in_the_log(self, tmp_path, monkeypatch):
        calls = []

        def second_epoch_fails(*args):
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("injected failure in epoch 2")
            return train_epoch(*args)

        monkeypatch.setattr(cli, "train_epoch", second_epoch_fails)
        cfg = write_cfg(tmp_path / "c.cfg", out_dir=str(tmp_path / "run"), epochs=3)
        assert main(["train", "--config", cfg]) == 1
        lines = (tmp_path / "run" / "train_log.csv").read_text().splitlines()
        assert lines[0] == "epoch,loss_1,loss_2,loss_3,w_1,w_2,w_3,objective"
        assert len(lines) == 2
        assert lines[1].startswith("1,")


    def test_out_of_memory_is_a_runtime_error_that_keeps_the_log(self, tmp_path, monkeypatch, capsys):
        calls = []

        def second_epoch_runs_out(*args):  # raises without allocating anything
            calls.append(1)
            if len(calls) == 2:
                raise MemoryError("Unable to allocate 16.0 TiB for an array")
            return train_epoch(*args)

        monkeypatch.setattr(cli, "train_epoch", second_epoch_runs_out)
        cfg = write_cfg(tmp_path / "c.cfg", out_dir=str(tmp_path / "run"), epochs=3)
        assert main(["train", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err == "error: out of memory: Unable to allocate 16.0 TiB for an array\n"
        lines = (tmp_path / "run" / "train_log.csv").read_text().splitlines()
        assert len(lines) == 2 and lines[1].startswith("1,")

    def test_training_does_not_depend_on_the_blas_threads(self, tmp_path):
        """With one BLAS thread every GEMM pair of backward and every Adam update is
        handed to the pool (the work constant is set to 0 here; at this size none would
        be); with BLAS unpinned it takes every CPU and the pool is not used."""
        outputs = []
        for blas in ("1", None):
            run = tmp_path / f"blas_{blas}"
            cfg = write_cfg(tmp_path / f"blas_{blas}.cfg", out_dir=str(run), seed=3)
            proc = run_python("-c", "import sys; from coopseg import cli, tensor; "
                              "tensor.FORK_MIN_WORK = 0; "
                              f"sys.exit(cli.main(['train', '--config', {cfg!r}]))",
                              blas_threads=blas)
            assert proc.returncode == 0, proc.stderr
            outputs.append([(run / name).read_bytes()
                            for name in ("model_final.ckpt", "train_log.csv")])
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_non_finite_gradient_exits_1_naming_the_parameter(self, tmp_path, monkeypatch,
                                                               capsys, workers):
        """One batchnorm rule returns a NaN gamma gradient. Adam refuses it, on the pool at
        two workers, and the run stops in epoch 1, before its checkpoint and log row."""
        helpers.set_workers(monkeypatch, workers)
        monkeypatch.setattr(T, "_pool", T._Pool())
        monkeypatch.setattr(T, "FORK_MIN_WORK", 0)
        ran = helpers.pool_runs_every_queued_task(monkeypatch)
        models, poisoned, from_op = [], [], T._from_op

        def nan_gamma_gradient(op, data, inputs, backward_fn):
            if op == "batchnorm_channel" and not poisoned:
                poisoned.append(inputs[1])

                def rule(g):
                    gx, gamma, beta = backward_fn(g)
                    return gx, np.full_like(gamma, np.nan), beta

                return from_op(op, data, inputs, rule)
            return from_op(op, data, inputs, backward_fn)

        monkeypatch.setattr(T, "_from_op", nan_gamma_gradient)
        monkeypatch.setattr(cli, "SegmentationModel",
                            lambda cfg: models.append(SegmentationModel(cfg)) or models[-1])
        cfg = write_cfg(tmp_path / "nan.cfg", out_dir=str(tmp_path / "run"))
        assert main(["train", "--config", cfg]) == 1
        [model] = models
        name = next(n for n, p in model.named_parameters() if p is poisoned[0])
        assert capsys.readouterr().err == (
            f"error: gradient of parameter {name!r} is not finite, or its squared norm "
            f"overflows float32; the update is refused and {name!r} is unchanged\n")
        assert (len(ran) > 0) == (workers == 2)
        run = tmp_path / "run"
        assert not (run / "epoch_0001.ckpt").exists() and not (run / "model_final.ckpt").exists()
        header = "epoch,loss_1,loss_2,loss_3,w_1,w_2,w_3,objective\n"
        assert (run / "train_log.csv").read_text() == header


class TestEvalPredict:
    def test_eval_writes_csv_with_summary(self, trained_dir, capsys):
        cfg = write_cfg(trained_dir / "eval.cfg", out_dir=str(trained_dir / "run"))
        assert main(["eval", "--config", cfg, "--seed", "3"]) == 0
        lines = (trained_dir / "run" / "eval.csv").read_text().splitlines()
        assert lines[0] == "id,dice,iou,mae"
        assert len(lines) == 4  # 2 samples + mean row
        assert lines[-1].startswith("mean,")
        for line in lines[1:]:
            _, d, j, m = line.split(",")
            assert 0.0 <= float(d) <= 1.0
            assert 0.0 <= float(j) <= 1.0
            assert 0.0 <= float(m) <= 1.0
        assert "mDice" in capsys.readouterr().out

    def test_predict_writes_masks(self, trained_dir):
        cfg = write_cfg(trained_dir / "pred.cfg", out_dir=str(trained_dir / "run"))
        assert main(["predict", "--config", cfg, "--seed", "3"]) == 0
        pred_dir = trained_dir / "run" / "predictions"
        files = sorted(p.name for p in pred_dir.iterdir())
        assert files == ["synth_0000.pgm", "synth_0001.pgm"]
        img = read_raster(pred_dir / "synth_0000.pgm")
        assert img.shape == (32, 32)
        assert img.dtype == np.uint8

    def test_no_config_falls_back_to_run_echo(self, trained_dir):
        # without --config the run dir's config_used.cfg supplies the
        # settings, so the rebuilt model matches the checkpoint shapes
        run = str(trained_dir / "run")
        assert main(["eval", "--out-dir", run]) == 0
        lines = (trained_dir / "run" / "eval.csv").read_text().splitlines()
        assert len(lines) == 4
        assert main(["predict", "--out-dir", run]) == 0
        assert (trained_dir / "run" / "predictions" / "synth_0001.pgm").is_file()

    def test_outputs_do_not_depend_on_the_blas_threads(self, trained_dir, tmp_path):
        """With one BLAS thread, eval and predict forward a batch's images on every CPU in
        parallel; with BLAS unpinned it takes every CPU, and they run one by one."""
        ckpt = str(trained_dir / "run" / "model_final.ckpt")
        outputs = []
        for blas in ("1", None):
            run = tmp_path / f"blas_{blas}"
            cfg = write_cfg(tmp_path / f"blas_{blas}.cfg", out_dir=str(run), seed=3,
                            synth_samples=5, batch_size=3)
            for command in ("eval", "predict"):
                proc = run_coopseg(command, "--config", cfg, "--checkpoint", ckpt,
                                   blas_threads=blas)
                assert proc.returncode == 0, proc.stderr
            preds = sorted((run / "predictions").iterdir())
            outputs.append([(run / "eval.csv").read_bytes(),
                            *((p.name, p.read_bytes()) for p in preds)])
        assert len(outputs[0]) == 1 + 5
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_old_run_echo_with_a_removed_key_is_config_error(self, tmp_path, capsys, command):
        run = tmp_path / "run"
        run.mkdir()
        write_cfg(run / "config_used.cfg", out_dir=str(run), eval_view="cnn")
        assert main([command, "--out-dir", str(run)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown config key 'eval_view'")
        assert sorted(p.name for p in run.iterdir()) == ["config_used.cfg"]

    def test_missing_checkpoint_is_runtime_error(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", out_dir=str(tmp_path / "nope"))
        assert main(["eval", "--config", cfg]) == 1

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_checkpoint_is_read_before_any_other_work(self, tmp_path, monkeypatch, capsys, command):
        """A missing checkpoint fails before a sample is made or a model drawn (seconds
        and hundreds of MB at paper geometry), and leaves no output behind."""
        def refuse(*args):
            raise AssertionError("work started before the checkpoint was read")

        monkeypatch.setattr(cli, "SegmentationModel", refuse)
        monkeypatch.setattr(cli, "_get_samples", refuse)
        run = tmp_path / "run"
        run.mkdir()
        write_cfg(run / "config_used.cfg", out_dir=str(run))
        assert main([command, "--out-dir", str(run)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(run / "model_final.ckpt") in err
        assert sorted(p.name for p in run.iterdir()) == ["config_used.cfg"]

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_nan_view_weights_are_runtime_error(self, trained_dir, tmp_path, capsys, command):
        state = load_checkpoint(trained_dir / "run" / "model_final.ckpt")
        state["view_weights"] = np.full(3, np.nan)
        run = tmp_path / "run"
        run.mkdir()
        save_checkpoint(run / "model_final.ckpt", state)
        write_cfg(run / "config_used.cfg", out_dir=str(run))
        assert main([command, "--out-dir", str(run)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: view weights must be finite") and "lambda" in err
        assert sorted(p.name for p in run.iterdir()) == ["config_used.cfg", "model_final.ckpt"]

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_non_finite_decision_is_runtime_error(self, trained_dir, tmp_path, capsys, command):
        """A finite checkpoint can still decide NaN: one LayerNorm gain of 1e30 makes the
        attention rows inf - inf. The command stops at the first such sample and names it,
        and writes no NaN rows to eval.csv and no PGM cast from NaN."""
        state = load_checkpoint(trained_dir / "run" / "model_final.ckpt")
        state["transformer.blocks.0.norm1.gamma"][0] = 1e30
        run = tmp_path / "run"
        run.mkdir()
        save_checkpoint(run / "model_final.ckpt", state)
        write_cfg(run / "config_used.cfg", out_dir=str(run))
        assert main([command, "--out-dir", str(run)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite decision for sample 'synth_0000'")
        assert sorted(p.name for p in run.iterdir()) == ["config_used.cfg", "model_final.ckpt"]

    def test_state_mismatch_is_one_line_error(self, trained_dir, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg", out_dir=str(tmp_path / "out"), dfm_on="false")
        ckpt = str(trained_dir / "run" / "model_final.ckpt")
        assert main(["eval", "--config", cfg, "--checkpoint", ckpt]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: state mismatch: missing [")
        assert ", unexpected [" in err[0]

    def test_corrupt_checkpoint_is_runtime_error(self, trained_dir, tmp_path):
        blob = bytearray((trained_dir / "run" / "model_final.ckpt").read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(blob))
        cfg = write_cfg(tmp_path / "c.cfg", out_dir=str(trained_dir / "run"))
        assert main(["eval", "--config", cfg, "--checkpoint", str(bad)]) == 1


class TestAblationFlags:
    def test_no_glff_no_dfm_reach_config(self, tmp_path):
        from coopseg.config import build_config, parse_config_file

        cfg = write_cfg(tmp_path / "c.cfg", out_dir=str(tmp_path / "run"), epochs=1)
        assert main(["train", "--config", cfg, "--no-glff", "--no-dfm"]) == 0
        echoed = build_config(parse_config_file(tmp_path / "run" / "config_used.cfg"))
        assert echoed.glff_on is False
        assert echoed.dfm_on is False

    def test_lambda_flag_overrides_file(self, tmp_path):
        from coopseg.config import build_config, parse_config_file

        cfg = write_cfg(tmp_path / "c.cfg", out_dir=str(tmp_path / "run"),
                        epochs=1, **{"lambda": "9.0"})
        assert main(["train", "--config", cfg, "--lambda", "0.5"]) == 0
        echoed = build_config(parse_config_file(tmp_path / "run" / "config_used.cfg"))
        assert echoed.lam == 0.5


class TestBenchmarkHooks:
    def test_train_eval_predict_call_the_hooked_names(self, tmp_path, monkeypatch):
        """perfbench/workloads.py times the commands by replacing these cli globals, so
        each must stay a global the commands look up at call time, called as pinned here."""
        calls = {name: [] for name in ("train_epoch", "save_checkpoint", "load_checkpoint", "_decide")}
        for name, log in calls.items():
            def spy(*args, _real=getattr(cli, name), _log=log):
                _log.append(args)
                return _real(*args)

            monkeypatch.setattr(cli, name, spy)
        run = tmp_path / "run"
        cfg = write_cfg(tmp_path / "c.cfg", out_dir=str(run), synth_samples=3)  # 2 batches
        assert main(["train", "--config", cfg]) == 0
        assert len(calls["train_epoch"]) == 2  # one per epoch
        assert [Path(args[0]).name for args in calls["save_checkpoint"]] == [
            "epoch_0001.ckpt", "epoch_0002.ckpt", "model_final.ckpt"]
        for command in ("eval", "predict"):
            assert main([command, "--out-dir", str(run)]) == 0
        assert calls["load_checkpoint"] == [(run / "model_final.ckpt",)] * 2
        assert len(calls["_decide"]) == 4  # one per batch and command
        for args in calls["_decide"]:
            assert [type(a) for a in args] == [RunConfig, SegmentationModel, ViewOutputs]


class TestDataHeldOnce:
    """A run holds each sample once, as its batch in the run's dtype: the float64
    samples are dropped once batched, and eval keeps per-image rows, not maps."""

    @staticmethod
    def held(tmp_path, n):
        """The most traced bytes held, above the level before each command, when a train
        epoch starts and when eval decides a batch. Training is skipped: only the data
        differs between two sample counts."""
        held, base = {"train": 0, "eval": 0}, [0]

        def note(phase):
            held[phase] = max(held[phase], tracemalloc.get_traced_memory()[0] - base[0])

        def epoch(*args):
            note("train")
            return EpochReport(np.ones(3), np.full(3, 1 / 3), 1.0)

        def decide(*args, real=cli._decide):
            note("eval")
            return real(*args)

        run = tmp_path / f"run{n}"
        cfg = write_cfg(tmp_path / f"n{n}.cfg", out_dir=str(run), image_size=128,
                        synth_samples=n, batch_size=8, epochs=1)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "train_epoch", epoch)
            mp.setattr(cli, "_decide", decide)
            tracemalloc.start()
            try:
                for argv in (["train", "--config", cfg], ["eval", "--out-dir", str(run)]):
                    base[0] = tracemalloc.get_traced_memory()[0]
                    assert main(argv) == 0
            finally:
                tracemalloc.stop()
        return held

    def test_held_data_grows_by_one_float32_sample_per_sample(self, tmp_path):
        small, large = (self.held(tmp_path, n) for n in (16, 32))
        sample_bytes = (3 + 1) * 128 * 128 * 4  # float32 image and mask
        for phase in ("train", "eval"):
            assert large[phase] - small[phase] <= 1.1 * 16 * sample_bytes, phase


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--bogus"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["gradcheck", "--seed", "3"], ["gradcheck", "--config", "c.cfg"],
        ["eval", "--epochs", "2"], ["eval", "--lambda", "0.5"], ["predict", "--epochs", "2"],
        ["eval", "--image-size", "32"], ["eval", "--no-glff"], ["eval", "--no-dfm"],
        ["predict", "--image-size", "32"], ["predict", "--no-glff"], ["predict", "--no-dfm"],
    ])
    def test_flag_the_command_does_not_read_is_usage_error(self, argv):
        """The run's config fixes the model's shape: eval and predict take no geometry flag."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_missing_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_config_key_exits_2(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("momentum = 0.9\n")
        assert main(["train", "--config", str(p)]) == 2

    def test_invalid_config_value_exits_2(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("image_size = 50\n")
        assert main(["train", "--config", str(p)]) == 2

    def test_config_that_is_not_utf8_exits_2_naming_the_file(self, tmp_path, capsys):
        p = tmp_path / "c.cfg"
        p.write_bytes(b"epochs = 3\n\xff\n")
        assert main(["train", "--config", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {p}: not UTF-8 text: 'utf-8' codec can't decode byte 0xff")

    def test_config_with_a_byte_order_mark_parses_and_trains(self, tmp_path):
        p = Path(write_cfg(tmp_path / "c.cfg", out_dir=str(tmp_path / "run"), epochs=1))
        p.write_bytes(b"\xef\xbb\xbf" + p.read_bytes())
        assert parse_config_file(p)["image_size"] == "32"
        assert main(["train", "--config", str(p)]) == 0
        assert (tmp_path / "run" / "model_final.ckpt").is_file()

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_config_exits_2_naming_the_path(self, tmp_path, capsys, kind):
        p = tmp_path / "c.cfg"
        if kind == "directory":
            p.mkdir()
        assert main(["train", "--config", str(p), "--out-dir", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {p}: cannot read config file: ")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("key, value", [
        ("patch_size", 8), ("mlp_ratio", 4.0), ("early_stop_patience", 2), ("eval_view", "cnn"),
    ])
    def test_removed_key_is_unknown_key_error(self, tmp_path, capsys, key, value):
        """The patch size (16) and MLP ratio (4) are fixed, train runs all its epochs and
        eval/predict score the fused decision: a config that still sets one of the removed
        keys is an unknown-key error that stops before any work."""
        cfg = write_cfg(tmp_path / "c.cfg", out_dir=str(tmp_path / "run"), **{key: value})
        assert main(["train", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("error: unknown config key")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("key, value", [
        ("heads", 0), ("d_model", 0), ("--image-size", 0),
        ("stage_units", 0), ("stem_channels", 0), ("depth", -1), ("c4", 0), ("c8", 0),
        ("c16", -8), ("synth_samples", 0), ("--seed", -1), ("lr", -1), ("lr", 0),
        ("lr", "nan"), ("lr", "inf"), ("lr", "1e39"), ("--lambda", "inf"),
    ])
    def test_out_of_range_value_is_config_error(self, tmp_path, capsys, key, value):
        """Each value would otherwise divide by zero, build an empty layer or train with a
        nonsense setting (lr = 1e39 is inf in float32, Adam's precision in this run); it
        must stop as a one-line config error before any work."""
        flags = [key, str(value)] if key.startswith("--") else []
        cfg = write_cfg(tmp_path / "c.cfg", out_dir=str(tmp_path / "run"),
                        **({} if flags else {key: value}))
        assert main(["train", "--config", cfg, *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert not (tmp_path / "run").exists()

    def test_lambda_that_overflows_the_solver_exits_1_before_any_update(self, tmp_path):
        """lambda = 1e-310 validates, but -loss / lambda overflows and the solved view
        weights are NaN: the run stops at the first batch, before a step or a save, and
        the one line of standard error is the report (numpy warns of no overflow)."""
        run = tmp_path / "run"
        cfg = write_cfg(tmp_path / "c.cfg", out_dir=str(run), depth=1, epochs=1,
                        **{"lambda": "1e-310"})
        proc = run_coopseg("train", "--config", cfg)
        assert proc.returncode == 1
        err = proc.stderr
        assert err.startswith("error: view weights must be finite") and "lambda" in err
        assert len(err.splitlines()) == 1, err
        assert sorted(p.name for p in run.iterdir()) == ["config_used.cfg", "train_log.csv"]
        assert (run / "train_log.csv").read_text().splitlines() == [
            "epoch,loss_1,loss_2,loss_3,w_1,w_2,w_3,objective"]

    def test_missing_data_dir_exits_1(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", out_dir=str(tmp_path / "run"))
        rc = main(["train", "--config", cfg, "--data-dir", str(tmp_path / "absent")])
        assert rc == 1


@st.composite
def small_train_config(draw):
    """A small valid config: 16 or 32 px, depth <= 2, widths <= 8, <= 3 samples, 1-2
    epochs, and lr and lambda anywhere in the positive floats up to 1e308."""
    heads = draw(st.sampled_from([1, 2, 4]))
    width = st.integers(1, 8)
    positive = st.floats(min_value=5e-324, max_value=1e308, allow_subnormal=True)
    return {
        "image_size": draw(st.sampled_from([16, 32])),
        "depth": draw(st.integers(1, 2)),
        "d_model": heads * draw(st.integers(1, 8 // heads)),
        "heads": heads,
        "stem_channels": draw(width),
        "stage_units": draw(st.integers(1, 2)),
        "c4": draw(width),
        "c8": draw(width),
        "c16": draw(width),
        "glff_on": draw(st.booleans()),
        "dfm_on": draw(st.booleans()),
        "lr": repr(draw(positive)),
        "lambda": repr(draw(positive)),
        "epochs": draw(st.integers(1, 2)),
        "batch_size": draw(st.integers(1, 3)),
        "synth_samples": draw(st.integers(1, 3)),
        "seed": draw(st.integers(0, 3)),
        "dtype": draw(st.sampled_from(["float32", "float64"])),
    }


@given(small_train_config())
@settings(max_examples=50, deadline=None)
def test_train_on_any_small_config_exits_cleanly(tmp_path_factory, values):
    """``coopseg train`` returns 0, 1 or 2 and raises nothing; a run that exits 0 leaves
    finite view weights on the simplex. (Parameters an overflowing lr made non-finite
    are not checked here.)"""
    root = tmp_path_factory.mktemp("prop")
    cfg = root / "c.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in {**values, "out_dir": root / "run"}.items()))
    code = main(["train", "--config", str(cfg)])
    assert code in (0, 1, 2)
    if code == 0:
        w = load_checkpoint(root / "run" / "model_final.ckpt")["view_weights"]
        assert np.isfinite(w).all() and abs(w.sum() - 1.0) <= 1e-9


class TestGradcheckCommand:
    def test_exit_zero_on_pass(self, monkeypatch, capsys):
        import coopseg.gradcheck as gc

        fake = [gc.OpCheckResult(name="demo_op", max_rel_err=1e-7)]
        monkeypatch.setattr(gc, "run_op_suite", lambda **kw: fake)
        monkeypatch.setattr(gc, "check_model_end_to_end", lambda **kw: 2e-6)
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "demo_op" in out and "PASS" in out and "FAIL" not in out

    def test_exit_nonzero_on_failure(self, monkeypatch, capsys):
        import coopseg.gradcheck as gc

        fake = [gc.OpCheckResult(name="demo_op", max_rel_err=0.5)]
        monkeypatch.setattr(gc, "run_op_suite", lambda **kw: fake)
        monkeypatch.setattr(gc, "check_model_end_to_end", lambda **kw: 2e-6)
        assert main(["gradcheck"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_exit_nonzero_on_model_failure(self, monkeypatch):
        import coopseg.gradcheck as gc

        fake = [gc.OpCheckResult(name="demo_op", max_rel_err=1e-7)]
        monkeypatch.setattr(gc, "run_op_suite", lambda **kw: fake)
        monkeypatch.setattr(gc, "check_model_end_to_end", lambda **kw: 0.3)
        assert main(["gradcheck"]) == 1


class TestEntryPoint:
    """``python -m coopseg`` runs the same parser as ``main``."""

    def test_help_lists_every_command(self):
        proc = run_coopseg("--help")
        assert proc.returncode == 0, proc.stderr
        for command in ("train", "eval", "predict", "gradcheck"):
            assert command in proc.stdout

    def test_no_command_is_usage_error(self):
        proc = run_coopseg()
        assert proc.returncode == 2
        assert proc.stderr.startswith("usage: coopseg")

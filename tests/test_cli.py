"""CLI behaviour: outputs, file artifacts, and exit codes
(0 ok, 1 config error, 2 data error, 3 failed run)."""

import json
import os
import shutil
import subprocess
import tracemalloc

import numpy as np
import pytest

from ckanbench.cli import main
from ckanbench.training import FitResult, RunReport


def run_cli(*argv):
    return main(list(argv))


class TestCount:
    def test_lenet_exact(self, capsys):
        assert run_cli("count", "--model", "lenet") == 0
        out = capsys.readouterr().out
        assert "params 61706" in out
        assert "macs 416520" in out

    def test_alexnet_exact(self, capsys):
        assert run_cli("count", "--model", "alexnet") == 0
        assert "params 61100840" in capsys.readouterr().out

    def test_counting_draws_no_weights(self, capsys):
        # 50 M parameters are counted from shapes alone: the whole command
        # allocates less than one of its weight tensors would take
        tracemalloc.start()
        try:
            assert run_cli("count", "--model", "alexnet-kan") == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        out = capsys.readouterr().out
        assert "params 50498968" in out
        assert "macs 585816800" in out
        assert peak < 16 * 2**20

    def test_kan_full_flags_change_counts(self, capsys):
        run_cli("count", "--model", "lenet-kan-full", "--basis", "rbf",
                "--grid", "4")
        small = capsys.readouterr().out
        run_cli("count", "--model", "lenet-kan-full", "--basis", "rbf",
                "--grid", "8")
        large = capsys.readouterr().out

        def params(txt):
            return int(txt.split("params ")[1].split()[0])

        assert params(large) > params(small)

    def test_unknown_flag_exits_1(self, capsys):
        assert run_cli("count", "--model", "lenet", "--bogus") == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("width", ["0", "-1", "nan"])
    def test_bad_width_exits_1(self, capsys, width):
        assert run_cli("count", "--model", "lenet", "--width-mult", width) == 1
        assert "width_mult" in capsys.readouterr().err

    def test_unknown_model_exits_1(self, capsys):
        assert run_cli("count", "--model", "resnet") == 1

    def test_missing_subcommand_exits_1(self):
        assert run_cli() == 1


class TestTrain:
    def test_train_and_save_checkpoint(self, tmp_path, synth_dir, capsys):
        out_dir = str(tmp_path / "run")
        code = run_cli("train", "--model", "lenet", "--data", synth_dir,
                       "--epochs", "1", "--batch", "64", "--subset", "256",
                       "--early-stop-tolerance", "0", "--out", out_dir)
        assert code == 0
        out = capsys.readouterr().out
        assert "best_epoch 0" in out
        assert "params 61706" in out
        for name in ("config.txt", "manifest.txt", "params.bin",
                     "report.json"):
            assert os.path.exists(os.path.join(out_dir, name))
        with open(os.path.join(out_dir, "report.json")) as fh:
            report = json.load(fh)
        assert report["status"] == "ok"
        assert len(report["epochs"]) == 1
        assert report["params"] == 61706

    def test_trained_checkpoint_profiles(self, tmp_path, synth_dir, capsys):
        out_dir = str(tmp_path / "run")
        run_cli("train", "--model", "lenet-kan-full", "--basis", "rbf",
                "--grid", "2", "--width-mult", "0.25", "--data", synth_dir,
                "--epochs", "1", "--batch", "64", "--subset", "128",
                "--early-stop-tolerance", "0", "--out", out_dir)
        capsys.readouterr()
        code = run_cli("profile", "--checkpoint", out_dir, "--batch", "2",
                       "--warmup", "1", "--iters", "3")
        assert code == 0
        out = capsys.readouterr().out
        assert "median_ms" in out and "p90_ms" in out

    def test_missing_data_dir_exits_2(self, tmp_path, capsys):
        code = run_cli("train", "--model", "lenet",
                       "--data", str(tmp_path / "nope"), "--epochs", "1")
        assert code == 2
        assert "data error" in capsys.readouterr().err

    def test_zero_batch_exits_1(self, synth_dir, capsys):
        code = run_cli("train", "--model", "lenet", "--data", synth_dir,
                       "--epochs", "1", "--batch", "0", "--subset", "64")
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "Traceback" not in err

    def test_diverged_training_exits_3(self, tmp_path, synth_dir, capsys,
                                       monkeypatch):
        import ckanbench.cli as cli_mod

        def fake_fit(model, *a, **k):
            return FitResult(RunReport(model=model.name, task="classify",
                                       epochs=[], status="failed"),
                             model.state_dict())

        monkeypatch.setattr(cli_mod, "fit", fake_fit)
        code = run_cli("train", "--model", "lenet", "--data", synth_dir,
                       "--epochs", "1", "--subset", "128")
        assert code == 3
        assert "failed" in capsys.readouterr().err

    def test_tabular_train_runs(self, tmp_path, capsys, rng):
        data_dir = tmp_path / "tab"
        data_dir.mkdir()
        n = 48
        ids = [f"r{i}" for i in range(n)]
        feats = rng.standard_normal((n, 3))
        labels = (rng.uniform(size=(n, 2)) > 0.6).astype(int)
        with open(data_dir / "features.csv", "w") as fh:
            fh.write("id,f1,f2,f3\n")
            for i in range(n):
                fh.write(f"{ids[i]},{feats[i,0]:.4f},{feats[i,1]:.4f},"
                         f"{feats[i,2]:.4f}\n")
        with open(data_dir / "targets.csv", "w") as fh:
            fh.write("id,l1,l2\n")
            for i in range(n):
                fh.write(f"{ids[i]},{labels[i,0]},{labels[i,1]}\n")
        code = run_cli("train", "--model", "tabular-kan", "--basis", "rbf",
                       "--grid", "1", "--data", str(data_dir),
                       "--epochs", "1", "--batch", "16",
                       "--early-stop-tolerance", "0",
                       "--val-fraction", "0.25")
        assert code == 0
        assert "best_epoch" in capsys.readouterr().out

    @pytest.mark.parametrize("fraction", ["0.9", "0.1"],
                             ids=["no-train-rows", "no-val-rows"])
    def test_empty_split_exits_1(self, tmp_path, capsys, fraction):
        # of 4 rows, a 0.9 split leaves none to train on and 0.1 none to
        # validate on
        (tmp_path / "features.csv").write_text(
            "id,f1\n" + "".join(f"r{i},{i}.5\n" for i in range(4)))
        (tmp_path / "targets.csv").write_text(
            "id,l1\n" + "".join(f"r{i},{i % 2}\n" for i in range(4)))
        code = run_cli("train", "--model", "tabular-cnn", "--data",
                       str(tmp_path), "--epochs", "1",
                       "--val-fraction", fraction)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "Traceback" not in err
        assert "set is empty" in err

    def test_subset_zero_exits_1(self, synth_dir, capsys):
        code = run_cli("train", "--model", "lenet", "--data", synth_dir,
                       "--epochs", "1", "--subset", "0")
        assert code == 1
        assert "subset size 0" in capsys.readouterr().err

    def test_tabular_width_flags_are_not_train_flags(self, synth_dir, capsys):
        # a tabular model trains at its data's widths
        code = run_cli("train", "--model", "lenet", "--data", synth_dir,
                       "--subset", "64", "--n-features", "3",
                       "--n-labels", "9")
        assert code == 1
        assert "--n-features" in capsys.readouterr().err


class TestProfile:
    def test_profile_model(self, capsys):
        code = run_cli("profile", "--model", "lenet", "--batch", "2",
                       "--warmup", "1", "--iters", "4")
        assert code == 0
        out = capsys.readouterr().out
        assert "batch 2 iters 4" in out
        med = float(out.split("median_ms ")[1].split()[0])
        p90 = float(out.split("p90_ms ")[1].split()[0])
        assert 0 < med <= p90

    def test_needs_model_or_checkpoint(self, capsys):
        assert run_cli("profile", "--iters", "2") == 1
        assert "checkpoint" in capsys.readouterr().err


class TestPrune:
    @pytest.fixture()
    def kan_checkpoint(self, tmp_path, synth_dir, capsys):
        out_dir = str(tmp_path / "ckpt")
        code = run_cli("train", "--model", "lenet-kan-full", "--basis", "rbf",
                       "--grid", "2", "--width-mult", "0.5", "--data",
                       synth_dir, "--epochs", "1", "--batch", "64",
                       "--subset", "192", "--early-stop-tolerance", "0",
                       "--out", out_dir)
        assert code == 0
        capsys.readouterr()
        return out_dir

    def test_prune_reduces_counts(self, kan_checkpoint, tmp_path, capsys):
        pruned_dir = str(tmp_path / "pruned")
        code = run_cli("prune", "--checkpoint", kan_checkpoint,
                       "--ratio", "0.25", "--finetune-epochs", "0",
                       "--out", pruned_dir)
        assert code == 0
        out = capsys.readouterr().out

        def grab(tag):
            return int(out.split(f"{tag} ")[1].split()[0])

        assert grab("params_after") < grab("params_before")
        assert grab("macs_after") < grab("macs_before")
        # pruned checkpoint reloads with its masks intact
        code = run_cli("profile", "--checkpoint", pruned_dir, "--batch", "2",
                       "--warmup", "0", "--iters", "2")
        assert code == 0

    def test_prune_with_finetune(self, kan_checkpoint, synth_dir, capsys):
        code = run_cli("prune", "--checkpoint", kan_checkpoint,
                       "--ratio", "0.25", "--finetune-epochs", "1",
                       "--data", synth_dir, "--subset", "128",
                       "--batch", "64")
        assert code == 0
        out = capsys.readouterr().out
        assert "val_acc" in out and "params_after" in out

    def test_prune_subset_limits_finetune_set(self, kan_checkpoint, synth_dir,
                                             capsys, monkeypatch):
        import ckanbench.cli as cli_mod

        sizes = []

        def fake_finetune(model, pmask, train, val, **k):
            sizes.append(len(train))
            return FitResult(RunReport(model=model.name, task="classify",
                                       epochs=[], status="failed"),
                             model.state_dict())

        monkeypatch.setattr(cli_mod, "finetune_pruned", fake_finetune)
        run_cli("prune", "--checkpoint", kan_checkpoint, "--ratio", "0.25",
                "--finetune-epochs", "1", "--data", synth_dir,
                "--subset", "96")
        assert sizes == [96]

    def test_finetune_without_data_exits_1(self, kan_checkpoint, capsys):
        code = run_cli("prune", "--checkpoint", kan_checkpoint,
                       "--ratio", "0.25", "--finetune-epochs", "1")
        assert code == 1
        assert "--data" in capsys.readouterr().err

    def test_not_a_checkpoint_dir_exits_2(self, tmp_path, capsys):
        code = run_cli("prune", "--checkpoint", str(tmp_path),
                       "--ratio", "0.1", "--finetune-epochs", "0")
        assert code == 2


    def test_finetune_evaluates_only_inside_fit(self, kan_checkpoint,
                                                synth_dir, capsys,
                                                monkeypatch):
        # fine-tuning reports the best state's validation numbers; prune
        # prints those instead of evaluating that state again
        import ckanbench.cli as cli_mod
        import ckanbench.training as training

        evals, reports = [], []
        real_outputs = training.batched_outputs
        real_finetune = cli_mod.finetune_pruned

        def counting_outputs(model, inputs, *a, **k):
            evals.append(len(inputs))
            return real_outputs(model, inputs, *a, **k)

        def recording_finetune(*a, **k):
            result = real_finetune(*a, **k)
            reports.append(result.report)
            return result

        monkeypatch.setattr(training, "batched_outputs", counting_outputs)
        monkeypatch.setattr(cli_mod, "finetune_pruned", recording_finetune)
        code = run_cli("prune", "--checkpoint", kan_checkpoint,
                       "--ratio", "0.25", "--finetune-epochs", "2",
                       "--data", synth_dir, "--subset", "128",
                       "--batch", "64")
        assert code == 0
        assert len(evals) == 2          # one validation pass per epoch
        (report,) = reports
        out = capsys.readouterr().out
        assert f"\nval_loss {report.best_val_loss:.6f}\n" in out
        assert f"\nval_acc {report.best_val_acc:.6f}\n" in out


class TestMalformedCheckpointConfig:
    @pytest.mark.parametrize("text,key", [
        ("arch=tabular_cnn\nseed=0\n", "n_features"),
        ("arch=lenet\nseed=x\n", "seed"),
        ("arch=lenet_kan_full\nfamily=rbf\ndomain=1\n", "domain"),
        ("arch=lenet\nrelu=yes\n", "relu"),
        ("arch=lenet\nwidth_mult=0\n", "width_mult"),
    ], ids=["no-n_features", "bad-seed", "bad-domain", "bad-relu", "bad-width"])
    @pytest.mark.parametrize("command", [
        ("profile", "--iters", "1", "--warmup", "0"),
        ("prune", "--ratio", "0.1", "--finetune-epochs", "0"),
    ], ids=["profile", "prune"])
    def test_is_a_data_error_naming_file_and_key(self, tmp_path, capsys,
                                                 text, key, command):
        cfg_path = tmp_path / "config.txt"
        cfg_path.write_text(text)
        code = run_cli(command[0], "--checkpoint", str(tmp_path), *command[1:])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {cfg_path}: ")
        assert key in err

    def test_negative_manifest_dimension_is_a_data_error(self, tmp_path,
                                                         capsys):
        from ckanbench.checkpoint import MANIFEST_NAME, save_checkpoint
        from ckanbench.models import build_lenet, model_config, save_model_config

        model = build_lenet()
        save_checkpoint(model, str(tmp_path))
        save_model_config(tmp_path / "config.txt", model_config(model))
        manifest = tmp_path / MANIFEST_NAME
        manifest.write_text(manifest.read_text().replace(" 6,", " -6,", 1))
        code = run_cli("profile", "--checkpoint", str(tmp_path),
                       "--iters", "1", "--warmup", "0")
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"data error: {manifest}:1: negative dimension")

    def test_object_manifest_dtype_is_a_data_error(self, tmp_path, capsys):
        from ckanbench.checkpoint import MANIFEST_NAME, save_checkpoint
        from ckanbench.models import build_lenet, model_config, save_model_config

        model = build_lenet()
        save_checkpoint(model, str(tmp_path))
        save_model_config(tmp_path / "config.txt", model_config(model))
        manifest = tmp_path / MANIFEST_NAME
        lines = manifest.read_text().splitlines(keepends=True)
        lines[0] = lines[0].rsplit(" ", 1)[0] + " object\n"
        manifest.write_text("".join(lines))
        code = run_cli("profile", "--checkpoint", str(tmp_path),
                       "--iters", "1", "--warmup", "0")
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"data error: {manifest}:1: object is not a numeric dtype")


class TestSweep:
    def _cfg_file(self, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_text(
            "grid_sizes=1\nwidth_mults=0.25\nrelu_options=on\n"
            "prune_ratios=0.0,0.4\nepochs=1\nbatch_size=64\n"
            "latency_warmup=0\nlatency_iters=2\nlatency_batch=2\n"
            "subset=160\n")
        return str(path)

    def test_sweep_end_to_end(self, tmp_path, synth_dir, capsys):
        out_dir = str(tmp_path / "out")
        code = run_cli("sweep", "--config", self._cfg_file(tmp_path),
                       "--data", synth_dir, "--out-dir", out_dir)
        assert code == 0
        out = capsys.readouterr().out
        assert "cells 2 failed 0" in out
        for name in ("runs.csv", "frontier.csv", "radar.csv",
                     "summary.json"):
            assert os.path.exists(os.path.join(out_dir, name))

    def test_failed_cell_exits_3(self, tmp_path, synth_dir, capsys,
                                 monkeypatch):
        import ckanbench.sweep as sweep_mod

        def fake_fit(model, *a, **k):
            return FitResult(RunReport(model=model.name, task="classify",
                                       epochs=[], status="failed"),
                             model.state_dict())

        monkeypatch.setattr(sweep_mod, "fit", fake_fit)
        code = run_cli("sweep", "--config", self._cfg_file(tmp_path),
                       "--data", synth_dir,
                       "--out-dir", str(tmp_path / "out"))
        assert code == 3
        assert "failed 2" in capsys.readouterr().out

    def test_missing_data_exits_2(self, tmp_path):
        code = run_cli("sweep", "--config", self._cfg_file(tmp_path),
                       "--data", str(tmp_path / "missing"),
                       "--out-dir", str(tmp_path / "out"))
        assert code == 2

    def test_subset_zero_exits_1(self, tmp_path, synth_dir, capsys):
        code = run_cli("sweep", "--config", self._cfg_file(tmp_path),
                       "--data", synth_dir, "--out-dir", str(tmp_path / "out"),
                       "--subset", "0")
        assert code == 1
        assert "subset must be >= 1" in capsys.readouterr().err

    def test_bad_config_exits_1(self, tmp_path, synth_dir, capsys):
        path = tmp_path / "sweep.cfg"
        path.write_text("nonsense=1\n")
        code = run_cli("sweep", "--config", str(path), "--data", synth_dir,
                       "--out-dir", str(tmp_path / "out"))
        assert code == 1


class TestEntryPoint:
    def test_console_script_installed(self):
        exe = shutil.which("ckanbench")
        if exe is None:
            pytest.skip("console script not on PATH (package not installed)")
        proc = subprocess.run([exe, "count", "--model", "lenet"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "params 61706" in proc.stdout

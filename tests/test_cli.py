"""CLI behaviour: outputs, file artifacts, and exit codes
(0 ok, 1 config error, 2 data error, 3 failed run)."""

import hashlib
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


def write_tabular(data_dir, n_rows, n_features, n_labels, rng):
    """features.csv / targets.csv of random values under ``data_dir``."""
    data_dir.mkdir(exist_ok=True)
    feats = rng.standard_normal((n_rows, n_features))
    labels = rng.integers(0, 2, (n_rows, n_labels))
    with open(data_dir / "features.csv", "w") as fh:
        fh.write(",".join(["id"] + [f"f{j}" for j in range(n_features)]) + "\n")
        for i, row in enumerate(feats):
            fh.write(",".join([f"r{i}"] + [f"{v:.4f}" for v in row]) + "\n")
    with open(data_dir / "targets.csv", "w") as fh:
        fh.write(",".join(["id"] + [f"l{j}" for j in range(n_labels)]) + "\n")
        for i, row in enumerate(labels):
            fh.write(",".join([f"r{i}"] + [str(v) for v in row]) + "\n")
    return str(data_dir)


def save_untrained(out_dir, model):
    """``model``'s drawn state as a checkpoint directory under ``out_dir``."""
    from ckanbench.checkpoint import save_checkpoint

    save_checkpoint(model, str(out_dir))
    return str(out_dir)


@pytest.mark.parametrize("argv", [
    ("count", "--model", "lenet"),
    ("profile", "--model", "lenet"),
    ("train", "--model", "lenet", "--data", "d"),
    ("prune", "--checkpoint", "c", "--ratio", "0.1", "--data", "d"),
    ("sweep", "--data", "d", "--out-dir", "o"),
], ids=lambda argv: argv[0])
def test_negative_seed_exits_1(argv, capsys):
    assert run_cli(*argv, "--seed", "-1") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: argument --seed") and "Traceback" not in err


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

    @pytest.mark.parametrize("model,params,macs", [
        ("lenet", 61706, 416520), ("lenet-kan", 45057, 630400),
        ("lenet-kan-full", 87206, 3634920), ("alexnet", 61100840, 714188480),
        ("alexnet-kan", 50498968, 585816800),
        ("tabular-cnn", 6263758, 27229696), ("tabular-kan", 2712974, 15654784),
    ])
    def test_default_flags_print(self, capsys, model, params, macs):
        assert run_cli("count", "--model", model) == 0
        assert capsys.readouterr().out == f"params {params}\nmacs {macs}\n"

    def test_missing_subcommand_exits_1(self):
        assert run_cli() == 1


class TestUnreadModelFlags:
    """A model flag that the model never reads is a usage error naming it."""

    @pytest.mark.parametrize("argv,flag", [
        (("count", "--model", "alexnet", "--width-mult", "3"), "--width-mult"),
        (("count", "--model", "alexnet", "--relu", "off"), "--relu"),
        (("count", "--model", "lenet", "--basis", "rbf"), "--basis"),
        (("count", "--model", "lenet", "--grid", "9"), "--grid"),
        (("count", "--model", "lenet", "--n-features", "7"), "--n-features"),
        (("count", "--model", "lenet-kan", "--basis", "rbf", "--degree", "2"),
         "--degree"),
        (("count", "--model", "tabular-cnn", "--relu", "off"), "--relu"),
        (("profile", "--model", "alexnet", "--width-mult", "3", "--batch", "1",
          "--warmup", "0", "--iters", "1"), "--width-mult"),
    ], ids=["alexnet-width", "alexnet-relu", "lenet-basis", "lenet-grid",
            "lenet-n_features", "lenet_kan-rbf-degree", "tabular_cnn-relu",
            "profile-alexnet-width"])
    def test_count_and_profile(self, capsys, argv, flag):
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: argument {flag}: ")

    @pytest.mark.parametrize("flag", [
        ("--basis", "rbf"), ("--grid", "9"), ("--degree", "2"),
        ("--width-mult", "3"), ("--relu", "off"), ("--n-features", "7"),
        ("--n-labels", "3"),
    ], ids=lambda f: f[0])
    def test_profile_checkpoint(self, tmp_path, capsys, flag):
        from ckanbench.models import build_lenet
        ckpt = save_untrained(tmp_path, build_lenet())
        assert run_cli("profile", "--checkpoint", ckpt, "--iters", "1",
                       "--warmup", "0", *flag) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: argument {flag[0]}: ")

    def test_profile_checkpoint_reads_seed(self, tmp_path, capsys):
        from ckanbench.models import build_lenet
        ckpt = save_untrained(tmp_path, build_lenet())
        assert run_cli("profile", "--checkpoint", ckpt, "--iters", "1",
                       "--warmup", "0", "--seed", "3") == 0

    @pytest.mark.parametrize("argv,flag", [
        (("lenet", "--basis", "rbf"), "--basis"),
        (("lenet", "--grid", "9"), "--grid"),
        (("lenet-kan-full", "--basis", "rbf", "--degree", "2"), "--degree"),
    ], ids=["lenet-basis", "lenet-grid", "lenet_kan_full-rbf-degree"])
    def test_train(self, synth_dir, capsys, argv, flag):
        assert run_cli("train", "--model", *argv, "--data", synth_dir,
                       "--epochs", "1", "--subset", "64") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: argument {flag}: ")


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

    def test_negative_early_stop_tolerance_exits_1(self, synth_dir, capsys):
        code = run_cli("train", "--model", "lenet", "--data", synth_dir,
                       "--epochs", "1", "--subset", "64",
                       "--early-stop-tolerance", "-1")
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "error: early-stop tolerance must be >= 0")

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

    def test_model_and_checkpoint_exclude_each_other(self, tmp_path, capsys):
        assert run_cli("profile", "--model", "lenet", "--checkpoint",
                       str(tmp_path), "--iters", "2") == 1
        assert "not allowed with argument --model" in capsys.readouterr().err


class TestDataOfTheWrongShape:
    """Data the model cannot take is a data error (exit 2)."""

    def test_train_lenet_on_32px_images(self, tmp_path, capsys):
        from ckanbench.data import MNIST_FILES, write_idx
        for split, n in (("train", 8), ("test", 4)):
            images, labels = MNIST_FILES[split]
            write_idx(str(tmp_path / images), np.zeros((n, 32, 32), np.uint8))
            write_idx(str(tmp_path / labels), np.arange(n, dtype=np.uint8))
        code = run_cli("train", "--model", "lenet", "--data", str(tmp_path),
                       "--epochs", "1")
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("data error: ") and "Traceback" not in err
        assert "(1, 32, 32)" in err and "(1, 28, 28)" in err

    @pytest.mark.parametrize("n_features,n_labels,want", [
        (2, 2, "(2,)"), (3, 3, "targets"),
    ], ids=["features", "labels"])
    def test_prune_tabular_checkpoint(self, tmp_path, capsys, rng,
                                      n_features, n_labels, want):
        ckpt = str(tmp_path / "ckpt")
        assert run_cli("train", "--model", "tabular-kan", "--basis", "rbf",
                       "--grid", "1", "--data",
                       write_tabular(tmp_path / "fit", 48, 3, 2, rng),
                       "--epochs", "1", "--batch", "16", "--out", ckpt) == 0
        capsys.readouterr()
        code = run_cli("prune", "--checkpoint", ckpt, "--ratio", "0.25",
                       "--data", write_tabular(tmp_path / "other", 40,
                                               n_features, n_labels, rng),
                       "--batch", "16")
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("data error: ") and "Traceback" not in err
        assert want in err


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
        assert [line.split()[0] for line in out.splitlines()] == [
            "params_before", "macs_before", "params_after", "macs_after",
            "saved"]

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

        def fake_fit(model, train, val, **k):
            sizes.append(len(train))
            return FitResult(RunReport(model=model.name, task="classify",
                                       epochs=[], status="failed"),
                             model.state_dict())

        monkeypatch.setattr(cli_mod, "fit", fake_fit)
        run_cli("prune", "--checkpoint", kan_checkpoint, "--ratio", "0.25",
                "--finetune-epochs", "1", "--data", synth_dir,
                "--subset", "96")
        assert sizes == [96]

    def test_finetune_without_data_exits_1(self, kan_checkpoint, capsys):
        code = run_cli("prune", "--checkpoint", kan_checkpoint,
                       "--ratio", "0.25", "--finetune-epochs", "1")
        assert code == 1
        assert "--data" in capsys.readouterr().err

    def test_negative_finetune_epochs_exits_1(self, kan_checkpoint, synth_dir,
                                              tmp_path, capsys):
        out_dir = tmp_path / "pruned"
        code = run_cli("prune", "--checkpoint", kan_checkpoint,
                       "--ratio", "0.25", "--finetune-epochs", "-1",
                       "--data", synth_dir, "--out", str(out_dir))
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "error: --finetune-epochs must be >= 0")
        assert not out_dir.exists()

    def test_checkpoint_without_spline_convs_exits_1(self, tmp_path, capsys):
        from ckanbench.models import build_lenet
        ckpt = save_untrained(tmp_path / "ckpt", build_lenet())
        out_dir = tmp_path / "pruned"
        code = run_cli("prune", "--checkpoint", ckpt, "--ratio", "0.25",
                       "--finetune-epochs", "0", "--out", str(out_dir))
        assert code == 1
        out, err = capsys.readouterr()
        assert err.startswith("error: lenet has no spline-kernel conv layer")
        assert out == ""
        assert not out_dir.exists()

    def test_finetuned_checkpoint_bytes(self, kan_checkpoint, synth_dir,
                                        tmp_path, capsys):
        # pinned: a refactor of pruning or fine-tuning must not move them
        out_dir = tmp_path / "pruned"
        assert run_cli("prune", "--checkpoint", kan_checkpoint,
                       "--ratio", "0.25", "--finetune-epochs", "2",
                       "--data", synth_dir, "--subset", "128",
                       "--batch", "64", "--out", str(out_dir)) == 0
        out = capsys.readouterr().out
        assert "\nval_loss 2.301997\nval_acc 0.122500\n" in out
        assert "\nparams_after 37642\nmacs_after 371720\n" in out
        digest = hashlib.sha256((out_dir / "params.bin").read_bytes())
        assert digest.hexdigest() == ("4d3a72b5a21b7d4d5d5061c65fc5d02a"
                                      "547fcbd2e0158e34abeddca120b38843")

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
        real_fit = cli_mod.fit

        def counting_outputs(model, inputs, *a, **k):
            evals.append(len(inputs))
            return real_outputs(model, inputs, *a, **k)

        def recording_fit(*a, **k):
            result = real_fit(*a, **k)
            reports.append(result.report)
            return result

        monkeypatch.setattr(training, "batched_outputs", counting_outputs)
        monkeypatch.setattr(cli_mod, "fit", recording_fit)
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
        ("arch=lenet\nseed=-1\n", "seed"),
        ("arch=lenet_kan_full\nfamily=rbf\ndomain=1\n", "domain"),
        ("arch=lenet\nrelu=yes\n", "relu"),
        ("arch=lenet\nwidth_mult=0\n", "width_mult"),
    ], ids=["no-n_features", "bad-seed", "negative-seed", "bad-domain",
            "bad-relu", "bad-width"])
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
        from ckanbench.models import build_lenet

        save_checkpoint(build_lenet(), str(tmp_path))
        manifest = tmp_path / MANIFEST_NAME
        manifest.write_text(manifest.read_text().replace(" 6,", " -6,", 1))
        code = run_cli("profile", "--checkpoint", str(tmp_path),
                       "--iters", "1", "--warmup", "0")
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"data error: {manifest}:1: negative dimension")

    def test_object_manifest_dtype_is_a_data_error(self, tmp_path, capsys):
        from ckanbench.checkpoint import MANIFEST_NAME, save_checkpoint
        from ckanbench.models import build_lenet

        save_checkpoint(build_lenet(), str(tmp_path))
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

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exits_1(self, tmp_path, synth_dir, capsys,
                                       workers):
        out_dir = tmp_path / "out"
        code = run_cli("sweep", "--config", self._cfg_file(tmp_path),
                       "--data", synth_dir, "--out-dir", str(out_dir),
                       "--workers", workers)
        assert code == 1
        assert capsys.readouterr().err.startswith(
            f"error: workers must be >= 1, got {workers}")
        assert not out_dir.exists()

    @pytest.mark.parametrize("flag,message", [
        (("--workers", "0"), "error: workers must be >= 1, got 0"),
        (("--subset", "0"), "error: subset must be >= 1, got 0"),
    ], ids=["workers", "subset"])
    def test_usage_error_before_the_data_is_read(self, tmp_path, capsys,
                                                 flag, message):
        code = run_cli("sweep", "--config", self._cfg_file(tmp_path),
                       "--data", str(tmp_path / "missing"),
                       "--out-dir", str(tmp_path / "out"), *flag)
        assert code == 1
        assert capsys.readouterr().err.startswith(message)

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

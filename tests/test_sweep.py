"""Sweep grid enumeration, config parsing, report emission, and a
compressed end-to-end sweep on the procedural digit corpus."""

import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from ckanbench.data import load_mnist_dir, subset_dataset
from ckanbench.errors import ConfigError
from ckanbench.models import build_lenet_kan_full
from ckanbench.sweep import (CellResult, SweepCell, SweepConfig,
                             default_sweep_config, enumerate_grid,
                             load_runs_csv, normalize_radar,
                             parse_sweep_config, run_cell, run_sweep,
                             train_base, validate_sweep_config,
                             RUNS_COLUMNS)
from ckanbench.training import FitResult, RunReport


class TestGridEnumeration:
    def test_default_grid_is_24_cells(self):
        cells = enumerate_grid(default_sweep_config())
        assert len(cells) == 24
        assert [c.index for c in cells] == list(range(24))

    def test_lexicographic_order(self):
        cells = enumerate_grid(default_sweep_config())
        # p varies fastest, then relu, then w, then g
        assert (cells[0].g, cells[0].w, cells[0].relu, cells[0].p) == \
               (4, 1.0, True, 0.0)
        assert cells[1].p == 0.25 and cells[1].relu is True
        assert cells[2].relu is False and cells[2].p == 0.0
        assert cells[4].w == 1.5
        assert cells[8].g == 8
        assert (cells[23].g, cells[23].w, cells[23].relu, cells[23].p) == \
               (16, 1.5, False, 0.25)

    def test_every_combination_present_once(self):
        cfg = default_sweep_config()
        cells = enumerate_grid(cfg)
        combos = {(c.g, c.w, c.relu, c.p) for c in cells}
        assert len(combos) == 24
        for g in cfg.grid_sizes:
            for w in cfg.width_mults:
                for relu in cfg.relu_options:
                    for p in cfg.prune_ratios:
                        assert (g, w, relu, p) in combos

    def test_custom_levels(self):
        cfg = SweepConfig(grid_sizes=[3], width_mults=[1.0, 2.0, 3.0],
                          relu_options=[True], prune_ratios=[0.0])
        assert len(enumerate_grid(cfg)) == 3


class TestConfigParsing:
    def test_parse_overrides(self, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_text(
            "# comment\n"
            "grid_sizes = 2,5\n"
            "width_mults=0.5,1.0\n"
            "relu_options=on\n"
            "prune_ratios=0.0,0.5\n"
            "family=bspline\n"
            "degree=2\n"
            "epochs=3\n"
            "subset=128\n")
        cfg = parse_sweep_config(str(path))
        assert cfg.grid_sizes == [2, 5]
        assert cfg.width_mults == [0.5, 1.0]
        assert cfg.relu_options == [True]
        assert cfg.prune_ratios == [0.0, 0.5]
        assert cfg.family == "bspline" and cfg.degree == 2
        assert cfg.epochs == 3 and cfg.subset == 128
        spec = cfg.spline_spec(5)
        assert spec.family.value == "bspline" and spec.degree == 2

    def test_unknown_key_cites_line(self, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_text("grid_sizes=4\nbogus=1\n")
        with pytest.raises(ConfigError, match=r"sweep\.cfg:2.*bogus"):
            parse_sweep_config(str(path))

    def test_relu_tokens_are_case_insensitive(self, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_text("relu_options=On,off\n")
        assert parse_sweep_config(str(path)).relu_options == [True, False]

    def test_bad_relu_token(self, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_text("relu_options=on,maybe\n")
        with pytest.raises(ConfigError, match="on/off"):
            parse_sweep_config(str(path))

    def test_missing_equals(self, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_text("grid_sizes 4\n")
        with pytest.raises(ConfigError, match="key=value"):
            parse_sweep_config(str(path))

    def test_validation_rules(self):
        bad = [
            SweepConfig(grid_sizes=[0]),
            SweepConfig(width_mults=[-1.0]),
            SweepConfig(prune_ratios=[1.0]),
            SweepConfig(family="poly"),
            SweepConfig(epochs=0),
            SweepConfig(grid_sizes=[]),
            SweepConfig(batch_size=0),
            SweepConfig(early_stop_tolerance=-1),
            SweepConfig(subset=0),
            SweepConfig(seed=-1),
        ]
        for cfg in bad:
            with pytest.raises(ConfigError):
                validate_sweep_config(cfg)


class TestNormalizeRadar:
    def test_minmax_and_inversion(self):
        vals = np.array([10.0, 20.0, 30.0])
        np.testing.assert_allclose(normalize_radar(vals, invert=False),
                                   [0.0, 0.5, 1.0])
        np.testing.assert_allclose(normalize_radar(vals, invert=True),
                                   [1.0, 0.5, 0.0])

    def test_degenerate_axis_is_half(self):
        np.testing.assert_array_equal(normalize_radar(np.array([7.0, 7.0]),
                                                      invert=True),
                                      [0.5, 0.5])


def _fake_results():
    cells = enumerate_grid(SweepConfig(grid_sizes=[2, 3],
                                       width_mults=[1.0],
                                       relu_options=[True],
                                       prune_ratios=[0.0, 0.25]))
    results = []
    for c in cells:
        if c.index == 2:
            results.append(CellResult(cell=c, status="failed", wall_s=1.0))
            continue
        results.append(CellResult(
            cell=c, status="ok",
            val_loss=1.0 - 0.1 * c.index, val_acc=0.5 + 0.1 * c.index,
            params=1000 + 100 * c.index, macs=5000 - 1000 * c.index,
            latency_ms=3.0 + c.index, wall_s=2.0 + c.index))
    return results


class TestEmitReports:
    def test_csv_text(self, tmp_path):
        # every byte of each table: number formats, row order, and the
        # csv module's \r\n line ends
        from ckanbench.sweep import emit_reports
        emit_reports(_fake_results(), str(tmp_path))
        expected = {
            "runs.csv": [
                "g,w,relu,p,val_loss,val_acc,params,macs,latency_ms,wall_s,"
                "status",
                "2,1.0,on,0.0,1.000000,0.500000,1000,5000,3.000,2.00,ok",
                "2,1.0,on,0.25,0.900000,0.600000,1100,4000,4.000,3.00,ok",
                "3,1.0,on,0.0,,,,,,1.00,failed",
                "3,1.0,on,0.25,0.700000,0.800000,1300,2000,6.000,5.00,ok",
            ],
            "frontier.csv": [
                "macs,val_acc",
                "2000,0.800000",
                "4000,0.600000",
                "5000,0.500000",
            ],
            "radar.csv": [
                "g,w,relu,p,params_score,macs_score,latency_score,acc_score",
                "2,1.0,on,0.0,1.0000,0.0000,1.0000,0.0000",
                "2,1.0,on,0.25,0.6667,0.3333,0.6667,0.3333",
                "3,1.0,on,0.25,0.0000,1.0000,0.0000,1.0000",
            ],
        }
        for name, lines in expected.items():
            assert (tmp_path / name).read_bytes() == \
                "".join(line + "\r\n" for line in lines).encode()

    def test_runs_csv_layout(self, tmp_path):
        from ckanbench.sweep import emit_reports
        emit_reports(_fake_results(), str(tmp_path))
        rows = load_runs_csv(str(tmp_path / "runs.csv"))
        assert list(rows[0].keys()) == RUNS_COLUMNS
        assert len(rows) == 4
        assert rows[0]["relu"] == "on" and rows[0]["p"] == "0.0"
        # failed row keeps its cell columns but blanks the measurements
        failed = rows[2]
        assert failed["status"] == "failed"
        assert failed["val_loss"] == "" and failed["params"] == ""
        assert failed["latency_ms"] == ""
        ok = rows[1]
        assert ok["params"] == "1100" and ok["status"] == "ok"

    def test_frontier_sorted_by_macs(self, tmp_path):
        from ckanbench.sweep import emit_reports
        emit_reports(_fake_results(), str(tmp_path))
        lines = (tmp_path / "frontier.csv").read_text().splitlines()
        assert lines[0] == "macs,val_acc"
        macs = [int(ln.split(",")[0]) for ln in lines[1:]]
        assert macs == sorted(macs)
        assert len(macs) == 3   # failed cell excluded

    def test_radar_scores(self, tmp_path):
        from ckanbench.sweep import emit_reports
        emit_reports(_fake_results(), str(tmp_path))
        rows = load_runs_csv(str(tmp_path / "radar.csv"))
        assert len(rows) == 3
        for row in rows:
            for col in ("params_score", "macs_score", "latency_score",
                        "acc_score"):
                assert 0.0 <= float(row[col]) <= 1.0
        # lowest-param cell scores 1.0 on the inverted param axis
        assert float(rows[0]["params_score"]) == 1.0
        assert float(rows[-1]["acc_score"]) == 1.0

    def test_summary_json(self, tmp_path):
        from ckanbench.sweep import emit_reports
        emit_reports(_fake_results(), str(tmp_path))
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["n_cells"] == 4
        assert summary["n_ok"] == 3 and summary["n_failed"] == 1
        assert summary["best"]["val_acc"] == max(
            r.val_acc for r in _fake_results() if r.status == "ok")
        base = summary["baseline"]
        assert base["g"] == 2 and base["p"] == 0.0
        ratios = summary["ratios"]
        assert ratios["params_best_over_baseline"] == pytest.approx(1.3)
        assert ratios["acc_delta_best_minus_baseline"] == pytest.approx(0.3)

    def test_all_failed_still_writes_reports(self, tmp_path):
        from ckanbench.sweep import emit_reports
        cells = enumerate_grid(SweepConfig(grid_sizes=[2], width_mults=[1.0],
                                           relu_options=[True],
                                           prune_ratios=[0.0]))
        emit_reports([CellResult(cell=cells[0], status="failed")],
                     str(tmp_path))
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["n_ok"] == 0 and "best" not in summary
        assert (tmp_path / "frontier.csv").read_text().splitlines() == \
               ["macs,val_acc"]


def _tiny_sweep_cfg(**over):
    base = dict(grid_sizes=[1, 2], width_mults=[0.25], relu_options=[True],
                prune_ratios=[0.0, 0.4], epochs=2, batch_size=64,
                finetune_epochs=1, latency_warmup=1, latency_iters=5,
                latency_batch=4, subset=300, lr=3e-3)
    base.update(over)
    return SweepConfig(**base)


@pytest.fixture(scope="module")
def digit_train_val(synth_dir):
    train = load_mnist_dir(synth_dir, "train")
    val = subset_dataset(load_mnist_dir(synth_dir, "test"), 120, seed=0)
    return train, val


class TestRunCell:
    def test_single_cell_metrics(self, digit_train_val):
        train, val = digit_train_val
        cfg = _tiny_sweep_cfg()
        cell = enumerate_grid(cfg)[0]
        sub = subset_dataset(train, 300, seed=0)
        res, state = run_cell(cell, cfg, sub, val,
                              train_base(cell, cfg, sub, val))
        assert res.status == "ok"
        assert res.params is not None and res.macs is not None
        assert res.wall_s > 0
        assert 0.0 <= res.val_acc <= 1.0
        # latency is measured by run_sweep's pass, from the returned state
        assert res.latency_ms is None
        assert state["kconv1.channel_mask"].all()

    def test_pruned_cell_smaller_than_unpruned(self, digit_train_val):
        train, val = digit_train_val
        cfg = _tiny_sweep_cfg()
        sub = subset_dataset(train, 300, seed=0)
        cells = enumerate_grid(cfg)
        base = train_base(cells[0], cfg, sub, val)
        plain, _ = run_cell(cells[0], cfg, sub, val, base)
        pruned, state = run_cell(cells[1], cfg, sub, val, base)
        assert plain.cell.p == 0.0 and pruned.cell.p == 0.4
        assert pruned.params < plain.params
        assert pruned.macs < plain.macs
        assert not state["kconv1.channel_mask"].all()


def _record_calls(monkeypatch, calls, *names):
    """Wrap each named ``ckanbench.sweep`` function to log its calls."""
    import ckanbench.sweep as sweep_mod
    for name in names:
        orig = getattr(sweep_mod, name)

        def wrapped(*args, _name=name, _orig=orig, **kwargs):
            calls.append(_name)
            return _orig(*args, **kwargs)

        monkeypatch.setattr(sweep_mod, name, wrapped)


class TestRunSweep:
    def test_end_to_end_reports(self, tmp_path, digit_train_val):
        train, val = digit_train_val
        cfg = _tiny_sweep_cfg()
        out = str(tmp_path / "sweep")
        results = run_sweep(cfg, train, val, out, workers=1)
        assert len(results) == 4
        assert [r.cell.index for r in results] == [0, 1, 2, 3]
        assert all(r.status == "ok" for r in results)
        assert all(r.latency_ms > 0 for r in results)

        rows = load_runs_csv(os.path.join(out, "runs.csv"))
        assert len(rows) == 4
        assert all(float(r["latency_ms"]) > 0 for r in rows)
        # MACs strictly increase with the grid size at fixed (w, relu, p)
        macs_g1 = int(rows[0]["macs"])
        macs_g2 = int(rows[2]["macs"])
        assert macs_g2 > macs_g1
        # pruned twin is strictly smaller in both params and MACs
        assert int(rows[1]["params"]) < int(rows[0]["params"])
        assert int(rows[1]["macs"]) < int(rows[0]["macs"])
        for name in ("frontier.csv", "radar.csv", "summary.json"):
            assert os.path.exists(os.path.join(out, name))
        summary = json.loads(Path(out, "summary.json").read_text())
        assert summary["n_cells"] == 4 and summary["n_failed"] == 0

    def test_shared_base_equals_per_cell_training(self, tmp_path, monkeypatch,
                                                  digit_train_val):
        train, val = digit_train_val
        cfg = _tiny_sweep_cfg()
        calls = []
        _record_calls(monkeypatch, calls, "train_base")
        swept = run_sweep(cfg, train, val, str(tmp_path / "sweep"), workers=1)
        # 2 bases x 2 prune levels: one training per base, not per cell
        assert calls == ["train_base", "train_base"]
        sub = subset_dataset(train, cfg.subset, cfg.seed)
        for res in swept:
            alone, _ = run_cell(res.cell, cfg, sub, val,
                                train_base(res.cell, cfg, sub, val))
            for col in ("status", "val_loss", "val_acc", "params", "macs"):
                assert getattr(res, col) == getattr(alone, col), col

    def test_branches_are_not_evaluated_again(self, tmp_path, monkeypatch,
                                              digit_train_val):
        import ckanbench.sweep as sweep_mod
        import ckanbench.training as training_mod

        train, val = digit_train_val
        cfg = _tiny_sweep_cfg()
        calls = []

        def spy(name, real):
            def call(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return call

        # raising=False: the sweep module no longer imports evaluate_model
        monkeypatch.setattr(sweep_mod, "evaluate_model",
                            spy("sweep", training_mod.evaluate_model),
                            raising=False)
        monkeypatch.setattr(training_mod, "evaluate_model",
                            spy("fit", training_mod.evaluate_model))
        results = run_sweep(cfg, train, val, str(tmp_path / "sweep"))
        assert all(r.status == "ok" for r in results)
        # only fit's own per-epoch evaluations: 2 bases, 2 pruned branches
        assert calls == ["fit"] * (2 * cfg.epochs + 2 * cfg.finetune_epochs)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_latency_measured_after_training_in_parent(
            self, tmp_path, monkeypatch, digit_train_val, workers):
        train, val = digit_train_val
        cfg = _tiny_sweep_cfg()
        calls = []
        # forked workers log into their own copy of ``calls``
        _record_calls(monkeypatch, calls, "fit", "latency_profile")
        results = run_sweep(cfg, train, val, str(tmp_path / "sweep"),
                            workers=workers)
        n_ok = sum(r.status == "ok" for r in results)
        assert n_ok == 4
        assert calls.count("latency_profile") == n_ok
        if workers == 1:
            # 2 base trainings and 2 fine-tunes, then every latency
            assert calls == ["fit"] * 4 + ["latency_profile"] * n_ok
        else:
            assert "fit" not in calls

    @pytest.mark.slow
    def test_fork_pool_matches_serial_counts(self, tmp_path, digit_train_val):
        train, val = digit_train_val
        cfg = _tiny_sweep_cfg(grid_sizes=[1], prune_ratios=[0.0, 0.4],
                              subset=200, epochs=1)
        serial = run_sweep(cfg, train, val, str(tmp_path / "s"), workers=1)
        forked = run_sweep(cfg, train, val, str(tmp_path / "f"), workers=2)
        assert [r.cell.index for r in forked] == [r.cell.index for r in serial]
        for a, b in zip(serial, forked):
            assert a.status == b.status == "ok"
            # training is deterministic, so counts and losses agree exactly
            assert a.params == b.params and a.macs == b.macs
            assert a.val_loss == b.val_loss
        timed = ("wall_s", "latency_ms")
        rows_s = load_runs_csv(str(tmp_path / "s" / "runs.csv"))
        rows_f = load_runs_csv(str(tmp_path / "f" / "runs.csv"))
        assert [{k: v for k, v in r.items() if k not in timed}
                for r in rows_s] == \
               [{k: v for k, v in r.items() if k not in timed}
                for r in rows_f]


class TestPinnedOutputs:
    """Sweep columns pinned byte for byte, so a refactor of pruning,
    fine-tuning or early stopping cannot move them."""

    def test_two_bases_three_ratios_with_early_stop(self, tmp_path,
                                                    monkeypatch,
                                                    digit_train_val):
        import ckanbench.sweep as sweep_mod

        train, val = digit_train_val
        cfg = _tiny_sweep_cfg(prune_ratios=[0.0, 0.25, 0.5], epochs=6,
                              lr=4e-3, early_stop_tolerance=1)
        base_epochs = []
        real_train_base = sweep_mod.train_base

        def counting_train_base(*args, **kwargs):
            base = real_train_base(*args, **kwargs)
            base_epochs.append(len(base.report.epochs))
            return base

        monkeypatch.setattr(sweep_mod, "train_base", counting_train_base)
        run_sweep(cfg, train, val, str(tmp_path))
        assert base_epochs == [6, 2]    # the second base stops early
        rows = load_runs_csv(str(tmp_path / "runs.csv"))
        cols = ("status", "val_loss", "val_acc", "params", "macs")
        assert [[r[c] for c in cols] for r in rows] == [
            ["ok", "1.880055", "0.325000", "24140", "200520"],
            ["ok", "2.242940", "0.150000", "23838", "126720"],
            ["ok", "2.242940", "0.150000", "23637", "111720"],
            ["ok", "2.302404", "0.100000", "24390", "259720"],
            ["ok", "2.302723", "0.100000", "24013", "161320"],
            ["ok", "2.302723", "0.100000", "23762", "141320"],
        ]


def _fake_base(cell, cfg, train, val, verbose=False):
    """A ``train_base`` stand-in that never reads the data: the untrained
    model's state, so the latency pass can still load it."""
    model = build_lenet_kan_full(cfg.spline_spec(cell.g), cell.w, cell.relu,
                                 seed=cfg.seed)
    return FitResult(RunReport(model=model.name, task="classify", epochs=[]),
                     model.state_dict())


def _fake_cell(cell, cfg, train, val, base=None, verbose=False):
    return (CellResult(cell=cell, val_loss=0.5, val_acc=0.9, params=10,
                       macs=100, wall_s=0.1),
            base.best_state)


class TestCellFailureIsolation:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_raising_cell_keeps_other_reports(self, tmp_path, monkeypatch,
                                              workers):
        import ckanbench.sweep as sweep_mod

        def fake_run_cell(cell, cfg, train, val, base=None, verbose=False):
            if cell.index == 0:
                raise RuntimeError("cell exploded")
            return _fake_cell(cell, cfg, train, val, base, verbose)

        # the fork pool's workers inherit the patched module attributes
        monkeypatch.setattr(sweep_mod, "run_cell", fake_run_cell)
        monkeypatch.setattr(sweep_mod, "train_base", _fake_base)
        cfg = _tiny_sweep_cfg(grid_sizes=[1], prune_ratios=[0.0, 0.4],
                              subset=None)
        out = str(tmp_path / "sweep")
        # the fakes never read the data
        results = run_sweep(cfg, None, None, out, workers=workers)
        assert [r.status for r in results] == ["failed", "ok"]
        for name in ("runs.csv", "frontier.csv", "radar.csv", "summary.json"):
            assert os.path.exists(os.path.join(out, name))
        rows = load_runs_csv(os.path.join(out, "runs.csv"))
        assert list(rows[0]) == RUNS_COLUMNS
        assert [r["status"] for r in rows] == ["failed", "ok"]
        summary = json.loads(Path(out, "summary.json").read_text())
        assert summary["n_ok"] == 1 and summary["n_failed"] == 1
        assert summary["failures"] == [
            {"index": 0, "reason": "RuntimeError: cell exploded"}]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_raising_base_fails_only_its_cells(self, tmp_path, monkeypatch,
                                               workers):
        import ckanbench.sweep as sweep_mod

        def fake_train_base(cell, cfg, train, val, verbose=False):
            if cell.g == 1:
                raise RuntimeError("base exploded")
            return _fake_base(cell, cfg, train, val, verbose)

        monkeypatch.setattr(sweep_mod, "run_cell", _fake_cell)
        monkeypatch.setattr(sweep_mod, "train_base", fake_train_base)
        cfg = _tiny_sweep_cfg(grid_sizes=[1, 2], subset=None)
        out = str(tmp_path / "sweep")
        results = run_sweep(cfg, None, None, out, workers=workers)
        assert [r.status for r in results] == ["failed", "failed", "ok", "ok"]
        assert all(r.latency_ms > 0 for r in results[2:])
        summary = json.loads(Path(out, "summary.json").read_text())
        assert summary["failures"] == [
            {"index": i, "reason": "RuntimeError: base exploded"}
            for i in (0, 1)]

    def test_raising_profile_fails_only_its_cell(self, tmp_path, monkeypatch):
        import ckanbench.sweep as sweep_mod
        real_profile = sweep_mod.latency_profile
        profiled = []

        def fake_profile(model, *args):
            profiled.append(model)
            if len(profiled) == 1:
                raise MemoryError("no room")
            return real_profile(model, *args)

        monkeypatch.setattr(sweep_mod, "run_cell", _fake_cell)
        monkeypatch.setattr(sweep_mod, "train_base", _fake_base)
        monkeypatch.setattr(sweep_mod, "latency_profile", fake_profile)
        cfg = _tiny_sweep_cfg(grid_sizes=[1], subset=None)
        results = run_sweep(cfg, None, None, str(tmp_path / "sweep"))
        assert [r.status for r in results] == ["failed", "ok"]
        assert results[0].val_loss is None and results[1].latency_ms > 0
        assert results[0].reason == "MemoryError: no room"
        # both cells of the base are profiled on one model
        assert profiled[0] is profiled[1]


class TestWorkerThreads:
    """Each forked worker keeps to one Python thread and one BLAS thread."""

    def test_worker_runs_both_halves_on_its_thread(self, forced_split,
                                                   monkeypatch, rng):
        import threading

        import ckanbench.layers as layers_mod
        import ckanbench.sweep as sweep_mod
        from ckanbench.layers import KanConv2D
        from ckanbench.splines import rbf_spec

        blas_threads = []
        monkeypatch.setattr(layers_mod, "_blas_threads",
                            lambda: (lambda: 2, blas_threads.append))
        monkeypatch.setattr(layers_mod, "_HELPERS", {})
        monkeypatch.setattr(sweep_mod, "_WORKER", {})
        sweep_mod._init_worker(None, None, None)
        assert blas_threads == [1]

        calls, row_blocks = [], layers_mod._row_blocks

        def spy(*args, **kw):
            calls.append(threading.get_ident())
            return row_blocks(*args, **kw)

        monkeypatch.setattr(layers_mod, "_row_blocks", spy)
        lyr = KanConv2D(2, 3, 3, pad=1, spec=rbf_spec(4), rng=rng)
        lyr.forward(rng.standard_normal((9, 2, 40, 40)).astype(np.float32))
        # blocks of 6 samples: halves 6 + 3, both on the calling thread
        assert calls == [threading.get_ident()] * 2

    def test_forked_pool_with_forced_splits_matches_serial(
            self, tmp_path, forced_split, digit_train_val):
        train, val = digit_train_val
        cfg = _tiny_sweep_cfg(grid_sizes=[1], prune_ratios=[0.0, 0.4],
                              subset=200, epochs=1)
        # the parent runs its halves on two threads, each worker on one
        serial = run_sweep(cfg, train, val, str(tmp_path / "s"), workers=1)
        forked = run_sweep(cfg, train, val, str(tmp_path / "f"), workers=2)
        for a, b in zip(serial, forked):
            assert a.status == b.status == "ok"
            assert a.val_loss == b.val_loss

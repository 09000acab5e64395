"""Losses against loop oracles, Adam update math, early stopping,
and the fit loop's determinism / best-state / failure contracts."""

import math

import numpy as np
import pytest

import oracles
from ckanbench.data import Dataset
from ckanbench.errors import ConfigError, DimensionError
from ckanbench.layers import Activation, Linear
from ckanbench.models import ModelGraph, build_lenet_kan
from ckanbench.splines import bspline_spec
from ckanbench.training import (AdamConfig, AdamState, EarlyStopper,
                                adam_init, adam_step, bce_multilabel,
                                evaluate_model, fit, softmax_cross_entropy)
from support import blobs


def tiny_classifier(n_features, n_classes, seed=0, hidden=16,
                    output_kind="logits"):
    g = np.random.default_rng(seed)
    layers = [
        Linear(n_features, hidden, rng=g, name="fc1"),
        Activation("relu", name="a1"),
        Linear(hidden, n_classes, rng=g, name="fc2"),
    ]
    if output_kind == "probs":
        layers.append(Activation("sigmoid", name="out"))
    return ModelGraph("tiny", layers, (n_features,), output_kind=output_kind)


class TestSoftmaxCrossEntropy:
    def test_matches_naive(self, rng):
        logits = rng.standard_normal((16, 7))
        labels = rng.integers(0, 7, size=16)
        loss, _ = softmax_cross_entropy(logits, labels)
        assert abs(loss - oracles.softmax_ce_naive(logits, labels)) < 1e-12

    def test_uniform_logits_give_log_m(self):
        for m in (2, 10, 33):
            logits = np.zeros((5, m))
            loss, _ = softmax_cross_entropy(logits, np.zeros(5, dtype=int))
            assert abs(loss - math.log(m)) < 1e-12

    def test_shift_invariance(self, rng):
        logits = rng.standard_normal((8, 4))
        labels = rng.integers(0, 4, size=8)
        a, _ = softmax_cross_entropy(logits, labels)
        b, _ = softmax_cross_entropy(logits + 1000.0, labels)
        assert abs(a - b) < 1e-9

    def test_huge_logits_stay_finite(self):
        logits = np.array([[1e4, -1e4, 0.0]])
        loss, grad = softmax_cross_entropy(logits, np.array([0]))
        assert math.isfinite(loss) and np.isfinite(grad).all()

    def test_validation(self, rng):
        with pytest.raises(DimensionError):
            softmax_cross_entropy(np.zeros((3, 4, 5)), np.zeros(3, dtype=int))
        with pytest.raises(DimensionError):
            softmax_cross_entropy(np.zeros((3, 4)), np.zeros(2, dtype=int))
        with pytest.raises(ConfigError):
            softmax_cross_entropy(np.zeros((3, 4)), np.array([0, 1, 4]))


class TestBceMultilabel:
    def test_matches_naive(self, rng):
        probs = rng.uniform(size=(9, 5))
        targets = (rng.uniform(size=(9, 5)) > 0.4).astype(np.float64)
        loss, _ = bce_multilabel(probs, targets)
        assert abs(loss - oracles.bce_naive(probs, targets)) < 1e-12

    def test_half_probability_gives_log2(self):
        probs = np.full((4, 6), 0.5)
        targets = (np.arange(24).reshape(4, 6) % 2).astype(np.float64)
        loss, _ = bce_multilabel(probs, targets)
        assert abs(loss - math.log(2.0)) < 1e-12

    def test_clipping_keeps_loss_finite(self):
        probs = np.array([[0.0, 1.0]])
        targets = np.array([[1.0, 0.0]])
        loss, grad = bce_multilabel(probs, targets)
        assert math.isfinite(loss) and np.isfinite(grad).all()

    def test_pos_weight_matches_naive(self, rng):
        probs = rng.uniform(0.1, 0.9, size=(6, 3))
        targets = (rng.uniform(size=(6, 3)) > 0.5).astype(np.float64)
        pw = [2.0, 0.5, 1.0]
        loss, _ = bce_multilabel(probs, targets, pos_weight=np.array(pw))
        assert abs(loss - oracles.bce_naive(probs, targets, pos_weight=pw)) < 1e-12

    def test_validation(self):
        with pytest.raises(DimensionError):
            bce_multilabel(np.zeros((2, 3)), np.zeros((3, 2)))
        with pytest.raises(ConfigError):
            bce_multilabel(np.full((2, 2), 0.5), np.full((2, 2), 0.3))
        with pytest.raises(DimensionError):
            bce_multilabel(np.full((2, 2), 0.5), np.ones((2, 2)),
                           pos_weight=np.ones(3))


class TestAdam:
    def test_matches_scalar_oracle(self, rng):
        p = rng.standard_normal(5)
        grads = [rng.standard_normal(5) for _ in range(7)]
        want = oracles.adam_naive_steps(p.copy(), [list(g) for g in grads],
                                        lr=0.01)
        state = adam_init([("p", p)])
        cfg = AdamConfig(lr=0.01)
        for g in grads:
            adam_step(state, [("p", p)], [("p", g)], cfg)
        np.testing.assert_allclose(p, want, rtol=1e-12, atol=1e-12)

    def test_weight_decay_matches_oracle(self, rng):
        # decay must hit the params before the moment update each step
        p = rng.standard_normal(4)
        grads = [rng.standard_normal(4) for _ in range(5)]
        want = oracles.adam_naive_steps(p.copy(), [list(g) for g in grads],
                                        lr=0.05, weight_decay=0.1)
        state = adam_init([("p", p)])
        cfg = AdamConfig(lr=0.05, weight_decay=0.1)
        for g in grads:
            adam_step(state, [("p", p)], [("p", g)], cfg)
        np.testing.assert_allclose(p, want, rtol=1e-12, atol=1e-12)

    def test_first_step_size_is_lr(self):
        # with bias correction, step 1 moves by ~lr regardless of g scale
        p = np.array([1.0])
        state = adam_init([("p", p)])
        adam_step(state, [("p", p)], [("p", np.array([1234.5]))],
                  AdamConfig(lr=0.001))
        assert abs((1.0 - p[0]) - 0.001) < 1e-8

    def test_state_counts_steps(self, rng):
        p = rng.standard_normal(3)
        state = adam_init([("p", p)])
        assert isinstance(state, AdamState) and state.t == 0
        adam_step(state, [("p", p)], [("p", np.zeros(3))], AdamConfig())
        assert state.t == 1


class TestEarlyStopper:
    def test_reference_sequence(self):
        # improvement, then 3 non-improving epochs in a row triggers stop
        st = EarlyStopper(tolerance=3)
        seq = [1.0, 0.9, 0.95, 0.96, 0.97]
        flags = [st.update(v) for v in seq]
        assert flags == [False, False, False, False, True]

    def test_counter_resets_on_strict_improvement(self):
        st = EarlyStopper(tolerance=2)
        assert not st.update(1.0)
        assert not st.update(1.1)
        assert not st.update(0.5)   # reset
        assert not st.update(0.6)
        assert st.update(0.7)

    def test_equal_loss_is_not_improvement(self):
        st = EarlyStopper(tolerance=2)
        assert not st.update(1.0)
        assert not st.update(1.0)
        assert st.update(1.0)

    def test_tolerance_zero_never_stops(self):
        st = EarlyStopper(tolerance=0)
        assert not any(st.update(v) for v in [1.0, 1.0, 2.0, 3.0, 4.0, 5.0])

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ConfigError):
            EarlyStopper(tolerance=-1)


class TestFit:
    def _blob_data(self, seed=0):
        from ckanbench.data import split_dataset
        ds = blobs(352, classes=3, dim=8, seed=seed)
        return split_dataset(ds, val_fraction=0.25, seed=seed)

    def test_deterministic_given_seed(self):
        train, val = self._blob_data()
        results = []
        for _ in range(2):
            model = tiny_classifier(8, 3, seed=5)
            res = fit(model, train, val, epochs=3, batch_size=32, seed=7)
            results.append((res, model.state_dict()))
        (r1, s1), (r2, s2) = results
        assert [e.train_loss for e in r1.report.epochs] == \
               [e.train_loss for e in r2.report.epochs]
        for k in s1:
            np.testing.assert_array_equal(s1[k], s2[k])

    def test_learns_separable_blobs(self):
        train, val = self._blob_data()
        model = tiny_classifier(8, 3, seed=1)
        res = fit(model, train, val, epochs=15, batch_size=32, lr=5e-3, seed=2)
        assert res.report.status == "ok"
        _, acc = evaluate_model(model, val)
        assert acc >= 0.9

    def test_best_state_tracks_best_val_loss(self):
        train, val = self._blob_data()
        model = tiny_classifier(8, 3, seed=3)
        res = fit(model, train, val, epochs=6, batch_size=32, seed=4)
        rep = res.report
        assert rep.best_epoch == min(range(len(rep.epochs)),
                                     key=lambda i: rep.epochs[i].val_loss)
        assert rep.best_val_loss == rep.epochs[rep.best_epoch].val_loss
        # restoring the snapshot reproduces the recorded best val loss
        model.load_state(res.best_state)
        loss, acc = evaluate_model(model, val)
        assert abs(loss - rep.best_val_loss) < 1e-6
        assert abs(acc - rep.best_val_acc) < 1e-9

    def test_early_stop_truncates(self):
        # lr=0 freezes the model, so every epoch after the first ties the
        # best val loss; tolerance 2 stops after exactly 3 epochs
        train, val = self._blob_data()
        model = tiny_classifier(8, 3, seed=5)
        res = fit(model, train, val, epochs=50, batch_size=32, lr=0.0,
                  stopper=EarlyStopper(tolerance=2), seed=6)
        assert len(res.report.epochs) == 3

    @pytest.mark.parametrize("batch", [0, -1])
    def test_batch_below_one_rejected(self, batch):
        train, val = self._blob_data()
        with pytest.raises(ConfigError, match="batch size"):
            fit(tiny_classifier(8, 3), train, val, epochs=1, batch_size=batch)

    @pytest.mark.parametrize("empty", ["training", "validation"])
    def test_empty_set_rejected(self, empty):
        sets = dict(zip(("training", "validation"), self._blob_data()))
        sets[empty] = sets[empty].take(np.arange(0))
        with pytest.raises(ConfigError, match=f"{empty} set is empty"):
            fit(tiny_classifier(8, 3), sets["training"], sets["validation"],
                epochs=1)

    def test_nonfinite_loss_marks_failed(self):
        train, val = self._blob_data()
        model = tiny_classifier(8, 3, seed=7)
        model.layers[0].weight[0, 0] = np.nan
        res = fit(model, train, val, epochs=10, batch_size=32, seed=8)
        assert res.report.status == "failed"
        assert len(res.report.epochs) == 1

    def test_nan_into_bspline_basis_marks_failed(self, rng):
        # A NaN base weight in kconv1 sends NaN through kconv2's basis.
        train = Dataset(rng.standard_normal((16, 1, 28, 28)).astype(np.float32),
                        rng.integers(0, 10, 16))
        model = build_lenet_kan(bspline_spec(), dtype=np.float32)
        model.layers[0].w_base[0, 0, 2, 2] = np.nan
        res = fit(model, train, train, epochs=2, batch_size=8, seed=1)
        assert res.report.status == "failed"

    def test_epoch_end_hook_runs_each_epoch(self):
        train, val = self._blob_data()
        model = tiny_classifier(8, 3, seed=9)
        seen = []
        fit(model, train, val, epochs=3, batch_size=64, seed=1,
            epoch_end=lambda m, e: seen.append(e))
        assert seen == [0, 1, 2]

    def test_multilabel_task_routing(self, rng):
        from ckanbench.data import synthetic_multilabel
        train = synthetic_multilabel(128, n_features=6, n_labels=4, seed=0)
        val = synthetic_multilabel(64, n_features=6, n_labels=4, seed=1)
        model = tiny_classifier(6, 4, seed=2, output_kind="probs")
        res = fit(model, train, val, epochs=2, batch_size=32, seed=3)
        assert res.report.task == "multilabel"
        assert res.report.status == "ok"

    def test_epochs_validation(self):
        train, val = self._blob_data()
        with pytest.raises(ConfigError):
            fit(tiny_classifier(8, 3), train, val, epochs=0)

    def test_report_dict_shape(self):
        train, val = self._blob_data()
        model = tiny_classifier(8, 3, seed=11)
        res = fit(model, train, val, epochs=2, batch_size=64, seed=12)
        d = res.report.to_dict()
        assert d["model"] == "tiny" and d["task"] == "classify"
        assert len(d["epochs"]) == 2
        assert {"epoch", "train_loss", "val_loss", "val_acc",
                "wall_s"} <= set(d["epochs"][0])

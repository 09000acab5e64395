"""Metric oracles, latency profile contract, and channel pruning rules."""

import numpy as np
import pytest

import oracles
from ckanbench.errors import (ConfigError, ConsistencyError, DimensionError,
                              StateError)
from ckanbench.evaluation import (LatencyProfile, MetricsBlock, PruneMask,
                                  apply_prune_mask, finetune_pruned,
                                  latency_profile, metrics_report,
                                  multilabel_metrics,
                                  prune_channels_l2, topk_metrics)
from ckanbench.models import build_lenet_kan, build_lenet_kan_full
from ckanbench.splines import rbf_spec
from ckanbench.training import fit
from support import blobs


def _tiny_image_blobs(seed=0):
    """Blob features reshaped to 1x2x2 images, split train/val."""
    from ckanbench.data import Dataset, split_dataset
    ds = blobs(240, classes=3, dim=4, seed=seed)
    ds = Dataset(ds.inputs.reshape(-1, 1, 2, 2).astype(np.float32),
                 ds.targets, name="blobs4")
    return split_dataset(ds, 0.25, seed=1)


def _tiny_kan_model(seed=0, out_ch=4):
    from ckanbench.layers import Activation, Flatten, KanConv2D, Linear
    from ckanbench.models import ModelGraph
    g = np.random.default_rng(seed)
    return ModelGraph("t", [
        KanConv2D(1, out_ch, 3, pad=1, spec=rbf_spec(2), rng=g, name="k1"),
        Activation("relu", name="a1"),
        Flatten(name="f1"),
        Linear(out_ch * 4, 3, rng=g, name="head"),
    ], input_shape=(1, 2, 2))


def assert_block_matches(block: MetricsBlock, want, tol=1e-12):
    acc, precision, recall, f1 = want
    assert abs(block.accuracy - acc) < tol
    assert abs(block.precision - precision) < tol
    assert abs(block.recall - recall) < tol
    assert abs(block.f1 - f1) < tol


class TestTopkMetrics:
    def test_matches_naive_random(self, rng):
        for _ in range(20):
            n = int(rng.integers(3, 40))
            m = int(rng.integers(2, 12))
            logits = rng.standard_normal((n, m))
            labels = rng.integers(0, m, size=n)
            for k in (1, min(5, m)):
                got = topk_metrics(logits, labels, k)
                want = oracles.topk_metrics_naive(logits, labels, k)
                assert_block_matches(got, want)

    def test_topk_never_below_top1(self, rng):
        for _ in range(30):
            logits = rng.standard_normal((25, 10))
            labels = rng.integers(0, 10, size=25)
            a1 = topk_metrics(logits, labels, 1).accuracy
            a5 = topk_metrics(logits, labels, 5).accuracy
            assert a5 >= a1

    def test_perfect_predictions(self):
        logits = np.eye(4) * 10.0
        labels = np.arange(4)
        block = topk_metrics(logits, labels, 1)
        assert_block_matches(block, (1.0, 1.0, 1.0, 1.0))

    def test_ties_prefer_smaller_index(self):
        # equal scores: class 0 wins the argmax, so label 1 misses at k=1
        logits = np.zeros((1, 3))
        assert topk_metrics(logits, np.array([1]), 1).accuracy == 0.0
        assert topk_metrics(logits, np.array([1]), 2).accuracy == 1.0

    def test_absent_class_scores_zero_not_nan(self):
        # class 2 never appears and is never predicted: 0/0 -> 0
        logits = np.array([[5.0, 0.0, -1.0], [5.0, 0.0, -1.0]])
        labels = np.array([0, 0])
        block = topk_metrics(logits, labels, 1)
        assert_block_matches(block, (1.0, 1.0, 1.0, 1.0))

    def test_credited_prediction_changes_per_class_counts(self):
        # label in top-2 but not top-1: credit goes to the true class
        logits = np.array([[2.0, 1.0, 0.0]])
        labels = np.array([1])
        assert topk_metrics(logits, labels, 2).recall == 1.0
        assert topk_metrics(logits, labels, 1).recall == 0.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            topk_metrics(np.zeros((2, 3)), np.zeros(2, dtype=int), 4)
        with pytest.raises(DimensionError):
            topk_metrics(np.zeros((2, 3)), np.zeros(3, dtype=int), 1)

    def test_report_clamps_k_to_classes(self, rng):
        logits = rng.standard_normal((6, 3))
        labels = rng.integers(0, 3, size=6)
        rep = metrics_report(logits, labels, loss=0.5)
        assert rep.loss == 0.5
        assert rep.support == np.bincount(labels, minlength=3).tolist()
        want = oracles.topk_metrics_naive(logits, labels, 3)
        assert_block_matches(rep.top5, want)


class TestMultilabelMetrics:
    def test_matches_naive_random(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 30))
            m = int(rng.integers(1, 8))
            probs = rng.uniform(size=(n, m))
            targets = (rng.uniform(size=(n, m)) > 0.5).astype(float)
            got = multilabel_metrics(probs, targets)
            want = oracles.multilabel_metrics_naive(probs, targets)
            assert_block_matches(got, want)

    def test_threshold_boundary_is_positive(self):
        probs = np.array([[0.5, 0.49999]])
        targets = np.array([[1.0, 1.0]])
        block = multilabel_metrics(probs, targets, threshold=0.5)
        assert block.recall == 0.5

    def test_all_negative_scores_zero(self):
        block = multilabel_metrics(np.zeros((3, 4)), np.zeros((3, 4)))
        assert_block_matches(block, (1.0, 0.0, 0.0, 0.0))


class TestLatencyProfile:
    def test_fields_and_ordering(self):
        model = build_lenet_kan_full(spec=rbf_spec(2), seed=0)
        prof = latency_profile(model, batch_size=4, warmup=1, iters=7)
        assert isinstance(prof, LatencyProfile)
        assert prof.batch_size == 4 and prof.iters == 7
        assert len(prof.times_ms) == 7
        assert all(t > 0 for t in prof.times_ms)
        assert prof.median_ms <= prof.p90_ms

    def test_validation(self):
        model = build_lenet_kan_full(spec=rbf_spec(2))
        with pytest.raises(ConfigError):
            latency_profile(model, iters=0)


class TestPruning:
    def _model(self, seed=0):
        return build_lenet_kan_full(spec=rbf_spec(2), seed=seed)

    def test_scores_rank_by_l2(self):
        model = self._model()
        lyr = model.kan_conv_layers()[0]
        # channel 3 zeroed entirely -> guaranteed lowest score
        for _, arr in lyr.params():
            if arr.ndim:
                arr[3] = 0.0
        pmask = prune_channels_l2(model, 0.2)   # ceil(0.2*6)=2 of 6
        assert not pmask.masks["kconv1"][3]
        assert pmask.masks["kconv1"].sum() == 4

    def test_mask_count_uses_ceil(self):
        model = self._model()
        for ratio, kept in [(0.25, 4), (0.5, 3), (0.75, 1), (0.0, 6)]:
            pmask = prune_channels_l2(model, ratio)
            assert pmask.masks["kconv1"].sum() == kept

    def test_at_least_one_channel_survives(self):
        model = self._model()
        pmask = prune_channels_l2(model, 0.99)
        for mask in pmask.masks.values():
            assert mask.sum() >= 1

    def test_final_layer_never_pruned(self):
        from ckanbench.models import build_lenet_kan
        model = build_lenet_kan(spec=rbf_spec(2))
        pmask = prune_channels_l2(model, 0.5)
        assert model.final_parametric_layer().name not in pmask.masks

    def test_tie_break_lower_index(self):
        model = self._model()
        lyr = model.kan_conv_layers()[0]
        for _, arr in lyr.params():
            arr[...] = 1.0   # all channels identical
        pmask = prune_channels_l2(model, 0.5)   # mask ceil(3)=3 of 6
        np.testing.assert_array_equal(pmask.masks["kconv1"],
                                      [False, False, False, True, True, True])

    def test_ratio_validation(self):
        with pytest.raises(ConfigError):
            prune_channels_l2(self._model(), 1.0)
        with pytest.raises(ConfigError):
            prune_channels_l2(self._model(), -0.1)

    def test_apply_is_and_semantics(self):
        model = self._model()
        lyr = model.kan_conv_layers()[0]
        lyr.channel_mask[0] = False           # pre-existing mask
        pmask = PruneMask(ratio=0.0, masks={
            "kconv1": np.array([True, False, True, True, True, True])})
        apply_prune_mask(model, pmask)
        assert not lyr.channel_mask[0]        # still masked
        assert not lyr.channel_mask[1]
        # re-applying an all-True mask cannot resurrect channels
        apply_prune_mask(model, PruneMask(ratio=0.0, masks={
            "kconv1": np.ones(6, dtype=bool)}))
        assert not lyr.channel_mask[0] and not lyr.channel_mask[1]

    def test_apply_validates_names_and_shapes(self):
        model = self._model()
        with pytest.raises(ConsistencyError):
            apply_prune_mask(model, PruneMask(0.0, {"nope": np.ones(6, bool)}))
        with pytest.raises(ConsistencyError):
            apply_prune_mask(model, PruneMask(0.0, {"kconv1": np.ones(5, bool)}))

    def test_apply_changes_nothing_when_a_later_mask_is_bad(self):
        model = self._model()
        k1, k2 = model.kan_conv_layers()
        bad = PruneMask(0.0, {"kconv1": np.zeros_like(k1.channel_mask),
                              "kconv2": np.ones(k2.out_ch + 1, dtype=bool)})
        with pytest.raises(ConsistencyError):
            apply_prune_mask(model, bad)
        assert k1.channel_mask.all() and k2.channel_mask.all()

    def test_apply_rejects_a_layer_without_channel_mask(self):
        model = build_lenet_kan_full()
        bad = PruneMask(0.0, {"fc1": np.ones(120, dtype=bool)})
        with pytest.raises(ConsistencyError, match="fc1"):
            apply_prune_mask(model, bad)

    def test_param_count_drops_by_masked_scalars(self):
        model = self._model()
        before = model.param_count()
        pmask = prune_channels_l2(model, 0.25)
        apply_prune_mask(model, pmask)
        after = model.param_count()
        assert after < before
        assert before == after + oracles.masked_scalar_count(model)

    def test_masked_scalars_count_a_kan_linear_mask(self):
        model = build_lenet_kan(rbf_spec(4))
        kfc1 = [lyr for lyr in model.layers if lyr.name == "kfc1"][0]
        mask = np.ones(kfc1.out_features, dtype=bool)
        mask[:3] = False
        before = model.param_count()
        apply_prune_mask(model, PruneMask(0.0, {"kfc1": mask}))
        after = model.param_count()
        assert before - after == 3 * kfc1.channel_param_count()
        assert before == after + oracles.masked_scalar_count(model)

    def test_mac_count_drops(self):
        model = self._model()
        before = model.mac_count()
        apply_prune_mask(model, prune_channels_l2(model, 0.25))
        assert model.mac_count() < before

    def test_masked_channel_stays_dead_through_finetune(self):
        train, val = _tiny_image_blobs(seed=0)
        model = _tiny_kan_model(seed=0)
        pmask = prune_channels_l2(model, 0.4)
        res = finetune_pruned(model, pmask, train, val, epochs=2,
                              batch_size=32, seed=3)
        assert res.report.status == "ok"
        lyr = model.kan_conv_layers()[0]
        np.testing.assert_array_equal(lyr.channel_mask, pmask.masks["k1"])
        out = model.forward(val.inputs[:8])
        inner = model.layers[0].forward(val.inputs[:8])
        assert np.abs(inner[:, ~pmask.masks["k1"]]).max() == 0.0
        assert np.isfinite(out).all()

    def test_zero_ratio_finetune_equals_plain_fit(self):
        # empty mask: finetune_pruned must be bit-identical to fit
        train, val = _tiny_image_blobs(seed=5)

        def make():
            return _tiny_kan_model(seed=2)

        a = make()
        pmask = prune_channels_l2(a, 0.0)
        assert all(m.all() for m in pmask.masks.values())
        ra = finetune_pruned(a, pmask, train, val, epochs=2, batch_size=32,
                             seed=9)
        b = make()
        rb = fit(b, train, val, epochs=2, batch_size=32, seed=9)
        assert [e.train_loss for e in ra.report.epochs] == \
               [e.train_loss for e in rb.report.epochs]
        for (_, pa), (_, pb) in zip(a.named_params(), b.named_params()):
            np.testing.assert_array_equal(pa, pb)

    def test_mask_mutation_caught_by_finetune(self):
        from ckanbench.layers import Activation
        from ckanbench.models import ModelGraph

        class Saboteur(Activation):
            """Pass-through layer that un-masks its victim every forward."""

            def __init__(self, victim, name):
                super().__init__("identity", name=name)
                self.victim = victim

            def forward(self, x, training=True):
                self.victim.channel_mask[:] = True
                return super().forward(x, training=training)

        train, val = _tiny_image_blobs(seed=6)
        base = _tiny_kan_model(seed=2)
        conv = base.kan_conv_layers()[0]
        layers = base.layers[:1] + [Saboteur(conv, "sab")] + base.layers[1:]
        model = ModelGraph("t", layers, input_shape=(1, 2, 2))
        pmask = prune_channels_l2(model, 0.4)
        with pytest.raises(StateError):
            finetune_pruned(model, pmask, train, val, epochs=1,
                            batch_size=32, seed=4)

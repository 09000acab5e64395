"""Model builders: scalar/MAC budgets, width scaling, spline-vs-classical
count relations, config round-trips, and state dict handling."""

import numpy as np
import pytest

from ckanbench.checkpoint import CONFIG_NAME, save_checkpoint
from ckanbench.errors import ConfigError, ConsistencyError
from ckanbench.layers import (Activation, Conv2D, Flatten, KanConv2D,
                              KanLinear, Linear, MaxPool2D)
from ckanbench.models import (ModelGraph, build_alexnet, build_from_config,
                              build_lenet, build_lenet_kan,
                              build_lenet_kan_full, build_tabular_cnn,
                              read_key_values)
from ckanbench.splines import bspline_spec, rbf_spec


class TestReferenceCounts:
    def test_lenet_param_count(self):
        assert build_lenet().param_count() == 61_706

    def test_lenet_mac_count(self):
        assert build_lenet().mac_count() == 416_520

    def test_alexnet_param_count(self):
        assert build_alexnet().param_count() == 61_100_840

    def test_alexnet_mac_count_band(self):
        # canonical per-sample multiply-accumulates land near 714M
        assert abs(build_alexnet().mac_count() - 714_197_696) / 714_197_696 < 0.05

    def test_alexnet_kan_is_smaller(self):
        cnn = build_alexnet()
        kan = build_alexnet(kan=True, spec=bspline_spec(5, 3))
        assert kan.param_count() < cnn.param_count()
        assert kan.mac_count() < cnn.mac_count()

    def test_lenet_kan_quarter_width_is_smaller(self):
        assert (build_lenet_kan(spec=bspline_spec(5, 3)).param_count()
                < build_lenet().param_count())


class TestWidthScaling:
    @pytest.mark.parametrize("w,c1,c2", [(1.0, 6, 16), (1.5, 9, 24),
                                         (2.0, 12, 32), (0.5, 3, 8)])
    def test_lenet_channel_widths(self, w, c1, c2):
        m = build_lenet(width_mult=w)
        convs = [l for l in m.layers if type(l).__name__ == "Conv2D"]
        assert convs[0].weight.shape[0] == c1
        assert convs[1].weight.shape[0] == c2

    def test_full_kan_keeps_classical_head(self):
        m = build_lenet_kan_full(spec=rbf_spec(4), width_mult=1.5)
        kans = m.kan_conv_layers()
        assert [l.channel_mask.size for l in kans] == [9, 24]
        linears = [l for l in m.layers if isinstance(l, Linear)]
        assert [l.weight.shape[0] for l in linears] == [120, 84, 10]

    def test_param_counts_grow_with_grid(self):
        counts = [build_lenet_kan_full(spec=rbf_spec(g)).param_count()
                  for g in (2, 4, 8)]
        assert counts[0] < counts[1] < counts[2]

    def test_mac_counts_grow_with_grid(self):
        macs = [build_lenet_kan_full(spec=rbf_spec(g)).mac_count()
                for g in (2, 4, 8)]
        assert macs[0] < macs[1] < macs[2]


class TestForwardShapes:
    def test_lenet_forward(self, rng):
        m = build_lenet(seed=1)
        out = m.forward(rng.standard_normal((3, 1, 28, 28)).astype(np.float32))
        assert out.shape == (3, 10)
        assert m.output_kind == "logits"

    def test_lenet_kan_full_forward(self, rng):
        m = build_lenet_kan_full(spec=rbf_spec(2), seed=1)
        out = m.forward(rng.standard_normal((2, 1, 28, 28)).astype(np.float32))
        assert out.shape == (2, 10)

    @pytest.mark.slow
    def test_alexnet_forward_smoke(self, rng):
        m = build_alexnet(seed=1)
        out = m.forward(rng.standard_normal((1, 3, 224, 224)).astype(np.float32))
        assert out.shape == (1, 1000)
        assert np.isfinite(out).all()

    def test_tabular_forward_is_probability(self, rng):
        for kan in (False, True):
            m = build_tabular_cnn(20, 5, kan=kan, spec=rbf_spec(2), seed=2)
            out = m.forward(rng.standard_normal((4, 20)).astype(np.float32))
            assert out.shape == (4, 5)
            assert m.output_kind == "probs"
            assert (out > 0).all() and (out < 1).all()

    def test_tabular_kan_is_smaller(self):
        cnn = build_tabular_cnn(30, 6, kan=False)
        kan = build_tabular_cnn(30, 6, kan=True, spec=bspline_spec(5, 3))
        assert kan.param_count() < cnn.param_count()

    def test_tabular_validates_sizes(self):
        with pytest.raises(ConfigError):
            build_tabular_cnn(0, 3)


class TestConvPath:
    @pytest.mark.parametrize("build, in_shape", [
        (lambda: build_lenet(), (1, 28, 28)),
        (lambda: build_lenet_kan_full(rbf_spec(4)), (1, 28, 28)),
        (lambda: build_lenet_kan(bspline_spec()), (1, 28, 28)),
        (lambda: build_tabular_cnn(20, 5), (20,)),
        (lambda: build_tabular_cnn(20, 5, kan=True), (20,)),
        # AlexNet's conv1 geometry on a small input, with an input gradient
        (lambda: Conv2D(3, 4, 11, stride=4, pad=2,
                        rng=np.random.default_rng(0)), (3, 31, 31)),
        (lambda: KanConv2D(3, 4, 11, stride=4, pad=2, spec=rbf_spec(3),
                           rng=np.random.default_rng(0)), (3, 31, 31)),
    ], ids=["lenet", "lenet_kan_full-rbf", "lenet_kan-bspline", "tabular-cnn",
            "tabular-kan", "alexnet-conv1", "alexnet-kan-conv1"])
    def test_training_builds_no_columns(self, build, in_shape, monkeypatch):
        from ckanbench import tensor_ops as T

        calls = []

        def spy(name, real):
            def call(*args, **kw):
                calls.append(name)
                return real(*args, **kw)
            return call

        for name in ("im2col_batch", "col2im_batch"):
            monkeypatch.setattr(T, name, spy(name, getattr(T, name)))
        net = build()
        x = np.random.default_rng(0).standard_normal((5,) + in_shape)
        out = net.forward(x.astype(np.float32), training=True)
        net.backward(np.ones_like(out))
        assert calls == []


class TestDeterminism:
    def test_same_seed_same_params(self):
        a = build_lenet_kan_full(spec=rbf_spec(3), seed=9)
        b = build_lenet_kan_full(spec=rbf_spec(3), seed=9)
        for (na, pa), (nb, pb) in zip(a.named_params(), b.named_params()):
            assert na == nb
            np.testing.assert_array_equal(pa, pb)

    def test_different_seed_differs(self):
        a = build_lenet(seed=1)
        b = build_lenet(seed=2)
        assert any(not np.array_equal(pa, pb)
                   for (_, pa), (_, pb) in zip(a.named_params(),
                                               b.named_params()))


def _eager_lenet(conv, rng):
    """LeNet's parametric layers built in order, each drawn at once from
    ``rng``; ``conv`` builds the two convolutions."""
    return ModelGraph("eager", [
        conv(1, 6, pad=2, rng=rng, name="c1"), Activation("relu", name="a1"),
        MaxPool2D(2, name="p1"),
        conv(6, 16, pad=0, rng=rng, name="c2"), Activation("relu", name="a2"),
        MaxPool2D(2, name="p2"), Flatten(name="flat"),
        Linear(400, 120, rng=rng, name="fc1"), Activation("relu", name="a3"),
        Linear(120, 84, rng=rng, name="fc2"), Activation("relu", name="a4"),
        Linear(84, 10, rng=rng, name="fc3"),
    ], (1, 28, 28))


class TestDeferredDraws:
    @pytest.mark.parametrize("build,conv", [
        (lambda seed: build_lenet(seed=seed),
         lambda *a, **kw: Conv2D(*a, 5, **kw)),
        (lambda seed: build_lenet_kan_full(spec=rbf_spec(4), seed=seed),
         lambda *a, **kw: KanConv2D(*a, 5, spec=rbf_spec(4), **kw)),
    ], ids=["lenet", "lenet_kan_full-rbf"])
    @pytest.mark.parametrize("touch_last_first", [False, True],
                             ids=["in-order", "last-first"])
    def test_seeded_state_equals_eager_draws(self, build, conv,
                                             touch_last_first):
        model = build(7)
        assert model.param_count() > 0 and model.mac_count() > 0
        if touch_last_first:
            model.layers[-1].weight.sum()
        eager = _eager_lenet(conv, np.random.default_rng(7))
        got, want = model.state_items(), eager.state_items()
        assert len(got) == len(want)
        for (_, a), (_, b) in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestModelGraph:
    def test_duplicate_layer_names_rejected(self, rng):
        with pytest.raises(ConsistencyError):
            ModelGraph("bad", [Linear(4, 4, rng=rng, name="fc"),
                               Linear(4, 4, rng=rng, name="fc")],
                       input_shape=(4,))

    def test_state_roundtrip_and_mismatch(self):
        a = build_lenet_kan_full(spec=rbf_spec(2), seed=3)
        b = build_lenet_kan_full(spec=rbf_spec(2), seed=4)
        b.load_state(a.state_dict())
        for (_, pa), (_, pb) in zip(a.named_params(), b.named_params()):
            np.testing.assert_array_equal(pa, pb)
        wrong = build_lenet(seed=3)
        with pytest.raises(ConsistencyError):
            wrong.load_state(a.state_dict())

    def test_load_state_rejects_another_dtype(self):
        # a float64 state is refused, not rounded into a float32 model
        state = build_lenet(seed=3, dtype=np.float64).state_dict()
        with pytest.raises(ConsistencyError, match="float64"):
            build_lenet(seed=4).load_state(state)

    def test_load_into_a_fresh_model_draws_nothing(self, monkeypatch):
        state = build_lenet_kan_full(spec=rbf_spec(2), seed=3).state_dict()
        calls = []
        real = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng",
                            lambda *a: calls.append(a) or real(*a))
        fresh = build_lenet_kan_full(spec=rbf_spec(2), seed=4)
        fresh.load_state(state)
        got = fresh.state_dict()
        assert fresh.layers and calls == []
        assert got.keys() == state.keys()
        for name, arr in state.items():
            assert got[name].dtype == arr.dtype
            assert got[name].tobytes() == arr.tobytes()

    def test_failed_load_changes_nothing(self):
        # a fresh model stays undrawn, so it still draws its seed's init;
        # a drawn one keeps every value, the entries before the bad one too
        bad = build_lenet(seed=3).state_dict()
        bad["fc3.bias"] = bad["fc3.bias"].astype(np.float64)
        fresh, drawn = build_lenet(seed=4), build_lenet(seed=5)
        before = drawn.state_dict()
        for model in (fresh, drawn):
            with pytest.raises(ConsistencyError, match="fc3.bias"):
                model.load_state(bad)
        for model, want in ((fresh, build_lenet(seed=4).state_dict()),
                            (drawn, before)):
            got = model.state_dict()
            assert all(got[k].tobytes() == want[k].tobytes() for k in want)

    def test_state_dict_includes_channel_masks(self):
        m = build_lenet_kan_full(spec=rbf_spec(2), seed=3)
        m.kan_conv_layers()[0].channel_mask[0] = False
        state = m.state_dict()
        assert sum(k.endswith("channel_mask") for k in state) == 2
        fresh = build_lenet_kan_full(spec=rbf_spec(2), seed=5)
        fresh.load_state(state)
        assert not fresh.kan_conv_layers()[0].channel_mask[0]

    def test_final_parametric_layer(self):
        m = build_lenet_kan_full(spec=rbf_spec(2))
        assert m.final_parametric_layer().name == "fc3"
        km = build_lenet_kan(spec=rbf_spec(2))
        assert isinstance(km.final_parametric_layer(), KanLinear)

    def test_backward_skips_only_the_unread_input_gradient(self, rng):
        from ckanbench.training import softmax_cross_entropy

        m = build_lenet_kan_full(spec=rbf_spec(3), seed=2, dtype=np.float64)
        x = rng.standard_normal((3, 1, 28, 28))
        _, dout = softmax_cross_entropy(m.forward(x, training=True),
                                        np.array([1, 4, 7]))
        m.zero_grads()
        assert m.backward(dout) is None
        got = [(n, g.copy()) for n, g in m.named_grads()]
        m.zero_grads()
        d = dout
        for lyr in reversed(m.layers):
            d = lyr.backward(d)
        assert d.shape == x.shape
        want = m.named_grads()
        assert [n for n, _ in got] == [n for n, _ in want]
        for (_, a), (_, b) in zip(got, want):
            np.testing.assert_array_equal(a, b)

    def test_kan_conv_layers_accessor(self):
        assert build_lenet().kan_conv_layers() == []
        km = build_alexnet(kan=True, spec=rbf_spec(2))
        assert len(km.kan_conv_layers()) == 5
        assert all(isinstance(l, KanConv2D) for l in km.kan_conv_layers())



class TestTwinLayouts:
    """Each CKAN is its CNN's layout with spline layers swapped in."""

    @pytest.mark.parametrize("cnn,kan", [
        (build_lenet, lambda: build_lenet_kan(spec=rbf_spec(4))),
        (build_lenet, lambda: build_lenet_kan_full(spec=bspline_spec(5, 3))),
        (build_alexnet, lambda: build_alexnet(kan=True)),
        (lambda: build_tabular_cnn(12, 4),
         lambda: build_tabular_cnn(12, 4, kan=True, spec=rbf_spec(3))),
    ], ids=["lenet_kan", "lenet_kan_full", "alexnet_kan", "tabular_kan"])
    def test_position_by_position(self, cnn, kan):
        # the undrawn layer lists: the layout alone, no weights
        cnn_layers, kan_layers = cnn()._layers, kan()._layers
        assert len(kan_layers) == len(cnn_layers)
        swapped = 0
        for c, k in zip(cnn_layers, kan_layers):
            c_cls, k_cls = type(c).__name__, type(k).__name__
            assert k_cls in (c_cls, "Kan" + c_cls)
            assert k.name in (c.name, "k" + c.name)
            assert (k_cls == c_cls) == (k.name == c.name)
            swapped += k_cls != c_cls
            for attr in ("kh", "kw", "stride", "pad", "length_pad", "wh", "ww"):
                assert getattr(k, attr, None) == getattr(c, attr, None), (k.name, attr)
        assert swapped >= 2

class TestConfigRoundTrip:
    @pytest.mark.parametrize("build", [
        lambda: build_lenet(width_mult=1.5, relu_on=False, seed=3),
        lambda: build_lenet_kan(spec=bspline_spec(4, 2), seed=1),
        lambda: build_lenet_kan_full(spec=rbf_spec(6), width_mult=2.0, seed=8),
        lambda: build_alexnet(seed=0),
        lambda: build_tabular_cnn(12, 4, seed=2),
        lambda: build_tabular_cnn(12, 4, kan=True, spec=rbf_spec(3), seed=2),
    ])
    def test_roundtrip(self, tmp_path, build):
        model = build()
        model.state_items = list    # the config alone: no weights are saved
        save_checkpoint(model, str(tmp_path))
        loaded = {key: val for _, key, val
                  in read_key_values(tmp_path / CONFIG_NAME)}
        assert loaded == model.config
        rebuilt = build_from_config(loaded)
        assert rebuilt.param_count() == model.param_count()
        assert rebuilt.mac_count() == model.mac_count()
        for (na, pa), (nb, pb) in zip(model.named_params(),
                                      rebuilt.named_params()):
            assert na == nb
            np.testing.assert_array_equal(pa, pb)

    def test_unknown_arch_rejected(self):
        with pytest.raises(ConfigError):
            build_from_config({"arch": "resnet"})

    @pytest.mark.parametrize("token,relu_on", [("ON", True), ("Off", False)])
    def test_relu_token_is_case_insensitive(self, token, relu_on):
        model = build_from_config({"arch": "lenet", "relu": token})
        assert model.config["relu"] == token.lower()
        assert model._layers[1].kind == ("relu" if relu_on else "identity")

    @pytest.mark.parametrize("width", ["0", "-1", "nan", "inf"])
    def test_non_positive_or_non_finite_width_rejected(self, width):
        with pytest.raises(ConfigError, match="width_mult"):
            build_from_config({"arch": "lenet", "width_mult": width})

    def test_malformed_config_file(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text("arch=lenet\nnot a pair\n")
        with pytest.raises(ConfigError):
            list(read_key_values(path))

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text("# model\n\narch=lenet\nseed=4\n")
        assert list(read_key_values(path)) == [(3, "arch", "lenet"),
                                               (4, "seed", "4")]

    def test_grid_without_family_is_read(self):
        model = build_from_config({"arch": "lenet_kan_full", "grid": "4"})
        assert model.kan_conv_layers()[0].spec == bspline_spec(4, 3)
        assert model.config["grid"] == "4"

    def test_rbf_degree_defaults_to_0(self):
        model = build_from_config({"arch": "lenet_kan_full", "family": "rbf"})
        assert model.config["degree"] == "0"
        assert model.kan_conv_layers()[0].spec == rbf_spec(5)

"""Checkpoint round trips are bit-exact; malformed stores are rejected."""

import os

import numpy as np
import pytest

from ckanbench.checkpoint import (BLOB_NAME, CONFIG_NAME, MANIFEST_NAME,
                                  load_checkpoint, read_state, save_checkpoint,
                                  save_state)
from ckanbench.errors import ConsistencyError, FormatError
from ckanbench.models import (build_lenet, build_lenet_kan_full,
                              build_tabular_cnn)
from ckanbench.splines import rbf_spec


class TestStateRoundTrip:
    def test_mixed_dtypes_bit_exact(self, tmp_path, rng):
        items = [
            ("a.weight", rng.standard_normal((3, 4)).astype(np.float32)),
            ("a.bias", rng.standard_normal(4)),          # float64
            ("b.mask", np.array([True, False, True])),
            ("b.count", np.arange(5, dtype=np.int64)),
        ]
        save_state(items, str(tmp_path))
        state = read_state(str(tmp_path))
        assert set(state) == {n for n, _ in items}
        for name, arr in items:
            got = state[name]
            assert got.dtype == arr.dtype and got.shape == arr.shape
            assert got.tobytes() == arr.tobytes()

    def test_manifest_is_readable_text(self, tmp_path, rng):
        save_state([("w", np.zeros((2, 3), dtype=np.float32))], str(tmp_path))
        lines = (tmp_path / MANIFEST_NAME).read_text().splitlines()
        assert lines == ["w 2,3 float32"]

    def test_nan_and_inf_survive(self, tmp_path):
        arr = np.array([np.nan, np.inf, -np.inf, 0.0], dtype=np.float32)
        save_state([("x", arr)], str(tmp_path))
        got = read_state(str(tmp_path))["x"]
        assert got.tobytes() == arr.tobytes()

    def test_noncontiguous_input(self, tmp_path, rng):
        base = rng.standard_normal((4, 6))
        view = base[:, ::2]
        save_state([("v", view)], str(tmp_path))
        np.testing.assert_array_equal(read_state(str(tmp_path))["v"], view)

    def test_big_endian_input_stored_little_endian(self, tmp_path):
        items = [("f", np.array([1.5, -2.0, 3.25], dtype=">f4")),
                 ("i", np.array([1, -2, 2**40], dtype=">i8"))]
        save_state(items, str(tmp_path))
        assert (tmp_path / BLOB_NAME).read_bytes() == (
            np.array([1.5, -2.0, 3.25], dtype="<f4").tobytes()
            + np.array([1, -2, 2**40], dtype="<i8").tobytes())
        assert (tmp_path / MANIFEST_NAME).read_text() == "f 3 float32\ni 3 int64\n"
        state = read_state(str(tmp_path))
        for name, arr in items:
            np.testing.assert_array_equal(state[name], arr)

    def test_zero_rank_rejected(self, tmp_path):
        with pytest.raises(FormatError, match="zero-rank"):
            save_state([("s", np.array(2.5))], str(tmp_path))


class TestStoreValidation:
    def test_blob_size_mismatch(self, tmp_path):
        save_state([("x", np.zeros(4, dtype=np.float32))], str(tmp_path))
        with open(tmp_path / BLOB_NAME, "ab") as fh:
            fh.write(b"\x00")
        with pytest.raises(FormatError, match="expected 16 bytes"):
            read_state(str(tmp_path))

    def test_malformed_manifest_line(self, tmp_path):
        save_state([("x", np.zeros(2, dtype=np.float32))], str(tmp_path))
        (tmp_path / MANIFEST_NAME).write_text("x 2 float32\nbroken line here extra\n")
        with pytest.raises(FormatError, match="name shape dtype"):
            read_state(str(tmp_path))

    def test_bad_dtype_token(self, tmp_path):
        save_state([("x", np.zeros(2, dtype=np.float32))], str(tmp_path))
        (tmp_path / MANIFEST_NAME).write_text("x 2 floatzz\n")
        with pytest.raises(FormatError):
            read_state(str(tmp_path))

    @pytest.mark.parametrize("token", ["object", "U4", "S8", "V8", "M8[s]"])
    def test_non_numeric_dtype_rejected(self, tmp_path, token):
        save_state([("x", np.zeros(2, dtype=np.float32))], str(tmp_path))
        (tmp_path / MANIFEST_NAME).write_text(f"x 2 {token}\n")
        with pytest.raises(FormatError,
                           match=f"{MANIFEST_NAME}:1: .* is not a numeric dtype"):
            read_state(str(tmp_path))

    def test_duplicate_name(self, tmp_path):
        save_state([("x", np.zeros(2, dtype=np.float32)),
                    ("x", np.ones(2, dtype=np.float32))], str(tmp_path))
        with pytest.raises(FormatError,
                           match=f"{MANIFEST_NAME}:2: duplicate name 'x'"):
            read_state(str(tmp_path))

    def test_negative_dimension(self, tmp_path):
        save_state([("x", np.zeros(2, dtype=np.float32))], str(tmp_path))
        (tmp_path / MANIFEST_NAME).write_text("x 4,-2 float32\n")
        with pytest.raises(FormatError,
                           match=f"{MANIFEST_NAME}:1: negative dimension"):
            read_state(str(tmp_path))

    def test_missing_dir(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_state(str(tmp_path / "nope"))


class TestModelCheckpoint:
    def test_kan_model_roundtrip_with_masks(self, tmp_path):
        model = build_lenet_kan_full(spec=rbf_spec(2), seed=3)
        model.kan_conv_layers()[0].channel_mask[2] = False
        save_checkpoint(model, str(tmp_path))
        twin = build_lenet_kan_full(spec=rbf_spec(2), seed=9)
        twin.load_state(read_state(str(tmp_path)))
        for (na, pa), (nb, pb) in zip(model.state_items(),
                                      twin.state_items()):
            assert na == nb
            assert pa.tobytes() == pb.tobytes()
        assert not twin.kan_conv_layers()[0].channel_mask[2]

    def test_forward_identical_after_restore(self, tmp_path, rng):
        model = build_lenet(seed=1)
        save_checkpoint(model, str(tmp_path))
        twin = build_lenet(seed=2)
        twin.load_state(read_state(str(tmp_path)))
        x = rng.standard_normal((2, 1, 28, 28)).astype(np.float32)
        np.testing.assert_array_equal(model.forward(x), twin.forward(x))

    def test_architecture_mismatch_rejected(self, tmp_path):
        save_checkpoint(build_lenet(seed=1), str(tmp_path))
        wrong = build_lenet_kan_full(spec=rbf_spec(2))
        with pytest.raises(ConsistencyError, match="does not match"):
            wrong.load_state(read_state(str(tmp_path)))

    def test_shape_mismatch_rejected(self, tmp_path):
        save_checkpoint(build_lenet(width_mult=1.0, seed=1), str(tmp_path))
        manifest = (tmp_path / MANIFEST_NAME).read_text()
        # same names, different widths -> same name set, wrong shapes
        wider = build_lenet(width_mult=2.0, seed=1)
        with pytest.raises(ConsistencyError):
            wider.load_state(read_state(str(tmp_path)))

    def test_float64_model_roundtrip(self, tmp_path, rng):
        model = build_lenet(seed=4, dtype=np.float64)
        save_checkpoint(model, str(tmp_path))
        twin = build_lenet(seed=5, dtype=np.float64)
        twin.load_state(read_state(str(tmp_path)))
        x = rng.standard_normal((2, 1, 28, 28))
        np.testing.assert_array_equal(model.forward(x), twin.forward(x))

    def test_tabular_state_layout(self):
        # pins the checkpoint format of the 1-D conv stages: each is
        # stored as a 2-D layer with a (1, 5) kernel
        def conv(i, o, c):
            return [(f"conv{i}.weight", (o, c, 1, 5)), (f"conv{i}.bias", (o,))]

        cnn = build_tabular_cnn(12, 4, kan=False)
        assert [(n, a.shape) for n, a in cnn.state_items()] == (
            [("proj.weight", (4096, 12)), ("proj.bias", (4096,))]
            + conv(1, 512, 256) + conv(2, 512, 512) + conv(3, 256, 512)
            + [("head.weight", (4, 256)), ("head.bias", (4,))])

        def kconv(i, o, c):
            edge = (o, c, 1, 5)
            return [(f"kconv{i}.coeffs", edge + (3,)),
                    (f"kconv{i}.w_base", edge), (f"kconv{i}.w_spline", edge),
                    (f"kconv{i}.shift", edge), (f"kconv{i}.bias", (o,))]

        kan = build_tabular_cnn(12, 4, kan=True, spec=rbf_spec(3))
        assert [(n, a.shape) for n, a in kan.state_items()] == (
            [("proj.weight", (1024, 12)), ("proj.bias", (1024,))]
            + kconv(1, 128, 64) + kconv(2, 128, 128) + kconv(3, 64, 128)
            + [("head.weight", (4, 64)), ("head.bias", (4,))]
            + [(f"kconv{i}.channel_mask", (o,))
               for i, o in ((1, 128), (2, 128), (3, 64))])


class TestCheckpointDirectory:
    def test_load_rebuilds_the_saved_model(self, tmp_path, rng):
        model = build_lenet_kan_full(spec=rbf_spec(2), width_mult=0.5, seed=3)
        model.kan_conv_layers()[0].channel_mask[1] = False
        save_checkpoint(model, str(tmp_path))
        assert sorted(os.listdir(tmp_path)) == [CONFIG_NAME, MANIFEST_NAME,
                                                BLOB_NAME]
        twin = load_checkpoint(str(tmp_path))
        assert twin.config == model.config
        for (na, pa), (nb, pb) in zip(model.state_items(), twin.state_items()):
            assert na == nb and pa.tobytes() == pb.tobytes()
        x = rng.standard_normal((2, 1, 28, 28)).astype(np.float32)
        np.testing.assert_array_equal(model.forward(x), twin.forward(x))

    def test_no_config_is_not_a_checkpoint(self, tmp_path):
        save_state([("x", np.zeros(2, dtype=np.float32))], str(tmp_path))
        with pytest.raises(FormatError, match="no config.txt"):
            load_checkpoint(str(tmp_path))

    def test_bad_config_names_the_file(self, tmp_path):
        save_checkpoint(build_lenet(seed=1), str(tmp_path))
        (tmp_path / CONFIG_NAME).write_text("arch=lenet\nrelu=yes\n")
        with pytest.raises(FormatError, match=f"{CONFIG_NAME}: bad relu"):
            load_checkpoint(str(tmp_path))


class TestPinnedConfig:
    """The config.txt bytes that the CLI's models save; literals pinned
    before ``ModelGraph.config`` replaced the separate config writer."""

    @pytest.mark.parametrize("model,flags,text", [
        ("lenet", (), "arch=lenet\nseed=0\nwidth_mult=1.0\nrelu=on\n"),
        ("lenet-kan", (),
         "arch=lenet_kan\nseed=0\nwidth_mult=1.0\nrelu=on\nfamily=bspline\n"
         "grid=5\ndegree=3\ndomain=-1.0,1.0\n"),
        ("lenet-kan-full", (),
         "arch=lenet_kan_full\nseed=0\nwidth_mult=1.0\nrelu=on\n"
         "family=bspline\ngrid=5\ndegree=3\ndomain=-1.0,1.0\n"),
        ("alexnet", (), "arch=alexnet\nseed=0\n"),
        ("alexnet-kan", (),
         "arch=alexnet_kan\nseed=0\nfamily=bspline\ngrid=5\ndegree=3\n"
         "domain=-1.0,1.0\n"),
        ("tabular-cnn", (), "arch=tabular_cnn\nseed=0\nn_features=875\n"
         "n_labels=206\n"),
        ("tabular-kan", (),
         "arch=tabular_kan\nseed=0\nfamily=bspline\ngrid=5\ndegree=3\n"
         "domain=-1.0,1.0\nn_features=875\nn_labels=206\n"),
        ("lenet-kan-full", ("--basis", "rbf", "--grid", "16"),
         "arch=lenet_kan_full\nseed=0\nwidth_mult=1.0\nrelu=on\nfamily=rbf\n"
         "grid=16\ndegree=0\ndomain=-2.0,2.0\n"),
        ("lenet-kan", ("--degree", "2", "--width-mult", "1.5", "--relu", "off"),
         "arch=lenet_kan\nseed=0\nwidth_mult=1.5\nrelu=off\nfamily=bspline\n"
         "grid=5\ndegree=2\ndomain=-1.0,1.0\n"),
        ("tabular-kan", ("--basis", "rbf"),
         "arch=tabular_kan\nseed=0\nfamily=rbf\ngrid=5\ndegree=0\n"
         "domain=-2.0,2.0\nn_features=875\nn_labels=206\n"),
    ])
    def test_config_bytes_of_cli_models(self, tmp_path, model, flags, text):
        from ckanbench import cli

        args = cli.build_parser().parse_args(["count", "--model", model, *flags])
        graph = cli._build_from_args(model, args)
        graph.state_items = list    # the config alone: no weights are drawn
        save_checkpoint(graph, str(tmp_path))
        assert (tmp_path / CONFIG_NAME).read_bytes() == text.encode()

"""IDX reading/writing, normalisation math, CSV joining, splits, subsets,
and the synthetic generators."""

import gzip
import importlib.util
import io
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import REPO_ROOT
from ckanbench.data import (MNIST_FILES, Dataset, _proportional_counts,
                            load_mnist_dir, load_mnist_idx, load_tabular_csv,
                            read_idx, split_dataset, subset_dataset,
                            synthetic_blobs, synthetic_digits,
                            synthetic_multilabel,
                            write_idx_images, write_idx_labels,
                            write_synthetic_mnist)
from ckanbench.errors import ConfigError, ConsistencyError, FormatError


class TestIdxRoundTrip:
    def test_images_bit_exact(self, tmp_path, rng):
        images = rng.integers(0, 256, size=(7, 28, 28), dtype=np.uint8)
        path = str(tmp_path / "imgs")
        write_idx_images(path, images)
        np.testing.assert_array_equal(read_idx(path), images)

    def test_labels_bit_exact(self, tmp_path, rng):
        labels = rng.integers(0, 10, size=31, dtype=np.uint8)
        path = str(tmp_path / "lbls")
        write_idx_labels(path, labels)
        np.testing.assert_array_equal(read_idx(path), labels)

    def test_gzip_transparent(self, tmp_path, rng):
        images = rng.integers(0, 256, size=(3, 4, 5), dtype=np.uint8)
        raw = str(tmp_path / "imgs")
        write_idx_images(raw, images)
        gz = raw + ".gz"
        with open(raw, "rb") as fh, gzip.open(gz, "wb") as out:
            out.write(fh.read())
        np.testing.assert_array_equal(read_idx(gz), images)

    def test_writer_validates_dtype(self, tmp_path):
        with pytest.raises(FormatError):
            write_idx_images(str(tmp_path / "x"), np.zeros((2, 3, 3)))
        with pytest.raises(FormatError):
            write_idx_labels(str(tmp_path / "y"),
                             np.zeros(4, dtype=np.int64))

    def test_wrong_magic_message_names_both(self, tmp_path):
        # feeding a label file where images are expected
        path = str(tmp_path / "lbls")
        write_idx_labels(path, np.zeros(4, dtype=np.uint8))
        with pytest.raises(FormatError, match="expected IDX magic 2051.*2049"):
            load_mnist_idx(path, path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "imgs"
        write_idx_images(str(path), np.zeros((2, 3, 3), dtype=np.uint8))
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(FormatError, match="payload"):
            read_idx(str(path))

    def test_unsupported_magic(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes((0x0D02).to_bytes(4, "big") + b"\0" * 8)
        with pytest.raises(FormatError, match="magic"):
            read_idx(str(path))


class TestMnistLoading:
    def test_normalization_math(self, tmp_path):
        images = np.zeros((2, 28, 28), dtype=np.uint8)
        images[0] = 255
        labels = np.array([1, 0], dtype=np.uint8)
        write_idx_images(str(tmp_path / "i"), images)
        write_idx_labels(str(tmp_path / "l"), labels)
        ds = load_mnist_idx(str(tmp_path / "i"), str(tmp_path / "l"))
        assert ds.inputs.shape == (2, 1, 28, 28)
        assert ds.inputs.dtype == np.float32
        assert ds.targets.dtype == np.int64
        np.testing.assert_allclose(ds.inputs[0, 0, 0, 0],
                                   (1.0 - 0.1307) / 0.3081, rtol=1e-6)
        np.testing.assert_allclose(ds.inputs[1, 0, 0, 0],
                                   -0.1307 / 0.3081, rtol=1e-6)
        raw = load_mnist_idx(str(tmp_path / "i"), str(tmp_path / "l"),
                             normalize=False)
        assert raw.inputs.max() == 1.0 and raw.inputs.min() == 0.0

    def test_count_mismatch(self, tmp_path):
        write_idx_images(str(tmp_path / "i"),
                         np.zeros((3, 4, 4), dtype=np.uint8))
        write_idx_labels(str(tmp_path / "l"),
                         np.zeros(2, dtype=np.uint8))
        with pytest.raises(ConsistencyError, match="3 images but 2 labels"):
            load_mnist_idx(str(tmp_path / "i"), str(tmp_path / "l"))

    def test_dir_loader_conventional_names(self, synth_dir):
        train = load_mnist_dir(synth_dir, "train")
        test = load_mnist_dir(synth_dir, "test")
        assert len(train) == 2000 and len(test) == 400
        assert train.inputs.shape[1:] == (1, 28, 28)
        with pytest.raises(ConfigError):
            load_mnist_dir(synth_dir, "validation")

    def test_dir_loader_missing_files(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_mnist_dir(str(tmp_path), "train")

    def test_fetch_script_checks_present_files(self, tmp_path, rng, capsys):
        # every file is already present, so fetch_one downloads nothing
        fetch = _load_fetch_script()
        _write_gz_corpus(tmp_path, rng)
        assert fetch.main(["--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "ok: train-images-idx3-ubyte -> shape (5, 28, 28)" in out
        assert "ok: t10k-labels-idx1-ubyte -> shape (3,)" in out

    def test_fetch_script_replaces_corrupt_files(self, tmp_path, rng,
                                                 monkeypatch, capsys):
        import urllib.error
        import urllib.request

        fetch = _load_fetch_script()
        good = _write_gz_corpus(tmp_path, rng)
        lbl = MNIST_FILES["test"][1] + ".gz"
        # a truncated payload that still decompresses: the FormatError case
        (tmp_path / lbl).write_bytes(gzip.compress(
            gzip.decompress(good[lbl])[:-1]))
        served = []

        def urlopen(url, timeout):
            served.append(url)
            name = url.rsplit("/", 1)[1]
            if len(served) == 1:
                return io.BytesIO(good[name][:-8])  # first mirror: cut short
            if len(served) == 2:
                raise urllib.error.URLError("mirror down")
            return io.BytesIO(good[name])

        monkeypatch.setattr(urllib.request, "urlopen", urlopen)
        assert fetch.main(["--out", str(tmp_path)]) == 0
        assert [u.rsplit("/", 1)[1] for u in served] == [lbl] * 3
        assert (tmp_path / lbl).read_bytes() == good[lbl]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(good)
        assert "ok: t10k-labels-idx1-ubyte -> shape (3,)" in \
            capsys.readouterr().out
        # the repaired directory is now complete: nothing is fetched again
        assert fetch.main(["--out", str(tmp_path)]) == 0
        assert len(served) == 3

    def test_fetch_script_keeps_no_corrupt_download(self, tmp_path, rng,
                                                    monkeypatch):
        import urllib.request

        fetch = _load_fetch_script()
        good = _write_gz_corpus(tmp_path, rng)
        lbl = MNIST_FILES["test"][1] + ".gz"
        (tmp_path / lbl).unlink()

        def urlopen(url, timeout):
            # every mirror serves a download cut short
            return io.BytesIO(good[url.rsplit("/", 1)[1]][:-8])

        monkeypatch.setattr(urllib.request, "urlopen", urlopen)
        with pytest.raises(SystemExit, match="all mirrors failed"):
            fetch.main(["--out", str(tmp_path)])
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            sorted(set(good) - {lbl})


def _load_fetch_script():
    spec = importlib.util.spec_from_file_location(
        "fetch_mnist", os.path.join(REPO_ROOT, "scripts", "fetch_mnist.py"))
    fetch = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fetch)
    return fetch


def _write_gz_corpus(tmp_path, rng) -> dict[str, bytes]:
    """Gzipped IDX files under the MNIST names (5 train, 3 test samples);
    returns each file's bytes by name."""
    blobs = {}
    for split, n in (("train", 5), ("test", 3)):
        img_name, lbl_name = MNIST_FILES[split]
        write_idx_images(str(tmp_path / img_name),
                         rng.integers(0, 256, (n, 28, 28), dtype=np.uint8))
        write_idx_labels(str(tmp_path / lbl_name),
                         rng.integers(0, 10, n, dtype=np.uint8))
        for name in (img_name, lbl_name):
            raw = tmp_path / name
            with gzip.open(str(raw) + ".gz", "wb") as out:
                out.write(raw.read_bytes())
            raw.unlink()
            blobs[name + ".gz"] = (tmp_path / (name + ".gz")).read_bytes()
    return blobs


class TestTabularCsv:
    def _write(self, tmp_path, feat_lines, targ_lines):
        fpath = tmp_path / "features.csv"
        tpath = tmp_path / "targets.csv"
        fpath.write_text("\n".join(feat_lines) + "\n")
        tpath.write_text("\n".join(targ_lines) + "\n")
        return str(fpath), str(tpath)

    def test_golden_small_table(self, tmp_path):
        fpath, tpath = self._write(
            tmp_path,
            ["id,age,color", "a,10,red", "b,20,blue", "c,30,red"],
            ["id,l1,l2", "a,1,0", "b,0,0", "c,1,1"])
        ds = load_tabular_csv(fpath, tpath)
        # age standardised: mean 20, std sqrt(200/3)
        std = np.sqrt(np.mean(([10, 20, 30] - np.mean([10, 20, 30])) ** 2))
        np.testing.assert_allclose(ds.inputs[:, 0],
                                   (np.array([10, 20, 30]) - 20) / std,
                                   rtol=1e-6)
        # one-hot over sorted categories [blue, red]
        np.testing.assert_array_equal(ds.inputs[:, 1:],
                                      [[0, 1], [1, 0], [0, 1]])
        np.testing.assert_array_equal(ds.targets,
                                      [[1, 0], [0, 0], [1, 1]])
        assert ds.meta["feature_names"] == ["age", "color=blue", "color=red"]
        assert ds.meta["label_names"] == ["l1", "l2"]

    def test_constant_column_becomes_zero(self, tmp_path):
        fpath, tpath = self._write(
            tmp_path,
            ["id,c", "a,5", "b,5"],
            ["id,l", "a,0", "b,1"])
        ds = load_tabular_csv(fpath, tpath)
        np.testing.assert_array_equal(ds.inputs[:, 0], [0.0, 0.0])

    def test_join_follows_feature_order(self, tmp_path):
        fpath, tpath = self._write(
            tmp_path,
            ["id,v", "b,1", "a,2"],
            ["id,l", "a,1", "b,0"])
        ds = load_tabular_csv(fpath, tpath)
        np.testing.assert_array_equal(ds.targets[:, 0], [0, 1])

    def test_error_bad_number(self, tmp_path):
        fpath, tpath = self._write(
            tmp_path,
            ["id,v", "a,1.5", "b,oops"],
            ["id,l", "a,0", "b,1"])
        with pytest.raises(FormatError, match="row 3, column 'v'"):
            load_tabular_csv(fpath, tpath)

    def test_error_ragged_row(self, tmp_path):
        fpath, tpath = self._write(
            tmp_path,
            ["id,v", "a,1,9", "b,2"],
            ["id,l", "a,0", "b,1"])
        with pytest.raises(FormatError, match="line 2: expected 2 fields"):
            load_tabular_csv(fpath, tpath)

    def test_error_quoted_field(self, tmp_path):
        fpath, tpath = self._write(
            tmp_path,
            ['id,v', 'a,"1"'],
            ["id,l", "a,0"])
        with pytest.raises(FormatError, match="quoted"):
            load_tabular_csv(fpath, tpath)

    def test_error_duplicate_target_id(self, tmp_path):
        fpath, tpath = self._write(
            tmp_path,
            ["id,v", "a,1"],
            ["id,l", "a,0", "a,1"])
        with pytest.raises(ConsistencyError, match="duplicate id"):
            load_tabular_csv(fpath, tpath)

    def test_error_missing_target_id(self, tmp_path):
        fpath, tpath = self._write(
            tmp_path,
            ["id,v", "a,1", "b,2"],
            ["id,l", "a,0"])
        with pytest.raises(ConsistencyError, match="no row"):
            load_tabular_csv(fpath, tpath)

    def test_error_nonbinary_target(self, tmp_path):
        fpath, tpath = self._write(
            tmp_path,
            ["id,v", "a,1"],
            ["id,l", "a,2"])
        with pytest.raises(FormatError, match="0 or 1"):
            load_tabular_csv(fpath, tpath)

    def test_error_empty_file(self, tmp_path):
        fpath = tmp_path / "f.csv"
        fpath.write_text("")
        tpath = tmp_path / "t.csv"
        tpath.write_text("id,l\na,0\n")
        with pytest.raises(FormatError, match="empty"):
            load_tabular_csv(str(fpath), str(tpath))


class TestSplits:
    def test_stratified_within_one(self):
        ds = synthetic_blobs(300, classes=3, dim=4, seed=0)
        train, val = split_dataset(ds, 0.2, seed=1)
        assert len(train) + len(val) == 300
        for cls in range(3):
            n_val = int((val.targets == cls).sum())
            assert abs(n_val - 0.2 * 100) <= 1

    def test_split_disjoint_and_complete(self):
        ds = synthetic_blobs(120, classes=4, dim=3, seed=2)
        # tag every sample uniquely through the feature vector
        ds.inputs[:, 0] = np.arange(120)
        train, val = split_dataset(ds, 0.25, seed=3)
        tags = np.concatenate([train.inputs[:, 0], val.inputs[:, 0]])
        assert sorted(tags.tolist()) == list(range(120))

    def test_split_deterministic(self):
        ds = synthetic_blobs(100, classes=2, dim=2, seed=4)
        a = split_dataset(ds, 0.3, seed=7)
        b = split_dataset(ds, 0.3, seed=7)
        np.testing.assert_array_equal(a[0].inputs, b[0].inputs)
        np.testing.assert_array_equal(a[1].targets, b[1].targets)

    def test_split_validates_fraction(self):
        ds = synthetic_blobs(30, classes=3, dim=2)
        for bad in (0.0, 1.0, -0.2):
            with pytest.raises(ConfigError):
                split_dataset(ds, bad)

    def test_multilabel_split_unstratified(self):
        ds = synthetic_multilabel(80, n_features=5, n_labels=3, seed=1)
        train, val = split_dataset(ds, 0.25, seed=2)
        assert len(val) == 20 and len(train) == 60


class TestSubset:
    def test_proportional_counts(self):
        ds = synthetic_blobs(1000, classes=10, dim=2, seed=0)
        sub = subset_dataset(ds, 333, seed=1)
        assert len(sub) == 333
        counts = np.bincount(sub.targets, minlength=10)
        assert all(abs(c - 33.3) <= 1 for c in counts)

    @settings(max_examples=200, deadline=None)
    @given(sizes=st.lists(st.integers(1, 5000), min_size=1, max_size=12),
           data=st.data())
    def test_counts_are_proportional_and_sum_to_n(self, sizes, data):
        # unequal classes; the counts need no repair to reach n
        sizes = np.array(sizes)
        total = int(sizes.sum())
        n = data.draw(st.integers(1, total))
        counts = _proportional_counts(sizes, n / total)
        assert counts.sum() == n
        assert ((counts >= 0) & (counts <= sizes)).all()
        assert (np.abs(counts - sizes * (n / total)) <= 1).all()

    def test_full_size_is_identity(self):
        ds = synthetic_blobs(50, classes=5, dim=2, seed=0)
        assert subset_dataset(ds, 50) is ds

    def test_deterministic(self):
        ds = synthetic_blobs(200, classes=4, dim=2, seed=3)
        a = subset_dataset(ds, 77, seed=9)
        b = subset_dataset(ds, 77, seed=9)
        np.testing.assert_array_equal(a.inputs, b.inputs)

    def test_range_validation(self):
        ds = synthetic_blobs(20, classes=2, dim=2)
        for bad in (0, 21, -3):
            with pytest.raises(ConfigError):
                subset_dataset(ds, bad)


class TestSynthetics:
    def test_blob_centers_separated(self):
        ds = synthetic_blobs(60, classes=4, dim=5, seed=6)
        centers = np.stack([ds.inputs[ds.targets == c].mean(axis=0)
                            for c in range(4)])
        diffs = centers[:, None] - centers[None, :]
        dist = np.sqrt((diffs ** 2).sum(-1))
        np.fill_diagonal(dist, np.inf)
        assert dist.min() > 2.0   # spread 0.15 around distance-3 centers

    def test_blob_label_balance(self):
        ds = synthetic_blobs(90, classes=3, dim=2, seed=0)
        np.testing.assert_array_equal(np.bincount(ds.targets), [30, 30, 30])

    def test_multilabel_prevalence(self):
        ds = synthetic_multilabel(400, n_features=6, n_labels=4, seed=2,
                                  prevalence=0.3)
        rates = ds.targets.mean(axis=0)
        assert np.all(np.abs(rates - 0.3) < 0.02)
        assert set(np.unique(ds.targets)) <= {0.0, 1.0}

    def test_digit_images_shape_and_range(self):
        images, labels = synthetic_digits(40, seed=1)
        assert images.shape == (40, 28, 28) and images.dtype == np.uint8
        assert labels.shape == (40,) and labels.dtype == np.uint8
        assert set(labels.tolist()) == set(range(10))
        assert images.max() > 100   # glyphs actually drawn

    def test_digit_classes_look_distinct(self):
        # translation-aware template matching must nearly always recover
        # the label on low-noise digits; guards against degenerate or
        # colliding glyphs (placement jitter rules out nearest-mean)
        from ckanbench.data import _GLYPHS
        images, labels = synthetic_digits(200, seed=3, noise=0.02)
        x = images.astype(np.float64).reshape(200, -1) / 255.0
        glyphs = np.array([[[float(c) for c in row] for row in _GLYPHS[d]]
                           for d in range(10)])
        big = np.kron(glyphs, np.ones((4, 4)))           # [10,20,12]
        shifted = np.zeros((10, 7 * 9, 28 * 28))
        for d in range(10):
            k = 0
            for top in range(1, 8):
                for left in range(4, 13):
                    canvas = np.zeros((28, 28))
                    canvas[top:top + 20, left:left + 12] = big[d]
                    norm = np.linalg.norm(canvas)
                    shifted[d, k] = canvas.ravel() / norm
                    k += 1
        scores = np.einsum("np,dsp->nds", x, shifted).max(axis=2)
        pred = scores.argmax(axis=1)
        assert (pred == labels).mean() > 0.95

    def test_write_synthetic_mnist_layout(self, tmp_path):
        write_synthetic_mnist(str(tmp_path), n_train=30, n_test=10, seed=0)
        train = load_mnist_dir(str(tmp_path), "train")
        test = load_mnist_dir(str(tmp_path), "test")
        assert len(train) == 30 and len(test) == 10

    def test_dataset_take(self):
        ds = synthetic_blobs(10, classes=2, dim=2, seed=0)
        sub = ds.take(np.array([3, 1]), name="picked")
        assert sub.name == "picked" and len(sub) == 2
        np.testing.assert_array_equal(sub.inputs, ds.inputs[[3, 1]])

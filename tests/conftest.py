"""Shared fixtures: RNG, a session-scoped synthetic IDX corpus, and
discovery of the real handwritten-digit corpus when it is on disk."""

from __future__ import annotations

import os

import numpy as np
import pytest

from ckanbench.data import MNIST_FILES, load_mnist_dir, write_synthetic_mnist

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MNIST_ENV = "CKANBENCH_MNIST"
FETCH_HINT = ("real MNIST not found; set $CKANBENCH_MNIST or run "
              "scripts/fetch_mnist.py --out data/mnist on a networked machine")


def find_mnist_dir():
    candidates = []
    if os.environ.get(MNIST_ENV):
        candidates.append(os.environ[MNIST_ENV])
    candidates.append(os.path.join(REPO_ROOT, "data", "mnist"))
    for cand in candidates:
        if not cand or not os.path.isdir(cand):
            continue
        names = MNIST_FILES["train"] + MNIST_FILES["test"]
        if all(os.path.exists(os.path.join(cand, n))
               or os.path.exists(os.path.join(cand, n + ".gz"))
               for n in names):
            return cand
    return None


def pytest_collection_modifyitems(config, items):
    if find_mnist_dir() is not None:
        return
    skip = pytest.mark.skip(reason=FETCH_HINT)
    for item in items:
        if "mnist" in item.keywords:
            item.add_marker(skip)


@pytest.fixture()
def rng():
    return np.random.default_rng(42)


@pytest.fixture()
def forced_split(monkeypatch):
    """Every convolution call of two or more sample blocks splits into
    halves of the batch, on any core count, each half mapping and
    convolving its own samples; linear layers still never split.  Skips
    where OpenBLAS cannot be held to one thread, since the layers split no
    call there."""
    import ckanbench.layers as layers_mod

    if layers_mod._blas_threads() is None:
        pytest.skip("the loaded BLAS exports no OpenBLAS thread-count setter")
    monkeypatch.setattr(layers_mod, "SPLIT_MACS", 0)
    monkeypatch.setattr(layers_mod, "_cores", lambda: 2)


@pytest.fixture(scope="session")
def synth_dir(tmp_path_factory):
    """Directory with a procedural digit corpus in the real IDX layout."""
    path = tmp_path_factory.mktemp("synth-idx")
    write_synthetic_mnist(str(path), n_train=2000, n_test=400, seed=11)
    return str(path)


@pytest.fixture(scope="session")
def synth_train_val(synth_dir):
    return (load_mnist_dir(synth_dir, "train"),
            load_mnist_dir(synth_dir, "test"))


@pytest.fixture(scope="session")
def mnist_dir():
    path = find_mnist_dir()
    if path is None:
        pytest.skip(FETCH_HINT)
    return path

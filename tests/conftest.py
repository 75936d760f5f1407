"""Shared helpers: finite-difference gradient checking, max pooling as a
layer of its own, tiny datasets and interrupted file writes; the report
header names what float results depend on."""

import os
from pathlib import Path

import numpy as np
import pytest

from noisebench import FeatureConfig, gen_synthetic_dataset
from noisebench.layers import max_pool, max_unpool, pool_offsets, pooled_shape


def machine_facts():
    """numpy, its BLAS and the cores and thread settings BLAS runs with:
    float sums, and so criterion 6's numbers, move with the thread count."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = ", ".join(f"{name}={os.environ.get(name, 'unset')}"
                        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))
    return (f"numpy {np.__version__}, BLAS {blas.get('name')} {blas.get('version')}, "
            f"{len(os.sched_getaffinity(0))} usable cores, {threads}")


def pytest_report_header(config):
    return machine_facts()


def pytest_terminal_summary(terminalreporter, config):
    # -q hides the report header; print the facts at the end instead.
    if config.get_verbosity() < 0:
        terminalreporter.write_line(machine_facts())


def finite_difference(f, x, step=1e-5):
    """Central finite differences of the scalar function f with respect to
    the array x, evaluated by mutating x in place."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat_x = x.reshape(-1)
    flat_g = grad.reshape(-1)
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + step
        hi = f()
        flat_x[i] = orig - step
        lo = f()
        flat_x[i] = orig
        flat_g[i] = (hi - lo) / (2.0 * step)
    return grad


def relative_error(a, b):
    scale = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
    return float(np.abs(a - b).max() / scale)


class Pool:
    """Max pooling of NHWC arrays through ``max_pool`` and ``max_unpool``
    with a layer's forward, backward and params, so pooling on its own
    takes the layer gradient checks; the network pools only in its convs."""

    def __init__(self, size):
        self.size = size

    def forward(self, x, train):
        out = np.empty(pooled_shape(x.shape, self.size, "pool"), dtype=x.dtype)
        self.offsets = pool_offsets(out.shape, self.size) if train else None
        self.shape = x.shape
        return max_pool(x, self.size, out, self.offsets)

    def backward(self, grad):
        out = np.empty(self.shape, dtype=grad.dtype)
        return max_unpool(self.offsets, grad, self.size, out)

    def params(self):
        return []


def random_simplex(rng, n, k):
    """n random points on the k-simplex (flat Dirichlet)."""
    return rng.dirichlet(np.ones(k), size=n)


@pytest.fixture(scope="session")
def toy_feature_config():
    return FeatureConfig(sample_rate=4000, fft_size=256, hop=128, n_mels=24)


@pytest.fixture(scope="session")
def toy_dataset():
    """Small 3-class synthetic dataset shared by read-only tests."""
    return gen_synthetic_dataset(
        n_classes=3, clips_per_class=12, clean_fraction=0.25, sample_rate=4000, seed=11
    )


class _WriteFails:
    """A binary file handle whose second write raises after the first one
    reached the file: a writer interrupted part way. A writer that makes
    one write only (or one flush, through a text wrapper) fails when the
    handle is closed instead."""

    def __init__(self, fh):
        self._fh = fh
        self._writes = 0

    def __getattr__(self, name):
        return getattr(self._fh, name)  # readable, tell, flush, ...

    def write(self, data):
        self._writes += 1
        if self._writes > 1:
            raise OSError("interrupted write")
        return self._fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *exc):
        self._fh.close()
        if exc_type is None:
            raise OSError("interrupted write")


@pytest.fixture
def interrupt_writes(monkeypatch):
    """A call that makes every file opened through Path.open for binary
    writing, from then on, fail part way; with ``part``, only the files
    whose name contains it."""
    real_open = Path.open

    def start(part=""):
        def open_(self, mode="r", *args, **kwargs):
            fh = real_open(self, mode, *args, **kwargs)
            return _WriteFails(fh) if "w" in mode and "b" in mode and part in self.name else fh

        monkeypatch.setattr(Path, "open", open_)

    return start

"""Layer forward semantics, analytic gradients, and the baseline network.

Layers take channels-last (N, H, W, C) inputs; the network takes
(N, 1, H, W). Every backward pass is checked against central finite
differences in float64; the scalar probe is sum(forward(x) * r) for a fixed
random r.
"""

from pathlib import Path

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from noisebench import build_baseline, layers, load_checkpoint, save_checkpoint
from noisebench.errors import ConfigError
from noisebench.layers import (
    BatchNorm,
    Conv2d,
    Dense,
    MaxPool,
    ReLU,
    Softmax,
    _channel_mean,
    im2col_bytes,
)

from conftest import finite_difference, relative_error

GRAD_TOL = 1e-4
DATA = Path(__file__).parent / "data"


def layer_gradcheck(make_layer, x_shape, seed, train=True):
    """Check input and parameter gradients of a layer on one random input."""
    rng = np.random.default_rng(seed)
    layer = make_layer(rng)
    x = rng.standard_normal(x_shape)
    probe = rng.standard_normal(layer.forward(x.copy(), train).shape)

    def loss():
        return float((layer.forward(x, train) * probe).sum())

    loss()  # populate the cache
    for p in layer.params():
        p.grad[...] = 0
    analytic_dx = layer.backward(probe)
    fd_dx = finite_difference(loss, x)
    assert relative_error(analytic_dx, fd_dx) < GRAD_TOL
    for p in layer.params():
        fd_dp = finite_difference(loss, p.value)
        assert relative_error(p.grad, fd_dp) < GRAD_TOL, p.name


class TestReLU:
    def test_definition(self):
        out = ReLU().forward(np.array([[-1.0, 0.0, 2.0]]), train=False)
        np.testing.assert_array_equal(out, [[0.0, 0.0, 2.0]])

    def test_backward_gates_upstream(self):
        layer = ReLU()
        layer.forward(np.array([-1.0, 2.0]), train=True)
        np.testing.assert_array_equal(layer.backward(np.array([5.0, 5.0])), [0.0, 5.0])

    def test_gradcheck(self):
        for seed in range(5):
            layer_gradcheck(lambda rng: ReLU(), (3, 4, 5, 2), seed)

    def test_backward_without_forward(self):
        with pytest.raises(RuntimeError):
            ReLU().backward(np.ones(3))


class TestConv2d:
    def test_identity_kernel(self):
        layer = Conv2d(1, 1, 1, "same", dtype=np.float64)
        layer.weight.value[...] = 1.0
        layer.bias.value[...] = 0.0
        x = np.random.default_rng(0).standard_normal((2, 5, 7, 1))
        np.testing.assert_allclose(layer.forward(x, train=False), x)

    def test_shape_mismatch_reports_shapes(self):
        layer = Conv2d(3, 4, 3)
        with pytest.raises(ValueError, match=r"\(2, 5, 5, 1\)"):
            layer.forward(np.zeros((2, 5, 5, 1), dtype=np.float32), train=False)

    # Two input channels take the general column layout, one channel the
    # transposed one; the two-channel cases keep their unsuffixed ids.
    @pytest.mark.parametrize("padding,channels", [
        pytest.param(padding, channels, id=padding if channels == 2 else f"{padding}-1ch")
        for channels in (2, 1) for padding in ("same", "valid")
    ])
    def test_gradcheck(self, padding, channels):
        for seed in range(5):
            layer_gradcheck(
                lambda rng: Conv2d(channels, 3, 3, padding, rng, np.float64),
                (2, 6, 7, channels),
                seed,
            )


def conv_step(layer, x, probe):
    """Output, input gradient and parameter gradients of one training step."""
    out = layer.forward(x, train=True)
    for p in layer.params():
        p.grad[...] = 0
    dx = layer.backward(probe)
    return [out, dx, layer.weight.grad.copy(), layer.bias.grad.copy()]


class TestConv2dSlices:
    """A batch of 5 under a column budget of two samples runs as slices of
    2, 2 and 1 samples; the default budget takes it in one slice."""

    X_SHAPE = (5, 6, 7, 2)

    def two_sample_budget(self, monkeypatch, layer):
        per_sample = im2col_bytes([layer], *self.X_SHAPE[1:3], 8)
        monkeypatch.setattr(layers, "COLS_BYTES", 2 * per_sample)

    @pytest.mark.parametrize("padding", ["same", "valid"])
    def test_slices_match_one_slice(self, monkeypatch, padding):
        rng = np.random.default_rng(21)
        x = rng.standard_normal(self.X_SHAPE)
        layer = Conv2d(self.X_SHAPE[3], 3, 3, padding, rng, np.float64)
        probe = rng.standard_normal(layer.forward(x, train=False).shape)
        whole = conv_step(layer, x, probe)
        self.two_sample_budget(monkeypatch, layer)
        sliced = conv_step(layer, x, probe)
        for a, b in zip(whole, sliced):
            assert a.shape == b.shape
            assert np.abs(a - b).max() < 1e-12

    @pytest.mark.parametrize("padding", ["same", "valid"])
    def test_gradcheck(self, monkeypatch, padding):
        self.two_sample_budget(monkeypatch, Conv2d(self.X_SHAPE[3], 3, 3, padding))
        for seed in range(3):
            layer_gradcheck(lambda rng: Conv2d(self.X_SHAPE[3], 3, 3, padding, rng, np.float64),
                            self.X_SHAPE, seed)

    def test_training_cache_holds_at_most_the_budget(self, monkeypatch):
        layer = Conv2d(self.X_SHAPE[3], 3, 3, "same", dtype=np.float64)
        self.two_sample_budget(monkeypatch, layer)
        layer.forward(np.random.default_rng(22).standard_normal(self.X_SHAPE), train=True)
        assert layer._slices(layer._cache[0])[2] == [(0, 2), (2, 4), (4, 5)]
        cached = [a for a in layer._cache if isinstance(a, np.ndarray)]
        assert cached
        assert max(a.nbytes for a in cached) <= layers.COLS_BYTES


class TestConv2dSlicesOneChannel(TestConv2dSlices):
    """The same checks on a one-channel input, whose columns are built
    transposed from shifted input rows."""

    X_SHAPE = (5, 6, 7, 1)


def general_column_step(layer, x, probe, samples_per_slice):
    """Output, input, weight and bias gradients of ``layer`` on ``x``,
    computed from contiguous (rows, kh*kw*C) im2col columns with the
    layer's own slicing and order of sums."""
    w, bias = layer.weight.value, layer.bias.value
    f, c, kh, kw = w.shape
    p = layer.pad
    x_pad = np.pad(x, ((0, 0), (p, p), (p, p), (0, 0)))
    b, ho, wo, _ = probe.shape
    w_mat = w.transpose(2, 3, 1, 0).reshape(-1, f)
    g_mat = probe.reshape(-1, f)
    out = np.empty((b * ho * wo, f), dtype=x.dtype)
    dw = np.zeros_like(w)
    dx = np.zeros_like(x_pad)
    for s in range(0, b, samples_per_slice):
        e = min(s + samples_per_slice, b)
        windows = sliding_window_view(x_pad[s:e], (kh, kw), axis=(1, 2))
        cols = np.ascontiguousarray(windows.transpose(0, 1, 2, 4, 5, 3)).reshape(-1, kh * kw * c)
        g = g_mat[s * ho * wo : e * ho * wo]
        out[s * ho * wo : e * ho * wo] = cols @ w_mat
        dw += (cols.T @ g).reshape(kh, kw, c, f).transpose(3, 2, 0, 1)
        for i in range(kh):
            for j in range(kw):
                dx[s:e, i : i + ho, j : j + wo, :] += (g @ w[:, :, i, j]).reshape(e - s, ho, wo, c)
    out += bias
    dx = dx[:, p : x_pad.shape[1] - p, p : x_pad.shape[2] - p, :] if p else dx
    return [out.reshape(b, ho, wo, f), dx, dw, g_mat.sum(axis=0)]


class TestOneChannelColumns:
    """The transposed one-channel columns change the memory layout, not the
    arithmetic: every float32 result equals the general layout's bit for
    bit at desk (kernel 3, 6 filters) and paper (kernel 5, 32 filters)
    widths, for a desk batch of 64 in one slice or three, and for small
    batches of 3 and 7 samples, so a later edit that reorders these sums
    fails here."""

    @pytest.mark.parametrize("kernel,padding,filters", [
        (3, "same", 6), (3, "valid", 6), (5, "same", 32)])
    @pytest.mark.parametrize("batch,per_slice", [(64, 64), (64, 22), (3, 3), (7, 3)])
    def test_bits_match_general_columns(self, monkeypatch, kernel, padding, filters,
                                        batch, per_slice):
        rng = np.random.default_rng(31)
        x = rng.standard_normal((batch, 24, 50, 1)).astype(np.float32)
        layer = Conv2d(1, filters, kernel, padding, rng, np.float32)
        layer.bias.value[...] = rng.standard_normal(filters)
        probe = rng.standard_normal(layer.forward(x, train=False).shape).astype(np.float32)
        monkeypatch.setattr(layers, "COLS_BYTES", per_slice * im2col_bytes([layer], 24, 50, 4))
        got = conv_step(layer, x, probe)
        want = general_column_step(layer, x, probe, per_slice)
        for name, a, b in zip(["output", "input grad", "weight grad", "bias grad"], got, want):
            assert a.dtype == np.float32, name
            assert np.array_equal(a, b), name


class TestBatchNorm:
    def test_train_output_moments(self):
        # Before the affine part (gamma=1, beta=0) each channel of the batch
        # should be normalized to zero mean and unit variance.
        rng = np.random.default_rng(3)
        layer = BatchNorm(4, dtype=np.float64)
        x = 2.0 + 3.0 * rng.standard_normal((64, 5, 6, 4))
        out = layer.forward(x, train=True)
        mean = out.mean(axis=(0, 1, 2))
        var = out.var(axis=(0, 1, 2))
        assert np.abs(mean).max() < 1e-6
        assert np.abs(var - 1.0).max() < 1e-4

    def test_float32_batch_mean_of_a_paper_sized_batch(self):
        # 132k values per channel, as at the second paper-shape stage: the
        # normalized output must still have zero mean to float32 precision,
        # which row-by-row float32 sums (an error near 2e-5) would miss.
        rng = np.random.default_rng(3)
        x = (5.0 + rng.standard_normal((64, 48, 43, 4))).astype(np.float32)
        out = BatchNorm(4).forward(x, train=True)
        assert out.dtype == np.float32
        assert np.abs(out.astype(np.float64).mean(axis=(0, 1, 2))).max() < 1e-6

    # The input shapes of bn1 and bn2 at desk shape, then of bn2 at paper shape.
    @pytest.mark.parametrize("shape", [(64, 24, 50, 1), (64, 12, 25, 6)], ids=["bn1", "bn2"])
    def test_channel_mean_has_the_bits_of_a_plain_reduction(self, shape):
        x = np.random.default_rng(5).standard_normal(shape).astype(np.float32)
        assert np.array_equal(_channel_mean(x), x.mean(axis=(0, 1, 2), dtype=np.float64))

    def test_channel_mean_of_a_paper_sized_batch_rounds_to_the_same_float32(self):
        # 132k values per channel: here either grouping may round the last
        # float64 bit (it does in one of the 32 channels of this input), and
        # the layer's float32 casts must not see it.
        x = np.random.default_rng(5).standard_normal((64, 48, 43, 32)).astype(np.float32)
        plain = x.mean(axis=(0, 1, 2), dtype=np.float64)
        folded = _channel_mean(x)
        assert np.abs(folded - plain).max() <= np.spacing(np.abs(plain)).max()
        assert np.array_equal(folded.astype(np.float32), plain.astype(np.float32))

    def test_inference_uses_running_stats_and_is_batch_size_independent(self):
        rng = np.random.default_rng(4)
        layer = BatchNorm(3, dtype=np.float64)
        for _ in range(20):
            layer.forward(rng.standard_normal((16, 4, 4, 3)), train=True)
        x = rng.standard_normal((8, 4, 4, 3))
        full = layer.forward(x, train=False)
        split = np.concatenate(
            [layer.forward(x[i : i + 1], train=False) for i in range(8)]
        )
        np.testing.assert_allclose(full, split, rtol=0, atol=1e-12)

    def test_gradcheck(self):
        for seed in range(5):
            layer_gradcheck(
                lambda rng: BatchNorm(3, dtype=np.float64), (8, 4, 5, 3), seed
            )


class TestMaxPool:
    def test_window_max_and_floor_crop(self):
        x = np.arange(2 * 1 * 5 * 5, dtype=np.float64).reshape(2, 5, 5, 1)
        out = MaxPool(2).forward(x, train=False)
        assert out.shape == (2, 2, 2, 1)
        assert out[0, 0, 0, 0] == x[0, 1, 1, 0]

    def test_gradcheck(self):
        for seed in range(5):
            layer_gradcheck(lambda rng: MaxPool(2), (2, 6, 8, 3), seed)

    def test_ties_route_to_first_element_in_window_order(self):
        # On a constant input every element of every window is a maximum;
        # each window must send its whole upstream gradient to exactly one
        # element, the first in row-major window order (top-left).
        layer = MaxPool(2)
        x = np.full((2, 5, 7, 3), 1.5)
        layer.forward(x, train=True)
        upstream = np.random.default_rng(8).standard_normal((2, 2, 3, 3))
        dx = layer.backward(upstream)
        expected = np.zeros_like(x)
        expected[:, 0:4:2, 0:6:2, :] = upstream
        np.testing.assert_array_equal(dx, expected)


class TestDense:
    def test_gradcheck(self):
        for seed in range(5):
            layer_gradcheck(
                lambda rng: Dense(24, 5, rng, np.float64), (3, 3, 4, 2), seed
            )


class TestSoftmax:
    def test_rows_are_a_probability_simplex(self):
        rng = np.random.default_rng(5)
        out = Softmax().forward(100.0 * rng.standard_normal((32, 20)), train=False)
        assert np.all(out >= 0)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-6)

    def test_gradcheck(self):
        for seed in range(5):
            layer_gradcheck(lambda rng: Softmax(), (4, 6), seed)


class TestBaseline:
    def test_parameter_budget(self):
        net = build_baseline(96, 86, 20)
        assert 400_000 <= net.param_count() <= 600_000

    def test_param_count_is_a_pure_function_of_dims(self):
        a = build_baseline(96, 86, 20, seed=1).param_count()
        b = build_baseline(96, 86, 20, seed=99).param_count()
        assert a == b

    def test_output_simplex(self):
        net = build_baseline(16, 16, 5, channels=(3, 4, 5), seed=2)
        x = np.random.default_rng(2).standard_normal((6, 1, 16, 16)).astype(np.float32)
        out = net.forward(x, train=False)
        assert out.shape == (6, 5)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-6)

    def test_input_too_small_for_pooling(self):
        with pytest.raises(ConfigError):
            build_baseline(4, 4, 3)

    def test_end_to_end_gradcheck(self):
        # Scalar cross-entropy of the softmax output against class 0,
        # differentiated through the whole network to a conv weight.
        rng = np.random.default_rng(7)
        net = build_baseline(8, 8, 3, channels=(2, 3, 4), seed=7, dtype=np.float64)
        x = rng.standard_normal((4, 1, 8, 8))

        def loss():
            probs = net.forward(x, train=True)
            return float(-np.log(np.maximum(probs[:, 0], 1e-12)).sum())

        probs = net.forward(x, train=True)
        grad = np.zeros_like(probs)
        grad[:, 0] = -1.0 / np.maximum(probs[:, 0], 1e-12)
        net.zero_grads()
        net.backward(grad)
        conv_w = next(p for p in net.params() if p.name == "conv2.weight")
        sub = [tuple(idx) for idx in np.ndindex(*conv_w.value.shape)][::7]
        for idx in sub[:12]:
            orig = conv_w.value[idx]
            conv_w.value[idx] = orig + 1e-5
            hi = loss()
            conv_w.value[idx] = orig - 1e-5
            lo = loss()
            conv_w.value[idx] = orig
            fd = (hi - lo) / 2e-5
            denom = max(abs(fd), abs(conv_w.grad[idx]), 1e-8)
            assert abs(fd - conv_w.grad[idx]) / denom < 1e-3


class TestCheckpoint:
    def test_roundtrip_restores_outputs(self, tmp_path):
        net = build_baseline(16, 16, 4, channels=(3, 4, 5), seed=9)
        x = np.random.default_rng(9).standard_normal((3, 1, 16, 16)).astype(np.float32)
        net.forward(x, train=True)  # move the running stats off their init
        before = net.forward(x, train=False)
        extra = {"standardizer_mean": np.arange(16, dtype=np.float32)}
        save_checkpoint(tmp_path / "net.nbc", net, {"epoch": 3}, extra)
        restored, meta, arrays = load_checkpoint(tmp_path / "net.nbc")
        assert meta == {"epoch": 3}
        np.testing.assert_array_equal(arrays["standardizer_mean"], extra["standardizer_mean"])
        np.testing.assert_array_equal(restored.forward(x, train=False), before)

    def test_checkpoint_from_the_nchw_layers_predicts_the_same(self):
        # Written before the layers went channels-last: build_baseline(16, 12,
        # 4, channels=(3, 4, 5), seed=9) with rescaled weights and moved
        # running stats, saved with an input and the float32 probabilities
        # that code predicted for it as extra arrays.
        net, meta, extra = load_checkpoint(DATA / "nchw_checkpoint.nbc")
        assert meta == {"written_by": "NCHW layers"}
        probs = net.forward(extra["input"], train=False)
        np.testing.assert_allclose(probs, extra["probs"], rtol=0, atol=1e-6)
        np.testing.assert_array_equal(probs.argmax(axis=1), extra["probs"].argmax(axis=1))

    def test_interrupted_write_keeps_the_previous_file(self, tmp_path, interrupt_writes):
        path = tmp_path / "net.nbc"
        save_checkpoint(path, build_baseline(16, 16, 4, channels=(3, 4, 5), seed=9))
        before = path.read_bytes()
        interrupt_writes()
        with pytest.raises(OSError, match="interrupted"):
            save_checkpoint(path, build_baseline(16, 16, 4, channels=(3, 4, 5), seed=10))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["net.nbc"]

    def test_interrupted_first_write_leaves_no_file(self, tmp_path, interrupt_writes):
        interrupt_writes()
        with pytest.raises(OSError, match="interrupted"):
            save_checkpoint(tmp_path / "ckpt" / "net.nbc", build_baseline(16, 16, 4, seed=9))
        assert list((tmp_path / "ckpt").iterdir()) == []

    def test_rejects_non_checkpoint(self, tmp_path):
        bogus = tmp_path / "x.nbc"
        bogus.write_bytes(b"not a checkpoint")
        with pytest.raises(ConfigError):
            load_checkpoint(bogus)

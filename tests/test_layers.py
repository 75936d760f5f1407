"""Layer forward semantics, analytic gradients, and the baseline network.

Layers take channels-last (N, H, W, C) inputs; the network takes
(N, 1, H, W). Every backward pass is checked against central finite
differences in float64; the scalar probe is sum(forward(x) * r) for a fixed
random r.
"""

import json
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from noisebench import (
    Adam,
    LossConfig,
    Origin,
    build_baseline,
    layers,
    load_checkpoint,
    one_hot,
    save_checkpoint,
    selective_batch_loss,
)
from noisebench.errors import ConfigError, DataError
from noisebench.layers import (
    BatchNorm,
    Conv2d,
    Dense,
    Network,
    ReLU,
    Softmax,
    _channel_mean,
    im2col_bytes,
    max_pool,
    max_unpool,
    pool_offsets,
    pooled_shape,
)

from conftest import Pool, finite_difference, relative_error

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

    def test_empty_batch(self):
        # No samples run as no slices: every pass returns an empty array and
        # adds nothing to the gradients.
        layer = Conv2d(1, 2, 3, pool_size=2)
        x = np.zeros((0, 5, 5, 1), dtype=np.float32)
        assert layer.forward(x, train=False).shape == (0, 2, 2, 2)
        out = layer.forward(x, train=True)
        assert out.shape == (0, 2, 2, 2)
        assert layer.backward(out).shape == x.shape
        assert not layer.weight.grad.any() and not layer.bias.grad.any()

    def test_shape_mismatch_reports_shapes(self):
        layer = Conv2d(3, 4, 3)
        with pytest.raises(ValueError, match=r"\(2, 5, 5, 1\)"):
            layer.forward(np.zeros((2, 5, 5, 1), dtype=np.float32), train=False)

    # Two input channels take the general column layout, one channel the
    # transposed one.
    @pytest.mark.parametrize("channels", [2, 1], ids=["same", "same-1ch"])
    def test_gradcheck(self, channels):
        for seed in range(5):
            layer_gradcheck(
                lambda rng: Conv2d(channels, 3, 3, "same", rng, np.float64),
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

    @pytest.mark.parametrize("padding", ["same"])
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

    @pytest.mark.parametrize("padding", ["same"])
    def test_gradcheck(self, monkeypatch, padding):
        self.two_sample_budget(monkeypatch, Conv2d(self.X_SHAPE[3], 3, 3, padding))
        for seed in range(3):
            layer_gradcheck(lambda rng: Conv2d(self.X_SHAPE[3], 3, 3, padding, rng, np.float64),
                            self.X_SHAPE, seed)

    def test_training_cache_holds_at_most_the_budget(self, monkeypatch):
        layer = Conv2d(self.X_SHAPE[3], 3, 3, "same", dtype=np.float64)
        self.two_sample_budget(monkeypatch, layer)
        lowered = []
        columns = Conv2d._columns

        def record(xs, *rest):
            lowered.append(xs.copy())
            return columns(xs, *rest)

        monkeypatch.setattr(Conv2d, "_columns", staticmethod(record))
        x = np.random.default_rng(22).standard_normal(self.X_SHAPE)
        x_pad = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
        slices = [x_pad[0:2], x_pad[2:4], x_pad[4:5]]
        out = layer.forward(x, train=True)
        assert len(lowered) == 3
        assert all(np.array_equal(a, b) for a, b in zip(lowered, slices))
        cached = [a for a in layer._cache if isinstance(a, np.ndarray)]
        assert any(a is x for a in cached)
        assert max(a.nbytes for a in cached) <= layers.COLS_BYTES
        assert not any(a.shape[1:3] == x_pad.shape[1:3] for a in cached if a.ndim == 4)
        lowered.clear()
        layer.backward(np.ones_like(out))  # lowers the same slices again
        assert len(lowered) == 3
        assert all(np.array_equal(a, b) for a, b in zip(lowered, slices))


class TestConv2dSlicesOneChannel(TestConv2dSlices):
    """The same checks on a one-channel input, whose columns are built
    transposed from shifted input rows."""

    X_SHAPE = (5, 6, 7, 1)


def im2col(x, kernel, pad):
    """Contiguous (rows, kernel*kernel*C) im2col columns of an NHWC array,
    channels fastest."""
    x_pad = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    windows = sliding_window_view(x_pad, (kernel, kernel), axis=(1, 2))
    return np.ascontiguousarray(windows.transpose(0, 1, 2, 4, 5, 3)).reshape(
        -1, kernel * kernel * x.shape[3])


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
    db = np.zeros_like(bias)
    dx = np.zeros_like(x_pad)
    for s in range(0, b, samples_per_slice):
        e = min(s + samples_per_slice, b)
        cols = im2col(x[s:e], kh, p)
        g = g_mat[s * ho * wo : e * ho * wo]
        out[s * ho * wo : e * ho * wo] = cols @ w_mat
        dw += (cols.T @ g).reshape(kh, kw, c, f).transpose(3, 2, 0, 1)
        db += g.sum(axis=0)
        for i in range(kh):
            for j in range(kw):
                dx[s:e, i : i + ho, j : j + wo, :] += (g @ w[:, :, i, j]).reshape(e - s, ho, wo, c)
    out += bias
    dx = dx[:, p : x_pad.shape[1] - p, p : x_pad.shape[2] - p, :] if p else dx
    return [out.reshape(b, ho, wo, f), dx, dw, db]


class TestOneChannelColumns:
    """The transposed one-channel columns change the memory layout, not the
    arithmetic: every float32 result equals the general layout's bit for
    bit at desk (kernel 3, 6 filters) and paper (kernel 5, 32 filters)
    widths, for a desk batch of 64 in one slice or three, and for small
    batches of 3 and 7 samples, so a later edit that reorders these sums
    fails here."""

    @pytest.mark.parametrize("kernel,padding,filters", [
        (3, "same", 6), (5, "same", 32)])
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


class TestGeneralColumnWeightGradient:
    """With C > 1 input channels the weight gradient is rows.T @ g, which
    has the float32 bits of g.T @ rows, the form every earlier result was
    computed with, for desk batches of 1 to 64 patches at the conv2 and
    conv3 shapes and for paper-shape column slices."""

    # (input height, width, channels, filters) of the desk conv2 and conv3.
    @pytest.mark.parametrize("h,w,c,filters", [(12, 25, 6, 10), (6, 12, 10, 14)],
                             ids=["desk-conv2", "desk-conv3"])
    def test_desk_batches(self, h, w, c, filters):
        rng = np.random.default_rng(41)
        layer = Conv2d(c, filters, 3, "same", rng, np.float32)
        for batch in range(1, 65):
            x = rng.standard_normal((batch, h, w, c), dtype=np.float32)
            probe = rng.standard_normal((batch, h, w, filters), dtype=np.float32)
            dw = conv_step(layer, x, probe)[2]
            g_t_rows = probe.reshape(-1, filters).T @ im2col(x, 3, 1)
            want = np.zeros_like(dw) + g_t_rows.reshape(filters, 3, 3, c).transpose(0, 3, 1, 2)
            assert dw.tobytes() == want.tobytes(), batch

    # (samples per slice, input height, width, channels, filters) of the
    # paper conv2 and conv3 under the default COLS_BYTES.
    @pytest.mark.parametrize("n,h,w,c,filters", [(2, 48, 43, 32, 64), (4, 24, 21, 64, 128)],
                             ids=["paper-conv2", "paper-conv3"])
    def test_paper_slices(self, n, h, w, c, filters):
        rng = np.random.default_rng(42)
        rows = im2col(rng.standard_normal((n, h, w, c), dtype=np.float32), 5, 2)
        g = rng.standard_normal((len(rows), filters), dtype=np.float32)
        assert np.array_equal((rows.T @ g).T, g.T @ rows)


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

    # The input shapes of bn1, bn2 and bn3 at desk shape.
    @pytest.mark.parametrize("shape", [(64, 24, 50, 1), (64, 12, 25, 6), (64, 6, 12, 10)],
                             ids=["bn1", "bn2", "bn3"])
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


def reference_batchnorm_train(x, gamma, beta, running_mean, running_var, eps, momentum):
    """BatchNorm's training forward as plain broadcasts over the channel
    axis: (output, xhat, ivar, running mean, running variance)."""
    dt = x.dtype
    mean = _channel_mean(x)
    centered = x - mean.astype(dt)
    var = _channel_mean(np.square(centered))
    ivar = (1.0 / np.sqrt(var + eps)).astype(dt)
    xhat = centered * ivar
    m = momentum
    return (gamma * xhat + beta, xhat, ivar,
            (m * running_mean + (1 - m) * mean).astype(dt),
            (m * running_var + (1 - m) * var).astype(dt))


def reference_batchnorm_backward(grad, xhat, ivar, gamma):
    """BatchNorm's backward as plain broadcasts: (input gradient, gamma
    gradient, beta gradient)."""
    dt = grad.dtype
    g_mean = _channel_mean(grad)
    gx_mean = _channel_mean(grad * xhat)
    n = grad.size // grad.shape[3]
    dx = (grad - g_mean.astype(dt) - xhat * gx_mean.astype(dt)) * (gamma * ivar)
    return dx, n * gx_mean, n * g_mean


def reference_batchnorm_infer(x, gamma, beta, running_mean, running_var, eps):
    ivar = 1.0 / np.sqrt(running_var + eps)
    return gamma * ((x - running_mean) * ivar) + beta


def signed_zero_input(shape, dtype, rng, nan):
    """Shifted, scaled normals with a tenth of the entries 0.0 or -0.0 and,
    if asked, NaNs in the last sample."""
    x = (0.5 + 2.0 * rng.standard_normal(shape)).astype(dtype)
    zeros = rng.random(shape) < 0.1
    x[zeros] = np.copysign(0.0, rng.random(int(zeros.sum())) - 0.5)
    if nan:
        x[-1, 0, 0, 0] = np.nan
        x[-1, -1, -1, -1] = np.nan
    return x


def random_batchnorm(channels, dtype, rng):
    layer = BatchNorm(channels, dtype=dtype)
    layer.gamma.value[...] = rng.uniform(0.5, 1.5, channels)
    layer.beta.value[...] = rng.standard_normal(channels)
    layer.running_mean[...] = rng.standard_normal(channels)
    layer.running_var[...] = rng.uniform(0.5, 2.0, channels)
    layer.gamma.grad[...] = rng.standard_normal(channels)
    layer.beta.grad[...] = rng.standard_normal(channels)
    return layer


class TestBatchNormBits:
    """The training forward, backward and inference forward give the bytes
    of the plain per-channel broadcasts, at the desk shapes of bn1-bn3, the
    paper shapes of bn2-bn3 and an odd one; inference also on a 146-patch
    desk evaluation batch."""

    TRAIN = [(64, 24, 50, 1), (64, 12, 25, 6), (64, 6, 12, 10),
             (64, 48, 43, 32), (64, 24, 21, 64), (3, 7, 9, 2)]
    INFER = TRAIN + [(146, 12, 25, 6)]

    @pytest.mark.parametrize("nan", [False, True], ids=["finite", "nan"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", TRAIN, ids=["x".join(map(str, s)) for s in TRAIN])
    def test_training_forward_and_backward(self, shape, dtype, nan):
        rng = np.random.default_rng(sum(shape))
        x = signed_zero_input(shape, dtype, rng, nan)
        layer = random_batchnorm(shape[3], dtype, rng)
        gamma, beta = layer.gamma.value.copy(), layer.beta.value.copy()
        dgamma, dbeta = layer.gamma.grad.copy(), layer.beta.grad.copy()
        with np.errstate(invalid="ignore"):
            want, xhat, ivar, r_mean, r_var = reference_batchnorm_train(
                x, gamma, beta, layer.running_mean, layer.running_var,
                layer.eps, layer.momentum)
            out = layer.forward(x, train=True)
        assert out.dtype == dtype and out.shape == shape
        assert out.tobytes() == want.tobytes()
        assert layer.running_mean.tobytes() == r_mean.tobytes()
        assert layer.running_var.tobytes() == r_var.tobytes()
        grad = signed_zero_input(shape, dtype, rng, nan)
        with np.errstate(invalid="ignore"):
            want_dx, want_dgamma, want_dbeta = reference_batchnorm_backward(
                grad, xhat, ivar, gamma)
            dx = layer.backward(grad)
        assert dx.dtype == dtype and dx.shape == shape
        assert dx.tobytes() == want_dx.tobytes()
        dgamma += want_dgamma
        dbeta += want_dbeta
        assert layer.gamma.grad.tobytes() == dgamma.tobytes()
        assert layer.beta.grad.tobytes() == dbeta.tobytes()

    @pytest.mark.parametrize("nan", [False, True], ids=["finite", "nan"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", INFER, ids=["x".join(map(str, s)) for s in INFER])
    def test_inference_forward(self, shape, dtype, nan):
        rng = np.random.default_rng(sum(shape) + 1)
        x = signed_zero_input(shape, dtype, rng, nan)
        layer = random_batchnorm(shape[3], dtype, rng)
        out = layer.forward(x, train=False)
        want = reference_batchnorm_infer(x, layer.gamma.value, layer.beta.value,
                                         layer.running_mean, layer.running_var, layer.eps)
        assert out.dtype == dtype and out.shape == shape
        assert out.tobytes() == want.tobytes()


class TestMaxPool:
    """The pooling rule (``max_pool`` and ``max_unpool``) that pooled convs
    run, through the ``Pool`` test layer."""

    def test_window_max_and_floor_crop(self):
        x = np.arange(2 * 1 * 5 * 5, dtype=np.float64).reshape(2, 5, 5, 1)
        out = Pool(2).forward(x, train=False)
        assert out.shape == (2, 2, 2, 1)
        assert out[0, 0, 0, 0] == x[0, 1, 1, 0]

    def test_gradcheck(self):
        for seed in range(5):
            layer_gradcheck(lambda rng: Pool(2), (2, 6, 8, 3), seed)

    def test_ties_route_to_first_element_in_window_order(self):
        # On a constant input every element of every window is a maximum;
        # each window must send its whole upstream gradient to exactly one
        # element, the first in row-major window order (top-left).
        layer = Pool(2)
        x = np.full((2, 5, 7, 3), 1.5)
        layer.forward(x, train=True)
        upstream = np.random.default_rng(8).standard_normal((2, 2, 3, 3))
        dx = layer.backward(upstream)
        expected = np.zeros_like(x)
        expected[:, 0:4:2, 0:6:2, :] = upstream
        np.testing.assert_array_equal(dx, expected)


def reference_maxpool(x, s):
    """Max pooling before it cached offsets: the output and a bool mask
    over the pooled windows, True at each window's first maximum in
    row-major order."""
    b, h, w, c = x.shape
    ho, wo = h // s, w // s
    windows = x[:, : ho * s, : wo * s].reshape(b, ho, s, wo, s, c)
    offsets = [(i, j) for i in range(s) for j in range(s)]
    out = windows[:, :, 0, :, 0].copy()
    for i, j in offsets[1:]:
        np.maximum(out, windows[:, :, i, :, j], out=out)
    mask = np.empty(windows.shape, dtype=bool)
    taken = np.zeros(out.shape, dtype=bool)
    for i, j in offsets:
        hit = mask[:, :, i, :, j]
        np.equal(windows[:, :, i, :, j], out, out=hit)
        hit &= ~taken
        taken |= hit
    return out, mask


def reference_maxpool_backward(mask, grad, shape):
    """The masked product that went with ``reference_maxpool``."""
    b, ho, s, wo, _, c = mask.shape
    routed = (mask * grad[:, :, None, :, None, :]).reshape(b, ho * s, wo * s, c)
    if routed.shape == shape:
        return routed
    dx = np.zeros(shape, dtype=grad.dtype)
    dx[:, : ho * s, : wo * s] = routed
    return dx


def tied_pool_input(shape, s, rng):
    """float32 values that tie within windows: halves rounded, runs of zeros
    after a ReLU, 0.0 mixed with -0.0 in the third quarter of the batch, and
    in the last sample a whole NaN window and a single NaN."""
    x = rng.standard_normal(shape, dtype=np.float32)
    np.round(x * 2, out=x)
    q = max(1, shape[0] // 4)
    np.maximum(x[q:], 0, out=x[q:])
    third = x[2 * q : 3 * q]
    np.copysign(third, rng.random(third.shape) - 0.5, out=third)
    x[-1, :s, :s] = np.nan
    if shape[1] >= 2 * s and shape[2] >= 2 * s:
        x[-1, s, s + 1, 0] = np.nan
    return x


class TestMaxPoolBits:
    """The one-byte offsets of ``max_pool`` and ``max_unpool`` give the bits
    of the bool-mask forward and backward, at desk and paper shapes and on
    a cropped one."""

    SHAPES = [(64, 24, 50, 6), (64, 12, 25, 10), (64, 6, 12, 14),
              (64, 96, 86, 32), (64, 48, 43, 64), (64, 24, 21, 128), (3, 7, 9, 2)]

    @pytest.mark.parametrize("size", [1, 2, 3])
    @pytest.mark.parametrize("shape", SHAPES, ids=["x".join(map(str, s)) for s in SHAPES])
    def test_output_and_gradient_bits_match_the_mask(self, shape, size):
        rng = np.random.default_rng(sum(shape) + size)
        x = tied_pool_input(shape, size, rng)
        layer = Pool(size)
        out = layer.forward(x, train=True)
        ref_out, mask = reference_maxpool(x, size)
        assert out.tobytes() == ref_out.tobytes()
        np.testing.assert_array_equal(Pool(size).forward(x, train=False), out)
        grad = rng.standard_normal(out.shape, dtype=np.float32)
        grad[0, 0, 0, 0] = np.nan
        grad[-1, -1, -1, -1] = np.inf
        with np.errstate(invalid="ignore"):  # 0 * inf
            dx = layer.backward(grad)
            ref_dx = reference_maxpool_backward(mask, grad, x.shape)
        assert dx.dtype == np.float32 and dx.shape == x.shape
        assert dx.tobytes() == ref_dx.tobytes()

    def test_nan_window_routes_no_gradient(self):
        x = np.zeros((1, 4, 4, 1), dtype=np.float32)
        x[0, :2, :2] = np.nan
        x[0, 2, 3] = np.nan
        layer = Pool(2)
        layer.forward(x, train=True)
        dx = layer.backward(np.ones((1, 2, 2, 1), dtype=np.float32))
        assert dx[0, :, :, 0].tolist() == [[0, 0, 1, 0], [0, 0, 0, 0],
                                           [1, 0, 0, 0], [0, 0, 0, 0]]

    @pytest.mark.parametrize("filters", [1, 2])
    def test_nan_output_of_an_unpooled_conv_routes_no_gradient(self, filters):
        # An unpooled conv pools by one, so a NaN output is a NaN window of
        # one element. The NaN still reaches the weight gradient through the
        # columns, so a training step's gradient stays non-finite.
        x = np.zeros((1, 2, 2, 1))
        x[0, 0, 1] = np.nan
        layer = Conv2d(1, filters, 1, dtype=np.float64)
        layer.weight.value[...] = 1.0
        layer.forward(x, train=True)
        dx = layer.backward(np.ones((1, 2, 2, filters)))
        assert dx[0, :, :, 0].tolist() == [[filters, 0], [filters, filters]]
        assert np.isnan(layer.weight.grad).all()
        assert layer.bias.grad.tolist() == [3] * filters

    @pytest.mark.parametrize("size,offset_bytes", [(2, 1), (3, 1), (15, 1), (16, 2)])
    def test_training_cache_holds_one_offset_per_output(self, size, offset_bytes):
        x = np.random.default_rng(size).standard_normal((2, 2 * size + 1, 3 * size, 3))
        out = np.empty(pooled_shape(x.shape, size, "pool"))
        offsets = pool_offsets(out.shape, size)
        max_pool(x, size, out, offsets)
        assert offsets.nbytes == offset_bytes * out.size

    def test_size_16_routes_to_the_first_maximum(self):
        rng = np.random.default_rng(16)
        x = np.round(rng.standard_normal((2, 33, 40, 3)))
        layer = Pool(16)
        out = layer.forward(x, train=True)
        ref_out, mask = reference_maxpool(x, 16)
        grad = rng.standard_normal(out.shape)
        assert out.tobytes() == ref_out.tobytes()
        assert layer.backward(grad).tobytes() == (
            reference_maxpool_backward(mask, grad, x.shape).tobytes())


def pooled_conv_input(shape, dtype, rng, nan):
    """Rounded normals whose first sample is all zeros, so every window of
    its conv output ties at the filter's bias; if asked, one NaN in the
    last sample makes the windows around it NaN."""
    x = np.round(2 * rng.standard_normal(shape)).astype(dtype)
    x[0] = 0
    if nan:
        x[-1, 1, 1, 0] = np.nan
    return x


def signed_zero_probe(shape, dtype, rng):
    """Normals with a fifth of the entries 0.0 or -0.0."""
    g = rng.standard_normal(shape).astype(dtype)
    zeros = rng.random(shape) < 0.2
    g[zeros] = np.copysign(0.0, rng.random(int(zeros.sum())) - 0.5)
    return g


def conv_pool_step(conv, size, x, probe):
    """``conv_step`` through ``conv`` and then, if a size is given, the
    bool-mask reference pool of that size."""
    out = conv.forward(x, train=True)
    if size is not None:
        shape = out.shape
        out, mask = reference_maxpool(out, size)
        probe = reference_maxpool_backward(mask, probe, shape)
    conv.weight.grad[...] = 0
    conv.bias.grad[...] = 0
    dx = conv.backward(probe)
    return [out, dx, conv.weight.grad.copy(), conv.bias.grad.copy()]


class TestPooledConvBits:
    """Conv2d(pool_size=s) gives the bits of a plain Conv2d whose output the
    bool-mask reference pools: output, input, weight and bias gradients,
    in one slice or in slices of 2, 2 and 1 samples, on outputs whose last
    rows or columns the pool crops, with windows tied at the bias, NaN
    windows and signed-zero gradients."""

    # (input shape, padding): a 7x9 output, whose last row and column a pool
    # of 2 crops, and a one-channel 6x9 one, whose last column it crops.
    CASES = [((5, 7, 9, 2), "same"), ((5, 6, 9, 1), "same")]

    @pytest.mark.parametrize("nan", [False, True], ids=["finite", "nan"])
    @pytest.mark.parametrize("per_slice", [None, 2], ids=["one-slice", "slices"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("filters", [1, 3], ids=["F1", "F3"])
    @pytest.mark.parametrize("size", [2, 3])
    @pytest.mark.parametrize("shape,padding", CASES, ids=["same-2ch", "same-1ch"])
    def test_matches_conv_then_maxpool(self, monkeypatch, shape, padding, size, filters,
                                       dtype, per_slice, nan):
        rng = np.random.default_rng(sum(shape) + 10 * size + filters)
        pooled = Conv2d(shape[3], filters, 3, padding, rng, dtype, pool_size=size)
        pooled.bias.value[...] = rng.standard_normal(filters)
        pooled.bias.value[0] = 0.0
        plain = Conv2d(shape[3], filters, 3, padding, dtype=dtype)
        plain.weight.value[...] = pooled.weight.value
        plain.bias.value[...] = pooled.bias.value
        if per_slice:
            per_sample = im2col_bytes([plain], *shape[1:3], np.dtype(dtype).itemsize)
            monkeypatch.setattr(layers, "COLS_BYTES", per_slice * per_sample)
        x = pooled_conv_input(shape, dtype, rng, nan)
        with np.errstate(invalid="ignore"):
            want_out, _ = reference_maxpool(plain.forward(x, train=False), size)
            probe = signed_zero_probe(want_out.shape, dtype, rng)
            got = conv_pool_step(pooled, None, x, probe)
            want = conv_pool_step(plain, size, x, probe)
            assert pooled.forward(x, train=False).tobytes() == want_out.tobytes()
        assert want_out.tobytes() == want[0].tobytes()
        for name, a, b in zip(["output", "input grad", "weight grad", "bias grad"], got, want):
            assert a.dtype == dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name

    def test_training_cache_holds_one_offset_per_output(self, monkeypatch):
        layer = Conv2d(2, 3, 3, dtype=np.float64, pool_size=2)
        monkeypatch.setattr(layers, "COLS_BYTES", 2 * im2col_bytes([layer], 7, 9, 8))
        x = np.random.default_rng(23).standard_normal((5, 7, 9, 2))
        out = layer.forward(x, train=True)
        _, _, cached_x, kept, offsets = layer._cache
        assert kept is None  # three slices: backward rebuilds the columns
        assert cached_x is x
        assert out.shape == (5, 3, 4, 3)
        assert offsets.shape == out.shape and offsets.dtype == np.uint8

    @pytest.mark.parametrize("size", [0, -1])
    def test_pool_size_below_one_is_a_config_error(self, size):
        with pytest.raises(ConfigError, match="pool_size"):
            Conv2d(2, 3, 3, pool_size=size)

    @pytest.mark.parametrize("size", [2.0, True, "2", None])
    def test_pool_size_that_is_not_an_integer_is_a_config_error(self, size):
        with pytest.raises(ConfigError, match="pool_size must be an integer"):
            Conv2d(2, 3, 3, pool_size=size)

    @pytest.mark.parametrize("shape", [(2, 4, 4), (1, 2, 4, 4, 1)])
    def test_input_that_is_not_4d_names_the_layer(self, shape):
        layer = Conv2d(1, 2, 3, pool_size=2, name="conv7")
        with pytest.raises(ValueError, match=r"conv7\.weight: input shape \("):
            layer.forward(np.zeros(shape), train=False)

    def test_output_smaller_than_the_window_names_the_layer(self):
        layer = Conv2d(1, 2, 3, pool_size=2, name="conv7")
        with pytest.raises(ValueError, match=r"conv7\.weight: input \(1, 1, 4, 2\) smaller"):
            layer.forward(np.zeros((1, 1, 4, 1), dtype=np.float32), train=False)

    def test_config_writes_pool_size_only_above_one(self):
        assert "pool_size" not in Conv2d(2, 3, 3).config()
        assert Conv2d(2, 3, 3, pool_size=2).config()["pool_size"] == 2


# (filters, input shape) for a 1x1 conv: the bias sees the (rows, F) output
# matrices of the desk, paper and cropped shapes.
BIAS_CASES = [(1, (64, 24, 50, 1)), (2, (3, 7, 9, 2)), (3, (64, 12, 25, 2)),
              (6, (64, 24, 50, 1)), (32, (64, 96, 86, 1)), (128, (64, 24, 21, 2))]


@pytest.mark.parametrize("filters,shape", BIAS_CASES, ids=[f"F{f}" for f, _ in BIAS_CASES])
def test_conv_bias_has_the_bits_of_a_per_row_add_and_sum(filters, shape):
    rng = np.random.default_rng(filters)
    layer = Conv2d(shape[3], filters, 1, rng=rng)
    bias = rng.standard_normal(filters, dtype=np.float32)
    x = rng.standard_normal(shape, dtype=np.float32)
    unbiased = layer.forward(x, train=False).reshape(-1, filters)
    layer.bias.value[...] = bias
    out = layer.forward(x, train=True)
    assert out.tobytes() == (unbiased + bias).tobytes()
    grad = rng.standard_normal(out.shape, dtype=np.float32)
    layer.backward(grad)
    expected = np.zeros(filters, dtype=np.float32) + grad.reshape(-1, filters).sum(axis=0)
    assert layer.bias.grad.tobytes() == expected.tobytes()


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


def param_count(net):
    return sum(p.value.size for p in net.params())


class TestBaseline:
    def test_parameter_budget(self):
        net = build_baseline(96, 86, 20)
        assert 400_000 <= param_count(net) <= 600_000

    def test_param_count_is_a_pure_function_of_dims(self):
        a = param_count(build_baseline(96, 86, 20, seed=1))
        b = param_count(build_baseline(96, 86, 20, seed=99))
        assert a == b

    def test_output_simplex(self):
        net = build_baseline(16, 16, 5, channels=(3, 4, 5), seed=2)
        x = np.random.default_rng(2).standard_normal((6, 1, 16, 16)).astype(np.float32)
        out = net.forward(x, train=False)
        assert out.shape == (6, 5)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-6)

    def test_inference_of_an_empty_batch(self):
        net = build_baseline(8, 8, 3, channels=(2, 3, 4))
        assert net.forward(np.zeros((0, 1, 8, 8))).shape == (0, 3)

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


# One layer of each kind, and a pooled conv, with an input shape it takes.
CACHE_CASES = [
    pytest.param(lambda: Conv2d(2, 3, 3, dtype=np.float64), (2, 5, 6, 2), id="conv2d"),
    pytest.param(lambda: BatchNorm(2, dtype=np.float64), (2, 5, 6, 2), id="batchnorm"),
    pytest.param(ReLU, (2, 5, 6, 2), id="relu"),
    pytest.param(lambda: Conv2d(2, 3, 3, dtype=np.float64, pool_size=2), (2, 5, 6, 2),
                 id="conv2d_pool"),
    pytest.param(lambda: Dense(60, 4, dtype=np.float64), (2, 5, 6, 2), id="dense"),
    pytest.param(Softmax, (2, 4), id="softmax"),
]


def baseline_train_step(h, w, batch, channels, kernel_size):
    """A build_baseline network over 20 classes and one training step of it
    as ``train`` takes one: forward, loss, backward and an Adam update on a
    random batch. The network and its optimizer are built before tracing."""
    net = build_baseline(h, w, 20, channels=channels, kernel_size=kernel_size, seed=1)
    adam = Adam(net.params(), 0.001)
    rng = np.random.default_rng(1)
    x = rng.standard_normal((batch, 1, h, w), dtype=np.float32)
    targets = one_hot(rng.integers(20, size=batch), 20)

    def step():
        probs = net.forward(x, train=True)
        _, grads = selective_batch_loss(probs, targets, [Origin.NOISY] * batch, LossConfig())
        net.zero_grads()
        net.backward(grads.astype(np.float32))
        adam.step()

    return net, step


def traced_step(step):
    """Bytes left allocated by ``step`` and its peak above the start,
    as tracemalloc counts them."""
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        step()
        end, peak = tracemalloc.get_traced_memory()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return end - start, peak - start


class TestCacheLifetime:
    """A layer holds its training cache from a training forward until the
    backward that reads it, and no longer."""

    @pytest.mark.parametrize("make,shape", CACHE_CASES)
    def test_a_second_backward_has_no_cache(self, make, shape):
        layer = make()
        out = layer.forward(np.random.default_rng(3).standard_normal(shape), train=True)
        layer.backward(np.ones_like(out))
        with pytest.raises(RuntimeError, match="backward called without a training forward"):
            layer.backward(np.ones_like(out))

    def test_a_train_step_leaves_no_cache_behind(self, monkeypatch):
        net, step = baseline_train_step(48, 43, 16, (32, 64, 128), 5)
        xhats = []
        normalize = BatchNorm.normalize

        def recording(self, x):
            xhat = normalize(self, x)
            xhats.extend([weakref.ref(xhat), weakref.ref(xhat.base)])
            return xhat

        monkeypatch.setattr(BatchNorm, "normalize", recording)
        left, _ = traced_step(step)
        assert len(xhats) == 6  # three stages
        assert all(layer._cache is None for layer in net.layers)
        # Nothing holds a BatchNorm's x-hat past the step: not a stage's
        # conv, which refers to its BatchNorm until its backward.
        assert all(ref() is None for ref in xhats)
        assert left < 100_000  # bytes; caches held past backward left 2.3 MB
        with pytest.raises(RuntimeError, match="backward called without a training forward"):
            net.backward(np.ones((16, 20), dtype=np.float32))

    def test_a_stage_frees_its_input_and_its_output_gradient_early(self, monkeypatch):
        # A training Network drops the input of a stage's BatchNorm before
        # the stage's conv runs, and the gradient a stage's conv receives
        # before the BatchNorm's backward runs. At the paper shape, holding
        # them kept
        # 17 and 8 MB more through conv2's forward and bn2's backward, and
        # the paper benchmark's peak RSS read 173 MB instead of 148 MB.
        net = build_baseline(24, 50, 20, channels=(6, 10, 14), kernel_size=3, seed=3)
        stages = {bn: conv for bn, _, conv in (run for run in net._runs() if len(run) == 3)}
        refs, alive = {}, []
        normalize, stage_forward = BatchNorm.normalize, Conv2d.stage_forward
        conv_backward, bn_backward = Conv2d.backward, BatchNorm.backward

        def record(layer, array):
            refs[layer] = weakref.ref(array)

        def checked_stage_forward(self, bn, xhat):
            alive.append(("input", refs[bn]() is not None))
            return stage_forward(self, bn, xhat)

        def checked_bn_backward(self, grad):
            alive.append(("conv grad", refs[stages[self]]() is not None))
            return bn_backward(self, grad)

        monkeypatch.setattr(BatchNorm, "normalize",
                            lambda self, x: record(self, x) or normalize(self, x))
        monkeypatch.setattr(Conv2d, "stage_forward", checked_stage_forward)
        monkeypatch.setattr(Conv2d, "backward",
                            lambda self, grad: record(self, grad) or conv_backward(self, grad))
        monkeypatch.setattr(BatchNorm, "backward", checked_bn_backward)
        x, grad = stage_input((8, 1, 24, 50), np.float32, 8)
        out = net.forward(x, train=True)
        net.backward(np.ones_like(out))
        assert alive == [("input", False)] * 3 + [("conv grad", False)] * 3

    def test_paper_shape_step_peak(self):
        # The FSDnoisy18k shape: 96x86 patches, channels 32/64/128, kernel 5,
        # batch 64. Each BatchNorm, ReLU, conv stage computing the conv's
        # input from the BatchNorm's cache, one batch slice at a time, this
        # step peaks at 66.97 MB of traced allocations, in conv2's backward.
        # With each conv caching its input (the ReLU output), each ReLU its
        # mask and BatchNorm's backward a second full-size temporary, it
        # peaked at 97.89 MB; padding each conv's whole batch, caching the
        # padded copy and summing a padded input gradient, at 105.38 MB;
        # with a max-pool layer after each conv, which held the conv's whole
        # output and then its gradient, at 118.0 MB, and with BatchNorm, ReLU
        # and Dense caches also held through backward at 133.4 MB (numpy
        # 2.4.6).
        _, step = baseline_train_step(96, 86, 64, (32, 64, 128), 5)
        _, peak = traced_step(step)
        assert peak < 67.5e6

    @pytest.mark.parametrize("channels", [1, 8])
    def test_sliced_same_conv_holds_no_padded_batch(self, monkeypatch, channels):
        # A pooled 'same' conv over 32 slices of 2 samples: beyond its
        # output and input gradient, forward and backward together must
        # allocate less than one zero-padded copy of the whole batch. Padding
        # the whole batch, cached through backward, and a padded input
        # gradient took 1.2 and 8.0 MB above them, against padded copies of
        # 0.7 and 5.5 MB; slice by slice it takes 0.4 and 2.2 MB (numpy 2.4.6).
        layer = Conv2d(channels, 4, 3, "same", dtype=np.float64, pool_size=2)
        monkeypatch.setattr(layers, "COLS_BYTES", 2 * im2col_bytes([layer], 24, 50, 8))
        x = np.random.default_rng(24).standard_normal((64, 24, 50, channels))
        probe = np.ones((64, 12, 25, 4))
        result = {}

        def step():
            result["out"] = layer.forward(x, train=True)
            result["dx"] = layer.backward(probe)

        _, peak = traced_step(step)
        padded = 64 * 26 * 52 * channels * 8
        assert peak - result["out"].nbytes - result["dx"].nbytes < padded

    def test_sliced_one_filter_conv_unpools_no_whole_batch(self, monkeypatch):
        # A one-filter conv over 32 slices of 2 samples unpools its output
        # gradient slice by slice, like any other conv. Unpooling and
        # summing the whole batch's 614 KB gradient took backward 2.64 MB
        # above its input gradient; slice by slice it takes 2.04 MB, most
        # of it one slice's 1.38 MB of columns (numpy 2.4.6).
        layer = Conv2d(8, 1, 3, dtype=np.float64, pool_size=2)
        monkeypatch.setattr(layers, "COLS_BYTES", 2 * im2col_bytes([layer], 24, 50, 8))
        x = np.random.default_rng(24).standard_normal((64, 24, 50, 8))
        probe = np.ones_like(layer.forward(x, train=True))
        result = {}

        def step():
            result["dx"] = layer.backward(probe)

        _, peak = traced_step(step)
        assert peak - result["dx"].nbytes < 2.35e6


def layer_by_layer_step(net, x, grad):
    """A training step through each layer's own forward and backward in
    turn: the reference that a Network's stages must reproduce."""
    out = np.moveaxis(x, 1, -1)
    for layer in net.layers:
        out = layer.forward(out, True)
    net.zero_grads()
    for layer in reversed(net.layers):
        grad = layer.backward(grad)
    return out, np.moveaxis(grad, -1, 1)


def network_step(net, x, grad):
    out = net.forward(x, train=True)
    net.zero_grads()
    return out, net.backward(grad)


def assert_stage_bits(make_net, x, grad, adam=True):
    """One training step of ``Network`` and of ``layer_by_layer_step``, each
    on its own copy of ``make_net()``, give the same output, input gradient,
    parameter gradients and state (running statistics included) byte for
    byte; with ``adam``, so does inference after an Adam step."""
    sides = []
    for step in (network_step, layer_by_layer_step):
        net = make_net()
        with np.errstate(invalid="ignore"):
            out, dx = step(net, x, grad)
        names = ["output", "input grad"] + [f"{p.name} grad" for p in net.params()]
        arrays = [out, dx] + [p.grad.copy() for p in net.params()]
        names += [f"state {i}" for i in range(len(net.get_state()))]
        arrays += net.get_state()
        if adam:
            Adam(net.params(), 0.001).step()
            names.append("inference after Adam")
            arrays.append(net.forward(x, train=False))
        sides.append(arrays)
    for name, a, b in zip(names, *sides):
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def stage_input(shape, dtype, seed, nan=False):
    """A random NCHW input and softmax-shaped gradient; with ``nan``, one
    input element NaN."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape).astype(dtype)
    if nan:
        x[0, 0, 1, 2] = np.nan
    return x, rng.standard_normal((shape[0], 20)).astype(dtype)


def small_stage_net(padding, pool_size, dtype):
    """BatchNorm, ReLU, a 2 -> 3 conv of ``padding`` and ``pool_size`` on
    7x9 inputs, then a BatchNorm and ReLU that no conv follows, and a dense
    softmax over 20 classes. The first BatchNorm's gamma and beta are
    random, so its ReLU cuts at other points than zero."""
    rng = np.random.default_rng(41)
    conv = Conv2d(2, 3, 3, padding, rng, dtype, name="conv1", pool_size=pool_size)
    bn = BatchNorm(2, dtype=dtype, name="bn1")
    bn.gamma.value[...] = rng.standard_normal(2)
    bn.beta.value[...] = rng.standard_normal(2)
    dense = Dense(3 * (7 // pool_size) * (9 // pool_size), 20, rng, dtype, name="dense")
    return Network([bn, ReLU(), conv, BatchNorm(3, dtype=dtype, name="bn2"), ReLU(), dense,
                    Softmax()])


class TestStageBits:
    """A Network trains each BatchNorm, ReLU, Conv2d run as one stage that
    computes the conv's input from the BatchNorm's cache; it gives the bits
    of the three layers' own forward and backward passes."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_desk_shape_at_every_batch_size(self, dtype):
        def make():
            return build_baseline(24, 50, 20, channels=(6, 10, 14), kernel_size=3, seed=3,
                                  dtype=dtype)

        for batch in range(1, 65):
            assert_stage_bits(make, *stage_input((batch, 1, 24, 50), dtype, batch))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch", [64, 37])
    def test_paper_shape(self, batch, dtype):
        # Every paper conv runs in several slices, so backward refills them.
        def make():
            return build_baseline(96, 86, 20, seed=3, dtype=dtype)

        assert_stage_bits(make, *stage_input((batch, 1, 96, 86), dtype, batch))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_nan_input(self, dtype):
        def make():
            return build_baseline(24, 50, 20, channels=(6, 10, 14), kernel_size=3, seed=3,
                                  dtype=dtype)

        assert_stage_bits(make, *stage_input((13, 1, 24, 50), dtype, 13, nan=True), adam=False)

    @pytest.mark.parametrize("nan", [False, True], ids=["finite", "nan"])
    @pytest.mark.parametrize("per_slice", [None, 2], ids=["one-slice", "slices"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("padding,pool_size", [("same", 2), ("same", 1)],
                             ids=["pooled", "unpooled"])
    def test_pooled_and_unpooled_convs(self, monkeypatch, padding, pool_size, dtype, per_slice,
                                       nan):
        def make():
            return small_stage_net(padding, pool_size, dtype)

        if per_slice:
            per_sample = im2col_bytes(make().layers, 7, 9, np.dtype(dtype).itemsize)
            monkeypatch.setattr(layers, "COLS_BYTES", per_slice * per_sample)
        x, grad = stage_input((5, 2, 7, 9), dtype, 5, nan)
        assert_stage_bits(make, x, grad, adam=not nan)

    def test_runs_group_only_batchnorm_relu_conv(self):
        net = small_stage_net("same", 2, np.float64)
        assert [len(run) for run in net._runs()] == [3, 1, 1, 1, 1]
        assert [len(run) for run in Network(net.layers[1:])._runs()] == [1] * 6

    def test_a_stage_conv_caches_its_batchnorm_not_an_input(self, monkeypatch):
        net = small_stage_net("same", 2, np.float64)
        bn, _, conv = net.layers[:3]
        x, _ = stage_input((5, 2, 7, 9), np.float64, 5)
        monkeypatch.setattr(layers, "COLS_BYTES",
                            2 * im2col_bytes(net.layers, 7, 9, 8))
        net.forward(x, train=True)
        assert net.layers[1]._cache is None  # the ReLU
        shape, _, src, kept, _ = conv._cache
        assert src is bn and kept is None and shape == (5, 7, 9, 2)
        assert not any(isinstance(a, np.ndarray) and a.shape == shape for a in conv._cache)

    def test_a_second_backward_has_no_cache(self):
        net = Network(small_stage_net("same", 1, np.float64).layers[:3])
        x, _ = stage_input((5, 2, 7, 9), np.float64, 5)
        out = net.forward(x, train=True)
        net.backward(np.ones_like(out))
        assert all(layer._cache is None for layer in net.layers)
        with pytest.raises(RuntimeError, match="conv2d: backward called without a training"):
            net.backward(np.ones_like(out))


def insert_maxpool(header, index, size=2):
    """Insert a legacy ``maxpool`` entry of ``size`` at ``index`` of a
    checkpoint header's layers."""
    header["layers"].insert(index, {"kind": "maxpool", "size": size})


def unfold_pool(header, index, size=2):
    """Write the pooled conv at ``index`` of a checkpoint header as
    checkpoints did before convs pooled: a plain conv, then a ``maxpool``
    entry of ``size``."""
    header["layers"][index].pop("pool_size")
    insert_maxpool(header, index + 1, size)


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

    def test_pooled_conv_config_round_trips(self, tmp_path):
        # build_baseline pools in every conv; a network may mix pooled
        # and plain convs.
        rng = np.random.default_rng(9)
        net = layers.Network([Conv2d(1, 2, 3, rng=rng, pool_size=3),
                              Conv2d(2, 3, 3, rng=rng),
                              Dense(3 * 4 * 4, 4, rng), Softmax()])
        x = rng.standard_normal((3, 1, 13, 12)).astype(np.float32)
        save_checkpoint(tmp_path / "net.nbc", net)
        restored, _, _ = load_checkpoint(tmp_path / "net.nbc")
        assert [layer.config() for layer in restored.layers] == [
            layer.config() for layer in net.layers]
        assert restored.layers[0].config()["pool_size"] == 3
        assert "pool_size" not in restored.layers[1].config()
        np.testing.assert_array_equal(restored.forward(x), net.forward(x))
        built = [layer.config() for layer in build_baseline(16, 16, 4, seed=9).layers]
        assert [c["kind"] for c in built] == ["batchnorm", "relu", "conv2d"] * 3 + [
            "dense", "softmax"]
        assert all(c["pool_size"] == 2 for c in built if c["kind"] == "conv2d")

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

    def test_legacy_header_loads_as_pooled_convs(self):
        data = (DATA / "nchw_checkpoint.nbc").read_bytes()
        assert [c["kind"] for c in self.header(data)["layers"]].count("maxpool") == 3
        net, _, _ = load_checkpoint(DATA / "nchw_checkpoint.nbc")
        built = build_baseline(16, 12, 4, channels=(3, 4, 5), seed=9)
        assert [layer.config() for layer in net.layers] == [
            layer.config() for layer in built.layers]

    def test_resaved_legacy_checkpoint_has_no_maxpool_entry(self, tmp_path):
        save_checkpoint(tmp_path / "a.nbc", *load_checkpoint(DATA / "nchw_checkpoint.nbc"))
        first = (tmp_path / "a.nbc").read_bytes()
        assert [c["kind"] for c in self.header(first)["layers"]] == [
            "batchnorm", "relu", "conv2d"] * 3 + ["dense", "softmax"]
        save_checkpoint(tmp_path / "b.nbc", *load_checkpoint(tmp_path / "a.nbc"))
        assert (tmp_path / "b.nbc").read_bytes() == first

    def test_unfolded_checkpoint_resaves_as_written(self, tmp_path):
        path, data = self.saved(tmp_path)
        self.rewrite_header(path, data, lambda h: [unfold_pool(h, i) for i in (8, 5, 2)])
        assert [c["kind"] for c in self.header(path.read_bytes())["layers"]].count(
            "maxpool") == 3
        save_checkpoint(tmp_path / "again.nbc", *load_checkpoint(path))
        assert (tmp_path / "again.nbc").read_bytes() == data

    def test_legacy_maxpool_of_size_one_loads_as_the_plain_conv(self, tmp_path):
        rng = np.random.default_rng(9)
        net = layers.Network([Conv2d(1, 2, 3, rng=rng), Dense(2 * 4 * 5, 3, rng), Softmax()])
        path = tmp_path / "net.nbc"
        save_checkpoint(path, net)
        self.rewrite_header(path, path.read_bytes(), lambda h: insert_maxpool(h, 1, 1))
        restored, _, _ = load_checkpoint(path)
        assert [layer.config() for layer in restored.layers] == [
            layer.config() for layer in net.layers]
        x = rng.standard_normal((2, 1, 4, 5)).astype(np.float32)
        np.testing.assert_array_equal(restored.forward(x), net.forward(x))

    # build_baseline's layers: batchnorm, relu, conv2d at 0-2, 3-5 and 6-8.
    @pytest.mark.parametrize("index,edit", [
        (0, lambda h: insert_maxpool(h, 0)),
        (1, lambda h: insert_maxpool(h, 1)),
        (3, lambda h: insert_maxpool(h, 3)),
        (3, lambda h: (unfold_pool(h, 2), h["layers"][3].pop("size"))),
        (3, lambda h: (unfold_pool(h, 2), h["layers"][3].update(stride=2))),
        (4, lambda h: (unfold_pool(h, 2), insert_maxpool(h, 4))),
    ], ids=["first", "after-batchnorm", "after-a-pooled-conv", "no-size", "unknown-key",
            "after-a-maxpool"])
    def test_misplaced_legacy_maxpool_is_a_data_error_naming_its_index(self, tmp_path,
                                                                       index, edit):
        path, data = self.saved(tmp_path)
        self.rewrite_header(path, data, edit)
        with pytest.raises(DataError, match=rf"{path.name}: unreadable checkpoint header "
                                            rf"\(ValueError\('layer {index}: maxpool "):
            load_checkpoint(path)

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

    @staticmethod
    def saved(tmp_path):
        path = tmp_path / "net.nbc"
        save_checkpoint(path, build_baseline(16, 16, 4, channels=(3, 4, 5), seed=9),
                        {"epoch": 1}, {"mean": np.arange(4, dtype=np.float32)})
        return path, path.read_bytes()

    def test_truncated_file_is_a_data_error(self, tmp_path):
        path, data = self.saved(tmp_path)
        header_end = 12 + int.from_bytes(data[8:12], "little")
        for cut in (0, 4, 10, 40, header_end, header_end + 6, len(data) - 7, len(data) - 1):
            path.write_bytes(data[:cut])
            with pytest.raises(DataError, match=f"{path.name}: checkpoint truncated"):
                load_checkpoint(path)

    def test_trailing_bytes_are_a_data_error(self, tmp_path):
        path, data = self.saved(tmp_path)
        path.write_bytes(data + b"\0")
        with pytest.raises(DataError, match=f"{path.name}: trailing bytes"):
            load_checkpoint(path)

    def test_unreadable_header_is_a_data_error(self, tmp_path):
        path, data = self.saved(tmp_path)
        path.write_bytes(data[:12] + b"\xff" + data[13:])
        with pytest.raises(DataError, match=f"{path.name}: unreadable checkpoint header"):
            load_checkpoint(path)

    @staticmethod
    def header(data):
        """The JSON header of checkpoint bytes ``data``."""
        return json.loads(data[12 : 12 + int.from_bytes(data[8:12], "little")])

    @classmethod
    def rewrite_header(cls, path, data, edit):
        """Write ``data`` back to ``path`` with its JSON header passed through
        ``edit`` and the header length fixed up."""
        header_end = 12 + int.from_bytes(data[8:12], "little")
        header = cls.header(data)
        edit(header)
        raw = json.dumps(header).encode()
        path.write_bytes(data[:8] + len(raw).to_bytes(4, "little") + raw + data[header_end:])

    @pytest.mark.parametrize("edit", [
        lambda h: h["layers"][2].pop("out_channels"),
        lambda h: h["layers"][2].pop("padding"),
        lambda h: h.pop("extra"),
        lambda h: h["layers"][0].update(kind="groupnorm"),
        lambda h: h["layers"][2].update(padding="full"),
        lambda h: h["layers"][2].update(padding="valid"),
        lambda h: h["layers"][2].update(pool_size=0),
        lambda h: h["layers"][2].update(pool_size=2.0),
        lambda h: unfold_pool(h, 2, 0),
        lambda h: unfold_pool(h, 2, -1),
        lambda h: unfold_pool(h, 2, 2.0),
        lambda h: h["layers"][0].update(eps="1e-5"),
        lambda h: h["layers"][0].update(eps=-1.0),
        lambda h: h["layers"][0].update(eps=0),
        lambda h: h["layers"][0].update(momentum=2.0),
        lambda h: h["layers"][0].update(momentum=-0.1),
    ], ids=["layer-missing-a-key", "layer-missing-a-default", "no-extra", "unknown-kind", "bad-padding",
            "valid-padding", "pool-size-below-one", "pool-size-not-an-integer",
            "legacy-maxpool-size-0", "legacy-maxpool-size-minus-1",
            "legacy-maxpool-size-not-an-integer",
            "batchnorm-eps-a-string", "batchnorm-eps-negative", "batchnorm-eps-zero",
            "batchnorm-momentum-above-one", "batchnorm-momentum-negative"])
    def test_malformed_header_is_a_data_error(self, tmp_path, edit):
        path, data = self.saved(tmp_path)
        self.rewrite_header(path, data, edit)
        with pytest.raises(DataError, match=f"{path.name}: unreadable checkpoint header"):
            load_checkpoint(path)

    def test_loaded_network_trains_like_the_built_one(self, tmp_path):
        # A rebuilt network names its layers by default, so three convs all
        # hold a "conv.weight"; the optimizer must still keep one set of
        # moments per parameter.
        built = build_baseline(16, 16, 4, channels=(3, 4, 5), seed=9)
        save_checkpoint(tmp_path / "net.nbc", built)
        loaded, _, _ = load_checkpoint(tmp_path / "net.nbc")
        rng = np.random.default_rng(9)
        x = rng.standard_normal((6, 1, 16, 16)).astype(np.float32)
        targets = one_hot(rng.integers(4, size=6), 4)
        for net in (built, loaded):
            adam = Adam(net.params(), 0.001)
            for _ in range(2):
                probs = net.forward(x, train=True)
                _, grads = selective_batch_loss(probs, targets, [Origin.NOISY] * 6, LossConfig())
                net.zero_grads()
                net.backward(grads.astype(np.float32))
                adam.step()
        for a, b in zip(built.get_state(), loaded.get_state()):
            np.testing.assert_array_equal(a, b)

    def test_rejects_non_checkpoint(self, tmp_path):
        bogus = tmp_path / "x.nbc"
        bogus.write_bytes(b"not a checkpoint")
        with pytest.raises(ConfigError):
            load_checkpoint(bogus)

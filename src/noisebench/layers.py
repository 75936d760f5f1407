"""Minimal CNN layer toolkit with analytic forward/backward passes.

Layers up to the dense stage operate on channels-last numpy arrays shaped
(batch, height, width, channels), all in the dtype the network was built
with (float32 for training; gradient tests build float64 networks).
``Network.forward`` and ``Network.backward`` keep the (batch, channels,
height, width) interface and hand the layers the channels-last view, a free
reshape for single-channel log-mel patches. Parameters keep a layout-free
shape: conv weights are (out, in, kh, kw) and ``Dense`` flattens its input
in (channels, height, width) order, so checkpoints do not depend on the
activation layout. A training forward caches what the layer's backward
needs, referring to arrays it was handed rather than copying them, and
that backward takes the cache and drops it, so a layer holds it only
between the two; backward returns the input gradient and accumulates
parameter gradients in place. A ``Conv2d`` keeps its input's height and
width ('same' padding) and runs every pass as one loop over batch slices:
each slice is padded into a buffer of one slice, lowered to im2col columns
and max-pooled (by one when unpooled) before the next. A ``Network`` trains
each BatchNorm, ReLU, Conv2d in a row as one pre-activation stage: the
BatchNorm caches x-hat and makes no output, and the conv computes its input
from that cache one batch slice at a time, so neither the ReLU nor the conv
caches an input (see ``Conv2d.stage_forward``).
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DataError
from .fileio import atomic_write


@dataclass
class Param:
    name: str
    value: np.ndarray
    grad: np.ndarray


def _uniform_init(rng, shape, fan_in, dtype):
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


class Layer:
    kind = "layer"
    _cache = None

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def params(self) -> list[Param]:
        return []

    def state_arrays(self) -> list[np.ndarray]:
        """Parameter values plus any running statistics, in a fixed order."""
        return [p.value for p in self.params()]

    def config(self) -> dict:
        return {"kind": self.kind}

    def _take_cache(self):
        """What the last training forward stored, handed to backward once:
        the layer drops it here, so a second backward has nothing to read."""
        cache, self._cache = self._cache, None
        if cache is None:
            raise RuntimeError(f"{self.kind}: backward called without a training forward")
        return cache


# Conv column matrices are built one batch slice at a time, with as many
# samples per slice as keep the matrix under this many bytes, so a training
# step holds at most one slice of columns instead of the whole batch's.
# Inference forwards are chunked by the same budget, so each chunk is one
# slice. On 2 cores, 8, 16 and 32 MB ran paper-shape train steps and clip
# evaluation at the same speed within noise, and whole-batch products ran
# slower per patch; 16 MB still takes each desk-shape evaluation set at once.
COLS_BYTES = 16_000_000


def samples_per_slice(sample_bytes: int, batch: int) -> int:
    """Samples whose columns fit in COLS_BYTES together, at least one; the
    whole batch when a sample builds no columns."""
    return max(1, COLS_BYTES // sample_bytes) if sample_bytes else batch


def _widen(v: np.ndarray, reps: int) -> np.ndarray:
    """A per-channel vector as one row of reps * C values (v repeated to
    (reps, C), then flattened), so an op over the channels-last pixels of
    a sample runs as one long row instead of reps short ones. The array
    method repeat costs about 2 us a call against 4-6 for np.broadcast_to
    and a reshaping copy. A one-element vector is returned as it is: numpy
    runs it as a scalar over the whole array, about twice as fast as over
    a row (desk bn1 inference 0.05 against 0.10 ms on 2 cores)."""
    return v if v.size == 1 else v[None].repeat(reps, axis=0).ravel()


def _windows(x_pad: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """Every kernel window of an NHWC array as a (B, Ho, Wo, kh, kw, C) view:
    copied out, the rows are im2col columns with channels fastest, so each
    copied run is contiguous in the input."""
    return sliding_window_view(x_pad, (kh, kw), axis=(1, 2)).transpose(0, 1, 2, 4, 5, 3)


# Non-overlapping s x s max pooling of NHWC arrays, which every Conv2d runs
# on each batch slice of its output (size 1 keeps every element).
# Trailing rows and columns that do not fill a window are dropped. The
# gradient of each window goes to its first maximum in row-major window
# order; training keeps that maximum's offset in the window, one byte per
# output element below size 16, and a window whose maximum is NaN holds the
# no-match offset s * s and routes nothing.


def pooled_shape(shape, s: int, who: str) -> tuple[int, int, int, int]:
    """The pooled shape of an NHWC ``shape``; a ValueError naming ``who`` if
    no window fits."""
    b, h, w, c = shape
    if h < s or w < s:
        raise ValueError(f"{who}: input {tuple(shape)} smaller than window {s}")
    return b, h // s, w // s, c


def pool_offsets(shape, s: int) -> np.ndarray:
    """An empty array for the first-maximum offsets of pooled ``shape``."""
    return np.empty(shape, dtype=np.min_scalar_type(s * s))


def max_pool(x: np.ndarray, s: int, out: np.ndarray, offsets: np.ndarray | None = None):
    """Write the window maxima of ``x`` into ``out`` and, if given, their
    first-maximum offsets into ``offsets``. The maximum starts from
    np.maximum of the first two offsets (offset 0 with itself at size 1,
    which keeps its bits) and folds in the rest in row-major order: the
    bits of a running maximum from offset 0."""
    b, ho, wo, c = out.shape
    windows = x[:, : ho * s, : wo * s].reshape(b, ho, s, wo, s, c)
    np.maximum(windows[:, :, 0, :, 0], windows[:, :, 0, :, 1 % s], out=out)
    for k in range(2, s * s):
        np.maximum(out, windows[:, :, k // s, :, k % s], out=out)
    if offsets is not None:
        # The first maximum's offset is the count of offsets passed while
        # none has matched; a NaN window never matches and counts s * s.
        missed = windows[:, :, 0, :, 0] != out
        np.copyto(offsets, missed)
        differs = np.empty(out.shape, dtype=bool)
        for k in range(1, s * s):
            np.not_equal(windows[:, :, k // s, :, k % s], out, out=differs)
            missed &= differs
            np.add(offsets, missed.view(np.uint8), out=offsets)
    return out


def max_unpool(offsets: np.ndarray, grad: np.ndarray, s: int, out: np.ndarray) -> np.ndarray:
    """Write the input gradient of a pool into ``out`` (the pool's input
    shape) from the pooled ``grad`` and the ``offsets`` of ``max_pool``."""
    b, ho, wo, c = offsets.shape
    out[:, ho * s :] = 0
    out[:, : ho * s, wo * s :] = 0
    # Every element of the pooled area is written once, as its offset's
    # hit times the window gradient: bool * float keeps the bits of a
    # masked product (-0.0 for a negative gradient, NaN for a NaN one).
    hit = np.empty(offsets.shape, dtype=bool)
    for k in range(s * s):
        np.equal(offsets, k, out=hit)
        np.multiply(hit, grad, out=out[:, k // s : ho * s : s, k % s : wo * s : s])
    return out


class Conv2d(Layer):
    """Stride-1 cross-correlation with zero 'same' padding, max-pooled by
    ``pool_size`` (see ``max_pool``; a size of 1 keeps every output).
    ``padding`` accepts "same" alone; it stays a parameter because every
    checkpoint header names it. Every pass runs one loop over batch slices
    of at most COLS_BYTES of columns (see ``samples_per_slice``), each
    filled and lowered to im2col columns by ``_lowered`` and its
    full-resolution output computed and pooled before the next slice's, so
    no padded copy, column matrix or unpooled output of the whole batch is
    made. Training caches the pool's offsets and, when the batch is one
    slice, its columns; otherwise it keeps what backward refills each slice
    from: the caller's input array, or in a pre-activation stage
    (``stage_forward``) the BatchNorm whose ReLU'd output fills it.
    Backward unpools each slice's output gradient, adds the slice's weight
    and bias gradients to the parameters', sums its input gradient in a
    zeroed padded slice and writes that slice's interior into the input
    gradient, masked by the stage's ReLU where there is one, which it reads
    off the slice's columns. A one-channel input lays its columns out
    transposed (see ``_columns``). Weights are stored (out, in, kh, kw)
    whatever the activation layout."""

    kind = "conv2d"

    def __init__(self, in_channels, out_channels, kernel_size, padding="same",
                 rng=None, dtype=np.float32, name="conv", pool_size=1):
        if padding != "same":
            raise ConfigError(f"unsupported padding {padding!r}")
        if kernel_size % 2 == 0:
            raise ConfigError("same padding requires an odd kernel size")
        if type(pool_size) is not int or pool_size < 1:
            raise ConfigError(f"conv pool_size must be an integer >= 1, got {pool_size!r}")
        self.pad = (kernel_size - 1) // 2
        self.pool_size = pool_size
        rng = rng if rng is not None else np.random.default_rng(0)
        fan_in = in_channels * kernel_size * kernel_size
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Param(f"{name}.weight", _uniform_init(rng, shape, fan_in, dtype),
                            np.zeros(shape, dtype))
        self.bias = Param(f"{name}.bias", np.zeros(out_channels, dtype),
                          np.zeros(out_channels, dtype))

    def _column_size(self, h, w):
        """The column elements one h x w sample builds, h * w * kh * kw * C:
        the padding is 'same', so its unpooled output is h x w too."""
        _, c, kh, kw = self.weight.value.shape
        return h * w * kh * kw * c

    def _lowered(self, src, shape, dtype):
        """The samples in one slice of an NHWC input ``shape``, and an
        iterator over the slices' (start, stop, columns). The zeroed padded
        buffer and the column buffer of one slice are allocated now; each
        slice's samples are written into the padded interior from ``src``,
        an array or a stage's BatchNorm (see ``BatchNorm.activate``), and
        lowered into the columns, which the next slice overwrites."""
        b, h, wd, c = shape
        _, _, kh, kw = self.weight.value.shape
        p = self.pad
        sample = self._column_size(h, wd)
        n = samples_per_slice(sample * np.dtype(dtype).itemsize, b)
        buf = np.zeros((min(n, b), h + 2 * p, wd + 2 * p, c), dtype=dtype)
        cols = np.empty(min(n, b) * sample, dtype=dtype)

        def lower():
            for s in range(0, b, n):
                e = min(s + n, b)
                interior = buf[: e - s, p : p + h, p : p + wd]
                if isinstance(src, BatchNorm):
                    src.activate(s, e, interior)
                else:
                    interior[...] = src[s:e]
                yield s, e, self._columns(buf[: e - s], kh, kw, cols)

        return len(buf), lower()

    @staticmethod
    def _columns(xs, kh, kw, cols):
        """Copy the columns of a padded batch slice into the buffer and
        return them as a (rows, kh*kw*C) matrix. A one-channel input fills a
        transposed (kh*kw, rows) matrix, one contiguous copy of shifted input
        rows per kernel offset, where the general copy would move single
        floats."""
        n, hp, wp, c = xs.shape
        ho, wo = hp - kh + 1, wp - kw + 1
        n_rows = n * ho * wo
        if c == 1:
            cols_t = cols[: kh * kw * n_rows].reshape(kh * kw, n_rows)
            for i in range(kh):
                for j in range(kw):
                    np.copyto(cols_t[i * kw + j].reshape(n, ho, wo),
                              xs[:, i : i + ho, j : j + wo, 0])
            return cols_t.T
        windows = _windows(xs, kh, kw)
        rows = cols[: n_rows * kh * kw * c].reshape(n_rows, kh * kw * c)
        np.copyto(rows.reshape(windows.shape), windows)
        return rows

    def _check_input(self, shape):
        w = self.weight.value
        if len(shape) != 4 or shape[3] != w.shape[1]:
            raise ValueError(
                f"{self.weight.name}: input shape {shape} incompatible with "
                f"weight shape {w.shape}"
            )

    def forward(self, x, train):
        self._check_input(x.shape)
        return self._forward(x, x.shape, x.dtype, train)

    def stage_forward(self, bn, xhat):
        """Training forward of a BatchNorm -> ReLU -> conv stage whose
        BatchNorm ``bn`` has just normalized its input to ``xhat`` (see
        ``BatchNorm.normalize``). The conv's input, max(xhat * gamma + beta,
        0), is written into each slice's buffer from bn's cache, with the
        bits of the three layers' own forwards, so no input array exists;
        the conv caches bn instead, and its backward also does the ReLU's."""
        self._check_input(xhat.shape)
        return self._forward(bn, xhat.shape, np.result_type(xhat, bn.gamma.value), True)

    def _forward(self, src, shape, in_dtype, train):
        w = self.weight.value
        f, q = w.shape[0], self.pool_size
        b, ho, wo, _ = shape
        n, lowered = self._lowered(src, shape, in_dtype)
        w_mat = w.transpose(2, 3, 1, 0).reshape(-1, f)
        dtype = np.result_type(in_dtype, w)
        # The bias is added over rows of wo * F values, not rows of F: the
        # same elementwise sums without numpy's per-row overhead.
        bias_row = _widen(self.bias.value, wo)
        out = np.empty(pooled_shape((b, ho, wo, f), q, self.weight.name), dtype=dtype)
        offsets = pool_offsets(out.shape, q) if train else None
        conv = np.empty((n * ho * wo, f), dtype=dtype)
        for s, e, rows in lowered:
            part = conv[: (e - s) * ho * wo]
            np.matmul(rows, w_mat, out=part)
            part.reshape((e - s) * ho, -1)[...] += bias_row
            max_pool(part.reshape(e - s, ho, wo, f), q, out[s:e],
                     None if offsets is None else offsets[s:e])
        if train:
            # One slice keeps its columns, off which backward also reads a
            # stage's ReLU mask, so of its source it keeps only a stage's
            # BatchNorm; any other count keeps what backward refills each
            # slice from: the caller's input, or a stage's BatchNorm.
            if n == b > 0:
                src = src if isinstance(src, BatchNorm) else None
            else:
                rows = None
            self._cache = (shape, in_dtype, src, rows, offsets)
        return out

    def backward(self, grad):
        shape, in_dtype, src, kept, offsets = self._take_cache()
        w = self.weight.value
        f, c, kh, kw = w.shape
        q, p = self.pool_size, self.pad
        b, ho, wo, _ = shape
        if kept is None:
            n, lowered = self._lowered(src, shape, in_dtype)
        else:
            n, lowered = b, [(0, b, kept)]
        # Each slice's output gradient is unpooled into g_buf, and its input
        # gradient summed in a zeroed padded slice, whose interior is written
        # into dx.
        g_buf = np.empty((n * ho * wo, f), dtype=grad.dtype)
        acc = np.zeros((n, ho + 2 * p, wo + 2 * p, c), dtype=grad.dtype)
        interior = (slice(None), slice(p, p + ho), slice(p, p + wo))
        dx = np.empty(shape, dtype=grad.dtype)
        for s, e, rows in lowered:
            g = g_buf[: (e - s) * ho * wo]
            max_unpool(offsets[s:e], grad[s:e], q, g.reshape(e - s, ho, wo, f))
            # Weight gradient as rows.T @ g on the general column layout and
            # g.T @ rows on the transposed one-channel one: both give the bits
            # of g.T @ rows on the general layout at desk (k=3) and paper (k=5)
            # widths, and rows.T @ g is the faster there (paper conv2 177 ->
            # 155 ms a step, conv3 123 -> 109 ms). rows.T @ g on the transposed
            # layout reaches OpenBLAS's small-matrix kernels in another form,
            # which round differently on batches under 14 desk patches.
            if c == 1:
                dw = (g.T @ rows).reshape(f, kh, kw, c).transpose(0, 3, 1, 2)
            else:
                dw = (rows.T @ g).reshape(kh, kw, c, f).transpose(3, 2, 0, 1)
            self.weight.grad += dw
            # einsum sums each column row after row, like sum(axis=0) on
            # F >= 2 columns but without its per-row overhead; one column is
            # a contiguous run, which sum() adds pairwise and einsum would
            # round differently.
            self.bias.grad += np.einsum("ij->j", g) if f > 1 else g.sum(axis=0)
            # Input gradient, one kernel offset at a time: a (rows, C) product
            # added into its shifted window. No (rows, kh*kw*C) gradient matrix
            # is made, and each add runs over contiguous channels-last rows.
            d = acc[: e - s]
            if s:
                d[...] = 0
            for i in range(kh):
                for j in range(kw):
                    d[:, i : i + ho, j : j + wo, :] += (
                        (g @ w[:, :, i, j]).reshape(e - s, ho, wo, c))
            if isinstance(src, BatchNorm):
                # The stage's ReLU gradient, grad * (xhat * gamma + beta > 0).
                # The columns of the center kernel offset (p, p) hold the
                # slice's ReLU'd input in either layout, and max(y, 0) > 0
                # exactly where y > 0, NaN included.
                mask = rows[:, (p * kw + p) * c : (p * kw + p + 1) * c] > 0
                np.multiply(d[interior], mask.reshape(e - s, ho, wo, c), out=dx[s:e])
            else:
                dx[s:e] = d[interior]
        return dx

    def params(self):
        return [self.weight, self.bias]

    def config(self):
        f, c, k, _ = self.weight.value.shape
        config = {"kind": self.kind, "in_channels": c, "out_channels": f,
                  "kernel_size": k, "padding": "same"}
        if self.pool_size != 1:
            config["pool_size"] = self.pool_size
        return config


def _channel_mean(x: np.ndarray) -> np.ndarray:
    """Per-channel mean of an NHWC array, accumulated in float64: summing
    B * H * W float32 values row after row would lose digits that a
    large batch needs. The sum runs over B * H rows of W * C values, then
    over W, which avoids most of the per-row overhead of B * H * W rows of C
    values when C is small. A float64 sum of float32 values rounds only once
    its partial sums outgrow the smallest value by some 2**29, so at desk
    shapes this gives the bits of the plain reduction; at paper shape it can
    differ from it in the last float64 bit, below what the float32 casts of
    BatchNorm keep."""
    b, h, w, c = x.shape
    rows = x.reshape(b * h, w * c).sum(axis=0, dtype=np.float64)
    return rows.reshape(w, c).sum(axis=0) / (b * h * w)


class BatchNorm(Layer):
    """Per-channel batch normalization with running statistics.

    Training normalizes with batch moments (population variance) and updates
    running statistics; inference uses the running statistics only. Each
    per-channel vector is widened to one row of H * W * C values and applied
    to the input viewed as (batch, H * W * C), into temporaries reused in
    place: a training forward holds two arrays (x-hat and the output), an
    inference forward one, and backward one at a time besides x-hat, into
    which it writes its last product (rounded to x-hat's dtype, should the
    gradient have another). Every elementwise op keeps its operands and
    order, so the bits are those of plain broadcasts over the channel axis.
    In a pre-activation stage, training stops at ``normalize`` and the conv
    reads its input through ``activate``.
    """

    kind = "batchnorm"

    def __init__(self, channels, eps=1e-5, momentum=0.9, dtype=np.float32, name="bn"):
        if type(eps) not in (int, float) or not 0 < eps < math.inf:
            raise ConfigError(f"batchnorm eps must be a finite number > 0, got {eps!r}")
        if type(momentum) not in (int, float) or not 0 <= momentum <= 1:
            raise ConfigError(f"batchnorm momentum must be a number in [0, 1], got {momentum!r}")
        self.eps = eps
        self.momentum = momentum
        self.gamma = Param(f"{name}.gamma", np.ones(channels, dtype), np.zeros(channels, dtype))
        self.beta = Param(f"{name}.beta", np.zeros(channels, dtype), np.zeros(channels, dtype))
        self.running_mean = np.zeros(channels, dtype)
        self.running_var = np.ones(channels, dtype)

    def _check_input(self, x):
        if x.ndim != 4 or x.shape[3] != self.gamma.value.size:
            raise ValueError(
                f"{self.gamma.name}: input shape {x.shape} incompatible with "
                f"{self.gamma.value.size} channels"
            )

    def normalize(self, x):
        """The statistics half of a training forward: update the running
        statistics and cache x-hat (shaped as x, which it returns) and the
        inverse deviation for backward. A pre-activation stage stops here
        and reads its input from the cache (see ``activate``)."""
        self._check_input(x)
        b, h, w, c = x.shape
        pixels = h * w
        mean = _channel_mean(x)
        xhat = x.reshape(b, pixels * c) - _widen(mean.astype(x.dtype), pixels)
        var = _channel_mean(np.square(xhat).reshape(x.shape))
        ivar = (1.0 / np.sqrt(var + self.eps)).astype(x.dtype)
        xhat *= _widen(ivar, pixels)
        xhat = xhat.reshape(x.shape)
        self._cache = (xhat, ivar)
        m = self.momentum
        self.running_mean = (m * self.running_mean + (1 - m) * mean).astype(x.dtype)
        self.running_var = (m * self.running_var + (1 - m) * var).astype(x.dtype)
        return xhat

    def activate(self, s, e, out):
        """Write the ReLU of samples s:e of the last training output,
        max(x-hat * gamma + beta, 0), into ``out``: an NHWC view of e - s
        samples, which may be a padded buffer's interior. The cache stays for
        backward. Each op is the forward's or the ReLU's, over rows of W * C
        values, so the bits are those of the two layers' forwards."""
        xhat, _ = self._cache
        _, _, w, c = out.shape
        np.multiply(xhat[s:e], _widen(self.gamma.value, w).reshape(-1, c), out=out)
        out += _widen(self.beta.value, w).reshape(-1, c)
        return np.maximum(out, 0, out=out)

    def forward(self, x, train):
        self._check_input(x)
        b, h, w, c = x.shape
        pixels = h * w
        if train:
            rows = self.normalize(x).reshape(b, pixels * c)
            out = np.multiply(rows, _widen(self.gamma.value, pixels))
        else:
            ivar = 1.0 / np.sqrt(self.running_var + self.eps)
            out = x.reshape(b, pixels * c) - _widen(self.running_mean, pixels)
            out *= _widen(ivar, pixels)
            out *= _widen(self.gamma.value, pixels)
        out += _widen(self.beta.value, pixels)
        return out.reshape(x.shape)

    def backward(self, grad):
        xhat, ivar = self._take_cache()
        b, h, w, c = grad.shape
        pixels = h * w
        dt = grad.dtype
        rows = grad.reshape(b, pixels * c)
        xhat = xhat.reshape(b, pixels * c)
        g_mean = _channel_mean(grad)
        gx_mean = _channel_mean((rows * xhat).reshape(grad.shape))
        n = b * pixels
        self.gamma.grad += n * gx_mean
        self.beta.grad += n * g_mean
        # Standard batch-norm input gradient through the batch moments, with
        # dxhat = gamma * grad folded into one per-channel scale. x-hat is
        # not read again, so its product goes into it.
        dx = rows - _widen(g_mean.astype(dt), pixels)
        dx -= np.multiply(xhat, _widen(gx_mean.astype(dt), pixels), out=xhat)
        dx *= _widen(self.gamma.value * ivar, pixels)
        return dx.reshape(grad.shape)

    def params(self):
        return [self.gamma, self.beta]

    def state_arrays(self):
        return [self.gamma.value, self.beta.value, self.running_mean, self.running_var]

    def config(self):
        return {"kind": self.kind, "channels": int(self.gamma.value.size),
                "eps": self.eps, "momentum": self.momentum}


class ReLU(Layer):
    """max(x, 0). In a Network's pre-activation stage the conv after it does
    its work (see ``Conv2d.stage_forward``), and it caches nothing."""

    kind = "relu"

    def forward(self, x, train):
        if train:
            self._cache = x > 0
        return np.maximum(x, 0)

    def backward(self, grad):
        mask = self._take_cache()
        return grad * mask


class Dense(Layer):
    kind = "dense"

    def __init__(self, in_features, out_features, rng=None, dtype=np.float32, name="dense"):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.weight = Param(f"{name}.weight",
                            _uniform_init(rng, (in_features, out_features), in_features, dtype),
                            np.zeros((in_features, out_features), dtype))
        self.bias = Param(f"{name}.bias", np.zeros(out_features, dtype),
                          np.zeros(out_features, dtype))

    def forward(self, x, train):
        # Flatten in (C, H, W) order, as the weight rows have always been laid
        # out, so checkpoints keep their meaning; a 2-D input passes through.
        # The width is given, not -1, which numpy cannot infer for no samples.
        nchw = np.moveaxis(x, -1, 1)
        flat = nchw.reshape(x.shape[0], math.prod(x.shape[1:]))
        if flat.shape[1] != self.weight.value.shape[0]:
            raise ValueError(
                f"{self.weight.name}: flattened input shape {flat.shape} incompatible "
                f"with weight shape {self.weight.value.shape}"
            )
        if train:
            self._cache = (flat, nchw.shape)
        return flat @ self.weight.value + self.bias.value

    def backward(self, grad):
        flat, nchw_shape = self._take_cache()
        self.weight.grad += flat.T @ grad
        self.bias.grad += grad.sum(axis=0)
        return np.moveaxis((grad @ self.weight.value.T).reshape(nchw_shape), 1, -1)

    def params(self):
        return [self.weight, self.bias]

    def config(self):
        d, k = self.weight.value.shape
        return {"kind": self.kind, "in_features": d, "out_features": k}


class Softmax(Layer):
    kind = "softmax"

    def forward(self, x, train):
        shifted = x - x.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        y = e / e.sum(axis=1, keepdims=True)
        if train:
            self._cache = y
        return y

    def backward(self, grad):
        y = self._take_cache()
        return y * (grad - (grad * y).sum(axis=1, keepdims=True))


_LAYER_KINDS = {cls.kind: cls for cls in (Conv2d, BatchNorm, ReLU, Dense, Softmax)}


class Network:
    """An ordered layer stack with in-place parameter updates.

    Inputs and input gradients are (N, C, H, W); the layers run on the
    channels-last view, which costs nothing for the single-channel log-mel
    patches. Inference runs each layer's forward in turn. Training runs each
    BatchNorm, ReLU, Conv2d in a row as one stage (``BatchNorm.normalize``,
    then ``Conv2d.stage_forward``; backward through the conv, which applies
    the ReLU's mask read off its columns, then the BatchNorm) with the bits
    of the three layers' own passes, and any other layer through its
    forward and backward.
    """

    def __init__(self, layers: list[Layer]):
        self.layers = layers

    def _runs(self) -> list[tuple[Layer, ...]]:
        """The layers as a training step runs them: each BatchNorm, ReLU,
        Conv2d in a row as one pre-activation stage, any other layer alone."""
        runs, i = [], 0
        while i < len(self.layers):
            run = tuple(self.layers[i : i + 3])
            if len(run) < 3 or not all(map(isinstance, run, (BatchNorm, ReLU, Conv2d))):
                run = run[:1]
            runs.append(run)
            i += len(run)
        return runs

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        x = np.moveaxis(x, 1, -1)
        if not train:
            for layer in self.layers:
                x = layer.forward(x, False)
            return x
        # A stage's BatchNorm stops at x-hat and its conv reads the ReLU'd
        # output from it slice by slice (see Conv2d.stage_forward). Each
        # array is rebound as soon as it is read, so the stage's input is
        # freed before the conv runs, and in backward the conv's output
        # gradient before the BatchNorm's.
        for run in self._runs():
            if len(run) == 3:
                bn, _, conv = run
                x = bn.normalize(x)
                x = conv.stage_forward(bn, x)
            else:
                x = run[0].forward(x, True)
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        for run in reversed(self._runs()):
            if len(run) == 3:
                bn, _, conv = run
                grad = conv.backward(grad)  # masked as the ReLU's backward would
                grad = bn.backward(grad)
            else:
                grad = run[0].backward(grad)
        return np.moveaxis(grad, -1, 1)

    def params(self) -> list[Param]:
        return [p for layer in self.layers for p in layer.params()]

    def zero_grads(self) -> None:
        for p in self.params():
            p.grad[...] = 0

    def get_state(self) -> list[np.ndarray]:
        return [a.copy() for layer in self.layers for a in layer.state_arrays()]

    def set_state(self, state: list[np.ndarray]) -> None:
        arrays = [a for layer in self.layers for a in layer.state_arrays()]
        if len(arrays) != len(state):
            raise ValueError(f"state has {len(state)} arrays, network expects {len(arrays)}")
        for dst, src in zip(arrays, state):
            dst[...] = src


def im2col_bytes(layers: list[Layer], height: int, width: int, itemsize: int) -> int:
    """Size of the largest conv column matrix that one height x width sample
    builds on its way through ``layers``."""
    peak = 0
    for layer in layers:
        if isinstance(layer, Conv2d):
            peak = max(peak, layer._column_size(height, width) * itemsize)
            height, width = height // layer.pool_size, width // layer.pool_size
    return peak


def pooled_size(n_mels: int, patch_frames: int, stages: int) -> tuple[int, int]:
    """The height and width that ``stages`` pooling stages of size 2 leave
    of an n_mels x patch_frames input; a ConfigError if none is left."""
    h, w = n_mels // 2**stages, patch_frames // 2**stages
    if h < 1 or w < 1:
        raise ConfigError(f"input {n_mels}x{patch_frames} too small for {stages} "
                          "pooling stages of size 2")
    return h, w


def build_baseline(
    n_mels: int,
    patch_frames: int,
    n_classes: int,
    channels: tuple[int, int, int] = (32, 64, 128),
    kernel_size: int = 5,
    seed: int = 0,
    dtype=np.float32,
) -> Network:
    """Three pre-activation conv stages (BN, ReLU, Conv with 2x2 max
    pooling) feeding a dense softmax classifier.

    Default widths put the trainable parameter count near half a million for
    96-mel, 86-frame inputs; smaller widths can be passed for quick
    experiments.
    """
    if n_mels < 1 or patch_frames < 1 or n_classes < 2:
        raise ConfigError("n_mels, patch_frames must be >= 1 and n_classes >= 2")
    h, w = pooled_size(n_mels, patch_frames, len(channels))
    rng = np.random.default_rng(seed)
    layers: list[Layer] = []
    in_ch = 1
    for i, out_ch in enumerate(channels, start=1):
        layers.append(BatchNorm(in_ch, dtype=dtype, name=f"bn{i}"))
        layers.append(ReLU())
        layers.append(Conv2d(in_ch, out_ch, kernel_size, "same", rng, dtype, name=f"conv{i}",
                             pool_size=2))
        in_ch = out_ch
    layers.append(Dense(in_ch * h * w, n_classes, rng, dtype, name="dense"))
    layers.append(Softmax())
    return Network(layers)


# ---------------------------------------------------------------------------
# Checkpoints: JSON header (layer configs plus caller metadata), then every
# state array as little-endian float32 in layer order.
# ---------------------------------------------------------------------------

_CKPT_MAGIC = b"NBCKPT1\n"


def save_checkpoint(path, net: Network, meta: dict | None = None,
                    extra_arrays: dict[str, np.ndarray] | None = None) -> None:
    extra_arrays = extra_arrays or {}
    header = {
        "layers": [layer.config() for layer in net.layers],
        "meta": meta or {},
        "extra": {k: list(v.shape) for k, v in extra_arrays.items()},
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_write(path) as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        for layer in net.layers:
            for arr in layer.state_arrays():
                fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())
        for name in sorted(extra_arrays):
            fh.write(np.ascontiguousarray(extra_arrays[name], dtype="<f4").tobytes())


def _fold_legacy_pools(configs: list[dict]) -> list[dict]:
    """Layer configs with each ``maxpool`` entry of a header written before
    convs pooled, which follows an unpooled conv, folded into that conv's
    pool_size (the same bits); any other maxpool is a ValueError naming its index."""
    folded = []
    for i, c in enumerate(configs):
        if c["kind"] != "maxpool":
            folded.append(c)
            continue
        prev = configs[i - 1] if i else {}
        if prev.get("kind") != "conv2d" or "pool_size" in prev or c.keys() != {"kind", "size"}:
            raise ValueError(f"layer {i}: maxpool must follow an unpooled conv2d and hold "
                             "only a size")
        # Only the integer 1 leaves the conv plain; the conv checks any other size.
        if c["size"] != 1 or type(c["size"]) is not int:
            folded[-1] = {**prev, "pool_size": c["size"]}
    return folded


def load_checkpoint(path):
    """Rebuild (network, meta, extra_arrays) from a checkpoint file. A file
    cut short, with bytes after its last array or with a header that does
    not describe layers and extra arrays is a DataError. Legacy ``maxpool``
    entries load as pooled convs (see ``_fold_legacy_pools``)."""
    with Path(path).open("rb") as fh:
        magic = fh.read(len(_CKPT_MAGIC))
        if magic != _CKPT_MAGIC:
            if not _CKPT_MAGIC.startswith(magic):
                raise ConfigError(f"{path}: not a checkpoint file")
            raise DataError(f"{path}: checkpoint truncated")

        def read(n):
            data = fh.read(n)
            if len(data) != n:
                raise DataError(f"{path}: checkpoint truncated")
            return data

        (header_len,) = struct.unpack("<I", read(4))
        try:
            header = json.loads(read(header_len).decode("utf-8"))
            configs = _fold_legacy_pools(header["layers"])
            net = Network([_LAYER_KINDS[c["kind"]](**{k: v for k, v in c.items() if k != "kind"})
                           for c in configs])
            if [layer.config() for layer in net.layers] != configs:
                raise ValueError("layer settings missing or not as saved")
            shapes = {name: tuple(header["extra"][name]) for name in sorted(header["extra"])}
            meta = header["meta"]
        # ValueError covers UnicodeDecodeError, JSONDecodeError and a layer
        # whose settings do not round-trip; KeyError and TypeError a missing
        # or unexpected key; ConfigError a value the layer rejects.
        except (ValueError, KeyError, TypeError, ConfigError) as exc:
            raise DataError(f"{path}: unreadable checkpoint header ({exc!r})") from None
        for layer in net.layers:
            for arr in layer.state_arrays():
                arr[...] = np.frombuffer(read(4 * arr.size), dtype="<f4").reshape(arr.shape)
        extra = {}
        for name, shape in shapes.items():
            count = int(np.prod(shape)) if shape else 1
            extra[name] = np.frombuffer(read(4 * count), dtype="<f4").reshape(shape).copy()
        if fh.read(1):
            raise DataError(f"{path}: trailing bytes after the last checkpoint array")
    return net, meta, extra

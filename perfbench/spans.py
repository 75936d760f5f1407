"""In-memory span tracer for noisebench, installed from outside the package.

A span is ``[name, start, end, parent, work]``: perf_counter seconds, the index
of the enclosing span (-1 at the top) and an optional dict of work counts
computed from argument shapes (FLOPs, bytes, clips). Spans stay in memory and
are written out once, when the benchmark ends.

Wrapping rule: a module-level function is replaced under every name that
binds it in any ``noisebench`` module, because callers look names up in their
own module (``training.train`` calls ``noisebench.training.selective_batch_loss``,
not ``noisebench.losses.selective_batch_loss``). The benchmark's own code calls
through module attributes, so it sees the same wrappers.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from pathlib import Path
from time import perf_counter

# Layer kinds of build_baseline, in stack order per stage, and their span labels.
_STAGE_LABELS = {"batchnorm": "bn", "relu": "relu", "conv2d": "conv", "maxpool": "pool"}
_HEAD_LABELS = {"dense": "dense", "softmax": "softmax"}


def conv_flops(batch: int, out_h: int, out_w: int, in_ch: int, out_ch: int, k: int) -> int:
    """Multiply-adds of one stride-1 convolution forward, counted as 2 FLOPs
    each: every output element is a dot product over in_ch * k * k inputs."""
    return 2 * batch * out_h * out_w * out_ch * in_ch * k * k


def im2col_bytes(batch: int, out_h: int, out_w: int, in_ch: int, k: int, itemsize: int) -> int:
    """Size of the (B * Ho * Wo, C * k * k) column matrix a conv call builds."""
    return batch * out_h * out_w * in_ch * k * k * itemsize


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- recording --------------------------------------------------------

    def call(self, name, fn, args, kwargs, work=None):
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, work]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def open_names(self) -> list[str]:
        return [self.spans[i][0] for i in self._stack]

    def wrap(self, name, fn, work_of=None, after=None):
        """A traced stand-in for fn. ``name`` may be a callable of the call's
        arguments; ``work_of`` gives the span's work dict before the call and
        ``after`` may add to it from the result."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name(*args, **kwargs) if callable(name) else name
            work = work_of(*args, **kwargs) if work_of else None
            index = len(tracer.spans)
            result = tracer.call(span_name, fn, args, kwargs, work)
            if after is not None:
                extra = after(result, *args, **kwargs)
                if extra:
                    span = tracer.spans[index]
                    span[4] = {**(span[4] or {}), **extra}
            return result

        return traced

    # -- installing -------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def replace_everywhere(self, original, replacement):
        """Rebind every name that binds ``original`` in any noisebench module."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "noisebench" or mod_name.startswith("noisebench.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, replacement)

    def patch_function(self, module, attr, name, **kw):
        original = getattr(module, attr)
        self.replace_everywhere(original, self.wrap(name, original, **kw))

    def patch_method(self, cls, attr, name, **kw):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(self.wrap(name, raw.__func__, **kw)))
        else:
            self._set(cls, attr, self.wrap(name, raw, **kw))

    def instrument_network(self, network):
        """Wrap forward/backward of each layer instance of a build_baseline
        network under ``layers.<label>.<fwd|bwd|infer>`` (bn1, relu1, conv1,
        pool1, ..., dense, softmax)."""
        stage = 0
        for layer in network.layers:
            if layer.kind == "batchnorm":
                stage += 1
            if layer.kind in _STAGE_LABELS:
                label = f"{_STAGE_LABELS[layer.kind]}{stage}"
            else:
                label = _HEAD_LABELS.get(layer.kind, layer.kind)
            fwd_work = bwd_work = None
            if layer.kind == "conv2d":
                fwd_work, bwd_work = _conv_work(layer)
            self._set(layer, "forward", self.wrap(
                lambda x, train, _l=label: f"layers.{_l}.{'fwd' if train else 'infer'}",
                layer.forward, work_of=fwd_work))
            self._set(layer, "backward", self.wrap(
                f"layers.{label}.bwd", layer.backward, work_of=bwd_work))
        return network

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)



_MISSING = object()


def write_jsonl(spans, path: Path) -> None:
    """One JSON object per span, in recording order (parents are indices)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    with tmp.open("w", encoding="utf-8") as fh:
        for name, start, end, parent, work in spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end,
                                 "parent": parent, "work": work}) + "\n")
    os.replace(tmp, path)


def _conv_work(conv):
    """Work-dict functions for a Conv2d's forward and backward, from shapes.
    Backward does two products of the forward's size (weight and input
    gradients), so twice its FLOPs."""
    out_ch, in_ch, k, _ = conv.weight.value.shape
    pad = conv.pad

    def out_hw(h, w):
        return h + 2 * pad - k + 1, w + 2 * pad - k + 1

    def fwd(x, train):
        b, _, h, w = x.shape
        ho, wo = out_hw(h, w)
        return {"flop": conv_flops(b, ho, wo, in_ch, out_ch, k),
                "im2col_bytes": im2col_bytes(b, ho, wo, in_ch, k, x.dtype.itemsize)}

    def bwd(grad):
        b, _, ho, wo = grad.shape
        return {"flop": 2 * conv_flops(b, ho, wo, in_ch, out_ch, k)}

    return fwd, bwd


def install(tracer: Tracer, networks=()) -> None:
    """Wrap the public functions of noisebench's traced modules, the
    Network/Adam/Standardizer methods, and the layers of ``networks`` plus
    every network build_baseline returns while installed."""
    from noisebench import audio_io, datasets, features, layers, losses, noise, optim, training

    t = tracer
    for mod, attr, name in (
        (datasets, "gen_synthetic_dataset", "datasets.gen_synthetic_dataset"),
        (datasets, "load_manifest", "datasets.load_manifest"),
        (datasets, "select_subset", "datasets.select_subset"),
        (features, "stft_power", "features.stft_power"),
        (features, "mel_filterbank", "features.mel_filterbank"),
        (features, "patchify", "features.patchify"),
        (features, "load_feature_cache", "features.load_feature_cache"),
        (training, "run_single", "training.run_single"),
        (training, "train", "training.train"),
        (training, "build_patchset", "training.build_patchset"),
        (training, "predict_clip", "training.predict_clip"),
    ):
        t.patch_function(mod, attr, name)

    t.patch_function(audio_io, "read_wav", "audio_io.read_wav",
                     after=lambda clip, path, *a, **k: {"bytes": os.path.getsize(path)})
    t.patch_function(features, "extract_logmel", "features.extract_logmel",
                     work_of=lambda clip, cfg: {"audio_s": clip.duration})
    t.patch_function(features, "save_feature_cache", "features.save_feature_cache",
                     work_of=lambda path, m: {"bytes": 12 + 4 * m.values.size})
    t.patch_function(noise, "inject_noise", "noise.inject_noise", after=_noise_work)
    t.patch_function(losses, "selective_batch_loss", "losses.selective_batch_loss",
                     after=_loss_work)
    t.patch_function(training, "clip_accuracy", "training.clip_accuracy",
                     work_of=lambda net, ps: {"clips": len(ps.clip_ids)})

    t.patch_method(layers.Network, "forward",
                   lambda self, x, train=False: f"layers.network.{'fwd' if train else 'infer'}",
                   work_of=lambda self, x, train=False: _forward_work(t, train))
    t.patch_method(layers.Network, "backward", "layers.network.bwd")
    t.patch_method(optim.Adam, "step", "optim.adam_step")
    t.patch_method(training.Standardizer, "fit", "training.standardizer")
    t.patch_method(training.Standardizer, "apply", "training.standardizer")

    original_build = layers.build_baseline

    @functools.wraps(original_build)
    def build_and_instrument(*args, **kwargs):
        return t.instrument_network(original_build(*args, **kwargs))

    t.replace_everywhere(original_build, build_and_instrument)
    for net in networks:
        t.instrument_network(net)


def _forward_work(tracer, train):
    # Marks inference forwards made on behalf of clip evaluation, so the
    # forward-calls-per-clip ratio is counted where the work happens.
    if not train and "training.clip_accuracy" in tracer.open_names():
        return {"clip_eval_forward": 1}
    return None


def _loss_work(result, probs, targets, origins, cfg):
    _, grads = result
    kept = int((grads != 0).any(axis=1).sum())
    return {"kept": kept, "batch": int(probs.shape[0])}


def _noise_work(result, clips, *args, **kwargs):
    _, _, log = result
    corrupted = sum(e.noise_type != "correct" for e in log.entries.values())
    return {"corrupted": corrupted, "records": len(log.entries)}


# -- analysis ---------------------------------------------------------------


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval covered by its
    direct children (overlapping children are merged, not double counted)."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted((max(spans[c][1], start), min(spans[c][2], end))
                             for c in children[i]):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out

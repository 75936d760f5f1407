"""Metric names, per-layer metrics derived from spans, and machine facts."""

from __future__ import annotations

import ctypes
import os
import platform
from collections import defaultdict
from statistics import median

from spans import self_times

STAGES = (1, 2, 3)
PHASES = ("fwd", "bwd", "infer")

# (name, unit, better) of the end-to-end metrics every workload reports.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("op_s", "s", "lower"),
    ("phase1_per_s", "1/s", "higher"),
    ("phase2_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

# The issue-level names behind phase1_per_s and phase2_per_s, per workload.
PHASE_NAMES = {
    "desk_cell": ("train_patches_per_s", "eval_clips_per_s"),
    "paper_net": ("train_patches_per_s", "eval_clips_per_s"),
    "ingest": ("features_rtf", "cached_clips_per_s"),
}


def _per_layer_names():
    out = []
    for i in STAGES:
        for kind in ("bn", "conv", "pool"):
            out += [(f"layers.{kind}{i}.{p}_ms", "ms", "lower") for p in PHASES]
        out.append((f"layers.conv{i}.gflop_per_s", "GFLOP/s", "higher"))
        out.append((f"layers.conv{i}.im2col_mb", "MB", "lower"))
    for group in ("relu", "head"):
        out += [(f"layers.{group}.{p}_ms", "ms", "lower") for p in PHASES]
    out += [
        ("training.step_ms", "ms", "lower"),
        ("training.train_self_ms", "ms", "lower"),
        ("training.clip_accuracy_ms", "ms", "lower"),
        ("training.clip_accuracy_self_ms", "ms", "lower"),
        ("training.forward_calls_per_clip", "ratio", "lower"),
        ("training.build_patchset_ms", "ms", "lower"),
        ("training.standardizer_ms", "ms", "lower"),
        ("training.epochs", "count", "higher"),
        ("training.steps", "count", "higher"),
        ("losses.batch_loss_ms", "ms", "lower"),
        ("losses.kept_fraction", "ratio", "higher"),
        ("optim.adam_step_ms", "ms", "lower"),
        ("features.extract_ms_per_audio_s", "ms/s", "lower"),
        ("features.stft_ms", "ms", "lower"),
        ("features.filterbank_ms", "ms", "lower"),
        ("features.filterbank_calls_per_clip", "ratio", "lower"),
        ("features.patchify_ms", "ms", "lower"),
        ("features.cache_write_ms", "ms", "lower"),
        ("features.cache_read_ms", "ms", "lower"),
        ("features.cache_mb_written", "MB", "lower"),
        ("audio_io.read_wav_ms", "ms", "lower"),
        ("audio_io.read_mb_per_s", "MB/s", "higher"),
        ("noise.inject_ms", "ms", "lower"),
        ("noise.corrupted_fraction", "ratio", "higher"),
        ("datasets.gen_synthetic_s", "s", "lower"),
        ("datasets.load_manifest_ms", "ms", "lower"),
        ("datasets.select_subset_ms", "ms", "lower"),
        ("trace.overhead_pct", "%", "lower"),
    ]
    return tuple(out)


PER_LAYER = _per_layer_names()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _step_durations(spans) -> list[float]:
    """A train step runs from a training forward to the Adam step that
    follows it under the same parent."""
    steps, fwd_start = [], {}
    for name, start, end, parent, _ in spans:
        if name == "layers.network.fwd":
            fwd_start[parent] = start
        elif name == "optim.adam_step" and parent in fwd_start:
            steps.append(end - fwd_start.pop(parent))
    return steps


def per_layer(spans, overhead_pct: float) -> dict:
    """Every PER_LAYER metric from a span list. ``*_ms`` is the median per
    call; counts and ratios cover the whole traced measurement; a layer that
    never ran reads 0."""
    by_name = defaultdict(list)
    for i, span in enumerate(spans):
        by_name[span[0]].append(i)
    selfs = self_times(spans)

    def dur(i):
        return spans[i][2] - spans[i][1]

    def med_ms(name, values=None):
        idx = by_name[name]
        vals = values if values is not None else [dur(i) for i in idx]
        return 1e3 * median(vals) if vals else 0.0

    def work_sum(names, key):
        return sum((spans[i][4] or {}).get(key, 0) for n in names for i in by_name[n])

    def dur_sum(names):
        return sum(dur(i) for n in names for i in by_name[n])

    def grouped_ms(names):
        # Sum of the named spans under each parent (one network pass), median over passes.
        per_parent = defaultdict(float)
        for n in names:
            for i in by_name[n]:
                per_parent[spans[i][3]] += dur(i)
        return 1e3 * median(per_parent.values()) if per_parent else 0.0

    m = {}
    for i in STAGES:
        for kind in ("bn", "conv", "pool"):
            for p in PHASES:
                m[f"layers.{kind}{i}.{p}_ms"] = med_ms(f"layers.{kind}{i}.{p}")
        conv = [f"layers.conv{i}.{p}" for p in PHASES]
        m[f"layers.conv{i}.gflop_per_s"] = _ratio(work_sum(conv, "flop"), dur_sum(conv)) / 1e9
        im2col = [(spans[j][4] or {}).get("im2col_bytes", 0) for j in by_name[f"layers.conv{i}.fwd"]]
        m[f"layers.conv{i}.im2col_mb"] = median(im2col) / 1e6 if im2col else 0.0
    for p in PHASES:
        m[f"layers.relu.{p}_ms"] = grouped_ms([f"layers.relu{i}.{p}" for i in STAGES])
        m[f"layers.head.{p}_ms"] = grouped_ms([f"layers.dense.{p}", f"layers.softmax.{p}"])

    steps = _step_durations(spans)
    m["training.step_ms"] = 1e3 * median(steps) if steps else 0.0
    m["training.train_self_ms"] = med_ms(
        "training.train", [selfs[i] for i in by_name["training.train"]])
    m["training.clip_accuracy_ms"] = med_ms("training.clip_accuracy")
    m["training.clip_accuracy_self_ms"] = med_ms(
        "training.clip_accuracy", [selfs[i] for i in by_name["training.clip_accuracy"]])
    m["training.forward_calls_per_clip"] = _ratio(
        work_sum(["layers.network.infer"], "clip_eval_forward"),
        work_sum(["training.clip_accuracy"], "clips"))
    m["training.build_patchset_ms"] = med_ms("training.build_patchset")
    m["training.standardizer_ms"] = med_ms("training.standardizer")
    train_spans = set(by_name["training.train"])
    m["training.epochs"] = sum(spans[i][3] in train_spans
                               for i in by_name["training.clip_accuracy"])
    m["training.steps"] = len(by_name["optim.adam_step"])

    m["losses.batch_loss_ms"] = med_ms("losses.selective_batch_loss")
    m["losses.kept_fraction"] = _ratio(work_sum(["losses.selective_batch_loss"], "kept"),
                                       work_sum(["losses.selective_batch_loss"], "batch"))
    m["optim.adam_step_ms"] = med_ms("optim.adam_step")

    extract = ["features.extract_logmel"]
    m["features.extract_ms_per_audio_s"] = 1e3 * _ratio(dur_sum(extract),
                                                        work_sum(extract, "audio_s"))
    m["features.stft_ms"] = med_ms("features.stft_power")
    m["features.filterbank_ms"] = med_ms("features.mel_filterbank")
    m["features.filterbank_calls_per_clip"] = _ratio(len(by_name["features.mel_filterbank"]),
                                                     len(by_name["features.extract_logmel"]))
    m["features.patchify_ms"] = med_ms("features.patchify")
    m["features.cache_write_ms"] = med_ms("features.save_feature_cache")
    m["features.cache_read_ms"] = med_ms("features.load_feature_cache")
    m["features.cache_mb_written"] = work_sum(["features.save_feature_cache"], "bytes") / 1e6

    m["audio_io.read_wav_ms"] = med_ms("audio_io.read_wav")
    m["audio_io.read_mb_per_s"] = _ratio(work_sum(["audio_io.read_wav"], "bytes") / 1e6,
                                         dur_sum(["audio_io.read_wav"]))
    m["noise.inject_ms"] = med_ms("noise.inject_noise")
    m["noise.corrupted_fraction"] = _ratio(work_sum(["noise.inject_noise"], "corrupted"),
                                           work_sum(["noise.inject_noise"], "records"))
    gen = [dur(i) for i in by_name["datasets.gen_synthetic_dataset"]]
    m["datasets.gen_synthetic_s"] = median(gen) if gen else 0.0
    m["datasets.load_manifest_ms"] = med_ms("datasets.load_manifest")
    m["datasets.select_subset_ms"] = med_ms("datasets.select_subset")
    m["trace.overhead_pct"] = overhead_pct
    return m


def attribution(spans) -> dict:
    """Where the blocking time goes: each layer kind's share of train-step
    time (self time of its fwd/bwd spans over the summed step spans), and
    clip evaluation's share of run_single time."""
    kinds = ("conv", "pool", "bn", "relu", "dense", "softmax")
    own = defaultdict(float)
    for span, t in zip(spans, self_times(spans)):
        parts = span[0].split(".")
        if parts[0] == "layers" and parts[-1] in ("fwd", "bwd"):
            kind = parts[1].rstrip("0123456789")
            if kind in kinds:
                own[kind] += t
    step_total = sum(_step_durations(spans))
    out = {f"train_step.{k}": _ratio(own[k], step_total) for k in kinds}
    run_total = clip_eval = 0.0
    run_spans = set()
    for i, (name, start, end, parent, _) in enumerate(spans):
        if name == "training.run_single":
            run_total += end - start
            run_spans.add(i)
    for name, start, end, parent, _ in spans:
        if name == "training.clip_accuracy" and _has_ancestor(spans, parent, run_spans):
            clip_eval += end - start
    out["run_single.clip_accuracy"] = _ratio(clip_eval, run_total)
    return out


def _has_ancestor(spans, index, targets) -> bool:
    while index >= 0:
        if index in targets:
            return True
        index = spans[index][3]
    return False


def self_time_shares(spans, since: float, wall: float, top: int = 12):
    """Names with the largest total self time among spans that start at or
    after ``since``, as shares of ``wall``."""
    total = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        if span[1] >= since:
            total[span[0]] += own
    ranked = sorted(total.items(), key=lambda kv: -kv[1])[:top]
    return [(name, _ratio(t, wall)) for name, t in ranked]


# -- machine facts (read only) ----------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Threads the loaded OpenBLAS will use, asked of the library itself;
    None when no OpenBLAS is mapped into this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def machine_facts() -> dict:
    import numpy as np
    import scipy

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "openblas_num_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }

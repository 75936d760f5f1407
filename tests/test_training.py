"""Validation split, standardization, clip aggregation, training loop,
and the multi-seed experiment report."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import noisebench
from noisebench import (
    FeatureConfig,
    LossConfig,
    Origin,
    TrainConfig,
    build_baseline,
    predict_clip,
    run_experiment,
    run_single,
    stratified_val_split,
    train,
)
from noisebench import layers
from noisebench.datasets import LabelRecord, Split
from noisebench.errors import DataError
from noisebench.features import (
    LogMelMatrix,
    load_feature_cache,
    save_feature_cache,
)
from noisebench.layers import im2col_bytes
from noisebench.training import (
    EpochStats,
    PatchSet,
    RunReport,
    Standardizer,
    build_patchset,
    clip_accuracy,
    confidence_halfwidth,
    precompute_features,
    predict_clips,
    read_report_csv,
    student_t_quantile,
    write_history_csv,
    write_report_csv,
)


def records_for(sizes):
    records = []
    for k, n in enumerate(sizes):
        for i in range(n):
            records.append(LabelRecord(f"c{k}_{i}.wav", k, Origin.NOISY, Split.TRAIN))
    return records


class TestStratifiedValSplit:
    def test_rounding_rule(self):
        train_recs, val_recs = stratified_val_split(records_for([20]), 0.15, seed=0)
        assert len(val_recs) == 3
        assert len(train_recs) == 17

    def test_deterministic(self):
        records = records_for([20, 31, 8])
        a = stratified_val_split(records, 0.15, seed=4)
        b = stratified_val_split(records, 0.15, seed=4)
        assert a == b

    def test_per_class_counts_by_recount(self):
        rng = np.random.default_rng(1)
        sizes = [int(rng.integers(51, 171)) for _ in range(6)]
        records = records_for(sizes)
        _, val_recs = stratified_val_split(records, 0.15, seed=2)
        for k, n in enumerate(sizes):
            got = sum(1 for r in val_recs if r.class_index == k)
            assert got == int(np.floor(0.15 * n + 0.5))

    def test_partition(self):
        records = records_for([5, 9])
        train_recs, val_recs = stratified_val_split(records, 0.3, seed=3)
        assert sorted(r.clip_id for r in train_recs + val_recs) == sorted(
            r.clip_id for r in records
        )
        assert not {r.clip_id for r in train_recs} & {r.clip_id for r in val_recs}

    def test_tiny_class_is_an_error(self):
        with pytest.raises(DataError, match="class 1"):
            stratified_val_split(records_for([5, 1]), 0.15, seed=0)

    def test_every_class_keeps_at_least_one_on_each_side(self):
        _, val_recs = stratified_val_split(records_for([2, 2]), 0.05, seed=0)
        assert len(val_recs) == 2  # one per class despite round(0.1) == 0


class TestStandardizer:
    def test_train_patch_moments_after_standardizing(self):
        rng = np.random.default_rng(5)
        patches = (3.0 + 2.0 * rng.standard_normal((40, 1, 24, 30))).astype(np.float32)
        std = Standardizer.fit(patches)
        out = std.apply(patches)
        mean = out.mean(axis=(0, 1, 3))
        sigma = out.std(axis=(0, 1, 3))
        assert np.abs(mean).max() < 1e-3
        assert np.abs(sigma - 1.0).max() < 1e-2

    @pytest.mark.parametrize("shape", [(1, 1, 24, 50), (37, 1, 24, 50), (16, 1, 96, 86),
                                       (5, 1, 16, 62)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bits_match_two_pass_numpy_moments(self, shape, dtype):
        rng = np.random.default_rng(shape[0])
        patches = (-4.0 + 3.0 * rng.standard_normal(shape)).astype(dtype)
        ref = ReferenceStandardizer.fit(patches)
        got = Standardizer.fit(patches)
        assert got.mean.shape == got.std.shape == (shape[2],)
        assert np.array_equal(got.mean, ref.mean) and np.array_equal(got.std, ref.std)
        assert np.array_equal(got.apply(patches.copy()), ref.apply(patches.copy()))

    def test_apply_standardizes_its_input_in_place(self):
        patches = np.random.default_rng(6).standard_normal((8, 1, 16, 20)).astype(np.float32)
        standardizer = Standardizer.fit(patches)
        expected = ReferenceStandardizer(standardizer.mean, standardizer.std).apply(patches)
        out = standardizer.apply(patches)
        assert out is patches
        assert np.array_equal(patches, expected)

    def test_apply_allocates_no_patch_array(self):
        patches = np.random.default_rng(7).standard_normal((64, 1, 96, 86)).astype(np.float32)
        standardizer = Standardizer.fit(patches)
        peak, _ = traced_peak(standardizer.apply, patches)
        assert peak < 0.05 * patches.nbytes  # numpy's ufunc buffers at most


def traced_peak(fn, *args):
    """tracemalloc peak of one call, and the call's result."""
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, result


class ReferenceStandardizer(Standardizer):
    """Two-pass numpy moments and an out-of-place apply."""

    @classmethod
    def fit(cls, patches):
        mean = patches.mean(axis=(0, 1, 3))
        std = patches.std(axis=(0, 1, 3))
        return cls(mean.astype(np.float32), np.maximum(std, 1e-8).astype(np.float32))

    def apply(self, patches):
        return (patches - self.mean[None, None, :, None]) / self.std[None, None, :, None]


def reference_patchify(values, n_patch):
    """One (n_mels, n_patch) array per patch: a short matrix tiled
    cyclically, a long one cut into consecutive patches."""
    n_frames = values.shape[1]
    if n_frames < n_patch:
        return [np.tile(values, -(-n_patch // n_frames))[:, :n_patch]]
    return [values[:, i * n_patch : (i + 1) * n_patch] for i in range(n_frames // n_patch)]


def reference_build_patchset(records, features, cfg, n_classes):
    """Per-clip float32 copies, stacked, then cast again."""
    xs, labels, origins, clip_index, clip_ids, clip_labels = [], [], [], [], [], []
    for rec in records:
        matrix = features[rec.clip_id]
        matrix = LogMelMatrix(matrix.values.astype(np.float32), matrix.clip_id,
                              matrix.frame_rate)
        idx = len(clip_ids)
        clip_ids.append(rec.clip_id)
        clip_labels.append(rec.class_index)
        for patch in reference_patchify(matrix.values, cfg.patch_frames):
            xs.append(patch[None, :, :])
            labels.append(rec.class_index)
            origins.append(rec.origin)
            clip_index.append(idx)
    return PatchSet(
        x=np.stack(xs).astype(np.float32),
        labels=np.asarray(labels, dtype=np.int64),
        origins=np.asarray(origins, dtype=object),
        clip_index=np.asarray(clip_index, dtype=np.int64),
        clip_ids=clip_ids,
        clip_labels=np.asarray(clip_labels, dtype=np.int64),
        n_classes=n_classes,
    )


# The desk (criterion 6), paper and CLI test feature configs.
PATCH_CONFIGS = {
    "desk": FeatureConfig(sample_rate=4000, fft_size=256, hop=160, n_mels=24),
    "paper": FeatureConfig(),
    "cli": FeatureConfig(sample_rate=2000, fft_size=128, hop=64, n_mels=16),
}


def logmel_set(cfg, frame_counts, seed=0):
    """Records and float64 log-mel-like matrices with the given frame counts;
    labels and origins alternate."""
    rng = np.random.default_rng(seed)
    records, features = [], {}
    for i, n_frames in enumerate(frame_counts):
        clip_id = f"clip{i}.wav"
        origin = Origin.CLEAN if i % 3 == 0 else Origin.NOISY
        records.append(LabelRecord(clip_id, i % 4, origin, Split.TRAIN))
        values = -10.0 + 4.0 * rng.standard_normal((cfg.n_mels, n_frames))
        features[clip_id] = LogMelMatrix(values, clip_id, cfg.frame_rate)
    return records, features


def frame_ladder(cfg):
    """Tiled short clips (1 frame up to one short of a patch), exact-length
    clips and multi-patch clips with and without a remainder."""
    pf = cfg.patch_frames
    return [1, 2, pf // 3, pf - 1, pf, 2 * pf, 2 * pf + pf // 2, 3 * pf - 1, pf + 1]


def assert_same_patchset(got, ref):
    assert got.x.dtype == ref.x.dtype == np.float32
    assert np.array_equal(got.x, ref.x)
    for name in ("labels", "clip_index", "clip_labels"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert got.origins.dtype == object and list(got.origins) == list(ref.origins)
    assert got.clip_ids == ref.clip_ids and got.n_classes == ref.n_classes


class TestBuildPatchset:
    @pytest.mark.parametrize("name", PATCH_CONFIGS)
    def test_bits_match_stack_then_cast_on_fresh_features(self, name):
        cfg = PATCH_CONFIGS[name]
        records, features = logmel_set(cfg, frame_ladder(cfg))
        got = build_patchset(records, features, cfg, 4)
        assert_same_patchset(got, reference_build_patchset(records, features, cfg, 4))

    @pytest.mark.parametrize("name", PATCH_CONFIGS)
    def test_bits_match_stack_then_cast_on_cached_features(self, name, tmp_path):
        cfg = PATCH_CONFIGS[name]
        records, fresh = logmel_set(cfg, frame_ladder(cfg), seed=1)
        cached = {}
        for clip_id, matrix in fresh.items():
            save_feature_cache(tmp_path / f"{clip_id}.lmf", matrix)
            cached[clip_id] = load_feature_cache(tmp_path / f"{clip_id}.lmf", clip_id)
        got = build_patchset(records, cached, cfg, 4)
        assert_same_patchset(got, reference_build_patchset(records, cached, cfg, 4))
        # Fresh float64 and cached float32 features stack to the same patches.
        assert np.array_equal(got.x, build_patchset(records, fresh, cfg, 4).x)

    @pytest.mark.parametrize("frames", [1, 62, 200])
    def test_single_record(self, frames):
        cfg = PATCH_CONFIGS["cli"]
        records, features = logmel_set(cfg, [frames], seed=frames)
        got = build_patchset(records, features, cfg, 2)
        assert_same_patchset(got, reference_build_patchset(records, features, cfg, 2))

    def test_standardized_trend_set_matches_the_reference(self):
        cfg = PATCH_CONFIGS["desk"]
        records, features = logmel_set(cfg, [12, 25, 50, 51, 130, 7, 99, 150] * 6, seed=4)
        got = build_patchset(records, features, cfg, 4)
        ref = reference_build_patchset(records, features, cfg, 4)
        standardizer = Standardizer.fit(got.x)
        reference = ReferenceStandardizer.fit(ref.x)
        assert np.array_equal(standardizer.apply(got.x), reference.apply(ref.x))

    def test_empty_record_list_is_a_data_error(self):
        with pytest.raises(DataError, match="no patches"):
            build_patchset([], {}, PATCH_CONFIGS["cli"], 2)

    def test_peak_memory_is_one_output_array(self):
        # Short, exact and long clips of float64 features at the paper config;
        # stacking used to hold per-clip copies, the stack and its cast.
        cfg = PATCH_CONFIGS["paper"]
        pf = cfg.patch_frames
        records, features = logmel_set(cfg, [pf // 4, pf, 3 * pf + 5, 2 * pf - 1] * 20)
        peak, patchset = traced_peak(build_patchset, records, features, cfg, 4)
        assert patchset.x.nbytes > 3_000_000
        assert peak <= 1.2 * patchset.x.nbytes


class FakeNetwork:
    """Maps patch index (stored in the patch content) to a preset row."""

    def __init__(self, rows):
        self.rows = np.asarray(rows, dtype=np.float64)

    def forward(self, x, train=False):
        idx = x[:, 0, 0, 0].astype(int)
        return self.rows[idx]


def index_patches(n):
    x = np.zeros((n, 1, 2, 2))
    x[:, 0, 0, 0] = np.arange(n)
    return x


class TestPredictClip:
    def test_single_patch_is_identity(self):
        rows = [[0.2, 0.5, 0.3]]
        probs, pred = predict_clip(FakeNetwork(rows), index_patches(1))
        np.testing.assert_allclose(probs, rows[0], atol=1e-9)
        assert pred == 1

    def test_two_symmetric_patches_tie_to_lowest_index(self):
        rows = [[0.8, 0.2], [0.2, 0.8]]
        probs, pred = predict_clip(FakeNetwork(rows), index_patches(2))
        np.testing.assert_allclose(probs, [0.5, 0.5], atol=1e-9)
        assert pred == 0

    def test_three_patches_match_high_precision_oracle(self):
        rng = np.random.default_rng(6)
        rows = rng.dirichlet(np.ones(5), size=3)
        probs, _ = predict_clip(FakeNetwork(rows), index_patches(3))
        mp.mp.dps = 50
        g = [mp.exp(mp.fsum(mp.log(mp.mpf(float(p)) + mp.mpf("1e-12")) for p in rows[:, k]) / 3)
             for k in range(5)]
        total = mp.fsum(g)
        oracle = np.array([float(v / total) for v in g])
        assert np.abs(probs - oracle).max() < 1e-9

    def test_order_and_scale_invariance_of_argmax(self):
        rng = np.random.default_rng(7)
        rows = 0.001 + rng.dirichlet(np.ones(4), size=5)
        rows /= rows.sum(axis=1, keepdims=True)
        _, pred = predict_clip(FakeNetwork(rows), index_patches(5))
        perm = rng.permutation(5)
        _, pred_perm = predict_clip(FakeNetwork(rows[perm]), index_patches(5))
        _, pred_scaled = predict_clip(FakeNetwork(0.5 * rows), index_patches(5))
        assert pred == pred_perm == pred_scaled

    def test_idempotent_on_identical_patches(self):
        rows = np.tile([[0.1, 0.6, 0.3]], (4, 1))
        probs, _ = predict_clip(FakeNetwork(rows), index_patches(4))
        np.testing.assert_allclose(probs, rows[0], atol=1e-9)

    def test_no_patches_rejected(self):
        with pytest.raises(ValueError):
            predict_clip(FakeNetwork([[1.0]]), np.zeros((0, 1, 2, 2)))


def patchset_from_rows(n_rows, labels, k):
    return PatchSet(
        x=index_patches(n_rows),
        labels=np.asarray(labels),
        origins=np.asarray([Origin.CLEAN] * n_rows, dtype=object),
        clip_index=np.arange(n_rows),
        clip_ids=[f"clip{i}" for i in range(n_rows)],
        clip_labels=np.asarray(labels),
        n_classes=k,
    )


class TestEvaluate:
    def test_oracle_network_scores_one(self):
        labels = [0, 2, 1, 3]
        rows = np.eye(4)[labels]
        assert clip_accuracy(FakeNetwork(rows), patchset_from_rows(4, labels, 4)) == 1.0

    def test_uniform_network_scores_class_zero_prevalence(self):
        labels = [0, 1, 2, 3] * 5
        rows = np.full((20, 4), 0.25)
        acc = clip_accuracy(FakeNetwork(rows), patchset_from_rows(20, labels, 4))
        assert acc == 0.25  # argmax ties break to class 0

    def test_hand_built_two_thirds(self):
        labels = [0, 1, 1]
        rows = [[0.9, 0.1], [0.2, 0.8], [0.7, 0.3]]
        acc = clip_accuracy(FakeNetwork(rows), patchset_from_rows(3, labels, 2))
        assert acc == pytest.approx(2.0 / 3.0)


class TestBatchedClipEvaluation:
    def test_matches_a_per_clip_loop(self, monkeypatch):
        # Uneven clips of 1-7 patches through a real float64 network, with
        # inference chunks of 3 patches so chunk boundaries fall inside clips.
        rng = np.random.default_rng(12)
        counts = rng.permutation([1, 2, 3, 4, 5, 6, 7, 3, 1, 5])
        bounds = np.concatenate([[0], np.cumsum(counts)])
        assert set(range(3, bounds[-1], 3)) - set(bounds)
        clip_labels = rng.integers(0, 3, counts.size)
        clip_index = np.repeat(np.arange(counts.size), counts)
        ps = PatchSet(
            x=rng.standard_normal((clip_index.size, 1, 8, 8)),
            labels=clip_labels[clip_index],
            origins=np.full(clip_index.size, Origin.CLEAN, dtype=object),
            clip_index=clip_index,
            clip_ids=[f"c{i}" for i in range(counts.size)],
            clip_labels=clip_labels,
            n_classes=3,
        )
        net = build_baseline(8, 8, 3, channels=(2, 3, 4), seed=4, dtype=np.float64)
        monkeypatch.setattr(layers, "COLS_BYTES", 3 * im2col_bytes(net.layers, 8, 8, 8))

        probs, preds = predict_clips(net, ps)
        for i in range(counts.size):
            p_i, pred_i = predict_clip(net, ps.patches_of_clip(i))
            assert np.abs(probs[i] - p_i).max() < 1e-12
            assert preds[i] == pred_i
        assert clip_accuracy(net, ps) == np.mean(preds == clip_labels)

    # The desk network's conv2 builds the largest columns at 12x25 (64,800
    # bytes a patch) and the paper network's at 48x43 (6,604,800); at full
    # resolution they would be 259,200 and 26,419,200 bytes, chunks of 61
    # and 1 patches, and a chunk of 1 changes paper-shape inference bits
    # through Dense's product.
    @pytest.mark.parametrize("n_mels,frames,classes,kwargs,n,chunks", [
        (24, 50, 4, {"channels": (6, 10, 14), "kernel_size": 3}, 500, [246, 246, 8]),
        (96, 86, 20, {}, 5, [2, 2, 1]),
    ], ids=["desk", "paper"])
    def test_baseline_inference_chunks(self, n_mels, frames, classes, kwargs, n, chunks):
        net = build_baseline(n_mels, frames, classes, **kwargs)
        sizes = []

        def forward(x, train=False):
            sizes.append(len(x))
            return np.zeros((len(x), classes))

        net.forward = forward
        predict_clip(net, np.zeros((n, 1, n_mels, frames), dtype=np.float32))
        assert sizes == chunks

    def test_clip_without_patches_rejected(self):
        ps = patchset_from_rows(3, [0, 1, 1], 2)
        ps.clip_ids.append("empty")
        ps.clip_labels = np.append(ps.clip_labels, 0)
        with pytest.raises(ValueError, match="no patches"):
            clip_accuracy(FakeNetwork([[0.9, 0.1], [0.2, 0.8], [0.7, 0.3]]), ps)

    def test_only_clip_without_patches_rejected(self):
        # No patches at all run as one empty inference, which reaches the
        # clip check.
        ps = PatchSet(x=np.zeros((0, 1, 8, 8), dtype=np.float32), labels=np.zeros(0, dtype=int),
                      origins=np.zeros(0, dtype=object), clip_index=np.zeros(0, dtype=int),
                      clip_ids=["only"], clip_labels=np.zeros(1, dtype=int), n_classes=3)
        net = build_baseline(8, 8, 3, channels=(2, 3, 4))
        with pytest.raises(ValueError, match="clip 0 has no patches"):
            clip_accuracy(net, ps)

    def test_patches_of_a_clip_must_be_contiguous(self):
        with pytest.raises(ValueError, match="clip_index"):
            PatchSet(x=index_patches(3), labels=np.zeros(3, dtype=int),
                     origins=np.full(3, Origin.CLEAN, dtype=object),
                     clip_index=np.array([0, 1, 0]), clip_ids=["a", "b"],
                     clip_labels=np.zeros(2, dtype=int), n_classes=2)


def separable_patchset(n_per_class=12, seed=0):
    """Two classes distinguished by which half of the patch carries energy."""
    rng = np.random.default_rng(seed)
    xs, labels = [], []
    for i in range(2 * n_per_class):
        label = i % 2
        patch = 0.05 * rng.standard_normal((1, 8, 10))
        if label == 0:
            patch[0, :4, :] += 1.0
        else:
            patch[0, 4:, :] += 1.0
        xs.append(patch)
        labels.append(label)
    labels = np.asarray(labels)
    return PatchSet(
        x=np.stack(xs).astype(np.float32),
        labels=labels,
        origins=np.asarray([Origin.NOISY] * len(labels), dtype=object),
        clip_index=np.arange(len(labels)),
        clip_ids=[f"p{i}" for i in range(len(labels))],
        clip_labels=labels,
        n_classes=2,
    )


class TestTrain:
    def test_batch_size_below_two_rejected(self):
        # A batch of one has no batch statistics; train() would skip every
        # batch and report a nan loss.
        with pytest.raises(ValueError, match="batch_size must be >= 2"):
            TrainConfig(batch_size=1)
        TrainConfig(batch_size=2)

    @pytest.mark.parametrize("lr", [-0.1, -1e-300, np.nan, np.inf, -np.inf])
    def test_initial_lr_must_be_finite_and_non_negative(self, lr):
        with pytest.raises(ValueError, match="initial_lr must be finite and >= 0"):
            TrainConfig(initial_lr=lr)
        TrainConfig(initial_lr=0.0)

    def test_zero_learning_rate_is_a_no_op(self):
        data = separable_patchset()
        net = build_baseline(8, 10, 2, channels=(2, 3, 4), seed=1)
        before = [p.value.copy() for p in net.params()]
        cfg = TrainConfig(initial_lr=0.0, max_epochs=3, batch_size=8, seed=1)
        train(net, data, data, cfg)
        for p, orig in zip(net.params(), before):
            np.testing.assert_array_equal(p.value, orig)

    def test_learns_a_separable_toy_problem(self):
        data = separable_patchset()
        net = build_baseline(8, 10, 2, channels=(2, 3, 4), seed=2)
        cfg = TrainConfig(
            initial_lr=0.003, max_epochs=50, batch_size=8, patience=50, seed=2
        )
        net, history = train(net, data, data, cfg)
        assert len(history) <= 50
        assert clip_accuracy(net, data) >= 0.99

    def test_bit_identical_history_for_same_seed(self):
        data = separable_patchset()
        histories = []
        for _ in range(2):
            net = build_baseline(8, 10, 2, channels=(2, 3, 4), seed=3)
            cfg = TrainConfig(initial_lr=0.002, max_epochs=5, batch_size=8, seed=3)
            _, history = train(net, data, data, cfg)
            histories.append(history)
        assert histories[0] == histories[1]


def scripted_train(monkeypatch, accuracies, initial_lr=0.001, **fields):
    """Train a tiny network for at most len(accuracies) epochs while
    clip_accuracy returns ``accuracies`` in turn. Returns the trained
    network, the history and each epoch's weights as they were evaluated."""
    script = iter(accuracies)
    weights = []

    def scripted(network, val_set):
        weights.append(network.get_state())
        return next(script)

    monkeypatch.setattr(noisebench.training, "clip_accuracy", scripted)
    net = build_baseline(8, 10, 2, channels=(1, 1, 1), seed=4)
    cfg = TrainConfig(initial_lr=initial_lr, max_epochs=len(accuracies), batch_size=8,
                      seed=4, **fields)
    net, history = train(net, separable_patchset(n_per_class=4), None, cfg)
    return net, history, weights


def rates(history):
    return [epoch.learning_rate for epoch in history]


def assert_weights_equal(net, expected):
    for got, want in zip(net.get_state(), expected, strict=True):
        np.testing.assert_array_equal(got, want)


def frozen_plateau_lr(history, initial_lr, window=5):
    """The halving rule as an earlier version replayed it over the whole
    validation history before every epoch: the reference for train."""
    lr = initial_lr
    best = -np.inf
    stalled = 0
    for acc in history:
        if acc > best:
            best = acc
            stalled = 0
        else:
            stalled += 1
            if stalled == window:
                lr /= 2.0
                stalled = 0
    return lr


def frozen_should_stop(history, patience=15):
    """The early-stopping rule as the same version replayed it."""
    best = -np.inf
    stalled = 0
    for acc in history:
        if acc > best:
            best = acc
            stalled = 0
        else:
            stalled += 1
    return stalled >= patience


class TestSchedule:
    """The learning-rate halving, early stopping and restored epoch of
    ``train``, driven by a scripted validation accuracy."""

    def test_improving_history_keeps_rate(self, monkeypatch):
        _, history, _ = scripted_train(monkeypatch, [0.05 * i for i in range(1, 13)])
        assert rates(history) == [0.001] * 12

    def test_five_epoch_stall_halves_once(self, monkeypatch):
        _, history, _ = scripted_train(monkeypatch, [0.5] * 7)
        assert rates(history) == [0.001] * 6 + [0.0005]

    def test_ten_epoch_stall_halves_twice(self, monkeypatch):
        _, history, _ = scripted_train(monkeypatch, [0.5] * 12)
        assert rates(history) == [0.001] * 6 + [0.0005] * 5 + [0.00025]

    def test_improvement_resets_the_counter(self, monkeypatch):
        _, history, _ = scripted_train(monkeypatch, [0.5] * 4 + [0.6] * 5)
        assert rates(history) == [0.001] * 9

    def test_fifteen_flat_epochs_do_not_stop(self, monkeypatch):
        # Epoch 1 is the best, so epoch 16 is the 15th stalled one.
        _, history, _ = scripted_train(monkeypatch, [0.5] * 20)
        assert len(history) == 16

    def test_fifteen_stalled_epochs_after_the_best_stop(self, monkeypatch):
        # Best at epoch 3, flat through epoch 18: later gains are never seen.
        net, history, weights = scripted_train(
            monkeypatch, [0.1, 0.2, 0.7] + [0.6] * 15 + [0.9] * 5)
        assert len(history) == 18
        assert_weights_equal(net, weights[2])

    def test_late_improvement_resets_the_count(self, monkeypatch):
        net, history, weights = scripted_train(
            monkeypatch, [0.7] + [0.6] * 14 + [0.8] + [0.6] * 20)
        assert len(history) == 31
        assert_weights_equal(net, weights[15])

    def test_restores_the_first_of_tied_best_epochs(self, monkeypatch):
        net, history, weights = scripted_train(monkeypatch, [0.5, 0.7, 0.6, 0.7, 0.7, 0.3])
        assert len(history) == 6
        assert not np.array_equal(weights[1][0], weights[3][0])
        assert_weights_equal(net, weights[1])

    def test_matches_the_frozen_replay_on_random_histories(self, monkeypatch):
        rng = np.random.default_rng(18)
        for _ in range(60):
            accs = list(rng.integers(0, 4, rng.integers(1, 41)) / 4)
            window, patience = int(rng.integers(1, 9)), int(rng.integers(1, 26))
            initial_lr = float(rng.choice([0.001, 0.0, 1e-300]))
            net, history, weights = scripted_train(
                monkeypatch, accs, initial_lr, plateau_window=window, patience=patience)
            stop = next((e for e in range(1, len(accs) + 1)
                         if frozen_should_stop(accs[:e], patience)), len(accs))
            assert len(history) == stop
            assert [r.hex() for r in rates(history)] == [
                frozen_plateau_lr(accs[:e], initial_lr, window).hex() for e in range(stop)]
            assert_weights_equal(net, weights[int(np.argmax(accs[:stop]))])


class TestConfidenceInterval:
    def test_equal_runs_have_zero_width(self):
        assert confidence_halfwidth([0.7] * 7) == pytest.approx(0.0, abs=1e-12)

    def test_two_run_hand_value(self):
        # t_{0.975,1} = 12.706..., s = 0.0707..., so half-width ~ 0.6353.
        assert confidence_halfwidth([0.6, 0.7]) == pytest.approx(0.6353102368216046)

    def test_needs_two_runs(self):
        with pytest.raises(ValueError):
            confidence_halfwidth([0.5])

    def test_report_strings_match_mpmath(self):
        # The report CSVs store the half-width as "{:.6f}"; pin those strings
        # for one frozen accuracy vector per run count.
        for n in range(2, 31):
            v = [((7 * i * i + 3 * n) % 97) / 97 for i in range(n)]
            with mp.workdps(40):
                mean = mp.fsum(v) / n
                sd = mp.sqrt(mp.fsum((mp.mpf(a) - mean) ** 2 for a in v) / (n - 1))
                ref = mp_t_quantile(0.975, n - 1, 2.0) * sd / mp.sqrt(n)
            assert f"{confidence_halfwidth(v):.6f}" == f"{float(ref):.6f}", n


def mp_t_quantile(p, df, start):
    """The Student-t p-quantile to 40 digits.

    Newton's method on mpmath's regularized incomplete beta. The upper tail
    is strictly decreasing in t, so its root is unique: ``start`` only sets
    how many steps it takes, and the loop fails unless the steps converge.
    """
    with mp.workdps(40):
        nu, t = mp.mpf(df), mp.mpf(start)
        scale = mp.gamma((nu + 1) / 2) / (mp.sqrt(nu * mp.pi) * mp.gamma(nu / 2))
        for _ in range(20):
            upper = mp.betainc(nu / 2, mp.mpf(1) / 2, 0, nu / (nu + t * t), regularized=True) / 2
            density = scale * (1 + t * t / nu) ** (-(nu + 1) / 2)
            step = (upper - (1 - mp.mpf(p))) / density
            t += step
            if abs(step) < mp.mpf(10) ** -36 * abs(t):
                return t
    raise AssertionError(f"Newton did not converge at df={df}")


class TestStudentTQuantile:
    def test_matches_mpmath_for_df_1_to_1000(self):
        worst = 0.0
        for df in range(1, 1001):
            ours = student_t_quantile(0.975, df)
            ref = mp_t_quantile(0.975, df, ours)
            worst = max(worst, float(abs(ours - ref) / ref))
        assert worst <= 1e-12

    @pytest.mark.parametrize("df", [10**4, 10**5])
    def test_matches_mpmath_at_large_df(self, df):
        ours = student_t_quantile(0.975, df)
        ref = mp_t_quantile(0.975, df, ours)
        assert float(abs(ours - ref) / ref) <= 1e-9

    @pytest.mark.parametrize("p", [0.6, 0.9, 0.995])
    @pytest.mark.parametrize("df", [1, 2, 7, 333])
    def test_other_probabilities(self, p, df):
        ours = student_t_quantile(p, df)
        ref = mp_t_quantile(p, df, ours)
        assert float(abs(ours - ref) / ref) <= 1e-12

    @pytest.mark.parametrize("p,df", [(0.5, 3), (1.0, 3), (0.9, 0)])
    def test_arguments_out_of_range_raise(self, p, df):
        with pytest.raises(ValueError):
            student_t_quantile(p, df)

    @pytest.mark.parametrize("df", [2.5, 3.0, True])
    def test_df_must_be_an_integer(self, df):
        with pytest.raises(ValueError, match="integer df"):
            student_t_quantile(0.975, df)

    def test_importing_the_package_loads_no_scipy(self):
        # scipy.stats alone costs about 70 MB of RSS and over a second of
        # start-up in every process that imports noisebench.
        src = str(Path(noisebench.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = ("import sys, noisebench, noisebench.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True, timeout=120)
        assert done.stdout.strip() == "[]"


@pytest.fixture(scope="module")
def tiny_experiment():
    from noisebench import gen_synthetic_dataset

    clips, manifest, _ = gen_synthetic_dataset(
        n_classes=2, clips_per_class=6, clean_fraction=0.34, sample_rate=2000, seed=21
    )
    feat = FeatureConfig(sample_rate=2000, fft_size=128, hop=64, n_mels=16)
    cfg = TrainConfig(
        batch_size=16, initial_lr=0.002, max_epochs=3, seed=5,
        channels=(2, 3, 4), loss=LossConfig(),
    )
    return clips, manifest, feat, cfg


class TestRunExperiment:
    def test_report_shape_and_config_echo(self, tiny_experiment):
        clips, manifest, feat, cfg = tiny_experiment
        features = precompute_features(clips, feat)
        report = run_experiment(clips, manifest, feat, cfg, features=features, n_runs=2)
        assert len(report.accuracies) == 2
        assert report.mean == pytest.approx(np.mean(report.accuracies))
        assert report.seed == 5
        assert all(0.0 <= a <= 1.0 for a in report.accuracies)

    def test_single_run_is_deterministic(self, tiny_experiment):
        clips, manifest, feat, cfg = tiny_experiment
        features = precompute_features(clips, feat)
        a = run_single(clips, manifest, feat, cfg, features)
        b = run_single(clips, manifest, feat, cfg, features)
        assert a.accuracy == b.accuracy
        assert a.history == b.history

    def test_n_runs_validated(self, tiny_experiment):
        clips, manifest, feat, cfg = tiny_experiment
        with pytest.raises(ValueError):
            run_experiment(clips, manifest, feat, cfg, features=precompute_features(clips, feat),
                           n_runs=1)


class TestTrendOracles:
    def test_clean_synthetic_subset_is_learnable(self):
        # Classes are separable by construction: training on the clean
        # subset alone must clear 80% test accuracy.
        from noisebench import Subset, gen_synthetic_dataset

        clips, manifest, _ = gen_synthetic_dataset(
            n_classes=3, clips_per_class=10, clean_fraction=0.5,
            sample_rate=4000, seed=13,
        )
        feat = FeatureConfig(sample_rate=4000, fft_size=256, hop=160, n_mels=24)
        cfg = TrainConfig(
            batch_size=32, initial_lr=0.002, max_epochs=30, patience=30,
            seed=0, subset=Subset.CLEAN, channels=(4, 6, 8), kernel_size=3,
        )
        result = run_single(clips, manifest, feat, cfg, precompute_features(clips, feat))
        assert result.accuracy > 0.8

    def test_non_finite_loss_aborts_with_diagnostics(self):
        from noisebench.errors import NumericError

        data = separable_patchset()
        data.x[0, 0, 0, 0] = np.nan
        net = build_baseline(8, 10, 2, channels=(2, 3, 4), seed=0)
        cfg = TrainConfig(initial_lr=0.001, max_epochs=2, batch_size=64, seed=0)
        with pytest.raises(NumericError, match="epoch 1.*cce"):
            train(net, data, data, cfg)

    def test_aborted_experiment_carries_partial_results(
        self, tiny_experiment, monkeypatch
    ):
        from noisebench import training as training_mod
        from noisebench.errors import NumericError
        from noisebench.training import ExperimentError

        clips, manifest, feat, cfg = tiny_experiment
        real_run_single = training_mod.run_single
        calls = []

        def flaky(*args, **kwargs):
            if calls:
                raise NumericError("non-finite loss at epoch 1, batch 0 (family cce)")
            calls.append(1)
            return real_run_single(*args, **kwargs)

        monkeypatch.setattr(training_mod, "run_single", flaky)
        with pytest.raises(ExperimentError) as exc:
            training_mod.run_experiment(clips, manifest, feat, cfg,
                                        features=precompute_features(clips, feat), n_runs=3)
        assert len(exc.value.partial) == 1


class TestCsvRoundtrips:
    def test_history_csv(self, tmp_path):
        history = [EpochStats(1, 1.5, 0.4, 0.001), EpochStats(2, 1.1, 0.5, 0.001)]
        write_history_csv(history, tmp_path / "h.csv")
        lines = (tmp_path / "h.csv").read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_accuracy,learning_rate"
        assert lines[1].startswith("1,1.500000,0.400000")

    def test_report_csv(self, tmp_path):
        report = RunReport([0.5, 0.7], 0.6, 0.1, 3)
        write_report_csv(report, tmp_path / "r.csv")
        loaded = read_report_csv(tmp_path / "r.csv")
        assert loaded["accuracies"] == [0.5, 0.7]
        assert loaded["mean"] == 0.6
        assert loaded["ci95_halfwidth"] == 0.1

    def test_csv_bytes(self, tmp_path):
        write_report_csv(RunReport([0.5, 0.7], 0.6, 0.1, 3), tmp_path / "r.csv")
        assert (tmp_path / "r.csv").read_bytes() == (
            b"kind,run,seed,accuracy\r\nrun,0,3,0.500000\r\nrun,1,4,0.700000\r\n"
            b"mean,,,0.600000\r\nci95_halfwidth,,,0.100000\r\n"
        )
        write_history_csv([EpochStats(1, 1.5, 0.4, 0.001)], tmp_path / "h.csv")
        assert (tmp_path / "h.csv").read_bytes() == (
            b"epoch,train_loss,val_accuracy,learning_rate\r\n1,1.500000,0.400000,0.00100000\r\n"
        )

    @pytest.mark.parametrize("which", ["history", "report"])
    def test_a_writer_that_fails_mid_file_keeps_the_previous_file(self, tmp_path, which):
        path = tmp_path / "out.csv"
        if which == "history":
            good = [EpochStats(1, 1.5, 0.4, 0.001), EpochStats(2, 1.1, 0.5, 0.001)]
            write_history_csv(good, path)
            before = path.read_bytes()
            with pytest.raises(ValueError):  # the second row cannot be formatted
                write_history_csv([good[0], EpochStats(2, "nan?", 0.5, 0.001)], path)
        else:
            write_report_csv(RunReport([0.5, 0.7], 0.6, 0.1, 3), path)
            before = path.read_bytes()
            with pytest.raises(ValueError):
                write_report_csv(RunReport([0.5, "x"], 0.6, 0.1, 3), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    @pytest.mark.parametrize("drop,add", [
        ("mean", ""),
        ("ci95_halfwidth", ""),
        ("", "median,,,0.6\r\n"),
        ("ci95_halfwidth", "ci95_halfwidth,,"),
    ], ids=["no-mean", "no-ci", "unknown-kind", "cut-mid-row"])
    def test_truncated_or_unknown_report_rows_are_data_errors(self, tmp_path, drop, add):
        path = tmp_path / "report_all_cce.csv"
        write_report_csv(RunReport([0.5, 0.7], 0.6, 0.1, 3), path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(ln for ln in lines if not drop or not ln.startswith(drop)) + add,
                        encoding="utf-8", newline="")
        with pytest.raises(DataError, match="report_all_cce.csv"):
            read_report_csv(path)

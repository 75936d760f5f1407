"""Acceptance suite. One test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. The desk-scale trend
experiment (criterion 6) trains 21 small networks and dominates the
runtime. Criterion 8 needs the real FSDnoisy18k download and only runs when
FSDNOISY18K_DIR is set; it is an overnight job, not part of CI.
"""

import json
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from noisebench import (
    FeatureConfig,
    LossConfig,
    NoiseSpec,
    NoiseType,
    Origin,
    TrainConfig,
    build_baseline,
    cce,
    gen_synthetic_dataset,
    inject_noise,
    lq_loss,
    mask_threshold,
    one_hot,
    run_experiment,
    selective_batch_loss,
    soft_bootstrap,
)
from noisebench.cli import main as cli_main
from noisebench.datasets import Split
from noisebench.layers import BatchNorm, Conv2d, Dense, ReLU, Softmax
from noisebench.noise import corrupt_noisy_train
from noisebench.training import precompute_features

from conftest import Pool, finite_difference, random_simplex, relative_error


def report(criterion, passed, detail):
    print(f"\n[{'PASS' if passed else 'FAIL'}] criterion {criterion}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


# -----------------------------------------------------------------------
# 1. Gradient suite
# -----------------------------------------------------------------------


def _check_layer(make_layer, x_shape, seed, tol):
    rng = np.random.default_rng(seed)
    layer = make_layer(rng)
    x = rng.standard_normal(x_shape)
    probe = rng.standard_normal(layer.forward(x.copy(), True).shape)

    def loss():
        return float((layer.forward(x, True) * probe).sum())

    loss()
    for p in layer.params():
        p.grad[...] = 0
    dx = layer.backward(probe)
    worst = relative_error(dx, finite_difference(loss, x))
    for p in layer.params():
        worst = max(worst, relative_error(p.grad, finite_difference(loss, p.value)))
    return worst < tol


def test_criterion_1_gradient_suite():
    start = time.monotonic()
    layer_makers = {
        "conv2d": (lambda rng: Conv2d(2, 3, 3, "same", rng, np.float64), (2, 5, 6, 2)),
        "conv2d_pool": (lambda rng: Conv2d(2, 3, 3, "same", rng, np.float64, pool_size=2),
                        (2, 5, 7, 2)),
        "batchnorm": (lambda rng: BatchNorm(3, dtype=np.float64), (6, 3, 4, 3)),
        "relu": (lambda rng: ReLU(), (3, 4, 4, 2)),
        "maxpool": (lambda rng: Pool(2), (2, 6, 6, 2)),
        "dense": (lambda rng: Dense(12, 4, rng, np.float64), (3, 3, 4, 1)),
        "softmax": (lambda rng: Softmax(), (4, 5)),
    }
    failures = []
    for kind, (maker, shape) in layer_makers.items():
        for seed in range(20):
            if not _check_layer(maker, shape, seed, 1e-4):
                failures.append(f"{kind}/{seed}")

    families = [
        LossConfig(),
        LossConfig(family="soft", beta=0.3),
        LossConfig(family="lq", q=0.7),
        LossConfig(family="mask_max", m=0.6),
        LossConfig(family="mask_stat", l=1.5),
    ]
    rng = np.random.default_rng(123)
    for cfg in families:
        for _ in range(20):
            k = int(rng.integers(3, 8))
            b = int(rng.integers(4, 9))
            probs = 0.05 + 0.9 * random_simplex(rng, b, k)
            targets = one_hot(rng.integers(k, size=b), k)
            origins = [Origin.CLEAN if v else Origin.NOISY for v in rng.integers(2, size=b)]
            _, grads = selective_batch_loss(probs, targets, origins, cfg)
            fd = finite_difference(
                lambda: selective_batch_loss(probs, targets, origins, cfg)[0], probs
            )
            if relative_error(grads, fd) >= 1e-4:
                failures.append(f"loss {cfg.family.value}")

    # End to end: cross-entropy through the whole baseline, checked on a
    # sample of every parameter array at the looser 1e-3 tolerance.
    for seed in range(3):
        rng = np.random.default_rng(1000 + seed)
        net = build_baseline(8, 8, 3, channels=(2, 3, 4), seed=seed, dtype=np.float64)
        x = rng.standard_normal((4, 1, 8, 8))
        targets = one_hot(rng.integers(3, size=4), 3)

        def net_loss():
            probs = np.clip(net.forward(x, True), 1e-7, 1.0)
            return float(-(targets * np.log(probs)).sum() / 4)

        probs = net.forward(x, True)
        _, grads = cce(probs, targets)
        net.zero_grads()
        net.backward(grads / 4)
        for p in net.params():
            flat = p.value.reshape(-1)
            gflat = p.grad.reshape(-1)
            for idx in rng.choice(flat.size, size=min(3, flat.size), replace=False):
                orig = flat[idx]
                flat[idx] = orig + 1e-5
                hi = net_loss()
                flat[idx] = orig - 1e-5
                lo = net_loss()
                flat[idx] = orig
                fd = (hi - lo) / 2e-5
                # 1e-6 floor: below it both values are indistinguishable
                # from zero at this step's cancellation noise (~1e-11).
                if abs(fd - gflat[idx]) / max(abs(fd), abs(gflat[idx]), 1e-6) >= 1e-3:
                    failures.append(f"end-to-end {p.name}[{idx}]")

    elapsed = time.monotonic() - start
    report(
        1,
        not failures and elapsed < 60,
        f"layer, loss, and end-to-end gradients vs central differences "
        f"({elapsed:.1f}s){'; failures: ' + ', '.join(failures[:5]) if failures else ''}",
    )


# -----------------------------------------------------------------------
# 2. Loss identities
# -----------------------------------------------------------------------


def test_criterion_2_loss_identities():
    rng = np.random.default_rng(20)
    probs = random_simplex(rng, 1000, 20)
    labels = rng.integers(20, size=1000)
    targets = one_hot(labels, 20)

    l_soft, g_soft = soft_bootstrap(probs, targets, 1.0)
    l_cce, g_cce = cce(probs, targets)
    soft_exact = np.array_equal(l_soft, l_cce) and np.array_equal(g_soft, g_cce)

    l_q1, _ = lq_loss(probs, targets, 1.0)
    p_true = np.clip(probs, 1e-7, 1.0)[np.arange(1000), labels]
    lq1_exact = np.array_equal(l_q1, 1.0 - p_true)

    l_qs, _ = lq_loss(probs, targets, 1e-3)
    limit_ok = bool(np.all(np.abs(l_qs - l_cce) < 5e-3 * (1.0 + l_cce)))

    report(
        2,
        soft_exact and lq1_exact and limit_ok,
        f"soft(beta=1) == cce exactly: {soft_exact}; lq(q=1) == 1-p exactly: "
        f"{lq1_exact}; |lq(q=1e-3) - cce| bound on 1000 points: {limit_ok}",
    )


# -----------------------------------------------------------------------
# 3. Masking oracle
# -----------------------------------------------------------------------


def _brute_force_kept(losses, family, param):
    n = len(losses)
    if family == "mask_max":
        t = param * max(losses)
    else:
        ordered = sorted(losses)
        median = (
            ordered[n // 2]
            if n % 2
            else (ordered[n // 2 - 1] + ordered[n // 2]) / 2.0
        )
        mean = sum(losses) / n
        sigma = (sum((v - mean) ** 2 for v in losses) / n) ** 0.5
        t = median + param * sigma
    kept = [i for i in range(n) if losses[i] <= t]
    return kept if kept else list(range(n))


def test_criterion_3_masking_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(33)
    mismatches = 0
    for trial in range(1000):
        if trial % 10 == 9:
            losses = np.full(64, float(rng.uniform(0.5, 5.0)))  # degenerate batch
        else:
            losses = rng.gamma(2.0, 1.0, size=64)
        if trial % 2:
            cfg = LossConfig(family="mask_max", m=float(rng.uniform(0.0, 1.0)))
            expected = _brute_force_kept(losses.tolist(), "mask_max", cfg.m)
        else:
            cfg = LossConfig(family="mask_stat", l=float(rng.uniform(0.0, 3.0)))
            expected = _brute_force_kept(losses.tolist(), "mask_stat", cfg.l)
        kept, _ = mask_threshold(losses, cfg)
        if kept.tolist() != expected:
            mismatches += 1
    elapsed = time.monotonic() - start
    report(
        3,
        mismatches == 0 and elapsed < 60,
        f"kept sets match brute force on 1000 batches of 64, both rules plus "
        f"degenerate fallback ({elapsed:.1f}s, {mismatches} mismatches)",
    )


# -----------------------------------------------------------------------
# 4. Noise-injection statistics
# -----------------------------------------------------------------------


def test_criterion_4_noise_statistics():
    start = time.monotonic()
    clips, manifest, pool = gen_synthetic_dataset(
        n_classes=4, clips_per_class=510, clean_fraction=0.01,
        sample_rate=2000, seed=404, test_per_class=2,
    )
    pairs = [
        (c, r)
        for c, r in zip(clips, manifest.records)
        if r.split is Split.TRAIN and r.origin is Origin.NOISY
    ]
    noisy_clips = [c for c, _ in pairs]
    noisy_records = [r for _, r in pairs]
    assert len(noisy_records) >= 2000

    spec = NoiseSpec(0.38, 0.10, 0.06, 0.05, 0.01, seed=405)
    out_clips, _, log = inject_noise(noisy_clips, noisy_records, spec, pool, 4)

    expected = dict(spec.probabilities())
    expected[NoiseType.CORRECT] = 1.0 - sum(expected.values())
    counts = dict.fromkeys(NoiseType, 0)
    for entry in log.entries.values():
        counts[entry.noise_type] += 1
    total = len(log.entries)
    deviations = {
        t.value: abs(counts[t] / total - expected[t]) for t in NoiseType
    }
    stats_ok = max(deviations.values()) <= 0.03

    # Every density clip must contain a whole patch, analysis windows
    # included, inside the appended distractor audio.
    cfg = FeatureConfig(sample_rate=2000, fft_size=256, hop=128, n_mels=24)
    originals = {c.clip_id: c for c in noisy_clips}
    density_ok, density_count = True, 0
    for out in out_clips:
        if log.entries[out.clip_id].noise_type is not NoiseType.DENSITY:
            continue
        density_count += 1
        original_end = originals[out.clip_id].samples.size
        n_frames = -(-out.samples.size // cfg.hop)
        found = False
        for p in range(n_frames // cfg.patch_frames):
            span_start = p * cfg.patch_frames * cfg.hop
            span_end = ((p + 1) * cfg.patch_frames - 1) * cfg.hop + cfg.fft_size
            if span_start >= original_end and span_end <= out.samples.size:
                found = True
        density_ok = density_ok and found

    elapsed = time.monotonic() - start
    report(
        4,
        stats_ok and density_ok and density_count > 0 and elapsed < 60,
        f"{total} records: per-type deviation from spec <= 3 points "
        f"(worst {100 * max(deviations.values()):.2f}); all {density_count} "
        f"density clips have a target-free 2 s patch ({elapsed:.1f}s)",
    )


# -----------------------------------------------------------------------
# 5. Baseline shape
# -----------------------------------------------------------------------


def test_criterion_5_baseline_shape():
    net = build_baseline(96, 86, 20)
    count = sum(p.value.size for p in net.params())
    budget_ok = 400_000 <= count <= 600_000
    x = np.random.default_rng(5).standard_normal((8, 1, 96, 86)).astype(np.float32)
    probs = net.forward(x, train=False)
    simplex_ok = bool(
        np.all(probs >= 0) and np.all(np.abs(probs.sum(axis=1) - 1.0) < 1e-6)
    )
    report(
        5,
        budget_ok and simplex_ok,
        f"parameter count {count} in [0.4M, 0.6M]; softmax rows on random "
        f"input form a probability simplex within 1e-6",
    )


# -----------------------------------------------------------------------
# 6. Desk-scale trend experiment
# -----------------------------------------------------------------------

TREND_FEATURES = FeatureConfig(sample_rate=4000, fft_size=256, hop=160, n_mels=24)
TREND_TRAIN = TrainConfig(
    batch_size=64, initial_lr=0.001, plateau_window=5, patience=15,
    max_epochs=60, seed=100, channels=(6, 10, 14), kernel_size=3,
)


def _trend_dataset():
    # Buried in 0 dB-ish noise the classes stay learnable (the clean arm
    # reaches ~92%) while 40% label flips on the noisy-origin records hurt
    # plain cross-entropy training markedly.
    clips, manifest, pool = gen_synthetic_dataset(
        n_classes=4, clips_per_class=50, clean_fraction=0.05,
        sample_rate=4000, seed=42, test_per_class=25, snr_db=-2.0,
    )
    noisy_clips, noisy_manifest, _ = corrupt_noisy_train(
        clips, manifest, NoiseSpec(p_incorrect_iv=0.40, seed=99), pool
    )
    return clips, manifest, noisy_clips, noisy_manifest


def test_criterion_6_dataset_is_a_config(tmp_path):
    # The trend dataset, its -2 dB SNR included, written as a config section:
    # the CLI generates the same clean clips from it.
    from noisebench.cli import _load_dataset
    from noisebench.config import load_config

    synthetic = {"n_classes": 4, "clips_per_class": 50, "clean_fraction": 0.05,
                 "sample_rate": 4000, "seed": 42, "test_per_class": 25, "snr_db": -2.0}
    path = tmp_path / "trend.json"
    path.write_text(json.dumps({
        "dataset": {"synthetic": synthetic},
        "features": {"sample_rate": 4000, "fft_size": 256, "hop": 160, "n_mels": 24},
        "train": {"subsets": ["all"], "losses": [{"family": "cce"}]},
        "output_dir": "out",
    }), encoding="utf-8")
    clips, _, _ = _load_dataset(load_config(path))
    expected = _trend_dataset()[0]
    assert [c.clip_id for c in clips] == [c.clip_id for c in expected]
    assert all(c.samples.tobytes() == e.samples.tobytes() for c, e in zip(clips, expected))


def test_criterion_6_desk_scale_trend():
    start = time.monotonic()
    clips, manifest, noisy_clips, noisy_manifest = _trend_dataset()
    feats_clean = precompute_features(clips, TREND_FEATURES)
    feats_noisy = precompute_features(noisy_clips, TREND_FEATURES)

    def arm(data_clips, data_manifest, feats, loss):
        cfg = replace(TREND_TRAIN, loss=loss)
        return run_experiment(
            data_clips, data_manifest, TREND_FEATURES, cfg, n_runs=7, features=feats
        )

    clean_rep = arm(clips, manifest, feats_clean, LossConfig())
    cce_rep = arm(noisy_clips, noisy_manifest, feats_noisy, LossConfig())
    lq_rep = arm(noisy_clips, noisy_manifest, feats_noisy, LossConfig(family="lq", q=0.7))

    gap = clean_rep.mean - cce_rep.mean
    diffs = np.asarray(lq_rep.accuracies) - np.asarray(cce_rep.accuracies)
    mean_diff = float(diffs.mean())
    paired_median = float(np.median(diffs))

    gap_ok = gap >= 0.05
    lq_mean_ok = mean_diff >= -0.01
    lq_median_ok = paired_median >= 0.0
    elapsed = time.monotonic() - start
    report(
        6,
        gap_ok and lq_mean_ok and lq_median_ok and elapsed < 1200,
        f"clean {100 * clean_rep.mean:.1f} vs noisy {100 * cce_rep.mean:.1f} "
        f"(gap {100 * gap:+.1f} >= 5); lq {100 * lq_rep.mean:.1f} vs cce on noisy "
        f"labels: mean diff {100 * mean_diff:+.1f} >= -1, 7-seed median diff "
        f"{100 * paired_median:+.1f} >= 0 (per seed: "
        f"{' '.join(f'{100 * d:+.1f}' for d in diffs)}) ({elapsed:.0f}s)",
    )


# -----------------------------------------------------------------------
# 7. Determinism of cmd_run
# -----------------------------------------------------------------------


def test_criterion_7_run_determinism(tmp_path):
    config = {
        "dataset": {
            "synthetic": {
                "n_classes": 2, "clips_per_class": 6, "clean_fraction": 0.34,
                "sample_rate": 2000, "seed": 3,
            }
        },
        "features": {"sample_rate": 2000, "fft_size": 128, "hop": 64, "n_mels": 16},
        "noise": {"p_incorrect_iv": 0.3, "seed": 12},
        "train": {
            "batch_size": 16, "initial_lr": 0.002, "max_epochs": 3, "seed": 5,
            "n_runs": 2, "subsets": ["all", "clean"], "losses": [{"family": "cce"}],
            "channels": [2, 3, 4],
        },
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert cli_main(["run", "--config", str(path), "--output", str(tmp_path / "a")]) == 0
    assert cli_main(["run", "--config", str(path), "--output", str(tmp_path / "b")]) == 0
    files_a = sorted((tmp_path / "a").glob("*.csv"))
    identical = all(
        f.read_bytes() == (tmp_path / "b" / f.name).read_bytes() for f in files_a
    )
    report(
        7,
        identical and len(files_a) > 0,
        f"repeated cmd_run produced byte-identical CSVs ({len(files_a)} files)",
    )


# -----------------------------------------------------------------------
# 8. Optional full-scale check (not desk scale, excluded from CI)
# -----------------------------------------------------------------------


@pytest.mark.skipif(
    "FSDNOISY18K_DIR" not in os.environ,
    reason="full-scale check needs the FSDnoisy18k download (set FSDNOISY18K_DIR); "
    "this is an overnight job",
)
def test_criterion_8_full_scale_clean_subset():
    from noisebench import Subset, read_wav
    from noisebench.datasets import load_manifest
    import csv

    root = Path(os.environ["FSDNOISY18K_DIR"])
    combined = root / "noisebench_manifest.csv"
    if not combined.exists():
        # Build the combined manifest from the official metadata files.
        rows = []
        with (root / "FSDnoisy18k.meta" / "train.csv").open(newline="") as fh:
            for row in csv.DictReader(fh):
                rows.append((row["fname"], row["label"], row["manually_verified"], "train"))
        with (root / "FSDnoisy18k.meta" / "test.csv").open(newline="") as fh:
            for row in csv.DictReader(fh):
                rows.append((row["fname"], row["label"], "1", "test"))
        with combined.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["fname", "label", "manually_verified", "split"])
            writer.writerows(rows)

    audio_root = root / "FSDnoisy18k.audio_train"
    manifest = load_manifest(combined, audio_root)
    assert len(manifest.records) == 18532
    assert len(manifest.train_records()) == 17585
    assert len(manifest.test_records()) == 947

    clips = []
    for rec in manifest.records:
        base = audio_root if rec.split is Split.TRAIN else root / "FSDnoisy18k.audio_test"
        clips.append(read_wav(base / rec.clip_id, rec.clip_id))
    cfg = TrainConfig(seed=1, subset=Subset.CLEAN)
    rep = run_experiment(clips, manifest, FeatureConfig(), cfg,
                         features=precompute_features(clips, FeatureConfig()), n_runs=7)
    report(
        8,
        abs(rep.mean - 0.602) <= 0.04,
        f"clean-subset 7-run mean {100 * rep.mean:.1f} within 4 points of 60.2",
    )

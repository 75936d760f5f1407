"""The three benchmark workloads: set-up, a timed closed loop, output checks.

Every call goes through module attributes (``training.run_experiment``, not a
name imported here), so the tracer's wrappers see the benchmark's calls too.
Each workload runs two phases and reports, besides its own named metrics,
three generic ones shared by all workloads:

- ``phase1_per_s``: train patches/s (desk_cell, paper_net); seconds of audio
  cached as log-mel per wall second (ingest, cold phase);
- ``phase2_per_s``: evaluated clips/s (desk_cell, paper_net); clips read back
  from the feature cache per second (ingest, warm phase);
- ``op_s``: median wall seconds of one phase-1 operation: a run_single seed,
  a 64-patch train step, a cold pass over the dataset.
"""

from __future__ import annotations

import hashlib
import math
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

from noisebench import audio_io, datasets, features, layers, losses, noise, optim, training
from noisebench.datasets import DatasetManifest, LabelRecord, Origin, Split

# Share of a run's seconds given to phase 1 where a workload has two loops.
PHASE1_SHARE = 0.6


@dataclass
class Outcome:
    """What one measurement produced: named metrics (value, unit), the
    per-operation times behind op_s, and operations attempted and failed."""

    named: dict = field(default_factory=dict)
    op_times: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        self.problems.append(message)


class _Stopwatch:
    """Times one function under the name its callers look up, and counts
    the clips of the patch sets it is given."""

    def __init__(self, module, attr):
        self.module, self.attr = module, attr
        self.seconds = 0.0
        self.clips = 0

    def __enter__(self):
        inner = self.original = getattr(self.module, self.attr)

        def timed(network, patchset):
            t0 = perf_counter()
            try:
                return inner(network, patchset)
            finally:
                self.seconds += perf_counter() - t0
                self.clips += len(patchset.clip_ids)

        setattr(self.module, self.attr, timed)
        return self

    def __exit__(self, *exc):
        setattr(self.module, self.attr, self.original)


def input_digest(state) -> str:
    """Hash of the inputs a set-up generated; equal seeds give equal digests."""
    h = hashlib.sha256()
    for part in state.inputs():
        h.update(part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    return h.hexdigest()[:16]


def _patch_count(n_frames: int, patch_frames: int) -> int:
    # patchify's rule: short matrices tile up to one patch, long ones give
    # floor(n_frames / patch_frames) patches.
    return max(1, n_frames // patch_frames)


# ---------------------------------------------------------------------------
# desk_cell: one cell of the criterion-6 experiment
# ---------------------------------------------------------------------------

DESK_FEATURES = features.FeatureConfig(sample_rate=4000, fft_size=256, hop=160, n_mels=24)
DESK_CHANCE = 0.25
DESK_MIN_ACCURACY = 0.4


@dataclass(frozen=True)
class DeskSizes:
    clips_per_class: int = 50
    test_per_class: int = 25
    epochs: int = 10
    warmup_epochs: int = 2
    rerun_epochs: int = 2


@dataclass
class DeskState:
    clips: list
    manifest: DatasetManifest
    features: dict
    cfg: training.TrainConfig
    sizes: DeskSizes
    networks = ()  # networks alive before measuring, for the tracer to wrap

    def inputs(self):
        for clip, rec in zip(self.clips, self.manifest.records):
            yield clip.samples
            yield rec


def desk_setup(seed: int, sizes: DeskSizes, workdir: Path) -> DeskState:
    """The acceptance test's trend dataset, drawn from ``seed``: 4 classes,
    SNR -2 dB, 40% in-vocabulary label flips on noisy-origin records."""
    clips, manifest, pool = datasets.gen_synthetic_dataset(
        n_classes=4, clips_per_class=sizes.clips_per_class, clean_fraction=0.05,
        sample_rate=4000, seed=seed, test_per_class=sizes.test_per_class, snr_db=-2.0,
    )
    pairs = [(c, r) for c, r in zip(clips, manifest.records)
             if r.split is Split.TRAIN and r.origin is Origin.NOISY]
    out_clips, out_records, _ = noise.inject_noise(
        [c for c, _ in pairs], [r for _, r in pairs],
        noise.NoiseSpec(p_incorrect_iv=0.40, seed=seed + 1), pool, 4,
    )
    swapped = {r.clip_id: (c, r) for c, r in zip(out_clips, out_records)}
    merged = [swapped.get(r.clip_id, (c, r)) for c, r in zip(clips, manifest.records)]
    noisy_clips = [c for c, _ in merged]
    noisy_manifest = DatasetManifest([r for _, r in merged], list(manifest.class_names))
    feats = training.precompute_features(noisy_clips, DESK_FEATURES)
    cfg = training.TrainConfig(
        batch_size=64, initial_lr=0.001, plateau_window=5,
        patience=sizes.epochs, max_epochs=sizes.epochs, seed=seed,
        channels=(6, 10, 14), kernel_size=3,
        loss=losses.LossConfig(family="mask_stat", selective=True),
    )
    short = replace(cfg, max_epochs=sizes.warmup_epochs)
    training.run_single(noisy_clips, noisy_manifest, DESK_FEATURES, short, feats)
    return DeskState(noisy_clips, noisy_manifest, feats, cfg, sizes)


def _desk_trained_patches(state: DeskState, seed: int) -> int:
    """Patches one epoch trains for a seed: the split's train patches, less a
    trailing single-sample batch, which training skips."""
    train_records, _ = training.stratified_val_split(
        state.manifest.train_records(), state.cfg.val_fraction, seed)
    pf = DESK_FEATURES.patch_frames
    n = sum(_patch_count(state.features[r.clip_id].n_frames, pf) for r in train_records)
    return n - 1 if n > 1 and n % state.cfg.batch_size == 1 else n


def desk_measure(state: DeskState, seconds: float) -> Outcome:
    out = Outcome()
    runs = []  # (seed, wall s, eval s, eval clips, history, accuracy)
    next_seed = state.cfg.seed
    start = perf_counter()
    with _Stopwatch(training, "clip_accuracy") as watch:
        mark = [perf_counter(), 0.0, 0]

        def on_run(i, run_cfg, result):
            now = perf_counter()
            runs.append((run_cfg.seed, now - mark[0], watch.seconds - mark[1],
                         watch.clips - mark[2], result.history, result.accuracy))
            mark[:] = [perf_counter(), watch.seconds, watch.clips]

        while next_seed == state.cfg.seed or perf_counter() - start < seconds:
            mark[:] = [perf_counter(), watch.seconds, watch.clips]
            try:
                training.run_experiment(
                    state.clips, state.manifest, DESK_FEATURES,
                    replace(state.cfg, seed=next_seed), n_runs=2,
                    features=state.features, on_run=on_run,
                )
            except training.ExperimentError as exc:
                out.attempted += 1  # the seeds before it arrived through on_run
                out.fail(1, str(exc))
            next_seed += 2

    train_rates, eval_rates = [], []
    for seed, wall, eval_s, eval_clips, history, _ in runs:
        out.attempted += 1
        epochs = len(history)
        if epochs != state.sizes.epochs or not all(math.isfinite(h.train_loss) for h in history):
            out.fail(1, f"seed {seed}: {epochs} epochs or a non-finite loss")
        out.op_times.append(wall)
        train_rates.append(epochs * _desk_trained_patches(state, seed) / (wall - eval_s))
        eval_rates.append(eval_clips / eval_s)
    if runs:
        mean_acc = float(np.mean([r[5] for r in runs]))
        out.named["test_accuracy_mean"] = (mean_acc, "fraction")
        if mean_acc < DESK_MIN_ACCURACY:
            out.fail(1, f"mean test accuracy {mean_acc:.3f} is not well above "
                        f"chance {DESK_CHANCE} (need >= {DESK_MIN_ACCURACY})")
        _desk_rerun_check(state, runs[0], out)
        out.named["run_s"] = (median(out.op_times), "s")
        out.named["train_patches_per_s"] = (median(train_rates), "patches/s")
        out.named["eval_clips_per_s"] = (median(eval_rates), "clips/s")
    return out


def _desk_rerun_check(state: DeskState, first_run, out: Outcome) -> None:
    """Criterion 7 on the measured cell: a short rerun of the first seed must
    reproduce the first epochs of its history exactly."""
    seed, history = first_run[0], first_run[4]
    k = min(state.sizes.rerun_epochs, len(history))
    cfg = replace(state.cfg, seed=seed, max_epochs=k)
    rerun = training.run_single(state.clips, state.manifest, DESK_FEATURES, cfg,
                                state.features)
    out.attempted += 1
    if [_history_row(h) for h in rerun.history] != [_history_row(h) for h in history[:k]]:
        out.fail(1, f"seed {seed}: rerun history differs from the measured run")


def _history_row(h) -> tuple:
    # Exact float equality: the same bits give the same CSV bytes.
    return (h.epoch, float(h.train_loss).hex(), float(h.val_accuracy).hex(),
            float(h.learning_rate).hex())


# ---------------------------------------------------------------------------
# paper_net: the paper's network shape, train steps and clip evaluation
# ---------------------------------------------------------------------------

PAPER_LOSS = losses.LossConfig(family="mask_stat", selective=True)
SIMPLEX_TOL = 1e-4      # float32 softmax rows sum to 1 within this
FLOAT64_TOL = 1e-3      # clip probabilities, float32 network vs float64 copy


@dataclass(frozen=True)
class PaperSizes:
    n_mels: int = 96
    frames: int = 86
    channels: tuple = (32, 64, 128)
    kernel: int = 5
    n_classes: int = 20
    batch: int = 64
    train_batches: int = 4
    # Two clips of each length 1..7 patches: mean 4 patches, close to
    # FSDnoisy18k's ~8 s average clip at 2 s per patch.
    patches_per_clip: tuple = (1, 2, 3, 4, 5, 6, 7) * 2
    check_clips: int = 3


@dataclass
class PaperState:
    network: layers.Network
    adam: optim.Adam
    x: np.ndarray
    targets: np.ndarray
    origins: np.ndarray
    evalset: training.PatchSet
    sizes: PaperSizes

    @property
    def networks(self):
        return (self.network,)

    def inputs(self):
        yield from (self.x, self.targets, [o.value for o in self.origins], self.evalset.x,
                    self.evalset.clip_index, self.evalset.clip_labels)


def _class_patches(rng, labels, sizes: PaperSizes) -> np.ndarray:
    # Noise plus a per-class band pattern, so the loss has something to fit.
    x = rng.standard_normal((labels.size, 1, sizes.n_mels, sizes.frames)).astype(np.float32)
    bands = np.arange(sizes.n_mels)[None, :] % sizes.n_classes == labels[:, None]
    x[:, 0] += 1.5 * bands[:, :, None]
    return x


def paper_setup(seed: int, sizes: PaperSizes, workdir: Path) -> PaperState:
    rng = np.random.default_rng(seed)
    n = sizes.batch * sizes.train_batches
    labels = rng.integers(0, sizes.n_classes, n)
    x = _class_patches(rng, labels, sizes)
    origins = np.asarray([Origin.CLEAN if rng.random() < 0.25 else Origin.NOISY
                          for _ in range(n)], dtype=object)

    counts = rng.permutation(np.asarray(sizes.patches_per_clip))
    clip_labels = rng.integers(0, sizes.n_classes, counts.size)
    clip_index = np.repeat(np.arange(counts.size), counts)
    patch_labels = clip_labels[clip_index]
    evalset = training.PatchSet(
        x=_class_patches(rng, patch_labels, sizes), labels=patch_labels,
        origins=np.full(clip_index.size, Origin.CLEAN, dtype=object),
        clip_index=clip_index, clip_ids=[f"clip{i:03d}" for i in range(counts.size)],
        clip_labels=clip_labels, n_classes=sizes.n_classes,
    )
    network = layers.build_baseline(sizes.n_mels, sizes.frames, sizes.n_classes,
                                    channels=sizes.channels, kernel_size=sizes.kernel,
                                    seed=seed)
    state = PaperState(network, optim.Adam(network.params(), 0.001), x,
                       losses.one_hot(labels, sizes.n_classes), origins, evalset, sizes)
    # Warm-up: one full train step and one clip, so buffers are faulted in
    # and BLAS threads are running before anything is timed.
    _paper_step(state, 0)
    training.predict_clip(network, evalset.x[:1])
    return state


def _paper_step(state: PaperState, step: int):
    s = state.sizes
    b = slice((step % s.train_batches) * s.batch, (step % s.train_batches + 1) * s.batch)
    probs = state.network.forward(state.x[b], train=True)
    total, grads = losses.selective_batch_loss(probs, state.targets[b], state.origins[b],
                                               PAPER_LOSS)
    state.network.zero_grads()
    state.network.backward(grads.astype(np.float32))
    state.adam.step()
    return probs, total


def paper_measure(state: PaperState, seconds: float) -> Outcome:
    out = Outcome()
    budget = PHASE1_SHARE * seconds
    start, step = perf_counter(), 0
    while step == 0 or perf_counter() - start < budget:
        t0 = perf_counter()
        probs, total = _paper_step(state, step)
        out.op_times.append(perf_counter() - t0)
        out.attempted += 1
        step += 1
        on_simplex = (probs >= 0).all() and np.allclose(probs.sum(axis=1), 1.0,
                                                        rtol=0, atol=SIMPLEX_TOL)
        if not (on_simplex and math.isfinite(total)):
            out.fail(1, f"step {step}: softmax rows off the simplex or loss {total}")

    eval_rates = []
    start = perf_counter()
    while not eval_rates or perf_counter() - start < seconds - budget:
        t0 = perf_counter()
        training.clip_accuracy(state.network, state.evalset)
        eval_rates.append(len(state.evalset.clip_ids) / (perf_counter() - t0))
        out.attempted += len(state.evalset.clip_ids)

    _paper_float64_check(state, out)
    out.named["train_patches_per_s"] = (state.sizes.batch / median(out.op_times), "patches/s")
    out.named["eval_clips_per_s"] = (median(eval_rates), "clips/s")
    return out


def _paper_float64_check(state: PaperState, out: Outcome) -> None:
    """Clip probabilities of the float32 network must match a float64 copy of
    the same weights, so a kernel that computes wrong numbers fails."""
    s = state.sizes
    net64 = layers.build_baseline(s.n_mels, s.frames, s.n_classes, channels=s.channels,
                                  kernel_size=s.kernel, dtype=np.float64)
    net64.set_state(state.network.get_state())
    evalset = state.evalset
    for i in range(min(s.check_clips, len(evalset.clip_ids))):
        patches = evalset.patches_of_clip(i)
        p32, _ = training.predict_clip(state.network, patches)
        p64, _ = training.predict_clip(net64, patches.astype(np.float64))
        out.attempted += 1
        err = float(np.abs(p32 - p64).max())
        if not err <= FLOAT64_TOL:
            out.fail(1, f"clip {i}: float32 vs float64 clip probabilities differ by {err:.2e}")


# ---------------------------------------------------------------------------
# ingest: WAV -> noise injection -> log-mel -> feature cache, and back
# ---------------------------------------------------------------------------

INGEST_FEATURES = features.FeatureConfig()  # 44.1 kHz, fft 2048, hop 1024, 96 mels
# Which records get which noise type, and so how much audio a pass extracts,
# stays the same for every workload seed.
INGEST_NOISE_SEED = 0


@dataclass(frozen=True)
class IngestSizes:
    n_classes: int = 4
    train_per_class: int = 8      # half clean, half noisy
    test_per_class: int = 2
    min_s: float = 0.5            # under one 2 s patch: tiled
    max_s: float = 30.0           # many patches
    n_distractors: int = 4


@dataclass
class IngestState:
    manifest_path: Path
    audio_root: Path
    distractor_paths: list
    cache_root: Path
    sizes: IngestSizes
    networks = ()

    def inputs(self):
        yield self.manifest_path.read_bytes()
        for path in sorted(self.audio_root.iterdir()) + list(self.distractor_paths):
            yield path.read_bytes()


def _synth(rng, sr: int, seconds: float, freq: float) -> np.ndarray:
    t = np.arange(int(seconds * sr)) / sr
    tone = 0.4 * np.sin(2 * np.pi * freq * t + rng.uniform(0, 2 * np.pi))
    return (tone + 0.05 * rng.standard_normal(t.size)).astype(np.float32)


def ingest_setup(seed: int, sizes: IngestSizes, workdir: Path) -> IngestState:
    """Write a WAV dataset and manifest from ``seed``.

    The seed draws the audio content. Sizes do not depend on it, so spreads
    between seeds measure the code, not the amount of audio: clip lengths
    are a geometric ladder from min_s to max_s dealt to records by a fixed
    stride (every role gets short and long clips), distractors are 3-6 s,
    and the noise spec's own seed is fixed (see INGEST_NOISE_SEED).
    """
    rng = np.random.default_rng(seed)
    sr = INGEST_FEATURES.sample_rate
    per_class = sizes.train_per_class + sizes.test_per_class
    n = sizes.n_classes * per_class
    ladder = np.geomspace(sizes.min_s, sizes.max_s, n)
    stride = next(k for k in range(n // 3, n) if math.gcd(k, n) == 1)
    lengths = ladder[(np.arange(n) * stride) % n]
    audio_root = workdir / "audio"
    records = []
    for k in range(sizes.n_classes):
        for i in range(per_class):
            split = Split.TRAIN if i < sizes.train_per_class else Split.TEST
            clean = split is Split.TEST or i < sizes.train_per_class // 2
            clip_id = f"c{k}_{i:03d}.wav"
            samples = _synth(rng, sr, lengths[k * per_class + i], 220.0 * (k + 1))
            audio_io.write_wav(audio_root / clip_id, audio_io.AudioClip(samples, sr, clip_id))
            records.append(LabelRecord(clip_id, k, Origin.CLEAN if clean else Origin.NOISY,
                                       split))
    distractor_paths = []
    for i in range(sizes.n_distractors):
        path = workdir / "distractors" / f"d{i}.wav"
        samples = _synth(rng, sr, 3.0 + 3.0 * i / max(1, sizes.n_distractors - 1),
                         3000.0 + 500.0 * i)
        audio_io.write_wav(path, audio_io.AudioClip(samples, sr, path.name))
        distractor_paths.append(path)
    manifest_path = workdir / "manifest.csv"
    names = [f"class_{k}" for k in range(sizes.n_classes)]
    datasets.write_manifest(DatasetManifest(records, names), manifest_path)
    state = IngestState(manifest_path, audio_root, distractor_paths, workdir / "cache", sizes)
    # Warm-up: the first extraction pass in a process runs about 2x slower.
    _ingest_warm(state, _ingest_cold(state)[0])
    return state


def _cache_path(state: IngestState, clip_id: str) -> Path:
    return state.cache_root / (Path(clip_id).stem + ".lmf")


def _ingest_cold(state: IngestState):
    """load_manifest, read_wav per clip, inject_noise on the noisy-origin
    train records, then extract_logmel and save_feature_cache per clip."""
    if state.cache_root.exists():
        shutil.rmtree(state.cache_root)
    t0 = perf_counter()
    manifest = datasets.load_manifest(state.manifest_path, state.audio_root)
    clips = [audio_io.read_wav(state.audio_root / r.clip_id, r.clip_id)
             for r in manifest.records]
    pool = [audio_io.read_wav(p) for p in state.distractor_paths]
    noisy = [i for i, r in enumerate(manifest.records)
             if r.split is Split.TRAIN and r.origin is Origin.NOISY]
    new_clips, new_records, log = noise.inject_noise(
        [clips[i] for i in noisy], [manifest.records[i] for i in noisy],
        noise.NoiseSpec.fsdnoisy18k_estimate(INGEST_NOISE_SEED), pool, manifest.n_classes,
        INGEST_FEATURES.patch_seconds,
    )
    records = list(manifest.records)
    for j, i in enumerate(noisy):
        clips[i], records[i] = new_clips[j], new_records[j]
    matrices = {}
    audio_s = 0.0
    for clip in clips:
        matrix = features.extract_logmel(clip, INGEST_FEATURES)
        features.save_feature_cache(_cache_path(state, clip.clip_id), matrix)
        matrices[clip.clip_id] = matrix
        audio_s += clip.duration
    wall = perf_counter() - t0
    expected_noisy = {manifest.records[i].clip_id for i in noisy}
    return records, clips, matrices, log, expected_noisy, audio_s, wall


def _ingest_warm(state: IngestState, records):
    """load_feature_cache for every clip, then build_patchset and the
    Standardizer fit/apply."""
    t0 = perf_counter()
    feats = {r.clip_id: features.load_feature_cache(_cache_path(state, r.clip_id), r.clip_id)
             for r in records}
    patchset = training.build_patchset(records, feats, INGEST_FEATURES,
                                       state.sizes.n_classes)
    standardizer = training.Standardizer.fit(patchset.x)
    x = standardizer.apply(patchset.x)
    return feats, patchset, x, perf_counter() - t0


def ingest_measure(state: IngestState, seconds: float) -> Outcome:
    out = Outcome()
    budget = PHASE1_SHARE * seconds
    rtfs = []
    start = perf_counter()
    while not rtfs or perf_counter() - start < budget:
        records, clips, matrices, log, expected_noisy, audio_s, wall = _ingest_cold(state)
        rtfs.append(audio_s / wall)
        out.op_times.append(wall)
        out.attempted += len(clips)
        missing = expected_noisy - set(log.entries)
        if missing or len(log.entries) != len(expected_noisy):
            out.fail(len(missing) or 1, f"provenance: {len(missing)} noisy records "
                                        f"without an entry, {len(log.entries)} entries")

    rates = []
    start = perf_counter()
    while not rates or perf_counter() - start < seconds - budget:
        feats, patchset, x, wall = _ingest_warm(state, records)
        rates.append(len(records) / wall)
        out.attempted += len(records)
    _ingest_check(clips, matrices, feats, patchset, x, out)
    out.named["features_rtf"] = (median(rtfs), "audio_s/s")
    out.named["cached_clips_per_s"] = (median(rates), "clips/s")
    return out


def _ingest_check(clips, matrices, feats, patchset, x, out: Outcome) -> None:
    """The cache round trip is exact and patch counts follow patchify's rule
    from each clip's sample count."""
    hop, pf = INGEST_FEATURES.hop, INGEST_FEATURES.patch_frames
    counts = np.bincount(patchset.clip_index, minlength=len(patchset.clip_ids))
    bad = []
    for i, clip in enumerate(clips):
        ref, got = matrices[clip.clip_id], feats[clip.clip_id]
        exact = (np.array_equal(got.values, ref.values.astype("<f4"))
                 and got.frame_rate == np.float32(ref.frame_rate))
        n_frames = -(-clip.samples.size // hop)
        if not exact or counts[i] != _patch_count(n_frames, pf):
            bad.append(clip.clip_id)
    if bad:
        out.fail(len(bad), f"cache round trip or patch count wrong for {bad[:3]}")
    if not np.isfinite(x).all():
        out.fail(1, "standardized patches are not finite")


WORKLOADS = {
    "desk_cell": (desk_setup, desk_measure, DeskSizes()),
    "paper_net": (paper_setup, paper_measure, PaperSizes()),
    "ingest": (ingest_setup, ingest_measure, IngestSizes()),
}

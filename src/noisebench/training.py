"""Training orchestration, clip-level evaluation, and multi-seed experiments.

A run goes: select the training subset, split a stratified validation set,
extract and standardize log-mel patches (statistics from training patches
only), then train with Adam, halving the learning rate on validation
plateaus and early-stopping with best-weight restoration. Clip predictions
aggregate patch softmax outputs by geometric mean. ``run_experiment``
repeats this over consecutive seeds and reports mean accuracy with a
Student-t 95% confidence interval.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .audio_io import AudioClip
from .datasets import (
    DatasetManifest,
    LabelRecord,
    Subset,
    _round_half_up,
    clip_durations,
    select_subset,
)
from .errors import DataError, NumericError
from .features import FeatureConfig, LogMelMatrix, extract_logmel, patch_count, patchify
from .fileio import atomic_csv_writer
from .layers import Network, build_baseline, im2col_bytes, samples_per_slice
from .losses import LossConfig, one_hot, selective_batch_loss
from .optim import Adam


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 64
    initial_lr: float = 0.001
    plateau_window: int = 5
    patience: int = 15
    val_fraction: float = 0.15
    max_epochs: int = 200
    seed: int = 0
    loss: LossConfig = field(default_factory=LossConfig)
    subset: Subset = Subset.ALL
    channels: tuple[int, int, int] = (32, 64, 128)
    kernel_size: int = 5

    def __post_init__(self):
        if self.batch_size < 2:
            raise ValueError(
                f"batch_size must be >= 2, got {self.batch_size}: batch normalization "
                "needs two samples per batch"
            )
        if not 0.0 < self.val_fraction < 1.0:
            raise ValueError("val_fraction must be in (0, 1)")
        if not (math.isfinite(self.initial_lr) and self.initial_lr >= 0):
            raise ValueError(f"initial_lr must be finite and >= 0, got {self.initial_lr}")
        for name in ("max_epochs", "plateau_window", "patience", "kernel_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.kernel_size % 2 == 0:
            raise ValueError(f"kernel_size must be odd for same padding, got {self.kernel_size}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not self.channels or min(self.channels) < 1:
            raise ValueError(f"channels must be non-empty, each >= 1, got {self.channels}")
        object.__setattr__(self, "subset", Subset(self.subset))
        object.__setattr__(self, "channels", tuple(self.channels))


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_accuracy: float
    learning_rate: float


@dataclass
class PatchSet:
    """Patches stacked for training: x is (N, 1, n_mels, patch_frames), and
    each clip's patches are contiguous, in clip order."""

    x: np.ndarray
    labels: np.ndarray        # (N,) int
    origins: np.ndarray       # (N,) object array of Origin
    clip_index: np.ndarray    # (N,) int index into clip_ids
    clip_ids: list[str]
    clip_labels: np.ndarray   # (n_clips,) int
    n_classes: int

    def __post_init__(self):
        if np.any(np.diff(self.clip_index) < 0):
            raise ValueError("clip_index must be non-decreasing: one run of patches per clip")

    def __len__(self) -> int:
        return self.x.shape[0]

    def clip_bounds(self) -> np.ndarray:
        """Offsets (n_clips + 1,): clip i owns patches bounds[i]:bounds[i + 1]."""
        return np.searchsorted(self.clip_index, np.arange(len(self.clip_ids) + 1))

    def patches_of_clip(self, index: int) -> np.ndarray:
        lo, hi = np.searchsorted(self.clip_index, [index, index + 1])
        return self.x[lo:hi]


def build_patchset(
    records: list[LabelRecord],
    features: dict[str, LogMelMatrix],
    cfg: FeatureConfig,
    n_classes: int,
) -> PatchSet:
    """Stack the patches of the given records into one float32 array, so
    cached and freshly-computed features train identically.

    The array is allocated once and each clip's patches from patchify are
    cast into its rows, which rounds as astype(np.float32) would.
    """
    if not records:
        raise DataError("no patches produced; is the record list empty?")
    counts = np.array([patch_count(features[rec.clip_id].n_frames, cfg) for rec in records])
    n_mels = features[records[0].clip_id].values.shape[0]
    x = np.empty((int(counts.sum()), 1, n_mels, cfg.patch_frames), dtype=np.float32)
    row = 0
    for rec, count in zip(records, counts):
        x[row : row + count, 0] = patchify(features[rec.clip_id], cfg)
        row += count
    clip_labels = np.array([rec.class_index for rec in records], dtype=np.int64)
    origins = np.asarray([rec.origin for rec in records], dtype=object)
    return PatchSet(
        x=x,
        labels=np.repeat(clip_labels, counts),
        origins=np.repeat(origins, counts),
        clip_index=np.repeat(np.arange(len(records), dtype=np.int64), counts),
        clip_ids=[rec.clip_id for rec in records],
        clip_labels=clip_labels,
        n_classes=n_classes,
    )


@dataclass
class Standardizer:
    """Per-mel-band mean and standard deviation, fitted on training patches."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, patches: np.ndarray) -> "Standardizer":
        # numpy's std with the mean taken once: the same reductions, so the
        # same bits as patches.mean() and patches.std() over these axes.
        axes = (0, 1, 3)
        mean = patches.mean(axis=axes, keepdims=True)
        centred = np.subtract(patches, mean)
        np.square(centred, out=centred)
        std = np.sqrt(centred.mean(axis=axes))
        return cls(mean.reshape(-1).astype(np.float32),
                   np.maximum(std, 1e-8).astype(np.float32))

    def apply(self, patches: np.ndarray) -> np.ndarray:
        """Standardises patches in place and returns them."""
        patches -= self.mean[None, None, :, None]
        patches /= self.std[None, None, :, None]
        return patches


def stratified_val_split(
    records: list[LabelRecord], fraction: float, seed: int
) -> tuple[list[LabelRecord], list[LabelRecord]]:
    """Move round(fraction * n) records per class (at least one, at most
    n - 1) into a validation list; both outputs keep the input order."""
    by_class: dict[int, list[int]] = {}
    for i, rec in enumerate(records):
        by_class.setdefault(rec.class_index, []).append(i)
    rng = np.random.default_rng(seed)
    val_indices: set[int] = set()
    for k in sorted(by_class):
        idxs = by_class[k]
        if len(idxs) < 2:
            raise DataError(f"class {k} has {len(idxs)} record(s); need at least 2 to split")
        n_val = min(max(_round_half_up(fraction * len(idxs)), 1), len(idxs) - 1)
        perm = rng.permutation(len(idxs))
        val_indices.update(idxs[j] for j in perm[:n_val])
    train = [r for i, r in enumerate(records) if i not in val_indices]
    val = [r for i, r in enumerate(records) if i in val_indices]
    return train, val


def _infer(network, x: np.ndarray) -> np.ndarray:
    """Softmax rows of every patch, forwarded in contiguous chunks that each
    conv runs as one slice of ``layers.COLS_BYTES``. Any object with a
    ``forward`` will do; without conv layers to size chunks by, all patches
    go in one call. No patches go in one empty call, for the (0, K) rows."""
    per_patch = im2col_bytes(getattr(network, "layers", ()), x.shape[2], x.shape[3],
                             x.dtype.itemsize)
    chunk = samples_per_slice(per_patch, len(x))
    return np.concatenate([network.forward(x[i : i + chunk], train=False)
                           for i in range(0, max(len(x), 1), chunk)])


def _clip_predictions(patch_probs: np.ndarray, bounds: np.ndarray):
    """Clip probabilities (n_clips, K) and predicted classes from the patch
    probabilities of clips laid out as bounds[i]:bounds[i + 1].

    Per class, the geometric mean of the patch probabilities (offset by
    1e-12 under the log) is renormalized; ties go to the lowest class index.
    """
    counts = np.diff(bounds)
    if np.any(counts < 1):
        raise ValueError(f"clip {int(np.argmin(counts))} has no patches")
    log_p = np.log(patch_probs.astype(np.float64) + 1e-12)
    log_mean = np.add.reduceat(log_p, bounds[:-1], axis=0) / counts[:, None]
    g = np.exp(log_mean)
    probs = g / g.sum(axis=1, keepdims=True)
    return probs, probs.argmax(axis=1)


def predict_clip(network: Network, patches: np.ndarray) -> tuple[np.ndarray, int]:
    """Clip-level probabilities and predicted class from one clip's patches."""
    if patches.ndim != 4 or patches.shape[0] == 0:
        raise ValueError("patches must be a non-empty (P, 1, n_mels, n_frames) array")
    probs, preds = _clip_predictions(_infer(network, patches), np.array([0, len(patches)]))
    return probs[0], int(preds[0])


def predict_clips(network: Network, patchset: PatchSet) -> tuple[np.ndarray, np.ndarray]:
    """predict_clip for every clip of the set, from one chunked pass over
    its patches: probabilities (n_clips, K) and predicted classes."""
    if not patchset.clip_ids:
        raise ValueError("patch set contains no clips")
    return _clip_predictions(_infer(network, patchset.x), patchset.clip_bounds())


def clip_accuracy(network: Network, patchset: PatchSet) -> float:
    """Fraction of clips whose aggregated prediction matches the label."""
    _, preds = predict_clips(network, patchset)
    return int((preds == patchset.clip_labels).sum()) / len(patchset.clip_ids)


def train(
    network: Network,
    train_set: PatchSet,
    val_set: PatchSet,
    cfg: TrainConfig,
) -> tuple[Network, list[EpochStats]]:
    """Train in place per the config; returns the network restored to its
    first best-validation-epoch weights plus the epoch history. The epochs
    since that best halve the rate at each multiple of ``plateau_window``
    and stop training at ``patience``."""
    adam = Adam(network.params(), cfg.initial_lr)
    shuffle_rng = np.random.default_rng([cfg.seed, 1])
    targets_all = one_hot(train_set.labels, train_set.n_classes)

    history: list[EpochStats] = []
    best_acc, stalled = -np.inf, 0

    for epoch in range(1, cfg.max_epochs + 1):
        order = shuffle_rng.permutation(len(train_set))
        batch_losses = []
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            if batch.size < 2 and len(order) > 1:
                continue  # a stray single-sample batch has no usable statistics
            probs = network.forward(train_set.x[batch], train=True)
            total, grads = selective_batch_loss(
                probs, targets_all[batch], train_set.origins[batch], cfg.loss
            )
            if not np.isfinite(total):
                raise NumericError(
                    f"non-finite loss at epoch {epoch}, batch {start // cfg.batch_size} "
                    f"(family {cfg.loss.family.value})"
                )
            network.zero_grads()
            network.backward(grads.astype(train_set.x.dtype))
            adam.step()
            batch_losses.append(total)
        val_acc = clip_accuracy(network, val_set)
        history.append(EpochStats(epoch, float(np.mean(batch_losses)), val_acc,
                                  adam.learning_rate))
        if val_acc > best_acc:  # always at epoch 1, so best_state is bound
            best_acc, best_state, stalled = val_acc, network.get_state(), 0
        else:
            stalled += 1
            if stalled % cfg.plateau_window == 0:
                adam.learning_rate /= 2.0
            if stalled >= cfg.patience:
                break
    network.set_state(best_state)
    return network, history


@dataclass
class RunReport:
    """Per-run accuracies of seeds seed, seed + 1, ... and their summary."""

    accuracies: list[float]
    mean: float
    ci95_halfwidth: float
    seed: int

    def format_text(self) -> str:
        return f"{100 * self.mean:.1f}±{100 * self.ci95_halfwidth:.1f}"


class ExperimentError(NumericError):
    """A run aborted; carries the accuracies collected so far."""

    def __init__(self, message: str, partial: list[float]):
        super().__init__(message)
        self.partial = partial


def _t_upper_tail(t: float, df: int) -> float:
    """P(T > t) for t > 0 under Student's t with integer ``df`` >= 1.

    P(|T| < t) is a finite sum in theta = atan(t / sqrt(df)) (Abramowitz and
    Stegun 26.7.3 for odd df, 26.7.4 for even df), whose df // 2 terms are
    added in Horner form from the smallest up.
    """
    theta = math.atan(t / math.sqrt(df))
    sin, cos = math.sin(theta), math.cos(theta)
    s = 0.0 if df == 1 else 1.0  # at df = 1, P(|T| < t) is 2 theta / pi alone
    # Two multiplies by cos, not one by a rounded cos ** 2, so that rounding
    # does not compound over the terms: quantile error 5e-13 instead of
    # 4e-12 at df = 10^5, at the same speed.
    for n in range(df - 3, 0, -2):
        s = 1.0 + s * cos * cos * n / (n + 1)
    if df % 2 == 0:
        return 0.5 - 0.5 * sin * s
    return 0.5 - (theta + sin * cos * s) / math.pi


def student_t_quantile(p: float, df: int) -> float:
    """The ``p`` quantile, 0.5 < p < 1, of Student's t with integer ``df``
    >= 1 degrees of freedom.

    Bisects the upper tail down to adjacent floats. Against a 40-digit
    mpmath reference, the relative error at p = 0.975 is below 5e-14 for
    every df from 1 to 1000, and below 5e-13 at df = 10^4 and 10^5.
    """
    if not (0.5 < p < 1.0 and isinstance(df, int) and not isinstance(df, bool) and df >= 1):
        raise ValueError(f"need 0.5 < p < 1 and an integer df >= 1, got p={p}, df={df!r}")
    tail = 1.0 - p
    lo, hi = 0.0, 1.0
    while _t_upper_tail(hi, df) > tail:
        lo, hi = hi, 2.0 * hi
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if _t_upper_tail(mid, df) > tail:
            lo = mid
        else:
            hi = mid
    return mid


def confidence_halfwidth(accuracies: list[float]) -> float:
    """Student-t 95% half-width, t_{0.975, n-1} * s / sqrt(n) with the
    sample standard deviation."""
    n = len(accuracies)
    if n < 2:
        raise ValueError("need at least 2 runs for a confidence interval")
    s = float(np.std(accuracies, ddof=1))
    return float(student_t_quantile(0.975, n - 1) * s / np.sqrt(n))


def precompute_features(
    clips: list[AudioClip], cfg: FeatureConfig
) -> dict[str, LogMelMatrix]:
    return {clip.clip_id: extract_logmel(clip, cfg) for clip in clips}


@dataclass
class RunResult:
    accuracy: float
    history: list[EpochStats]
    network: Network
    standardizer: Standardizer


def run_single(
    clips: list[AudioClip],
    manifest: DatasetManifest,
    feat_cfg: FeatureConfig,
    cfg: TrainConfig,
    features: dict[str, LogMelMatrix],
) -> RunResult:
    """One full train/evaluate pass for one seed, on the clips' log-mels
    ``features`` (clip id -> LogMelMatrix)."""
    subset = select_subset(manifest, cfg.subset, durations=clip_durations(clips))
    train_records, val_records = stratified_val_split(
        subset.records, cfg.val_fraction, cfg.seed
    )
    test_records = manifest.test_records()
    if not test_records:
        raise DataError("manifest has no test records")

    k = manifest.n_classes
    train_set = build_patchset(train_records, features, feat_cfg, k)
    val_set = build_patchset(val_records, features, feat_cfg, k)
    test_set = build_patchset(test_records, features, feat_cfg, k)

    standardizer = Standardizer.fit(train_set.x)
    for patchset in (train_set, val_set, test_set):
        standardizer.apply(patchset.x)

    network = build_baseline(
        train_set.x.shape[2], train_set.x.shape[3], k,
        channels=cfg.channels, kernel_size=cfg.kernel_size, seed=cfg.seed,
    )
    network, history = train(network, train_set, val_set, cfg)
    accuracy = clip_accuracy(network, test_set)
    return RunResult(accuracy, history, network, standardizer)


def check_n_runs(n_runs: int) -> None:
    """A confidence interval over seeds needs two runs at least."""
    if n_runs < 2:
        raise ValueError("n_runs must be >= 2")


def run_experiment(
    clips: list[AudioClip],
    manifest: DatasetManifest,
    feat_cfg: FeatureConfig,
    cfg: TrainConfig,
    features: dict[str, LogMelMatrix],
    n_runs: int = 7,
    on_run=None,
) -> RunReport:
    """Repeat run_single with seeds cfg.seed, cfg.seed + 1, ... and report
    the mean accuracy with its 95% confidence interval."""
    check_n_runs(n_runs)
    accuracies: list[float] = []
    for i in range(n_runs):
        run_cfg = replace(cfg, seed=cfg.seed + i)
        try:
            result = run_single(clips, manifest, feat_cfg, run_cfg, features)
        except NumericError as exc:
            raise ExperimentError(
                f"run {i} (seed {run_cfg.seed}) aborted: {exc}", accuracies
            ) from exc
        accuracies.append(result.accuracy)
        if on_run is not None:
            on_run(i, run_cfg, result)
    return RunReport(
        accuracies=accuracies,
        mean=float(np.mean(accuracies)),
        ci95_halfwidth=confidence_halfwidth(accuracies),
        seed=cfg.seed,
    )


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------


def write_history_csv(history: list[EpochStats], path: str | Path) -> None:
    with atomic_csv_writer(path) as writer:
        writer.writerow(["epoch", "train_loss", "val_accuracy", "learning_rate"])
        for row in history:
            writer.writerow(
                [row.epoch, f"{row.train_loss:.6f}", f"{row.val_accuracy:.6f}",
                 f"{row.learning_rate:.8f}"]
            )


def write_report_csv(report: RunReport, path: str | Path) -> None:
    with atomic_csv_writer(path) as writer:
        writer.writerow(["kind", "run", "seed", "accuracy"])
        for i, acc in enumerate(report.accuracies):
            writer.writerow(["run", i, report.seed + i, f"{acc:.6f}"])
        writer.writerow(["mean", "", "", f"{report.mean:.6f}"])
        writer.writerow(["ci95_halfwidth", "", "", f"{report.ci95_halfwidth:.6f}"])


def read_report_csv(path: str | Path) -> dict:
    """Read ``write_report_csv``'s output; a ``DataError`` names the file if it
    is missing, a row has an unknown kind or no number, or the summary rows
    are missing."""
    out = {"accuracies": [], "mean": None, "ci95_halfwidth": None}
    try:
        fh = Path(path).open(newline="", encoding="utf-8")
    except FileNotFoundError:
        raise DataError(f"{path}: no such report") from None
    with fh:
        reader = csv.DictReader(fh)
        for row in reader:
            kind = row.get("kind")
            if kind not in ("run", "mean", "ci95_halfwidth"):
                raise DataError(f"{path}: line {reader.line_num} has unknown kind {kind!r}")
            try:
                value = float(row.get("accuracy"))
            except (TypeError, ValueError):
                raise DataError(f"{path}: line {reader.line_num} has no accuracy number") from None
            if kind == "run":
                out["accuracies"].append(value)
            else:
                out[kind] = value
    missing = [kind for kind in ("mean", "ci95_halfwidth") if out[kind] is None]
    if missing:
        raise DataError(f"{path}: no {' or '.join(missing)} row; the report is truncated")
    return out

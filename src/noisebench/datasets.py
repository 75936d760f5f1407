"""Dataset manifests, training-subset selection, and synthetic audio generation.

The manifest format is a UTF-8 CSV, with or without a byte-order mark, with
header columns ``fname,label,manually_verified,split``. ``manually_verified``
is 1 for human-verified (clean) labels and 0 for labels inferred from user
tags (noisy). An optional ``noisy_small`` column, 0 or 1 too, marks a
pre-defined noisy_small subset, which holds noisy rows only. Audio is
addressed as ``audio_root/fname`` and must be mono 16-bit PCM WAV.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .audio_io import AudioClip, wav_duration
from .errors import DataError, ManifestError
from .fileio import atomic_csv_writer


class Origin(str, enum.Enum):
    CLEAN = "clean"
    NOISY = "noisy"


class Split(str, enum.Enum):
    TRAIN = "train"
    TEST = "test"


class Subset(str, enum.Enum):
    ALL = "all"
    NOISY = "noisy"
    NOISY_SMALL = "noisy_small"
    CLEAN = "clean"


@dataclass(frozen=True)
class LabelRecord:
    """Single-label supervision for one clip."""

    clip_id: str
    class_index: int
    origin: Origin
    split: Split
    noisy_small: bool = False


@dataclass
class DatasetManifest:
    records: list[LabelRecord]
    class_names: list[str]
    audio_root: Path = field(default_factory=Path)

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    def audio_path(self, record: LabelRecord) -> Path:
        return self.audio_root / record.clip_id

    def train_records(self) -> list[LabelRecord]:
        return [r for r in self.records if r.split is Split.TRAIN]

    def test_records(self) -> list[LabelRecord]:
        return [r for r in self.records if r.split is Split.TEST]


_REQUIRED_COLUMNS = ("fname", "label", "manually_verified", "split")


def load_manifest(path: str | Path, audio_root: str | Path) -> DatasetManifest:
    """Load and validate a manifest CSV.

    Class names are the sorted distinct labels of the train rows; a label
    that appears only in test rows is a consistency error. A fname is a
    path under audio_root, so an absolute one or one with a '..' part is an
    error too. Record order follows file order.
    """
    path = Path(path)
    if not path.exists():
        raise ManifestError(f"manifest file not found: {path}")
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            reader = csv.DictReader(fh)
            header = reader.fieldnames or []
            rows = list(reader)
    except (OSError, UnicodeDecodeError) as exc:
        raise ManifestError(f"{path}: unreadable manifest ({exc})") from None
    for col in _REQUIRED_COLUMNS:
        if col not in header:
            raise ManifestError(f"{path}: missing required column {col!r}")
    flags = [col for col in ("manually_verified", "noisy_small") if col in header]

    train_labels = sorted({row["label"] for row in rows if row["split"] == "train"})
    class_of = {name: i for i, name in enumerate(train_labels)}

    records = []
    seen = set()
    for lineno, row in enumerate(rows, start=2):
        for col in ("fname", "label"):
            if not row[col]:
                raise ManifestError(f"{path}:{lineno}: empty {col}")
            if row[col] != row[col].strip():
                raise ManifestError(
                    f"{path}:{lineno}: {col} {row[col]!r} has leading or trailing whitespace")
        fname = row["fname"]
        if Path(fname).is_absolute() or ".." in Path(fname).parts:
            raise ManifestError(f"{path}:{lineno}: fname {fname!r} reaches outside audio_root")
        if fname in seen:
            raise ManifestError(f"{path}:{lineno}: duplicate fname {fname!r}")
        seen.add(fname)
        try:
            split = Split(row["split"])
        except ValueError:
            raise ManifestError(f"{path}:{lineno}: unknown split {row['split']!r}") from None
        for col in flags:
            if row[col] not in ("0", "1"):
                raise ManifestError(f"{path}:{lineno}: {col} must be 0 or 1, got {row[col]!r}")
        origin = Origin.CLEAN if row["manually_verified"] == "1" else Origin.NOISY
        noisy_small = row.get("noisy_small") == "1"
        if noisy_small and origin is Origin.CLEAN:
            raise ManifestError(
                f"{path}:{lineno}: noisy_small marks {fname!r}, which is manually verified; "
                "the noisy_small subset holds noisy rows only"
            )
        if split is Split.TEST:
            if origin is not Origin.CLEAN:
                raise ManifestError(
                    f"{path}:{lineno}: test clip {fname!r} is not manually verified; "
                    "the test set is drawn from verified data only"
                )
            if row["label"] not in class_of:
                raise ManifestError(
                    f"{path}:{lineno}: label {row['label']!r} appears only in test rows"
                )
        records.append(
            LabelRecord(
                clip_id=fname,
                class_index=class_of[row["label"]],
                origin=origin,
                split=split,
                noisy_small=noisy_small,
            )
        )

    return DatasetManifest(records, train_labels, Path(audio_root))


def clip_durations(clips: list[AudioClip]) -> dict[str, float]:
    return {c.clip_id: c.duration for c in clips}


def _noisy_small_records(
    train: list[LabelRecord],
    n_classes: int,
    durations: dict[str, float],
) -> list[LabelRecord]:
    # Pre-marked records win over duration matching.
    marked = [r for r in train if r.noisy_small]
    if marked:
        return marked

    noisy_by_class: dict[int, list[LabelRecord]] = {k: [] for k in range(n_classes)}
    clean_dur = dict.fromkeys(range(n_classes), 0.0)
    for rec in train:
        if rec.origin is Origin.NOISY:
            noisy_by_class[rec.class_index].append(rec)
        else:
            clean_dur[rec.class_index] += durations[rec.clip_id]

    chosen: set[str] = set()
    for k in range(n_classes):
        target = clean_dur[k]
        # Prefix (in manifest order) whose total duration is closest to the
        # clean duration; ties go to the shorter prefix.
        best_n, best_err, total = 0, target, 0.0
        for n, rec in enumerate(noisy_by_class[k], start=1):
            total += durations[rec.clip_id]
            err = abs(total - target)
            if err < best_err:
                best_n, best_err = n, err
        chosen.update(r.clip_id for r in noisy_by_class[k][:best_n])
    return [replace(r, noisy_small=True) for r in train if r.clip_id in chosen]


def select_subset(
    manifest: DatasetManifest,
    subset: Subset,
    durations: dict[str, float] | None = None,
) -> DatasetManifest:
    """Return the training subset of a manifest (test records are dropped).

    ``noisy_small`` uses the manifest's marker column when present, otherwise
    a deterministic per-class prefix of the noisy records whose duration is
    closest to the clean subset's per-class duration. Durations come from
    ``durations`` or from the WAV headers under ``audio_root``. Records
    selected by duration matching are returned with the marker set, so
    re-selection is idempotent.
    """
    subset = Subset(subset)
    train = manifest.train_records()
    if subset is Subset.ALL:
        selected = list(train)
    elif subset is Subset.CLEAN:
        selected = [r for r in train if r.origin is Origin.CLEAN]
    elif subset is Subset.NOISY:
        selected = [r for r in train if r.origin is Origin.NOISY]
    else:
        if not any(r.noisy_small for r in train):
            if durations is None:
                durations = {r.clip_id: wav_duration(manifest.audio_path(r)) for r in train}
            missing = [r.clip_id for r in train if r.clip_id not in durations]
            if missing:
                raise DataError(f"no duration known for clips: {missing[:5]}")
        selected = _noisy_small_records(train, manifest.n_classes, durations or {})
    if not selected:
        raise DataError(f"subset {subset.value!r} is empty for this manifest")
    return DatasetManifest(selected, list(manifest.class_names), manifest.audio_root)


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


# ---------------------------------------------------------------------------
# Synthetic data
# ---------------------------------------------------------------------------
#
# Each class is a parametric sound family that is clearly separable in a
# log-mel representation: harmonic tones, band-limited noise, and
# amplitude-modulated noise, with per-clip jitter so classes are families
# rather than fixed waveforms. The distractor pool uses different families
# (chirps, pulse trains, low-passed noise) so its content is out of
# vocabulary by construction.


def _tone(rng, sr: int, n: int, f0: float) -> np.ndarray:
    t = np.arange(n) / sr
    f = f0 * rng.uniform(0.96, 1.04)
    out = np.zeros(n)
    for h, amp in enumerate((1.0, 0.5, 0.25, 0.12), start=1):
        if h * f < 0.45 * sr:
            out += amp * np.sin(2 * np.pi * h * f * t + rng.uniform(0, 2 * np.pi))
    return out


def _band_noise(rng, sr: int, n: int, lo: float, hi: float) -> np.ndarray:
    spectrum = np.fft.rfft(rng.standard_normal(n))
    freqs = np.fft.rfftfreq(n, d=1.0 / sr)
    spectrum[(freqs < lo) | (freqs > hi)] = 0.0
    return np.fft.irfft(spectrum, n)


def _am_noise(rng, sr: int, n: int, rate: float) -> np.ndarray:
    t = np.arange(n) / sr
    envelope = 0.55 + 0.45 * np.sin(2 * np.pi * rate * t + rng.uniform(0, 2 * np.pi))
    return envelope * rng.standard_normal(n)


def _chirp(rng, sr: int, n: int) -> np.ndarray:
    t = np.arange(n) / sr
    f_start = rng.uniform(0.05, 0.1) * sr
    f_end = rng.uniform(0.25, 0.4) * sr
    phase = 2 * np.pi * (f_start * t + (f_end - f_start) * t**2 / (2 * t[-1] + 1e-12))
    return np.sin(phase)


def _pulse_train(rng, sr: int, n: int) -> np.ndarray:
    out = np.zeros(n)
    period = int(sr / rng.uniform(3.0, 8.0))
    width = max(1, sr // 200)
    for start in range(0, n, period):
        out[start : start + width] = rng.uniform(0.5, 1.0)
    return out


def _lowpass_noise(rng, sr: int, n: int) -> np.ndarray:
    return _band_noise(rng, sr, n, 0.0, 0.08 * sr)


def _class_waveform(rng, sr: int, n: int, class_index: int) -> np.ndarray:
    family, variant = class_index % 3, class_index // 3
    nyq = sr / 2
    if family == 0:
        return _tone(rng, sr, n, f0=nyq * (0.08 + 0.07 * variant))
    if family == 1:
        lo = nyq * (0.42 + 0.18 * variant)
        return _band_noise(rng, sr, n, lo, lo + nyq * 0.14)
    return _am_noise(rng, sr, n, rate=3.0 + 5.0 * variant)


def _distractor_waveform(rng, sr: int, n: int, index: int) -> np.ndarray:
    family = index % 3
    if family == 0:
        return _chirp(rng, sr, n)
    if family == 1:
        return _pulse_train(rng, sr, n)
    return _lowpass_noise(rng, sr, n)


def _finish(rng, x: np.ndarray, snr_db: float | None = None) -> np.ndarray:
    peak = np.max(np.abs(x))
    if peak > 0:
        x = x / peak
    x = x * rng.uniform(0.3, 0.9)
    if snr_db is None:
        x = x + 0.003 * rng.standard_normal(x.size)
    else:
        noise_std = np.sqrt(np.mean(x**2) / 10.0 ** (snr_db / 10.0))
        x = x + noise_std * rng.standard_normal(x.size)
    return np.clip(x, -1.0, 1.0).astype(np.float32)


def check_synthetic(**args) -> None:
    """Range rules for ``gen_synthetic_dataset``'s arguments, by name (one
    with a default may be absent), which a config's dataset.synthetic holds."""
    for name in ("n_classes", "clips_per_class"):
        if args[name] < 2:
            raise ValueError(f"{name} must be >= 2")
    if not 0.0 < args["clean_fraction"] < 1.0:
        raise ValueError("clean_fraction must be in (0, 1)")
    if args["sample_rate"] <= 0:
        raise ValueError("sample_rate must be positive")
    if args.get("test_per_class") is not None and args["test_per_class"] < 1:
        raise ValueError("test_per_class must be >= 1")
    if args["seed"] < 0:
        raise ValueError(f"seed must be >= 0, got {args['seed']}")


def gen_synthetic_dataset(
    n_classes: int,
    clips_per_class: int,
    clean_fraction: float,
    sample_rate: int,
    seed: int,
    test_per_class: int | None = None,
    snr_db: float | None = None,
) -> tuple[list[AudioClip], DatasetManifest, list[AudioClip]]:
    """Generate a deterministic toy dataset plus an out-of-vocabulary pool.

    Per class, ``clips_per_class`` train clips are produced; the first
    ``round(clean_fraction * clips_per_class)`` of them carry the clean
    origin flag. ``test_per_class`` extra clean clips (default
    ``max(2, round(0.2 * clips_per_class))``) form the test split.
    ``snr_db`` buries every clip in white noise at that signal-to-noise
    ratio, which makes the classes harder without changing their structure.
    Returns ``(clips, manifest, distractor_pool)`` where ``clips`` is
    aligned with ``manifest.records``.
    """
    check_synthetic(**locals())
    if test_per_class is None:
        test_per_class = max(2, _round_half_up(0.2 * clips_per_class))

    rng = np.random.default_rng(seed)
    n_clean = _round_half_up(clean_fraction * clips_per_class)

    clips: list[AudioClip] = []
    records: list[LabelRecord] = []

    def make_clip(clip_id: str, class_index: int) -> AudioClip:
        n = int(rng.uniform(0.5, 6.0) * sample_rate)
        x = _finish(rng, _class_waveform(rng, sample_rate, n, class_index), snr_db)
        return AudioClip(x, sample_rate, clip_id)

    for k in range(n_classes):
        for i in range(clips_per_class):
            clip_id = f"synth_c{k:02d}_{i:04d}.wav"
            clips.append(make_clip(clip_id, k))
            origin = Origin.CLEAN if i < n_clean else Origin.NOISY
            records.append(LabelRecord(clip_id, k, origin, Split.TRAIN))
    for k in range(n_classes):
        for i in range(test_per_class):
            clip_id = f"synth_c{k:02d}_test_{i:04d}.wav"
            clips.append(make_clip(clip_id, k))
            records.append(LabelRecord(clip_id, k, Origin.CLEAN, Split.TEST))

    distractors: list[AudioClip] = []
    n_distractors = max(8, n_classes * clips_per_class // 4)
    for i in range(n_distractors):
        n = int(rng.uniform(0.5, 6.0) * sample_rate)
        x = _finish(rng, _distractor_waveform(rng, sample_rate, n, i), snr_db)
        distractors.append(AudioClip(x, sample_rate, f"distractor_{i:04d}.wav"))

    class_names = [f"class_{k:02d}" for k in range(n_classes)]
    return clips, DatasetManifest(records, class_names), distractors


def write_manifest(manifest: DatasetManifest, path: str | Path) -> None:
    with atomic_csv_writer(path) as writer:
        writer.writerow(["fname", "label", "manually_verified", "split", "noisy_small"])
        for rec in manifest.records:
            writer.writerow(
                [
                    rec.clip_id,
                    manifest.class_names[rec.class_index],
                    1 if rec.origin is Origin.CLEAN else 0,
                    rec.split.value,
                    1 if rec.noisy_small else 0,
                ]
            )

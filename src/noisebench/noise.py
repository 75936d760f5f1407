"""Synthetic label-noise injection with a hidden provenance log.

Corruption types mirror how web-audio labels actually go wrong:

* ``incorrect_oov``: the waveform is replaced by out-of-vocabulary content,
  so the kept label is plain wrong and the true class is not in the target
  set.
* ``incomplete_oov``: out-of-vocabulary content is mixed in; the kept label
  is correct but no longer complete.
* ``incorrect_iv``: the label is swapped for a different in-vocabulary
  class.
* ``incomplete_iv``: a clip of a different in-vocabulary class is mixed in
  while only one label is kept.
* ``density``: distractor audio long enough for at least one full patch is
  appended, so the clip-level label is absent from part of the clip.

Every record, corrupted or not, gets a provenance entry so evaluations can
recover the ground truth.
"""

from __future__ import annotations

import csv
import enum
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .audio_io import AudioClip
from .datasets import DatasetManifest, LabelRecord, Origin, Split
from .errors import ConfigError, DataError
from .fileio import atomic_csv_writer, reading


class NoiseType(str, enum.Enum):
    CORRECT = "correct"
    INCORRECT_OOV = "incorrect_oov"
    INCOMPLETE_OOV = "incomplete_oov"
    INCORRECT_IV = "incorrect_iv"
    INCOMPLETE_IV = "incomplete_iv"
    DENSITY = "density"


@dataclass(frozen=True)
class NoiseSpec:
    """Per-type corruption probabilities; the remainder stays correct."""

    p_incorrect_oov: float = 0.0
    p_incomplete_oov: float = 0.0
    p_incorrect_iv: float = 0.0
    p_incomplete_iv: float = 0.0
    p_density: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for kind, p in self.probabilities().items():
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"p_{kind.value} must be in [0, 1], got {p}")
        if sum(self.probabilities().values()) > 1.0 + 1e-12:
            raise ConfigError("noise probabilities sum to more than 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    def probabilities(self) -> dict[NoiseType, float]:
        return {
            NoiseType.INCORRECT_OOV: self.p_incorrect_oov,
            NoiseType.INCOMPLETE_OOV: self.p_incomplete_oov,
            NoiseType.INCORRECT_IV: self.p_incorrect_iv,
            NoiseType.INCOMPLETE_IV: self.p_incomplete_iv,
            NoiseType.DENSITY: self.p_density,
        }

    @classmethod
    def fsdnoisy18k_estimate(cls, seed: int = 0) -> "NoiseSpec":
        """Noise mix matching the documented distribution of the FSDnoisy18k
        noisy subset (ambiguous labels excluded, density noise folded in at
        one percent)."""
        return cls(0.38, 0.10, 0.06, 0.05, 0.01, seed)


@dataclass(frozen=True)
class ProvenanceEntry:
    noise_type: NoiseType
    original_label: int | None
    source_clip_ids: tuple[str, ...] = ()


@dataclass
class ProvenanceLog:
    entries: dict[str, ProvenanceEntry] = field(default_factory=dict)
    _COLUMNS = ("clip_id", "noise_type", "original_label", "source_clip_ids")

    def __len__(self) -> int:
        return len(self.entries)

    def write_csv(self, path: str | Path) -> None:
        with atomic_csv_writer(path) as writer:
            writer.writerow(self._COLUMNS)
            for clip_id, entry in self.entries.items():
                writer.writerow(
                    [
                        clip_id,
                        entry.noise_type.value,
                        "" if entry.original_label is None else entry.original_label,
                        ";".join(entry.source_clip_ids),
                    ]
                )

    @classmethod
    def read_csv(cls, path: str | Path) -> "ProvenanceLog":
        """Read ``write_csv``'s output; a ``DataError`` names the file, and the
        line of a row without every column, with an unknown noise type or a
        non-integer original label."""
        log = cls()
        with reading(path, "provenance log"), Path(path).open(newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            for row in reader:
                where = f"{path}: line {reader.line_num}"
                missing = [col for col in cls._COLUMNS if row.get(col) is None]
                if missing:
                    raise DataError(f"{where} has no {missing[0]} column")
                try:
                    noise_type = NoiseType(row["noise_type"])
                    label = None if row["original_label"] == "" else int(row["original_label"])
                except ValueError as exc:
                    raise DataError(f"{where}: {exc}") from None
                sources = tuple(s for s in row["source_clip_ids"].split(";") if s)
                log.entries[row["clip_id"]] = ProvenanceEntry(noise_type, label, sources)
        return log


def _rms(x: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(x, dtype=np.float64))))


def _fit_length(x: np.ndarray, n: int) -> np.ndarray:
    if x.size >= n:
        return x[:n]
    return np.tile(x, -(-n // x.size))[:n]


def _mix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sample-wise sum at equal RMS, peak-normalized to 0.9.

    The second source is tiled or trimmed to the first one's length, so the
    mix keeps the original clip's duration.
    """
    b = _fit_length(b, a.size)
    out = np.zeros(a.size, dtype=np.float64)
    for src in (a, b):
        rms = _rms(src)
        if rms > 0:
            out += src / rms
    peak = np.max(np.abs(out))
    if peak > 0:
        out *= 0.9 / peak
    return out.astype(np.float32)


# The types that draw one distractor from the pool, right after the type.
_DISTRACTOR_TYPES = (NoiseType.INCORRECT_OOV, NoiseType.INCOMPLETE_OOV, NoiseType.DENSITY)

# Appended distractor audio gets a margin beyond the two-patch minimum so a
# full patch stays inside it even after STFT framing at the junction.
_DENSITY_PATCHES = 2.0
_DENSITY_MARGIN = 0.25


def inject_noise(
    clips: list[AudioClip],
    records: list[LabelRecord],
    spec: NoiseSpec,
    distractor_pool: list[AudioClip],
    n_classes: int,
    patch_seconds: float = 2.0,
) -> tuple[list[AudioClip], list[LabelRecord], ProvenanceLog]:
    """Corrupt noisy-origin records according to ``spec``.

    ``clips`` must align with ``records`` one-to-one. Each record draws its
    noise type (and any auxiliary choices) from a generator seeded with
    ``(spec.seed, record index)``, so results do not depend on evaluation
    order. Inputs are never modified; untouched entries are shared with the
    output lists.
    """
    if len(clips) != len(records):
        raise ValueError(f"{len(clips)} clips but {len(records)} records")
    for clip, rec in zip(clips, records):
        if clip.clip_id != rec.clip_id:
            raise ValueError(f"clip/record mismatch: {clip.clip_id!r} vs {rec.clip_id!r}")
        if rec.origin is not Origin.NOISY:
            raise ValueError(
                f"record {rec.clip_id!r} has origin {rec.origin.value!r}; only "
                "noisy-origin records may be corrupted"
            )
    probs = spec.probabilities()
    if not distractor_pool and any(probs[t] > 0 for t in _DISTRACTOR_TYPES):
        raise DataError("distractor pool is empty but an OOV or density probability is set")

    types = list(probs)
    cutoffs = np.cumsum([probs[t] for t in types])
    by_class: dict[int, list[int]] = {}
    for i, rec in enumerate(records):
        by_class.setdefault(rec.class_index, []).append(i)

    out_clips: list[AudioClip] = []
    out_records: list[LabelRecord] = []
    log = ProvenanceLog()

    for i, (clip, rec) in enumerate(zip(clips, records)):
        rng = np.random.default_rng([spec.seed, i])
        draw = rng.random()
        noise_type = NoiseType.CORRECT
        for t, cutoff in zip(types, cutoffs):
            if draw < cutoff:
                noise_type = t
                break

        new_clip, new_rec = clip, rec
        original_label: int | None = rec.class_index
        sources: tuple[str, ...] = ()
        if noise_type in _DISTRACTOR_TYPES:
            d = distractor_pool[rng.integers(len(distractor_pool))]
            sources = (d.clip_id,)

        if noise_type is NoiseType.INCORRECT_OOV:
            new_clip = AudioClip(d.samples.copy(), d.sample_rate, rec.clip_id)
            original_label = None
        elif noise_type is NoiseType.INCOMPLETE_OOV:
            new_clip = AudioClip(_mix(clip.samples, d.samples), clip.sample_rate, rec.clip_id)
        elif noise_type is NoiseType.INCORRECT_IV:
            if n_classes < 2:
                raise DataError(
                    f"record {rec.clip_id!r}: no different class available for an "
                    "incorrect in-vocabulary label"
                )
            shifted = int(rng.integers(n_classes - 1))
            new_label = shifted + 1 if shifted >= rec.class_index else shifted
            new_rec = replace(rec, class_index=new_label)
        elif noise_type is NoiseType.INCOMPLETE_IV:
            others = [
                j for k, idxs in by_class.items() if k != rec.class_index for j in idxs
            ]
            if not others:
                raise DataError(
                    f"record {rec.clip_id!r}: no clip of a different class available "
                    "for incomplete in-vocabulary mixing"
                )
            other = clips[others[rng.integers(len(others))]]
            new_clip = AudioClip(
                _mix(clip.samples, other.samples), clip.sample_rate, rec.clip_id
            )
            sources = (other.clip_id,)
        elif noise_type is NoiseType.DENSITY:
            n_extra = int(
                round((_DENSITY_PATCHES + _DENSITY_MARGIN) * patch_seconds * clip.sample_rate)
            )
            extra = _fit_length(d.samples, n_extra).astype(np.float64)
            rms, extra_rms = _rms(clip.samples), _rms(extra)
            if rms > 0 and extra_rms > 0:
                extra = extra * (rms / extra_rms)
            joined = np.concatenate([np.asarray(clip.samples, dtype=np.float64), extra])
            peak = np.max(np.abs(joined))
            if peak > 1.0:
                joined *= 0.9 / peak
            new_clip = AudioClip(joined.astype(np.float32), clip.sample_rate, rec.clip_id)

        out_clips.append(new_clip)
        out_records.append(new_rec)
        log.entries[rec.clip_id] = ProvenanceEntry(noise_type, original_label, sources)

    return out_clips, out_records, log


def corrupt_noisy_train(
    clips: list[AudioClip],
    manifest: DatasetManifest,
    spec: NoiseSpec,
    distractor_pool: list[AudioClip],
    patch_seconds: float = 2.0,
) -> tuple[list[AudioClip], DatasetManifest, ProvenanceLog | None]:
    """inject_noise on the noisy-origin train records of a manifest, with
    the results merged back in manifest order.

    ``clips`` must align with ``manifest.records``. Returns the new clips,
    a new manifest and the provenance log; with no noisy-origin train
    record, the inputs come back unchanged and the log is None. As in
    inject_noise, only clips whose audio changes are new objects.
    """
    noisy = [
        i for i, r in enumerate(manifest.records)
        if r.split is Split.TRAIN and r.origin is Origin.NOISY
    ]
    if not noisy:
        return clips, manifest, None
    out_clips, out_records, log = inject_noise(
        [clips[i] for i in noisy], [manifest.records[i] for i in noisy], spec,
        distractor_pool, manifest.n_classes, patch_seconds=patch_seconds,
    )
    new_clips, new_records = list(clips), list(manifest.records)
    for i, clip, rec in zip(noisy, out_clips, out_records):
        new_clips[i], new_records[i] = clip, rec
    return new_clips, DatasetManifest(new_records, list(manifest.class_names),
                                      manifest.audio_root), log


def noise_report(log: ProvenanceLog) -> dict[NoiseType, tuple[int, float]]:
    """Per-type counts and fractions; fractions sum to one."""
    if not log.entries:
        raise ValueError("provenance log is empty")
    total = len(log.entries)
    counts = dict.fromkeys(NoiseType, 0)
    for entry in log.entries.values():
        counts[entry.noise_type] += 1
    return {t: (c, c / total) for t, c in counts.items()}


def format_noise_report(report: dict[NoiseType, tuple[int, float]]) -> str:
    lines = ["label noise distribution"]
    overall = sum(frac for t, (_, frac) in report.items() if t is not NoiseType.CORRECT)
    lines.append(f"  overall noisy: {100 * overall:5.1f}%")
    for t in NoiseType:
        count, frac = report[t]
        lines.append(f"  {t.value:<15s} {100 * frac:5.1f}%  ({count})")
    return "\n".join(lines)

"""Log-mel spectrogram front end and fixed-length patch slicing.

Waveforms become 96-band log-mel matrices (Hann-windowed STFT power, HTK mel
triangles, natural log with a positive floor), which are then cut into
2-second patches that inherit the clip-level label: short clips are tiled
cyclically up to one patch, long clips yield consecutive non-overlapping
patches with the trailing remainder discarded.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
import struct
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio_io import AudioClip
from .errors import ConfigError, DataError
from .fileio import atomic_write


@dataclass(frozen=True)
class FeatureConfig:
    sample_rate: int = 44100
    fft_size: int = 2048
    hop: int = 1024
    n_mels: int = 96
    patch_seconds: float = 2.0

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise ConfigError("sample_rate must be positive")
        if self.fft_size < 2:
            raise ConfigError("fft_size must be >= 2")
        if not 1 <= self.hop <= self.fft_size:
            raise ConfigError("hop must satisfy 1 <= hop <= fft_size")
        if self.n_mels < 1:
            raise ConfigError("n_mels must be >= 1")
        if not math.isfinite(self.patch_seconds):
            raise ConfigError(f"patch_seconds must be finite, got {self.patch_seconds}")
        if self.patch_frames < 1:
            raise ConfigError(f"patch_seconds {self.patch_seconds} rounds to 0 frames at "
                              f"sample_rate / hop = {self.sample_rate} / {self.hop}")
        _mel_edges(self)  # no mel filter may be empty

    @property
    def frame_rate(self) -> float:
        """STFT frames per second."""
        return self.sample_rate / self.hop

    @property
    def patch_frames(self) -> int:
        return int(round(self.patch_seconds * self.frame_rate))


@dataclass
class LogMelMatrix:
    values: np.ndarray  # (n_mels, n_frames)
    clip_id: str
    frame_rate: float

    @property
    def n_frames(self) -> int:
        return self.values.shape[1]


def _hann(n: int) -> np.ndarray:
    # Periodic Hann, the usual choice for spectral analysis.
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


# Frames per STFT block: besides the padded samples and the power matrix,
# one block's windowed frames, spectrum and squares are all that is held.
_BLOCK_FRAMES = 64


def stft_power(clip: AudioClip, cfg: FeatureConfig) -> np.ndarray:
    """Power spectrogram, shape (fft_size // 2 + 1, n_frames).

    Frame t covers samples [t * hop, t * hop + fft_size) of the
    reflection-padded signal; n_frames = ceil(len / hop). Each bin is the
    squared magnitude of the Hann-windowed DFT.

    The frames are transformed _BLOCK_FRAMES at a time into one
    (n_frames, n_bins) matrix, returned transposed. float32 samples are
    windowed straight into a float64 buffer: the cast is exact, so the bits
    are those of transforming the float64 signal in one go.
    """
    if clip.sample_rate != cfg.sample_rate:
        raise ConfigError(
            f"clip {clip.clip_id!r} has sample rate {clip.sample_rate}, "
            f"config expects {cfg.sample_rate}"
        )
    x = clip.samples
    if x.dtype != np.float32:
        x = x.astype(np.float64, copy=False)
    n = x.size
    n_frames = -(-n // cfg.hop)
    needed = (n_frames - 1) * cfg.hop + cfg.fft_size
    if needed > n:
        x = np.pad(x, (0, needed - n), mode="reflect" if n > 1 else "edge")
    frames = sliding_window_view(x, cfg.fft_size)[:: cfg.hop][:n_frames]
    window = _hann(cfg.fft_size)
    power = np.empty((n_frames, cfg.fft_size // 2 + 1))
    windowed = np.empty((min(n_frames, _BLOCK_FRAMES), cfg.fft_size))
    for start in range(0, n_frames, _BLOCK_FRAMES):
        block = frames[start : start + _BLOCK_FRAMES]
        spectrum = np.fft.rfft(np.multiply(block, window, out=windowed[: len(block)]), axis=1)
        rows = power[start : start + len(block)]
        np.square(spectrum.real, out=rows)
        rows += np.square(spectrum.imag)
    return power.T


def mel_scale(freq_hz):
    """HTK mel scale: 2595 * log10(1 + f / 700)."""
    return 2595.0 * np.log10(1.0 + np.asarray(freq_hz, dtype=np.float64) / 700.0)


def mel_to_hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


def _mel_edges(cfg: FeatureConfig) -> tuple[np.ndarray, np.ndarray]:
    """The n_mels + 2 filter edges in Hz, equally spaced on the mel scale
    between 0 Hz and sample_rate / 2, and the FFT bin frequencies. A filter
    with no bin strictly between its outer edges would be all zeros, which
    is a ConfigError. ``FeatureConfig`` runs this check when it is made:
    building the filterbank there would allocate and cache its matrix in
    every process that makes a config."""
    edges_hz = mel_to_hz(np.linspace(mel_scale(0.0), mel_scale(cfg.sample_rate / 2),
                                     cfg.n_mels + 2))
    bin_hz = np.fft.rfftfreq(cfg.fft_size, d=1.0 / cfg.sample_rate)
    inside = (np.searchsorted(bin_hz, edges_hz[2:], "left")
              - np.searchsorted(bin_hz, edges_hz[:-2], "right"))
    empty = np.flatnonzero(inside <= 0)
    if empty.size:
        raise ConfigError(
            f"mel filter {empty[0]} has empty support; reduce n_mels or "
            "increase fft_size"
        )
    return edges_hz, bin_hz


@functools.lru_cache(maxsize=8)
def mel_filterbank(cfg: FeatureConfig) -> np.ndarray:
    """Triangular mel filterbank, shape (n_mels, fft_size // 2 + 1).

    Filter centers are equally spaced on the mel scale between 0 Hz and
    sample_rate / 2; each filter rises linearly from its left edge to a
    peak of 1 at its center and falls to zero at its right edge. Built once
    per config and shared, so the returned array is read-only.
    """
    edges_hz, bin_hz = _mel_edges(cfg)
    lower, center, upper = edges_hz[:-2, None], edges_hz[1:-1, None], edges_hz[2:, None]
    rising = (bin_hz - lower) / (center - lower)
    falling = (upper - bin_hz) / (upper - center)
    weights = np.maximum(0.0, np.minimum(rising, falling))
    weights.flags.writeable = False
    return weights


# Mel power below this is raised to it before the log.
LOG_FLOOR = 1e-10


def extract_logmel(clip: AudioClip, cfg: FeatureConfig) -> LogMelMatrix:
    """Natural-log mel spectrogram, floored at log(LOG_FLOOR)."""
    # One dense product over the whole matrix: per-block products round
    # differently in the last bit.
    values = mel_filterbank(cfg) @ stft_power(clip, cfg)
    np.maximum(values, LOG_FLOOR, out=values)
    np.log(values, out=values)
    return LogMelMatrix(values, clip.clip_id, cfg.frame_rate)


def patch_count(n_frames: int, cfg: FeatureConfig) -> int:
    """How many patches patchify cuts from n_frames frames."""
    return max(1, n_frames // cfg.patch_frames)


def patchify(matrix: LogMelMatrix, cfg: FeatureConfig) -> np.ndarray:
    """Cut a log-mel matrix into fixed-length patches, shape
    (count, n_mels, patch_frames).

    Shorter inputs are tiled cyclically along time to fill one patch; longer
    inputs yield floor(n_frames / patch_frames) consecutive patches, as a
    view of the matrix, and the remainder is dropped.
    """
    n_frames = matrix.n_frames
    if n_frames == 0:
        raise DataError(f"clip {matrix.clip_id!r} has no frames to cut patches from")
    n_patch = cfg.patch_frames
    values = matrix.values
    if n_frames < n_patch:
        return np.tile(values, -(-n_patch // n_frames))[None, :, :n_patch]
    count = patch_count(n_frames, cfg)
    return values[:, : count * n_patch].reshape(-1, count, n_patch).transpose(1, 0, 2)


# ---------------------------------------------------------------------------
# Feature cache: one binary file per clip and input, little-endian layout
#   int32 n_mels, int32 n_frames, float32 frame_rate, then row-major float32.
# ---------------------------------------------------------------------------

_CACHE_HEADER = struct.Struct("<iif")

# What extract_logmel reads of a FeatureConfig: every field but patch_seconds.
_KEYED_FIELDS = tuple(f.name for f in fields(FeatureConfig) if f.name != "patch_seconds")


def feature_cache_path(cache_dir: str | Path, clip: AudioClip, cfg: FeatureConfig) -> Path:
    """Where the log-mel of ``clip`` under ``cfg`` is cached:
    ``cache_dir/<clip id stem>-<key>.lmf``.

    The key is a sha256 over the config fields extract_logmel reads (numbers
    as floats, so 0 and 0.0 agree) and the samples it is fed, dtype and
    bytes. A file exists only for its own input, so whether it exists is
    the whole staleness check.
    """
    settings = {name: float(getattr(cfg, name)) for name in _KEYED_FIELDS}
    samples = np.ascontiguousarray(clip.samples)
    digest = hashlib.sha256(repr((settings, samples.dtype.str)).encode())
    digest.update(samples)
    return Path(cache_dir) / f"{Path(clip.clip_id).stem}-{digest.hexdigest()}.lmf"


def save_feature_cache(path: str | Path, matrix: LogMelMatrix) -> None:
    values = np.ascontiguousarray(matrix.values, dtype="<f4")
    with atomic_write(path) as fh:
        fh.write(_CACHE_HEADER.pack(values.shape[0], values.shape[1], matrix.frame_rate))
        fh.write(values.data)


def load_feature_cache(path: str | Path, clip_id: str | None = None,
                       cfg: FeatureConfig | None = None) -> LogMelMatrix:
    """Read a cache file written by save_feature_cache.

    The body is read straight into the returned float32 array. A header
    cut short, with negative dimensions, claiming more values than the file
    holds or, given ``cfg``, holding another n_mels or float32 frame rate
    is a DataError; bytes past the claimed body are ignored.
    """
    path = Path(path)
    with path.open("rb") as fh:
        header = fh.read(_CACHE_HEADER.size)
        if len(header) != _CACHE_HEADER.size:
            raise DataError(f"{path}: truncated feature cache")
        n_mels, n_frames, frame_rate = _CACHE_HEADER.unpack(header)
        body = os.fstat(fh.fileno()).st_size - _CACHE_HEADER.size
        if n_mels < 0 or n_frames < 0:
            raise DataError(f"{path}: corrupt feature cache header "
                            f"({n_mels} x {n_frames} values)")
        if cfg is not None and (n_mels, frame_rate) != (cfg.n_mels, np.float32(cfg.frame_rate)):
            raise DataError(f"{path}: feature cache holds {n_mels} mels at {frame_rate} "
                            f"frames/s, config asks for {cfg.n_mels} at {cfg.frame_rate}")
        if 4 * n_mels * n_frames > body:
            raise DataError(f"{path}: truncated feature cache (header claims "
                            f"{n_mels} x {n_frames} values, body holds {body // 4})")
        values = np.empty((n_mels, n_frames), dtype="<f4")
        if fh.readinto(values.data) != values.nbytes:
            raise DataError(f"{path}: truncated feature cache")
    return LogMelMatrix(values, clip_id if clip_id is not None else path.stem, frame_rate)

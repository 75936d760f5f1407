"""Mono waveforms and 16-bit PCM WAV file I/O."""

from __future__ import annotations

import wave
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError
from .fileio import atomic_write


@dataclass
class AudioClip:
    """A mono waveform with its sample rate and identifier."""

    samples: np.ndarray
    sample_rate: int
    clip_id: str = field(default="")

    def __post_init__(self):
        self.samples = np.asarray(self.samples)
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise ValueError(f"clip {self.clip_id!r}: samples must be a non-empty 1-d array")
        if self.sample_rate <= 0:
            raise ValueError(f"clip {self.clip_id!r}: sample_rate must be positive")

    @property
    def duration(self) -> float:
        """Clip length in seconds."""
        return self.samples.size / self.sample_rate


def read_wav(path: str | Path, clip_id: str | None = None) -> AudioClip:
    """Read a mono 16-bit PCM WAV file.

    Multichannel and non-16-bit files are rejected rather than converted.
    """
    path = Path(path)
    try:
        with wave.open(str(path), "rb") as wav:
            n_channels = wav.getnchannels()
            samp_width = wav.getsampwidth()
            sample_rate = wav.getframerate()
            raw = wav.readframes(wav.getnframes())
    except (wave.Error, EOFError, OSError) as exc:
        raise DataError(f"{path}: not a readable WAV file ({exc})") from exc
    if n_channels != 1:
        raise DataError(f"{path}: expected mono audio, got {n_channels} channels")
    if samp_width != 2:
        raise DataError(f"{path}: expected 16-bit PCM, got sample width {samp_width}")
    if sample_rate <= 0:
        raise DataError(f"{path}: sample rate {sample_rate} is not positive")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float32)
    samples /= 32768.0  # a power of two: exact, and no second array
    if samples.size == 0:
        raise DataError(f"{path}: file contains no samples")
    return AudioClip(samples, sample_rate, clip_id if clip_id is not None else path.stem)


def write_wav(path: str | Path, clip: AudioClip) -> None:
    """Write a clip as mono 16-bit PCM WAV, clipping amplitudes to [-1, 1]."""
    scaled = np.round(np.clip(clip.samples, -1.0, 1.0) * 32768.0)
    pcm = np.clip(scaled, -32768, 32767).astype("<i2")
    with atomic_write(path) as fh, wave.open(fh, "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(2)
        wav.setframerate(clip.sample_rate)
        wav.writeframes(pcm.tobytes())


def wav_duration(path: str | Path) -> float:
    """Duration in seconds read from the WAV header only."""
    try:
        with wave.open(str(path), "rb") as wav:
            frames, sample_rate = wav.getnframes(), wav.getframerate()
    except (wave.Error, EOFError, OSError) as exc:
        raise DataError(f"{path}: not a readable WAV file ({exc})") from exc
    if sample_rate <= 0:
        raise DataError(f"{path}: sample rate {sample_rate} is not positive")
    return frames / sample_rate

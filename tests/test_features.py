"""STFT, mel filterbank, log-mel extraction, and patch slicing."""

import dataclasses
import itertools
import struct
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from noisebench import AudioClip, FeatureConfig, extract_logmel, mel_filterbank, patchify, stft_power
from noisebench.features import (
    LOG_FLOOR,
    LogMelMatrix,
    feature_cache_path,
    load_feature_cache,
    mel_scale,
    mel_to_hz,
    save_feature_cache,
)
from noisebench.errors import ConfigError, DataError

CFG = FeatureConfig(sample_rate=8000, fft_size=512, hop=256, n_mels=32)


@pytest.mark.parametrize("seconds", [0.0, 0.015, float("inf"), float("nan")])
def test_patch_seconds_must_give_a_whole_frame(seconds):
    # 0.015 s at 31.25 frames/s rounds to 0 frames; 0.02 s gives one.
    assert FeatureConfig(sample_rate=2000, hop=64, fft_size=128, n_mels=16,
                         patch_seconds=0.02).patch_frames == 1
    with pytest.raises(ConfigError, match="patch_seconds"):
        FeatureConfig(sample_rate=2000, hop=64, fft_size=128, n_mels=16, patch_seconds=seconds)


def clip_of(samples, sr=8000, clip_id="t"):
    return AudioClip(np.asarray(samples, dtype=np.float64), sr, clip_id)


class TestStftPower:
    def test_zero_input_is_zero(self):
        power = stft_power(clip_of(np.zeros(8000)), CFG)
        assert power.shape == (257, -(-8000 // 256))
        assert np.all(power == 0.0)

    def test_frame_count_is_ceil(self):
        for n in (1, 255, 256, 257, 1000, 8000):
            power = stft_power(clip_of(np.ones(n) * 0.1), CFG)
            assert power.shape[1] == -(-n // CFG.hop), n

    def test_bin_centered_sinusoid_peaks_at_its_bin(self):
        # A tone at k * sr / fft_size lands exactly on DFT bin k; with a Hann
        # window the windowed DFT has its global maximum there (the closed
        # form spreads energy only to the two adjacent bins, at half height).
        for k in (10, 37, 100):
            f = k * CFG.sample_rate / CFG.fft_size
            t = np.arange(2 * CFG.sample_rate) / CFG.sample_rate
            power = stft_power(clip_of(0.5 * np.sin(2 * np.pi * f * t)), CFG)
            interior = power[:, 2:-2]
            np.testing.assert_array_equal(interior.argmax(axis=0), k)

    def test_parseval(self):
        # Sum of each frame's power with symmetric-bin weighting equals the
        # windowed frame energy computed directly in the time domain.
        rng = np.random.default_rng(0)
        x = rng.uniform(-0.5, 0.5, 3000)
        power = stft_power(clip_of(x), CFG)
        weights = np.full(power.shape[0], 2.0)
        weights[0] = 1.0
        weights[-1] = 1.0
        freq_energy = (weights[:, None] * power).sum(axis=0) / CFG.fft_size

        n_frames = power.shape[1]
        padded = np.pad(x, (0, (n_frames - 1) * CFG.hop + CFG.fft_size - x.size), "reflect")
        window = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(CFG.fft_size) / CFG.fft_size)
        for t in range(n_frames):
            frame = padded[t * CFG.hop : t * CFG.hop + CFG.fft_size] * window
            time_energy = (frame**2).sum()
            assert abs(freq_energy[t] - time_energy) <= 1e-6 * max(time_energy, 1e-30)

    def test_sample_rate_mismatch(self):
        with pytest.raises(ConfigError, match="sample rate"):
            stft_power(clip_of(np.zeros(100), sr=4000), CFG)


def one_shot_power(samples, cfg):
    """The whole-clip STFT power: float64 signal, every frame at once."""
    x = np.asarray(samples, dtype=np.float64)
    n = x.size
    n_frames = -(-n // cfg.hop)
    needed = (n_frames - 1) * cfg.hop + cfg.fft_size
    if needed > n:
        x = np.pad(x, (0, needed - n), mode="reflect" if n > 1 else "edge")
    frames = sliding_window_view(x, cfg.fft_size)[:: cfg.hop][:n_frames]
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(cfg.fft_size) / cfg.fft_size)
    spectrum = np.fft.rfft(frames * window, axis=1)
    return (spectrum.real**2 + spectrum.imag**2).T


def bit_identity_cases():
    for name, cfg in (("test", CFG), ("paper", FeatureConfig())):
        hop = cfg.hop
        lengths = {
            "1": 1,
            "2": 2,
            "fft-1": cfg.fft_size - 1,
            "63fr": 63 * hop,
            "64fr": 64 * hop,
            "65fr": 64 * hop + 1,
            "129fr": 129 * hop,
            "3s": 3 * cfg.sample_rate + 7,
        }
        for label, n in lengths.items():
            for dtype in (np.float32, np.float64):
                yield pytest.param(cfg, n, dtype, id=f"{name}-{label}-{np.dtype(dtype).name}")


class TestBlockedStft:
    @pytest.mark.parametrize("cfg, n, dtype", bit_identity_cases())
    def test_bits_match_the_one_shot_transform(self, cfg, n, dtype):
        samples = np.random.default_rng(n).uniform(-1.0, 1.0, n).astype(dtype)
        clip = AudioClip(samples, cfg.sample_rate, "t")
        expected = one_shot_power(samples, cfg)
        power = stft_power(clip, cfg)
        assert power.shape == (cfg.fft_size // 2 + 1, -(-n // cfg.hop))
        assert np.array_equal(power, expected)
        logmel = np.log(np.maximum(mel_filterbank(cfg) @ expected, LOG_FLOOR))
        assert np.array_equal(extract_logmel(clip, cfg).values, logmel)

    def test_transient_memory_stays_under_two_power_matrices(self):
        cfg = FeatureConfig()
        samples = np.random.default_rng(0).uniform(-1.0, 1.0, 30 * cfg.sample_rate)
        clip = AudioClip(samples.astype(np.float32), cfg.sample_rate, "t")
        power_bytes = (cfg.fft_size // 2 + 1) * -(-samples.size // cfg.hop) * 8
        tracemalloc.start()
        try:
            extract_logmel(clip, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * power_bytes


def band_edges(cfg):
    """Filter edges and centers in Hz: n_mels + 2 points equally spaced in
    mel from 0 Hz to sample_rate / 2."""
    return mel_to_hz(np.linspace(mel_scale(0.0), mel_scale(cfg.sample_rate / 2), cfg.n_mels + 2))


class TestMelFilterbank:
    def test_row_shape_and_support(self):
        fb = mel_filterbank(CFG)
        assert fb.shape == (32, 257)
        assert np.all(fb >= 0.0)
        for row in fb:
            support = np.flatnonzero(row)
            assert support.size > 0
            # unimodal: never rises again after it starts falling
            diffs = np.diff(row[support[0] : support[-1] + 1])
            first_fall = np.argmax(diffs < 0) if np.any(diffs < 0) else len(diffs)
            assert np.all(diffs[first_fall:] <= 0)

    def test_zero_at_band_edges(self):
        fb = mel_filterbank(CFG)
        edges = band_edges(CFG)
        bin_hz = np.fft.rfftfreq(CFG.fft_size, d=1.0 / CFG.sample_rate)
        for j in range(CFG.n_mels):
            outside = (bin_hz <= edges[j]) | (bin_hz >= edges[j + 2])
            assert np.all(fb[j][outside] == 0.0)

    def test_tone_at_filter_center_wins_that_filter(self):
        # Coarse filterbank so the center bin quantization cannot flip the
        # argmax; the oracle applies the filterbank to a one-bin spectrum.
        cfg = FeatureConfig(sample_rate=8000, fft_size=1024, hop=512, n_mels=12)
        fb = mel_filterbank(cfg)
        centers = band_edges(cfg)[1:-1]
        bin_hz = np.fft.rfftfreq(cfg.fft_size, d=1.0 / cfg.sample_rate)
        for j, center in enumerate(centers):
            spectrum = np.zeros(bin_hz.size)
            spectrum[np.argmin(np.abs(bin_hz - center))] = 1.0
            assert int(np.argmax(fb @ spectrum)) == j

    def test_coverage_between_first_and_last_centers(self):
        fb = mel_filterbank(CFG)
        edges = band_edges(CFG)
        bin_hz = np.fft.rfftfreq(CFG.fft_size, d=1.0 / CFG.sample_rate)
        inside = (bin_hz > edges[1]) & (bin_hz < edges[-2])
        assert np.all(fb.sum(axis=0)[inside] > 0.0)

    def test_built_once_per_config_and_read_only(self):
        fb = mel_filterbank(CFG)
        assert mel_filterbank(FeatureConfig(sample_rate=8000, fft_size=512, hop=256,
                                            n_mels=32)) is fb
        assert not fb.flags.writeable
        with pytest.raises(ValueError):
            fb[0, 0] = 1.0

    @pytest.mark.parametrize("sample_rate,fft_size,n_mels", [
        (8000, 64, 96), (4000, 64, 60), (2000, 2, 16)])
    def test_too_many_filters_for_the_fft(self, sample_rate, fft_size, n_mels):
        # The config itself is the error, before any filterbank is built.
        with pytest.raises(ConfigError, match=r"mel filter \d+ has empty support"):
            FeatureConfig(sample_rate=sample_rate, fft_size=fft_size, hop=fft_size,
                          n_mels=n_mels)

    def test_the_load_check_finds_the_first_all_zero_filter(self):
        # The check reads bins between edges; the triangles built from the
        # same edges must have an all-zero row exactly where it says.
        for sample_rate, fft_size, n_mels in itertools.product(
                (2000, 4000, 44100), range(8, 80, 9), range(1, 64, 3)):
            edges = mel_to_hz(np.linspace(mel_scale(0.0), mel_scale(sample_rate / 2),
                                          n_mels + 2))
            bins = np.fft.rfftfreq(fft_size, d=1.0 / sample_rate)
            lower, center, upper = edges[:-2, None], edges[1:-1, None], edges[2:, None]
            rows = np.maximum(0.0, np.minimum((bins - lower) / (center - lower),
                                              (upper - bins) / (upper - center)))
            zero = np.flatnonzero(rows.max(axis=1) <= 0.0)
            try:
                FeatureConfig(sample_rate=sample_rate, fft_size=fft_size, hop=fft_size,
                              n_mels=n_mels, patch_seconds=1.0)
            except ConfigError as exc:
                assert zero.size and f"mel filter {zero[0]} has" in str(exc)
            else:
                assert not zero.size

    def test_a_config_builds_no_filterbank(self):
        before = mel_filterbank.cache_info().misses
        FeatureConfig(sample_rate=8000, fft_size=512, hop=256, n_mels=31)
        assert mel_filterbank.cache_info().misses == before

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            FeatureConfig(hop=4096, fft_size=2048)


class TestExtractLogmel:
    def test_silence_hits_the_floor(self):
        m = extract_logmel(clip_of(np.zeros(4000)), CFG)
        np.testing.assert_array_equal(m.values, np.log(LOG_FLOOR))

    def test_gain_shifts_by_two_log_ten(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-0.05, 0.05, 6000)
        a = extract_logmel(clip_of(x), CFG)
        b = extract_logmel(clip_of(10.0 * x), CFG)
        above = a.values > np.log(LOG_FLOOR) + 1e-9
        np.testing.assert_allclose(
            b.values[above] - a.values[above], 2.0 * np.log(10.0), rtol=1e-9
        )

    def test_shared_filterbank_gives_the_same_bits(self):
        # The memoised filterbank must not change extraction by one bit:
        # compare with a filterbank built afresh for this call.
        x = np.random.default_rng(3).uniform(-0.5, 0.5, 7000)
        fresh = mel_filterbank.__wrapped__(CFG)
        expected = np.log(np.maximum(fresh @ stft_power(clip_of(x), CFG), LOG_FLOOR))
        for _ in range(2):
            np.testing.assert_array_equal(extract_logmel(clip_of(x), CFG).values, expected)

    def test_purity(self):
        x = np.random.default_rng(2).uniform(-0.5, 0.5, 5000)
        a = extract_logmel(clip_of(x), CFG)
        b = extract_logmel(clip_of(x), CFG)
        np.testing.assert_array_equal(a.values, b.values)
        assert a.values.min() >= np.log(LOG_FLOOR)


def matrix_of(values):
    return LogMelMatrix(np.asarray(values, dtype=np.float64), "t", CFG.frame_rate)


class TestPatchify:
    def test_exact_length_is_one_patch(self):
        n = CFG.patch_frames
        values = np.random.default_rng(3).standard_normal((32, n))
        patches = patchify(matrix_of(values), CFG)
        assert patches.shape == (1, 32, n)
        np.testing.assert_array_equal(patches[0], values)

    def test_long_input_drops_remainder(self):
        n = int(2.3 * CFG.patch_frames)
        values = np.random.default_rng(4).standard_normal((32, n))
        patches = patchify(matrix_of(values), CFG)
        assert len(patches) == 2
        assert np.shares_memory(patches, values)
        for i, patch in enumerate(patches):
            np.testing.assert_array_equal(
                patch, values[:, i * CFG.patch_frames : (i + 1) * CFG.patch_frames]
            )

    def test_short_input_tiles_cyclically(self):
        n = int(0.4 * CFG.patch_frames)
        values = np.random.default_rng(5).standard_normal((32, n))
        patches = patchify(matrix_of(values), CFG)
        assert patches.shape == (1, 32, CFG.patch_frames)
        for t in range(CFG.patch_frames):
            np.testing.assert_array_equal(patches[0, :, t], values[:, t % n])

    def test_empty_input_is_a_data_error(self):
        with pytest.raises(DataError, match="'t' has no frames"):
            patchify(matrix_of(np.zeros((32, 0))), CFG)

    def test_patch_count_formula(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(1, 4 * CFG.patch_frames))
            patches = patchify(matrix_of(rng.standard_normal((32, n))), CFG)
            expected = 1 if n < CFG.patch_frames else n // CFG.patch_frames
            assert patches.shape == (expected, 32, CFG.patch_frames)


class TestFeatureCache:
    def test_roundtrip_exact_in_float32(self, tmp_path):
        values = np.random.default_rng(7).standard_normal((32, 17)).astype(np.float32)
        matrix = LogMelMatrix(values, "clip01", CFG.frame_rate)
        save_feature_cache(tmp_path / "clip01.lmf", matrix)
        loaded = load_feature_cache(tmp_path / "clip01.lmf")
        assert loaded.clip_id == "clip01"
        assert loaded.frame_rate == pytest.approx(CFG.frame_rate)
        np.testing.assert_array_equal(loaded.values, values)

    def test_file_is_the_header_then_the_float32_values(self, tmp_path):
        values = np.random.default_rng(10).standard_normal((32, 17))
        path = tmp_path / "clip01.lmf"
        save_feature_cache(path, LogMelMatrix(values, "clip01", CFG.frame_rate))
        expected = struct.pack("<iif", 32, 17, CFG.frame_rate)
        assert path.read_bytes() == expected + values.astype("<f4").tobytes()

    def test_header_check_against_the_config(self, tmp_path):
        path = tmp_path / "clip01.lmf"
        values = np.zeros((CFG.n_mels, 5), dtype=np.float32)
        save_feature_cache(path, LogMelMatrix(values, "clip01", CFG.frame_rate))
        assert load_feature_cache(path, cfg=CFG).n_frames == 5
        for other in (FeatureConfig(sample_rate=8000, fft_size=512, hop=256, n_mels=16),
                      FeatureConfig(sample_rate=8000, fft_size=512, hop=200, n_mels=32)):
            with pytest.raises(DataError, match="clip01.lmf"):
                load_feature_cache(path, cfg=other)
        path.write_bytes(path.read_bytes()[:5])
        with pytest.raises(DataError, match="truncated"):
            load_feature_cache(path, cfg=CFG)

    def test_cache_path_is_the_stem_then_the_key(self, tmp_path):
        path = feature_cache_path(tmp_path, clip_of(np.zeros(8), clip_id="a/clip01.wav"), CFG)
        assert path.parent == tmp_path and path.suffix == ".lmf"
        stem, key = path.stem.split("-")
        assert stem == "clip01" and len(key) == 64 and set(key) <= set("0123456789abcdef")

    def test_interrupted_write_keeps_the_previous_file(self, tmp_path, interrupt_writes):
        path = tmp_path / "clip01.lmf"
        values = np.random.default_rng(8).standard_normal((32, 17)).astype(np.float32)
        save_feature_cache(path, LogMelMatrix(values, "clip01", CFG.frame_rate))
        before = path.read_bytes()
        interrupt_writes()
        with pytest.raises(OSError, match="interrupted"):
            save_feature_cache(path, LogMelMatrix(2 * values, "clip01", CFG.frame_rate))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["clip01.lmf"]

    def test_interrupted_first_write_leaves_no_file(self, tmp_path, interrupt_writes):
        values = np.random.default_rng(9).standard_normal((32, 17)).astype(np.float32)
        interrupt_writes()
        with pytest.raises(OSError, match="interrupted"):
            save_feature_cache(tmp_path / "cache" / "clip01.lmf",
                               LogMelMatrix(values, "clip01", CFG.frame_rate))
        assert list((tmp_path / "cache").iterdir()) == []


class TestFeatureCacheKey:
    """The key covers exactly what extract_logmel reads: every field but
    patch_seconds, and the samples."""

    SAMPLES = np.random.default_rng(11).uniform(-0.5, 0.5, 4000).astype(np.float32)

    def key(self, cfg=CFG, samples=SAMPLES, clip_id="x.wav"):
        return feature_cache_path("cache", AudioClip(samples, cfg.sample_rate, clip_id), cfg)

    @pytest.mark.parametrize("change", [{"sample_rate": 16000}, {"fft_size": 1024},
                                        {"hop": 128}, {"n_mels": 64}],
                             ids=lambda change: next(iter(change)))
    def test_each_field_extract_logmel_reads_changes_the_key(self, change):
        assert self.key(dataclasses.replace(CFG, **change)) != self.key()

    def test_every_other_field_is_one_extract_logmel_reads(self):
        # The Hann window, the 0 Hz to sample_rate / 2 mel range and the
        # log floor are fixed in features: no field selects them.
        read = {f.name for f in dataclasses.fields(FeatureConfig)} - {"patch_seconds"}
        assert read == {"sample_rate", "fft_size", "hop", "n_mels"}
        for name in ("window", "fmin", "fmax", "log_floor"):
            with pytest.raises(TypeError, match=name):
                FeatureConfig(**{name: 0.0})

    def test_sample_rate_and_hop_in_the_same_ratio_change_the_key(self):
        # The same frame rate, so the header alone cannot tell them apart.
        other = dataclasses.replace(CFG, sample_rate=4000, hop=128)
        assert other.frame_rate == CFG.frame_rate
        assert self.key(other) != self.key()

    def test_patch_seconds_does_not_change_the_key(self):
        assert self.key(dataclasses.replace(CFG, patch_seconds=1.0)) == self.key()

    def test_one_sample_changes_the_key(self):
        samples = self.SAMPLES.copy()
        samples[1234] = np.nextafter(samples[1234], np.float32(1))
        assert self.key(samples=samples) != self.key()

    def test_the_dtype_of_the_samples_changes_the_key(self):
        assert self.key(samples=self.SAMPLES.astype(np.float64)) != self.key()

    def test_equal_numbers_of_another_type_give_the_same_key(self):
        assert self.key(dataclasses.replace(CFG, sample_rate=8000.0)) == self.key()

    def test_the_clip_ids_directory_and_extension_are_not_the_key(self):
        assert self.key(clip_id="a/x.wav").name == self.key(clip_id="b/x.flac").name


def reference_load_feature_cache(path):
    """The body read as bytes, then copied into the array."""
    with open(path, "rb") as fh:
        n_mels, n_frames, frame_rate = struct.unpack("<iif", fh.read(12))
        values = np.frombuffer(fh.read(4 * n_mels * n_frames), dtype="<f4")
    return values.reshape(n_mels, n_frames).copy(), frame_rate


class TestFeatureCacheRead:
    @pytest.mark.parametrize("cfg", [CFG, FeatureConfig(),
                                     FeatureConfig(sample_rate=4000, fft_size=256, hop=160,
                                                   n_mels=24)],
                             ids=["test", "paper", "desk"])
    @pytest.mark.parametrize("n_frames", [0, 1, 17, 1292])
    def test_bits_match_the_bytes_copy(self, tmp_path, cfg, n_frames):
        values = np.random.default_rng(n_frames).standard_normal((cfg.n_mels, n_frames))
        path = tmp_path / "clip.lmf"
        save_feature_cache(path, LogMelMatrix(values, "clip", cfg.frame_rate))
        loaded = load_feature_cache(path)
        ref_values, ref_rate = reference_load_feature_cache(path)
        assert loaded.values.dtype == np.dtype("<f4") and loaded.values.flags.c_contiguous
        assert loaded.values.flags.writeable
        assert np.array_equal(loaded.values, ref_values)
        assert loaded.frame_rate == ref_rate

    def test_body_longer_than_the_header_says_is_read_as_before(self, tmp_path):
        values = np.arange(6, dtype="<f4").reshape(2, 3)
        path = tmp_path / "clip.lmf"
        save_feature_cache(path, LogMelMatrix(values, "clip", CFG.frame_rate))
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        np.testing.assert_array_equal(load_feature_cache(path).values, values)

    @pytest.mark.parametrize("n_mels, n_frames", [(1 << 20, 1 << 20), (-1, 5), (4, -3),
                                                  (-2, -2), (32, 18)],
                             ids=["huge", "negative-mels", "negative-frames", "both-negative",
                                  "short-body"])
    def test_corrupt_header_is_a_data_error(self, tmp_path, n_mels, n_frames):
        path = tmp_path / "clip.lmf"
        body = np.zeros((32, 17), dtype="<f4").tobytes()
        path.write_bytes(struct.pack("<iif", n_mels, n_frames, CFG.frame_rate) + body)
        with pytest.raises(DataError, match="clip.lmf"):
            load_feature_cache(path)

"""Noise injector semantics, provenance, and the distribution report."""

from dataclasses import replace

import numpy as np
import pytest

from noisebench import (
    FeatureConfig,
    NoiseSpec,
    NoiseType,
    Origin,
    extract_logmel,
    gen_synthetic_dataset,
    inject_noise,
    noise_report,
    patchify,
)
from noisebench.datasets import DatasetManifest, LabelRecord, Split
from noisebench.noise import (
    ProvenanceEntry,
    ProvenanceLog,
    corrupt_noisy_train,
    format_noise_report,
)
from noisebench.errors import ConfigError, DataError


@pytest.fixture(scope="module")
def noisy_inputs():
    clips, manifest, pool = gen_synthetic_dataset(
        n_classes=4, clips_per_class=10, clean_fraction=0.2, sample_rate=4000, seed=3
    )
    pairs = [
        (c, r)
        for c, r in zip(clips, manifest.records)
        if r.split is Split.TRAIN and r.origin is Origin.NOISY
    ]
    return [c for c, _ in pairs], [r for _, r in pairs], pool


class TestInjectNoise:
    def test_all_zero_spec_is_identity(self, noisy_inputs):
        clips, records, pool = noisy_inputs
        out_clips, out_records, log = inject_noise(clips, records, NoiseSpec(), pool, 4)
        assert out_records == records
        for a, b in zip(out_clips, clips):
            np.testing.assert_array_equal(a.samples, b.samples)
        assert all(e.noise_type is NoiseType.CORRECT for e in log.entries.values())
        assert all(
            e.original_label == r.class_index
            for e, r in zip(log.entries.values(), records)
        )

    def test_deterministic(self, noisy_inputs):
        clips, records, pool = noisy_inputs
        spec = NoiseSpec(0.2, 0.2, 0.2, 0.2, 0.1, seed=5)
        a = inject_noise(clips, records, spec, pool, 4)
        b = inject_noise(clips, records, spec, pool, 4)
        assert a[1] == b[1]
        assert a[2].entries == b[2].entries
        for clip_a, clip_b in zip(a[0], b[0]):
            np.testing.assert_array_equal(clip_a.samples, clip_b.samples)

    def test_provenance_covers_every_record(self, noisy_inputs):
        clips, records, pool = noisy_inputs
        spec = NoiseSpec(0.3, 0.1, 0.2, 0.1, 0.1, seed=1)
        _, _, log = inject_noise(clips, records, spec, pool, 4)
        assert set(log.entries) == {r.clip_id for r in records}

    def test_incorrect_iv_never_keeps_the_label(self, noisy_inputs):
        clips, records, pool = noisy_inputs
        spec = NoiseSpec(p_incorrect_iv=1.0, seed=9)
        _, out_records, log = inject_noise(clips, records, spec, pool, 4)
        for rec, out in zip(records, out_records):
            entry = log.entries[rec.clip_id]
            assert entry.noise_type is NoiseType.INCORRECT_IV
            assert out.class_index != rec.class_index
            assert 0 <= out.class_index < 4
            assert entry.original_label == rec.class_index

    @pytest.mark.parametrize("noise", ["p_incorrect_iv", "p_incomplete_iv"])
    def test_one_class_has_no_other_label_to_draw(self, noisy_inputs, noise):
        clips, records, pool = noisy_inputs
        one_class = [replace(r, class_index=0) for r in records]
        spec = NoiseSpec(**{noise: 1.0}, seed=9)
        with pytest.raises(DataError, match=rf"record {records[0].clip_id!r}: no "):
            inject_noise(clips, one_class, spec, pool, 1)

    def test_mixing_keeps_duration_and_stays_in_range(self, noisy_inputs):
        clips, records, pool = noisy_inputs
        spec = NoiseSpec(p_incomplete_oov=1.0, seed=2)
        out_clips, out_records, log = inject_noise(clips, records, spec, pool, 4)
        for clip, out, rec in zip(clips, out_clips, out_records):
            assert out.samples.size == clip.samples.size
            assert np.abs(out.samples).max() <= 0.9 + 1e-6
            assert rec.class_index == log.entries[rec.clip_id].original_label
            assert log.entries[rec.clip_id].source_clip_ids[0].startswith("distractor")

    def test_incorrect_oov_replaces_waveform_and_hides_truth(self, noisy_inputs):
        clips, records, pool = noisy_inputs
        spec = NoiseSpec(p_incorrect_oov=1.0, seed=4)
        out_clips, out_records, log = inject_noise(clips, records, spec, pool, 4)
        pool_by_id = {c.clip_id: c for c in pool}
        for clip, out, rec in zip(clips, out_clips, out_records):
            entry = log.entries[rec.clip_id]
            assert entry.original_label is None
            assert out.clip_id == clip.clip_id  # identity kept, content replaced
            source = pool_by_id[entry.source_clip_ids[0]]
            np.testing.assert_array_equal(out.samples, source.samples)

    def test_density_clips_contain_a_target_free_patch(self, noisy_inputs):
        clips, records, pool = noisy_inputs
        spec = NoiseSpec(p_density=1.0, seed=6)
        out_clips, _, log = inject_noise(clips, records, spec, pool, 4, patch_seconds=2.0)
        cfg = FeatureConfig(sample_rate=4000, fft_size=256, hop=128, n_mels=24)
        originals = {c.clip_id: c for c in clips}
        for out in out_clips:
            entry = log.entries[out.clip_id]
            assert entry.noise_type is NoiseType.DENSITY
            appended = out.duration - originals[out.clip_id].duration
            assert appended >= 2.0 * cfg.patch_seconds
            # Some whole patch must start after the original content ends and
            # finish (including its analysis windows) inside appended audio.
            patches = patchify(extract_logmel(out, cfg), cfg)
            original_end = originals[out.clip_id].samples.size
            found = False
            for patch_index in range(len(patches)):
                start = patch_index * cfg.patch_frames * cfg.hop
                end = (
                    (patch_index + 1) * cfg.patch_frames - 1
                ) * cfg.hop + cfg.fft_size
                if start >= original_end and end <= out.samples.size:
                    found = True
            assert found, out.clip_id

    def test_clean_record_rejected(self, noisy_inputs):
        clips, records, pool = noisy_inputs
        clean = LabelRecord("clean.wav", 0, Origin.CLEAN, Split.TRAIN)
        clean_clip = type(clips[0])(clips[0].samples, clips[0].sample_rate, "clean.wav")
        with pytest.raises(ValueError, match="clean"):
            inject_noise([clean_clip], [clean], NoiseSpec(), pool, 4)

    def test_empty_pool_rejected_when_needed(self, noisy_inputs):
        clips, records, _ = noisy_inputs
        with pytest.raises(DataError, match="pool"):
            inject_noise(clips, records, NoiseSpec(p_incorrect_oov=0.5, seed=0), [], 4)
        # no pool requirement without OOV or density noise
        inject_noise(clips, records, NoiseSpec(p_incorrect_iv=0.5, seed=0), [], 4)

    def test_probabilities_validated(self):
        with pytest.raises(ConfigError, match="sum"):
            NoiseSpec(0.5, 0.5, 0.5, 0.0, 0.0)
        with pytest.raises(ConfigError):
            NoiseSpec(p_density=-0.1)


class TestCorruptNoisyTrain:
    def test_merges_corrupted_records_back_in_manifest_order(self):
        clips, manifest, pool = gen_synthetic_dataset(
            n_classes=3, clips_per_class=8, clean_fraction=0.25, sample_rate=4000, seed=5
        )
        spec = NoiseSpec(p_incorrect_iv=0.3, p_incorrect_oov=0.3, seed=7)
        new_clips, new_manifest, log = corrupt_noisy_train(clips, manifest, spec, pool)
        noisy = [i for i, r in enumerate(manifest.records)
                 if r.split is Split.TRAIN and r.origin is Origin.NOISY]
        out_clips, out_records, ref_log = inject_noise(
            [clips[i] for i in noisy], [manifest.records[i] for i in noisy], spec, pool, 3
        )
        assert log.entries == ref_log.entries
        assert [r.clip_id for r in new_manifest.records] == [r.clip_id for r in manifest.records]
        assert new_manifest.class_names == manifest.class_names
        assert new_manifest.audio_root == manifest.audio_root
        for j, i in enumerate(noisy):
            assert new_manifest.records[i] == out_records[j]
            assert np.array_equal(new_clips[i].samples, out_clips[j].samples)
        for i in set(range(len(clips))) - set(noisy):
            assert new_clips[i] is clips[i]
            assert new_manifest.records[i] == manifest.records[i]
        # Label flips keep the clip object; only changed audio is new.
        for i in noisy:
            changed = log.entries[clips[i].clip_id].noise_type is NoiseType.INCORRECT_OOV
            assert (new_clips[i] is not clips[i]) == changed

    def test_no_noisy_train_record_returns_the_inputs(self):
        all_clips, full, pool = gen_synthetic_dataset(
            n_classes=2, clips_per_class=4, clean_fraction=0.5, sample_rate=4000, seed=1
        )
        keep = [i for i, r in enumerate(full.records) if r.origin is Origin.CLEAN]
        clips = [all_clips[i] for i in keep]
        manifest = DatasetManifest([full.records[i] for i in keep], full.class_names)
        out = corrupt_noisy_train(clips, manifest, NoiseSpec(p_incorrect_iv=1.0), pool)
        assert out[0] is clips and out[1] is manifest and out[2] is None


class TestNoiseReport:
    def test_simple_counting(self):
        log = ProvenanceLog()
        for i in range(6):
            log.entries[f"a{i}"] = ProvenanceEntry(NoiseType.CORRECT, 0)
        for i in range(4):
            log.entries[f"b{i}"] = ProvenanceEntry(NoiseType.INCORRECT_IV, 1)
        report = noise_report(log)
        assert report[NoiseType.CORRECT] == (6, 0.6)
        assert report[NoiseType.INCORRECT_IV] == (4, 0.4)
        assert sum(frac for _, frac in report.values()) == pytest.approx(1.0)

    def test_identity_injection_reports_all_correct(self, noisy_inputs):
        clips, records, pool = noisy_inputs
        _, _, log = inject_noise(clips, records, NoiseSpec(), pool, 4)
        report = noise_report(log)
        assert report[NoiseType.CORRECT][1] == 1.0

    def test_empty_log_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            noise_report(ProvenanceLog())

    def test_format_mentions_overall_share(self):
        log = ProvenanceLog()
        log.entries["a"] = ProvenanceEntry(NoiseType.CORRECT, 0)
        log.entries["b"] = ProvenanceEntry(NoiseType.DENSITY, 1, ("d",))
        text = format_noise_report(noise_report(log))
        assert "50.0%" in text and "density" in text


class TestProvenanceCsv:
    def test_roundtrip(self, tmp_path, noisy_inputs):
        clips, records, pool = noisy_inputs
        spec = NoiseSpec(0.3, 0.2, 0.2, 0.1, 0.1, seed=8)
        _, _, log = inject_noise(clips, records, spec, pool, 4)
        log.write_csv(tmp_path / "prov.csv")
        loaded = ProvenanceLog.read_csv(tmp_path / "prov.csv")
        assert loaded.entries == log.entries

    @pytest.mark.parametrize("text,problem", [
        ("clip_id,noise_type,original_label\r\na,correct,0\r\n",
         "line 2 has no source_clip_ids column"),
        ("clip_id,noise_type,original_label,source_clip_ids\r\na,correct\r\n",
         "line 2 has no original_label column"),
        ("clip_id,noise_type,original_label,source_clip_ids\r\na,correct,0,\r\nb,bogus,1,\r\n",
         "line 3: 'bogus' is not a valid NoiseType"),
        ("clip_id,noise_type,original_label,source_clip_ids\r\na,correct,one,\r\n",
         "line 2: invalid literal for int()"),
    ])
    def test_a_bad_row_is_a_data_error_naming_file_and_line(self, tmp_path, text, problem):
        path = tmp_path / "prov.csv"
        path.write_text(text, encoding="utf-8", newline="")
        with pytest.raises(DataError) as exc:
            ProvenanceLog.read_csv(path)
        assert str(exc.value).startswith(f"{path}: {problem}")

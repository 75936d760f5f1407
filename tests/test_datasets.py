"""Manifest loading, subset selection, synthetic generation, WAV I/O."""

import wave

import numpy as np
import pytest

from noisebench import (
    AudioClip,
    Origin,
    Split,
    Subset,
    gen_synthetic_dataset,
    load_manifest,
    read_wav,
    select_subset,
    write_wav,
)
from noisebench.audio_io import wav_duration
from noisebench.datasets import DatasetManifest, LabelRecord, clip_durations, write_manifest
from noisebench.errors import DataError, ManifestError


def write_csv(path, rows, header="fname,label,manually_verified,split"):
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")


class TestLoadManifest:
    def test_basic_load(self, tmp_path):
        path = tmp_path / "m.csv"
        write_csv(path, [
            "a.wav,dog,1,train",
            "b.wav,cat,0,train",
            "c.wav,dog,0,train",
            "d.wav,cat,1,test",
        ])
        manifest = load_manifest(path, tmp_path)
        assert [r.clip_id for r in manifest.records] == ["a.wav", "b.wav", "c.wav", "d.wav"]
        assert manifest.class_names == ["cat", "dog"]
        assert manifest.records[0].origin is Origin.CLEAN
        assert manifest.records[1].origin is Origin.NOISY
        assert manifest.records[3].split is Split.TEST
        assert len(manifest.train_records()) == 3
        assert len(manifest.test_records()) == 1

    def test_header_only_gives_empty_manifest(self, tmp_path):
        path = tmp_path / "m.csv"
        write_csv(path, [])
        manifest = load_manifest(path, tmp_path)
        assert manifest.records == []
        assert manifest.class_names == []

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("fname,label,split\na.wav,dog,train\n", encoding="utf-8")
        with pytest.raises(ManifestError, match="manually_verified"):
            load_manifest(path, tmp_path)

    def test_duplicate_fname(self, tmp_path):
        path = tmp_path / "m.csv"
        write_csv(path, ["a.wav,dog,1,train", "b.wav,cat,1,train", "a.wav,dog,0,train"])
        with pytest.raises(ManifestError, match="duplicate"):
            load_manifest(path, tmp_path)

    @pytest.mark.parametrize("row,column", [
        ("a.wav,,1,train", "label"),
        (",dog,1,train", "fname"),
        (",dog,1,test", "fname"),
    ])
    def test_empty_fname_or_label_names_the_line(self, tmp_path, row, column):
        path = tmp_path / "m.csv"
        write_csv(path, ["b.wav,dog,1,train", row])
        with pytest.raises(ManifestError, match=rf"m\.csv:3: empty {column}"):
            load_manifest(path, tmp_path)

    # Without the check, ' dog' and 'dog ' load as classes apart from 'dog'.
    @pytest.mark.parametrize("row,column", [
        ("a.wav, dog,1,train", "label"),
        ("a.wav,dog ,0,train", "label"),
        ("a.wav,\tdog,1,test", "label"),
        (" a.wav,dog,1,train", "fname"),
        ("a.wav ,dog,1,test", "fname"),
    ])
    def test_surrounding_whitespace_names_the_line(self, tmp_path, row, column):
        path = tmp_path / "m.csv"
        write_csv(path, ["b.wav,dog,1,train", row])
        with pytest.raises(ManifestError,
                           match=rf"m\.csv:3: {column} .* has leading or trailing whitespace"):
            load_manifest(path, tmp_path)

    # Commands write each clip to audio_dir / fname, so such a name would
    # write outside their output directory.
    @pytest.mark.parametrize("fname", ["../x.wav", "a/../../x.wav", "a/..", "/tmp/x.wav"])
    def test_fname_outside_audio_root_names_the_line(self, tmp_path, fname):
        path = tmp_path / "m.csv"
        write_csv(path, ["b.wav,dog,1,train", f"{fname},dog,0,train"])
        with pytest.raises(ManifestError, match=rf"m\.csv:3: fname .* outside audio_root"):
            load_manifest(path, tmp_path)

    def test_fname_in_a_subdirectory_loads(self, tmp_path):
        path = tmp_path / "m.csv"
        write_csv(path, ["a/x.wav,dog,1,train", "b/x.wav,dog,0,train", "c..d.wav,dog,0,train"])
        assert [r.clip_id for r in load_manifest(path, tmp_path).records] == [
            "a/x.wav", "b/x.wav", "c..d.wav"]

    def test_label_only_in_test_rows(self, tmp_path):
        path = tmp_path / "m.csv"
        write_csv(path, ["a.wav,dog,1,train", "z.wav,zebra,1,test"])
        with pytest.raises(ManifestError, match="zebra"):
            load_manifest(path, tmp_path)

    def test_unverified_test_row_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        write_csv(path, ["a.wav,dog,1,train", "b.wav,dog,0,test"])
        with pytest.raises(ManifestError, match="test"):
            load_manifest(path, tmp_path)

    def test_noisy_small_marker_column(self, tmp_path):
        path = tmp_path / "m.csv"
        write_csv(
            path,
            ["a.wav,dog,1,train,0", "b.wav,dog,0,train,1", "c.wav,dog,0,train,0"],
            header="fname,label,manually_verified,split,noisy_small",
        )
        manifest = load_manifest(path, tmp_path)
        assert [r.noisy_small for r in manifest.records] == [False, True, False]

    # Without the check, any value but '1' read as unmarked.
    @pytest.mark.parametrize("value", ["yes", "", "2", "true", " 1"])
    def test_noisy_small_must_be_0_or_1_naming_the_line(self, tmp_path, value):
        path = tmp_path / "m.csv"
        write_csv(path, ["a.wav,dog,1,train,0", f"b.wav,dog,0,train,{value}"],
                  header="fname,label,manually_verified,split,noisy_small")
        with pytest.raises(ManifestError,
                           match=rf"m\.csv:3: noisy_small must be 0 or 1, got '{value}'"):
            load_manifest(path, tmp_path)

    # Without the check, a verified row marked 1 trained as part of noisy_small.
    @pytest.mark.parametrize("row", ["a.wav,dog,1,train,1", "a.wav,dog,1,test,1"])
    def test_a_verified_row_in_noisy_small_names_the_line(self, tmp_path, row):
        path = tmp_path / "m.csv"
        write_csv(path, ["b.wav,dog,0,train,1", row],
                  header="fname,label,manually_verified,split,noisy_small")
        with pytest.raises(ManifestError, match=r"m\.csv:3: noisy_small marks 'a\.wav', "
                                                r"which is manually verified"):
            load_manifest(path, tmp_path)

    def test_a_manifest_with_a_byte_order_mark_loads(self, tmp_path):
        # Excel's "CSV UTF-8" format starts the file with one.
        rows = ["a.wav,dog,1,train", "b.wav,cat,0,train", "c.wav,dog,1,test"]
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        write_csv(plain, rows)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert load_manifest(marked, tmp_path) == load_manifest(plain, tmp_path)


def make_manifest(n_clean=10, n_noisy=90, n_test=0):
    records = []
    for i in range(n_clean):
        records.append(LabelRecord(f"c{i}.wav", i % 2, Origin.CLEAN, Split.TRAIN))
    for i in range(n_noisy):
        records.append(LabelRecord(f"n{i}.wav", i % 2, Origin.NOISY, Split.TRAIN))
    for i in range(n_test):
        records.append(LabelRecord(f"t{i}.wav", i % 2, Origin.CLEAN, Split.TEST))
    return DatasetManifest(records, ["alpha", "beta"])


class TestSelectSubset:
    def test_clean_filter(self):
        subset = select_subset(make_manifest(), Subset.CLEAN)
        assert len(subset.records) == 10
        assert all(r.origin is Origin.CLEAN for r in subset.records)

    def test_all_is_identity_on_train_records(self):
        manifest = make_manifest()
        subset = select_subset(manifest, Subset.ALL)
        assert subset.records == manifest.records

    def test_counts_add_up(self):
        manifest = make_manifest(n_clean=7, n_noisy=13, n_test=4)
        n_all = len(select_subset(manifest, Subset.ALL).records)
        n_clean = len(select_subset(manifest, Subset.CLEAN).records)
        n_noisy = len(select_subset(manifest, Subset.NOISY).records)
        assert n_all == n_clean + n_noisy == 20

    def test_idempotence(self):
        manifest = make_manifest(n_clean=6, n_noisy=20)
        durations = {r.clip_id: 5.0 for r in manifest.records}
        for subset in Subset:
            once = select_subset(manifest, subset, durations=durations)
            twice = select_subset(once, subset, durations=durations)
            assert once.records == twice.records, subset

    def test_noisy_small_duration_matching(self):
        # Per class: clean duration 60 s, noisy clips of 10 s each, so the
        # closest prefix is 6 clips. Brute-force recount confirms.
        records = []
        for k in range(2):
            records.append(LabelRecord(f"clean{k}.wav", k, Origin.CLEAN, Split.TRAIN))
            for i in range(15):
                records.append(LabelRecord(f"noisy{k}_{i}.wav", k, Origin.NOISY, Split.TRAIN))
        manifest = DatasetManifest(records, ["a", "b"])
        durations = {r.clip_id: (60.0 if r.origin is Origin.CLEAN else 10.0)
                     for r in records}
        subset = select_subset(manifest, Subset.NOISY_SMALL, durations=durations)
        for k in range(2):
            per_class = [r for r in subset.records if r.class_index == k]
            best = min(range(16), key=lambda n: abs(10.0 * n - 60.0))
            assert len(per_class) == best == 6

    def test_marker_column_wins(self):
        records = [
            LabelRecord("a.wav", 0, Origin.CLEAN, Split.TRAIN),
            LabelRecord("b.wav", 0, Origin.NOISY, Split.TRAIN, noisy_small=True),
            LabelRecord("c.wav", 0, Origin.NOISY, Split.TRAIN),
        ]
        manifest = DatasetManifest(records, ["a"])
        subset = select_subset(manifest, Subset.NOISY_SMALL)
        assert [r.clip_id for r in subset.records] == ["b.wav"]

    def test_empty_subset_is_an_error(self):
        manifest = make_manifest(n_clean=0, n_noisy=5)
        with pytest.raises(DataError, match="empty"):
            select_subset(manifest, Subset.CLEAN)


class TestGenSynthetic:
    def test_deterministic(self):
        a = gen_synthetic_dataset(4, 8, 0.15, 8000, seed=7)
        b = gen_synthetic_dataset(4, 8, 0.15, 8000, seed=7)
        assert a[1].records == b[1].records
        for clip_a, clip_b in zip(a[0], b[0]):
            np.testing.assert_array_equal(clip_a.samples, clip_b.samples)
        for clip_a, clip_b in zip(a[2], b[2]):
            np.testing.assert_array_equal(clip_a.samples, clip_b.samples)

    def test_clean_count_per_class(self):
        _, manifest, _ = gen_synthetic_dataset(4, 50, 0.15, 4000, seed=1)
        for k in range(4):
            clean = [
                r for r in manifest.train_records()
                if r.class_index == k and r.origin is Origin.CLEAN
            ]
            assert len(clean) == 8  # round(0.15 * 50)

    def test_shapes_and_invariants(self, toy_dataset):
        clips, manifest, pool = toy_dataset
        assert len(clips) == len(manifest.records)
        ids = {c.clip_id for c in clips}
        assert len(ids) == len(clips)
        assert ids.isdisjoint({c.clip_id for c in pool})
        for clip in clips + pool:
            assert 0.5 <= clip.duration <= 6.0
            assert np.abs(clip.samples).max() <= 1.0
        for rec in manifest.test_records():
            assert rec.origin is Origin.CLEAN

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            gen_synthetic_dataset(1, 8, 0.15, 8000, seed=0)
        with pytest.raises(ValueError):
            gen_synthetic_dataset(4, 8, 0.0, 8000, seed=0)
        # No test split: the manifest would fail much later, in training.
        with pytest.raises(ValueError, match="test_per_class"):
            gen_synthetic_dataset(2, 8, 0.5, 8000, seed=0, test_per_class=0)


class TestWavIO:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        clip = AudioClip(rng.uniform(-0.8, 0.8, 2000).astype(np.float32), 8000, "x.wav")
        write_wav(tmp_path / "x.wav", clip)
        loaded = read_wav(tmp_path / "x.wav")
        assert loaded.sample_rate == 8000
        assert np.abs(loaded.samples - clip.samples).max() <= 1.0 / 32768

    def test_samples_are_pcm_over_32768_in_float32(self, tmp_path):
        pcm = np.array([-32768, -32767, -1, 0, 1, 12345, 32767], dtype="<i2")
        path = tmp_path / "pcm.wav"
        with wave.open(str(path), "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(2)
            fh.setframerate(8000)
            fh.writeframes(pcm.tobytes())
        samples = read_wav(path).samples
        assert samples.dtype == np.float32
        assert np.array_equal(samples, (pcm / 32768).astype(np.float32))

    def test_rejects_stereo(self, tmp_path):
        path = tmp_path / "stereo.wav"
        with wave.open(str(path), "wb") as fh:
            fh.setnchannels(2)
            fh.setsampwidth(2)
            fh.setframerate(8000)
            fh.writeframes(b"\x00\x00" * 200)
        with pytest.raises(DataError, match="mono"):
            read_wav(path)

    def test_rejects_a_zero_sample_rate(self, tmp_path):
        path = tmp_path / "zero.wav"
        write_wav(path, AudioClip(np.zeros(100, dtype=np.float32), 8000))
        header = bytearray(path.read_bytes())
        header[24:32] = bytes(8)  # the sample rate and byte rate fields
        path.write_bytes(bytes(header))
        for read in (read_wav, wav_duration):
            with pytest.raises(DataError, match="zero.wav: sample rate 0 is not positive"):
                read(path)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"definitely not RIFF data")
        with pytest.raises(DataError):
            read_wav(path)


class TestManifestRoundtrip:
    def test_write_then_load(self, tmp_path, toy_dataset):
        clips, manifest, _ = toy_dataset
        write_manifest(manifest, tmp_path / "m.csv")
        loaded = load_manifest(tmp_path / "m.csv", tmp_path)
        assert [r.clip_id for r in loaded.records] == [r.clip_id for r in manifest.records]
        assert [r.class_index for r in loaded.records] == [
            r.class_index for r in manifest.records
        ]
        assert loaded.class_names == manifest.class_names

    def test_clip_durations_helper(self, toy_dataset):
        clips, _, _ = toy_dataset
        durations = clip_durations(clips)
        assert durations[clips[0].clip_id] == pytest.approx(clips[0].duration)

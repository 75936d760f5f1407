"""End-to-end CLI behavior on a miniature synthetic dataset."""

import inspect
import json
import os
import struct
import subprocess
import sys
import wave
from pathlib import Path

import numpy as np
import pytest

from noisebench import cli
from noisebench.audio_io import AudioClip, read_wav, write_wav
from noisebench.cli import main
from noisebench.config import experiment_cells, load_config, parse_config
from noisebench.datasets import Origin, Split, Subset, gen_synthetic_dataset
from noisebench.errors import ConfigError
from noisebench.features import (FeatureConfig, extract_logmel, feature_cache_path,
                                 load_feature_cache)
from noisebench.losses import LossConfig, LossFamily


def base_config(tmp_path, **overrides):
    cfg = {
        "dataset": {
            "synthetic": {
                "n_classes": 2,
                "clips_per_class": 6,
                "clean_fraction": 0.34,
                "sample_rate": 2000,
                "seed": 3,
            }
        },
        "features": {
            "sample_rate": 2000,
            "fft_size": 128,
            "hop": 64,
            "n_mels": 16,
        },
        "train": {
            "batch_size": 16,
            "initial_lr": 0.002,
            "max_epochs": 2,
            "seed": 5,
            "n_runs": 2,
            "subsets": ["all"],
            "losses": [{"family": "cce"}],
            "channels": [2, 3, 4],
        },
        "output_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path, cfg


class TestParsing:
    def test_unknown_key_rejected_before_compute(self, tmp_path):
        path, cfg = base_config(tmp_path)
        cfg["definitely_not_a_key"] = 1
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["run", "--config", str(path)]) == 1

    def test_dataset_needs_exactly_one_source(self, tmp_path):
        path, cfg = base_config(tmp_path)
        cfg["dataset"]["manifest"] = "m.csv"
        cfg["dataset"]["audio_root"] = "."
        path.write_text(json.dumps(cfg), encoding="utf-8")
        with pytest.raises(ConfigError, match="exactly one"):
            load_config(path)

    def test_grid_matches_the_published_layout(self):
        # 4 subsets x 9 loss rows, robust losses skipped on the clean
        # subset: 4 + 3 * 8 = 28 cells.
        subsets = [Subset.ALL, Subset.NOISY, Subset.NOISY_SMALL, Subset.CLEAN]
        losses = [LossConfig()]
        for family, key, values in (
            ("soft", "beta", (0.3, 0.7)),
            ("lq", "q", (0.5, 0.7)),
            ("mask_max", "m", (0.5, 0.6)),
            ("mask_stat", "l", (1.9, 2.0)),
        ):
            for v in values:
                losses.append(LossConfig(family=family, **{key: v}))
        names = [name for name, _, _ in experiment_cells(subsets, losses)]
        labels = ["cce", "soft_b0.3", "soft_b0.7", "lq_q0.5", "lq_q0.7", "mask_max_m0.5",
                  "mask_max_m0.6", "mask_stat_l1.9", "mask_stat_l2"]
        assert names == [f"{subset}_{label}" for subset in ("all", "noisy", "noisy_small")
                         for label in labels] + ["clean_cce"]

    def test_batch_size_one_is_a_config_error(self, tmp_path, capsys):
        path, cfg = base_config(tmp_path)
        cfg["train"]["batch_size"] = 1
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["run", "--config", str(path)]) == 1
        assert "batch_size must be >= 2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["features", "run"])
    def test_jobs_below_one_is_a_config_error_for_each_command_with_jobs(self, tmp_path,
                                                                         capsys, command):
        path, _ = base_config(tmp_path)
        assert main([command, "--config", str(path), "--jobs", "0"]) == 1
        assert "--jobs must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_round_trip_of_defaults(self, tmp_path):
        path, _ = base_config(tmp_path)
        cfg = load_config(path)
        assert cfg.n_runs == 2
        assert cfg.losses == [LossConfig()]
        assert cfg.train.loss == LossConfig()  # its own default; each cell sets its loss
        assert cfg.features == FeatureConfig(sample_rate=2000, fft_size=128, hop=64, n_mels=16)

    @pytest.mark.parametrize("section,key", [
        ("train", "batch_size"), ("features", "n_mels"), ("train", "max_epochs"),
        ("train", "n_runs"),
    ])
    def test_integral_float_is_not_an_integer(self, tmp_path, capsys, section, key):
        # 16.0 used to pass as an integer and crash in range() or np.linspace
        # after feature extraction had started.
        path, cfg = base_config(tmp_path)
        cfg[section][key] = float(cfg[section][key])
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["run", "--config", str(path)]) == 1
        assert f"config invalid at {section}/{key}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("train,place", [
        ({"losses": [{"family": "lq"}, {"family": "lq"}]}, "train/losses/1"),
        ({"losses": [{"family": "cce"}, {"family": "lq"}, {"family": "lq", "q": 0.7}]},
         "train/losses/2"),
        ({"subsets": ["all", "noisy", "all"]}, "train/subsets/2"),
    ], ids=["lq twice", "lq with its default q", "subset twice"])
    def test_a_repeated_cell_is_a_config_error(self, tmp_path, capsys, train, place):
        # Two entries that train the same cell would write the same files.
        path, cfg = base_config(tmp_path)
        cfg["train"].update(train)
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["run", "--config", str(path)]) == 1
        assert f"config invalid at {place}: repeats the cell all_" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_parameters_that_print_alike_are_two_cells(self, tmp_path):
        # q 0.7000001 prints as 0.7 under :g; its cell must not be q 0.7's.
        path, cfg = base_config(tmp_path)
        cfg["train"]["losses"] = [{"family": "lq", "q": 0.7}, {"family": "lq", "q": 0.7000001}]
        path.write_text(json.dumps(cfg), encoding="utf-8")
        loaded = load_config(path)
        names = [name for name, _, _ in experiment_cells(loaded.subsets, loaded.losses)]
        assert names == ["all_lq_q0.7", "all_lq_q0.7000001"]

    def test_a_grid_without_a_cell_is_a_config_error(self, tmp_path, capsys):
        path, cfg = base_config(tmp_path)
        cfg["train"].update(subsets=["clean"], losses=[{"family": "lq"}])
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["run", "--config", str(path)]) == 1
        assert "config invalid at train: no cell to run" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["features", "run"])
    def test_an_empty_mel_filter_is_a_config_error_at_load(self, tmp_path, capsys,
                                                           monkeypatch, command):
        # 60 filters over 33 bins at 4 kHz leave some filter without a bin:
        # an error before any data is generated, naming the section.
        path, cfg = base_config(tmp_path)
        cfg["features"].update(sample_rate=4000, fft_size=64, hop=32, n_mels=60)
        path.write_text(json.dumps(cfg), encoding="utf-8")
        calls = []
        monkeypatch.setattr(cli, "gen_synthetic_dataset", lambda **kw: calls.append(kw))
        assert main([command, "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "config invalid at features: mel filter " in err
        assert "has empty support" in err
        assert calls == [] and not (tmp_path / "out").exists()

    def test_a_config_with_a_byte_order_mark_loads(self, tmp_path):
        # Windows editors may save UTF-8 with a byte-order mark.
        path, cfg = base_config(tmp_path)
        marked = tmp_path / "marked.json"
        marked.write_text(json.dumps(cfg), encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        assert load_config(marked) == load_config(path)

    def test_output_dir_is_relative_to_the_config_file(self, tmp_path, monkeypatch):
        _, cfg = base_config(tmp_path)
        cfg["output_dir"] = "results"
        path = tmp_path / "configs" / "exp.json"
        path.parent.mkdir()
        path.write_text(json.dumps(cfg), encoding="utf-8")
        cwd = tmp_path / "elsewhere"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        assert main(["synth-data", "--config", str(path)]) == 0
        assert (path.parent / "results" / "manifest.csv").exists()
        assert not (cwd / "results").exists()
        # --output names a directory from the command line: relative to the caller.
        assert main(["synth-data", "--config", str(path), "--output", "flagged"]) == 0
        assert (cwd / "flagged" / "manifest.csv").exists()

    def test_manifest_paths_are_relative_to_the_config_file(self, tmp_path, monkeypatch,
                                                           capsys):
        synth_path, cfg = base_config(tmp_path)
        assert main(["synth-data", "--config", str(synth_path)]) == 0
        here = tmp_path / "configs"
        (tmp_path / "out").rename(here)  # audio/ and manifest.csv beside the config
        cfg["dataset"] = {"manifest": "manifest.csv", "audio_root": "audio"}
        cfg["features"]["cache_dir"] = "cache"
        cfg["output_dir"] = "results"
        path = here / "exp.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        cwd = tmp_path / "elsewhere"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        n_clips = len(list((here / "audio").glob("*.wav")))
        assert main(["features", "--config", str(path)]) == 0
        assert f"{n_clips} computed" in capsys.readouterr().out
        assert len(list((here / "cache").glob("*.lmf"))) == n_clips
        assert main(["run", "--config", str(path)]) == 0
        assert (here / "results" / "report_all_cce.csv").exists()
        assert len(list((here / "cache").glob("*.lmf"))) == n_clips  # run read cache/
        assert not (here / "results" / "features").exists()
        assert list(cwd.iterdir()) == []

    def test_negative_seed_flag_is_a_config_error(self, tmp_path, capsys):
        path, _ = base_config(tmp_path)
        assert main(["run", "--config", str(path), "--seed", "-1"]) == 1
        assert "--seed: seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["features", "run"])
    def test_too_many_pooling_stages_is_a_config_error_at_load(self, tmp_path, capsys,
                                                               monkeypatch, command):
        # 16 mels pooled 5 times leave no row: an error before any data is
        # generated or cached, naming the key.
        path, cfg = base_config(tmp_path)
        cfg["train"]["channels"] = [2, 3, 4, 5, 6]
        path.write_text(json.dumps(cfg), encoding="utf-8")
        calls = []
        monkeypatch.setattr(cli, "gen_synthetic_dataset", lambda **kw: calls.append(kw))
        assert main([command, "--config", str(path)]) == 1
        assert ("config invalid at train/channels: input 16x62 too small for 5 pooling "
                "stages of size 2") in capsys.readouterr().err
        assert calls == [] and not (tmp_path / "out").exists()

    def test_importing_noisebench_loads_numpy_alone_beyond_the_standard_library(self):
        # The runtime needs numpy only. scipy.stats alone cost about 70 MB of
        # RSS and over a second of start-up in every process that imported
        # noisebench; jsonschema loaded some 60 more modules into the CLI.
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = ("import sys\n"
                "def top(): return {m.partition('.')[0] for m in sys.modules}\n"
                "before = top()\n"
                "import noisebench, noisebench.cli\n"
                "print(*sorted(top() - before - set(sys.stdlib_module_names)))")
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True, timeout=120)
        assert set(done.stdout.split()) <= {"noisebench", "numpy", "__mp_main__"}


DROP = object()  # a mutation value that deletes the key

# Every key of the config document: its path, its JSON kind, values just
# inside its range and values just outside it. Against the base document
# above: sample_rate 2000, fft_size 128, hop 64, 16 mels and three pooling
# stages, which need 8 x 8 patches; with the changes _BASES lists for the
# key, if any.
_FIELDS = [
    (("dataset", "manifest"), "string", [], ["m.csv"]),  # synthetic is already there
    (("dataset", "audio_root"), "string", ["audio"], []),
    (("dataset", "synthetic", "n_classes"), "integer", [2], [1]),
    (("dataset", "synthetic", "clips_per_class"), "integer", [2], [1]),
    (("dataset", "synthetic", "clean_fraction"), "number", [0.01, 0.99], [0, 1]),
    (("dataset", "synthetic", "sample_rate"), "integer", [1], [0]),
    (("dataset", "synthetic", "seed"), "integer", [0], [-1]),
    (("dataset", "synthetic", "test_per_class"), "integer", [1], [0]),
    (("dataset", "synthetic", "snr_db"), "number", [-2.0, 0, 40], []),
    (("features", "sample_rate"), "integer", [240], [0, 1, 16]),  # 240 Hz: the 8 frames needed; 16: none
    (("features", "fft_size"), "integer", [64, 129], [63]),
    (("features", "hop"), "integer", [1, 128], [0, 129]),
    (("features", "n_mels"), "integer", [8], [0]),
    (("features", "patch_seconds"), "number", [0.24], [0, 0.01]),
    (("features", "cache_dir"), "string", ["cache"], []),
    *[(("noise", key), "number", [0, 1], [-0.01, 1.01])
      for key in ("p_incorrect_oov", "p_incomplete_oov", "p_incorrect_iv",
                  "p_incomplete_iv", "p_density")],
    (("noise", "seed"), "integer", [0], [-1]),
    (("train", "batch_size"), "integer", [2], [1]),
    (("train", "initial_lr"), "number", [1e-9], [0, -0.1]),
    (("train", "plateau_window"), "integer", [1], [0]),
    (("train", "patience"), "integer", [1], [0]),
    (("train", "val_fraction"), "number", [0.01, 0.99], [0, 1]),
    (("train", "max_epochs"), "integer", [1], [0]),
    (("train", "seed"), "integer", [0], [-1]),
    (("train", "n_runs"), "integer", [2], [1]),
    (("train", "subsets"), "array", [["clean", "noisy", "noisy_small", "all"]],
     [[], ["everything"], ["all", 1]]),
    (("train", "losses"), "array", [], [[], ["cce"]]),
    (("train", "channels"), "array", [[1, 1, 1]], [[], [0, 1, 1], [1, "2", 3], [1, True, 3]]),
    (("train", "kernel_size"), "integer", [1], [0, 2]),
    (("train", "losses", 0, "family"), "enum",
     ["cce", "soft", "lq", "mask_max", "mask_stat"], ["huber"]),
    (("train", "losses", 0, "beta"), "number", [0, 1], [-0.01, 1.01]),
    (("train", "losses", 0, "q"), "number", [1e-9, 1], [0, -0.1, 1.01]),
    (("train", "losses", 0, "m"), "number", [0, 1], [-0.01, 1.01]),
    (("train", "losses", 0, "l"), "number", [0, 100], [-0.01]),
    (("train", "losses", 0, "selective"), "boolean", [True, False], []),
    (("output_dir",), "string", ["results"], []),
]

# The keys that name a path, which parses relative to the config file.
_PATH_KEYS = [("dataset", "manifest"), ("dataset", "audio_root"), ("features", "cache_dir"),
              ("output_dir",)]

# A key that only some documents hold is varied in one of them: audio_root
# beside a manifest, each loss parameter and selective on a family that
# reads it.
_MANIFEST = {("dataset", "synthetic"): DROP, ("dataset", "manifest"): "m.csv"}
_BASES = {
    ("dataset", "audio_root"): _MANIFEST,
    **{("train", "losses", 0, key): {("train", "losses", 0, "family"): family}
       for key, family in [("beta", "soft"), ("q", "lq"), ("m", "mask_max"),
                           ("l", "mask_stat"), ("selective", "mask_stat")]},
}

# One value of every JSON kind but the field's own: string, bool, list, null;
# and the numbers Python's json reads that are not finite.
_WRONG_KIND = {
    "integer": ["3", True, [3], None, 2.5],
    "number": ["0.5", False, [0.5], None, float("nan"), float("inf"), float("-inf")],
    "string": [3, True, ["x"], None],
    "enum": [3, True, ["hann"], None],
    "boolean": ["true", 1, [True], None],
    "array": ["all", True, {"0": 1}, None],
}

_SECTIONS = [("dataset",), ("dataset", "synthetic"), ("features",), ("noise",), ("train",),
             ("train", "losses", 0)]


def _corpus():
    """(id, changes, place, key): ``changes`` maps key paths to new values;
    ``place`` is the section a rejection must name (None: the document is
    valid) and ``key`` the key its message must name, if any."""
    cases = []

    def add(changes, place, key=None, name=None):
        (first, value), = changes.items() if name is None else [(None, None)]
        cases.append(pytest.param(changes, place, key,
                                  id=name or f"{'/'.join(map(str, first))}={json.dumps(value)}"))

    for keys, kind, inside, outside in _FIELDS:
        place = "/".join(map(str, keys[:-1])) or "(root)"
        base = _BASES.get(keys, {})

        def add_field(value, place, key=None):
            add({**base, keys: value}, place, key,
                name=f"{'/'.join(map(str, keys))}={json.dumps(value)}")

        for value in inside:
            add_field(value, None)
        for value in outside:
            add_field(value, place, keys[-1])
        for value in _WRONG_KIND[kind]:
            add_field(value, "/".join(map(str, keys)), keys[-1])
    for keys in _SECTIONS:
        place = "/".join(map(str, keys))
        add({keys + ("bogus",): 1}, place, "bogus")
        for value in (3, "x", [], None):
            add({keys: value}, place, name=f"{place}={json.dumps(value)}")
    add({("bogus",): 1}, "(root)", "bogus")
    # Values inside a features range that leave the base network's three
    # pooling stages no room (it needs 8 x 8 patches): the features section
    # parses, and train/channels is rejected.
    for key, values in [("sample_rate", [17, 239]), ("n_mels", [1, 7]),
                        ("patch_seconds", [0.02, 0.23])]:
        for value in values:
            add({("features", key): value}, "train/channels", "too small for 3 pooling stages")
    # A removed key is unknown whatever its value, so a config written for
    # the constant-target soft bootstrap variant fails instead of training
    # the full gradient.
    for value in (False, "true", 1, [True], None):
        add({("train", "losses", 0, "soft_full_gradient"): value}, "train/losses/0",
            "soft_full_gradient")
    # The mel band edges and the log floor are fixed, so a config that still
    # sets them, even to the fixed values, fails instead of being ignored.
    for key in ("fmin", "fmax", "log_floor"):
        for value in (0, 50.0, 1000.0, 1e-10, "x", None):
            add({("features", key): value}, "features", key)
    for keys in [("dataset",), ("features",), ("train",), ("output_dir",),
                 *[("dataset", "synthetic", k) for k in
                   ("n_classes", "clips_per_class", "clean_fraction", "sample_rate", "seed")],
                 ("train", "subsets"), ("train", "losses"), ("train", "losses", 0, "family")]:
        place = "/".join(map(str, keys[:-1])) or "(root)"
        add({keys: DROP}, place, keys[-1], name=f"missing {'/'.join(map(str, keys))}")
    for changes, place, key, name in [
        # Two bins, at 0 Hz and sample_rate / 2, leave most of 16 filters empty.
        ({("features", "fft_size"): 2, ("features", "hop"): 2}, "features", "mel filter 0",
         "fft_size=2"),
        ({("features", "fft_size"): 3, ("features", "hop"): 3, ("features", "n_mels"): 1},
         "train/channels", "input 1x", "fft_size=3"),
        ({("features", "fft_size"): 1, ("features", "hop"): 1}, "features", "fft_size",
         "fft_size=1"),
        ({("noise", "p_incorrect_oov"): 0.6, ("noise", "p_incomplete_oov"): 0.4}, None, None,
         "noise sums to 1"),
        ({("noise", "p_incorrect_oov"): 0.6, ("noise", "p_incomplete_oov"): 0.5}, "noise",
         None, "noise sums past 1"),
        *[({("train", "losses", 0, "family"): family, ("train", "losses", 0, key): value},
           None if ok else "train/losses/0", None if ok else key, f"{family} {key}={value}")
          for family, key, values in [("soft", "beta", [(0, 1), (1, 1), (1.5, 0)]),
                                      ("lq", "q", [(1, 1), (0, 0), (-1, 0)]),
                                      ("mask_max", "m", [(0, 1), (1, 1), (2, 0)]),
                                      ("mask_stat", "l", [(0, 1), (-1, 0)])]
          for value, ok in values],
        ({("train", "losses"): [{"family": "cce"}, {"family": "lq", "q": 0.5}]}, None, None,
         "two losses"),
        ({("train", "losses"): [{"family": "cce"}, {"family": "lq", "q": 2}]},
         "train/losses/1", "q", "second loss q=2"),
        # Keys nothing reads: a window with one value, a WAV directory beside
        # generated audio, loss settings another family reads.
        ({("features", "window"): "hann"}, "features", "window", "features/window"),
        ({("dataset", "audio_root"): "audio"}, "dataset", "audio_root",
         "audio_root beside synthetic"),
        *[({("train", "losses", 0, "family"): family, ("train", "losses", 0, key): value},
           "train/losses/0", key, f"{family} {key}={json.dumps(value)}")
          for family, key, value in [("cce", "selective", True), ("cce", "selective", False),
                                     ("cce", "q", 0.7), ("lq", "beta", 0.5),
                                     ("soft", "q", 0.7), ("mask_max", "l", 1.9),
                                     ("mask_stat", "m", 0.5)]],
    ]:
        add(changes, place, key, name=name)
    return cases


def _mutated(tmp_path, changes):
    path, cfg = base_config(tmp_path)
    for keys, value in changes.items():
        *parents, last = keys
        node = cfg
        for k in parents:
            node = node.setdefault(k, {}) if isinstance(node, dict) else node[k]
        if value is DROP:
            del node[last]
        else:
            node[last] = value
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def _parsed(cfg, keys):
    """The value that ``keys`` of the document parsed into."""
    section, key = keys[0], keys[-1]
    if section == "dataset":
        node = cfg.dataset
        for k in keys[1:]:
            node = node[k]
        return node
    if keys[:3] == ("train", "losses", 0):
        value = getattr(cfg.losses[0], key)
    elif keys == ("features", "cache_dir"):
        value = cfg.cache_dir
    elif keys in (("train", "n_runs"), ("train", "subsets"), ("output_dir",)):
        value = getattr(cfg, key)
    else:
        value = getattr(getattr(cfg, section), key)
    if isinstance(value, (list, tuple)):
        return [getattr(v, "value", v) for v in value]
    return getattr(value, "value", value)


class TestRejectionParity:
    """Each document below that a JSON Schema version of the config
    rejected is rejected before any compute, naming where; every other one
    parses, with the changed values where they belong."""

    @pytest.mark.parametrize("changes,place,key", _corpus())
    def test_document(self, tmp_path, capsys, changes, place, key):
        path = _mutated(tmp_path, changes)
        if place is None:
            cfg = load_config(path)
            for keys, value in changes.items():
                if value is not DROP and keys[-1] != "losses":
                    expected = path.parent / value if keys in _PATH_KEYS else value
                    assert _parsed(cfg, keys) == expected
            return
        assert main(["run", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"config invalid at {place}" in err
        if key is not None:
            assert key in err
        assert not (tmp_path / "out").exists()

    def test_synthetic_keys_are_the_generator_parameters(self):
        fields = {keys[2] for keys, *_ in _FIELDS if keys[:2] == ("dataset", "synthetic")}
        assert fields == set(inspect.signature(gen_synthetic_dataset).parameters)

    def test_each_loss_entry_accepts_the_keys_its_family_reads(self, tmp_path):
        _, doc = base_config(tmp_path)
        values = {"beta": 0.5, "q": 0.5, "m": 0.5, "l": 0.5, "selective": False}
        accepted = {}
        for family in LossFamily:
            accepted[family.value] = {"family"}
            for key, value in values.items():
                doc["train"]["losses"] = [{"family": family.value, key: value}]
                try:
                    parse_config(doc, tmp_path)
                except ConfigError as exc:
                    assert f"the {family.value} family reads no key {key!r}" in str(exc)
                else:
                    accepted[family.value].add(key)
        assert accepted == {"cce": {"family"}, "soft": {"family", "beta", "selective"},
                            "lq": {"family", "q", "selective"},
                            "mask_max": {"family", "m", "selective"},
                            "mask_stat": {"family", "l", "selective"}}


class TestUnreadableFiles:
    """A file that cannot be opened or decoded is a config error if it is
    the config, else a data error naming the file; never a traceback."""

    def test_a_config_that_is_not_utf8_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(b'{"output_dir": "\xff"}')
        assert main(["run", "--config", str(path)]) == 1
        assert f"config error: {path}: unreadable config file (" in capsys.readouterr().err

    def test_a_config_that_is_a_directory_is_a_config_error(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path)]) == 1
        assert f"config error: {tmp_path}: unreadable config file (" in capsys.readouterr().err

    def test_a_manifest_that_is_not_utf8_is_a_data_error(self, tmp_path, capsys):
        path, cfg = base_config(tmp_path)
        manifest = tmp_path / "manifest.csv"
        manifest.write_bytes(b"fname,label,manually_verified,split\n\xff.wav,dog,1,train\n")
        cfg["dataset"] = {"manifest": str(manifest), "audio_root": str(tmp_path)}
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["features", "--config", str(path)]) == 2
        assert f"data error: {manifest}: unreadable manifest (" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["not-utf8", "directory"])
    def test_an_unreadable_report_is_a_data_error(self, tmp_path, capsys, kind):
        path, _ = base_config(tmp_path)
        out = tmp_path / "out"
        victim = out / "report_all_cce.csv"
        if kind == "directory":
            victim.mkdir(parents=True)
        else:
            out.mkdir()
            victim.write_bytes(b"kind,run,seed,accuracy\r\nrun,0,5,0.5\xff\r\n")
        assert main(["report", "--config", str(path)]) == 2
        assert f"data error: {victim}: unreadable report (" in capsys.readouterr().err
        assert not (out / "summary.csv").exists()


class TestHelp:
    @pytest.mark.parametrize(
        "command", ["synth-data", "features", "inject-noise", "run", "report"]
    )
    def test_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert "--config" in capsys.readouterr().out

    @pytest.mark.parametrize("command,flags", [
        ("synth-data", set()), ("features", {"--force", "--jobs"}), ("inject-noise", set()),
        ("run", {"--force", "--jobs", "--seed"}), ("report", set()),
    ])
    def test_each_command_lists_the_flags_it_reads(self, command, flags, capsys):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = capsys.readouterr().out
        assert {"--config", "--output"} <= set(text.split())
        assert {flag for flag in ("--force", "--jobs", "--seed") if flag in text} == flags


class TestUsageErrors:
    """A command line argparse rejects is a config error, exit code 1:
    argparse's own code 2 is the data-error code here."""

    @pytest.mark.parametrize("argv", [
        ["features"],
        ["features", "--config", "c.json", "--bogus"],
        ["features", "--config", "c.json", "--jobs", "two"],
        [],
        ["bogus"],
        ["synth-data", "--config", "c.json", "--seed", "7"],
        ["inject-noise", "--config", "c.json", "--force"],
        ["report", "--config", "c.json", "--jobs", "2"],
    ], ids=["missing-config", "unknown-flag", "bad-jobs", "no-command", "unknown-command",
            "synth-data-seed", "inject-noise-force", "report-jobs"])
    def test_exit_one_with_usage(self, argv, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert "usage: noisebench" in err


class TestSynthData:
    def test_writes_dataset(self, tmp_path, capsys):
        path, cfg = base_config(tmp_path)
        assert main(["synth-data", "--config", str(path)]) == 0
        out = tmp_path / "out"
        assert (out / "manifest.csv").exists()
        wavs = list((out / "audio").glob("*.wav"))
        assert len(wavs) == len(cfg_records(cfg))
        # No distractor WAVs: a manifest config could not read them back.
        assert sorted(p.name for p in out.iterdir()) == ["audio", "manifest.csv"]


def cfg_records(cfg):
    synth = cfg["dataset"]["synthetic"]
    per_class = synth["clips_per_class"] + max(2, round(0.2 * synth["clips_per_class"]))
    return range(synth["n_classes"] * per_class)


@pytest.fixture
def on_disk_dataset(tmp_path):
    """A synthetic dataset written to disk plus a config pointing at it."""
    synth_path, _ = base_config(tmp_path)
    assert main(["synth-data", "--config", str(synth_path)]) == 0
    out = tmp_path / "out"
    path, cfg = base_config(tmp_path)
    cfg["dataset"] = {
        "manifest": str(out / "manifest.csv"),
        "audio_root": str(out / "audio"),
    }
    cfg["features"]["cache_dir"] = str(tmp_path / "cache")
    path = tmp_path / "disk_config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path, cfg, out


def cache_file(cache_dir, wav, config_path):
    """The cache file of the clip read from ``wav`` under the features of
    the config at ``config_path``."""
    return feature_cache_path(cache_dir, read_wav(wav, wav.name),
                              load_config(config_path).features)


class TestFeatures:
    def test_idempotent_second_run(self, on_disk_dataset, capsys):
        path, cfg, _ = on_disk_dataset
        assert main(["features", "--config", str(path)]) == 0
        first = capsys.readouterr().out
        assert " 0 up to date" in first
        assert main(["features", "--config", str(path)]) == 0
        second = capsys.readouterr().out
        assert "0 computed" in second

    def test_wav_with_a_zero_sample_rate_is_reported(self, on_disk_dataset, capsys):
        path, cfg, out = on_disk_dataset
        wavs = sorted((out / "audio").glob("*.wav"))
        header = bytearray(wavs[2].read_bytes())
        header[24:32] = bytes(8)  # the sample rate and byte rate fields
        wavs[2].write_bytes(bytes(header))
        assert main(["features", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert f"{wavs[2].name}: sample rate 0 is not positive" in captured.err
        assert f"{len(wavs) - 1} computed, 0 up to date, 1 failed" in captured.out

    def test_corrupt_wav_is_reported_and_others_succeed(
        self, on_disk_dataset, capsys
    ):
        path, cfg, out = on_disk_dataset
        wavs = sorted((out / "audio").glob("*.wav"))
        victim = wavs[3]
        victim.write_bytes(b"garbage, not audio")
        assert main(["features", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert victim.name in captured.err
        cache_files = list((path.parent / "cache").glob("*.lmf"))
        assert len(cache_files) == len(wavs) - 1

    def test_job_count_does_not_change_outputs(self, on_disk_dataset, tmp_path):
        path, cfg, out = on_disk_dataset
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        for jobs, cache in (("1", serial_dir), ("3", parallel_dir)):
            cfg["features"]["cache_dir"] = str(cache)
            path.write_text(json.dumps(cfg), encoding="utf-8")
            assert main(["features", "--config", str(path), "--jobs", jobs]) == 0
        serial = sorted(serial_dir.glob("*.lmf"))
        assert serial
        for f in serial:
            assert f.read_bytes() == (parallel_dir / f.name).read_bytes()

    @staticmethod
    def _record_pool_sizes(monkeypatch, cpus=64):
        """Replace the worker pool with a serial stand-in that records the
        process count it was asked for, on a machine of ``cpus`` CPUs; no
        process is started."""
        monkeypatch.setattr("os.cpu_count", lambda: cpus)
        sizes = []

        class SerialPool:
            def __init__(self, processes=None):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return [fn(item) for item in items]

        monkeypatch.setattr(cli.multiprocessing, "Pool", SerialPool)
        return sizes

    def test_pool_has_no_more_workers_than_jobs(self, tmp_path, monkeypatch, capsys):
        path, cfg = base_config(tmp_path)
        cfg["features"]["cache_dir"] = str(tmp_path / "cache")
        path.write_text(json.dumps(cfg), encoding="utf-8")
        sizes = self._record_pool_sizes(monkeypatch)
        assert main(["features", "--config", str(path), "--jobs", "64"]) == 0
        cached = sorted((tmp_path / "cache").glob("*.lmf"))
        assert sizes == [len(cached)] and len(cached) == len(cfg_records(cfg))
        for victim in cached[:3]:
            victim.unlink()
        assert main(["features", "--config", str(path), "--jobs", "64"]) == 0
        assert sizes[1:] == [3]
        assert "3 computed" in capsys.readouterr().out

    # FSDnoisy18k has 18.5k clips: --jobs must not start a process per clip.
    @pytest.mark.parametrize("cpus,sizes", [(3, [3]), (1, []), (None, [])])
    def test_pool_has_no_more_workers_than_cpus(self, tmp_path, monkeypatch, cpus, sizes):
        path, cfg = base_config(tmp_path)
        cfg["features"]["cache_dir"] = str(tmp_path / "cache")
        path.write_text(json.dumps(cfg), encoding="utf-8")
        recorded = self._record_pool_sizes(monkeypatch, cpus)
        assert main(["features", "--config", str(path), "--jobs", "20000"]) == 0
        assert recorded == sizes
        assert len(list((tmp_path / "cache").glob("*.lmf"))) == len(cfg_records(cfg))

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_is_a_config_error(self, tmp_path, monkeypatch, capsys, jobs):
        path, cfg = base_config(tmp_path)
        cfg["features"]["cache_dir"] = str(tmp_path / "cache")
        path.write_text(json.dumps(cfg), encoding="utf-8")
        sizes = self._record_pool_sizes(monkeypatch)
        assert main(["features", "--config", str(path), "--jobs", jobs]) == 1
        assert "--jobs" in capsys.readouterr().err
        assert sizes == [] and not list(tmp_path.glob("cache/*.lmf"))

    def test_cache_frame_count_matches_hop_arithmetic(self, on_disk_dataset):
        path, cfg, out = on_disk_dataset
        assert main(["features", "--config", str(path)]) == 0
        wav = sorted((out / "audio").glob("*.wav"))[0]
        with wave.open(str(wav), "rb") as fh:
            n_samples = fh.getnframes()
        cached = load_feature_cache(cache_file(path.parent / "cache", wav, path))
        assert cached.n_frames == -(-n_samples // cfg["features"]["hop"])

    def test_truncated_cache_file_is_a_data_error(self, tmp_path, capsys):
        path, cfg = base_config(tmp_path)
        cfg["features"]["cache_dir"] = str(tmp_path / "cache")
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["features", "--config", str(path)]) == 0
        victim = sorted((tmp_path / "cache").glob("*.lmf"))[2]
        victim.write_bytes(victim.read_bytes()[:-4])
        assert main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert victim.name in err and "truncated" in err
        victim.write_bytes(victim.read_bytes()[:5])  # inside the header
        assert main(["run", "--config", str(path)]) == 2

    @pytest.mark.parametrize("n_frames", [(1 << 31) - 1, -5, 0],
                             ids=["huge", "negative", "empty"])
    def test_corrupt_cache_header_is_a_data_error(self, tmp_path, capsys, n_frames):
        # n_mels and the frame rate match the config, so run reads the body.
        path, cfg = base_config(tmp_path)
        cfg["features"]["cache_dir"] = str(tmp_path / "cache")
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["features", "--config", str(path)]) == 0
        victim = sorted((tmp_path / "cache").glob("*.lmf"))[1]
        data = victim.read_bytes()
        victim.write_bytes(data[:4] + struct.pack("<i", n_frames) + data[8:])
        capsys.readouterr()
        assert main(["run", "--config", str(path)]) == 2
        assert victim.stem.split("-")[0] in capsys.readouterr().err  # the clip id's stem


    def test_cache_header_of_another_config_is_a_data_error(self, tmp_path, capsys):
        # A keyed file holds its own input's features; one whose header
        # disagrees with the config was not written by this rule.
        path, cfg = base_config(tmp_path)
        cfg["features"]["cache_dir"] = str(tmp_path / "cache")
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["features", "--config", str(path)]) == 0
        victim = sorted((tmp_path / "cache").glob("*.lmf"))[1]
        data = victim.read_bytes()
        victim.write_bytes(struct.pack("<i", 8) + data[4:])
        capsys.readouterr()
        assert main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert victim.name in err and "8 mels" in err


class TestStaleFeatureCache:
    """A change of n_mels gives every clip another key: its files are
    extracted, and those of the earlier config are kept beside them."""

    @staticmethod
    def _set_n_mels(path, cfg, n_mels):
        cfg["features"]["n_mels"] = n_mels
        path.write_text(json.dumps(cfg), encoding="utf-8")

    @staticmethod
    def _cached_rows(cache_dir):
        files = sorted(cache_dir.glob("*.lmf"))
        assert files
        return {load_feature_cache(f).values.shape[0] for f in files}

    def test_run_recomputes_features_of_another_n_mels(self, tmp_path, monkeypatch):
        path, cfg = base_config(tmp_path)
        cfg["features"]["cache_dir"] = str(tmp_path / "cache")
        self._set_n_mels(path, cfg, 16)
        assert main(["features", "--config", str(path)]) == 0
        assert self._cached_rows(tmp_path / "cache") == {16}

        seen_rows = set()
        real_run_experiment = cli.run_experiment

        def spy(*args, features, **kwargs):
            seen_rows.update(m.values.shape[0] for m in features.values())
            return real_run_experiment(*args, features=features, **kwargs)

        monkeypatch.setattr(cli, "run_experiment", spy)
        self._set_n_mels(path, cfg, 8)
        assert main(["run", "--config", str(path)]) == 0
        assert seen_rows == {8}
        assert self._cached_rows(tmp_path / "cache") == {16, 8}

    def test_synthetic_features_are_recomputed(self, tmp_path, capsys):
        path, cfg = base_config(tmp_path)
        cfg["features"]["cache_dir"] = str(tmp_path / "cache")
        self._set_n_mels(path, cfg, 16)
        assert main(["features", "--config", str(path)]) == 0
        n_files = len(list((tmp_path / "cache").glob("*.lmf")))
        capsys.readouterr()
        self._set_n_mels(path, cfg, 8)
        assert main(["features", "--config", str(path)]) == 0
        assert f"{n_files} computed, 0 up to date" in capsys.readouterr().out
        assert self._cached_rows(tmp_path / "cache") == {16, 8}

    def test_manifest_features_are_recomputed(self, on_disk_dataset, capsys):
        path, cfg, _ = on_disk_dataset
        assert main(["features", "--config", str(path)]) == 0
        n_files = len(list((path.parent / "cache").glob("*.lmf")))
        capsys.readouterr()
        self._set_n_mels(path, cfg, 8)
        assert main(["features", "--config", str(path)]) == 0
        assert f"{n_files} computed, 0 up to date" in capsys.readouterr().out
        assert self._cached_rows(path.parent / "cache") == {16, 8}
        assert main(["features", "--config", str(path)]) == 0
        assert f"0 computed, {n_files} up to date" in capsys.readouterr().out


class TestCorruptedAudioIsKeyed:
    """A corrupted clip keeps its clip id but not its samples, so it is
    cached under a key of its own."""

    def test_run_caches_corrupted_clips_and_keeps_clean_files(self, tmp_path, monkeypatch):
        path, cfg = base_config(tmp_path)
        cfg["features"]["cache_dir"] = str(tmp_path / "cache")
        cfg["noise"] = {"p_incorrect_oov": 1.0, "seed": 3}
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["features", "--config", str(path)]) == 0
        clean_files = {f.name: f.read_bytes() for f in (tmp_path / "cache").glob("*.lmf")}

        seen = {}
        real_run_experiment = cli.run_experiment

        def spy(clips, manifest, feat_cfg, *args, features, **kwargs):
            seen.update(clips=clips, manifest=manifest, features=features, feat_cfg=feat_cfg)
            return real_run_experiment(clips, manifest, feat_cfg, *args, features=features,
                                       **kwargs)

        monkeypatch.setattr(cli, "run_experiment", spy)
        assert main(["run", "--config", str(path)]) == 0

        clean_clips, _, _ = gen_synthetic_dataset(**cfg["dataset"]["synthetic"])
        clean_samples = {c.clip_id: c.samples for c in clean_clips}
        corrupted = [
            clip for clip, rec in zip(seen["clips"], seen["manifest"].records)
            if rec.split is Split.TRAIN and rec.origin is Origin.NOISY
        ]
        assert len(corrupted) == 8
        for clip in corrupted:
            assert not np.array_equal(clip.samples, clean_samples[clip.clip_id])
            expected = extract_logmel(clip, seen["feat_cfg"]).values.astype(np.float32)
            assert np.array_equal(seen["features"][clip.clip_id].values, expected)
        after = {f.name: f.read_bytes() for f in (tmp_path / "cache").glob("*.lmf")}
        assert {name: after[name] for name in clean_files} == clean_files
        assert len(after) == len(clean_files) + len(corrupted)


class TestOneCacheRule:
    """features and run bring the cache up to date through one routine."""

    @staticmethod
    def _spy_features(monkeypatch):
        seen = {}
        real_run_experiment = cli.run_experiment

        def spy(*args, features, **kwargs):
            seen.update(features)
            return real_run_experiment(*args, features=features, **kwargs)

        monkeypatch.setattr(cli, "run_experiment", spy)
        return seen

    def test_run_trains_on_a_wav_rewritten_after_features(self, on_disk_dataset, monkeypatch):
        path, cfg, out = on_disk_dataset
        assert main(["features", "--config", str(path)]) == 0
        victim = out / "audio" / "synth_c00_0000.wav"
        clip = read_wav(victim, victim.name)
        write_wav(victim, AudioClip(clip.samples[::-1].copy(), clip.sample_rate, victim.name))
        seen = self._spy_features(monkeypatch)
        assert main(["run", "--config", str(path)]) == 0
        feat_cfg = load_config(path).features
        expected = extract_logmel(read_wav(victim, victim.name), feat_cfg).values
        assert np.array_equal(seen[victim.name].values, expected.astype(np.float32))
        cache = cache_file(path.parent / "cache", victim, path)
        assert np.array_equal(load_feature_cache(cache).values, expected.astype(np.float32))

    def test_run_sizes_its_pool_like_features(self, tmp_path, monkeypatch):
        path, cfg = base_config(tmp_path)
        outputs = {}
        for jobs in ("2", "1"):
            cfg["features"]["cache_dir"] = str(tmp_path / f"cache{jobs}")
            path.write_text(json.dumps(cfg), encoding="utf-8")
            if jobs == "2":
                sizes = TestFeatures._record_pool_sizes(monkeypatch)
            out = tmp_path / f"out{jobs}"
            assert main(["run", "--config", str(path), "--jobs", jobs, "--output", str(out)]) == 0
            outputs[jobs] = {f.name: f.read_bytes() for f in sorted(out.glob("*.csv"))}
        assert sizes == [2]
        assert [name for name in outputs["1"] if name.startswith("report_")]
        assert outputs["2"] == outputs["1"]

    def test_parallel_features_report_a_corrupt_wav_and_cache_the_rest(
        self, on_disk_dataset, capsys
    ):
        path, cfg, out = on_disk_dataset
        wavs = sorted((out / "audio").glob("*.wav"))
        wavs[5].write_bytes(b"RIFF, then nothing")
        assert main(["features", "--config", str(path), "--jobs", "2"]) == 2
        captured = capsys.readouterr()
        assert wavs[5].name in captured.err
        assert f"{len(wavs) - 1} computed, 0 up to date, 1 failed" in captured.out
        cached = sorted(f.stem.split("-")[0] for f in (path.parent / "cache").glob("*.lmf"))
        assert cached == [w.stem for w in wavs if w != wavs[5]]


class TestTheKeyIsTheInput:
    """A cache file is named by the config fields extract_logmel reads and
    the samples it is fed, so no other input is served it."""

    @staticmethod
    def _write(path, cfg):
        path.write_text(json.dumps(cfg), encoding="utf-8")
        return path

    @staticmethod
    def _count_extractions(monkeypatch):
        calls = []
        real_extract = cli.extract_logmel

        def counting(clip, feat_cfg):
            calls.append(clip.clip_id)
            return real_extract(clip, feat_cfg)

        monkeypatch.setattr(cli, "extract_logmel", counting)
        return calls

    @staticmethod
    def _assert_fresh(features, clips, config_path):
        feat_cfg = load_config(config_path).features
        for clip in clips:
            expected = extract_logmel(clip, feat_cfg).values.astype(np.float32)
            assert np.array_equal(features[clip.clip_id].values, expected), clip.clip_id

    def test_a_new_synthetic_seed_gets_its_own_files(self, tmp_path, monkeypatch, capsys):
        path, cfg = base_config(tmp_path)
        cfg["features"]["cache_dir"] = str(tmp_path / "cache")
        assert main(["features", "--config", str(self._write(path, cfg))]) == 0
        cfg["dataset"]["synthetic"]["seed"] = 4
        self._write(path, cfg)
        capsys.readouterr()
        assert main(["features", "--config", str(path)]) == 0
        assert f"{len(cfg_records(cfg))} computed, 0 up to date" in capsys.readouterr().out
        seen = TestOneCacheRule._spy_features(monkeypatch)
        assert main(["run", "--config", str(path)]) == 0
        clips, _, _ = gen_synthetic_dataset(**cfg["dataset"]["synthetic"])
        self._assert_fresh(seen, clips, path)

    def test_a_dataset_and_its_noisy_copy_share_a_cache_dir(self, tmp_path, monkeypatch):
        path, cfg = base_config(tmp_path)
        assert main(["synth-data", "--config", str(path), "--output", str(tmp_path / "clean")]) == 0
        cfg["noise"] = {"p_incorrect_oov": 1.0, "seed": 3}
        self._write(path, cfg)
        assert main(["inject-noise", "--config", str(path),
                     "--output", str(tmp_path / "noisy")]) == 0
        wavs = sorted((tmp_path / "clean" / "audio").glob("*.wav"))
        changed = [w for w in wavs
                   if w.read_bytes() != (tmp_path / "noisy" / "audio" / w.name).read_bytes()]
        assert len(changed) == 8
        del cfg["noise"]
        cfg["features"]["cache_dir"] = str(tmp_path / "cache")
        for name in ("noisy", "clean"):  # the noisy copy first
            cfg["dataset"] = {"manifest": str(tmp_path / name / "manifest.csv"),
                              "audio_root": str(tmp_path / name / "audio")}
            path = self._write(tmp_path / f"{name}.json", cfg)
            assert main(["features", "--config", str(path)]) == 0
        seen = TestOneCacheRule._spy_features(monkeypatch)
        assert main(["run", "--config", str(path)]) == 0
        self._assert_fresh(seen, [read_wav(w, w.name) for w in wavs], path)

    def test_one_file_name_in_two_directories(self, on_disk_dataset, monkeypatch):
        path, cfg, out = on_disk_dataset
        manifest = out / "manifest.csv"
        text = manifest.read_text(encoding="utf-8")
        for old, new in (("synth_c00_0000.wav", "a/x.wav"), ("synth_c01_0000.wav", "b/x.wav")):
            assert old in text
            (out / "audio" / new).parent.mkdir()
            (out / "audio" / old).rename(out / "audio" / new)
            text = text.replace(old, new)
        manifest.write_text(text, encoding="utf-8")
        assert main(["features", "--config", str(path)]) == 0
        seen = TestOneCacheRule._spy_features(monkeypatch)
        assert main(["run", "--config", str(path)]) == 0
        self._assert_fresh(seen, [read_wav(out / "audio" / n, n) for n in ("a/x.wav", "b/x.wav")],
                           path)

    @pytest.mark.parametrize("changes", [{"fft_size": 256}, {"sample_rate": 4000, "hop": 128}],
                             ids=["fft_size", "sample_rate+hop"])
    def test_a_change_the_header_does_not_show(self, tmp_path, capsys, changes):
        path, cfg = base_config(tmp_path)
        cfg["features"]["cache_dir"] = str(tmp_path / "cache")
        assert main(["features", "--config", str(self._write(path, cfg))]) == 0
        cfg["features"].update(changes)
        if "sample_rate" in changes:  # the same frame rate, audio made at the new rate
            cfg["dataset"]["synthetic"]["sample_rate"] = changes["sample_rate"]
        self._write(path, cfg)
        capsys.readouterr()
        assert main(["features", "--config", str(path)]) == 0
        assert f"{len(cfg_records(cfg))} computed, 0 up to date" in capsys.readouterr().out
        feat_cfg = load_config(path).features
        clips, _, _ = gen_synthetic_dataset(**cfg["dataset"]["synthetic"])
        cached = {clip.clip_id: load_feature_cache(
            feature_cache_path(tmp_path / "cache", clip, feat_cfg), cfg=feat_cfg) for clip in clips}
        self._assert_fresh(cached, clips, path)

    def test_a_wav_replaced_by_audio_with_an_older_mtime(self, on_disk_dataset, monkeypatch,
                                                          capsys):
        path, cfg, out = on_disk_dataset
        assert main(["features", "--config", str(path)]) == 0
        victim = out / "audio" / "synth_c00_0000.wav"
        clip = read_wav(victim, victim.name)
        written = victim.stat().st_mtime
        write_wav(victim, AudioClip(clip.samples[::-1].copy(), clip.sample_rate, victim.name))
        os.utime(victim, (written - 3600,) * 2)  # as tar x or cp -p leave it
        capsys.readouterr()
        assert main(["features", "--config", str(path)]) == 0
        n_wavs = len(list((out / "audio").glob("*.wav")))
        assert f"1 computed, {n_wavs - 1} up to date" in capsys.readouterr().out
        seen = TestOneCacheRule._spy_features(monkeypatch)
        assert main(["run", "--config", str(path)]) == 0
        self._assert_fresh(seen, [read_wav(victim, victim.name)], path)

    def test_a_second_run_with_noise_extracts_nothing(self, tmp_path, monkeypatch):
        path, cfg = base_config(tmp_path)
        cfg["noise"] = {"p_incorrect_oov": 1.0, "seed": 3}
        assert main(["run", "--config", str(self._write(path, cfg))]) == 0
        calls = self._count_extractions(monkeypatch)
        assert main(["run", "--config", str(path)]) == 0
        assert calls == []

    def test_run_without_a_cache_dir_reads_what_features_wrote(self, tmp_path, monkeypatch):
        path, cfg = base_config(tmp_path)
        assert main(["features", "--config", str(path)]) == 0
        assert len(list((tmp_path / "out" / "features").glob("*.lmf"))) == len(cfg_records(cfg))
        calls = self._count_extractions(monkeypatch)
        assert main(["run", "--config", str(path)]) == 0
        assert calls == []


class TestInjectNoise:
    def test_zero_spec_identity(self, tmp_path):
        path, cfg = base_config(tmp_path)
        cfg["noise"] = {"seed": 3}
        cfg["output_dir"] = str(tmp_path / "inj")
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["inject-noise", "--config", str(path)]) == 0
        out = tmp_path / "inj"
        manifest_text = (out / "manifest.csv").read_text()

        synth_path, _ = base_config(tmp_path)
        assert main(["synth-data", "--config", str(synth_path)]) == 0
        original_text = (tmp_path / "out" / "manifest.csv").read_text()
        assert manifest_text == original_text

    def test_provenance_rows_cover_noisy_records(self, tmp_path, capsys):
        path, cfg = base_config(tmp_path)
        cfg["noise"] = {"p_incorrect_iv": 0.4, "seed": 3}
        cfg["output_dir"] = str(tmp_path / "inj2")
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["inject-noise", "--config", str(path)]) == 0
        provenance = (tmp_path / "inj2" / "provenance.csv").read_text().strip().splitlines()
        n_noisy = 2 * (6 - round(0.34 * 6))  # per config arithmetic
        assert len(provenance) - 1 == n_noisy
        assert (tmp_path / "inj2" / "noise_report.txt").exists()

    def test_missing_noise_section_is_a_config_error(self, tmp_path):
        path, _ = base_config(tmp_path)
        assert main(["inject-noise", "--config", str(path)]) == 1

    @pytest.mark.parametrize("command", ["inject-noise", "run"])
    @pytest.mark.parametrize("key", ["p_incorrect_oov", "p_incomplete_oov", "p_density"])
    def test_distractor_noise_on_a_manifest_is_a_data_error(self, on_disk_dataset, capsys,
                                                            command, key):
        # Only a dataset.synthetic config comes with distractor clips to
        # append or mix in; synth-data writes none beside its manifest.
        path, cfg, _ = on_disk_dataset
        cfg["noise"] = {key: 0.1, "seed": 1}
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main([command, "--config", str(path)]) == 2
        assert "distractor pool is empty" in capsys.readouterr().err

    def test_fname_that_leaves_the_output_is_a_data_error(self, on_disk_dataset, capsys):
        # Read from audio/sub, ../../escaped.wav is out/escaped.wav; written
        # under the output's audio/, it would land beside the output.
        path, cfg, out = on_disk_dataset
        sub = out / "audio" / "sub"
        sub.mkdir()
        for wav in (out / "audio").glob("*.wav"):
            wav.rename(sub / wav.name)
        (sub / "synth_c00_0000.wav").rename(out / "escaped.wav")
        manifest = out / "manifest.csv"
        manifest.write_text(manifest.read_text(encoding="utf-8").replace(
            "synth_c00_0000.wav", "../../escaped.wav"), encoding="utf-8")
        cfg["dataset"]["audio_root"] = str(sub)
        cfg["noise"] = {"p_incorrect_iv": 0.4, "seed": 3}
        path.write_text(json.dumps(cfg), encoding="utf-8")
        capsys.readouterr()
        assert main(["inject-noise", "--config", str(path),
                     "--output", str(out.parent / "inj")]) == 2
        assert "'../../escaped.wav'" in capsys.readouterr().err
        assert not (out.parent / "escaped.wav").exists()

    def test_one_label_manifest_with_incorrect_iv_is_a_data_error(self, on_disk_dataset,
                                                                  capsys):
        path, cfg, out = on_disk_dataset
        manifest = out / "manifest.csv"
        manifest.write_text(manifest.read_text(encoding="utf-8").replace("class_01", "class_00"),
                            encoding="utf-8")
        cfg["noise"] = {"p_incorrect_iv": 1.0, "seed": 3}
        path.write_text(json.dumps(cfg), encoding="utf-8")
        capsys.readouterr()
        assert main(["inject-noise", "--config", str(path),
                     "--output", str(out.parent / "inj")]) == 2
        err = capsys.readouterr().err
        assert "no different class available for an incorrect in-vocabulary label" in err


class TestRun:
    def test_two_cells_two_reports(self, tmp_path, capsys):
        path, cfg = base_config(tmp_path)
        cfg["train"]["subsets"] = ["clean", "noisy_small"]
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["run", "--config", str(path)]) == 0
        out = tmp_path / "out"
        reports = sorted(out.glob("report_*.csv"))
        assert len(reports) == 2
        assert list(out.glob("history_*_run0.csv"))
        assert list(out.glob("checkpoint_*_run0.nbc"))

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        path, cfg = base_config(tmp_path)
        assert main(["run", "--config", str(path), "--output", str(tmp_path / "a")]) == 0
        assert main(["run", "--config", str(path), "--output", str(tmp_path / "b")]) == 0
        for report_a in sorted((tmp_path / "a").glob("report_*.csv")):
            report_b = tmp_path / "b" / report_a.name
            assert report_a.read_bytes() == report_b.read_bytes()

    def test_fewer_runs_leave_no_stale_run_files(self, tmp_path, capsys):
        path, cfg = base_config(tmp_path)
        out = tmp_path / "out"
        for n_runs in (3, 2):
            cfg["train"]["n_runs"] = n_runs
            path.write_text(json.dumps(cfg), encoding="utf-8")
            assert main(["run", "--config", str(path)]) == 0
        assert sorted(p.name for p in out.glob("*_run*")) == [
            "checkpoint_all_cce_run0.nbc", "checkpoint_all_cce_run1.nbc",
            "history_all_cce_run0.csv", "history_all_cce_run1.csv"]

    def test_report_command_summarizes(self, tmp_path, capsys):
        path, cfg = base_config(tmp_path)
        assert main(["run", "--config", str(path)]) == 0
        capsys.readouterr()
        assert main(["report", "--config", str(path)]) == 0
        text = capsys.readouterr().out
        assert "all_cce" in text
        assert (tmp_path / "out" / "summary.csv").exists()

    def test_report_lists_only_the_cells_of_its_config(self, tmp_path, capsys):
        # An output_dir that an earlier config with another cell wrote to.
        path, cfg = base_config(tmp_path)
        cfg["train"]["losses"] = [{"family": "cce"}, {"family": "lq"}]
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["run", "--config", str(path)]) == 0
        cfg["train"]["losses"] = [{"family": "cce"}]
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["run", "--config", str(path), "--seed", "9"]) == 0
        capsys.readouterr()
        assert main(["report", "--config", str(path)]) == 0
        assert "all_lq" not in capsys.readouterr().out
        summary = (tmp_path / "out" / "summary.csv").read_text(encoding="utf-8").splitlines()
        assert [row.split(",")[0] for row in summary] == ["cell", "all_cce"]

    def test_report_of_a_missing_cell_is_a_data_error(self, tmp_path, capsys):
        path, cfg = base_config(tmp_path)
        assert main(["run", "--config", str(path)]) == 0
        cfg["train"]["losses"] = [{"family": "cce"}, {"family": "lq"}]
        path.write_text(json.dumps(cfg), encoding="utf-8")
        capsys.readouterr()
        assert main(["report", "--config", str(path)]) == 2
        assert "report_all_lq_q0.7.csv" in capsys.readouterr().err
        assert not (tmp_path / "out" / "summary.csv").exists()

    def test_report_of_a_truncated_csv_is_a_data_error(self, tmp_path, capsys):
        path, cfg = base_config(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        victim = out / "report_all_cce.csv"
        victim.write_text("kind,run,seed,accuracy\r\nrun,0,5,0.500000\r\n", encoding="utf-8")
        assert main(["report", "--config", str(path)]) == 2
        assert victim.name in capsys.readouterr().err
        assert not (out / "summary.csv").exists()

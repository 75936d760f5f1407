"""Every output file is replaced atomically: an interrupted writer leaves
the previous file byte-identical, or no file, and no temporary behind. And
only ``features`` names feature cache files."""

import ast
import json
from pathlib import Path

import numpy as np
import pytest

import noisebench
from noisebench.audio_io import AudioClip, write_wav
from noisebench.cli import main
from noisebench.datasets import gen_synthetic_dataset, write_manifest
from noisebench.noise import NoiseSpec, corrupt_noisy_train
from noisebench.plots import line_plot_svg

from test_cli import base_config

_SRC = Path(noisebench.__file__).parent
_MODE = frozenset("rwxabt+")


def _call_name(func) -> str:
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")


def _direct_writes(tree: ast.AST) -> list[int]:
    """Line numbers of calls that write a file in place: ``write_text``,
    ``write_bytes``, or any ``open`` (builtin, ``Path.open``, ``wave.open``)
    in a write or append mode, unless it opens a handle bound by
    ``with atomic_write(...) as name``."""
    handles = {
        item.optional_vars.id
        for node in ast.walk(tree) if isinstance(node, ast.With)
        for item in node.items
        if isinstance(item.context_expr, ast.Call)
        and _call_name(item.context_expr.func) == "atomic_write"
        and isinstance(item.optional_vars, ast.Name)
    }
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _call_name(node.func)
        if name in ("write_text", "write_bytes"):
            lines.append(node.lineno)
        elif name == "open":
            modes = [arg.value for arg in [*node.args, *(k.value for k in node.keywords)]
                     if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
                     and set(arg.value) <= _MODE]
            on_handle = (node.args and isinstance(node.args[0], ast.Name)
                         and node.args[0].id in handles)
            if any(set(mode) & set("wax+") for mode in modes) and not on_handle:
                lines.append(node.lineno)
    return lines


class TestEveryWriterIsAtomic:
    def test_no_module_writes_a_file_in_place(self):
        found = {path.name: _direct_writes(ast.parse(path.read_text(encoding="utf-8")))
                 for path in sorted(_SRC.glob("*.py")) if path.name != "fileio.py"}
        assert {name: lines for name, lines in found.items() if lines} == {}

    @pytest.mark.parametrize("source,lines", [
        ('Path(p).write_text("x")', [1]),
        ('p.write_bytes(b"x")', [1]),
        ('open(p, "a")', [1]),
        ('path.open("w", newline="")', [1]),
        ('open(p, mode="wb")', [1]),
        ('wave.open(str(p), "wb")', [1]),
        ('with atomic_write(p) as fh, wave.open(fh, "wb") as w:\n    pass', []),
        ('with atomic_write(p) as fh:\n    pass\nwave.open(q, "wb")', [3]),
        ('open(p)', []),
        ('path.open("rb")', []),
        ('wave.open(str(p), "rb")', []),
    ])
    def test_the_scan_tells_writes_from_reads(self, source, lines):
        assert _direct_writes(ast.parse(source)) == lines


def _cache_key_lines(tree: ast.AST) -> list[int]:
    """Line numbers that spell the feature cache's ``.lmf`` suffix in a
    string, or import ``hashlib``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if ".lmf" in node.value:
                lines.append(node.lineno)
        elif isinstance(node, ast.Import):
            lines += [node.lineno for alias in node.names if alias.name == "hashlib"]
        elif isinstance(node, ast.ImportFrom) and node.module == "hashlib":
            lines.append(node.lineno)
    return lines


class TestOneHomeForTheCacheKey:
    def test_only_features_names_cache_files_or_hashes(self):
        found = {path.name: _cache_key_lines(ast.parse(path.read_text(encoding="utf-8")))
                 for path in sorted(_SRC.glob("*.py")) if path.name != "features.py"}
        assert {name: lines for name, lines in found.items() if lines} == {}

    @pytest.mark.parametrize("source,lines", [
        ('import hashlib', [1]),
        ('import os, hashlib as h', [1]),
        ('from hashlib import sha256', [1]),
        ('p = cache / "x.lmf"', [1]),
        ('p = cache / f"{stem}-{key}.lmf"', [1]),
        ('p.with_suffix(".lmf")', [1]),
        ('import hmac\np = "x.wav"', []),
    ])
    def test_the_scan_finds_the_suffix_and_the_import(self, source, lines):
        assert _cache_key_lines(ast.parse(source)) == lines


def _assert_untouched(path, before):
    assert path.read_bytes() == before
    assert not [p.name for p in path.parent.iterdir() if p.name.endswith(".tmp")]


class TestInterruptedWrites:
    def test_manifest(self, tmp_path, interrupt_writes):
        _, manifest, _ = gen_synthetic_dataset(2, 4, 0.5, 1000, seed=1)
        path = tmp_path / "manifest.csv"
        write_manifest(manifest, path)
        before = path.read_bytes()
        manifest.class_names = ["dog", "cat"]
        interrupt_writes()
        with pytest.raises(OSError, match="interrupted"):
            write_manifest(manifest, path)
        _assert_untouched(path, before)

    def test_provenance_log(self, tmp_path, interrupt_writes):
        clips, manifest, pool = gen_synthetic_dataset(2, 4, 0.25, 1000, seed=1)
        logs = [corrupt_noisy_train(clips, manifest, NoiseSpec(p_incorrect_iv=p, seed=2),
                                    pool)[2] for p in (0.0, 1.0)]
        path = tmp_path / "provenance.csv"
        logs[0].write_csv(path)
        before = path.read_bytes()
        interrupt_writes()
        with pytest.raises(OSError, match="interrupted"):
            logs[1].write_csv(path)
        _assert_untouched(path, before)

    def test_wav(self, tmp_path, interrupt_writes):
        samples = np.linspace(-0.5, 0.5, 400, dtype=np.float32)
        path = tmp_path / "a.wav"
        write_wav(path, AudioClip(samples, 1000, "a.wav"))
        before = path.read_bytes()
        interrupt_writes()
        with pytest.raises(OSError, match="interrupted"):
            write_wav(path, AudioClip(-samples, 1000, "a.wav"))
        _assert_untouched(path, before)

    def test_svg_plot(self, tmp_path, interrupt_writes):
        path = tmp_path / "curve.svg"
        line_plot_svg(path, [("a", [1, 2], [0.1, 0.2])], "t", "x", "y")
        before = path.read_bytes()
        interrupt_writes()
        with pytest.raises(OSError, match="interrupted"):
            line_plot_svg(path, [("b", [1, 2], [0.3, 0.1])], "t", "x", "y")
        _assert_untouched(path, before)

    def test_noise_report(self, tmp_path, interrupt_writes):
        path, cfg = base_config(tmp_path)
        cfg["noise"] = {"p_incorrect_iv": 0.4, "seed": 3}
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["inject-noise", "--config", str(path)]) == 0
        report = tmp_path / "out" / "noise_report.txt"
        before = report.read_bytes()
        cfg["noise"] = {"p_incorrect_iv": 1.0, "seed": 3}
        path.write_text(json.dumps(cfg), encoding="utf-8")
        interrupt_writes("noise_report")
        with pytest.raises(OSError, match="interrupted"):
            main(["inject-noise", "--config", str(path)])
        _assert_untouched(report, before)

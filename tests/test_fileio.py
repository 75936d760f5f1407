"""Every output file is replaced atomically: an interrupted writer leaves
the previous file byte-identical, or no file, and no temporary behind. And
only ``features`` names feature cache files. And every noisebench name that
the benchmark in ``perfbench/`` uses exists, and takes its calls' arguments."""

import ast
import inspect
import json
import numbers
from pathlib import Path

import numpy as np
import pytest

import noisebench
from noisebench.audio_io import AudioClip, write_wav
from noisebench.cli import main
from noisebench.datasets import gen_synthetic_dataset, write_manifest
from noisebench.noise import NoiseSpec, corrupt_noisy_train

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


_BENCH = Path(__file__).resolve().parent.parent / "perfbench"
_MODULES = frozenset(("audio_io", "datasets", "features", "layers", "losses", "noise",
                      "optim", "training"))
_PATCHERS = ("patch_function", "patch_method")


def _dotted_owner(node) -> str | None:
    """The dotted path ("training", "training.Standardizer") of a name or
    attribute chain rooted at one of the noisebench modules, else None."""
    if isinstance(node, ast.Name):
        return node.id if node.id in _MODULES else None
    if isinstance(node, ast.Attribute):
        owner = _dotted_owner(node.value)
        return owner and f"{owner}.{node.attr}"
    return None


def _benchmark_uses(tree: ast.AST) -> list[tuple[str, str]]:
    """(owner, name) for each name taken from noisebench: ``<module>.<attr>``
    on its modules, names imported from the package or a module (owner ""
    is the package), and the ``(module, "name", ...)`` tuples and
    ``patch_function``/``patch_method`` targets that the tracer wraps."""
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in _MODULES:
                uses.append((node.value.id, node.attr))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("noisebench"):
            owner = node.module.removeprefix("noisebench").lstrip(".")
            uses += [(owner, alias.name) for alias in node.names]
        else:
            if isinstance(node, ast.Tuple):
                args = node.elts
            elif isinstance(node, ast.Call) and _call_name(node.func) in _PATCHERS:
                args = node.args
            else:
                continue
            if (len(args) >= 2 and _dotted_owner(args[0]) and isinstance(args[1], ast.Constant)
                    and isinstance(args[1].value, str)):
                uses.append((_dotted_owner(args[0]), args[1].value))
    return uses


def _owner(owner: str):
    obj = noisebench
    for part in filter(None, owner.split(".")):
        obj = getattr(obj, part, None)
    return obj


def _resolves(owner: str, name: str) -> bool:
    return hasattr(_owner(owner), name)


_NO_VALUE = object()


def _static_value(node):
    """The value of a literal or of a ``np.<name>`` attribute, else _NO_VALUE."""
    if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "np":
        return getattr(np, node.attr, _NO_VALUE)
    try:
        return ast.literal_eval(node)
    except (ValueError, TypeError):
        return _NO_VALUE


def _kind(value):
    return "number" if isinstance(value, numbers.Number) else type(value)


def _unbound_calls(tree: ast.AST) -> list[str]:
    """``line: owner.name: reason`` for each call of a ``<module>.<name>``
    chain that resolves and uses no ``*`` or ``**`` argument, whose number of
    positional arguments and keyword names its signature does not bind. A
    dropped parameter can leave the count binding and shift every argument
    after it, so a positional argument also fails where it lands on another
    parameter than the one it is spelled like (``rng``, ``state.rng``), or
    where it is a literal or a ``np.<name>`` of another kind than the
    parameter's default (a string, a number, a type)."""
    unbound = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        owner, name = _dotted_owner(node.func.value), node.func.attr
        if (not owner or not _resolves(owner, name)
                or any(isinstance(arg, ast.Starred) for arg in node.args)
                or any(k.arg is None for k in node.keywords)):
            continue
        where = f"{node.lineno}: {owner}.{name}"
        signature = inspect.signature(getattr(_owner(owner), name))
        try:
            signature.bind(*[None] * len(node.args), **{k.arg: None for k in node.keywords})
        except TypeError as exc:
            unbound.append(f"{where}: {exc}")
            continue
        positions = [p for p in signature.parameters.values()
                     if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
        for arg, param in zip(node.args, positions):
            spelled = getattr(arg, "id", None) or getattr(arg, "attr", None)
            value, default = _static_value(arg), param.default
            if spelled in signature.parameters and spelled != param.name:
                unbound.append(f"{where}: {spelled!r} passed as {param.name!r}")
            elif (value is not _NO_VALUE and default is not param.empty
                    and default is not None and _kind(value) != _kind(default)):
                unbound.append(f"{where}: {ast.unparse(arg)} passed as {param.name}={default!r}")
    return unbound


class TestBenchmarkCallSurface:
    """Every noisebench name that ``perfbench/`` uses still exists, and each
    call it makes of one binds to the signature, so that deleting, renaming
    or dropping a parameter of one fails here and not only in a benchmark
    run. Calls are checked by argument count and keyword names only."""

    def test_every_name_the_benchmark_uses_resolves(self):
        uses = {path.name: _benchmark_uses(ast.parse(path.read_text(encoding="utf-8")))
                for path in sorted(_BENCH.glob("*.py"))}
        assert ("training", "train") in uses["spans.py"]
        assert ("optim.Adam", "step") in uses["spans.py"]
        missing = {name: [f"{owner}.{attr}".lstrip(".") for owner, attr in found
                          if not _resolves(owner, attr)]
                   for name, found in uses.items()}
        assert {name: found for name, found in missing.items() if found} == {}

    @pytest.mark.parametrize("source,uses", [
        ("training.train(net)", [("training", "train")]),
        ("state.features.get", []),
        ("from noisebench import layers, optim", [("", "layers"), ("", "optim")]),
        ("from noisebench.datasets import Split", [("datasets", "Split")]),
        ('(datasets, "load_manifest", "span")', [("datasets", "load_manifest")]),
        ('("a", "b")', []),
        ('t.patch_method(optim.Adam, "step", "span")',
         [("optim", "Adam"), ("optim.Adam", "step")]),
        ('t.wrap(optim.Adam, "step")', [("optim", "Adam")]),
    ])
    def test_the_scan_finds_each_kind_of_use(self, source, uses):
        assert sorted(_benchmark_uses(ast.parse(source))) == sorted(uses)

    def test_every_call_the_benchmark_makes_binds(self):
        unbound = {path.name: _unbound_calls(ast.parse(path.read_text(encoding="utf-8")))
                   for path in sorted(_BENCH.glob("*.py"))}
        assert {name: calls for name, calls in unbound.items() if calls} == {}

    @pytest.mark.parametrize("source,unbound", [
        ('layers.Conv2d(2, 3, 3, "same", rng, np.float64)', []),
        ('layers.Conv2d(2, 3, 3, "same", rng, np.float64, "c", 2, 9)', ["layers.Conv2d"]),
        ("layers.Conv2d(2, 3, 3, rng)", ["layers.Conv2d"]),
        ("layers.Conv2d(2, 3, kernel_size, 'same', state.rng)", []),
        ("layers.Conv2d(2, 3, 3, 'same', make_rng(0), np.float64, 'conv1', 2.0)", []),
        ("layers.Conv2d(2, 3, 3, make_rng(0), np.float64, 'conv1')", ["layers.Conv2d"]),
        ("layers.Conv2d(2, 3, 3, 'same', make_rng(0), 'float64')", ["layers.Conv2d"]),
        ("layers.Conv2d(2, 3, 3, padding='same', stride=2)", ["layers.Conv2d"]),
        ("layers.Conv2d(2, 3)", ["layers.Conv2d"]),
        ("training.Standardizer.fit(x)", []),
        ("training.Standardizer.fit(x, y)", ["training.Standardizer.fit"]),
        ("layers.Conv2d(*args)", []),
        ("layers.Conv2d(**kwargs)", []),
        ("layers.NoSuchLayer(1)", []),
        ("state.features.get(1, 2, 3)", []),
    ])
    def test_the_call_check_finds_calls_that_do_not_bind(self, source, unbound):
        assert [line.split(": ")[1] for line in _unbound_calls(ast.parse(source))] == unbound

    def test_a_missing_name_does_not_resolve(self):
        assert _resolves("training", "train") and _resolves("", "Adam")
        assert not _resolves("optim", "plateau_lr")
        assert not _resolves("optim.Adam", "no_such_method")


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

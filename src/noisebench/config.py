"""Experiment configuration: the JSON document and its parsing.

Each section is built straight into the dataclass that owns it, and each
range rule lives there, beside the value it guards. Parsing rejects what
is wrong as JSON: a section that is not an object, an unknown key (so
typos fail before any compute), a missing required key, and a value of
the wrong JSON type for its field (a bool is not a number, 16.0 is not an
integer, null is never a value, a number must be finite). Every error
names its place as a slash-joined path such as ``train/losses/0``.
"""

from __future__ import annotations

import enum
import inspect
import json
import math
import typing
from dataclasses import dataclass
from pathlib import Path

from .datasets import Subset, check_synthetic, gen_synthetic_dataset
from .errors import ConfigError
from .features import FeatureConfig
from .losses import LossConfig, LossFamily
from .noise import NoiseSpec
from .training import TrainConfig, check_n_runs


@dataclass
class ExperimentConfig:
    """A parsed config, its paths resolved against the config file's directory."""

    dataset: dict
    features: FeatureConfig
    cache_dir: Path | None
    noise: NoiseSpec | None
    train: TrainConfig
    subsets: list[Subset]
    losses: list[LossConfig]
    n_runs: int
    output_dir: Path


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8-sig"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return parse_config(raw, base_dir=path.parent)


# The JSON kind of a field's Python type: its name and its test.
_JSON_KINDS = {
    bool: ("a boolean", lambda v: isinstance(v, bool)),
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    float: ("a finite number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
            and math.isfinite(v)),
    str: ("a string", lambda v: isinstance(v, str)),
    dict: ("an object", lambda v: isinstance(v, dict)),
    list: ("an array", lambda v: isinstance(v, list)),
    tuple: ("an array", lambda v: isinstance(v, list)),
}


def _invalid(where: str, reason) -> ConfigError:
    return ConfigError(f"config invalid at {where or '(root)'}: {reason}")


def _check_kind(tp, value, where: str) -> None:
    """Reject ``value`` unless it has the JSON kind of the Python type
    ``tp``: an enum takes one of its values, a list or tuple an array whose
    items are checked in turn. An absent key takes the field's default, so
    ``X | None`` takes an ``X`` only."""
    if type(None) in typing.get_args(tp):
        tp = typing.get_args(tp)[0]
    base, args = typing.get_origin(tp) or tp, typing.get_args(tp)
    if issubclass(base, enum.Enum):
        if value not in [member.value for member in base]:
            raise _invalid(where, f"{json.dumps(value)} is not one of "
                                  + ", ".join(member.value for member in base))
        return
    name, ok = _JSON_KINDS[base]
    if not ok(value):
        raise _invalid(where, f"{json.dumps(value)} is not {name}")
    if base in (list, tuple):
        for i, item in enumerate(value):
            _check_kind(args[0], item, f"{where}/{i}")


def _params(make) -> dict:
    """Parameter name -> type of a dataclass or function, ``**kwargs`` aside."""
    hints = typing.get_type_hints(make)
    return {name: hints[name] for name, p in inspect.signature(make).parameters.items()
            if p.kind is not p.VAR_KEYWORD}


def _required(make) -> list[str]:
    """The parameters of ``make`` without a default, ``**kwargs`` aside."""
    return [name for name, p in inspect.signature(make).parameters.items()
            if p.default is p.empty and p.kind is not p.VAR_KEYWORD]


def _build(make, raw, where: str, keys: dict | None = None, required=None):
    """``make(**raw)`` for the JSON object ``raw`` found at ``where``.

    ``keys`` maps each key the object may hold to its Python type and
    defaults to ``make``'s parameters; ``required`` lists the keys it must
    hold and defaults to the parameters without a default. A ConfigError
    or ValueError from ``make`` is re-raised with ``where`` in front.
    """
    required = _required(make) if required is None else required
    keys = _params(make) if keys is None else keys
    if not isinstance(raw, dict):
        raise _invalid(where, f"{json.dumps(raw)} is not an object")
    for key in raw:
        if key not in keys:
            raise _invalid(where, f"unknown key {key!r}")
    for key in required:
        if key not in raw:
            raise _invalid(where, f"missing required key {key!r}")
    for key, value in raw.items():
        _check_kind(keys[key], value, f"{where}/{key}".lstrip("/"))
    try:
        return make(**raw)
    except (ConfigError, ValueError) as exc:
        raise _invalid(where, exc) from exc


def _features(cache_dir: str | None = None, **fields) -> tuple[FeatureConfig, str | None]:
    """The features section: FeatureConfig plus where to cache features."""
    return FeatureConfig(**fields), cache_dir


def _train(subsets: list[Subset], losses: list[dict], n_runs: int = 7,
           initial_lr: float = TrainConfig.initial_lr, **fields):
    """The train section: TrainConfig but its per-cell ``loss`` and
    ``subset``, plus the grid of cells and the runs per cell. A zero
    learning rate, which leaves the weights as initialised, is fine for a
    TrainConfig but not for an experiment."""
    if not subsets or not losses:
        raise ConfigError("subsets and losses must be non-empty")
    check_n_runs(n_runs)
    if not initial_lr > 0:
        raise ConfigError(f"initial_lr must be > 0, got {initial_lr}")
    train = TrainConfig(initial_lr=initial_lr, **fields)
    return train, [Subset(s) for s in subsets], losses, n_runs


_ROOT = {"dataset": dict, "features": dict, "noise": dict, "train": dict, "output_dir": str}
_DATASET = {"manifest": str, "audio_root": str, "synthetic": dict}
_TRAIN = {**{key: tp for key, tp in _params(TrainConfig).items() if key not in ("loss", "subset")},
          **_params(_train)}


def parse_config(raw: dict, base_dir: str | Path = ".") -> ExperimentConfig:
    root = _build(dict, raw, "", _ROOT, required=("dataset", "features", "train", "output_dir"))
    dataset = _build(dict, root["dataset"], "dataset", _DATASET, required=())
    if ("manifest" in dataset) == ("synthetic" in dataset):
        raise _invalid("dataset", "needs exactly one of 'manifest' or 'synthetic'")
    if ("manifest" in dataset) != ("audio_root" in dataset):
        raise _invalid("dataset", "audio_root is required with manifest, and only with it")
    if "synthetic" in dataset:
        _build(check_synthetic, dataset["synthetic"], "dataset/synthetic",
               _params(gen_synthetic_dataset), _required(gen_synthetic_dataset))
    features, cache_dir = _build(_features, root["features"], "features",
                                 {**_params(FeatureConfig), **_params(_features)})
    noise = _build(NoiseSpec, root["noise"], "noise") if "noise" in root else None
    train, subsets, losses, n_runs = _build(_train, root["train"], "train", _TRAIN)
    losses = [_build(LossConfig, item, f"train/losses/{i}", required=("family",))
              for i, item in enumerate(losses)]
    experiment_cells(subsets, losses)
    # Every path in the file is relative to the file.
    base_dir = Path(base_dir)
    dataset.update((key, base_dir / dataset[key]) for key in ("manifest", "audio_root")
                   if key in dataset)
    return ExperimentConfig(dataset, features, base_dir / cache_dir if cache_dir else None,
                            noise, train, subsets, losses, n_runs, base_dir / root["output_dir"])


def experiment_cells(
    subsets: list[Subset], losses: list[LossConfig]
) -> list[tuple[str, Subset, LossConfig]]:
    """The (name, subset, loss) grid actually run, each cell named
    ``<subset>_<loss label>``: robust losses are skipped on the clean
    subset, where there is no noisy data for them to act on. An empty grid,
    or a subset or a loss that repeats a cell, which would train into the
    same files, is a ConfigError naming it."""
    cells = {}
    for s, subset in enumerate(subsets):
        for i, loss in enumerate(losses):
            if subset is Subset.CLEAN and loss.family is not LossFamily.CCE:
                continue
            name = f"{subset.value}_{loss.label()}"
            if name in cells:
                where = (f"train/losses/{i}" if cells[name][0] == s
                         else f"train/subsets/{s}")
                raise _invalid(where, f"repeats the cell {name}")
            cells[name] = s, subset, loss
    if not cells:
        raise _invalid("train", "no cell to run: robust losses are skipped on the clean subset")
    return [(name, subset, loss) for name, (_, subset, loss) in cells.items()]

"""Experiment configuration: JSON document, schema validation, parsing.

Unknown keys are rejected everywhere so typos fail before any compute.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import jsonschema

from .datasets import Subset
from .errors import ConfigError
from .features import FeatureConfig
from .losses import LossConfig
from .noise import NoiseSpec
from .training import TrainConfig

_LOSS_SCHEMA = {
    "type": "object",
    "properties": {
        "family": {"enum": ["cce", "soft", "lq", "mask_max", "mask_stat"]},
        "beta": {"type": "number", "minimum": 0, "maximum": 1},
        "q": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
        "m": {"type": "number", "minimum": 0, "maximum": 1},
        "l": {"type": "number", "minimum": 0},
        "selective": {"type": "boolean"},
        "soft_full_gradient": {"type": "boolean"},
    },
    "required": ["family"],
    "additionalProperties": False,
}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "dataset": {
            "type": "object",
            "properties": {
                "manifest": {"type": "string"},
                "audio_root": {"type": "string"},
                "synthetic": {
                    "type": "object",
                    "properties": {
                        "n_classes": {"type": "integer", "minimum": 2},
                        "clips_per_class": {"type": "integer", "minimum": 2},
                        "clean_fraction": {"type": "number",
                                           "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                        "sample_rate": {"type": "integer", "minimum": 1},
                        "seed": {"type": "integer"},
                        "test_per_class": {"type": "integer", "minimum": 1},
                    },
                    "required": ["n_classes", "clips_per_class", "clean_fraction",
                                 "sample_rate", "seed"],
                    "additionalProperties": False,
                },
            },
            "additionalProperties": False,
        },
        "features": {
            "type": "object",
            "properties": {
                "sample_rate": {"type": "integer", "minimum": 1},
                "fft_size": {"type": "integer", "minimum": 2},
                "hop": {"type": "integer", "minimum": 1},
                "window": {"enum": ["hann"]},
                "n_mels": {"type": "integer", "minimum": 1},
                "fmin": {"type": "number", "minimum": 0},
                "fmax": {"type": "number", "exclusiveMinimum": 0},
                "log_floor": {"type": "number", "exclusiveMinimum": 0},
                "patch_seconds": {"type": "number", "exclusiveMinimum": 0},
                "cache_dir": {"type": "string"},
            },
            "additionalProperties": False,
        },
        "noise": {
            "type": "object",
            "properties": {
                "p_incorrect_oov": {"type": "number", "minimum": 0, "maximum": 1},
                "p_incomplete_oov": {"type": "number", "minimum": 0, "maximum": 1},
                "p_incorrect_iv": {"type": "number", "minimum": 0, "maximum": 1},
                "p_incomplete_iv": {"type": "number", "minimum": 0, "maximum": 1},
                "p_density": {"type": "number", "minimum": 0, "maximum": 1},
                "seed": {"type": "integer"},
            },
            "additionalProperties": False,
        },
        "train": {
            "type": "object",
            "properties": {
                "batch_size": {"type": "integer"},  # TrainConfig checks the range
                "initial_lr": {"type": "number", "exclusiveMinimum": 0},
                "plateau_window": {"type": "integer", "minimum": 1},
                "patience": {"type": "integer", "minimum": 1},
                "val_fraction": {"type": "number",
                                 "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                "max_epochs": {"type": "integer", "minimum": 1},
                "seed": {"type": "integer"},
                "n_runs": {"type": "integer", "minimum": 2},
                "subsets": {
                    "type": "array",
                    "items": {"enum": ["all", "noisy", "noisy_small", "clean"]},
                    "minItems": 1,
                },
                "losses": {"type": "array", "items": _LOSS_SCHEMA, "minItems": 1},
                "channels": {
                    "type": "array",
                    "items": {"type": "integer", "minimum": 1},
                    "minItems": 1,
                },
                "kernel_size": {"type": "integer", "minimum": 1},
            },
            "required": ["subsets", "losses"],
            "additionalProperties": False,
        },
        "output_dir": {"type": "string"},
    },
    "required": ["dataset", "features", "train", "output_dir"],
    "additionalProperties": False,
}


@dataclass
class ExperimentConfig:
    dataset: dict
    features: FeatureConfig
    cache_dir: str | None
    noise: NoiseSpec | None
    train: TrainConfig
    subsets: list[Subset]
    losses: list[LossConfig]
    n_runs: int
    output_dir: Path
    base_dir: Path = field(default_factory=Path)

    def resolve(self, path: str) -> Path:
        """Paths in a config file are taken relative to the file itself."""
        p = Path(path)
        return p if p.is_absolute() else self.base_dir / p


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return parse_config(raw, base_dir=path.parent)


def parse_config(raw: dict, base_dir: str | Path = ".") -> ExperimentConfig:
    try:
        jsonschema.validate(raw, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        where = "/".join(str(p) for p in exc.absolute_path) or "(root)"
        raise ConfigError(f"config invalid at {where}: {exc.message}") from exc

    dataset = raw["dataset"]
    if ("manifest" in dataset) == ("synthetic" in dataset):
        raise ConfigError("dataset section needs exactly one of 'manifest' or 'synthetic'")
    if "manifest" in dataset and "audio_root" not in dataset:
        raise ConfigError("dataset.audio_root is required with dataset.manifest")

    feat_kwargs = dict(raw["features"])
    cache_dir = feat_kwargs.pop("cache_dir", None)
    features = FeatureConfig(**feat_kwargs)

    noise = None
    if "noise" in raw:
        noise = NoiseSpec(**raw["noise"])

    train_raw = dict(raw["train"])
    subsets = [Subset(s) for s in train_raw.pop("subsets")]
    losses = [LossConfig.from_dict(d) for d in train_raw.pop("losses")]
    n_runs = train_raw.pop("n_runs", 7)
    if "channels" in train_raw:
        train_raw["channels"] = tuple(train_raw["channels"])
    try:
        train = TrainConfig(**train_raw, loss=losses[0])
    except ValueError as exc:
        raise ConfigError(f"config invalid at train: {exc}") from exc

    return ExperimentConfig(
        dataset=dataset,
        features=features,
        cache_dir=cache_dir,
        noise=noise,
        train=train,
        subsets=subsets,
        losses=losses,
        n_runs=n_runs,
        output_dir=Path(raw["output_dir"]),
        base_dir=Path(base_dir),
    )


def experiment_cells(
    subsets: list[Subset], losses: list[LossConfig]
) -> list[tuple[Subset, LossConfig]]:
    """The (subset, loss) grid actually run: robust losses are skipped on
    the clean subset, where there is no noisy data for them to act on."""
    cells = []
    for subset in subsets:
        for loss in losses:
            if subset is Subset.CLEAN and loss.family.value != "cce":
                continue
            cells.append((subset, loss))
    return cells

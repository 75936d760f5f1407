"""Command-line entry point.

Subcommands: ``synth-data``, ``features``, ``inject-noise``, ``run``,
``report``. Every command is driven by a JSON config, parsed by
``config.parse_config`` into the dataclasses that own its sections; flags
override individual keys. All outputs land under the config's
``output_dir`` and are deterministic given the config and its seeds. Exit
codes: 0 success, 1 config error, 2 data error, 3 numeric abort; a command
line that does not parse is a config error.
"""

from __future__ import annotations

import argparse
import dataclasses
import multiprocessing
import os
import sys
from pathlib import Path

from . import config as config_mod
from .audio_io import read_wav, write_wav
from .datasets import gen_synthetic_dataset, load_manifest, write_manifest
from .errors import ConfigError, DataError, NumericError
from .features import (
    extract_logmel,
    feature_cache_path,
    load_feature_cache,
    save_feature_cache,
)
from .fileio import atomic_csv_writer, atomic_write
from .layers import save_checkpoint
from .noise import corrupt_noisy_train, format_noise_report, noise_report
from .training import (
    run_experiment,
    write_history_csv,
    write_report_csv,
    read_report_csv,
)


def _load_dataset(cfg: config_mod.ExperimentConfig, decode: bool = True):
    """Returns (clips, manifest, distractor_pool), clips aligned with the
    records; with ``decode`` False, a manifest's clips are its WAVs' paths."""
    if "synthetic" in cfg.dataset:
        return gen_synthetic_dataset(**cfg.dataset["synthetic"])
    manifest = load_manifest(cfg.dataset["manifest"], cfg.dataset["audio_root"])
    clips = [read_wav(manifest.audio_path(rec), rec.clip_id) if decode
             else manifest.audio_path(rec) for rec in manifest.records]
    return clips, manifest, []


def _cache_dir(cfg: config_mod.ExperimentConfig) -> Path:
    """The config's cache_dir, else ``features`` under the output directory."""
    return cfg.cache_dir or cfg.output_dir / "features"


def cmd_synth_data(cfg: config_mod.ExperimentConfig, args) -> int:
    if "synthetic" not in cfg.dataset:
        raise ConfigError("synth-data requires a dataset.synthetic section")
    clips, manifest, _ = gen_synthetic_dataset(**cfg.dataset["synthetic"])
    out = cfg.output_dir
    for clip in clips:
        write_wav(out / "audio" / clip.clip_id, clip)
    write_manifest(manifest, out / "manifest.csv")
    print(f"wrote {len(clips)} clips, manifest with {len(manifest.records)} records to {out}")
    return 0


def _feature_job(item) -> tuple[Path | None, bool, str | None]:
    """Cache one clip's log-mel. A WAV is read and keyed here, in the
    worker, and extracted unless its file exists (or ``force``); an
    in-memory clip comes with its missing path. Returns (cache path,
    whether it was extracted, the message of an unreadable WAV)."""
    clip_id, source, path, cache_dir, feat_cfg, force = item
    if path is None:
        try:
            source = read_wav(source, clip_id)
        except DataError as exc:
            return None, False, str(exc)
        path = feature_cache_path(cache_dir, source, feat_cfg)
        if path.exists() and not force:
            return path, False, None
    save_feature_cache(path, extract_logmel(source, feat_cfg))
    return path, True, None


def _refresh_cache(sources: dict, cache_dir: Path, feat_cfg, jobs: int, force: bool):
    """Make sure every clip in ``sources`` (clip id -> the clip, or the WAV
    it is read from) has its file at feature_cache_path, with up to ``jobs``
    worker processes and no more than the CPUs; ``force`` extracts every
    clip. An in-memory clip is keyed here and goes to a worker only if its
    file is missing. Returns (clip id -> cache path, files extracted,
    messages of unreadable WAVs).
    """
    paths, todo = {}, []
    for clip_id, source in sources.items():
        path = None
        if not isinstance(source, Path):
            path = paths[clip_id] = feature_cache_path(cache_dir, source, feat_cfg)
            if path.exists() and not force:
                continue
        todo.append((clip_id, source, path, cache_dir, feat_cfg, force))
    workers = min(jobs, len(todo), os.cpu_count() or 1)
    if workers > 1:
        with multiprocessing.Pool(workers) as pool:
            results = pool.map(_feature_job, todo)
    else:
        results = [_feature_job(item) for item in todo]
    extracted, errors = 0, []
    for (clip_id, *_), (path, fresh, error) in zip(todo, results):
        if error:
            errors.append(error)
        else:
            paths[clip_id] = path
            extracted += fresh
    return paths, extracted, errors


def cmd_features(cfg: config_mod.ExperimentConfig, args) -> int:
    cache_dir = _cache_dir(cfg)
    clips, manifest, _ = _load_dataset(cfg, decode=False)
    sources = {rec.clip_id: clip for rec, clip in zip(manifest.records, clips)}
    paths, extracted, errors = _refresh_cache(sources, cache_dir, cfg.features, args.jobs,
                                              args.force)
    print(f"features: {extracted} computed, {len(paths) - extracted} up to date, "
          f"{len(errors)} failed -> {cache_dir}")
    for message in errors:
        print(f"error: {message}", file=sys.stderr)
    return 2 if errors else 0


def cmd_inject_noise(cfg: config_mod.ExperimentConfig, args) -> int:
    if cfg.noise is None:
        raise ConfigError("inject-noise requires a noise section")
    clips, manifest, pool = _load_dataset(cfg)
    new_clips, new_manifest, log = corrupt_noisy_train(
        clips, manifest, cfg.noise, pool, patch_seconds=cfg.features.patch_seconds)
    if log is None:
        raise DataError("dataset has no noisy-origin train records to corrupt")
    out = cfg.output_dir
    for clip in new_clips:
        write_wav(out / "audio" / clip.clip_id, clip)
    write_manifest(new_manifest, out / "manifest.csv")
    log.write_csv(out / "provenance.csv")
    report = noise_report(log)
    text = format_noise_report(report)
    with atomic_write(out / "noise_report.txt") as fh:
        fh.write((text + "\n").encode("utf-8"))
    print(text)
    print(f"wrote corrupted dataset ({len(log)} records logged) to {out}")
    return 0


def _remove_stale_runs(out: Path, cell: str, n_runs: int) -> None:
    """Delete the cell's history and checkpoint files of run indices
    n_runs and up, left by an earlier run with more runs."""
    for kind, suffix in (("history", ".csv"), ("checkpoint", ".nbc")):
        prefix = f"{kind}_{cell}_run"
        for path in out.glob(f"{prefix}*{suffix}"):
            index = path.name[len(prefix) : -len(suffix)]
            if index.isascii() and index.isdigit() and int(index) >= n_runs:
                path.unlink()


def cmd_run(cfg: config_mod.ExperimentConfig, args) -> int:
    if args.seed is not None:
        try:
            cfg.train = dataclasses.replace(cfg.train, seed=args.seed)
        except ValueError as exc:
            raise ConfigError(f"--seed: {exc}") from None
    clips, manifest, pool = _load_dataset(cfg)
    if cfg.noise is not None:
        clips, manifest, _ = corrupt_noisy_train(clips, manifest, cfg.noise, pool,
                                                 patch_seconds=cfg.features.patch_seconds)
    # Every clip is in memory, keyed here: a corrupted clip is another input.
    paths, _, _ = _refresh_cache({clip.clip_id: clip for clip in clips}, _cache_dir(cfg),
                                 cfg.features, args.jobs, args.force)
    features = {clip.clip_id: load_feature_cache(paths[clip.clip_id], clip.clip_id, cfg.features)
                for clip in clips}
    out = cfg.output_dir

    for cell, subset, loss in config_mod.experiment_cells(cfg.subsets, cfg.losses):
        cell_cfg = dataclasses.replace(cfg.train, subset=subset, loss=loss)

        def on_run(i, run_cfg, result, cell=cell):
            write_history_csv(result.history, out / f"history_{cell}_run{i}.csv")
            save_checkpoint(
                out / f"checkpoint_{cell}_run{i}.nbc",
                result.network,
                meta={"seed": run_cfg.seed, "epochs": len(result.history),
                      "accuracy": result.accuracy},
                extra_arrays={"standardizer_mean": result.standardizer.mean,
                              "standardizer_std": result.standardizer.std},
            )

        report = run_experiment(
            clips, manifest, cfg.features, cell_cfg,
            n_runs=cfg.n_runs, features=features, on_run=on_run,
        )
        write_report_csv(report, out / f"report_{cell}.csv")
        _remove_stale_runs(out, cell, cfg.n_runs)
        print(f"{cell}: {report.format_text()}  (runs: "
              + ", ".join(f"{a:.3f}" for a in report.accuracies) + ")")
    return 0


def cmd_report(cfg: config_mod.ExperimentConfig, args) -> int:
    """Summarize the report CSV of every cell the config lists, sorted by
    cell name."""
    out = cfg.output_dir
    cells = sorted(cell for cell, _, _ in config_mod.experiment_cells(cfg.subsets, cfg.losses))
    reports = [(cell, read_report_csv(out / f"report_{cell}.csv")) for cell in cells]
    print(f"{'cell':<40s} {'accuracy':>14s}")
    lines = [["cell", "mean", "ci95_halfwidth"]]
    for cell, data in reports:
        print(f"{cell:<40s} {100 * data['mean']:>8.1f}±{100 * data['ci95_halfwidth']:.1f}")
        lines.append([cell, f"{data['mean']:.6f}", f"{data['ci95_halfwidth']:.6f}"])
    with atomic_csv_writer(out / "summary.csv") as writer:
        writer.writerows(lines)
    return 0


# The flags a command may read besides --config and --output.
_FLAGS = {
    "--force": dict(action="store_true", help="extract every clip's features again"),
    "--jobs": dict(type=int, default=1, help="worker process cap for feature extraction; "
                                              "never more than the CPUs"),
    "--seed": dict(type=int, default=None, help="override the training seed from the config"),
}

# Each command: its function, its help and the _FLAGS it reads.
_COMMANDS = {
    "synth-data": (cmd_synth_data, "generate a deterministic synthetic dataset", ()),
    "features": (cmd_features, "extract and cache log-mel features", ("--force", "--jobs")),
    "inject-noise": (cmd_inject_noise, "corrupt noisy-origin labels per the noise spec", ()),
    "run": (cmd_run, "train and evaluate every (subset, loss) cell in the config",
            ("--force", "--jobs", "--seed")),
    "report": (cmd_report, "summarize the report CSVs of the config's cells", ()),
}


class _Parser(argparse.ArgumentParser):
    """Raises a usage error (a missing or unknown flag, a bad value) as a
    ConfigError, so it exits 1 like any other bad setting: argparse's own
    exit code 2 means a data error here. Subcommand parsers share the class."""

    def error(self, message):
        raise ConfigError(f"{message}\n{self.format_usage().rstrip()}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="noisebench",
        description="Sound event classification under label noise: data, "
                    "features, noise injection, training, reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--output", default=None,
                       help="override output_dir from the config; taken relative to "
                            "the working directory")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "jobs", 1) < 1:
            raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
        cfg = config_mod.load_config(args.config)
        if args.output:
            cfg.output_dir = Path(args.output)
        return _COMMANDS[args.command][0](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

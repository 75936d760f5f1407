"""Command-line entry point.

Subcommands: ``synth-data``, ``features``, ``inject-noise``, ``run``,
``report``. Every command is driven by a JSON config, parsed by
``config.parse_config`` into the dataclasses that own its sections; flags
override individual keys. All outputs land under the config's
``output_dir`` and are deterministic given the config and its seeds. Exit
codes: 0 success, 1 config error, 2 data error, 3 numeric abort.
"""

from __future__ import annotations

import argparse
import dataclasses
import multiprocessing
import sys
from pathlib import Path

from . import config as config_mod
from .audio_io import read_wav, write_wav
from .datasets import gen_synthetic_dataset, load_manifest, write_manifest
from .errors import ConfigError, DataError, NumericError
from .features import (
    extract_logmel,
    feature_cache_matches,
    load_feature_cache,
    save_feature_cache,
)
from .fileio import atomic_csv_writer
from .layers import save_checkpoint
from .noise import corrupt_noisy_train, format_noise_report, noise_report
from .plots import line_plot_svg
from .training import (
    run_experiment,
    write_history_csv,
    write_report_csv,
    read_report_csv,
)


def _load_dataset(cfg: config_mod.ExperimentConfig):
    """Returns (clips, manifest, distractor_pool)."""
    if "synthetic" in cfg.dataset:
        return gen_synthetic_dataset(**cfg.dataset["synthetic"])
    manifest = load_manifest(
        cfg.resolve(cfg.dataset["manifest"]), cfg.resolve(cfg.dataset["audio_root"])
    )
    clips = [
        read_wav(manifest.audio_root / rec.clip_id, rec.clip_id)
        for rec in manifest.records
    ]
    return clips, manifest, []


def _apply_noise(cfg, clips, manifest, pool):
    return corrupt_noisy_train(clips, manifest, cfg.noise, pool,
                               patch_seconds=cfg.features.patch_seconds)


def cmd_synth_data(cfg: config_mod.ExperimentConfig, args) -> int:
    if "synthetic" not in cfg.dataset:
        raise ConfigError("synth-data requires a dataset.synthetic section")
    clips, manifest, distractors = gen_synthetic_dataset(**cfg.dataset["synthetic"])
    out = Path(args.output or cfg.output_dir)
    audio_dir = out / "audio"
    for clip in clips:
        write_wav(audio_dir / clip.clip_id, clip)
    for clip in distractors:
        write_wav(out / "distractors" / clip.clip_id, clip)
    manifest.audio_root = audio_dir
    write_manifest(manifest, out / "manifest.csv")
    print(f"wrote {len(clips)} clips, {len(distractors)} distractors, "
          f"manifest with {len(manifest.records)} records to {out}")
    return 0


def _cache_path(cache_dir: Path, clip_id: str) -> Path:
    return cache_dir / (Path(clip_id).stem + ".lmf")


def _feature_job(item):
    clip, cache_path, feat_cfg = item
    save_feature_cache(cache_path, extract_logmel(clip, feat_cfg))


def cmd_features(cfg: config_mod.ExperimentConfig, args) -> int:
    cache_dir = Path(cfg.resolve(cfg.cache_dir) if cfg.cache_dir
                     else Path(args.output or cfg.output_dir) / "features")
    cache_dir.mkdir(parents=True, exist_ok=True)

    jobs: list[tuple] = []
    errors: list[str] = []
    skipped = 0
    if "synthetic" in cfg.dataset:
        clips, _, _ = gen_synthetic_dataset(**cfg.dataset["synthetic"])
        for clip in clips:
            cache_path = _cache_path(cache_dir, clip.clip_id)
            if not args.force and feature_cache_matches(cache_path, cfg.features):
                skipped += 1
                continue
            jobs.append((clip, cache_path, cfg.features))
    else:
        manifest = load_manifest(
            cfg.resolve(cfg.dataset["manifest"]), cfg.resolve(cfg.dataset["audio_root"])
        )
        for rec in manifest.records:
            wav_path = manifest.audio_root / rec.clip_id
            cache_path = _cache_path(cache_dir, rec.clip_id)
            if (
                not args.force
                and wav_path.exists()
                and feature_cache_matches(cache_path, cfg.features)
                and cache_path.stat().st_mtime >= wav_path.stat().st_mtime
            ):
                skipped += 1
                continue
            try:
                clip = read_wav(wav_path, rec.clip_id)
            except DataError as exc:
                errors.append(str(exc))
                continue
            jobs.append((clip, cache_path, cfg.features))

    if args.jobs > 1 and len(jobs) > 1:
        with multiprocessing.Pool(min(args.jobs, len(jobs))) as pool:
            pool.map(_feature_job, jobs)
    else:
        for job in jobs:
            _feature_job(job)
    print(f"features: {len(jobs)} computed, {skipped} up to date, "
          f"{len(errors)} failed -> {cache_dir}")
    for message in errors:
        print(f"error: {message}", file=sys.stderr)
    return 2 if errors else 0


def cmd_inject_noise(cfg: config_mod.ExperimentConfig, args) -> int:
    if cfg.noise is None:
        raise ConfigError("inject-noise requires a noise section")
    clips, manifest, pool = _load_dataset(cfg)
    new_clips, new_manifest, log = _apply_noise(cfg, clips, manifest, pool)
    if log is None:
        raise DataError("dataset has no noisy-origin train records to corrupt")
    out = Path(args.output or cfg.output_dir)
    audio_dir = out / "audio"
    for clip in new_clips:
        write_wav(audio_dir / clip.clip_id, clip)
    new_manifest.audio_root = audio_dir
    write_manifest(new_manifest, out / "manifest.csv")
    log.write_csv(out / "provenance.csv")
    report = noise_report(log)
    text = format_noise_report(report)
    (out / "noise_report.txt").write_text(text + "\n", encoding="utf-8")
    print(text)
    print(f"wrote corrupted dataset ({len(log)} records logged) to {out}")
    return 0


def _load_features(cfg, clips, uncached=frozenset()):
    """Per-clip log-mels, from the cache directory when a file there matches
    the feature config; missing or stale files are computed and written.

    Clips named in ``uncached`` are extracted fresh and their cache files
    neither read nor written: the cache is keyed by clip id alone, so it
    cannot tell corrupted audio from the clean clip of the same id.
    """
    features = {}
    cache_dir = Path(cfg.resolve(cfg.cache_dir)) if cfg.cache_dir else None
    for clip in clips:
        cache_path = None
        if cache_dir is not None and clip.clip_id not in uncached:
            cache_path = _cache_path(cache_dir, clip.clip_id)
        if cache_path is not None and feature_cache_matches(cache_path, cfg.features):
            features[clip.clip_id] = load_feature_cache(cache_path, clip.clip_id)
        else:
            matrix = extract_logmel(clip, cfg.features)
            if cache_path is not None:
                save_feature_cache(cache_path, matrix)
                matrix = load_feature_cache(cache_path, clip.clip_id)
            features[clip.clip_id] = matrix
    return features


def cmd_run(cfg: config_mod.ExperimentConfig, args) -> int:
    clips, manifest, pool = _load_dataset(cfg)
    corrupted = set()
    if cfg.noise is not None:
        noisy_clips, manifest, _ = _apply_noise(cfg, clips, manifest, pool)
        corrupted = {new.clip_id for old, new in zip(clips, noisy_clips) if new is not old}
        clips = noisy_clips
    features = _load_features(cfg, clips, corrupted)
    out = Path(args.output or cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    train_cfg = cfg.train
    if args.seed is not None:
        train_cfg = dataclasses.replace(train_cfg, seed=args.seed)

    curve_series = []
    for subset, loss in config_mod.experiment_cells(cfg.subsets, cfg.losses):
        cell = f"{subset.value}_{loss.label()}"
        cell_cfg = dataclasses.replace(train_cfg, subset=subset, loss=loss)
        histories = {}

        def on_run(i, run_cfg, result, cell=cell, histories=histories):
            histories[i] = result.history
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
        history = histories[0]
        curve_series.append(
            (cell, [h.epoch for h in history], [h.val_accuracy for h in history])
        )
        print(f"{cell}: {report.format_text()}  (runs: "
              + ", ".join(f"{a:.3f}" for a in report.accuracies) + ")")
    line_plot_svg(out / "val_accuracy.svg", curve_series,
                  title="validation accuracy (run 0)",
                  xlabel="epoch", ylabel="clip accuracy")
    return 0


def cmd_report(cfg: config_mod.ExperimentConfig, args) -> int:
    out = Path(args.output or cfg.output_dir)
    reports = sorted(out.glob("report_*.csv"))
    if not reports:
        raise DataError(f"no report CSVs found under {out}")
    print(f"{'cell':<40s} {'accuracy':>14s}")
    lines = [["cell", "mean", "ci95_halfwidth"]]
    for path in reports:
        data = read_report_csv(path)
        cell = path.stem.removeprefix("report_")
        print(f"{cell:<40s} {100 * data['mean']:>8.1f}±{100 * data['ci95_halfwidth']:.1f}")
        lines.append([cell, f"{data['mean']:.6f}", f"{data['ci95_halfwidth']:.6f}"])
    with atomic_csv_writer(out / "summary.csv") as writer:
        writer.writerows(lines)
    return 0


_COMMANDS = {
    "synth-data": cmd_synth_data,
    "features": cmd_features,
    "inject-noise": cmd_inject_noise,
    "run": cmd_run,
    "report": cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noisebench",
        description="Sound event classification under label noise: data, "
                    "features, noise injection, training, reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    help_text = {
        "synth-data": "generate a deterministic synthetic dataset",
        "features": "extract and cache log-mel features",
        "inject-noise": "corrupt noisy-origin labels per the noise spec",
        "run": "train and evaluate every (subset, loss) cell in the config",
        "report": "summarize report CSVs from a previous run",
    }
    for name in _COMMANDS:
        p = sub.add_parser(name, help=help_text[name])
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--force", action="store_true",
                       help="recompute outputs that look up to date")
        p.add_argument("--jobs", type=int, default=1, help="worker process cap")
        p.add_argument("--seed", type=int, default=None,
                       help="override the training seed from the config")
        p.add_argument("--output", default=None,
                       help="override output_dir from the config")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.jobs < 1:
            raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
        cfg = config_mod.load_config(args.config)
        return _COMMANDS[args.command](cfg, args)
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

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
    feature_cache_path,
    load_feature_cache,
    save_feature_cache,
)
from .fileio import atomic_csv_writer, atomic_write
from .layers import save_checkpoint
from .noise import corrupt_noisy_train, format_noise_report, noise_report
from .plots import line_plot_svg
from .training import (
    run_experiment,
    write_history_csv,
    write_report_csv,
    read_report_csv,
)


def _load_dataset(cfg: config_mod.ExperimentConfig, decode: bool = True):
    """Returns (clips, manifest, distractor_pool). With ``decode`` False, a
    manifest's WAV files are not read and ``clips`` is empty."""
    if "synthetic" in cfg.dataset:
        return gen_synthetic_dataset(**cfg.dataset["synthetic"])
    manifest = load_manifest(
        cfg.resolve(cfg.dataset["manifest"]), cfg.resolve(cfg.dataset["audio_root"])
    )
    clips = [
        read_wav(manifest.audio_root / rec.clip_id, rec.clip_id)
        for rec in manifest.records
    ] if decode else []
    return clips, manifest, []


def _cache_sources(cfg: config_mod.ExperimentConfig, manifest, clips) -> dict:
    """Clip id -> what its log-mel is extracted from: the clip itself for a
    synthetic dataset, else the WAV file it is read from."""
    if "synthetic" in cfg.dataset:
        return {clip.clip_id: clip for clip in clips}
    return {rec.clip_id: manifest.audio_root / rec.clip_id for rec in manifest.records}


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


def _feature_job(item) -> str | None:
    """Extract one clip's log-mel into its cache file, reading a WAV source
    here, in the worker. Returns the message of an unreadable WAV."""
    clip_id, source, cache_path, feat_cfg = item
    if isinstance(source, Path):
        try:
            source = read_wav(source, clip_id)
        except DataError as exc:
            return str(exc)
    save_feature_cache(cache_path, extract_logmel(source, feat_cfg))
    return None


def _refresh_cache(sources: dict, cache_dir: Path, feat_cfg, jobs: int, force: bool):
    """Bring the cache file of every clip in ``sources`` (see _cache_sources)
    up to date, with up to ``jobs`` worker processes.

    A file is recomputed when ``force`` is set or feature_cache_matches
    rejects it, a clip read from a WAV file being checked against that
    file. Returns (clip id -> cache path, number of files recomputed or
    failed, messages of the WAVs that could not be read).
    """
    paths, stale = {}, []
    for clip_id, source in sources.items():
        path = paths[clip_id] = feature_cache_path(cache_dir, clip_id)
        wav = source if isinstance(source, Path) else None
        if force or not feature_cache_matches(path, feat_cfg, wav):
            stale.append((clip_id, source, path, feat_cfg))
    if jobs > 1 and len(stale) > 1:
        with multiprocessing.Pool(min(jobs, len(stale))) as pool:
            errors = pool.map(_feature_job, stale)
    else:
        errors = [_feature_job(item) for item in stale]
    return paths, len(stale), [message for message in errors if message]


def cmd_features(cfg: config_mod.ExperimentConfig, args) -> int:
    cache_dir = (cfg.resolve(cfg.cache_dir) if cfg.cache_dir
                 else Path(args.output or cfg.output_dir) / "features")
    clips, manifest, _ = _load_dataset(cfg, decode=False)
    paths, n_stale, errors = _refresh_cache(_cache_sources(cfg, manifest, clips), cache_dir,
                                            cfg.features, args.jobs, args.force)
    print(f"features: {n_stale - len(errors)} computed, {len(paths) - n_stale} up to date, "
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
    with atomic_write(out / "noise_report.txt") as fh:
        fh.write((text + "\n").encode("utf-8"))
    print(text)
    print(f"wrote corrupted dataset ({len(log)} records logged) to {out}")
    return 0


def _load_features(cfg, clips, sources: dict, args):
    """Per-clip log-mels. Clips in ``sources`` are read from their cache
    files, which _refresh_cache brings up to date first; any other clip is
    extracted here, and no cache file of it is read or written."""
    cache_dir = cfg.resolve(cfg.cache_dir) if cfg.cache_dir else None
    paths, _, errors = _refresh_cache(sources, cache_dir, cfg.features, args.jobs, args.force)
    if errors:
        raise DataError(errors[0])
    return {
        clip.clip_id: load_feature_cache(paths[clip.clip_id], clip.clip_id)
        if clip.clip_id in paths else extract_logmel(clip, cfg.features)
        for clip in clips
    }


def cmd_run(cfg: config_mod.ExperimentConfig, args) -> int:
    clips, manifest, pool = _load_dataset(cfg)
    sources = _cache_sources(cfg, manifest, clips) if cfg.cache_dir else {}
    if cfg.noise is not None:
        noisy_clips, manifest, _ = _apply_noise(cfg, clips, manifest, pool)
        # The cache is keyed by clip id, which a corrupted clip keeps: a clip
        # whose audio the injector changed bypasses it.
        for old, new in zip(clips, noisy_clips):
            if new is not old:
                sources.pop(new.clip_id, None)
        clips = noisy_clips
    features = _load_features(cfg, clips, sources, args)
    out = Path(args.output or cfg.output_dir)

    curve_series = []
    for subset, loss in config_mod.experiment_cells(cfg.subsets, cfg.losses):
        cell = f"{subset.value}_{loss.label()}"
        cell_cfg = dataclasses.replace(cfg.train, subset=subset, loss=loss)
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
        p.add_argument("--jobs", type=int, default=1,
                       help="worker process cap for feature extraction")
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
        if args.seed is not None:
            try:
                cfg.train = dataclasses.replace(cfg.train, seed=args.seed)
            except ValueError as exc:
                raise ConfigError(f"--seed: {exc}") from None
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

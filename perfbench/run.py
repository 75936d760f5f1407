"""noisebench benchmark driver.

    python3 perfbench/run.py --workload desk_cell --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

Runs one workload in this process against the package in ``src/`` of the
checkout this file sits in, with one BLAS thread per available core, and
prints every metric by name and unit. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``). The exit code is 0 only when every output check passed.

``--trace 1`` measures half the seconds untraced, then half with every
public noisebench function and layer method wrapped; the ratio of the two
medians per operation is ``trace.overhead_pct``. ``--workload all`` runs
each workload in its own process, so each peak RSS is its own.

Results and spans go to ``.perfbench_out/`` in the checkout; scratch files
go to ``.perfbench_work/`` and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORK = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("desk_cell", "paper_net", "ingest")
# Set-ups per run; setup_s is their median.
SETUP_REPS = 3


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_package():
    """Import noisebench from this checkout's src/ and nowhere else."""
    if not (SRC / "noisebench" / "__init__.py").is_file():
        raise SystemExit(f"error: no noisebench package under {SRC}")
    # BLAS reads its thread count when numpy is first imported.
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    sys.path.insert(0, str(SRC))
    import noisebench

    if Path(noisebench.__file__).resolve().parent != (SRC / "noisebench").resolve():
        raise SystemExit(f"error: imported noisebench from {noisebench.__file__}, not {SRC}")


def run_one(name: str, seed: int, seconds: float, trace: bool, sizes=None,
            workdir: Path | None = None) -> dict:
    """Set up and measure one workload in this process; returns the result
    record (metrics, named metrics, facts, problems, spans)."""
    import metrics
    import spans
    from workloads import WORKLOADS, input_digest

    setup, measure, default_sizes = WORKLOADS[name]
    sizes = sizes or default_sizes
    workdir = workdir or WORK / f"{name}-{os.getpid()}"
    tracer = spans.Tracer()
    try:
        setup_times, state = [], None
        for rep in range(SETUP_REPS):
            state = None  # drop the previous set-up before building the next
            if workdir.exists():
                shutil.rmtree(workdir)
            if trace and rep == SETUP_REPS - 1:
                spans.install(tracer)
            try:
                t0 = perf_counter()
                state = setup(seed, sizes, workdir)
                setup_times.append(perf_counter() - t0)
            finally:
                tracer.uninstall()
        digest = input_digest(state)
        if trace:
            base = measure(state, seconds / 2)
            spans.install(tracer, state.networks)
            t0 = perf_counter()
            try:
                outcome = measure(state, seconds / 2)
            finally:
                tracer.uninstall()
            traced_wall = perf_counter() - t0
            overhead = 100.0 * (median(outcome.op_times) / median(base.op_times) - 1.0)
            values = metrics.per_layer(tracer.spans, overhead)
            units = {n: u for n, u, _ in metrics.PER_LAYER}
            for key in ("attempted", "failed"):
                setattr(outcome, key, getattr(base, key) + getattr(outcome, key))
            outcome.problems = base.problems + outcome.problems
            shares = metrics.self_time_shares(tracer.spans, t0, traced_wall)
            attribution = metrics.attribution(tracer.spans)
        else:
            outcome = measure(state, seconds)
            phase1, phase2 = metrics.PHASE_NAMES[name]
            values = {
                "setup_s": median(setup_times),
                "op_s": median(outcome.op_times),
                "phase1_per_s": outcome.named[phase1][0],
                "phase2_per_s": outcome.named[phase2][0],
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = {n: u for n, u, _ in metrics.END_TO_END}
            outcome.named["setup_s"] = (values["setup_s"], "s")
            outcome.named["peak_rss_mb"] = (values["peak_rss_mb"], "MB")
            shares, attribution = [], {}
    finally:
        state = None
        if workdir.exists():
            shutil.rmtree(workdir)
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "facts": metrics.machine_facts(),
        "input_digest": digest,
        "setup_times_s": setup_times,
        "named": {k: {"value": v, "unit": u} for k, (v, u) in outcome.named.items()},
        "op_times_s": outcome.op_times,
        "self_time_shares": shares,
        "attribution": attribution,
        "problems": outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
        "spans": tracer.spans if trace else [],
    }


def _report(result: dict) -> None:
    print(f"facts {json.dumps(result['facts'])}")
    print(f"workload {result['workload']} seed {result['seed']} "
          f"seconds {result['seconds']:g} trace {result['trace']} "
          f"inputs {result['input_digest']}")
    for key, m in result["named"].items():
        print(f"  {key:<34} {m['value']:>14.6g} {m['unit']}")
    rate = result["failed"] / max(result["attempted"], 1)
    print(f"  {'op_error_rate':<34} {rate:>14.6g} ratio "
          f"({result['failed']} of {result['attempted']} operations failed)")
    for key, m in result["metrics"].items():
        print(f"  metric {key:<27} {m['value']:>14.6g} {m['unit']}")
    for name, share in result["attribution"].items():
        print(f"  share of {name:<40} {100 * share:6.1f}%")
    for name, share in result["self_time_shares"]:
        print(f"  self-time share {name:<40} {100 * share:6.1f}%")
    for problem in result["problems"]:
        print(f"  CHECK FAILED: {problem}")


def _save(result: dict) -> None:
    OUT.mkdir(exist_ok=True)
    stem = f"{result['workload']}-seed{result['seed']}-trace{result['trace']}"
    record = {k: v for k, v in result.items() if k != "spans"}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if result["trace"]:
        import spans

        spans.write_jsonl(result["spans"], OUT / f"{stem}.spans.jsonl")


def _run_all(args) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return _run_all(args)
    _import_package()
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    _report(result)
    _save(result)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

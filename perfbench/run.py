"""Benchmark of the axisphere package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The seed gives the workload's item list.
The run measures that list in passes, each in a fresh worker process
(``worker.py``): as many whole passes as fit in ``S`` seconds, and at least
``MIN_PASSES``.  Set-up time and peak memory belong to each pass's process.

Every time is reported at a fixed host speed.  The shared host runs the
same work 15% faster or slower from one minute to the next, so the worker
times a fixed reference computation beside the items, and each time is
multiplied by ``REFERENCE_S`` over the reference time measured beside it.
An item's time is then the median over the passes, and set-up time the
median over the pass processes.  The details lines give the times as
measured as well.

With ``--trace 0`` the last line of standard output is a JSON object holding
every end-to-end metric named in ``BENCHMARK.json``; with ``--trace 1`` it
holds every per-layer metric instead.  The lines before it give the run's
details: the sample counts behind each statistic, the failure fraction,
failed checks, and the Python, numpy and scipy versions, nproc and CPU.
Without the package sources under ``src/`` the benchmark exits with code 2
and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().parent / "worker.py"
MIN_PASSES = {0: 3, 1: 1}  # by --trace; a traced pass runs the list twice
RUN_LIMIT_S = 170.0  # every process this run starts ends by then
MAX_FAILURES_SHOWN = 20
# Times are reported at the host speed at which worker.reference() takes
# REFERENCE_S, about its median on a 2 vCPU Xeon VM: the shared host's speed
# drifts by 15% and more over minutes, and the reference drifts with it.
REFERENCE_S = 0.0085
REFERENCE_WINDOW_S = 0.5
# One BLAS thread: the arrays are small, and with a pool of two the L-BFGS-B
# calls of dipole-relax keep a second thread spinning (4.6 s wall and 8.1 s
# CPU for a block that takes 3.7 s on one thread, on 2 CPUs).
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def _spawn(args: list[str], workdir: Path, deadline: float) -> tuple[float, dict]:
    """Run the worker; return its spawn time and its JSON report."""
    spawned = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args, "--workdir", str(workdir)],
                              cwd=ROOT, env={**os.environ, **WORKER_ENV},
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker still running after {exc.timeout:.0f} s; stopped") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)  # the worker's own clean-up is skipped if killed
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}:\n{proc.stderr[-4000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no report")
    return spawned, json.loads(lines[-1])


def tail_stat(times: list[float], fewest: int) -> tuple[float, float]:
    """The highest percentile that leaves ten samples beyond it among the
    ``fewest`` samples every run takes, and its value over ``times`` (nearest
    rank); the maximum when ``fewest`` is ten or less.  The percentile
    depends on the workload alone, so runs that make different numbers of
    passes report the same percentile."""
    ordered = sorted(times)
    if fewest <= 10:
        return 100.0, ordered[-1]
    pct = 100.0 * (fewest - 10) / fewest
    return pct, ordered[math.ceil(pct / 100.0 * len(ordered)) - 1]


def near_reference(references: list, start: float, end: float) -> float:
    """The median time of the reference runs within ``REFERENCE_WINDOW_S``
    of the span from ``start`` to ``end``, or of the nearest one."""
    near = [took for mid, took in references
            if start - REFERENCE_WINDOW_S <= mid <= end + REFERENCE_WINDOW_S]
    if not near:
        near = [min(references, key=lambda ref: abs(ref[0] - (start + end) / 2))[1]]
    return statistics.median(near)


def item_times(reports: list[dict]) -> list[list[float]]:
    """The item times of each pass, at reference speed."""
    return [[t * REFERENCE_S / near_reference(r["references"], *span)
             for t, span in zip(r["item_s"], r["item_span"])]
            for r in reports]


def item_medians(passes: list[list[float]]) -> list[float]:
    """Each item's median time over the passes.  Every pass runs the list in
    the same order, so column i is item i."""
    return [statistics.median(times) for times in zip(*passes)]


def run_passes(args: argparse.Namespace) -> list[dict]:
    """Run whole passes until the next one would end after ``args.seconds``."""
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    workdir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed), "--trace", str(args.trace)]
    reports = []
    while True:
        index = len(reports)
        spawned, report = _spawn(common + ["--pass-index", str(index)],
                                 workdir.with_name(f"{workdir.name}-{index}"), deadline)
        report["setup_s"] = report["ready"] - spawned
        reports.append(report)
        now = time.perf_counter()
        next_end = now + (now - spawned)  # if the next pass takes as long as this one
        if len(reports) >= MIN_PASSES[args.trace] and next_end - start > args.seconds:
            return reports


def _terminated(signum, frame):
    # unwinds through subprocess.run, which kills and reaps the running worker
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _terminated)
    ap = argparse.ArgumentParser(description="axisphere benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "axisphere" / "__init__.py").is_file():
        print(f"error: no axisphere sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    try:
        reports = run_passes(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    passes = item_times(reports)
    item_s = item_medians(passes)
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    env = reports[0]["env"]
    print(f"workload {args.workload}, seed {args.seed}: {len(reports)} passes of "
          f"{len(item_s)} items, {attempted} items attempted, {failed} failed "
          f"(fail_frac {failed / attempted:.4g})")
    print(f"python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"nproc {env['nproc']}, BLAS threads {env['blas_threads']}, cpu {env['cpu']}")
    for failure in [f for r in reports for f in r["failures"]][:MAX_FAILURES_SHOWN]:
        print(f"FAILED {failure}")

    if args.trace:
        # means over the traced passes, so that shares of a pass add up
        metrics = {key: statistics.fmean(r["layers"][key] for r in reports)
                   for key in reports[0]["layers"]}
        pass_s = metrics["trace.pass_s"] = statistics.fmean(r["traced_s"] for r in reports)
        untraced = metrics["trace.untraced_pass_s"] = statistics.fmean(
            r["untraced_s"] for r in reports)
        metrics["trace.overhead_s"] = pass_s - untraced
        print(f"tracing: {sum(r['spans'] for r in reports)} spans written to "
              f"{', '.join(r['trace_file'] for r in reports)}; mean pass {pass_s:.4f} s "
              f"traced, {untraced:.4f} s untraced, overhead {pass_s - untraced:+.4f} s")
        if reports[0]["missing"]:
            print(f"not traced (not found): {', '.join(reports[0]['missing'])}")
        busy = {k[:-len('.busy_s')]: v for k, v in metrics.items() if k.endswith(".busy_s")}
        for name, value in sorted(busy.items(), key=lambda kv: -kv[1])[:6]:
            print(f"  {name}: {value:.4f} s per pass ({value / pass_s:.1%} of the traced pass)")
    else:
        samples = [t for times in passes for t in times]
        pct, tail = tail_stat(samples, len(item_s) * MIN_PASSES[0])
        metrics = {
            "wall_s": sum(item_s),
            "setup_s": statistics.median(r["setup_s"] * REFERENCE_S / r["setup_reference_s"]
                                         for r in reports),
            "item_p50_s": statistics.median(samples),
            "item_tail_s": tail,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
        }
        raw = [sum(r["item_s"]) for r in reports]
        references = [took for r in reports for _, took in r["references"]]
        print(f"times at reference speed: each time times {REFERENCE_S} s over the reference "
              f"time beside it; wall_s: sum over {len(item_s)} items of each one's median over "
              f"{len(reports)} passes; item_p50_s and item_tail_s (p{pct:.1f}): "
              f"{len(samples)} item times; setup_s and peak_rss_mb: medians over "
              f"{len(reports)} processes")
        print(f"as measured: the list took {statistics.median(raw):.4f} s (median of "
              f"{', '.join(f'{t:.4f}' for t in raw)}); the reference took "
              f"{statistics.median(references):.5f} s (median), set-up "
              f"{statistics.median(r['setup_s'] for r in reports):.4f} s (median)")

    names = [m["name"] for m in declared]
    if sorted(metrics) != sorted(names):
        print(f"error: metrics {sorted(set(metrics) ^ set(names))} do not match BENCHMARK.json",
              file=sys.stderr)
        return 1
    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

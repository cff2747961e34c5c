"""One pass of one benchmark workload, in a process of its own.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 \
        --workdir DIR --pass-index P

The worker imports the package, writes the workload's item list under
``--workdir`` and notes the time the inputs are ready.  It then runs the list
once and checks every item.  Right after set-up, and between items for
about ``REFERENCE_SHARE`` of the items' time, it times ``reference()``, a
fixed computation that does not use the package, so that ``run.py`` can
tell how fast the shared host ran the set-up and each item.  With ``--trace 1`` it runs the list twice,
untraced and traced, the untraced run first on even passes, so the
difference is the tracing overhead.  The last line of standard output is a
JSON report for ``run.py``, which also removes the work directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import workloads  # noqa: I001  (puts the package sources on sys.path)
from tracing import Tracer

import numpy as np
import scipy

MAX_FAILURES_SHOWN = 20
REFERENCE_SHARE = 0.03  # reference runs take about this share of the item time
REFERENCE_LOOPS = 600  # about 8 ms on a 2 vCPU Xeon VM


def reference() -> float:
    """The time of a fixed computation that does not use the package: Python
    loops over small arrays and lists, the mix the package's solvers spend
    their time in.  The shared host slows it as much as it slows them."""
    start = time.perf_counter()
    x = np.linspace(0.0, 1.0, 512)
    acc = 0.0
    for _ in range(REFERENCE_LOOPS):
        acc += float(np.cumsum(x)[-1])
        acc += sum(sorted([(j * 7919) % 512 / 512.0 for j in range(40)]))
    return time.perf_counter() - start


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(), "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
    }


class Run:
    """Timings and check outcomes of the items run so far."""

    def __init__(self) -> None:
        self.item_s: list[float] = []  # untraced item times, in run order
        self.item_span: list[tuple[float, float]] = []  # their start and end
        self.references: list[tuple[float, float]] = []  # (midpoint, time) of each reference run
        self.attempted = 0
        self.failures: list[str] = []
        self.failed = 0
        self.next_item = 0

    def run_items(self, items: list, tracer: Tracer | None = None) -> float:
        """Run the items once, traced if a tracer is given; return the sum
        of their times.  The checks run after the clock and the tracer
        have stopped, so neither counts them."""
        times, spans, outcomes = [], [], []
        reference_total, item_total = self._reference(), 0.0
        if tracer is not None:
            tracer.install()
        try:
            for item in items:
                if tracer is not None:
                    tracer.item = self.next_item
                self.next_item += 1
                t0 = time.perf_counter()
                try:
                    outcome = workloads.run_item(item)
                except Exception as exc:  # an item that raises is a failure, not the end of the run
                    outcome = exc
                t1 = time.perf_counter()
                times.append(t1 - t0)
                spans.append((t0, t1))
                outcomes.append(outcome)
                item_total += t1 - t0
                while reference_total < REFERENCE_SHARE * item_total:
                    reference_total += self._reference()
        finally:
            if tracer is not None:
                tracer.uninstall()
        self._reference()
        for item, outcome in zip(items, outcomes):
            if isinstance(outcome, Exception):
                reasons = [f"raised {type(outcome).__name__}: {outcome}"]
            else:
                reasons = workloads.check_item(item, outcome)
            self.attempted += 1
            if reasons:
                self.failed += 1
                if len(self.failures) < MAX_FAILURES_SHOWN:
                    self.failures.append(f"{item.label()}: {'; '.join(reasons)}")
        if tracer is None:
            self.item_s += times
            self.item_span += spans
        return sum(times)

    def _reference(self) -> float:
        start = time.perf_counter()
        took = reference()
        self.references.append((start + took / 2, took))
        return took


def measure(workload: workloads.Workload, seed: int, trace: bool, pass_index: int,
            items: list) -> dict:
    run = Run()
    report = {}
    if trace:
        tracer = Tracer()
        if pass_index % 2 == 0:
            # alternate which run of the list goes first, so that warm-up
            # effects do not count as tracing overhead
            untraced = run.run_items(items)
            traced = run.run_items(items, tracer)
        else:
            traced = run.run_items(items, tracer)
            untraced = run.run_items(items)
        trace_dir = workloads.SRC.parent / ".perfbench"
        trace_dir.mkdir(exist_ok=True)
        trace_file = trace_dir / f"spans-{workload.name}-seed{seed}-pass{pass_index}.csv.gz"
        tracer.write(trace_file)
        report.update(layers=tracer.metrics(), traced_s=traced, untraced_s=untraced,
                      spans=tracer.spans, missing=tracer.missing,
                      trace_file=str(trace_file.relative_to(workloads.SRC.parent)))
    else:
        run.run_items(items)
    report.update(
        item_s=run.item_s, item_span=run.item_span, references=run.references,
        attempted=run.attempted, failed=run.failed, failures=run.failures,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    )
    return report


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--pass-index", type=int, default=0)
    args = ap.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    items = workloads.make_list(workload, args.seed, args.workdir)
    report = {"ready": time.perf_counter(),
              "setup_reference_s": sorted(reference() for _ in range(3))[1]}
    report.update(measure(workload, args.seed, bool(args.trace), args.pass_index, items))
    report["env"] = environment()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

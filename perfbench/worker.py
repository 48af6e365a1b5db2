"""One workload in one process: timed executions, checks, probe and spans.

Started by run.py with BLAS pinned to one thread; prints one JSON line.
With --trace 0 it reports wall_s and peak_rss_mb.  With --trace 1 it first
runs untraced for half the time, then traced for the other half, and reports
the per-layer metrics of the traced executions and the difference between
the two halves' wall_s.

wall_s is the time one execution takes when every scenario in it runs as
fast as it ran at its best in this process: the sum, over the execution's
scenario runs, of that scenario's fastest time in the phase.  On a 2-vCPU
Xeon VM of a shared host, other tenants slowed the vCPUs by up to ~40% for
seconds at a time, and how much of a run they took varied from run to run:
the median execution time of a 30 s run of ``bundled`` spread by 20-35% of
itself between runs, the sum of its scenarios' fastest times by ~5%.  A change to the library moves every
run of a scenario, the fastest included.  The median execution time is kept
in the worker's info as ``median_wall_s``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CATALOG_LOADS = 5


def _import_library():
    sys.path.insert(0, str(SRC))
    import latentidm.runner as runner

    if not Path(runner.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"latentidm imported from {runner.__file__}, not from {SRC}")
    return runner


runner = _import_library()

import probe  # noqa: E402  (needs the library on sys.path)
import spans  # noqa: E402
import workloads  # noqa: E402


class Checker:
    """Counts operations and failures; a report must match the first of its key."""

    def __init__(self, workload: workloads.Workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.first_text: dict[str, str] = {}
        self.first_report: dict[str, dict] = {}

    def record(self, op: workloads.Op, outcome) -> None:
        self.attempted += 1
        if isinstance(outcome, Exception):
            found = [f"raised {type(outcome).__name__}: {outcome}"]
        else:
            try:
                found = workloads.problems(self.workload, op, outcome)
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                found = [f"report does not have the expected shape: {exc!r}"]
            text = workloads.canonical(outcome)
            if self.first_text.setdefault(op.key, text) != text:
                found.append("report differs from the first run of this scenario")
            self.first_report.setdefault(op.key, outcome)
        if found:
            self.failed += 1
            for problem in found:
                print(f"check failed: {op.key}: {problem}", file=sys.stderr)


def execute(workload: workloads.Workload, tracer: spans.Tracer | None, fastest: dict[str, float]):
    """Parse, run and serialize every op once; returns outcomes and wall time.

    Lowers ``fastest[op.key]`` to the op's time when this run was faster.
    """
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    outcomes = []
    started = time.perf_counter()
    for op in workload.ops:
        op_started = time.perf_counter()
        try:
            with span("parse"):
                scenario = runner.Scenario.from_dict(json.loads(op.text))
            with span("run_scenario"):
                report = runner.run_scenario(scenario)
            with span("serialize") as record:
                text = runner.report_to_doc(report)
                if record:
                    record.attrs["bytes"] = len(text.encode("utf-8"))
            outcomes.append((op, report))
        except Exception as exc:  # counted as a failed operation, never dropped
            traceback.print_exc(file=sys.stderr)
            outcomes.append((op, exc))
        elapsed = time.perf_counter() - op_started
        fastest[op.key] = min(fastest.get(op.key, elapsed), elapsed)
    return outcomes, time.perf_counter() - started


def run_phase(workload, checker, seconds: float, min_runs: int, tracer=None):
    """Repeat executions until the next one would end past `seconds`.

    Returns wall_s (see the module docstring), every execution's wall time
    and, when traced, every execution's layer metrics.
    """
    times, layers, fastest = [], [], {}
    started = time.perf_counter()
    while True:
        if tracer:
            tracer.reset()
        outcomes, elapsed = execute(workload, tracer, fastest)
        times.append(elapsed)
        if tracer:
            layers.append(spans.layer_metrics(tracer.spans))
        for op, outcome in outcomes:
            checker.record(op, outcome)
        if len(times) >= min_runs and time.perf_counter() - started + elapsed > seconds:
            return sum(fastest[op.key] for op in workload.ops), times, layers


def catalog_seconds(tracer: spans.Tracer) -> float:
    samples = []
    for _ in range(CATALOG_LOADS):
        tracer.reset()
        with tracer.span("catalog"):
            runner.bundled_scenarios()
            runner.assertion_manifest()
        samples.append(tracer.spans[0].self_s)
    return statistics.median(samples)


def interval_deficit(checker: Checker, seed: int) -> float:
    deficit = 0.0
    for op in checker.workload.ops:
        report = checker.first_report.pop(op.key, None)
        inputs = workloads.predict_weights(op) if report else None
        if inputs:
            weights, s = inputs
            deficit = max(deficit, probe.interval_deficit(weights, s, report["results"]["bounds"], seed))
    return deficit


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=("bundled", *workloads.EXPECTED_SUPPORT), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans-out", help="write the last traced execution's spans here")
    args = parser.parse_args(argv)

    workload = workloads.build(args.workload, args.seed)
    checker = Checker(workload)
    info = {"numpy": numpy.__version__, "support_size_generated": workload.support}
    if not args.trace:
        wall_s, times, _ = run_phase(workload, checker, args.seconds, min_runs=2)
        metrics = {
            "wall_s": wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        info.update(untraced_wall_s=times, median_wall_s=statistics.median(times))
    else:
        tracer = spans.Tracer()
        catalog_s = catalog_seconds(tracer)
        plain_s, plain, _ = run_phase(workload, checker, args.seconds / 2, min_runs=1)
        with spans.instrumented(tracer):
            traced_s, traced, layers = run_phase(
                workload, checker, args.seconds / 2, min_runs=1, tracer=tracer
            )
        if args.spans_out:
            Path(args.spans_out).write_text(json.dumps(spans.span_records(tracer.spans)))
        metrics = spans.median_metrics(layers)
        metrics["catalog.self_s"] = catalog_s
        metrics["trace.overhead_s"] = traced_s - plain_s
        metrics["failed_ratio"] = checker.failed / checker.attempted
        metrics["interval_deficit"] = interval_deficit(checker, args.seed)
        info.update(untraced_wall_s=plain, traced_wall_s=traced)
    print(
        json.dumps(
            {
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": metrics,
                "info": info,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

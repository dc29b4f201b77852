"""Run one benchmark workload and print its metrics.

A *pass* sends a workload's list of requests — the paper grid's cells, the
remote grid's sweep, or :data:`~perfbench.workloads.PASS_QUERIES` sizing
queries — in a closed loop from a freshly opened session.  Each pass of a
run sends new inputs of the same mix.

Untraced (``--trace 0``): compute the correctness oracle (which also warms
the engine), send the passes that end nearest to ``--seconds``,
and finally time the set-up in fresh interpreters.  Prints every
end-to-end metric in standard seconds (:mod:`perfbench.hostspeed`), and
the same figures in wall-clock seconds on ``wall`` lines.

Traced (``--trace 1``): the first pass runs once with every layer's entry
points wrapped in spans and once without; prints every per-layer metric,
including the tracing overhead (traced minus untraced end-to-end
metrics).  A workload with a traced twin (the remote grid) also runs the
twin's pass once, traced, so the lockstep kernels its workers run get
spans.  Fixed work makes the exact counts (cells, lanes, hits, writes,
shards) repeat from run to run.

The metric names, units and bounds are read from ``BENCHMARK.json``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from perfbench.hostspeed import REFERENCE_S, HostSpeed, one_cpu
from perfbench.oracle import Gate, sample_cells
from perfbench.tracing import Instrumentation, Tracer, layer_metrics
from perfbench.workloads import WORKLOADS, Session, Workload

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parent
#: The metric table (names, units, directions, bounds) and the workloads.
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [metric["name"] for metric in BENCHMARK["end_to_end"]]
PER_LAYER = [metric["name"] for metric in BENCHMARK["per_layer"]]
UNITS = {
    metric["name"]: metric["unit"]
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
}
#: Where runs keep their scratch store and write their spans.
OUT_DIR = ROOT / ".bench_out"
#: Fresh interpreters timed per run; ``setup_s`` is their median.
SETUP_PROBES = 11
#: Cells the correctness oracle re-runs on the scalar engine per run.
ORACLE_CELLS = 6


@dataclass
class Execution:
    """What passes over one workload's requests did.

    Every pass sends a fresh session's requests: new inputs of the same mix
    (see :mod:`perfbench.workloads`).  ``intervals`` holds each request's
    start and end; :meth:`latencies` turns them into standard durations,
    the wall-clock time scaled by the host's speed around the request
    (:mod:`perfbench.hostspeed`).
    """

    host: HostSpeed
    intervals: List[Tuple[float, float]] = field(default_factory=list)
    passes: int = 0
    cells: int = 0
    sim_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    reports: list = field(default_factory=list)
    worker_compute_s: float = 0.0
    store_stats: object = None
    remote_workers: int = 0

    def latencies(self) -> List[float]:
        """Each request's standard duration, in send order."""
        return [self.host.standard(start, end) for start, end in self.intervals]

    def wall_latencies(self) -> List[float]:
        return [end - start for start, end in self.intervals]

    def end_to_end(self, latencies: Optional[List[float]] = None) -> Dict[str, float]:
        """Throughput and latency percentiles over ``latencies`` (by default
        the standard durations)."""
        if latencies is None:
            latencies = self.latencies()
        busy_s = sum(latencies)
        if len(latencies) > 1:
            p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]
        else:
            p90 = latencies[0]
        return {
            "cells_per_s": self.cells / busy_s,
            "sim_s_per_host_s": self.sim_s / busy_s,
            "query_p50_s": statistics.median(latencies),
            "query_p90_s": p90,
        }


def execute(
    open_session: Callable[[int], Session],
    requests: int,
    gate: Gate,
    *,
    seconds: Optional[float] = None,
    passes: Optional[int] = None,
    tracer: Optional[Tracer] = None,
    label: str = "request",
    every_cpu: bool = False,
) -> Execution:
    """Send passes of ``requests`` requests, one after another: ``passes``
    passes, or as many as end nearest to ``seconds`` (one at least).
    ``open_session(pass_index)`` opens each pass's session.

    In-process work runs with the client pinned to one CPU, the one the
    host-speed probes measure; with ``every_cpu`` the work runs in worker
    processes, the client stays unpinned and probes every CPU.
    """
    run = Execution(HostSpeed(every_cpu))
    started = time.perf_counter()
    with contextlib.nullcontext() if every_cpu else one_cpu():
        while True:
            if tracer is not None:
                tracer.request = f"{label}-setup"
            session = open_session(run.passes)
            try:
                for index in range(requests):
                    _send(session, index, run, gate, tracer, label)
                store = getattr(session.backend, "store", None)
                run.store_stats = store.stats if store is not None else None
                run.remote_workers = session.remote_workers
            finally:
                session.close()
            run.passes += 1
            elapsed = time.perf_counter() - started
            if passes is not None:
                done = run.passes >= passes
            else:  # would one more pass end farther from ``seconds``?
                done = elapsed + elapsed / run.passes / 2 >= seconds
            if done:
                run.host.probe()  # the probe after the last request
                return run


def _send(
    session: Session,
    index: int,
    run: Execution,
    gate: Gate,
    tracer: Optional[Tracer],
    label: str,
) -> None:
    """Send request ``index`` of a pass and account for it in ``run``."""
    specs = session.next_specs()
    if tracer is not None:
        tracer.request = f"{label}-{run.passes}-{index}"
    run.host.maybe_probe()
    sent = time.perf_counter()
    try:
        results = session.answer(specs)
    except Exception:  # a failed request counts its cells as failed
        traceback.print_exc(file=sys.stderr)
        results = None
    run.intervals.append((sent, time.perf_counter()))
    run.attempted += len(specs)
    run.failed += gate.check(specs, results)
    if results is not None:
        run.cells += len(results)
        run.sim_s += sum(result.simulated_time for result in results)
        report = getattr(session.backend, "last_run_report", None)
        if report is not None:
            run.reports.append(report)
            run.worker_compute_s += sum(r.wall_clock_seconds for r in results)


def peak_rss_mb(children: int) -> float:
    """This process's peak RSS plus ``children`` times its largest child's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children * child) / 1024.0


def setup_seconds(workload: Workload, seed: int, scratch: Path) -> float:
    """Median standard set-up time over :data:`SETUP_PROBES` fresh
    interpreters, each scaled by the reference task's time in it."""
    samples = []
    for _ in range(SETUP_PROBES):
        probe = subprocess.run(
            [
                sys.executable,
                str(PERF_DIR / "setup_probe.py"),
                workload.name,
                str(seed),
                str(scratch),
            ],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=ROOT,
        )
        if probe.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{probe.stderr}")
        elapsed, reference = map(float, probe.stdout.split()[-2:])
        samples.append(elapsed * REFERENCE_S / reference)
    return statistics.median(samples)


def _gate(workload: Workload, seed: int) -> Gate:
    return Gate.from_sample(sample_cells(workload.universe(seed), seed, ORACLE_CELLS))


def _print_metrics(label: str, metrics: Dict[str, float]) -> None:
    for name, value in metrics.items():
        print(f"{label} {name} = {value:.6g} {UNITS[name]}")


def _result(
    metrics: Dict[str, float], names: List[str], attempted: int, failed: int, gate: Gate
) -> dict:
    return {
        "correct": failed == 0 and gate.oracle_checked > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": UNITS[name]} for name in names
        },
    }


def untraced_run(workload: Workload, seed: int, seconds: float, scratch: Path) -> dict:
    gate = _gate(workload, seed)
    run = execute(
        lambda pass_index: workload.open(seed, pass_index, scratch),
        workload.pass_requests,
        gate,
        seconds=seconds,
        every_cpu=workload.every_cpu,
    )
    latencies = run.latencies()
    metrics = run.end_to_end(latencies)
    metrics["peak_rss_mb"] = peak_rss_mb(run.remote_workers)
    metrics["ok_frac"] = (run.attempted - run.failed) / run.attempted
    metrics["setup_s"] = setup_seconds(workload, seed, scratch)
    beyond_p90 = sum(latency > metrics["query_p90_s"] for latency in latencies)
    references = run.host.references
    print(
        f"# passes={run.passes} requests={len(latencies)} cells={run.cells} "
        f"oracle_checked={gate.oracle_checked} beyond_p90={beyond_p90} "
        f"host_probes={len(references)} "
        f"reference_s_median={statistics.median(references):.6g}"
    )
    _print_metrics("wall", run.end_to_end(run.wall_latencies()))
    _print_metrics("e2e", metrics)
    return _result(metrics, END_TO_END, run.attempted, run.failed, gate)


def traced_run(workload: Workload, seed: int, scratch: Path) -> dict:
    gate = _gate(workload, seed)
    tracer = Tracer()

    def open_session(pass_index: int) -> Session:
        return workload.open(seed, pass_index, scratch)

    runs = []
    with Instrumentation(tracer):
        traced = execute(
            open_session,
            workload.pass_requests,
            gate,
            passes=1,
            tracer=tracer,
            every_cpu=workload.every_cpu,
        )
        if workload.traced_twin is not None:
            twin = execute(
                lambda pass_index: workload.traced_twin(seed),
                1,
                gate,
                passes=1,
                tracer=tracer,
                label="twin",
            )
            runs.append(twin)
    plain = execute(
        open_session, workload.pass_requests, gate, passes=1, every_cpu=workload.every_cpu
    )
    runs += [traced, plain]

    metrics = layer_metrics(
        tracer.spans,
        store_stats=traced.store_stats,
        remote_reports=traced.reports,
        worker_compute_s=traced.worker_compute_s,
        remote_workers=traced.remote_workers,
    )
    traced_e2e, plain_e2e = traced.end_to_end(), plain.end_to_end()
    metrics["tracing.wall_s"] = sum(traced.wall_latencies())
    metrics["tracing.spans"] = float(len(tracer.spans))
    for name in ("cells_per_s", "sim_s_per_host_s", "query_p50_s", "query_p90_s"):
        metrics[f"tracing.{name}_delta"] = traced_e2e[name] - plain_e2e[name]
    tracer.write(OUT_DIR / f"spans-{workload.name}-seed{seed}.jsonl")

    _print_metrics("untraced", plain_e2e)
    _print_metrics("traced", traced_e2e)
    _print_metrics("layer", {name: metrics[name] for name in PER_LAYER})
    return _result(
        metrics,
        PER_LAYER,
        sum(run.attempted for run in runs),
        sum(run.failed for run in runs),
        gate,
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    print(
        f"# workload={workload.name} seed={args.seed} trace={args.trace} "
        f"nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={np.__version__}"
    )
    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_DIR))
    try:
        if args.trace:
            summary = traced_run(workload, args.seed, scratch)
        else:
            summary = untraced_run(workload, args.seed, args.seconds, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(summary))
    return 0

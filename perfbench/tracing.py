"""Spans around each layer's public entry points, recorded from outside.

:class:`Instrumentation` wraps the entry points of ``harvester``
(``ExperimentSettings.trace``), ``sim.system`` (``BatterylessSystem.build``),
``sim.engine`` (``Simulator.run``), ``sim.batch`` (``BatchSimulator.run``),
``experiments.backends`` (``partition_batchable`` and the in-process
backends' ``run_specs``), ``experiments.store`` (``ResultStore.load`` /
``store`` / ``key_for`` and ``code_version_salt``) and
``experiments.remote`` (``RemoteBackend.run_specs``) while it is entered,
and restores the originals on exit; nothing under ``src/`` changes.

Spans stay in memory (:class:`Tracer`) and are written out when the run
ends.  Each has a name, start, end, parent span and the id of the request
(query or sweep) it served.  A span's *self time* is its duration minus the
time its child spans cover (:func:`self_times`).
:func:`layer_metrics` folds the spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

FAMILIES = ("static", "morphy", "react")


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: str
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; one open-span stack per thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        #: The id stamped on new spans (the benchmark sets it per request).
        self.request = "setup"
        self._ids = itertools.count()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, **attrs):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1].span_id if stack else None
        span = Span(
            span_id=next(self._ids),
            name=name,
            start=self.clock(),
            end=float("nan"),
            parent=parent,
            request=self.request,
            attrs=attrs,
        )
        stack.append(span)
        try:
            yield span
        finally:
            span.end = self.clock()
            stack.pop()
            self.spans.append(span)

    def write(self, path: Path) -> None:
        """All spans as JSON lines, in completion order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps(asdict(span), default=str) + "\n")


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus its children's durations.

    A child is opened and closed on its parent's thread while the parent is
    open, so children lie inside their parent and never overlap each other.
    """
    selfs = {span.span_id: span.duration for span in spans}
    for span in spans:
        if span.parent is not None:
            selfs[span.parent] -= span.duration
    return selfs


def layer_metrics(
    spans: Sequence[Span],
    store_stats=None,
    remote_reports: Sequence = (),
    worker_compute_s: float = 0.0,
    remote_workers: int = 0,
) -> Dict[str, float]:
    """The per-layer metrics (all but the ``tracing.*`` ones) of ``spans``;
    a metric nothing contributed to reads 0.

    ``store_stats`` is the traced session's ``StoreStats`` (bytes moved);
    ``remote_reports`` the ``RemoteReport`` of every remote sweep, whose
    results took ``worker_compute_s`` of worker wall-clock.
    """
    by_id = {span.span_id: span for span in spans}
    selfs = self_times(spans)
    metrics: Dict[str, float] = defaultdict(float)

    def in_batch(span: Span) -> bool:
        parent = by_id.get(span.parent)
        while parent is not None:
            if parent.name == "batch.run":
                return True
            parent = by_id.get(parent.parent)
        return False

    engine_sim_s = 0.0
    remote_wall = 0.0
    for span in spans:
        name, own = span.name, selfs[span.span_id]
        family = span.attrs.get("family")
        if name == "harvester.trace":
            metrics["harvester.trace_calls"] += 1
            metrics["harvester.trace_s"] += span.duration
        elif name == "system.build":
            metrics["system.build_calls"] += 1
            metrics["system.build_s"] += span.duration
        elif name == "engine.run" and in_batch(span):
            metrics["batch.tail_runs"] += 1
            metrics["batch.tail_s"] += span.duration
        elif name == "engine.run":
            metrics["engine.runs"] += 1
            metrics["engine.self_s"] += own
            if family in FAMILIES:
                metrics[f"engine.{family}_s"] += own
            engine_sim_s += span.attrs.get("sim_s", 0.0)
        elif name == "batch.run":
            metrics["batch.runs"] += 1
            metrics["batch.lanes"] += span.attrs.get("lanes", 0)
            metrics["batch.self_s"] += own
            if family in FAMILIES:
                metrics[f"batch.{family}_s"] += own
        elif name == "backends.partition":
            metrics["backends.partition_s"] += span.duration
        elif name == "backends.run_specs":
            metrics["backends.orchestration_s"] += own
        elif name == "store.load":
            metrics["store.loads"] += 1
            metrics["store.load_s"] += span.duration
            metrics["store.hits"] += bool(span.attrs.get("hit"))
        elif name == "store.write":
            metrics["store.writes"] += 1
            metrics["store.write_s"] += span.duration
        elif name == "store.key":
            metrics["store.key_s"] += span.duration
        elif name == "store.salt":
            metrics["store.salt_s"] += span.duration
        elif name == "remote.sweep":
            remote_wall += span.duration

    if metrics["engine.self_s"] > 0.0:
        metrics["engine.sim_s_per_s"] = engine_sim_s / metrics["engine.self_s"]
    executed = metrics["batch.lanes"] + metrics["engine.runs"]
    if executed:
        metrics["backends.batched_frac"] = metrics["batch.lanes"] / executed
    if metrics["store.loads"]:
        metrics["store.hit_ratio"] = metrics["store.hits"] / metrics["store.loads"]
    if store_stats is not None:
        metrics["store.bytes_read"] = float(store_stats.bytes_read)
        metrics["store.bytes_written"] = float(store_stats.bytes_written)
    for report in remote_reports:
        metrics["remote.shards"] += report.shards_total
        metrics["remote.shard_splits"] += report.shard_splits
        metrics["remote.dispatches"] += report.dispatches
        metrics["remote.requeues"] += report.requeues
        metrics["remote.failures"] += report.failures
    metrics["remote.worker_compute_s"] = worker_compute_s
    if remote_workers and remote_wall > 0.0:
        metrics["remote.fanout_eff"] = worker_compute_s / (remote_workers * remote_wall)
    return metrics


# --------------------------------------------------------------------------
# Wrapping the layers' entry points
# --------------------------------------------------------------------------

Describe = Callable[[Span, tuple, object], None]


def _describe_engine(span: Span, args: tuple, result) -> None:
    from perfbench.workloads import buffer_family

    span.attrs["family"] = buffer_family(args[0].system.buffer)
    if result is not None:
        span.attrs["sim_s"] = result.simulated_time


def _describe_batch(span: Span, args: tuple, result) -> None:
    from perfbench.workloads import buffer_family

    systems = args[0].systems
    span.attrs["lanes"] = len(systems)
    span.attrs["family"] = buffer_family(systems[0].buffer)


def _describe_load(span: Span, args: tuple, result) -> None:
    span.attrs["hit"] = result is not None


def _traced(tracer: Tracer, name: str, fn, describe: Optional[Describe]):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = None
        with tracer.span(name) as span:
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                if describe is not None:
                    describe(span, args, result)

    return wrapper


#: (module, attribute path, span name, describe) for every wrapped entry point.
_BACKENDS = "repro.experiments.backends"
_REMOTE = "repro.experiments.remote.coordinator"
TARGETS = (
    ("repro.experiments.runner", "ExperimentSettings.trace", "harvester.trace", None),
    ("repro.sim.system", "BatterylessSystem.build", "system.build", None),
    ("repro.sim.engine", "Simulator.run", "engine.run", _describe_engine),
    ("repro.sim.batch", "BatchSimulator.run", "batch.run", _describe_batch),
    (_BACKENDS, "partition_batchable", "backends.partition", None),
    # The coordinator plans shards through its own reference to it.
    (_REMOTE, "partition_batchable", "backends.partition", None),
    (_BACKENDS, "SerialBackend.run_specs", "backends.run_specs", None),
    (_BACKENDS, "BatchBackend.run_specs", "backends.run_specs", None),
    ("repro.experiments.store", "CachedBackend.run_specs", "backends.run_specs", None),
    ("repro.experiments.store", "ResultStore.load", "store.load", _describe_load),
    ("repro.experiments.store", "ResultStore.store", "store.write", None),
    ("repro.experiments.store", "ResultStore.key_for", "store.key", None),
    ("repro.experiments.store", "code_version_salt", "store.salt", None),
    (_REMOTE, "RemoteBackend.run_specs", "remote.sweep", None),
)


class Instrumentation:
    """Context manager: spans around :data:`TARGETS` while entered."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "Instrumentation":
        try:
            self._install()
        except BaseException:
            self.__exit__()
            raise
        return self

    def _install(self) -> None:
        # Import every target module before wrapping any: a module imported
        # later would bind a wrapper through ``from ... import`` and keep it.
        for module_name, _, _, _ in TARGETS:
            importlib.import_module(module_name)
        for module_name, path, span_name, describe in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, attribute = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = vars(owner)[attribute]
            if isinstance(original, classmethod):
                wrapped = classmethod(
                    _traced(self.tracer, span_name, original.__func__, describe)
                )
            else:
                wrapped = _traced(self.tracer, span_name, original, describe)
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, wrapped)

    def __exit__(self, *exc_info) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

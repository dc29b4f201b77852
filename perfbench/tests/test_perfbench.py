"""Tests of the benchmark's own machinery (not of the simulator).

Run from the checkout root: ``PYTHONPATH=src python -m pytest perfbench/tests``.
"""

import importlib.util
import re
import sys
from pathlib import Path
from types import SimpleNamespace

from pytest import approx

ROOT = Path(__file__).resolve().parents[2]
# Make the checkout's packages importable when pytest runs without them.
for package, entry in (("repro", ROOT / "src"), ("perfbench", ROOT)):
    if importlib.util.find_spec(package) is None:
        sys.path.insert(0, str(entry))

from perfbench.bench import BENCHMARK, Execution  # noqa: E402
from perfbench.hostspeed import REFERENCE_S, WINDOW_S, HostSpeed  # noqa: E402
from perfbench.tracing import (  # noqa: E402
    Instrumentation,
    Span,
    Tracer,
    layer_metrics,
    self_times,
)
from repro.experiments import ExperimentSettings, backends  # noqa: E402
from repro.experiments.remote import coordinator  # noqa: E402
from repro.sim.engine import Simulator  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    QUERY_WIDTH,
    SIZING_LADDER_MF,
    WORKLOADS,
    make_queries,
    trace_seeds,
)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_same_seed_same_queries_and_different_seed_different_queries():
    assert make_queries(7, 300) == make_queries(7, 300)
    assert make_queries(7, 300) != make_queries(8, 300)


def test_queries_are_windows_inside_the_ladder():
    for query in make_queries(3, 1000):
        assert query.width == QUERY_WIDTH
        assert 0 <= query.start and query.start + query.width <= len(SIZING_LADDER_MF)


def _span(span_id, start, end, parent=None, name="x"):
    return Span(span_id, name, start, end, parent, "request-0")


def test_self_time_subtracts_the_children():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 4.0, parent=0),
        _span(2, 5.0, 6.0, parent=0),
        _span(3, 2.0, 3.0, parent=1),  # grandchild: not the root's child
    ]
    selfs = self_times(spans)
    assert selfs == {0: 10.0 - 3.0 - 1.0, 1: 3.0 - 1.0, 2: 1.0, 3: 1.0}


def test_each_pass_draws_new_trace_seeds_from_the_run_seed():
    assert trace_seeds("paper_grid", 7, 0, 20) == trace_seeds("paper_grid", 7, 0, 20)
    assert trace_seeds("paper_grid", 7, 0, 20) != trace_seeds("paper_grid", 8, 0, 20)
    assert trace_seeds("paper_grid", 7, 0, 20) != trace_seeds("paper_grid", 7, 1, 20)
    assert len(set(trace_seeds("paper_grid", 7, 0, 20))) == 20


def _host(*probes):
    """A host-speed timeline with ``(time, reference seconds)`` probes."""
    host = HostSpeed()
    host.times = [time for time, _ in probes]
    host.references = [reference for _, reference in probes]
    return host


def test_standard_duration_scales_by_the_probes_near_the_request():
    probes = [(0.0, REFERENCE_S), (1.0, 2 * REFERENCE_S), (4.0, 6 * REFERENCE_S)]
    host = _host(*probes, (20.0, 9 * REFERENCE_S))
    # The probes within WINDOW_S of [1.5, 2.5]: the host ran at a third of
    # standard speed around the request; the probe at 20 s is too far.
    assert 2.5 + WINDOW_S < 20.0
    assert host.reference_around(1.5, 2.5) == approx(3 * REFERENCE_S)
    assert host.standard(1.5, 2.5) == approx(1.0 / 3)
    # A probe exactly WINDOW_S away counts.
    assert host.reference_around(4.0 + WINDOW_S, 19.0) == approx(7.5 * REFERENCE_S)


def test_end_to_end_metrics_use_standard_durations():
    run = Execution(
        _host((0.0, REFERENCE_S), (2.0, 2 * REFERENCE_S), (20.0, 2 * REFERENCE_S)),
        intervals=[(1.0, 2.0), (15.0, 19.0)],
        passes=2,
        cells=20,
        sim_s=80.0,
    )
    assert run.wall_latencies() == [1.0, 4.0]
    # The first request ran at 1.5x the reference, the second at 2x.
    assert run.latencies() == approx([1.0 / 1.5, 2.0])
    metrics = run.end_to_end()
    busy = 1.0 / 1.5 + 2.0
    assert metrics["cells_per_s"] == approx(20 / busy)
    assert metrics["sim_s_per_host_s"] == approx(80 / busy)
    assert metrics["query_p50_s"] == approx(busy / 2)


def test_tracer_records_parents_and_requests():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    tracer.request = "request-3"
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    inner, outer = tracer.spans
    assert (inner.name, outer.name) == ("inner", "outer")
    assert inner.parent == outer.span_id and outer.parent is None
    assert inner.request == outer.request == "request-3"
    assert self_times(tracer.spans)[outer.span_id] == outer.duration - inner.duration


def test_instrumentation_records_spans_and_restores_entry_points():
    original = Simulator.__dict__["run"]
    tracer = Tracer()
    with Instrumentation(tracer):
        assert Simulator.__dict__["run"] is not original
        ExperimentSettings(quick=True).trace("RF Obstruction")
    assert Simulator.__dict__["run"] is original
    # The coordinator's own reference to the planner is restored too.
    assert coordinator.partition_batchable is backends.partition_batchable
    assert [span.name for span in tracer.spans] == ["harvester.trace"]
    metrics = layer_metrics(tracer.spans)
    assert metrics["harvester.trace_calls"] == 1 and metrics["engine.runs"] == 0


def test_benchmark_json_names_units_and_limits():
    end_to_end, per_layer = BENCHMARK["end_to_end"], BENCHMARK["per_layer"]
    names = [metric["name"] for metric in end_to_end + per_layer]
    assert len(names) == len(set(names))
    for metric in end_to_end + per_layer:
        assert NAME.fullmatch(metric["name"]), metric
        assert UNIT.fullmatch(metric["unit"]), metric
    assert [workload["name"] for workload in BENCHMARK["workloads"]] == list(WORKLOADS)
    for workload in BENCHMARK["workloads"]:
        assert NAME.fullmatch(workload["name"])
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert 2 <= len(WORKLOADS) <= 8
    assert 1 <= len(end_to_end) <= 16
    assert 1 <= len(per_layer) <= 128
    bounds = {metric["name"]: metric["bound"] for metric in end_to_end}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_every_declared_layer_metric_is_computed():
    """Each per-layer name in BENCHMARK.json is one the code produces."""
    tree = [
        ("remote.sweep", None, {}),
        ("backends.run_specs", 0, {}),
        ("backends.partition", 1, {}),
        ("harvester.trace", 1, {}),
        ("system.build", 1, {}),
        ("batch.run", 1, {"lanes": 5, "family": "static"}),
        ("batch.run", 1, {"lanes": 5, "family": "morphy"}),
        ("engine.run", 6, {"family": "morphy", "sim_s": 9.0}),  # scalar tail
    ] + [
        ("engine.run", 1, {"family": family, "sim_s": 9.0})
        for family in ("static", "morphy", "react")
    ] + [
        ("store.load", 1, {"hit": True}),
        ("store.write", 1, {}),
        ("store.key", 1, {}),
        ("store.salt", 1, {}),
    ]
    spans = [
        Span(i, name, float(i), float(i) + 1.0, parent, "request-0", attrs)
        for i, (name, parent, attrs) in enumerate(tree)
    ]
    produced = set(
        layer_metrics(
            spans,
            store_stats=SimpleNamespace(bytes_read=1, bytes_written=2),
            remote_reports=[
                SimpleNamespace(
                    shards_total=2, shard_splits=0, dispatches=2, requeues=0, failures=0
                )
            ],
            worker_compute_s=3.0,
            remote_workers=2,
        )
    )
    declared = {metric["name"] for metric in BENCHMARK["per_layer"]}
    assert declared - {name for name in declared if name.startswith("tracing.")} <= produced

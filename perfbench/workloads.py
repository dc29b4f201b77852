"""The benchmark's workloads, driven through the public ``repro.experiments`` API.

Each workload opens a :class:`Session` (everything a user pays before the
first cell runs: imports already done by the caller, trace generation,
backend resolution and, for the memoizing backend, the code-version salt)
and then answers *requests*.  A request is one call into the public
surface — ``sweep()`` for the paper grid, ``resolve_backend(...)
.run_specs()`` for the remote grid and the sizing queries — and returns the
specs it asked for with the results that came back.

The load comes from one client in a closed loop: the next request is sent
only after the previous one has returned.  A session sends one *pass*
(``Workload.pass_requests`` requests); the pass index picks its inputs, so
every pass of a run sends new inputs of the same mix.

Every buffer factory here is a module-level function or a partial of one, so the specs that
carry it pickle by import path and remote worker processes (which start
with the checkout root on their path) can rebuild the buffers.
"""

from __future__ import annotations

import functools
import itertools
import os
import random
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, List, Optional

import numpy as np

from repro.buffers.base import EnergyBuffer
from repro.buffers.morphy import MorphyBuffer
from repro.buffers.react_adapter import ReactBuffer
from repro.buffers.static import StaticBuffer
from repro.experiments import (
    ExperimentRunner,
    ExperimentSettings,
    resolve_backend,
    sweep,
)
from repro.experiments.runner import WORKLOAD_ORDER, standard_buffers
from repro.harvester.synthetic import TABLE3_ORDER
from repro.sim.results import SimulationResult
from repro.units import millifarads

# --------------------------------------------------------------------------
# Buffer factories
# --------------------------------------------------------------------------

#: Static-capacitance ladder of the design grid (mF).
DESIGN_STATIC_MF = tuple(float(size) for size in np.geomspace(0.5, 40.0, 16))
#: Morphy unit-capacitance ladder of the design grid (mF).
DESIGN_MORPHY_MF = tuple(float(size) for size in np.geomspace(0.5, 4.0, 8))
#: The design grid's workloads and trace.  Lane groups form per trace, so
#: each ladder packs ``len(ladder) * len(DESIGN_WORKLOADS)`` lanes into one
#: lockstep kernel — 32 and 16, well above ``min_lanes`` (5).  RF
#: Obstruction, because the grid's cost barely depends on its trace seed
#: there (1.75–1.96 s in-process over seeds 1–5), where on RF Cart it ran
#: 5.0–9.0 s.  A REACT polling-hint ladder is left out: its lockstep run
#: on RF Cart costs up to 40 % more on one trace seed than on another.
DESIGN_WORKLOADS = ("DE", "SC")
DESIGN_TRACES = ("RF Obstruction",)


def design_ladder() -> List[EnergyBuffer]:
    """Static and Morphy ladders in one list (the design space)."""
    static = [
        StaticBuffer(millifarads(size), name=f"{size:.3f} mF")
        for size in DESIGN_STATIC_MF
    ]
    morphy = [
        MorphyBuffer(unit_capacitance=millifarads(size), name=f"Morphy {size:.3f} mF")
        for size in DESIGN_MORPHY_MF
    ]
    return static + morphy


#: The sizing queries' capacitance ladder (mF): fine enough that a query
#: asks about a narrow window of it, and cut into one session tile per
#: query row (see :func:`query_stream`).
SIZING_LADDER_MF = tuple(float(size) for size in np.geomspace(1.0, 10.0, 168))


def sizing_ladder() -> List[EnergyBuffer]:
    """One static buffer per rung of the sizing ladder."""
    return [
        StaticBuffer(millifarads(size), name=f"{size:.4f} mF")
        for size in SIZING_LADDER_MF
    ]


def buffer_family(buffer: EnergyBuffer) -> str:
    """``static``, ``morphy``, ``react`` or ``other``."""
    if isinstance(buffer, StaticBuffer):
        return "static"
    if isinstance(buffer, MorphyBuffer):
        return "morphy"
    if isinstance(buffer, ReactBuffer):
        return "react"
    return "other"


def _paper_buffer(index: int) -> List[EnergyBuffer]:
    """Paper buffer ``index`` alone: the factory of a one-cell sweep."""
    return [standard_buffers()[index]]


#: One factory per paper buffer (module-level partials, so they pickle).
PAPER_BUFFERS = tuple(
    functools.partial(_paper_buffer, index) for index in range(len(standard_buffers()))
)
#: The full quick paper grid, one cell per request: (workload, trace,
#: buffer factory).  A timed run sends whole passes over the grid, so every
#: run answers the same mix of cheap and expensive cells.
PAPER_CELLS = tuple(
    (workload, trace, factory)
    for workload in WORKLOAD_ORDER
    for trace in TABLE3_ORDER
    for factory in PAPER_BUFFERS
)


def trace_seeds(workload: str, seed: int, pass_index: int, count: int) -> List[int]:
    """The trace seeds (``ExperimentSettings.seed``) of one pass's requests.

    A cell's cost depends strongly on its trace draw (a Solar Campus row
    of five cells ran 0.07–1.18 s over trace seeds 1–4), so every request
    of every pass draws its own: a run averages over hundreds of draws, not
    the five traces one seed gives.
    """
    rng = random.Random(f"{workload}/{seed}/{pass_index}")
    return [rng.randrange(2**31) for _ in range(count)]


# --------------------------------------------------------------------------
# The sizing-query stream
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Query:
    """One sizing query: a contiguous window of ladder rungs on one cell row."""

    workload: str
    trace: str
    start: int
    width: int


#: Rungs per query window: one more than the scalar tail, so a window of
#: misses is exactly ``min_lanes`` wide and runs as one lockstep batch.
QUERY_WIDTH = 5
#: How far each refining query of a session moves its window up the ladder
#: (a seeded permutation per session): the window keeps 2–4 cells an
#: earlier query wrote (store hits) and asks for 1–3 new ones, which run on
#: the scalar engine.  One query in five is a session's first, all-miss
#: window, the slowest kind, so ``query_p90_s`` lands mid-way through them.
SESSION_SHIFTS = (1, 2, 2, 3)
#: Ladder rungs one session can touch, plus one so sessions never overlap.
SESSION_TILE = QUERY_WIDTH + sum(SESSION_SHIFTS) + 1
#: The query rows' traces: the three whose static cells are cheapest, so a
#: run holds hundreds of queries.
QUERY_TRACES = ("RF Obstruction", "RF Mobile", "Solar Commute")


def query_stream(seed: int) -> Iterator[Query]:
    """The endless, seeded sequence of sizing queries.

    A session refines one (workload, trace) row: a first window of fresh
    rungs, then ``len(SESSION_SHIFTS)`` windows sliding up from it.
    Sessions visit the rows round-robin, and the ladder is cut into one
    tile per row: in every round each tile is refined exactly once (row
    ``r`` takes tile ``(order[r] + round) % tiles``), so small and large
    capacitances — whose cells cost different amounts — are mixed the same
    way for every seed.  The seed picks the tile order and each session's
    shift order.
    """
    rng = random.Random(seed)
    rows = [(workload, trace) for workload in WORKLOAD_ORDER for trace in QUERY_TRACES]
    tiles = len(SIZING_LADDER_MF) // SESSION_TILE
    order = rng.sample(range(tiles), tiles)
    for visit in itertools.count():
        for (workload, trace), tile in zip(rows, order):
            start = (tile + visit) % tiles * SESSION_TILE
            yield Query(workload, trace, start, QUERY_WIDTH)
            for shift in rng.sample(SESSION_SHIFTS, len(SESSION_SHIFTS)):
                start += shift
                yield Query(workload, trace, start, QUERY_WIDTH)


def make_queries(seed: int, count: int) -> List[Query]:
    """The first ``count`` queries of :func:`query_stream`."""
    return list(itertools.islice(query_stream(seed), count))


# --------------------------------------------------------------------------
# Sessions and workloads
# --------------------------------------------------------------------------


@dataclass
class Session:
    """One pass of a workload, opened for a seed: its backend and state.

    ``next_specs()`` makes the inputs of the next request (called once per
    request, in order, outside the timed window); ``answer(specs)`` sends
    the request and returns the results in spec order.
    """

    backend: object
    next_specs: Callable[[], list]
    answer: Callable[[list], List[SimulationResult]]
    scratch: Optional[Path] = None
    remote_workers: int = 0

    def close(self) -> None:
        if self.scratch is not None:
            shutil.rmtree(self.scratch, ignore_errors=True)


def _quick(seed: int = 0, **overrides) -> ExperimentSettings:
    return ExperimentSettings(quick=True, seed=seed, **overrides)


def _grid_specs(settings, factory, workloads, traces) -> list:
    runner = ExperimentRunner(settings, buffer_factory=factory)
    return runner.grid_specs(workloads, traces)


def _paper_pass(seed: int, pass_index: int) -> list:
    """(cell, settings) of every request of a ``paper_grid`` pass."""
    seeds = trace_seeds("paper_grid", seed, pass_index, len(PAPER_CELLS))
    return [(cell, _quick(trace_seed)) for cell, trace_seed in zip(PAPER_CELLS, seeds)]


def _paper_specs(cell: tuple, settings: ExperimentSettings) -> list:
    workload, trace, factory = cell
    return _grid_specs(settings, factory, (workload,), (trace,))


def _paper_session(seed: int, pass_index: int) -> Session:
    requests = iter(_paper_pass(seed, pass_index))
    current: List[tuple] = []

    def next_specs() -> list:
        cell, settings = next(requests)
        current[:] = [cell, settings]
        return _paper_specs(cell, settings)

    def answer(specs: list) -> List[SimulationResult]:
        # sweep() expands the same cell itself: it is the call users make.
        (workload, trace, factory), settings = current
        return sweep(
            (workload,),
            (trace,),
            settings=settings,
            backend="serial",
            buffer_factory=factory,
        ).results

    return Session(None, next_specs, answer)


def _design_specs(seed: int, pass_index: int, workers: int = 0) -> list:
    """The design grid of one pass, on that pass's trace draw."""
    (trace_seed,) = trace_seeds("design", seed, pass_index, 1)
    settings = _quick(trace_seed, remote_workers=workers or None)
    return _grid_specs(settings, design_ladder, DESIGN_WORKLOADS, DESIGN_TRACES)


def _design_session(
    seed: int, pass_index: int, backend_name: str, workers: int = 0
) -> Session:
    grid = _design_specs(seed, pass_index, workers)
    settings = grid[0].settings
    settings.traces(DESIGN_TRACES)  # set-up cost; run_specs draws it again
    backend = resolve_backend(backend_name, settings)
    return Session(backend, lambda: grid, backend.run_specs, remote_workers=workers)


def _remote_session(seed: int, pass_index: int) -> Session:
    workers = max(1, min(2, os.cpu_count() or 1))
    return _design_session(seed, pass_index, "remote:batch", workers)


def _window(runner: ExperimentRunner, query: Query) -> list:
    row = runner.grid_specs((query.workload,), (query.trace,))
    return row[query.start : query.start + query.width]


#: Sizing queries in one ``repeat_queries`` pass: two rounds over the
#: query rows, so every pass sends the same mix (see :func:`query_stream`).
PASS_QUERIES = 2 * len(WORKLOAD_ORDER) * len(QUERY_TRACES) * (1 + len(SESSION_SHIFTS))


def _pass_queries(seed: int, pass_index: int) -> List[Query]:
    """Pass ``pass_index``'s slice of the seed's query stream."""
    start = pass_index * PASS_QUERIES
    return list(itertools.islice(query_stream(seed), start, start + PASS_QUERIES))


def _query_session(seed: int, pass_index: int, scratch_root: Path) -> Session:
    scratch = Path(tempfile.mkdtemp(prefix="store-", dir=scratch_root))
    settings = _quick(cache_dir=str(scratch))
    settings.traces(QUERY_TRACES)  # set-up cost; each run_specs draws them again
    backend = resolve_backend("cached:batch", settings)  # computes the salt
    runner = ExperimentRunner(settings, buffer_factory=sizing_ladder)
    queries = iter(_pass_queries(seed, pass_index))
    return Session(
        backend,
        lambda: _window(runner, next(queries)),
        backend.run_specs,
        scratch=scratch,
    )


def _query_universe(seed: int) -> list:
    runner = ExperimentRunner(_quick(), buffer_factory=sizing_ladder)
    cells = {}
    for query in _pass_queries(seed, 0):
        for spec in _window(runner, query):
            cells[(spec.workload, spec.trace_name, spec.buffer_index)] = spec
    return list(cells.values())


@dataclass(frozen=True)
class Workload:
    """A named, seeded workload (``BENCHMARK.json`` says why it is there)."""

    name: str
    #: ``open(seed, pass_index, scratch)``: a fresh session for one pass.
    #: Every pass of a run sends new inputs of the same mix.
    open: Callable[[int, int, Path], Session]
    #: The cells of a seed's first pass (the correctness oracle samples here).
    universe: Callable[[int], list]
    #: Requests in one pass.
    pass_requests: int = 1
    #: The work runs in worker processes on every CPU, so the host's speed
    #: is probed on every CPU (see :class:`perfbench.hostspeed.HostSpeed`).
    every_cpu: bool = False
    #: An in-process session of the same cells that the traced run executes
    #: once more, traced: remote workers run their kernels untraced.
    traced_twin: Optional[Callable[[int], Session]] = None


def _paper_universe(seed: int) -> list:
    return [
        spec for cell, settings in _paper_pass(seed, 0) for spec in _paper_specs(cell, settings)
    ]


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="paper_grid",
            open=lambda seed, pass_index, scratch: _paper_session(seed, pass_index),
            universe=_paper_universe,
            pass_requests=len(PAPER_CELLS),
        ),
        Workload(
            name="repeat_queries",
            open=_query_session,
            universe=_query_universe,
            pass_requests=PASS_QUERIES,
        ),
        Workload(
            name="remote_grid",
            open=lambda seed, pass_index, scratch: _remote_session(seed, pass_index),
            universe=lambda seed: _design_specs(seed, 0),
            every_cpu=True,
            traced_twin=lambda seed: _design_session(seed, 0, "batch"),
        ),
    )
}


__all__ = [
    "WORKLOADS",
    "Query",
    "Session",
    "Workload",
    "buffer_family",
    "design_ladder",
    "make_queries",
    "query_stream",
    "sizing_ladder",
    "trace_seeds",
]

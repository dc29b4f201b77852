"""Correctness gate: every answered cell against a scalar-engine oracle.

Two checks run on every cell a request answers:

* *identity* — the result belongs to the cell that asked for it (trace and
  buffer names match the spec), and the same cell answered twice in one
  run (a second grid pass, a store hit) carries the same counters both
  times;
* *oracle* — for a seeded sample of cells, the counters equal those of a
  fresh scalar-engine run of the same spec (``execute_run_spec``, which
  builds its own trace and buffer and bypasses every backend).  The sample
  is drawn from the workload's universe for any seed, stratified by buffer
  family so lockstep-kernel lanes are always covered, and computed before
  the timed window.

Counters compare exactly: the backends promise bit-identical results.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.buffers.base import EnergyBuffer
from repro.experiments import execute_run_spec

from perfbench.workloads import buffer_family

#: The result fields the gate compares, exactly.
COUNTERS = (
    "work_units",
    "enable_count",
    "brownout_count",
    "latency",
    "simulated_time",
    "on_time",
)

CellKey = Tuple[int, str, str, str]


class BuiltBuffers:
    """Each spec's buffer, building every buffer factory once."""

    def __init__(self) -> None:
        self._built: Dict[object, list] = {}

    def __call__(self, spec) -> EnergyBuffer:
        factory = spec.buffer_factory
        if factory not in self._built:
            self._built[factory] = factory()
        return self._built[factory][spec.buffer_index]


def cell_key(spec, buffers: BuiltBuffers) -> CellKey:
    """Trace seed, workload, trace and buffer name: what makes a cell."""
    return (spec.settings.seed, spec.workload, spec.trace_name, buffers(spec).name)


def signature(result) -> tuple:
    return tuple(getattr(result, name) for name in COUNTERS)


def sample_cells(universe: Sequence, seed: int, count: int) -> list:
    """A seeded sample of about ``count`` cells, spread evenly over families."""
    buffers = BuiltBuffers()
    by_family: Dict[str, list] = {}
    for spec in universe:
        by_family.setdefault(buffer_family(buffers(spec)), []).append(spec)
    per_family = -(-count // len(by_family))
    rng = random.Random(seed)
    sample = []
    for family in sorted(by_family):
        specs = by_family[family]
        sample.extend(rng.sample(specs, min(per_family, len(specs))))
    return sample


class Gate:
    """Counts the answered cells that fail the identity or oracle checks."""

    def __init__(self, oracle: Dict[CellKey, tuple], buffers: BuiltBuffers) -> None:
        self.oracle = oracle
        self.buffers = buffers
        self.seen: Dict[CellKey, tuple] = {}
        self.oracle_checked = 0

    @classmethod
    def from_sample(cls, sample: Sequence) -> "Gate":
        buffers = BuiltBuffers()
        oracle = {
            cell_key(spec, buffers): signature(execute_run_spec(spec)) for spec in sample
        }
        return cls(oracle, buffers)

    def check(self, specs: Sequence, results: Optional[List]) -> int:
        """Failed cells of one request (all of them if results are missing)."""
        if results is None or len(results) != len(specs):
            return len(specs)
        failed = 0
        for spec, result in zip(specs, results):
            if not self._cell_ok(spec, result):
                failed += 1
        return failed

    def _cell_ok(self, spec, result) -> bool:
        if result is None:
            return False
        key = cell_key(spec, self.buffers)
        if result.trace_name != spec.trace_name or result.buffer_name != key[3]:
            return False
        answer = signature(result)
        if self.seen.setdefault(key, answer) != answer:
            return False
        expected = self.oracle.get(key)
        if expected is None:
            return True
        self.oracle_checked += 1
        return expected == answer

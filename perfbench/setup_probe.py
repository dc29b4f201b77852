"""Time one workload's set-up in this fresh interpreter.

``python3 perfbench/setup_probe.py WORKLOAD SEED SCRATCH_DIR`` prints the
seconds spent importing the package, generating the workload's traces,
resolving its backend, (for the memoizing backend) computing the
code-version salt and making its first request's inputs — everything before
its first cell runs — and then the reference task's time in this process
(:mod:`perfbench.hostspeed`), so the caller can scale the set-up time by
the speed of the CPU it ran on.
"""

import time

STARTED = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

if __name__ == "__main__":
    from perfbench.hostspeed import time_reference
    from perfbench.workloads import WORKLOADS

    name, seed, scratch = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    session = WORKLOADS[name].open(seed, 0, scratch)
    session.next_specs()
    elapsed = time.perf_counter() - STARTED
    session.close()
    print(repr(elapsed), repr(time_reference()))

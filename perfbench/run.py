"""Benchmark entry point: ``python3 perfbench/run.py --workload W --seed N
--seconds S --trace 0|1`` from the root of a checkout.

Runs against the checkout's own ``src/`` tree; exits with status 2 (and no
result line) when there is none.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _bootstrap() -> bool:
    """Put the checkout's sources first on this and every child's path."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no repro source tree under {SRC}", file=sys.stderr)
        return False
    sys.path[:0] = [str(SRC), str(ROOT)]
    # Users pay for the code-version salt; an override would hide its cost.
    os.environ.pop("REPRO_CACHE_SALT", None)
    # Remote sweep workers and set-up probes are child interpreters: they
    # import the benchmark's buffer factories from the same checkout.
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(ROOT)] + ([inherited] if inherited else [])
    )
    return True


if __name__ == "__main__":
    if not _bootstrap():
        sys.exit(2)
    from perfbench.bench import main

    sys.exit(main())

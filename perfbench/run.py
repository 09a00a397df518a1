"""Benchmark entry point.

    python3 perfbench/run.py --workload qkp_hw --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
The last line of standard output is the result object; the line before it
is the run's context record (raw host seconds, versions, thread counts).
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # Timed first, so the import of NumPy, SciPy and NetworkX counts.
    started = time.perf_counter()
    import repro  # noqa: F401

    import_s = time.perf_counter() - started
    from perfbench.harness import main as harness_main

    return harness_main(import_s=import_s)


if __name__ == "__main__":
    sys.exit(main())

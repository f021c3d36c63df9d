"""Set-up time of one workload in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py <workload> <seed>

Times importing gdnls.cli (which pulls in numpy and scipy) and validating
the workload's configs. Prints the time.perf_counter() readings at the
start and the end, which the parent converts to reference seconds.
"""

import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    steps = workloads.plan(sys.argv[1], int(sys.argv[2]))
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    from gdnls import cli

    for step in steps:
        cli.validate_config(step.experiment, step.raw)
    print(start, time.perf_counter())


if __name__ == "__main__":
    main()

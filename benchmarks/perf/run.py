#!/usr/bin/env python3
"""Campaign-throughput benchmark of the fault-injection engine.

    python3 benchmarks/perf/run.py --seed 123 [--out FILE]      # everything
    python3 benchmarks/perf/run.py --smoke                      # < 1 minute
    python3 benchmarks/perf/run.py --workload cg-scalar --seed 7 --seconds 15 --trace 0
    python3 benchmarks/perf/run.py compare --parent DIR --change DIR

The program under test is imported from ``./src`` by the child
processes; no install or ``PYTHONPATH`` is needed.  See README.md
beside this file for the workloads, the metrics and how to compare.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from perfbench.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""One benchmark child process: set up, warm up, run units, report JSON.

Every (run, workload) pair measures in fresh child processes so that no
interpreter state survives from one measurement to the next.  The
parent passes a JSON spec on the command line and the time it spawned
the child; the child prints one JSON object as its last stdout line.

Roles:

``measure``  warm up, then run units ``first_unit``, ``first_unit + 1``, ...
             in a closed loop for ``budget`` seconds (at least one)
``trace``    warm up, then run unit 0 with the layer wrappers installed
``rebuild``  re-run the sweep from a cache directory another child filled
``verify``   cross-check the run's outputs on an independent path
``micro``    run the microbench tier
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

__all__ = ["main"]


def _cpu_s() -> float:
    """CPU seconds of this process plus its waited-for children.

    ``getrusage`` rather than ``os.times``: the latter counts in clock
    ticks, too coarse for a per-trial figure.
    """
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    """Peak resident set of this process or its largest child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _timed_unit(workload, seed: int, k: int, size: str, scratch: Path) -> dict:
    """Run unit ``k``; a unit that raises is reported, not fatal."""
    cpu0, t0 = _cpu_s(), perf_counter()
    try:
        out = workload.unit(seed, k, size, scratch)
    except Exception as exc:  # counted toward the run's failed units
        traceback.print_exc()
        return {"index": k, "error": f"{type(exc).__name__}: {exc}",
                "wall_s": perf_counter() - t0}
    return {
        "index": k, "trials": out.trials, "wall_s": perf_counter() - t0,
        "cpu_s": _cpu_s() - cpu0, "digest": out.digest, "triple": out.triple,
        "scratch": str(scratch),
    }


def _probe(app_name: str, nprocs: int) -> dict:
    """Scheduler counts of one fault-free execution (``record_traffic``)."""
    from repro.apps import get_app
    from repro.mpisim.scheduler import Scheduler
    from repro.taint.ops import FPOps

    app = get_app(app_name)
    scheduler = Scheduler(
        nprocs, lambda rank, comm: app.program(rank, nprocs, comm, FPOps(None, rank)),
        record_traffic=True,
    )
    scheduler.run()
    return {
        "steps": scheduler.steps,
        "p2p": sum(scheduler.traffic.values()),
        "collectives": sum(scheduler.collective_counts.values()),
    }


def _traced_unit(workload, seed: int, size: str, scratch: Path, spans: str | None) -> dict:
    """Unit 0 with every layer wrapper installed."""
    from perfbench.layers import LayerTrace, traced

    trace = LayerTrace()
    with traced(trace):
        unit = _timed_unit(workload, seed, 0, size, scratch)
    if spans:
        trace.write_spans(Path(spans))
    return {"unit": unit, "layers": trace.summary()}


def main(spec: dict) -> int:
    sys.path.insert(0, spec["src"])
    from perfbench.workloads import WORKLOADS

    role, seed, size = spec["role"], spec["seed"], spec["size"]
    work = Path(spec["work"])
    workload = WORKLOADS.get(spec["workload"])
    result: dict
    if role == "micro":
        from perfbench.micro import run_micro

        result = {"micro": run_micro(work, quick=size == "smoke")}
    elif role == "verify":
        result = {"mismatches": workload.check(seed, size, spec["digest"])}
    elif role == "rebuild":
        result = _traced_unit(workload, seed, size, Path(spec["cache"]), spec["spans"])
    else:
        workload.warm_up(work / f"warm-{os.getpid()}")
        result = {"setup_s": time.time() - spec["spawned_at"]}
        if role == "trace":
            result.update(_traced_unit(
                workload, seed, size, work / f"trace-{os.getpid()}", spec["spans"],
            ))
            result["probe"] = _probe(*workload.probe)
        else:
            units, start, k = [], perf_counter(), spec["first_unit"]
            while True:
                scratch = work / f"unit-{os.getpid()}-{k}"
                units.append(_timed_unit(workload, seed, k, size, scratch))
                k += 1
                if workload.cached or perf_counter() - start >= spec["budget"]:
                    break
            result["units"] = units
        result["peak_rss_mb"] = _peak_rss_mb()
    print(json.dumps(result))
    return 0

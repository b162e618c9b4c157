"""Parent side: spawn child processes, check outputs, compute metrics.

The parent never imports the program.  It spawns each child with every
``REPRO_*`` knob scrubbed from the environment and the result cache
either off (``REPRO_CACHE=0``) or pointed into the invocation's own
scratch directory, so a run never reads or writes the repository's
``.repro-cache/``, ``results/`` or ``EXPERIMENTS.md``.
"""

from __future__ import annotations

import json
import os
import platform
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy

from perfbench.stats import median
from perfbench.workloads import Workload

__all__ = [
    "BenchError", "CorrectnessError", "Context", "RunResult", "check_repeatable",
    "run_measure", "run_trace", "run_micro", "layer_metrics", "host_facts",
    "PIN_SEED",
]

RUN_PY = Path(__file__).resolve().parent.parent / "run.py"
#: the seed whose outputs are pinned in pins.json
PIN_SEED = 123
#: measured child processes per run; setup_s is their median
CHILDREN = 3


class BenchError(RuntimeError):
    """The benchmark itself could not run (a child died or hung)."""


class CorrectnessError(RuntimeError):
    """The program produced wrong or non-deterministic outputs."""


@dataclass
class Context:
    """Where one invocation runs and what it checks against."""

    root: Path        #: checkout holding BENCHMARK.json
    src: Path         #: program source tree (``src/`` of the measured commit)
    work: Path        #: scratch directory, removed when the invocation ends
    size: str         #: "full" or "smoke" (workload sizes)
    pins: dict        #: pinned seed-123 outputs
    deadline: float | None = None  #: wall-clock limit for every child

    def timeout(self) -> float:
        left = 600.0 if self.deadline is None else self.deadline - time.time()
        if left <= 0:
            raise BenchError("out of time before the next child process")
        return left


@dataclass
class RunResult:
    """One measured run of one workload (several child processes)."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    #: output digest of each unit that completed, by unit index
    digests: dict[int, str]
    unit_walls: list[float] = field(default_factory=list)


def _child_env(workload: Workload | None, work: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    if workload is not None and workload.cached:
        # each unit points the cache at a directory of its own
        env["REPRO_CACHE_DIR"] = str(work / "cache-unused")
    else:
        env["REPRO_CACHE"] = "0"
    return env


def spawn(ctx: Context, role: str, workload: Workload | None, seed: int, **extra) -> dict:
    """Run one child process to completion; returns its JSON report."""
    spec = {
        "role": role, "workload": workload.name if workload else "",
        "seed": seed, "size": ctx.size, "src": str(ctx.src),
        "work": str(ctx.work), "spans": None, **extra, "spawned_at": time.time(),
    }
    proc = subprocess.Popen(
        [sys.executable, str(RUN_PY), "child", json.dumps(spec)],
        stdout=subprocess.PIPE, cwd=ctx.root,
        env=_child_env(workload, ctx.work), start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=ctx.timeout())
    except subprocess.TimeoutExpired:
        raise BenchError(f"{role} child for {spec['workload']} timed out") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError(
            f"{role} child for {spec['workload'] or 'micro'} exited {proc.returncode}"
        )
    return json.loads(out.decode().strip().splitlines()[-1])


def check_outputs(ctx: Context, workload: Workload, seed: int, first: dict) -> None:
    """Check unit 0 (``first``): pinned outputs for seed 123 at full
    size, parity on an independent path otherwise."""
    if "error" in first:
        raise CorrectnessError(f"{workload.name}: unit 0 raised ({first['error']})")
    pin = ctx.pins.get(workload.name) if ctx.size == "full" and seed == PIN_SEED else None
    if pin is not None:
        if first["digest"] != pin["digest"]:
            raise CorrectnessError(
                f"{workload.name}: joint digest {first['digest'][:12]} != "
                f"pinned {pin['digest'][:12]}"
            )
        if "triple" in pin and first["triple"] != pin["triple"]:
            raise CorrectnessError(
                f"{workload.name}: predicted triple {first['triple']} != "
                f"pinned {pin['triple']}"
            )
        return
    report = spawn(ctx, "verify", workload, seed, digest=first["digest"])
    if report["mismatches"]:
        raise CorrectnessError("; ".join(report["mismatches"]))


def check_repeatable(name: str, runs: list[RunResult]) -> None:
    """Units with the same index ran the same deployment: same outputs."""
    seen: dict[int, str] = {}
    for run in runs:
        for k, digest in run.digests.items():
            if seen.setdefault(k, digest) != digest:
                raise CorrectnessError(
                    f"{name}: unit {k} produced different outputs in two processes"
                )


def run_measure(
    ctx: Context, workload: Workload, seed: int, seconds: float,
    children: int = CHILDREN,
) -> RunResult:
    """The end-to-end metrics of one run: ``children`` fresh processes
    one after another, each warming up and then measuring for
    ``seconds / children``; unit indices continue from child to child."""
    reports, units = [], []
    for _ in range(children):
        report = spawn(
            ctx, "measure", workload, seed, budget=seconds / children,
            first_unit=len(units),
        )
        reports.append(report)
        units.extend(report["units"])
    check_outputs(ctx, workload, seed, units[0])
    good = [u for u in units if "error" not in u]
    metrics = {
        "trials_per_s": median([u["trials"] / u["wall_s"] for u in good]),
        "cpu_ms_per_trial": median([1e3 * u["cpu_s"] / u["trials"] for u in good]),
        "setup_s": median([r["setup_s"] for r in reports]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reports]),
    }
    return RunResult(
        metrics, attempted=len(units), failed=len(units) - len(good),
        digests={u["index"]: u["digest"] for u in good},
        unit_walls=[u["wall_s"] for u in good],
    )


def run_micro(ctx: Context) -> dict[str, dict]:
    return spawn(ctx, "micro", None, PIN_SEED)["micro"]


def run_trace(
    ctx: Context, workload: Workload, seed: int, seconds: float,
    reference: RunResult | None = None, micro: dict | None = None,
    spans: Path | None = None,
) -> tuple[dict[str, float], int, int]:
    """Per-layer metrics of one traced unit: ``(metrics, attempted, failed)``.

    The traced unit is unit 0 of the run.  Without an untraced
    ``reference`` run, one untraced child measures first: its median
    unit wall time is the base of ``trace.overhead``, and its unit 0
    outputs are what the traced unit must reproduce byte for byte.
    """
    attempted = failed = 0
    if reference is None:
        reference = run_measure(ctx, workload, seed, seconds / 2, children=1)
        attempted, failed = reference.attempted, reference.failed
    traced = spawn(ctx, "trace", workload, seed, spans=str(spans) if spans else None)
    units = [traced["unit"]]
    rebuild = None
    if workload.cached and "error" not in traced["unit"]:
        rebuild = spawn(
            ctx, "rebuild", workload, seed, cache=traced["unit"]["scratch"],
            spans=str(spans.with_suffix(".rebuild.json")) if spans else None,
        )
        units.append(rebuild["unit"])
    attempted += len(units)
    for unit in units:
        if "error" in unit:
            raise CorrectnessError(f"{workload.name}: traced unit raised ({unit['error']})")
        if unit["digest"] != reference.digests.get(0):
            raise CorrectnessError(
                f"{workload.name}: traced outputs differ from untraced outputs"
            )
    if micro is None:
        micro = run_micro(ctx)
    metrics = layer_metrics(traced, median(reference.unit_walls), rebuild, micro)
    return metrics, attempted, failed


def layer_metrics(
    traced: dict, untraced_wall: float, rebuild: dict | None,
    micro: dict[str, dict],
) -> dict[str, float]:
    """Every per-layer metric from one traced unit's report (and that of
    its warm rebuild, for a cached workload)."""
    layers, probe = traced["layers"], traced["probe"]
    wall = traced["unit"]["wall_s"]
    rebuild_wall = rebuild["unit"]["wall_s"] if rebuild else 0.0
    passes = [layers] + ([rebuild["layers"]] if rebuild else [])

    def leaf(name: str, key: str) -> float:
        return layers["leaves"].get(name, {}).get(key, 0)

    def span(name: str, key: str, of: list[dict] = passes[:1]) -> float:
        return sum(p["spans"].get(name, {}).get(key, 0) for p in of)

    def count(name: str, of: list[dict] = passes[:1]) -> float:
        return sum(p["counts"].get(name, 0) for p in of)

    def mean(name: str) -> float:
        values = layers["samples"].get(name, [])
        return sum(values) / len(values) if values else 0.0

    lanes_run = count("fi.lanes.lanes_run")
    adds = span("engine.aggregate.add", "count")
    store_s = (span("engine.store.put", "total_s", passes)
               + span("engine.store.get", "total_s", passes))
    metrics = {
        "taint.ops.calls": leaf("taint.ops", "calls"),
        "taint.ops.self_s": leaf("taint.ops", "self_s"),
        "taint.ops.share": leaf("taint.ops", "self_s") / wall,
        "taint.laneops.calls": leaf("taint.laneops", "calls"),
        "taint.laneops.share": leaf("taint.laneops", "self_s") / wall,
        "fi.lanes.blocks": span("fi.lanes.block", "count"),
        "fi.lanes.eject_frac": count("fi.lanes.ejected") / lanes_run if lanes_run else 0.0,
        "fi.lanes.replay_share": layers["replay_s"] / wall,
        "mpisim.execs": span("mpisim.run", "count"),
        "mpisim.steps": count("mpisim.steps"),
        "mpisim.steps_per_exec": probe["steps"],
        "mpisim.p2p_per_exec": probe["p2p"],
        "mpisim.collectives_per_exec": probe["collectives"],
        "mpisim.self_s": span("mpisim.run", "self_s"),
        "mpisim.share": span("mpisim.run", "self_s") / wall,
        "fi.scenarios.samples": leaf("fi.scenarios.sample", "calls"),
        "fi.scenarios.sample_share": leaf("fi.scenarios.sample", "self_s") / wall,
        "fi.scenarios.classify_share": leaf("fi.scenarios.classify", "self_s") / wall,
        "fi.profile.golden_s": mean("golden_s"),
        "engine.backend.first_payload_s": mean("first_payload_s"),
        "engine.backend.wait_share": span("engine.backend", "self_s") / wall,
        "engine.aggregate.add_us": 1e6 * span("engine.aggregate.add", "total_s") / adds
        if adds else 0.0,
        "engine.store.put_calls": span("engine.store.put", "count", passes),
        "engine.store.put_bytes": count("engine.store.put_bytes", passes),
        "engine.store.get_calls": span("engine.store.get", "count", passes),
        "engine.store.share": store_s / (wall + rebuild_wall),
        "fi.cache.hits": count("fi.cache.hits", passes),
        "fi.cache.misses": count("fi.cache.misses", passes),
        "fi.cache.warm_rebuild_ratio": rebuild_wall / wall,
        "model.predict_share": span("model.predict", "total_s") / wall,
        "trace.overhead": wall / untraced_wall - 1.0,
    }
    metrics.update({name: s["median"] for name, s in micro.items()})
    return metrics


def host_facts(ctx: Context, seed: int) -> dict:
    """Cores, interpreter, numpy and commit of this measurement."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ctx.src, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown"
    return {
        "cores": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "platform": platform.platform(),
        "git_sha": sha, "seed": seed,
    }


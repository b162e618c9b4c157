"""The benchmark's workloads: one measured unit each, its warm-up, its checks.

A *unit* is what the closed loop repeats: one campaign (``mg16-sysfault``:
two) or one prediction sweep, started when the previous one returned.
Unit ``k`` of a run uses the seed :func:`unit_seed` derives from the
run's seed, so a run covers as many distinct trials as it executes —
how costly a trial is depends on where its fault lands, and repeating
one trial set would carry that set's luck into the run's median.  The
program receives a seed only through ``Deployment(seed=...)`` or
``build_predictor(seed=...)``.

Sizes are per unit.  ``full`` sizes keep a unit near 1.5-3 s on a
2-core host so a 15 s run gets several units per child process;
``smoke`` sizes only prove the plumbing works.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

__all__ = ["WORKLOADS", "Workload", "UnitOutput", "pool_jobs", "unit_seed"]

#: seed of every warm-up: outside any run's unit seeds, and fixed so the
#: warm-up does the same work (and costs the same set-up time) every run
WARM_UP_SEED = 2**31 - 1


def pool_jobs() -> int:
    """Worker processes for the pooled workload, capped at the core count."""
    return max(1, min(2, os.cpu_count() or 1))


def unit_seed(seed: int, k: int) -> int:
    """Deployment seed of unit ``k`` of a run with seed ``seed``."""
    return seed + k * 1_000_003


@dataclass
class UnitOutput:
    """What one unit produced: its trial count and an output digest."""

    trials: int
    digest: str
    #: the sweep's predicted (success, sdc, failure) triple
    triple: list[float] | None = None


def joint_items(joint: dict) -> list[list]:
    """A campaign's joint distribution as JSON-able items, in dict order."""
    return [[o.value, n, a, c] for (o, n, a), c in joint.items()]


def digest_of(items: list) -> str:
    return hashlib.sha256(json.dumps(items).encode()).hexdigest()


def _campaign(app: str, nprocs: int, trials: int, seed: int, **fields):
    # module attributes looked up per call, so tracing wrappers apply
    import repro.fi.campaign as campaign
    from repro.apps import get_app

    return campaign.run_campaign(
        get_app(app),
        campaign.Deployment(nprocs=nprocs, trials=trials, seed=seed, **fields),
    )


def _campaigns_output(results) -> UnitOutput:
    return UnitOutput(
        trials=sum(r.n_trials for r in results),
        digest=digest_of([joint_items(r.joint) for r in results]),
    )


def _cg(lanes: int) -> Callable[[int, int, Path], UnitOutput]:
    def run(seed: int, trials: int, scratch: Path) -> UnitOutput:
        return _campaigns_output([_campaign("cg", 4, trials, seed, lanes=lanes, jobs=1)])

    return run


def _mg(seed: int, trials: int, scratch: Path, jobs: int = 1) -> UnitOutput:
    return _campaigns_output([
        _campaign("mg", 16, trials, seed, scenario=scenario, jobs=jobs)
        for scenario in ("msgcorrupt", "rankkill")
    ])


def _sweep(seed: int, trials: int, scratch: Path) -> UnitOutput:
    """``build_predictor`` + ``predict`` with its result cache in ``scratch``.

    An empty ``scratch`` makes a cold sweep, one an earlier unit filled a
    warm rebuild.  The campaigns' joints are read back from the entries
    the sweep wrote.
    """
    import repro.experiments.common as common

    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_CACHE_DIR"] = str(scratch)
    predictor = common.build_predictor(
        "cg", 4, 64, trials=trials, seed=seed, jobs=pool_jobs()
    )
    result = predictor.predict(64)
    triple = [result.success, result.sdc, result.failure]
    joints, total = [], 0
    for path in sorted(scratch.glob("cg-*.json")):
        joint = json.loads(path.read_text())["joint"]
        joints.append(joint)
        total += sum(item[3] for item in joint)
    return UnitOutput(trials=total, digest=digest_of([joints, triple]), triple=triple)


def _warm_sweep(seed: int, trials: int, scratch: Path) -> UnitOutput:
    """Warm-up of the sweep: imports plus one pooled campaign.

    Runs ``run_campaign`` directly, so it starts a worker pool without
    filling the disk cache or the per-process profiling memo that a
    measured sweep reads.
    """
    import repro.experiments.common  # noqa: F401
    import repro.model.predictor  # noqa: F401

    return _campaigns_output([_campaign("cg", 4, trials, seed, jobs=pool_jobs())])


def _lanes_parity(seed: int, trials: int, measured: str) -> list[str]:
    scalar = _cg(1)(seed, trials, Path()).digest
    lanes = _cg(32)(seed, trials, Path()).digest
    return [] if scalar == lanes else [
        f"cg p=4 {trials} trials: lanes=1 digest {scalar[:12]} != lanes=32 {lanes[:12]}"
    ]


def _jobs_parity(seed: int, trials: int, measured: str) -> list[str]:
    inline = _campaigns_output([_campaign("cg", 4, trials, seed, jobs=1)]).digest
    pooled = _campaigns_output([_campaign("cg", 4, trials, seed, jobs=pool_jobs())]).digest
    return [] if inline == pooled else [
        f"cg p=4 {trials} trials: inline digest {inline[:12]} != "
        f"jobs={pool_jobs()} {pooled[:12]}"
    ]


@dataclass(frozen=True)
class Workload:
    """One workload (see ``README.md`` for why each exists)."""

    name: str
    #: ``run(seed, trials, scratch)``: one unit with ``trials`` per campaign
    run: Callable[[int, int, Path], UnitOutput]
    #: trials per unit campaign, by size
    trials: dict[str, int]
    #: the warm-up, ``run``-shaped, and its trials; called with WARM_UP_SEED
    warm: tuple[Callable[[int, int, Path], UnitOutput], int]
    #: ``parity(seed, trials, digest of unit 0)``: mismatch descriptions
    parity: Callable[[int, int, str], list[str]]
    #: trials of the parity deployments, by size
    parity_trials: dict[str, int]
    #: (app, nprocs) whose fault-free execution the mpisim probe records
    probe: tuple[str, int]
    #: goes through the result cache: each unit needs an empty cache and,
    #: since profiling results are also memoized per process, a process
    #: of its own; the traced run adds a warm rebuild from the filled cache
    cached: bool = False

    def warm_up(self, scratch: Path) -> None:
        """Load imports and first-call paths; fills no result cache.

        System-level scenarios memoize the fault-free execution extent
        per process (``execution_dynamics``); the warm-up fills it on
        purpose, since every campaign of a long-lived process after the
        first reads it.
        """
        run, trials = self.warm
        run(WARM_UP_SEED, trials, scratch)

    def unit(self, seed: int, k: int, size: str, scratch: Path) -> UnitOutput:
        """Run unit ``k`` of a run with seed ``seed``.

        ``scratch`` is a directory of this unit's own; the sweep keeps
        its result cache there.
        """
        return self.run(unit_seed(seed, k), self.trials[size], scratch)

    def check(self, seed: int, size: str, first: str) -> list[str]:
        """Cross-check on an independent execution path.

        CG workloads compare ``lanes=32`` with ``lanes=1`` and the sweep
        a pooled campaign with an inline one, on deployments of 64
        trials; the system-level scenarios, which run scalar only,
        re-run unit 0 on the worker pool and compare with ``first``,
        the measured unit 0's digest.
        """
        return [
            f"{self.name}: {m}"
            for m in self.parity(unit_seed(seed, 0), self.parity_trials[size], first)
        ]


def _mg_pool_parity(seed: int, trials: int, measured: str) -> list[str]:
    pooled = _mg(seed, trials, Path(), jobs=pool_jobs()).digest
    return [] if pooled == measured else [
        f"jobs={pool_jobs()} digest {pooled[:12]} != inline {measured[:12]}"
    ]


_PARITY_TRIALS = {"full": 64, "smoke": 16}
_MG_TRIALS = {"full": 20, "smoke": 4}

WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (
        Workload("cg-scalar", _cg(1), {"full": 150, "smoke": 16}, (_cg(1), 8),
                 _lanes_parity, _PARITY_TRIALS, ("cg", 4)),
        Workload("cg-lanes32", _cg(32), {"full": 640, "smoke": 64}, (_cg(32), 32),
                 _lanes_parity, _PARITY_TRIALS, ("cg", 4)),
        Workload("mg16-sysfault", _mg, _MG_TRIALS, (_mg, 2),
                 _mg_pool_parity, _MG_TRIALS, ("mg", 16)),
        Workload("sweep-jobs2", _sweep, {"full": 40, "smoke": 4}, (_warm_sweep, 8),
                 _jobs_parity, _PARITY_TRIALS, ("cg", 4), cached=True),
    )
}


def load_pins(path: Path) -> dict:
    """Pinned seed-123 outputs of unit 0 at ``full`` sizes (``run.py pins``)."""
    return json.loads(path.read_text()) if path.is_file() else {}

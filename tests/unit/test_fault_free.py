"""One fault-free execution per (app, nprocs, max_steps) per process.

:func:`repro.fi.scenarios.base.fault_free_run` memoizes the execution
that gives a campaign its profile and reference output and the
system-level families their fault-site extent.  These tests pin that a
campaign reading the memo reports exactly what one that filled it
reported, that every consumer shares the one execution, and that the
memo hands out copies.
"""

from __future__ import annotations

import importlib.util
import json
import pickle
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro import obs
from repro.apps import get_app
from repro.engine.chunks import EngineContext, execute_chunk
from repro.fi.cache import cached_unique_fraction_stats
from repro.fi.campaign import Deployment, run_campaign
from repro.fi.scenarios import base, resolve_model
from repro.fi.scenarios.base import (
    _DeliveryCounter,
    execution_dynamics,
    fault_free_run,
)
from repro.fi.sensitivity import run_sensitivity
from repro.mpisim.scheduler import Scheduler
from repro.obs.provenance import provenance_path
from repro.obs.timeline import spans_of
from repro.taint.ops import FPOps
from repro.utils.rng import trial_seed

from tests.unit.test_timeline import _tree_digest

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "goldens"
_spec = importlib.util.spec_from_file_location(
    "gen_scenario_goldens", GOLDEN_DIR / "gen_scenario_goldens.py"
)
goldens = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(goldens)


@pytest.fixture
def executions(monkeypatch):
    """The scheduler executions a test runs in this process (``calls``)
    and the steps of each that completed (``steps``)."""
    seen = SimpleNamespace(calls=[], steps=[])
    real = Scheduler.run

    def counting(self):
        seen.calls.append(self)
        outputs = real(self)
        seen.steps.append(self.steps)
        return outputs

    monkeypatch.setattr(Scheduler, "run", counting)
    return seen


@pytest.fixture
def no_fork(monkeypatch):
    """Run every site-driven trial alone: one execution per trial."""
    monkeypatch.setattr(base, "fork_pays", lambda app, deployment, trials: False)


def _observed(app_name: str, deployment: Deployment, tmp_path: Path, **kwargs):
    """Everything a campaign reports that does not read the clock."""
    trace = tmp_path / "run.jsonl"
    trace.unlink(missing_ok=True)
    mem = obs.MemorySink()
    previous = obs.get_recorder()
    recorder = obs.configure(trace_path=trace, timeline=True)
    recorder.sinks.append(mem)
    try:
        result = run_campaign(
            get_app(app_name), deployment, keep_records=True, **kwargs
        )
    finally:
        obs.set_recorder(previous)
        recorder.close()
    events = [goldens.strip_volatile(line) for line in trace.read_text().splitlines()]
    histograms = {
        name: summary for name, summary in recorder.histograms.items()
        if not name.endswith("_s")
    }
    return {
        "records": result.records,
        "joint": list(result.joint.items()),
        "profile": (result.parallel_unique_fraction, result.total_instructions,
                    result.candidate_instructions),
        "events": events,
        "provenance": provenance_path(trace).read_bytes(),
        "spans": _tree_digest(spans_of(mem.events)),
        "counters": dict(recorder.counters),
        "histograms": histograms,
    }


class TestReuse:
    @pytest.mark.parametrize("scenario", ["bitflip", "rankkill", "msgcorrupt"])
    def test_second_run_reads_the_memo_and_reports_the_same(
        self, scenario, tmp_path, executions, no_fork
    ):
        deployment = Deployment(nprocs=4, trials=6, seed=3, scenario=scenario)
        first = _observed("cg", deployment, tmp_path, jobs=1, lanes=1)
        filled, first_steps = len(executions.calls), sum(executions.steps)
        second = _observed("cg", deployment, tmp_path, jobs=1, lanes=1)
        assert second == first
        # one execution per trial and none before the first
        assert filled == deployment.trials + 1
        assert len(executions.calls) - filled == deployment.trials
        # the first run counts its fault-free execution; the second
        # replays what it recorded
        assert first["counters"]["scheduler.steps"] == first_steps
        pass_steps = fault_free_run(get_app("cg"), 4).steps
        second_steps = sum(executions.steps) - first_steps
        assert second["counters"]["scheduler.steps"] == second_steps + pass_steps

    def test_memo_filled_by_another_family_is_served(self, executions, no_fork):
        kill_name, kill = "cg4-rankkill", goldens.CASES["cg4-rankkill"]
        corrupt_name, corrupt = "cg4-msgcorrupt", goldens.CASES["cg4-msgcorrupt"]
        assert goldens.capture(*kill, jobs=1) == _golden(kill_name)
        filled = len(executions.calls)
        assert goldens.capture(*corrupt, jobs=1) == _golden(corrupt_name)
        assert len(executions.calls) - filled == corrupt[1]["trials"]


class TestPoolWorker:
    @pytest.mark.parametrize("scenario", ["rankkill", "msgcorrupt"])
    def test_worker_serves_the_parents_run(self, scenario, executions, no_fork):
        app = get_app("cg")
        deployment = Deployment(nprocs=4, trials=5, seed=2, scenario=scenario)
        ctx = EngineContext(
            app=app, deployment=deployment, golden=fault_free_run(app, 4),
            keep_records=True, obs_enabled=False,
        )
        inline = execute_chunk(ctx, 0, deployment.trials)
        # a fresh worker process: its memo is empty, the context ships
        # the parent's run
        base._FAULT_FREE.clear()
        before = len(executions.calls)
        payload = execute_chunk(pickle.loads(pickle.dumps(ctx)), 0, deployment.trials)
        assert len(executions.calls) - before == deployment.trials
        assert payload.records == inline.records


def _golden(name: str):
    return (
        (GOLDEN_DIR / f"{name}.provenance.jsonl").read_bytes(),
        (GOLDEN_DIR / f"{name}.events.jsonl").read_text(),
        json.loads((GOLDEN_DIR / f"{name}.joint.json").read_text()),
    )


class TestOneExecution:
    def test_every_consumer_shares_one_execution(self, executions):
        app = get_app("cg")
        deployment = Deployment(nprocs=4, trials=3, seed=1)
        run_campaign(app, deployment, jobs=1, lanes=1)
        execution_dynamics(app, deployment)
        cached_unique_fraction_stats(app, 4)
        run_sensitivity(app, Deployment(nprocs=4, trials=2, seed=1))
        # the campaign's and the sensitivity run's trials, plus one
        assert len(executions.calls) == 3 + 2 + 1

    def test_extent_matches_a_bare_execution(self):
        app, nprocs = get_app("mg"), 8
        counter = _DeliveryCounter()
        bare = Scheduler(
            nprocs,
            lambda rank, comm: app.program(rank, nprocs, comm, FPOps(None, rank)),
            transit=counter,
        )
        bare.run()
        run = fault_free_run(app, nprocs)
        assert (run.steps, run.deliveries) == (bare.steps, counter.count)

    def test_a_run_outside_a_campaign_records_nothing(self):
        rec = obs.Recorder(enabled=True)
        with obs.recording(rec):
            execution_dynamics(get_app("cg"), Deployment(nprocs=4, trials=1))
        assert rec.counters == {} and rec.histograms == {}

    def test_memo_hands_out_copies(self):
        app = get_app("cg")
        run = fault_free_run(app, 4)
        profile, reference = run.profile(), run.reference()
        rank, region, kind = next(iter(profile.counts))
        profile.record(rank, region, kind, 5)
        reference.clear()
        again = fault_free_run(app, 4)
        assert again is run
        assert again.profile().counts != profile.counts
        assert again.reference() == app.reference_output(4)


def test_msgcorrupt_trial_records_no_profile():
    app = get_app("cg")
    deployment = Deployment(nprocs=4, trials=1, seed=11, scenario="msgcorrupt")
    model = resolve_model("msgcorrupt")
    plan = model.sample(None, trial_seed(deployment.seed, 0), app=app,
                        deployment=deployment)
    run = model.arm(0, plan)
    run.execute(app, deployment)
    assert run.activated()
    assert run.timeline() and run.n_contaminated() >= 1
    assert run.tracer.profile.counts == {}

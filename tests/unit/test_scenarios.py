"""The pluggable fault-scenario layer (``repro.fi.scenarios``).

Three guarantees are pinned here:

* **Byte-identity** — the refactored :class:`BitFlipModel` reproduces
  the pre-refactor pipeline's provenance sidecars, canonical trace
  events, and joint distributions byte-for-byte (against goldens
  captured before the scenario layer existed) for any jobs × lanes ×
  interrupt/resume combination;
* **Determinism of the new families** — rank-kill and
  message-corruption trials are pure functions of
  ``(deployment.seed, trial)``: identical records across repeat runs,
  worker counts, and checkpoint/resume;
* **Identity separation** — scenario specs are canonicalized into
  ``deployment_key``, so different families (and different parameters)
  never share cache entries or checkpoint directories, while the
  default bit-flip family keeps its pre-scenario identities.

The apps here are module-level classes so ``spawn`` workers can
unpickle them (see ``test_parallel.py``).
"""

from __future__ import annotations

import importlib.util
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.apps import get_app
from repro.errors import ConfigurationError
from repro.engine import chunks as chunks_mod
from repro.fi.cache import cached_campaign, deployment_key
from repro.fi.campaign import Deployment, run_campaign
from repro.fi.outcomes import Outcome
from repro.fi.scenarios import (
    SCENARIOS,
    BitFlipModel,
    MessageCorruptionModel,
    RankKillModel,
    canonical_scenario,
    execution_dynamics,
    parse_scenario,
    resolve_model,
)
from repro.knobs import env_value
from repro.obs.provenance import (
    ScenarioObservation,
    load_provenance,
    provenance_path,
)
from repro.obs.report import render_trace_report

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "goldens"

# the golden generator is the single source of truth for the capture
# procedure (cases, volatile fields, canonicalization)
_spec = importlib.util.spec_from_file_location(
    "gen_bitflip_goldens", GOLDEN_DIR / "gen_bitflip_goldens.py"
)
goldens = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(goldens)


class ScenarioApp:
    """Distributed dot product with an allreduce: real traffic, cheap."""

    name = "scenario-dot"

    def __init__(self, n=64, tol=1e-9):
        self.n = n
        self.tol = tol

    def program(self, rank, size, comm, fp):
        chunk = self.n // size
        x = fp.asarray(np.linspace(1.0, 2.0, chunk) + rank)
        local = fp.dot(x, x)
        total = yield comm.allreduce(local, op="sum")
        if rank == 0:
            return {"total": total.value}
        return None

    def verify(self, output, reference):
        got, ref = output["total"], reference["total"]
        if not (np.isfinite(got) and np.isfinite(ref)):
            return False
        return abs(got - ref) <= self.tol * abs(ref)

    def cache_key(self):
        return f"scenario-dot(n={self.n},tol={self.tol})"


def _run_captured(app, deployment, **kwargs):
    """Run a campaign under a trace; return (prov bytes, events, joint)."""
    with tempfile.TemporaryDirectory() as tmp:
        trace = Path(tmp) / "run.jsonl"
        previous = obs.get_recorder()
        recorder = obs.configure(trace_path=trace)
        try:
            result = run_campaign(app, deployment, **kwargs)
        finally:
            obs.set_recorder(previous)
            recorder.close()
        prov = provenance_path(trace).read_bytes()
        events = "".join(
            goldens.strip_volatile(line) + "\n"
            for line in trace.read_text().splitlines()
        )
    joint = [
        [outcome.value, ncont, activated, count]
        for (outcome, ncont, activated), count in result.joint.items()
    ]
    return prov, events, joint


def _golden(name: str):
    return (
        (GOLDEN_DIR / f"{name}.provenance.jsonl").read_bytes(),
        (GOLDEN_DIR / f"{name}.events.jsonl").read_text(),
        json.loads((GOLDEN_DIR / f"{name}.joint.json").read_text()),
    )


def _interrupt_after(n_trials: int):
    """Patch ``fold_record`` to raise KeyboardInterrupt after N trials."""
    real = chunks_mod.fold_record
    calls = {"n": 0}

    def interrupted(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] > n_trials:
            raise KeyboardInterrupt
        return real(*args, **kwargs)

    chunks_mod.fold_record = interrupted
    return lambda: setattr(chunks_mod, "fold_record", real)


# ----------------------------------------------------------------------
# byte-identity of the refactored default family
# ----------------------------------------------------------------------
class TestBitFlipByteIdentity:
    @pytest.mark.parametrize("name", sorted(goldens.CASES))
    @pytest.mark.parametrize("jobs,lanes", [(1, 1), (1, 8), (1, 16)])
    def test_inline_paths_match_pre_refactor_goldens(self, name, jobs, lanes):
        app = get_app(name)
        deployment = Deployment(**goldens.CASES[name])
        prov, events, joint = _run_captured(
            app, deployment, jobs=jobs, lanes=lanes
        )
        gold_prov, gold_events, gold_joint = _golden(name)
        assert prov == gold_prov
        assert events == gold_events
        assert joint == gold_joint

    @pytest.mark.parametrize(
        "name,jobs,lanes", [("cg", 4, 1), ("mg", 4, 16), ("pennant", 2, 4)]
    )
    def test_worker_pool_matches_pre_refactor_goldens(self, name, jobs, lanes):
        app = get_app(name)
        deployment = Deployment(**goldens.CASES[name])
        prov, events, joint = _run_captured(
            app, deployment, jobs=jobs, lanes=lanes
        )
        gold_prov, gold_events, gold_joint = _golden(name)
        assert prov == gold_prov
        assert events == gold_events
        assert joint == gold_joint

    @pytest.mark.parametrize("name", sorted(goldens.CASES))
    def test_interrupt_resume_matches_pre_refactor_goldens(
        self, name, tmp_cache
    ):
        app = get_app(name)
        deployment = Deployment(**goldens.CASES[name])
        restore = _interrupt_after(10)
        try:
            with pytest.raises(KeyboardInterrupt):
                run_campaign(app, deployment, jobs=1, checkpoint_every=6)
        finally:
            restore()
        prov, _, joint = _run_captured(
            app, deployment, jobs=1, lanes=1,
            checkpoint_every=6, resume=True,
        )
        gold_prov, _, gold_joint = _golden(name)
        # resumed chunks re-emit provenance in trial order: byte-identical
        assert prov == gold_prov
        assert joint == gold_joint


# ----------------------------------------------------------------------
# rank fail-stop
# ----------------------------------------------------------------------
class TestRankKill:
    def test_cg_trials_classify_as_failures_with_typed_modes(self):
        app = get_app("cg")
        deployment = Deployment(nprocs=4, trials=12, seed=7, scenario="rankkill")
        result = run_campaign(app, deployment, keep_records=True, jobs=1)
        assert result.n_trials == 12
        for record in result.records:
            assert record.outcome is Outcome.FAILURE
            assert record.detail.split(":", 1)[0] in {"abort", "deadlock", "lost"}
            assert record.activated
            assert record.n_contaminated == 0

    def test_mg_runs_and_repeats_identically(self):
        app = get_app("mg")
        deployment = Deployment(nprocs=4, trials=10, seed=3, scenario="rankkill")
        first = run_campaign(app, deployment, keep_records=True, jobs=1)
        again = run_campaign(app, deployment, keep_records=True, jobs=1)
        assert first.records == again.records
        assert first.joint == again.joint

    def test_worker_pool_parity(self):
        app = ScenarioApp()
        deployment = Deployment(nprocs=4, trials=8, seed=2, scenario="rankkill")
        serial = run_campaign(app, deployment, keep_records=True, jobs=1)
        pooled = run_campaign(app, deployment, keep_records=True, jobs=2)
        assert serial.records == pooled.records
        assert list(serial.joint) == list(pooled.joint)

    def test_pinned_victim_and_events_and_provenance(self):
        app = get_app("cg")
        deployment = Deployment(
            nprocs=4, trials=6, seed=7, scenario="rankkill:rank=0"
        )
        with tempfile.TemporaryDirectory() as tmp:
            trace = Path(tmp) / "run.jsonl"
            previous = obs.get_recorder()
            recorder = obs.configure(trace_path=trace)
            try:
                result = run_campaign(app, deployment, jobs=1)
            finally:
                obs.set_recorder(previous)
                recorder.close()
            kills = [
                e for e in obs.load_trace(trace)
                if isinstance(e, obs.RankKilled)
            ]
            assert kills and all(e.rank == 0 for e in kills)
            records = load_provenance(provenance_path(trace))
        assert result.failure_rate == 1.0
        assert len(records) == 6
        for prov in records:
            (planned,) = prov.planned
            assert planned["scenario"] == "rankkill"
            assert planned["rank"] == 0
            for fired in prov.fired:
                assert isinstance(fired, ScenarioObservation)
                assert fired.scenario == "rankkill"
                assert fired.bits == ()

    def test_victim_rank_outside_communicator_rejected(self):
        app = get_app("cg")
        deployment = Deployment(
            nprocs=2, trials=2, seed=0, scenario="rankkill:rank=5"
        )
        with pytest.raises(ConfigurationError, match="outside"):
            run_campaign(app, deployment, jobs=1)

    def test_checkpoint_resume_matches_uninterrupted(self, tmp_cache):
        app = ScenarioApp()
        deployment = Deployment(nprocs=4, trials=10, seed=5, scenario="rankkill")
        clean = run_campaign(app, deployment, keep_records=True, jobs=1)
        restore = _interrupt_after(6)
        try:
            with pytest.raises(KeyboardInterrupt):
                run_campaign(app, deployment, keep_records=True, jobs=1,
                             checkpoint_every=3)
        finally:
            restore()
        resumed = run_campaign(app, deployment, keep_records=True, jobs=1,
                               checkpoint_every=3, resume=True)
        assert resumed.joint == clean.joint
        assert resumed.records == clean.records


# ----------------------------------------------------------------------
# in-transit message corruption
# ----------------------------------------------------------------------
class TestMessageCorruption:
    def test_fixed_seed_and_trial_is_deterministic(self):
        app = get_app("cg")
        deployment = Deployment(
            nprocs=4, trials=10, seed=7, scenario="msgcorrupt"
        )
        first = run_campaign(app, deployment, keep_records=True, jobs=1)
        again = run_campaign(app, deployment, keep_records=True, jobs=1)
        assert first.records == again.records
        assert first.joint == again.joint
        # corruption reaches real traffic on this seed: every trial fires
        # and contaminates at least the receiving rank
        assert all(r.activated for r in first.records)
        assert all(r.n_contaminated >= 1 for r in first.records)

    def test_worker_pool_parity(self):
        app = ScenarioApp()
        deployment = Deployment(
            nprocs=4, trials=8, seed=4, scenario="msgcorrupt"
        )
        serial = run_campaign(app, deployment, keep_records=True, jobs=1)
        pooled = run_campaign(app, deployment, keep_records=True, jobs=2)
        assert serial.records == pooled.records
        assert list(serial.joint) == list(pooled.joint)

    def test_events_and_provenance_payloads(self):
        app = ScenarioApp()
        deployment = Deployment(
            nprocs=4, trials=6, seed=4, scenario="msgcorrupt:bit=62"
        )
        with tempfile.TemporaryDirectory() as tmp:
            trace = Path(tmp) / "run.jsonl"
            previous = obs.get_recorder()
            recorder = obs.configure(trace_path=trace)
            try:
                run_campaign(app, deployment, jobs=1)
            finally:
                obs.set_recorder(previous)
                recorder.close()
            corruptions = [
                e for e in obs.load_trace(trace)
                if isinstance(e, obs.MessageCorrupted)
            ]
            assert corruptions and all(e.bit == 62 for e in corruptions)
            records = load_provenance(provenance_path(trace))
        for prov in records:
            (planned,) = prov.planned
            assert planned["scenario"] == "msgcorrupt"
            assert planned["bit"] == 62
            for fired in prov.fired:
                assert isinstance(fired, ScenarioObservation)
                assert {"kind", "src", "dest", "element", "pre", "post"} <= set(
                    fired.payload
                )

    def test_lane_batching_falls_back_to_scalar_with_warning(self, capsys):
        app = ScenarioApp()
        deployment = Deployment(
            nprocs=4, trials=4, seed=4, scenario="msgcorrupt"
        )
        with_lanes = run_campaign(app, deployment, keep_records=True, lanes=8)
        err = capsys.readouterr().err
        assert "does not support lane batching" in err
        scalar = run_campaign(app, deployment, keep_records=True, lanes=1)
        assert with_lanes.records == scalar.records

    @pytest.mark.parametrize("asked", ["argument", "field", "env"])
    def test_lanes_asked_any_way_warn(self, capsys, monkeypatch, asked):
        app = ScenarioApp()
        deployment = Deployment(
            nprocs=4, trials=2, seed=4, scenario="rankkill",
            lanes=32 if asked == "field" else None,
        )
        if asked == "env":
            monkeypatch.setenv("REPRO_LANES", "32")
        run_campaign(app, deployment, lanes=32 if asked == "argument" else None)
        assert "does not support lane batching" in capsys.readouterr().err

    def test_default_lanes_fall_back_silently(self, capsys, tmp_cache):
        app = ScenarioApp()
        deployment = Deployment(nprocs=4, trials=4, seed=4, scenario="rankkill")
        run_campaign(app, deployment)
        # the cache resolves the deployment before it runs the campaign
        cached_campaign(app, Deployment(
            nprocs=4, trials=4, seed=5, scenario="msgcorrupt"
        ))
        assert capsys.readouterr().err == ""


# ----------------------------------------------------------------------
# specs, canonicalization, identity separation
# ----------------------------------------------------------------------
class TestScenarioSpecs:
    def test_registry_names(self):
        assert set(SCENARIOS) == {"bitflip", "rankkill", "msgcorrupt"}

    def test_default_family_canonicalizes_to_none(self):
        assert canonical_scenario(None) is None
        assert canonical_scenario("bitflip") is None
        assert canonical_scenario("  ") is None
        assert Deployment(nprocs=2, trials=2, scenario="bitflip").scenario is None

    def test_parameters_sort_and_case_folds(self):
        assert canonical_scenario("RANKKILL") == "rankkill"
        assert canonical_scenario("rankkill:rank=2") == "rankkill:rank=2"
        assert canonical_scenario("msgcorrupt:bit=3") == "msgcorrupt:bit=3"

    def test_unknown_scenario_and_parameters_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            parse_scenario("cosmicray")
        with pytest.raises(ConfigurationError, match="does not accept"):
            parse_scenario("bitflip:rank=1")
        with pytest.raises(ConfigurationError, match="malformed"):
            parse_scenario("rankkill:rank")
        with pytest.raises(ConfigurationError, match="not an integer"):
            parse_scenario("rankkill:rank=zero").int_param("rank")

    def test_resolve_model_memoizes_and_defaults(self):
        assert resolve_model(None) is resolve_model(None)
        assert isinstance(resolve_model(None), BitFlipModel)
        assert isinstance(resolve_model("rankkill"), RankKillModel)
        assert isinstance(resolve_model("msgcorrupt"), MessageCorruptionModel)

    def test_deployment_key_separation(self):
        base = dict(nprocs=4, trials=10, seed=1)
        keys = {
            deployment_key(Deployment(**base, scenario=s))
            for s in (None, "rankkill", "rankkill:rank=1", "msgcorrupt",
                      "msgcorrupt:bit=5")
        }
        assert len(keys) == 5
        # the default family's key has no scenario component at all:
        # pre-scenario cache entries and checkpoints stay valid
        assert ",sc=" not in deployment_key(Deployment(**base))
        assert deployment_key(Deployment(**base)) == deployment_key(
            Deployment(**base, scenario="bitflip")
        )

    def test_malformed_env_warns_and_falls_back(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_SCENARIO", "cosmicray")
        assert env_value("scenario") is None
        assert "malformed REPRO_SCENARIO" in capsys.readouterr().err

    def test_execution_dynamics_probe(self):
        app = ScenarioApp()
        deployment = Deployment(nprocs=4, trials=2)
        dynamics = execution_dynamics(app, deployment)
        assert dynamics.steps > 0
        assert dynamics.deliveries > 0
        assert dynamics.seconds > 0
        assert execution_dynamics(app, deployment) is dynamics  # memoized


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
class TestFailureModeReport:
    def test_obs_report_tallies_failure_modes(self):
        app = get_app("cg")
        deployment = Deployment(nprocs=4, trials=8, seed=7, scenario="rankkill")
        with tempfile.TemporaryDirectory() as tmp:
            trace = Path(tmp) / "run.jsonl"
            previous = obs.get_recorder()
            recorder = obs.configure(trace_path=trace)
            try:
                run_campaign(app, deployment, jobs=1)
            finally:
                obs.set_recorder(previous)
                recorder.close()
            report = render_trace_report(trace)
        assert "Failure modes" in report
        assert "abort" in report or "deadlock" in report or "lost" in report

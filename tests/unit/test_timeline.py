"""Causal tracing and timeline exporters.

Three contracts under test:

* **determinism** — trace/span ids are pure hashes of the deployment
  identity and span coordinates: identical across runs, ``--jobs`` and
  ``--lanes`` values; only ``t0``/``dur`` carry wall-clock;
* **byte identity** — records, the main event trace and the provenance
  file are unchanged by the tracing switch (spans ride a separate
  ``*.timeline.jsonl`` sidecar), and trace state stays out of
  checkpoint files;
* **export validity** — the Chrome trace is schema-valid (sorted and
  per-tid monotone timestamps, balanced B/E pairs, one lane per pid
  plus an overflow lane per extra overlapping sibling)
  and the OTLP/utilization/swimlane views agree with the span data.

The app is module-level so ``spawn`` workers can unpickle it.
"""

from __future__ import annotations

import hashlib
import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import repro.engine.chunks as chunks_mod
from repro import obs
from repro.fi.campaign import Deployment, run_campaign
from repro.obs.events import CampaignTrace
from repro.obs.recorder import ObsSnapshot
from repro.obs.timeline import (
    STRAGGLER_K,
    chrome_trace,
    otlp_trace,
    render_timeline_report,
    spans_of,
    timeline_path,
    timeline_swimlane_svg,
    validate_chrome_trace,
    worker_utilization,
)
from repro.obs.trace import TraceContext, span_id_from, trace_id_from


class TraceApp:
    """Distributed dot product: cheap, but exercises real injections."""

    name = "traceapp"

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
        return f"traceapp(n={self.n},tol={self.tol})"


def _traced_run(deployment, jobs=1, lanes=None, profiling=False,
                checkpoint_every=None, resume=False):
    mem = obs.MemorySink()
    rec = obs.Recorder([mem], tracing=True, profiling=profiling)
    with obs.recording(rec):
        result = run_campaign(
            TraceApp(), deployment, jobs=jobs, lanes=lanes,
            checkpoint_every=checkpoint_every, resume=resume,
        )
    return result, mem, rec


DEP = Deployment(nprocs=2, trials=10, seed=7)


class TestIds:
    def test_trace_id_shape_and_determinism(self):
        a = trace_id_from("app", "key")
        assert a == trace_id_from("app", "key")
        assert len(a) == 32 and int(a, 16) >= 0
        assert a != trace_id_from("app", "other")

    def test_span_id_shape_and_determinism(self):
        t = trace_id_from("app", "key")
        s = span_id_from(t, "chunk", 0, 10)
        assert s == span_id_from(t, "chunk", 0, 10)
        assert len(s) == 16 and int(s, 16) >= 0
        assert s != span_id_from(t, "chunk", 10, 20)
        assert s != span_id_from(trace_id_from("x"), "chunk", 0, 10)

    def test_context_derive(self):
        ctx = TraceContext("t" * 32, "s" * 16)
        child = ctx.derive("trial", 3)
        assert child.trace_id == ctx.trace_id
        assert child.span_id == span_id_from(ctx.trace_id, "trial", 3)

    def test_span_record_fields(self):
        ticks = iter([10.0, 10.25])
        rec = obs.Recorder(enabled=True, tracing=True,
                           clock=lambda: next(ticks))
        parent = TraceContext("t" * 32, "p" * 16)
        rec.trace_ctx = parent
        with rec.span("chunk", 0, 8, cat="chunk",
                      args={"start": 0}) as handle:
            assert rec.trace_ctx == parent.derive("chunk", 0, 8)
            handle.set(stop=8)
        assert rec.trace_ctx == parent  # restored on exit
        (span,) = rec.trace_spans
        assert span["name"] == "chunk 0..8" and span["cat"] == "chunk"
        assert span["trace_id"] == parent.trace_id
        assert span["span_id"] == span_id_from(parent.trace_id, "chunk", 0, 8)
        assert span["parent_id"] == "p" * 16
        assert span["dur"] == handle.duration == 0.25
        assert isinstance(span["t0"], float)
        assert span["args"] == {"start": 0, "stop": 8}
        assert isinstance(span["pid"], int)
        # trace-only: no phase path, no span totals, no SpanEnd
        assert rec.span_totals == {}

    def test_span_category_rule(self):
        mem = obs.MemorySink()
        rec = obs.Recorder([mem], tracing=True)
        rec.trace_ctx = TraceContext("t" * 32, "")
        with rec.span("campaign", cat="campaign", label="campaign x"):
            with rec.span("profile", "profile"):
                pass
            with rec.span("trial", 3, cat="trial") as trial:
                with rec.span("inject"):
                    pass
                trial.set(outcome="sdc")
        names = {s["name"]: s for s in rec.trace_spans}
        # a key-less phase span stays out of the tree
        assert set(names) == {"campaign x", "profile", "trial 3"}
        root = names["campaign x"]
        assert root["parent_id"] == ""
        assert root["span_id"] == span_id_from("t" * 32, "campaign")
        assert names["profile"]["span_id"] == span_id_from(
            "t" * 32, "phase", "profile"
        )
        assert names["trial 3"]["parent_id"] == root["span_id"]
        assert names["trial 3"]["args"] == {"outcome": "sdc"}
        assert [e.path for e in mem.events] == [
            "campaign/profile", "campaign/trial/inject", "campaign/trial",
            "campaign",
        ]

    def test_disabled_recorder_returns_null_span(self):
        from repro.obs.recorder import _NULL_SPAN

        rec = obs.Recorder(enabled=False, tracing=True)
        rec.trace_ctx = TraceContext("t" * 32, "s" * 16)
        span = rec.span("chunk", 0, 8, cat="chunk", args={"start": 0})
        assert span is _NULL_SPAN
        with span as handle:
            handle.set(bytes=1)  # a no-op
        assert handle.duration == 0.0
        assert rec.trace_spans == [] and rec.trace_ctx.span_id == "s" * 16
        # untraced but enabled: a trace-only span is the null span too
        live = obs.Recorder(enabled=True)
        assert live.span("wave", 0, cat="wave") is _NULL_SPAN


class TestSpanCollection:
    def test_serial_campaign_span_tree(self):
        _, mem, _ = _traced_run(DEP, lanes=1)
        (event,) = [e for e in mem.events if isinstance(e, CampaignTrace)]
        spans = event.spans
        cats = {s["cat"] for s in spans}
        assert cats == {"campaign", "phase", "chunk", "trial"}
        (root,) = [s for s in spans if s["cat"] == "campaign"]
        assert root["parent_id"] == ""
        assert event.trace_id == root["trace_id"]
        assert all(s["trace_id"] == root["trace_id"] for s in spans)
        # every non-root parent link resolves inside the tree
        ids = {s["span_id"] for s in spans}
        assert all(s["parent_id"] in ids for s in spans if s is not root)
        assert sum(1 for s in spans if s["cat"] == "trial") == DEP.trials

    def test_span_ids_deterministic_across_runs(self):
        _, mem1, _ = _traced_run(DEP)
        _, mem2, _ = _traced_run(DEP)
        ids = lambda m: sorted(s["span_id"] for s in spans_of(m.events))
        assert ids(mem1) == ids(mem2)

    def test_untraced_recorder_collects_nothing(self):
        mem = obs.MemorySink()
        with obs.recording(obs.Recorder([mem])) as rec:
            run_campaign(TraceApp(), DEP, jobs=1)
        assert rec.trace_spans == []
        assert not [e for e in mem.events if isinstance(e, CampaignTrace)]

    def test_jobs2_same_ids_more_pids(self):
        r1, mem1, _ = _traced_run(DEP, jobs=1)
        r2, mem2, _ = _traced_run(DEP, jobs=2)
        assert r1.joint == r2.joint
        s1, s2 = spans_of(mem1.events), spans_of(mem2.events)
        # per-trial and root ids are jobs-invariant; only chunk spans
        # (keyed on chunk bounds) follow the jobs-dependent chunk layout
        trial_ids = lambda s: sorted(
            x["span_id"] for x in s if x["cat"] == "trial"
        )
        assert trial_ids(s1) == trial_ids(s2)
        root = lambda s: next(x for x in s if x["cat"] == "campaign")
        assert root(s1)["span_id"] == root(s2)["span_id"]
        assert root(s1)["trace_id"] == root(s2)["trace_id"]
        assert len({x["pid"] for x in s2}) >= 2  # driver + worker(s)

    def test_checkpoint_spans_parented_to_campaign(self, tmp_cache):
        _, mem, _ = _traced_run(DEP, jobs=2, checkpoint_every=4)
        spans = spans_of(mem.events)
        ckpts = [s for s in spans if s["cat"] == "checkpoint"]
        assert ckpts
        (root,) = [s for s in spans if s["cat"] == "campaign"]
        assert all(c["parent_id"] == root["span_id"] for c in ckpts)
        assert all(c["args"]["bytes"] > 0 for c in ckpts)

    def test_adaptive_wave_spans(self):
        dep = Deployment(nprocs=2, trials=120, seed=7, ci_halfwidth=0.12)
        _, mem, _ = _traced_run(dep)
        spans = spans_of(mem.events)
        waves = [s for s in spans if s["cat"] == "wave"]
        assert waves
        (root,) = [s for s in spans if s["cat"] == "campaign"]
        assert all(w["parent_id"] == root["span_id"] for w in waves)
        # chunks hang off their wave, not the campaign root
        wave_ids = {w["span_id"] for w in waves}
        chunks = [s for s in spans if s["cat"] == "chunk"]
        assert chunks and all(c["parent_id"] in wave_ids for c in chunks)

    def test_lane_block_spans(self, monkeypatch):
        # pay rule off: every trial of the campaign runs in a lane block
        monkeypatch.setattr(chunks_mod, "LANE_EJECT_SHARE", 1.0)
        res, mem, _ = _traced_run(DEP, lanes=4)
        serial, serial_mem, _ = _traced_run(DEP, lanes=1)
        assert res.joint == serial.joint
        spans = spans_of(mem.events)
        blocks = [s for s in spans if s["cat"] == "lanes"]
        assert blocks
        chunk_ids = {s["span_id"] for s in spans if s["cat"] == "chunk"}
        assert all(b["parent_id"] in chunk_ids for b in blocks)
        # one trial span per trial, replayed and ejected lanes alike,
        # each under its block and with the same id as at lanes=1
        trials = [s for s in spans if s["cat"] == "trial"]
        block_ids = {b["span_id"] for b in blocks}
        assert all(t["parent_id"] in block_ids for t in trials)
        trial_ids = lambda s: sorted(
            x["span_id"] for x in s if x["cat"] == "trial"
        )
        assert trial_ids(trials) == trial_ids(spans_of(serial_mem.events))
        assert len(trials) == DEP.trials

    def test_failed_lane_block_nests_its_scalar_fallback(self, monkeypatch):
        import repro.fi.lanes as lanes_mod

        def broken_pass(*args, **kwargs):
            raise RuntimeError("batched pass failed")

        monkeypatch.setattr(lanes_mod, "execute_spmd", broken_pass)
        # pay rule off: a failed block does not end the chunk's lanes
        monkeypatch.setattr(chunks_mod, "LANE_EJECT_SHARE", 1.0)
        res, mem, _ = _traced_run(DEP, lanes=4)
        serial, _, _ = _traced_run(DEP, lanes=1)
        assert res.joint == serial.joint
        spans = spans_of(mem.events)
        blocks = {s["span_id"]: s for s in spans if s["cat"] == "lanes"}
        # every lane of a failed block re-ran on the scalar path under it
        assert blocks and all(
            b["args"]["ejected"] == b["args"]["lanes"] for b in blocks.values()
        )
        trials = [s for s in spans if s["cat"] == "trial"]
        assert len(trials) == DEP.trials
        assert all(t["parent_id"] in blocks for t in trials)


def _tree_digest(spans) -> str:
    """sha256 over the sorted logical fields of a span tree.

    ``t0``/``dur``/``pid`` are wall-clock and scheduling facts and are
    dropped; a checkpoint's ``bytes`` is reduced to "non-empty" because
    the checkpointed events carry wall-clock durations of varying width.
    """
    rows = []
    for span in spans:
        args = dict(span.get("args", {}))
        if "bytes" in args:
            args["bytes"] = args["bytes"] > 0
        rows.append(json.dumps(
            [span["span_id"], span["parent_id"], span["name"], span["cat"],
             args],
            sort_keys=True,
        ))
    return hashlib.sha256("\n".join(sorted(rows)).encode()).hexdigest()


@pytest.mark.parametrize("deployment, kwargs, digest", [
    (DEP, {"lanes": 1},
     "b4cec616be4702c643d4bff7451665a365b0fe93179568bc683ca0a331c086c6"),
    (DEP, {"lanes": 1, "jobs": 2, "checkpoint_every": 4},
     "7efb38c79d6d2adf4d4afa2693fe252f00c32c2cefa9eda5e549a6389e3d720d"),
    (Deployment(nprocs=2, trials=120, seed=7, ci_halfwidth=0.12), {"lanes": 1},
     "e85ec708b69f0238dfa27f01021d06f8fa9e3497af1e766defa37fe0b4cc17b7"),
    (DEP, {}, "bedaedb98eb34086850e58ce153ab459272430b56665356bb7cbe71fcae86062"),
], ids=["serial", "jobs2-ckpt4", "adaptive", "default-lanes"])
def test_span_tree_pinned(deployment, kwargs, digest):
    """Span ids, parents, names, categories and args never drift."""
    _, mem, _ = _traced_run(deployment, **kwargs)
    assert _tree_digest(spans_of(mem.events)) == digest


class TestJobsAndLanesCombined:
    """ObsSnapshot/absorb under --jobs > 1 AND --lanes > 1."""

    def _run(self, jobs, lanes):
        mem = obs.MemorySink()
        rec = obs.Recorder([mem], tracing=True, profiling=True)
        with obs.recording(rec):
            result = run_campaign(TraceApp(), DEP, jobs=jobs, lanes=lanes)
        return result, mem, rec

    def test_results_and_counters_match_serial_scalar(self):
        serial, _, serial_rec = self._run(jobs=1, lanes=1)
        combo, _, combo_rec = self._run(jobs=2, lanes=4)
        assert combo.joint == serial.joint
        assert list(combo.joint) == list(serial.joint)
        assert combo_rec.counters == serial_rec.counters

    def test_trace_state_merges_losslessly(self):
        _, solo, _ = self._run(jobs=1, lanes=4)
        _, combo, _ = self._run(jobs=2, lanes=4)
        ids = lambda m: sorted(
            s["span_id"] for s in spans_of(m.events) if s["cat"] == "trial"
        )
        assert ids(solo) == ids(combo)  # every trial's span survived absorb
        assert len({s["pid"] for s in spans_of(combo.events)}) >= 2

    def test_profile_state_merges_losslessly(self):
        from repro.obs.profiler import profiles_of

        _, solo, _ = self._run(jobs=1, lanes=4)
        _, combo, _ = self._run(jobs=2, lanes=4)
        (p1,) = profiles_of(solo.events)
        (p2,) = profiles_of(combo.events)
        ops = lambda p: sorted(
            (r["phase"], r["kind"], r["rank"], r["ops"]) for r in p.ops
        )
        assert ops(p1) == ops(p2)  # op counts are jobs-invariant
        assert {path: c for path, (c, _) in p1.spans.items()} == \
            {path: c for path, (c, _) in p2.spans.items()}

    def test_event_reemission_order_deterministic(self):
        _, a, _ = self._run(jobs=2, lanes=4)
        _, b, _ = self._run(jobs=2, lanes=4)
        shape = lambda m: [
            (type(e).__name__, getattr(e, "trial", None)) for e in m.events
            if not isinstance(e, CampaignTrace)
        ]
        assert shape(a) == shape(b)
        trials = [e.trial for e in a.events
                  if isinstance(e, obs.TrialFinished)]
        assert trials == sorted(trials) == list(range(DEP.trials))


class TestCheckpointExcludesTrace:
    def test_serializer_drops_trace(self):
        from repro.engine.checkpoint import (
            _deserialize_snapshot,
            _serialize_snapshot,
        )

        snap = ObsSnapshot(
            counters={"x": 1}, histograms={}, span_totals={}, events=[],
            trace=[{"name": "chunk 0..2", "span_id": "a" * 16, "t0": 1.0}],
        )
        blob = _serialize_snapshot(snap)
        assert "trace" not in blob
        restored = _deserialize_snapshot(blob)
        assert restored.trace == []  # old/new checkpoints both load

    def test_resume_retraces_only_missing_chunks(self, tmp_cache):
        import repro.engine.chunks as chunks_mod

        dep = Deployment(nprocs=2, trials=10, seed=7, checkpoint_every=2)
        clean, clean_mem, _ = _traced_run(dep)

        real = chunks_mod.fold_record
        calls = {"n": 0}

        def interrupted(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] > 5:
                raise KeyboardInterrupt
            return real(*args, **kwargs)

        chunks_mod.fold_record = interrupted
        try:
            with pytest.raises(KeyboardInterrupt):
                _traced_run(dep)
        finally:
            chunks_mod.fold_record = real

        resumed, mem, _ = _traced_run(dep, jobs=1, resume=True)
        assert resumed.joint == clean.joint
        spans = spans_of(mem.events)
        # the resumed run's trial spans cover only re-executed trials,
        # and recovered chunks are not re-traced
        trial_ids = {s["args"]["trial"] for s in spans
                     if s["cat"] == "trial"}
        assert trial_ids and trial_ids < set(range(dep.trials))
        clean_ids = {s["span_id"] for s in spans_of(clean_mem.events)}
        assert {s["span_id"] for s in spans} <= clean_ids  # same id space


def _span(sid, parent, name, cat, t0, dur, pid, **args):
    return {"span_id": sid, "parent_id": parent, "name": name, "cat": cat,
            "t0": t0, "dur": dur, "pid": pid, "trace_id": "t" * 32,
            "args": args}


def _sequential_spans() -> list[dict]:
    """A driver lane and a worker lane whose siblings never overlap."""
    t = 1_700_000_000.0
    return [
        _span("c", "", "campaign", "campaign", t, 1.0, 10),
        _span("k0", "c", "chunk", "chunk", t + 0.01, 0.5, 10, start=0),
        _span("a", "k0", "trial", "trial", t + 0.02, 0.1, 10, trial=0),
        # starts before its parent (wall clock vs monotonic duration)
        _span("ai", "a", "inject", "phase", t + 0.019, 0.05, 10),
        _span("b", "k0", "trial", "trial", t + 0.12, 0.1, 10, trial=1),
        _span("d", "k0", "trial", "trial", t + 0.3, 0.4, 10, trial=2),
        _span("w0", "c", "chunk", "chunk", t + 0.05, 0.3, 20, start=3),
        _span("w1", "w0", "trial", "trial", t + 0.06, 0.1, 20, trial=3),
        _span("w2", "w0", "trial", "trial", t + 0.2, 0.0, 20, trial=4),
        _span("w3", "", "chunk", "chunk", t + 0.4, 0.2, 20, start=5),
    ]


class TestChromeTrace:
    def test_real_campaign_trace_validates(self):
        _, mem, _ = _traced_run(DEP, jobs=2)
        blob = chrome_trace(spans_of(mem.events))
        pairs = validate_chrome_trace(blob)
        assert pairs == len(spans_of(mem.events))
        body = [e for e in blob["traceEvents"] if e["ph"] in "BE"]
        assert all("pid" in e and "tid" in e for e in body)
        # one lane per recording pid, with metadata naming it
        pids = {e["pid"] for e in body}
        meta = [e for e in blob["traceEvents"] if e["ph"] == "M"]
        assert {e["pid"] for e in meta} == pids
        assert json.loads(json.dumps(blob)) == blob  # JSON-serializable

    def test_per_tid_timestamps_monotone(self):
        _, mem, _ = _traced_run(DEP, jobs=2)
        blob = chrome_trace(spans_of(mem.events))
        by_tid = {}
        for e in blob["traceEvents"]:
            if e["ph"] in "BE":
                by_tid.setdefault(e["tid"], []).append(e["ts"])
        for ts in by_tid.values():
            assert ts == sorted(ts)

    def test_trace_without_overlaps_exports_as_before(self):
        """Pinned from the exporter that drew one tid per pid: clamped
        starts, a child outliving its parent and a cross-pid root."""
        blob = chrome_trace(_sequential_spans())
        assert validate_chrome_trace(blob) == 10
        assert {e["tid"] for e in blob["traceEvents"]} == {10, 20}
        digest = hashlib.sha256(json.dumps(blob, sort_keys=True).encode())
        assert digest.hexdigest() == (
            "3d7b71127ce61983a5b7372e31eb2a140b744cd6c55c8be465ff4822620391d3"
        )

    def test_overlapping_siblings_move_to_overflow_tids(self):
        t = 1_700_000_000.0
        spans = [
            _span("k", "", "chunk", "chunk", t, 1.0, 10),
            _span("a", "k", "trial", "trial", t + 0.1, 0.3, 10),
            _span("b", "k", "trial", "trial", t + 0.2, 0.3, 10),
            _span("bi", "b", "inject", "phase", t + 0.25, 0.1, 10),
            _span("c", "k", "trial", "trial", t + 0.3, 0.3, 10),
            _span("d", "k", "trial", "trial", t + 0.45, 0.3, 10),  # a is done
            _span("e", "k", "trial", "trial", t + 0.55, 0.1, 10),  # b is done
        ]
        blob = chrome_trace(spans)
        assert validate_chrome_trace(blob) == len(spans)
        lane1, lane2 = (10 + k * (1 << 22) for k in (1, 2))
        begins = {e["args"]["span_id"]: e for e in blob["traceEvents"]
                  if e["ph"] == "B"}
        assert {sid: e["tid"] for sid, e in begins.items()} == {
            "k": 10, "a": 10, "b": lane1, "bi": lane1, "c": lane2,
            "d": 10, "e": lane1,
        }
        for span in spans:  # drawn where they were recorded, not shifted
            assert begins[span["span_id"]]["ts"] == round((span["t0"] - t) * 1e6, 3)
        names = {e["tid"]: e["args"]["name"] for e in blob["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        assert names == {10: "driver 10", lane1: "driver 10.1",
                         lane2: "driver 10.2"}

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            validate_chrome_trace(chrome_trace([]))

    def test_unsorted_ts_rejected(self):
        bad = {"traceEvents": [
            {"name": "a", "ph": "B", "ts": 5.0, "pid": 1, "tid": 1},
            {"name": "a", "ph": "E", "ts": 1.0, "pid": 1, "tid": 1},
        ]}
        with pytest.raises(ValueError, match="sorted"):
            validate_chrome_trace(bad)

    def test_unbalanced_events_rejected(self):
        bad = {"traceEvents": [
            {"name": "a", "ph": "B", "ts": 1.0, "pid": 1, "tid": 1},
            {"name": "b", "ph": "E", "ts": 2.0, "pid": 1, "tid": 1},
        ]}
        with pytest.raises(ValueError, match="unbalanced"):
            validate_chrome_trace(bad)
        bad = {"traceEvents": [
            {"name": "a", "ph": "B", "ts": 1.0, "pid": 1, "tid": 1},
        ]}
        with pytest.raises(ValueError, match="unclosed"):
            validate_chrome_trace(bad)

    def test_missing_fields_rejected(self):
        bad = {"traceEvents": [{"name": "a", "ph": "B", "ts": 1.0, "pid": 1}]}
        with pytest.raises(ValueError, match="tid"):
            validate_chrome_trace(bad)


class TestOtlp:
    def test_shape_and_ids(self):
        _, mem, _ = _traced_run(DEP)
        spans = spans_of(mem.events)
        blob = otlp_trace(spans)
        rendered = blob["resourceSpans"][0]["scopeSpans"][0]["spans"]
        assert len(rendered) == len(spans)
        for s in rendered:
            assert len(s["traceId"]) == 32 and len(s["spanId"]) == 16
            assert int(s["endTimeUnixNano"]) >= int(s["startTimeUnixNano"])
            assert s["kind"] == 1
        assert json.loads(json.dumps(blob)) == blob


class TestUtilization:
    # synthetic 10s window: campaign on pid 1, chunks on pids 2 and 3
    def _spans(self):
        mk = lambda name, cat, pid, t0, dur, **args: {
            "name": name, "cat": cat, "trace_id": "t", "span_id": name,
            "parent_id": "", "t0": t0, "dur": dur, "pid": pid,
            "args": args,
        }
        return [
            mk("campaign", "campaign", 1, 100.0, 10.0),
            mk("c1", "chunk", 2, 101.0, 4.0, trials=4),
            mk("c2", "chunk", 2, 106.0, 1.0, trials=2),
            mk("c3", "chunk", 3, 105.0, 1.0, trials=2),
        ]

    def test_fractions(self):
        util = worker_utilization(self._spans())
        assert util["window_s"] == pytest.approx(10.0)
        w2 = util["workers"][2]
        assert w2["chunks"] == 2 and w2["trials"] == 6
        assert w2["busy_s"] == pytest.approx(5.0)
        assert w2["queue_wait_s"] == pytest.approx(1.0)
        assert w2["idle_s"] == pytest.approx(4.0)
        assert w2["busy_frac"] == pytest.approx(0.5)
        w3 = util["workers"][3]
        assert w3["queue_wait_s"] == pytest.approx(5.0)
        total = w3["busy_frac"] + w3["queue_wait_frac"] + w3["idle_frac"]
        assert total == pytest.approx(1.0)

    def test_stragglers(self):
        util = worker_utilization(self._spans())
        # median chunk dur = 1.0; c1 (4.0s) is 4x it
        assert [s["name"] for s in util["stragglers"]] == ["c1"]
        assert util["stragglers"][0]["ratio"] == pytest.approx(4.0)
        assert util["chunk_median_s"] == pytest.approx(1.0)
        assert not worker_utilization(self._spans(), k=5.0)["stragglers"]

    def test_empty(self):
        util = worker_utilization([])
        assert util == {"window_s": 0.0, "workers": {}, "stragglers": [],
                        "chunk_median_s": 0.0}

    def test_report_renders(self):
        text = render_timeline_report(self._spans())
        assert "Worker utilization" in text and "Stragglers" in text
        assert f"{STRAGGLER_K:g}x median" in text
        assert render_timeline_report([]) == "(no spans recorded)"


class TestSwimlane:
    def test_real_campaign_svg(self):
        _, mem, _ = _traced_run(DEP, jobs=2)
        svg = timeline_swimlane_svg(spans_of(mem.events)).render()
        ET.fromstring(svg)
        assert svg.startswith("<svg")
        assert "driver" in svg and "worker" in svg

    def test_driver_lane_first(self):
        _, mem, _ = _traced_run(DEP, jobs=2)
        svg = timeline_swimlane_svg(spans_of(mem.events)).render()
        assert svg.index("driver") < svg.index("worker")

    def test_empty_spans_still_render(self):
        ET.fromstring(timeline_swimlane_svg([]).render())


class TestSidecarAndByteIdentity:
    def _cli_run(self, tmp_path, name, timeline):
        trace = tmp_path / f"{name}.jsonl"
        recorder = obs.configure(trace_path=trace, timeline=timeline)
        try:
            result = run_campaign(TraceApp(), DEP, jobs=2)
        finally:
            obs.reset()
            recorder.close()
        return trace, result

    def test_spans_routed_to_sidecar_only(self, tmp_path):
        trace, _ = self._cli_run(tmp_path, "on", timeline=True)
        sidecar = timeline_path(trace)
        assert sidecar.exists()
        side_events = obs.load_trace(sidecar)
        assert side_events and all(
            isinstance(e, CampaignTrace) for e in side_events
        )
        assert spans_of(side_events)
        # ... and never into the main trace, traced or not
        assert not [e for e in obs.load_trace(trace)
                    if isinstance(e, CampaignTrace)]

    def test_main_trace_and_records_unchanged_by_tracing(self, tmp_path):
        def strip(path):
            events = []
            for line in path.read_text().splitlines():
                blob = json.loads(line)
                for key in ("ts", "duration_s", "profile_time",
                            "injection_time"):
                    blob.pop(key, None)
                events.append(blob)
            return events

        on, r_on = self._cli_run(tmp_path, "on2", timeline=True)
        off, r_off = self._cli_run(tmp_path, "off", timeline=False)
        assert r_on.joint == r_off.joint
        assert list(r_on.joint) == list(r_off.joint)
        assert strip(on) == strip(off)
        prov_on = on.with_name("on2.provenance.jsonl")
        prov_off = off.with_name("off.provenance.jsonl")
        assert prov_on.read_bytes() == prov_off.read_bytes()
        assert not timeline_path(off).exists()


class TestTimelinePath:
    def test_sidecar_naming(self):
        assert timeline_path("a/b/run.jsonl").name == "run.timeline.jsonl"
        assert timeline_path("run.jsonl").name == "run.timeline.jsonl"

    def test_dedup_in_spans_of(self):
        span = {"name": "x", "cat": "chunk", "span_id": "s", "t0": 1.0,
                "dur": 0.5, "pid": 1, "parent_id": ""}
        ev = CampaignTrace(app="a", trace_id="t", spans=[span])
        assert len(spans_of([ev, ev])) == 1
        rerun = CampaignTrace(app="a", trace_id="t",
                              spans=[{**span, "t0": 2.0}])
        assert len(spans_of([ev, rerun])) == 2  # same id, new run


class TestCli:
    def test_missing_file_exit_2(self, tmp_path, capsys):
        from repro.experiments.cli import main

        assert main(["obs-timeline", str(tmp_path / "nope.jsonl")]) == 2
        assert "no such trace file" in capsys.readouterr().err

    def test_directory_exit_2(self, tmp_path, capsys):
        from repro.experiments.cli import main

        for sub in ("obs-timeline", "obs-report", "obs-profile",
                    "obs-dashboard"):
            assert main([sub, str(tmp_path)]) == 2, sub
            assert "no such trace file" in capsys.readouterr().err

    def test_untraced_file_exit_1(self, tmp_path, capsys):
        from repro.experiments.cli import main

        trace = tmp_path / "plain.jsonl"
        trace.write_text(
            '{"type": "trial_finished", "trial": 0, "outcome": "success", '
            '"n_contaminated": 0, "activated": false, "duration_s": 0.1}\n'
        )
        assert main(["obs-timeline", str(trace)]) == 1
        assert "no campaign_trace spans" in capsys.readouterr().err

    def test_exports_written_and_valid(self, tmp_path, capsys):
        from repro.experiments.cli import main

        trace = tmp_path / "run.jsonl"
        recorder = obs.configure(trace_path=trace, timeline=True)
        try:
            run_campaign(TraceApp(), DEP, jobs=2)
        finally:
            obs.reset()
            recorder.close()
        chrome = tmp_path / "chrome.json"
        otlp = tmp_path / "otlp.json"
        svg = tmp_path / "lanes.svg"
        rc = main(["obs-timeline", str(trace), "--chrome", str(chrome),
                   "--otlp", str(otlp), "--svg", str(svg)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Worker utilization" in out
        validate_chrome_trace(json.loads(chrome.read_text()))
        assert json.loads(otlp.read_text())["resourceSpans"]
        ET.parse(svg)


class TestDashboardSection:
    def test_static_dashboard_picks_up_sidecar(self, tmp_path):
        from repro.obs.dashboard import render_dashboard

        trace = tmp_path / "run.jsonl"
        recorder = obs.configure(trace_path=trace, timeline=True)
        try:
            run_campaign(TraceApp(), DEP, jobs=2)
        finally:
            obs.reset()
            recorder.close()
        html = render_dashboard(trace)
        assert "Worker timeline" in html
        assert "straggler" in html.lower()

    def test_untraced_dashboard_omits_section(self, tmp_path):
        from repro.obs.dashboard import render_dashboard

        trace = tmp_path / "run.jsonl"
        recorder = obs.configure(trace_path=trace)
        try:
            run_campaign(TraceApp(), DEP, jobs=1)
        finally:
            obs.reset()
            recorder.close()
        assert "Worker timeline" not in render_dashboard(trace)

    def test_live_dashboard_synthesizes_midrun_trace(self):
        from repro.obs.live import LiveObsServer
        from repro.obs.sinks import RingBufferSink

        rec = obs.Recorder([], tracing=True)
        rec.enabled = True  # as start_live_server does
        rec.trace_ctx = TraceContext(trace_id_from("live"), "")
        with rec.span("chunk", 0, 2, cat="chunk"):
            pass  # a span closed mid-campaign
        server = LiveObsServer(rec, RingBufferSink(8))
        try:
            status, ctype, body = server.handle("/")
        finally:
            server.close()
        assert status == 200
        assert "Worker timeline" in body


class TestDroppedEventsCounter:
    def test_ring_on_drop_callback(self):
        from repro.obs.sinks import RingBufferSink

        drops = []
        ring = RingBufferSink(capacity=2, on_drop=lambda: drops.append(1))
        for i in range(5):
            ring.write(obs.CacheMiss(path=str(i)))
        assert len(drops) == 3 == ring.dropped

    def test_live_server_exports_dropped_total(self):
        from repro.obs.live import render_prometheus, start_live_server

        rec = obs.Recorder([])
        server = start_live_server(rec, port=0, capacity=2)
        try:
            page = render_prometheus(rec)
            assert "repro_events_dropped_total 0" in page
            for i in range(5):
                rec.emit(obs.CacheMiss(path=str(i)))
            page = render_prometheus(rec)
            assert "repro_events_dropped_total 3" in page
            assert "events.dropped" in obs.render_metrics_summary(rec)
        finally:
            server.close()


class TestReportPercentiles:
    def test_nearest_rank(self):
        from repro.obs.report import _percentile

        ordered = [float(i) for i in range(1, 101)]
        assert _percentile(ordered, 50) == 50.0
        assert _percentile(ordered, 95) == 95.0
        assert _percentile(ordered, 99) == 99.0
        assert _percentile([7.0], 99) == 7.0
        assert _percentile([], 50) == 0.0

    def test_trace_report_gains_latency_table(self, tmp_path):
        from repro.obs.report import render_trace_report

        trace = tmp_path / "run.jsonl"
        recorder = obs.configure(trace_path=trace)
        try:
            run_campaign(TraceApp(), DEP, jobs=1)
        finally:
            obs.reset()
            recorder.close()
        report = render_trace_report(trace)
        assert "Trial wall time" in report
        for col in ("p50 ms", "p95 ms", "p99 ms"):
            assert col in report

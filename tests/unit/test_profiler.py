"""Hot-path profiler: deltas, span tree, flamegraph, report, CLI."""

from __future__ import annotations

import xml.etree.ElementTree as ET

import pytest

from repro import obs
from repro.apps import get_app
from repro.experiments.cli import main
from repro.fi.campaign import Deployment, run_campaign
from repro.obs.events import CampaignProfile, event_from_dict
from repro.obs.profiler import (
    FRAME_TOTAL_KIND,
    OP_KINDS,
    CampaignScope,
    build_tree,
    coverage,
    flamegraph_frames,
    merge_profile_events,
    profile_rows,
    profiles_of,
    render_profile_report,
    render_profile_svg,
    traced_op_share,
)
from repro.obs.sinks import JsonlSink, MemorySink


def _event(spans=None, ops=None, app="demo", wall=None):
    spans = spans if spans is not None else {
        "campaign": [1, 1.0],
        "campaign/profile": [1, 0.1],
        "campaign/trial": [4, 0.85],
        "campaign/trial/inject": [4, 0.8],
    }
    ops = ops if ops is not None else [
        {"phase": "campaign/trial/inject/advance", "kind": "add",
         "rank": 0, "ops": 1000, "calls": 10, "seconds": 0.3},
        {"phase": "campaign/trial/inject/advance", "kind": "mul",
         "rank": 1, "ops": 500, "calls": 10, "seconds": 0.2},
        {"phase": "campaign/trial/inject/advance", "kind": FRAME_TOTAL_KIND,
         "rank": 0, "ops": 40, "calls": 8, "seconds": 0.7},
    ]
    if wall is None:
        wall = spans.get("campaign", [0, 0.0])[1]
    return CampaignProfile(app=app, wall_s=wall, spans=spans, ops=ops)


class TestRecorderProfiling:
    def test_profile_op_accumulates_under_span_and_frame(self):
        rec = obs.Recorder(enabled=True, profiling=True)
        with rec.span("campaign"):
            rec.push_frame("advance")
            rec.profile_op("add", 0, 100, 0.5)
            rec.profile_op("add", 0, 50, 0.25)
            rec.pop_frame()
        assert rec.profile == {
            ("campaign/advance", "add", 0): [150, 2, 0.75],
        }

    def test_profile_op_noop_unless_profiling(self):
        rec = obs.Recorder(enabled=True, profiling=False)
        rec.profile_op("add", 0, 100, 0.5)
        assert rec.profile == {}

    def test_snapshot_and_absorb_carry_profile(self):
        worker = obs.Recorder(enabled=True, profiling=True)
        worker.profile_op("mul", 1, 10, 0.1)
        parent = obs.Recorder(enabled=True, profiling=True)
        parent.profile_op("mul", 1, 5, 0.05)
        parent.absorb(worker.snapshot())
        assert parent.profile[("", "mul", 1)] == pytest.approx([15, 2, 0.15])

    def test_snapshot_positional_fields_stay_compatible(self):
        # profile was added after events: old positional constructions
        # (and pickles from older workers) must keep their meaning
        snap = obs.ObsSnapshot({"c": 1}, {}, {}, [])
        assert snap.profile == {}


class TestCampaignScope:
    def test_delta_excludes_prior_activity(self):
        rec = obs.Recorder(enabled=True, profiling=True, tracing=True)
        rec.trace_ctx = obs.TraceContext("t" * 32, "")
        with rec.span("campaign", cat="campaign"):
            rec.profile_op("add", 0, 100, 1.0)
        scope = CampaignScope(rec, "cg", "u" * 32)
        with scope, rec.span("campaign", cat="campaign"):
            rec.profile_op("add", 0, 40, 0.5)
        profile, trace = scope.events()
        assert profile.spans["campaign"][0] == 1  # one new span close
        (row,) = profile.ops
        assert (row["ops"], row["calls"], row["seconds"]) == \
            pytest.approx((40, 1, 0.5))
        # the scope rooted this campaign's tree under its own trace id
        (root,) = trace.spans
        assert trace.trace_id == root["trace_id"] == "u" * 32
        assert root["parent_id"] == ""
        assert rec.trace_ctx.trace_id == "t" * 32  # restored on exit

    def test_profile_event_round_trips_through_dict(self):
        rec = obs.Recorder(enabled=True, profiling=True)
        scope = CampaignScope(rec, "cg")
        with rec.span("campaign"):
            rec.profile_op("div", 2, 7, 0.01)
        (event,) = scope.events()  # not tracing: no trace event
        blob = event.to_dict()
        assert blob["type"] == "campaign_profile"
        assert event_from_dict(blob) == event

    def test_live_events_use_absolute_state(self):
        rec = obs.Recorder(enabled=True, profiling=True)
        with rec.span("campaign"):
            rec.profile_op("add", 0, 3, 0.2)
        (event,) = CampaignScope(rec, live=True).events()
        assert event.app == "live"
        assert event.ops[0]["ops"] == 3

    def test_live_events_read_one_snapshot(self):
        # mid-run the recorder moves between reads; spans and ops must
        # come from the same instant
        first = obs.ObsSnapshot(
            span_totals={"campaign/trial": [1, 0.5]},
            profile={("campaign/trial", "add", 0): [10, 1, 0.1]},
            trace=[{"trace_id": "t" * 32, "span_id": "a" * 16}],
        )
        later = obs.ObsSnapshot(
            span_totals={"campaign/trial": [2, 1.0]},
            profile={("campaign/trial", "add", 0): [20, 2, 0.2]},
            trace=[],
        )

        class MovingRecorder:
            enabled = profiling = tracing = True

            def __init__(self):
                self.snaps = iter([first, later, later])

            def snapshot(self):
                return next(self.snaps)

        profile, trace = CampaignScope(
            MovingRecorder(), live=True,
        ).events()
        assert profile.spans == {"campaign/trial": [1, 0.5]}
        assert profile.ops[0]["ops"] == 10
        assert trace.spans == first.trace
        assert trace.trace_id == "t" * 32


class TestMerge:
    def test_merge_sums_spans_and_ops(self):
        merged = merge_profile_events([_event(app="a"), _event(app="b")])
        assert merged.app == "a, b"
        assert merged.wall_s == pytest.approx(2.0)
        assert merged.spans["campaign/trial"] == [8, pytest.approx(1.7)]
        row = [r for r in merged.ops if r["kind"] == "add"][0]
        assert row["ops"] == 2000 and row["calls"] == 20

    def test_merge_single_event_is_identity(self):
        event = _event()
        assert merge_profile_events([event]) is event

    def test_merge_empty_raises(self):
        with pytest.raises(ValueError):
            merge_profile_events([])

    def test_profile_rows_sorted(self):
        rows = profile_rows({
            ("b", "add", 1): [1, 1, 0.1],
            ("a", "mul", 0): [2, 1, 0.2],
            ("a", "add", 0): [3, 1, 0.3],
        })
        assert [(r["phase"], r["kind"]) for r in rows] == [
            ("a", "add"), ("a", "mul"), ("b", "add"),
        ]


class TestSpanTree:
    def test_build_tree_nests_spans_and_ops(self):
        root = build_tree(_event())
        campaign = root.children["campaign"]
        assert campaign.seconds == pytest.approx(1.0)
        advance = (
            campaign.children["trial"].children["inject"].children["advance"]
        )
        assert set(advance.ops) == {"add", "mul", FRAME_TOTAL_KIND}

    def test_total_seconds_prefers_own_then_frame_then_children(self):
        root = build_tree(_event())
        campaign = root.children["campaign"]
        advance = (
            campaign.children["trial"].children["inject"].children["advance"]
        )
        assert campaign.total_seconds == pytest.approx(1.0)  # span time
        assert advance.total_seconds == pytest.approx(0.7)   # frame total
        assert advance.ops_seconds == pytest.approx(0.5)     # excl. frame row

    def test_flamegraph_children_fit_inside_parent(self):
        frames = flamegraph_frames(build_tree(_event()))
        by_depth: dict[int, float] = {}
        for depth, x0, width, _label in frames:
            assert 0 <= x0 <= 1 and 0 < width <= 1 + 1e-9
            by_depth[depth] = by_depth.get(depth, 0.0) + width
        assert by_depth[0] == pytest.approx(1.0)
        for depth, total in by_depth.items():
            assert total <= 1 + 1e-9, f"depth {depth} overflows"

    def test_flamegraph_scales_oversubscribed_children(self):
        # parallel workers: children report more seconds than the parent
        event = _event(
            spans={"campaign": [1, 1.0], "campaign/trial": [8, 4.0]},
            ops=[],
        )
        frames = flamegraph_frames(build_tree(event))
        (trial,) = [f for f in frames if f[3].startswith("trial")]
        assert trial[2] <= 1 + 1e-9

    def test_flamegraph_empty_event(self):
        assert flamegraph_frames(build_tree(_event(spans={}, ops=[]))) == []

    def test_render_profile_svg_is_valid_xml(self):
        svg = render_profile_svg(_event()).render()
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        assert "campaign" in svg


class TestHeadlines:
    def test_coverage_sums_direct_children(self):
        assert coverage(_event()) == pytest.approx(0.95)

    def test_coverage_zero_without_campaign_span(self):
        assert coverage(_event(spans={"x": [1, 1.0]}, ops=[])) == 0.0

    def test_traced_op_share_excludes_frame_totals(self):
        # add 0.3 + mul 0.2 over 0.8s of inject; the 0.7s "step" frame
        # row contains them and must not be double-counted
        assert traced_op_share(_event()) == pytest.approx(0.625)

    def test_report_mentions_headlines(self):
        report = render_profile_report(_event())
        assert "Hot-path attribution" in report
        assert "wall-time coverage: 95.0%" in report
        assert "traced-op share:    62.5%" in report
        assert "Mops/s" in report


class TestProfiledCampaign:
    """End-to-end: a real campaign under ``profiling=True``."""

    def _run(self, jobs=1, trials=40):
        mem = MemorySink()
        rec = obs.Recorder([mem], profiling=True)
        app = get_app("cg")
        deployment = Deployment(nprocs=2, trials=trials, seed=5)
        with obs.recording(rec):
            result = run_campaign(app, deployment, jobs=jobs)
        (event,) = profiles_of(mem.events)
        return result, event

    def test_attribution_covers_campaign_wall_time(self):
        # one warm-up campaign first: the engine's lazy imports happen
        # inside the first campaign span and would depress its coverage
        self._run(trials=2)
        _, event = self._run()
        assert event.wall_s > 0
        assert coverage(event) >= 0.95

    def test_traced_ops_attributed_to_scheduler_frame(self):
        _, event = self._run()
        phases = {r["phase"] for r in event.ops}
        assert "campaign/trial/inject/advance" in phases
        kinds = {r["kind"] for r in event.ops}
        assert kinds & set(OP_KINDS)
        assert 0 < traced_op_share(event) <= 1.0

    def test_op_counts_deterministic_and_jobs_invariant(self):
        result1, event1 = self._run(jobs=1, trials=12)
        result2, event2 = self._run(jobs=2, trials=12)
        assert result1.joint == result2.joint
        assert list(result1.joint) == list(result2.joint)

        def counts(event):
            # seconds are wall-clock; ops/calls are deterministic and
            # must not depend on how trials were chunked over workers
            return {
                (r["phase"], r["kind"], r["rank"]): (r["ops"], r["calls"])
                for r in event.ops
            }

        assert counts(event1) == counts(event2)

    def test_profiling_does_not_change_results(self):
        app = get_app("cg")
        deployment = Deployment(nprocs=2, trials=12, seed=5)
        with obs.recording(obs.Recorder(enabled=False)):
            plain = run_campaign(app, deployment, jobs=1)
        profiled, _ = self._run(trials=12)
        assert plain.joint == profiled.joint
        assert list(plain.joint) == list(profiled.joint)
        assert plain.total_instructions == profiled.total_instructions


class TestObsProfileCli:
    def _trace_with_profile(self, tmp_path):
        trace = tmp_path / "run.jsonl"
        sink = JsonlSink(trace)
        sink.write(_event())
        sink.close()
        return trace

    def test_reports_profile(self, tmp_path, capsys):
        trace = self._trace_with_profile(tmp_path)
        assert main(["obs-profile", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "Hot-path attribution" in out and "wall-time coverage" in out

    def test_writes_svg(self, tmp_path, capsys):
        trace = self._trace_with_profile(tmp_path)
        svg = tmp_path / "flame.svg"
        assert main(["obs-profile", str(trace), "--svg", str(svg)]) == 0
        assert "flamegraph written to" in capsys.readouterr().out
        assert ET.fromstring(svg.read_text()).tag.endswith("svg")

    def test_missing_trace_exits_2(self, tmp_path, capsys):
        assert main(["obs-profile", str(tmp_path / "gone.jsonl")]) == 2
        assert "no such trace file" in capsys.readouterr().err

    def test_trace_without_profiles_exits_1(self, tmp_path, capsys):
        trace = tmp_path / "plain.jsonl"
        sink = JsonlSink(trace)
        sink.write(obs.SpanEnd(path="campaign", duration_s=1.0))
        sink.close()
        assert main(["obs-profile", str(trace)]) == 1
        assert "rerun the experiment with --profile" in capsys.readouterr().err

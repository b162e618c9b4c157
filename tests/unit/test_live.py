"""Live telemetry: endpoints, ETA, ring buffer, thread safety, identity."""

from __future__ import annotations

import io
import json
import re
import threading
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.apps import get_app
from repro.experiments.cli import main
from repro.fi.campaign import Deployment, run_campaign
from repro.obs.events import CampaignPlanRevised, CampaignStarted, TrialFinished
from repro.obs.live import (
    LiveObsServer,
    render_metrics_json,
    render_prometheus,
    start_live_server,
)
from repro.obs.provenance import provenance_path
from repro.obs.sinks import ProgressSink, RingBufferSink, _format_eta

_EXTERNAL_REF = re.compile(r"""(?:src|href)\s*=\s*["']?(?:[a-z]+:)?//""", re.I)


def _trial(i, outcome="success"):
    return TrialFinished(trial=i, outcome=outcome, n_contaminated=1,
                         activated=True, duration_s=0.01)


def _loaded_recorder(profiling=False):
    rec = obs.Recorder(enabled=True, profiling=profiling)
    rec.counter("campaign.trials.success", 7)
    rec.gauge("campaign.trials_planned", 10)
    rec.gauge("campaign.trials_done", 7)
    rec.observe("taint.contamination_spread", 2.0)
    with rec.span("campaign"):
        if profiling:
            rec.profile_op("add", 0, 100, 0.25)
    return rec


class FakeClock:
    def __init__(self, start=0.0):
        self.now = start

    def __call__(self):
        return self.now

    def tick(self, dt):
        self.now += dt


class TestRenderers:
    def test_prometheus_exposition(self):
        text = render_prometheus(_loaded_recorder(profiling=True), eta_s=12.5)
        assert "# TYPE repro_campaign_trials_success_total counter" in text
        assert "repro_campaign_trials_success_total 7" in text
        assert "repro_campaign_trials_planned 10" in text
        assert "repro_campaign_eta_seconds 12.5" in text
        assert "repro_taint_contamination_spread_count 1" in text
        assert 'repro_span_seconds_total{path="campaign"}' in text
        assert ('repro_profile_ops_total{phase="campaign",op="add",'
                'rank="0"} 100' in text)
        assert text.endswith("\n")

    def test_json_exposition(self):
        blob = json.loads(render_metrics_json(_loaded_recorder(profiling=True)))
        assert blob["counters"]["campaign.trials.success"] == 7
        assert blob["gauges"]["campaign.trials_done"] == 7
        hist = blob["histograms"]["taint.contamination_spread"]
        assert hist == {"count": 1, "sum": 2.0, "min": 2.0, "max": 2.0}
        assert blob["spans"]["campaign"]["count"] == 1
        assert blob["profile"][0]["kind"] == "add"
        assert blob["eta_seconds"] is None


class TestRingBufferSink:
    def test_bounded_with_drop_accounting(self):
        ring = RingBufferSink(capacity=3)
        for i in range(5):
            ring.write(_trial(i))
        assert [e.trial for e in ring.tail()] == [2, 3, 4]
        assert ring.written == 5 and ring.dropped == 2

    def test_tail_n(self):
        ring = RingBufferSink(capacity=10)
        for i in range(4):
            ring.write(_trial(i))
        assert [e.trial for e in ring.tail(2)] == [2, 3]
        assert ring.tail(0) == []

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            RingBufferSink(capacity=0)


class TestEndpoints:
    @pytest.fixture()
    def server(self):
        rec = _loaded_recorder(profiling=True)
        server = start_live_server(rec, port=0)
        rec.emit(_trial(0, "sdc"))
        rec.emit(_trial(1))
        yield server
        server.close()

    def _get(self, server, path):
        with urllib.request.urlopen(server.url + path, timeout=10) as resp:
            return resp.status, resp.headers["Content-Type"], resp.read().decode()

    def test_metrics_prometheus(self, server):
        status, ctype, body = self._get(server, "/metrics")
        assert status == 200 and ctype.startswith("text/plain")
        assert "repro_campaign_trials_success_total 7" in body

    def test_metrics_json(self, server):
        status, ctype, body = self._get(server, "/metrics?format=json")
        assert status == 200 and ctype == "application/json"
        assert json.loads(body)["gauges"]["campaign.trials_planned"] == 10

    def test_events_tail(self, server):
        _, _, body = self._get(server, "/events")
        events = json.loads(body)
        assert [e["type"] for e in events] == ["trial_finished"] * 2
        _, _, body = self._get(server, "/events?n=1")
        assert json.loads(body)[0]["trial"] == 1

    def test_events_bad_n_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as exc:
            self._get(server, "/events?n=bogus")
        assert exc.value.code == 400

    def test_healthz(self, server):
        assert self._get(server, "/healthz")[2] == "ok\n"

    def test_unknown_route_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as exc:
            self._get(server, "/nope")
        assert exc.value.code == 404

    def test_dashboard_is_live_self_contained_html(self, server):
        status, ctype, html = self._get(server, "/")
        assert status == 200 and ctype.startswith("text/html")
        assert html.startswith("<!DOCTYPE html>")
        assert "<script" not in html and not _EXTERNAL_REF.search(html)
        assert "Live status" in html
        assert 'http-equiv="refresh"' in html
        # profiling is on: the synthesized live profile renders a flamegraph
        assert "Hot-path profile" in html

    def test_start_live_server_attaches_ring_and_enables(self):
        rec = obs.Recorder()  # disabled by default
        server = start_live_server(rec, port=0)
        try:
            assert rec.enabled
            assert any(isinstance(s, RingBufferSink) for s in rec.sinks)
        finally:
            server.close()

    def test_url_file_written_on_start(self, tmp_path, monkeypatch):
        url_file = tmp_path / "obs-url"
        monkeypatch.setenv("REPRO_OBS_URL_FILE", str(url_file))
        server = start_live_server(obs.Recorder(enabled=True), port=0)
        try:
            assert url_file.read_text().strip() == server.url
        finally:
            server.close()


class TestEta:
    def test_eta_from_successive_scrapes(self):
        clock = FakeClock()
        rec = obs.Recorder(enabled=True)
        server = LiveObsServer(rec, RingBufferSink(8), port=0, clock=clock)
        try:
            rec.gauge("campaign.trials_planned", 100)
            rec.gauge("campaign.trials_done", 10)
            assert server._eta_seconds() is None  # single observation
            clock.tick(5.0)
            rec.gauge("campaign.trials_done", 60)  # 10 trials/s observed
            assert server._eta_seconds() == pytest.approx(4.0)
            rec.gauge("campaign.trials_done", 100)
            assert server._eta_seconds() == 0.0  # plan reached
        finally:
            server.close()

    def test_eta_absent_without_gauges(self):
        server = LiveObsServer(
            obs.Recorder(enabled=True), RingBufferSink(8), port=0
        )
        try:
            assert server._eta_seconds() is None
        finally:
            server.close()


class TestFormatEta:
    def test_minutes_seconds(self):
        assert _format_eta(83.4) == "1:23"
        assert _format_eta(0.4) == "0:00"

    def test_hours(self):
        assert _format_eta(3600 + 125) == "1:02:05"

    def test_negative_clamped(self):
        assert _format_eta(-5) == "0:00"


class TestProgressEta:
    def _sink(self, trials=10):
        clock = FakeClock()
        stream = io.StringIO()
        sink = ProgressSink(stream=stream, min_interval=0.0, clock=clock)
        sink.write(CampaignStarted(app="a", nprocs=1, trials=trials,
                                   n_errors=1, seed=0))
        return sink, stream, clock

    def test_eta_appended_midway(self):
        sink, stream, clock = self._sink()
        for i in range(5):
            clock.tick(1.0)
            sink.write(_trial(i))
        assert "eta 0:05" in stream.getvalue()  # 5 left at 1 trial/s

    def test_no_eta_on_final_line(self):
        sink, stream, clock = self._sink(trials=2)
        for i in range(2):
            clock.tick(1.0)
            sink.write(_trial(i))
        final = stream.getvalue().splitlines()[-1]
        assert "trial 2/2" in final and "eta" not in final

    def test_plan_revision_repins_denominator(self):
        sink, stream, clock = self._sink(trials=100)
        sink.write(CampaignPlanRevised(app="a", planned=20, done=10))
        clock.tick(1.0)
        sink.write(_trial(0))
        assert "/20" in stream.getvalue()


class TestThreadSafety:
    def test_snapshot_and_tail_race_a_writer(self):
        rec = obs.Recorder(enabled=True, profiling=True)
        ring = RingBufferSink(capacity=256)
        rec.sinks.append(ring)
        stop = threading.Event()
        wrote = threading.Event()

        def writer():
            i = 0
            while not stop.is_set():
                rec.counter(f"c{i % 97}")
                rec.observe(f"h{i % 31}", float(i))
                rec.profile_op(f"k{i % 13}", i % 4, 1, 1e-6)
                rec.gauge("campaign.trials_done", i)
                rec.emit(_trial(i))
                i += 1
                wrote.set()

        thread = threading.Thread(target=writer, daemon=True)
        thread.start()
        try:
            assert wrote.wait(timeout=10)
            for _ in range(300):
                snap = rec.snapshot()
                assert all(v >= 1 for v in snap.counters.values())
                # every summary is whole: [count, sum, min, max] from
                # one write, never a count ahead of its sum
                assert all(
                    count >= 1 and lo <= hi
                    and lo * count <= total <= hi * count
                    for count, total, lo, hi in snap.histograms.values()
                )
                events = ring.tail(16)
                assert len(events) <= 16
                json.loads(render_metrics_json(rec))
                render_prometheus(rec)
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()


class TestByteIdentity:
    """Telemetry and profiling must not change campaign outputs."""

    def _run(self, tmp_path, name, profile=False, serve=False, jobs=1):
        previous = obs.get_recorder()
        trace = tmp_path / f"{name}.jsonl"
        rec = obs.configure(trace_path=trace, profile=profile)
        server = None
        try:
            if serve:
                server = start_live_server(rec, port=0)
                # an actual mid-run scrape, as a live browser would do
                urllib.request.urlopen(server.url + "/metrics", timeout=10)
            result = run_campaign(
                get_app("cg"),
                Deployment(nprocs=2, trials=10, seed=7),
                jobs=jobs,
                keep_records=True,
            )
            if serve:
                urllib.request.urlopen(server.url + "/", timeout=10)
        finally:
            if server is not None:
                server.close()
            obs.set_recorder(previous)
            rec.close()
        return result, provenance_path(trace).read_bytes()

    def test_outputs_identical_with_telemetry_on(self, tmp_path):
        plain, prov_plain = self._run(tmp_path, "plain")
        live, prov_live = self._run(
            tmp_path, "live", profile=True, serve=True
        )
        assert live.joint == plain.joint
        assert list(live.joint) == list(plain.joint)
        assert live.records == plain.records
        assert prov_live == prov_plain

    def test_outputs_identical_with_telemetry_on_parallel(self, tmp_path):
        plain, prov_plain = self._run(tmp_path, "plain")
        live, prov_live = self._run(
            tmp_path, "live2", profile=True, serve=True, jobs=2
        )
        assert live.joint == plain.joint
        assert list(live.joint) == list(plain.joint)
        assert live.records == plain.records
        assert prov_live == prov_plain


class _StubExperiment:
    """Stands in for an experiment module so CLI wiring tests stay fast."""

    def __init__(self):
        self.calls = 0

    def run(self, trials=None, seed=0, quiet=False):
        self.calls += 1


@pytest.fixture()
def stub_experiment(monkeypatch):
    import repro.experiments.cli as cli_module

    stub = _StubExperiment()
    monkeypatch.setattr(
        cli_module.importlib, "import_module", lambda name: stub
    )
    return stub


class TestCliServeObs:
    def test_rejects_out_of_range_port(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table1", "--serve-obs", "99999"])
        assert exc.value.code == 2
        assert "must be in [0, 65535]" in capsys.readouterr().err

    def test_malformed_env_port_warns_and_runs(
        self, monkeypatch, capsys, stub_experiment
    ):
        monkeypatch.setenv("REPRO_OBS_PORT", "not-a-port")
        assert main(["table1", "-q"]) == 0
        assert stub_experiment.calls == 1
        err = capsys.readouterr().err
        assert "malformed REPRO_OBS_PORT" in err
        assert "serving observability" not in err

    def test_env_port_starts_server(
        self, monkeypatch, capsys, stub_experiment
    ):
        monkeypatch.setenv("REPRO_OBS_PORT", "0")
        assert main(["table1", "-q"]) == 0
        err = capsys.readouterr().err
        assert "serving observability on http://127.0.0.1:" in err

    def test_flag_overrides_env(self, monkeypatch, capsys, stub_experiment):
        monkeypatch.setenv("REPRO_OBS_PORT", "not-a-port")
        assert main(["table1", "-q", "--serve-obs", "0"]) == 0
        err = capsys.readouterr().err
        assert "malformed" not in err
        assert "serving observability" in err

    def test_profile_flag_installs_profiling_recorder(
        self, stub_experiment, monkeypatch
    ):
        import repro.experiments.cli as cli_module

        seen = {}
        real_run = stub_experiment.run

        def spy_run(trials=None, seed=0, quiet=False):
            rec = obs.get_recorder()
            seen["enabled"] = rec.enabled
            seen["profiling"] = rec.profiling
            return real_run(trials=trials, seed=seed, quiet=quiet)

        stub_experiment.run = spy_run
        assert cli_module.main(["table1", "-q", "--profile"]) == 0
        assert seen == {"enabled": True, "profiling": True}


def test_campaign_import_leaves_the_live_server_unloaded():
    """``repro.obs`` loads the server (and ``http.server``) on first use."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    probe = ("import sys, repro.fi.campaign; print(sorted(m for m in "
             "('http.server', 'repro.obs.live') if m in sys.modules))")
    src = str(Path(__file__).resolve().parents[2] / "src")
    out = subprocess.run([sys.executable, "-c", probe],
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
    assert obs.start_live_server is start_live_server

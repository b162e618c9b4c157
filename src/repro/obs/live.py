"""Live campaign telemetry over a zero-dependency stdlib HTTP server.

FINJ (Netti et al. 2018) treats live workload monitoring as part of the
fault-injection framework itself; this module closes that gap for the
reproduction without adding a dependency.  A campaign started with
``--serve-obs PORT`` (or ``$REPRO_OBS_PORT``) gets a daemon-thread
:class:`~http.server.ThreadingHTTPServer` bound to localhost that
exposes the process-wide :class:`~repro.obs.recorder.Recorder` while
trials execute — serial, process-pool, checkpointed and adaptive runs
alike, since workers fold into the parent recorder through the existing
ObsSnapshot/absorb path:

* ``GET /metrics`` — counters, gauges, histogram stats, span totals and
  profile rows in Prometheus text exposition format, or as one JSON
  object with ``?format=json``.  Includes ``repro_campaign_eta_seconds``
  derived from successive scrapes of the progress gauges.
* ``GET /events`` — JSON tail of the bounded
  :class:`~repro.obs.sinks.RingBufferSink` (``?n=`` limits the count).
* ``GET /`` — the campaign dashboard rebuilt on demand from the ring
  buffer, auto-refreshing via a ``<meta>`` tag (still no JavaScript).
* ``GET /healthz`` — liveness probe.

Reads are lock-free snapshots (see *Thread safety* in
:mod:`repro.obs.recorder`); the campaign thread never blocks on a
scrape, and the server never writes to recorder state, so campaign
outputs are byte-identical with the server on or off.  The endpoint
shape is deliberately small and stable — the seed of the future
``repro.serve`` campaign-as-a-service API.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable
from urllib.parse import parse_qs, urlsplit

from repro.obs.dashboard import render_dashboard_html
from repro.obs.events import TrialProvenance
from repro.obs.profiler import CampaignScope, profile_rows
from repro.obs.provenance import FaultProvenance
from repro.obs.recorder import HISTOGRAM_FIELDS, Recorder, _copy_racing
from repro.obs.sinks import RingBufferSink

__all__ = [
    "OBS_URL_FILE_ENV",
    "LiveObsServer",
    "render_metrics_json",
    "render_prometheus",
    "start_live_server",
]

#: When set, the server writes its base URL to this file on start — how
#: scripts (the CI smoke job) discover an ephemeral port.
OBS_URL_FILE_ENV = "REPRO_OBS_URL_FILE"


def _metric_name(name: str) -> str:
    """``campaign.trials_done`` → ``repro_campaign_trials_done``."""
    return "repro_" + re.sub(r"[^a-zA-Z0-9_]", "_", name)


def _label(value: str) -> str:
    escaped = value.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def _live_state(recorder: Recorder, eta_s: float | None) -> dict:
    """A recorder's live state as plain data, from one snapshot."""
    snap = recorder.snapshot()
    return {
        "counters": dict(snap.counters),
        "gauges": _copy_racing(recorder.gauges),
        "histograms": {
            name: dict(zip(HISTOGRAM_FIELDS, summary))
            for name, summary in snap.histograms.items()
        },
        "spans": {
            path: {"count": int(count), "seconds": seconds}
            for path, (count, seconds) in snap.span_totals.items()
        },
        "profile": profile_rows(snap.profile),
        "eta_seconds": eta_s,
    }


def render_prometheus(
    recorder: Recorder, eta_s: float | None = None
) -> str:
    """One Prometheus text-exposition page for a recorder's live state."""
    state = _live_state(recorder, eta_s)
    lines: list[str] = []
    for name, value in sorted(state["counters"].items()):
        metric = _metric_name(name) + "_total"
        lines += [f"# TYPE {metric} counter", f"{metric} {value:g}"]
    for name, value in sorted(state["gauges"].items()):
        metric = _metric_name(name)
        lines += [f"# TYPE {metric} gauge", f"{metric} {value:g}"]
    if eta_s is not None:
        lines.append("# TYPE repro_campaign_eta_seconds gauge")
        lines.append(f"repro_campaign_eta_seconds {eta_s:g}")
    for name, hist in sorted(state["histograms"].items()):
        metric = _metric_name(name)
        lines += [f"# TYPE {metric} summary", f"{metric}_count {hist['count']}"]
        lines += [f"{metric}_{k} {hist[k]:g}" for k in ("sum", "min", "max")]
    if state["spans"]:
        lines.append("# TYPE repro_span_seconds_total counter")
        lines.append("# TYPE repro_span_count_total counter")
        for path, span in sorted(state["spans"].items()):
            label = f"{{path={_label(path)}}}"
            lines.append(f"repro_span_seconds_total{label} {span['seconds']:g}")
            lines.append(f"repro_span_count_total{label} {span['count']}")
    if state["profile"]:
        lines.append("# TYPE repro_profile_ops_total counter")
        lines.append("# TYPE repro_profile_seconds_total counter")
        for row in state["profile"]:
            label = (
                f"{{phase={_label(row['phase'])},op={_label(row['kind'])},"
                f"rank=\"{row['rank']}\"}}"
            )
            lines.append(f"repro_profile_ops_total{label} {row['ops']:g}")
            lines.append(
                f"repro_profile_seconds_total{label} {row['seconds']:g}"
            )
    return "\n".join(lines) + "\n"


def render_metrics_json(
    recorder: Recorder, eta_s: float | None = None
) -> str:
    """The same live state as one JSON object (``/metrics?format=json``)."""
    return json.dumps(_live_state(recorder, eta_s), sort_keys=True) + "\n"


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-obs"

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        return None  # scrapes must not pollute the campaign's stderr

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        try:
            status, ctype, body = self.server.live.handle(self.path)
        except Exception as exc:  # a broken page must not kill the server
            status = 500
            ctype = "text/plain; charset=utf-8"
            body = f"internal error: {exc}\n"
        payload = body.encode("utf-8")
        try:
            self.send_response(status)
            self.send_header("Content-Type", ctype)
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-response


class _Server(ThreadingHTTPServer):
    daemon_threads = True       # scrape threads never outlive the process
    allow_reuse_address = True
    live: "LiveObsServer"


class LiveObsServer:
    """Serves a recorder's live state on localhost from a daemon thread."""

    def __init__(
        self,
        recorder: Recorder,
        ring: RingBufferSink,
        host: str = "127.0.0.1",
        port: int = 0,
        refresh_s: float = 2.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.recorder = recorder
        self.ring = ring
        self.refresh_s = refresh_s
        self._clock = clock
        #: (monotonic t, trials done) scrape observations for the ETA.
        self._eta_obs: deque[tuple[float, float]] = deque(maxlen=64)
        self._httpd = _Server((host, port), _Handler)
        self._httpd.live = self
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        host = self._httpd.server_address[0]
        return f"http://{host}:{self.port}"

    def start(self) -> "LiveObsServer":
        """Bind was done in ``__init__``; this starts the serving thread.

        If :data:`OBS_URL_FILE_ENV` is set, the resolved base URL is
        written there so scripts can find an ephemeral port.
        """
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-obs-live",
            daemon=True,
        )
        self._thread.start()
        url_file = os.environ.get(OBS_URL_FILE_ENV)
        if url_file:
            with open(url_file, "w") as fh:
                fh.write(self.url + "\n")
        return self

    def close(self) -> None:
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join(timeout=5)
            self._thread = None
        self._httpd.server_close()

    # ------------------------------------------------------------------
    def _eta_seconds(self) -> float | None:
        """Wall-clock remaining, from successive progress-gauge scrapes.

        The campaign drivers maintain ``campaign.trials_planned`` /
        ``campaign.trials_done`` gauges (adaptive runs re-pin *planned*
        each wave); the server differentiates *done* across its own
        scrape history, so the rate reflects actual recent throughput.
        """
        gauges = _copy_racing(self.recorder.gauges)
        planned = gauges.get("campaign.trials_planned")
        done = gauges.get("campaign.trials_done")
        if not planned or done is None:
            return None
        if not self._eta_obs or self._eta_obs[-1][1] != done:
            self._eta_obs.append((self._clock(), done))
        if done >= planned:
            return 0.0
        if len(self._eta_obs) < 2:
            return None
        t0, d0 = self._eta_obs[0]
        t1, d1 = self._eta_obs[-1]
        if d1 <= d0 or t1 <= t0:
            return None
        rate = (d1 - d0) / (t1 - t0)
        return (planned - done) / rate

    def _status_section(self) -> tuple[str, str]:
        gauges = _copy_racing(self.recorder.gauges)
        eta = self._eta_seconds()
        rows = [
            f"<tr><td>{k}</td><td>{v:g}</td></tr>"
            for k, v in sorted(gauges.items())
        ]
        rows.append(
            f"<tr><td>events buffered</td><td>{len(self.ring.tail())} "
            f"(of {self.ring.written} written, {self.ring.dropped} "
            f"dropped)</td></tr>"
        )
        if eta is not None:
            rows.append(f"<tr><td>eta</td><td>{eta:.0f} s</td></tr>")
        table = "<table><tr><th>live</th><th>value</th></tr>" + "".join(rows) + "</table>"
        return ("Live status", table)

    def handle(self, path: str) -> tuple[int, str, str]:
        """Route one GET; returns ``(status, content type, body)``."""
        split = urlsplit(path)
        query = parse_qs(split.query)
        route = split.path.rstrip("/") or "/"
        if route == "/metrics":
            eta = self._eta_seconds()
            if query.get("format", [""])[0] == "json":
                return (200, "application/json", render_metrics_json(self.recorder, eta))
            return (
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                render_prometheus(self.recorder, eta),
            )
        if route == "/events":
            try:
                n = int(query["n"][0]) if "n" in query else None
            except ValueError:
                return (400, "text/plain; charset=utf-8", "bad ?n= value\n")
            events = self.ring.tail(n)
            body = json.dumps([e.to_dict() for e in events]) + "\n"
            return (200, "application/json", body)
        if route == "/healthz":
            return (200, "text/plain; charset=utf-8", "ok\n")
        if route == "/":
            return (200, "text/html; charset=utf-8", self._dashboard())
        return (404, "text/plain; charset=utf-8", f"no route {route}\n")

    def _dashboard(self) -> str:
        """The dashboard page, rebuilt from in-memory state on demand."""
        events = self.ring.tail()
        records = [
            FaultProvenance.from_event(e)
            for e in events
            if isinstance(e, TrialProvenance)
        ]
        # synthesize profile/trace events from the recorder's live state
        # so the flamegraph and worker timeline render mid-campaign
        events = events + CampaignScope(self.recorder, live=True).events()
        return render_dashboard_html(
            events,
            records,
            title="Live campaign telemetry",
            source_note=(
                f"live from pid {os.getpid()} · {self.url} · ring holds the "
                f"most recent {self.ring.capacity} events"
            ),
            refresh_s=self.refresh_s,
            extra_sections=[self._status_section()],
        )


def start_live_server(
    recorder: Recorder,
    port: int = 0,
    host: str = "127.0.0.1",
    capacity: int = 2048,
    refresh_s: float = 2.0,
) -> LiveObsServer:
    """Attach a ring buffer to ``recorder`` and serve it; returns the server.

    ``port=0`` binds an ephemeral port (read it back from ``.port`` /
    ``.url``).  The recorder is force-enabled — a telemetry server over
    a disabled recorder would serve permanently empty pages — but
    *profiling* stays as configured, and nothing here mutates campaign
    state, so outputs remain byte-identical with the server on or off.
    Events falling off the ring's head increment the recorder's
    ``events.dropped`` counter, exported as ``repro_events_dropped_total``
    on ``/metrics`` and listed by ``--metrics-summary``.
    """
    ring = RingBufferSink(
        capacity, on_drop=lambda: recorder.counter("events.dropped")
    )
    recorder.sinks.append(ring)
    recorder.enabled = True
    recorder.counter("events.dropped", 0)  # visible on /metrics from scrape 1
    server = LiveObsServer(
        recorder, ring, host=host, port=port, refresh_s=refresh_s
    )
    return server.start()

"""``repro.obs`` — zero-dependency tracing, metrics and progress.

The observability layer that turns the fault injector into a research
instrument (cf. FINJ, Netti et al. 2018): a process-wide
:class:`Recorder` holds counters, histograms and nested timing spans,
and fans typed structured events out to pluggable sinks — a JSONL file
trace, an in-memory list for tests, and a throttled stderr progress
line.  Everything is a no-op by default so instrumented hot paths
(per-op accounting in :mod:`repro.taint.ops`, the scheduler loop) stay
fast; enabling costs one :func:`configure` call.

Typical use::

    from repro import obs

    recorder = obs.configure(trace_path="run.jsonl", progress=True)
    try:
        run_campaign(app, deployment)
    finally:
        recorder.close()

or, via the CLI: ``python -m repro.experiments table1 --trace-out
run.jsonl --progress`` then ``python -m repro.experiments obs-report
run.jsonl``.
"""

from __future__ import annotations

from pathlib import Path

from repro.obs.confidence import ConfidenceInterval, wilson_interval
from repro.obs.events import (
    CacheCorrupt,
    CacheHit,
    CacheMiss,
    CacheWrite,
    CampaignConverged,
    CampaignFinished,
    CampaignPlanRevised,
    CampaignProfile,
    CampaignResumed,
    CampaignTrace,
    CampaignStarted,
    CheckpointWritten,
    Event,
    FaultInjected,
    MessageCorrupted,
    RankKilled,
    SchedulerDeadlock,
    SpanEnd,
    TrialFinished,
    TrialProvenance,
    WorkerJoined,
    WorkerLost,
    ChunkRequeued,
    event_from_dict,
)
from repro.obs.profiler import (
    CampaignScope,
    merge_profile_events,
    render_profile_report,
    render_profile_svg,
)
from repro.obs.provenance import (
    FaultProvenance,
    FlipObservation,
    load_provenance,
    provenance_path,
)
from repro.obs.recorder import (
    ObsSnapshot,
    Recorder,
    get_recorder,
    recording,
    reset,
    set_recorder,
)
from repro.obs.report import render_metrics_summary, render_trace_report
from repro.obs.sinks import (
    JsonlSink,
    MemorySink,
    ProgressSink,
    RingBufferSink,
    Sink,
    load_trace,
)
from repro.obs.timeline import (
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

__all__ = [
    # recorder
    "Recorder", "ObsSnapshot", "get_recorder", "set_recorder", "recording",
    "reset", "configure",
    # sinks
    "Sink", "JsonlSink", "MemorySink", "ProgressSink", "RingBufferSink",
    "load_trace",
    # events
    "Event", "CampaignStarted", "CampaignFinished", "CampaignResumed",
    "CampaignConverged", "CampaignPlanRevised", "CampaignProfile",
    "CampaignTrace", "CheckpointWritten", "TrialFinished",
    "FaultInjected", "RankKilled", "MessageCorrupted",
    "CacheHit", "CacheMiss", "CacheWrite", "CacheCorrupt",
    "SchedulerDeadlock", "SpanEnd", "TrialProvenance",
    "WorkerJoined", "WorkerLost", "ChunkRequeued", "event_from_dict",
    # provenance
    "FaultProvenance", "FlipObservation", "load_provenance", "provenance_path",
    # confidence
    "ConfidenceInterval", "wilson_interval",
    # reports
    "render_trace_report", "render_metrics_summary",
    # live telemetry
    "LiveObsServer", "start_live_server", "render_prometheus",
    "render_metrics_json",
    # profiler
    "CampaignScope", "merge_profile_events",
    "render_profile_report", "render_profile_svg",
    # causal tracing + timelines
    "TraceContext", "span_id_from", "trace_id_from",
    "chrome_trace", "otlp_trace", "render_timeline_report", "spans_of",
    "timeline_path", "timeline_swimlane_svg", "validate_chrome_trace",
    "worker_utilization",
]


def __getattr__(name: str):
    """The live server's names, imported on first use (PEP 562): it pulls
    in ``http.server`` and the dashboard, which no campaign needs."""
    if name in ("LiveObsServer", "render_metrics_json", "render_prometheus",
                "start_live_server"):
        from repro.obs import live

        return getattr(live, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def configure(
    trace_path: str | Path | None = None,
    progress: bool = False,
    metrics: bool = False,
    provenance: bool = True,
    profile: bool = False,
    timeline: bool = False,
) -> Recorder:
    """Build and globally install a recorder for this process.

    ``trace_path`` attaches a :class:`JsonlSink`, ``progress`` a stderr
    :class:`ProgressSink`; ``metrics`` enables counter/histogram/span
    collection even with no sink attached (for ``--metrics-summary``);
    ``profile`` additionally turns on the hot-path profiler
    (:mod:`repro.obs.profiler`), which implies collection; ``timeline``
    turns on causal tracing (:mod:`repro.obs.trace`) for the
    ``obs-timeline`` exporters.
    With ``trace_path`` set and ``provenance`` left on, bulky
    :class:`TrialProvenance` events are routed to a second, timestamp-free
    sink at :func:`provenance_path` instead of the main trace, keeping
    the provenance file bit-identical across worker counts.  Bulky
    :class:`CampaignTrace` events likewise go to a timestamp-free
    ``*.timeline.jsonl`` sidecar (:func:`timeline_path`) when
    ``timeline`` is set, and are excluded from the main trace either
    way, so the main trace's bytes do not depend on the tracing switch.
    Returns the installed recorder — call ``close()`` on it when done.
    """
    sinks: list[Sink] = []
    if trace_path is not None:
        sinks.append(JsonlSink(
            trace_path, exclude=(TrialProvenance, CampaignTrace),
        ))
        if provenance:
            sinks.append(JsonlSink(
                provenance_path(trace_path), only=(TrialProvenance,),
                stamp_ts=False,
            ))
        if timeline:
            sinks.append(JsonlSink(
                timeline_path(trace_path), only=(CampaignTrace,),
                stamp_ts=False,
            ))
    if progress:
        sinks.append(ProgressSink())
    recorder = Recorder(
        sinks,
        enabled=bool(sinks) or metrics or profile or timeline,
        profiling=profile,
        tracing=timeline,
    )
    set_recorder(recorder)
    return recorder

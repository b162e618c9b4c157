"""Span timelines: Chrome/OTLP trace export and worker utilization.

Consumes the causal spans produced by :mod:`repro.obs.trace` (shipped
as :class:`~repro.obs.events.CampaignTrace` events, normally in a
``*.timeline.jsonl`` sidecar next to the main trace) and renders them
three ways:

* :func:`chrome_trace` — Chrome trace-event JSON, loadable in Perfetto
  or ``chrome://tracing``: one lane per worker pid, chunk / trial /
  lanes / checkpoint / wave spans nested as B/E pairs;
* :func:`otlp_trace` — OTLP-shaped JSON (``resourceSpans`` →
  ``scopeSpans`` → spans with hex ids and UnixNano timestamps) for
  future collector integration;
* :func:`worker_utilization` / :func:`render_timeline_report` /
  :func:`timeline_swimlane_svg` — per-worker busy / idle / queue-wait
  fractions, straggler detection (chunks whose duration exceeds
  k·median), and the dashboard's SVG swimlane.

Chrome's validator wants per-tid timestamps monotone and B/E strictly
nested, but span starts are wall-clock (``time.time``) while durations
come from the monotonic clock — the two can disagree by more than a
short span's length.  :func:`chrome_trace` therefore rebuilds each
pid's span forest from the recorded ``parent_id`` links and emits it
depth-first with a running per-tid cursor that clamps every timestamp
forward, so exported nesting always matches the recorded causality.
"""

from __future__ import annotations

import statistics
from pathlib import Path
from typing import Iterable

from repro.obs.events import CampaignTrace, Event
from repro.utils.tables import format_table
from repro.viz.svg import SvgCanvas, swimlane

__all__ = [
    "STRAGGLER_K",
    "chrome_trace",
    "otlp_trace",
    "render_timeline_report",
    "spans_of",
    "timeline_path",
    "timeline_swimlane_svg",
    "traces_of",
    "validate_chrome_trace",
    "worker_utilization",
]

#: A chunk is flagged a straggler when its duration exceeds this
#: multiple of the median chunk duration.
STRAGGLER_K = 2.0

#: span category -> swimlane palette index (repro.viz.svg.PALETTE).
_LANE_CATS = {
    "campaign": 3, "wave": 4, "chunk": 0, "checkpoint": 1, "lanes": 2,
}


def timeline_path(trace_path: str | Path) -> Path:
    """The timeline sidecar next to a trace: ``run.jsonl`` → ``run.timeline.jsonl``."""
    path = Path(trace_path)
    return path.with_name(path.stem + ".timeline.jsonl")


def traces_of(events: Iterable[Event]) -> list[CampaignTrace]:
    """Filter a replayed event stream down to its trace events."""
    return [e for e in events if isinstance(e, CampaignTrace)]


def spans_of(events: Iterable[Event]) -> list[dict]:
    """All spans of a stream's trace events, deduplicated.

    The live server synthesizes a mid-run :class:`CampaignTrace` whose
    spans reappear verbatim in the final event, so identity is
    ``(span_id, t0)``: re-runs of the same deployment keep distinct
    wall-clock starts while duplicates of one run collapse.
    """
    seen: set[tuple] = set()
    spans: list[dict] = []
    for event in traces_of(events):
        for span in event.spans:
            key = (span.get("span_id"), span.get("t0"))
            if key in seen:
                continue
            seen.add(key)
            spans.append(span)
    return spans


def _span_end(span: dict) -> float:
    return span["t0"] + max(span.get("dur", 0.0), 0.0)


def chrome_trace(spans: Iterable[dict]) -> dict:
    """Render spans as a Chrome trace-event JSON object.

    One ``tid`` per recording pid (the worker lanes), B/E event pairs
    per span, metadata events naming each lane.  Timestamps are
    microseconds relative to the earliest span start, globally sorted
    and monotone per tid; begin/end events balance by construction (see
    the module docstring for the clock-reconciliation scheme).
    """
    spans = list(spans)
    if not spans:
        return {"traceEvents": [], "displayTimeUnit": "ms", "otherData": {}}
    t_base = min(s["t0"] for s in spans)
    driver_pids = sorted(
        {s["pid"] for s in spans if s.get("cat") in ("campaign", "wave")}
    )
    by_pid: dict[int, list[dict]] = {}
    for span in spans:
        by_pid.setdefault(span["pid"], []).append(span)

    meta: list[dict] = []
    body: list[dict] = []
    for pid in sorted(by_pid):
        role = "driver" if pid in driver_pids or not driver_pids else "worker"
        for field, name in (("process_name", f"repro {role}"),
                            ("thread_name", f"{role} {pid}")):
            meta.append({
                "ph": "M", "name": field, "pid": pid, "tid": pid,
                "args": {"name": name},
            })
        plist = by_pid[pid]
        ids = {s["span_id"] for s in plist}
        children: dict[str, list[dict]] = {}
        roots: list[dict] = []
        for span in plist:
            parent = span.get("parent_id", "")
            # a cross-pid parent (chunk under the driver's campaign)
            # roots its own lane — Chrome nesting is per-thread
            if parent in ids and parent != span["span_id"]:
                children.setdefault(parent, []).append(span)
            else:
                roots.append(span)

        def order(sp: dict) -> tuple:
            return (sp["t0"], -_span_end(sp), sp["span_id"])

        cursor = [0.0]  # running per-tid timestamp floor, microseconds

        def emit(span: dict, lo: float, hi: float) -> None:
            t0 = min(max(span["t0"], lo), hi)
            t1 = min(max(_span_end(span), t0), hi)
            ts_b = max(round((t0 - t_base) * 1e6, 3), cursor[0])
            cursor[0] = ts_b
            args = {"span_id": span["span_id"],
                    "parent_id": span.get("parent_id", ""),
                    **span.get("args", {})}
            body.append({
                "name": span["name"], "cat": span.get("cat", ""),
                "ph": "B", "ts": ts_b, "pid": span["pid"],
                "tid": span["pid"], "args": args,
            })
            for child in sorted(children.get(span["span_id"], ()), key=order):
                emit(child, t0, t1)
            ts_e = max(round((t1 - t_base) * 1e6, 3), cursor[0])
            cursor[0] = ts_e
            body.append({
                "name": span["name"], "cat": span.get("cat", ""),
                "ph": "E", "ts": ts_e, "pid": span["pid"],
                "tid": span["pid"],
            })

        for root in sorted(roots, key=order):
            emit(root, root["t0"], _span_end(root))

    # a stable sort keeps each tid's (already monotone) relative order
    body.sort(key=lambda e: e["ts"])
    return {
        "traceEvents": meta + body,
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.obs.timeline",
            "trace_ids": sorted({s.get("trace_id", "") for s in spans}),
        },
    }


def validate_chrome_trace(blob: dict) -> int:
    """Check a Chrome trace blob; returns the number of B/E pairs.

    Raises ``ValueError`` on the defects the trace-event schema rejects:
    missing required keys, globally unsorted ``ts``, non-monotone
    timestamps within a tid, or unbalanced/mismatched begin-end pairs.
    Shared by the test suite and the CI ``timeline-smoke`` job.
    """
    events = blob.get("traceEvents")
    if not isinstance(events, list) or not events:
        raise ValueError("traceEvents missing or empty")
    body_ts = [e["ts"] for e in events if e.get("ph") in ("B", "E")]
    if body_ts != sorted(body_ts):
        raise ValueError("trace events are not sorted by ts")
    stacks: dict[tuple, list[str]] = {}
    last_ts: dict[tuple, float] = {}
    pairs = 0
    for event in events:
        ph = event.get("ph")
        if ph == "M":
            continue
        if ph not in ("B", "E"):
            raise ValueError(f"unsupported phase {ph!r}")
        for key in ("name", "ts", "pid", "tid"):
            if key not in event:
                raise ValueError(f"event missing {key!r}: {event}")
        tid = (event["pid"], event["tid"])
        if event["ts"] < last_ts.get(tid, float("-inf")):
            raise ValueError(f"timestamps not monotone within tid {tid}")
        last_ts[tid] = event["ts"]
        stack = stacks.setdefault(tid, [])
        if ph == "B":
            stack.append(event["name"])
        else:
            if not stack or stack[-1] != event["name"]:
                raise ValueError(
                    f"unbalanced 'E' event {event['name']!r} on tid {tid}"
                )
            stack.pop()
            pairs += 1
    unclosed = {tid: stack for tid, stack in stacks.items() if stack}
    if unclosed:
        raise ValueError(f"unclosed 'B' events: {unclosed}")
    if pairs == 0:
        raise ValueError("no B/E span pairs in trace")
    return pairs


def _otlp_value(value) -> dict:
    if isinstance(value, bool):
        return {"boolValue": value}
    if isinstance(value, int):
        return {"intValue": str(value)}  # int64 maps to string in OTLP JSON
    if isinstance(value, float):
        return {"doubleValue": value}
    return {"stringValue": str(value)}


def otlp_trace(spans: Iterable[dict]) -> dict:
    """Render spans as OTLP-shaped JSON (one resource, one scope)."""
    rendered = []
    for span in sorted(spans, key=lambda s: (s["t0"], s.get("span_id", ""))):
        attributes = [
            {"key": "repro.cat", "value": _otlp_value(span.get("cat", ""))},
            {"key": "repro.pid", "value": _otlp_value(int(span.get("pid", 0)))},
        ]
        for key in sorted(span.get("args", {})):
            attributes.append(
                {"key": f"repro.{key}", "value": _otlp_value(span["args"][key])}
            )
        rendered.append({
            "traceId": span.get("trace_id", ""),
            "spanId": span.get("span_id", ""),
            "parentSpanId": span.get("parent_id", ""),
            "name": span.get("name", ""),
            "kind": 1,  # SPAN_KIND_INTERNAL
            "startTimeUnixNano": str(int(round(span["t0"] * 1e9))),
            "endTimeUnixNano": str(int(round(_span_end(span) * 1e9))),
            "attributes": attributes,
        })
    return {
        "resourceSpans": [{
            "resource": {"attributes": [{
                "key": "service.name",
                "value": {"stringValue": "repro-campaign"},
            }]},
            "scopeSpans": [{
                "scope": {"name": "repro.obs.timeline"},
                "spans": rendered,
            }],
        }],
    }


def worker_utilization(spans: Iterable[dict], k: float = STRAGGLER_K) -> dict:
    """Per-worker busy/idle/queue-wait fractions plus straggler chunks.

    The utilization window is the campaign span (falling back to the
    overall span extent).  Per worker pid: *busy* sums its chunk
    durations, *queue wait* is the gap between the window start and its
    first chunk (spawn/pickle cost before useful work), *idle* is the
    clamped remainder.  A chunk is a straggler when its duration exceeds
    ``k`` times the median chunk duration.
    """
    spans = list(spans)
    empty = {"window_s": 0.0, "workers": {}, "stragglers": [],
             "chunk_median_s": 0.0}
    if not spans:
        return empty
    campaigns = [s for s in spans if s.get("cat") == "campaign"]
    window_spans = campaigns or spans
    window_t0 = min(s["t0"] for s in window_spans)
    window_t1 = max(_span_end(s) for s in window_spans)
    window = max(window_t1 - window_t0, 0.0)

    chunks = [s for s in spans if s.get("cat") == "chunk"]
    workers: dict[int, dict] = {}
    for pid in sorted({s["pid"] for s in chunks}):
        mine = [s for s in chunks if s["pid"] == pid]
        busy = sum(max(s.get("dur", 0.0), 0.0) for s in mine)
        queue_wait = min(max(min(s["t0"] for s in mine) - window_t0, 0.0),
                         window)
        idle = max(window - busy - queue_wait, 0.0)
        workers[pid] = {
            "chunks": len(mine),
            "trials": sum(
                int(s.get("args", {}).get("trials", 0)) for s in mine
            ),
            "busy_s": busy,
            "queue_wait_s": queue_wait,
            "idle_s": idle,
            "busy_frac": busy / window if window else 0.0,
            "queue_wait_frac": queue_wait / window if window else 0.0,
            "idle_frac": idle / window if window else 0.0,
        }

    durations = [max(s.get("dur", 0.0), 0.0) for s in chunks]
    median = statistics.median(durations) if durations else 0.0
    stragglers = [
        {
            "name": s["name"],
            "pid": s["pid"],
            "dur_s": max(s.get("dur", 0.0), 0.0),
            "ratio": (max(s.get("dur", 0.0), 0.0) / median) if median else 0.0,
        }
        for s in chunks
        if median > 0.0 and max(s.get("dur", 0.0), 0.0) > k * median
    ]
    return {
        "window_s": window,
        "workers": workers,
        "stragglers": sorted(stragglers, key=lambda s: -s["ratio"]),
        "chunk_median_s": median,
    }


def render_timeline_report(
    spans: Iterable[dict], k: float = STRAGGLER_K
) -> str:
    """Text report: span census, per-worker utilization, stragglers."""
    spans = list(spans)
    if not spans:
        return "(no spans recorded)"
    by_cat: dict[str, list[float]] = {}
    for span in spans:
        by_cat.setdefault(span.get("cat", "?"), []).append(
            max(span.get("dur", 0.0), 0.0)
        )
    census = format_table(
        ["category", "spans", "total s"],
        [(cat, len(durs), round(sum(durs), 3))
         for cat, durs in sorted(by_cat.items())],
        title="Span census",
    )
    util = worker_utilization(spans, k)
    sections = [census]
    if util["workers"]:
        rows = [
            (pid, w["chunks"], w["trials"], round(w["busy_s"], 3),
             f"{100 * w['busy_frac']:.0f}%",
             f"{100 * w['queue_wait_frac']:.0f}%",
             f"{100 * w['idle_frac']:.0f}%")
            for pid, w in util["workers"].items()
        ]
        sections.append(format_table(
            ["worker pid", "chunks", "trials", "busy s", "busy",
             "queue-wait", "idle"],
            rows,
            title=f"Worker utilization ({util['window_s']:.2f}s window)",
        ))
    if util["stragglers"]:
        rows = [
            (s["name"], s["pid"], round(s["dur_s"], 3),
             f"{s['ratio']:.1f}x median")
            for s in util["stragglers"]
        ]
        sections.append(format_table(
            ["straggler chunk", "pid", "duration s", "vs median"], rows,
            title=f"Stragglers (> {k:g}x median chunk)",
        ))
    else:
        sections.append(
            f"(no straggler chunks: none exceeded {k:g}x the "
            f"{util['chunk_median_s']:.3f}s median)"
        )
    return "\n\n".join(sections)


def timeline_swimlane_svg(
    spans: Iterable[dict],
    title: str = "Worker timeline",
    width: int = 920,
) -> SvgCanvas:
    """The worker-timeline swimlane: one lane per pid, driver first.

    Driver lanes show the campaign span with wave/checkpoint spans on
    top; worker lanes show their chunks (and lanes blocks).  Trial
    spans are omitted — at campaign scale they are sub-pixel noise.
    """
    spans = [s for s in spans if s.get("cat") in _LANE_CATS]
    if not spans:
        return swimlane([], title=title, width=width)
    t_base = min(s["t0"] for s in spans)
    driver_pids = {
        s["pid"] for s in spans
        if s["cat"] in ("campaign", "wave", "checkpoint")
    }
    rows = []
    for pid in sorted({s["pid"] for s in spans},
                      key=lambda p: (p not in driver_pids, p)):
        role = "driver" if pid in driver_pids else "worker"
        boxes = [
            (s["t0"] - t_base, _span_end(s) - t_base, s["name"],
             _LANE_CATS[s["cat"]])
            for s in spans if s["pid"] == pid
        ]
        rows.append((f"{role} {pid}", boxes))
    return swimlane(rows, title=title, width=width)

"""Campaign dashboard: one self-contained HTML page per trace.

Takes the two files an instrumented campaign leaves behind — the JSONL
event trace (``--trace-out``) and its sibling ``*.provenance.jsonl`` —
and renders a single static HTML file with every chart inlined as SVG
(:mod:`repro.viz.svg`): outcome rates with 95% Wilson whiskers, a
bit-position × outcome heatmap, a contamination-spread histogram,
injection-latency percentiles, and the per-phase timing table.  No
JavaScript, no external stylesheets, fonts, or images — the file can be
attached to a CI run or an email and opened anywhere.

Build one with ``python -m repro.experiments obs-dashboard TRACE`` or
programmatically via :func:`write_dashboard`.
"""

from __future__ import annotations

import html
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from repro.numerics.bits import bit_width
from repro.obs.confidence import wilson_interval
from repro.obs.events import (
    CampaignConverged,
    CampaignProfile,
    CampaignResumed,
    CampaignStarted,
    CheckpointWritten,
    Event,
    TrialFinished,
)
from repro.obs.profiler import (
    coverage,
    merge_profile_events,
    render_profile_svg,
    traced_op_share,
)
from repro.obs.provenance import FaultProvenance, load_provenance, provenance_path
from repro.obs.report import aggregate_spans, phase_rows
from repro.obs.sinks import load_trace
from repro.obs.timeline import (
    STRAGGLER_K,
    spans_of,
    timeline_path,
    timeline_swimlane_svg,
    worker_utilization,
)
from repro.viz.svg import bar_chart, bar_chart_with_ci, heatmap

__all__ = [
    "render_dashboard", "render_dashboard_html", "write_dashboard",
    "dashboard_path",
]

#: canonical outcome order for every chart (matches the paper's figures).
_OUTCOMES = ["success", "sdc", "failure"]

_STYLE = """
body { font-family: Helvetica, Arial, sans-serif; margin: 2em auto;
       max-width: 960px; color: #222; }
h1 { font-size: 1.5em; } h2 { font-size: 1.15em; margin-top: 2em; }
table { border-collapse: collapse; margin: 1em 0; }
th, td { border: 1px solid #ccc; padding: 4px 10px; text-align: left;
         font-size: 0.9em; }
th { background: #f0f3f7; }
section { margin-bottom: 1.5em; }
.meta { color: #666; font-size: 0.85em; }
"""


def dashboard_path(trace_path: str | Path) -> Path:
    """Default output path: ``run.jsonl`` → ``run.dashboard.html``."""
    path = Path(trace_path)
    return path.with_name(path.stem + ".dashboard.html")


# ----------------------------------------------------------------------
# section builders
# ----------------------------------------------------------------------
def _esc(value) -> str:
    return html.escape(str(value))


def _html_table(headers: list[str], rows: Iterable[tuple]) -> str:
    head = "".join(f"<th>{_esc(h)}</th>" for h in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{_esc(c)}</td>" for c in row) + "</tr>"
        for row in rows
    )
    return f"<table><tr>{head}</tr>{body}</table>"


def _campaign_section(events: list[Event]) -> str:
    starts = [e for e in events if isinstance(e, CampaignStarted)]
    if not starts:
        return "<p class='meta'>(no campaign metadata in trace)</p>"
    rows = [
        (e.app, e.nprocs, e.trials, e.n_errors, e.seed) for e in starts
    ]
    return _html_table(["app", "nprocs", "trials", "errors/test", "seed"], rows)


def _outcome_section(events: list[Event]) -> str:
    trials = [e for e in events if isinstance(e, TrialFinished)]
    if not trials:
        return "<p class='meta'>(no finished trials in trace)</p>"
    n = len(trials)
    counts = {oc: 0 for oc in _OUTCOMES}
    for t in trials:
        counts[t.outcome] = counts.get(t.outcome, 0) + 1
    values, intervals, rows = [], [], []
    for oc in _OUTCOMES:
        k = counts.get(oc, 0)
        ci = wilson_interval(k, n)
        values.append(k / n)
        intervals.append((ci.low, ci.high))
        rows.append((oc, k, f"{100 * k / n:.1f}%", ci.format(as_percent=True)))
    svg = bar_chart_with_ci(
        [oc.upper() for oc in _OUTCOMES], values, intervals,
        title=f"Outcome rates with 95% Wilson intervals ({n} trials)",
        ylabel="rate",
    ).render()
    return svg + _html_table(["outcome", "trials", "rate", "95% CI"], rows)


def _bit_heatmap_section(records: list[FaultProvenance]) -> str:
    n_bits = bit_width(np.dtype(np.float64))
    fired = [r for r in records if r.fired]
    if not fired:
        return "<p class='meta'>(no fired flips in provenance)</p>"
    grid = [[0] * n_bits for _ in _OUTCOMES]
    row_of = {oc: i for i, oc in enumerate(_OUTCOMES)}
    for r in fired:
        ri = row_of.get(r.outcome)
        if ri is None:
            continue
        for bit in r.bits:
            grid[ri][bit] += 1
    svg = heatmap(
        [oc.upper() for oc in _OUTCOMES],
        list(range(n_bits)),
        grid,
        title=f"Outcome by corrupted bit position ({len(fired)} trials with fired flips)",
        col_label_every=8,
    ).render()
    return svg + (
        "<p class='meta'>Bit 0 = mantissa LSB; "
        f"bit {n_bits - 1} = sign. Cell colour ∝ trial count.</p>"
    )


def _spread_section(records: list[FaultProvenance]) -> str:
    activated = [r for r in records if r.activated and r.n_contaminated >= 1]
    if not activated:
        return "<p class='meta'>(no activated trials in provenance)</p>"
    counts: dict[int, int] = {}
    for r in activated:
        counts[r.n_contaminated] = counts.get(r.n_contaminated, 0) + 1
    cats = list(range(1, max(counts) + 1))
    svg = bar_chart(
        cats, [counts.get(c, 0) for c in cats],
        title=f"Contamination spread ({len(activated)} activated trials)",
        ylabel="trials", percent=False,
    ).render()
    return svg


def _checkpoint_section(events: list[Event]) -> str | None:
    """Checkpoint/resume summary; None when the run never checkpointed."""
    writes = [e for e in events if isinstance(e, CheckpointWritten)]
    resumes = [e for e in events if isinstance(e, CampaignResumed)]
    if not writes and not resumes:
        return None
    parts = []
    if resumes:
        rows = [
            (e.app, f"{e.trials_done}/{e.trials_total}",
             f"{e.chunks_done}/{e.chunks_total}", e.path)
            for e in resumes
        ]
        parts.append(_html_table(
            ["resumed app", "trials recovered", "chunks recovered", "store"],
            rows,
        ))
    if writes:
        total_bytes = sum(e.size_bytes for e in writes)
        parts.append(
            f"<p class='meta'>{len(writes)} chunk checkpoints written "
            f"({total_bytes} bytes); {max(e.trials_done for e in writes)} "
            f"trials durable at the last write.</p>"
        )
    return "\n".join(parts)


def _convergence_section(events: list[Event]) -> str | None:
    """Adaptive precision summary; None when every campaign was fixed-N.

    Shows where the precision budget actually went: a bar per deployment
    with the trials it spent (against its cap), plus a table with waves,
    the target and the worst achieved half-width.
    """
    converged = [e for e in events if isinstance(e, CampaignConverged)]
    if not converged:
        return None
    labels, rows = [], []
    for e in converged:
        # serial multi-error sweeps vary x, parallel campaigns vary p
        label = f"x={e.n_errors}" if e.nprocs == 1 else f"p={e.nprocs}"
        if sum(1 for c in converged if c.app == e.app) != len(converged):
            label = f"{e.app} {label}"
        labels.append(label)
        worst = max(e.halfwidths.values()) if e.halfwidths else float("nan")
        rows.append((
            e.app, label, f"{e.trials_used}/{e.trials_cap}", e.waves,
            f"{e.target:.4f}", f"{worst:.4f}",
            "yes" if e.converged else "CAP HIT",
        ))
    svg = bar_chart(
        labels, [e.trials_used for e in converged],
        title="Trials spent per deployment (adaptive stopping)",
        ylabel="trials", percent=False,
    ).render()
    return svg + _html_table(
        ["app", "deployment", "trials", "waves", "target ±", "achieved ±",
         "converged"],
        rows,
    )


def _profile_section(events: list[Event]) -> str | None:
    """Hot-path flamegraph; None when the run was not profiled."""
    profiles = [e for e in events if isinstance(e, CampaignProfile)]
    if not profiles:
        return None
    merged = merge_profile_events(profiles)
    svg = render_profile_svg(merged).render()
    note = (
        f"<p class='meta'>{len(profiles)} profiled campaign(s); "
        f"wall-time coverage {100 * coverage(merged):.1f}%, "
        f"traced binary ops cover {100 * traced_op_share(merged):.1f}% of "
        f"injection time. Full per-(phase, op, rank) table: "
        f"<code>obs-profile TRACE</code>.</p>"
    )
    return svg + note


def _timeline_section(events: list[Event]) -> str | None:
    """Worker swimlane + utilization; None when the run was not traced."""
    spans = spans_of(events)
    if not spans:
        return None
    svg = timeline_swimlane_svg(spans).render()
    util = worker_utilization(spans)
    parts = [svg]
    if util["workers"]:
        rows = [
            (pid, w["chunks"], w["trials"], f"{w['busy_s']:.3f}",
             f"{100 * w['busy_frac']:.0f}%",
             f"{100 * w['queue_wait_frac']:.0f}%",
             f"{100 * w['idle_frac']:.0f}%")
            for pid, w in util["workers"].items()
        ]
        parts.append(_html_table(
            ["worker pid", "chunks", "trials", "busy s", "busy",
             "queue-wait", "idle"],
            rows,
        ))
    if util["stragglers"]:
        worst = util["stragglers"][0]
        parts.append(
            f"<p class='meta'>{len(util['stragglers'])} straggler "
            f"chunk(s) exceeded {STRAGGLER_K:g}× the "
            f"{util['chunk_median_s']:.3f}s median — worst: "
            f"{_esc(worst['name'])} on pid {worst['pid']} at "
            f"{worst['ratio']:.1f}×.</p>"
        )
    else:
        parts.append(
            "<p class='meta'>No straggler chunks (none exceeded "
            f"{STRAGGLER_K:g}× the median). Export this timeline with "
            "<code>obs-timeline TRACE --chrome out.json</code>.</p>"
        )
    return "\n".join(parts)


def _phase_section(events: list[Event]) -> str:
    totals = aggregate_spans(events)
    if not totals:
        return "<p class='meta'>(no timing spans in trace)</p>"
    rows = [
        (path, count, f"{total:.3f}", f"{mean_ms:.3f}")
        for path, count, total, mean_ms in phase_rows(totals)
    ]
    return _html_table(["phase", "count", "total s", "mean ms"], rows)


# ----------------------------------------------------------------------
def render_dashboard_html(
    events: list[Event],
    records: list[FaultProvenance],
    title: str = "Campaign dashboard",
    source_note: str = "",
    refresh_s: float | None = None,
    extra_sections: Iterable[tuple[str, str]] = (),
) -> str:
    """The dashboard page for an in-memory event stream.

    The shared core behind the file-based :func:`render_dashboard` and
    the live telemetry server's ``/`` endpoint (:mod:`repro.obs.live`),
    which rebuilds the page on demand from its ring buffer.
    ``refresh_s`` adds a ``<meta http-equiv="refresh">`` tag so a
    browser watching a running campaign updates itself;
    ``extra_sections`` prepends ``(heading, html)`` pairs (the live
    server's status block).  Still zero JavaScript either way.
    """
    sections = list(extra_sections) + [
        ("Campaigns", _campaign_section(events)),
        ("Outcome rates", _outcome_section(events)),
        ("Fault sites", _bit_heatmap_section(records)),
        ("Contamination spread", _spread_section(records)),
        ("Phase timing", _phase_section(events)),
    ]
    for heading, builder in (
        ("Hot-path profile", _profile_section),
        ("Worker timeline", _timeline_section),
        ("Checkpoint / resume", _checkpoint_section),
        ("Adaptive convergence", _convergence_section),
    ):
        content = builder(events)
        if content is not None:
            sections.append((heading, content))
    body = "\n".join(
        f"<section><h2>{_esc(heading)}</h2>\n{content}</section>"
        for heading, content in sections
    )
    refresh = (
        f"<meta http-equiv=\"refresh\" content=\"{refresh_s:g}\">\n"
        if refresh_s else ""
    )
    note = f"<p class='meta'>{source_note}</p>\n" if source_note else ""
    return (
        "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n"
        "<meta charset=\"utf-8\">\n"
        f"{refresh}"
        f"<title>{_esc(title)}</title>\n"
        f"<style>{_STYLE}</style>\n</head>\n<body>\n"
        f"<h1>{_esc(title)}</h1>\n"
        f"{note}"
        f"{body}\n</body>\n</html>\n"
    )


def render_dashboard(
    trace_path: str | Path,
    provenance: str | Path | None = None,
    on_skip: Callable[[str], None] | None = None,
) -> str:
    """Render the dashboard HTML for one trace (+ optional provenance).

    ``provenance`` defaults to the trace's sibling
    ``*.provenance.jsonl`` when that file exists.  Raises
    ``FileNotFoundError`` for a missing trace and ``ValueError`` for a
    trace with no decodable events — callers (the CLI) turn both into
    one-line errors.
    """
    trace_path = Path(trace_path)
    events = load_trace(trace_path, on_skip=on_skip)
    if not events:
        raise ValueError(f"trace {trace_path} contains no decodable events")
    sidecar = timeline_path(trace_path)
    if sidecar.exists():
        events = events + load_trace(sidecar, on_skip=on_skip)
    if provenance is None:
        candidate = provenance_path(trace_path)
        provenance = candidate if candidate.exists() else None
    records: list[FaultProvenance] = []
    if provenance is not None:
        records = load_provenance(provenance, on_skip=on_skip)
    prov_note = (
        f"provenance: <code>{_esc(provenance)}</code>" if provenance else
        "no provenance file found"
    )
    return render_dashboard_html(
        events, records,
        title="Campaign dashboard",
        source_note=f"trace: <code>{_esc(trace_path)}</code> · {prov_note}",
    )


def write_dashboard(
    trace_path: str | Path,
    out_path: str | Path | None = None,
    provenance: str | Path | None = None,
    on_skip: Callable[[str], None] | None = None,
) -> Path:
    """Render and write the dashboard; returns the output path."""
    out = Path(out_path) if out_path is not None else dashboard_path(trace_path)
    text = render_dashboard(trace_path, provenance=provenance, on_skip=on_skip)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(text)
    return out

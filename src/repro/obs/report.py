"""Render a JSONL trace (or a live recorder) into summary tables.

Backs the ``python -m repro.experiments obs-report PATH`` subcommand and
the ``--metrics-summary`` CLI flag.  The phase table aggregates
:class:`~repro.obs.events.SpanEnd` events per slash-joined path:
count, total seconds, mean, and throughput (closes per second of total
span time); the outcome table tallies
:class:`~repro.obs.events.TrialFinished` events.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

from repro.obs.confidence import wilson_interval
from repro.obs.events import (
    CampaignConverged,
    CampaignResumed,
    CheckpointWritten,
    ChunkRequeued,
    Event,
    SpanEnd,
    TrialFinished,
    WorkerJoined,
    WorkerLost,
)
from repro.obs.recorder import Recorder
from repro.obs.sinks import load_trace
from repro.utils.tables import format_table

__all__ = [
    "aggregate_spans",
    "phase_rows",
    "phase_table",
    "outcome_counts",
    "checkpoint_summary",
    "convergence_summary",
    "trial_latency_table",
    "failure_mode_summary",
    "worker_summary",
    "render_trace_report",
    "render_metrics_summary",
]


def _percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample."""
    if not ordered:
        return 0.0
    rank = max(int(-(-q * len(ordered) // 100)), 1)  # ceil(q/100 * n)
    return ordered[rank - 1]


def aggregate_spans(events: Iterable[Event]) -> dict[str, list[float]]:
    """Per-path ``[count, total seconds]`` from a trace's SpanEnd events."""
    totals: dict[str, list[float]] = {}
    for event in events:
        if isinstance(event, SpanEnd):
            agg = totals.setdefault(event.path, [0, 0.0])
            agg[0] += 1
            agg[1] += event.duration_s
    return totals


def phase_rows(
    span_totals: dict[str, Sequence[float]],
) -> list[tuple[str, int, float, float]]:
    """``(path, count, total s, mean ms)`` per phase, sorted by path,
    from ``path -> (count, seconds)``."""
    return [
        (path, int(count), total, 1000.0 * total / count if count else 0.0)
        for path, (count, total) in sorted(span_totals.items())
    ]


def phase_table(span_totals: dict[str, Sequence[float]], title: str) -> str:
    """Per-phase time/throughput table from ``path -> (count, seconds)``."""
    rows = [
        (path, count, round(total, 3), round(mean_ms, 3),
         round(count / total if total > 0 else float("nan"), 1))
        for path, count, total, mean_ms in phase_rows(span_totals)
    ]
    return format_table(
        ["phase", "count", "total s", "mean ms", "per s"], rows, title=title
    )


def outcome_counts(events: Iterable[Event]) -> dict[str, int]:
    """Per-outcome trial tallies from the trace's TrialFinished events."""
    out: dict[str, int] = {}
    for event in events:
        if isinstance(event, TrialFinished):
            out[event.outcome] = out.get(event.outcome, 0) + 1
    return out


def checkpoint_summary(events: Iterable[Event]) -> str | None:
    """Checkpoint/resume table, or None when the trace has neither."""
    writes = [e for e in events if isinstance(e, CheckpointWritten)]
    resumes = [e for e in events if isinstance(e, CampaignResumed)]
    if not writes and not resumes:
        return None
    rows: list[tuple] = [
        ("chunks checkpointed", len(writes)),
        ("bytes written", sum(e.size_bytes for e in writes)),
    ]
    if writes:
        rows.append(("trials made durable", max(e.trials_done for e in writes)))
    for e in resumes:
        rows.append((
            f"resumed {e.app}",
            f"{e.trials_done}/{e.trials_total} trials recovered "
            f"({e.chunks_done}/{e.chunks_total} chunks)",
        ))
    return format_table(["checkpointing", "value"], rows, title="Checkpointing")


def convergence_summary(events: Iterable[Event]) -> str | None:
    """Adaptive-campaign convergence table, or None for fixed-N traces.

    One row per :class:`~repro.obs.events.CampaignConverged` event:
    trials spent against the cap, waves, the worst outcome's achieved
    half-width against the target, and whether the deployment converged
    before the cap ran out.
    """
    converged = [e for e in events if isinstance(e, CampaignConverged)]
    if not converged:
        return None
    rows = []
    for e in converged:
        label = f"{e.app} p={e.nprocs}"
        if e.n_errors != 1:
            label += f" x={e.n_errors}"
        worst = max(e.halfwidths.values()) if e.halfwidths else float("nan")
        rows.append((
            label,
            f"{e.trials_used}/{e.trials_cap}",
            e.waves,
            round(e.target, 4),
            round(worst, 4),
            "yes" if e.converged else "CAP HIT",
        ))
    return format_table(
        ["deployment", "trials", "waves", "target ±", "achieved ±", "converged"],
        rows, title="Convergence",
    )


def trial_latency_table(events: Iterable[Event]) -> str | None:
    """Per-trial wall-time percentiles, or None when no trials finished.

    Nearest-rank p50/p95/p99 over :class:`TrialFinished.duration_s` —
    the tail percentiles are what stragglers and injection-path
    slowdowns show up in, long before the mean moves.
    """
    durations = sorted(
        e.duration_s for e in events if isinstance(e, TrialFinished)
    )
    if not durations:
        return None
    n = len(durations)
    row = (
        n,
        round(1000.0 * sum(durations) / n, 3),
        round(1000.0 * _percentile(durations, 50), 3),
        round(1000.0 * _percentile(durations, 95), 3),
        round(1000.0 * _percentile(durations, 99), 3),
        round(1000.0 * durations[-1], 3),
    )
    return format_table(
        ["trials", "mean ms", "p50 ms", "p95 ms", "p99 ms", "max ms"],
        [row], title="Trial wall time",
    )


def failure_mode_summary(path: str | Path) -> str | None:
    """Failure-mode table from the trace's provenance sidecar, or None.

    Tallies the machine-readable prefix of each failed trial's
    ``detail`` — ``crash`` / ``hang`` (bit flips, message corruption),
    ``abort`` / ``deadlock`` / ``lost`` (rank fail-stop) — so scenario
    campaigns report *how* the application died, not just that it did.
    Returns None when the sidecar is missing or records no failures.
    """
    from repro.obs.provenance import load_provenance, provenance_path

    sidecar = provenance_path(path)
    if not sidecar.exists():
        return None
    modes: dict[str, int] = {}
    for record in load_provenance(sidecar):
        if record.outcome != "failure":
            continue
        mode = record.detail.split(":", 1)[0] if record.detail else "(unspecified)"
        modes[mode] = modes.get(mode, 0) + 1
    if not modes:
        return None
    total = sum(modes.values())
    rows = [
        (mode, count, round(count / total, 3))
        for mode, count in sorted(modes.items(), key=lambda kv: (-kv[1], kv[0]))
    ]
    return format_table(
        ["failure mode", "trials", "share"], rows,
        title=f"Failure modes ({total} failed trials)",
    )


def worker_summary(events: Iterable[Event]) -> str | None:
    """Distributed-worker lifecycle table, or None for local traces.

    One row per worker the controller ever admitted
    (:class:`~repro.obs.events.WorkerJoined`): pid, whether its
    initialization was a warm-pool hit, chunks completed, chunks
    requeued after losing it, and how it left — ``released`` for a
    graceful end-of-campaign goodbye, or the loss reason
    (``disconnect`` / ``timeout`` / ``protocol``) in upper case.
    """
    joined = [e for e in events if isinstance(e, WorkerJoined)]
    if not joined:
        return None
    lost = {e.worker: e for e in events if isinstance(e, WorkerLost)}
    requeues: dict[int, int] = {}
    for e in events:
        if isinstance(e, ChunkRequeued):
            requeues[e.worker] = requeues.get(e.worker, 0) + 1
    rows = []
    for e in joined:
        exit_event = lost.get(e.worker)
        if exit_event is None:
            status = "active"
        elif exit_event.reason == "released":
            status = "released"
        else:
            status = exit_event.reason.upper()
        rows.append((
            e.worker,
            e.pid,
            "warm" if e.warm else f"cold ({1000.0 * e.init_s:.0f} ms)",
            exit_event.chunks_done if exit_event is not None else "",
            requeues.get(e.worker, 0),
            status,
        ))
    return format_table(
        ["worker", "pid", "init", "chunks", "requeued", "status"],
        rows, title=f"Workers ({len(joined)} joined)",
    )


def render_trace_report(path: str | Path, on_skip=None) -> str:
    """Full obs-report text for one JSONL trace file."""
    events = load_trace(path, on_skip=on_skip)
    sections = [
        phase_table(aggregate_spans(events), title=f"Phases — {path}")
    ]
    outcomes = outcome_counts(events)
    if outcomes:
        n = sum(outcomes.values())
        rows = [
            (name, count, round(count / n, 3),
             wilson_interval(count, n).format(as_percent=True))
            for name, count in sorted(outcomes.items())
        ]
        sections.append(
            format_table(
                ["outcome", "trials", "rate", "95% CI"], rows,
                title=f"Trial outcomes ({n} trials)",
            )
        )
    failure_modes = failure_mode_summary(path)
    if failure_modes is not None:
        sections.append(failure_modes)
    latency = trial_latency_table(events)
    if latency is not None:
        sections.append(latency)
    workers = worker_summary(events)
    if workers is not None:
        sections.append(workers)
    checkpoints = checkpoint_summary(events)
    if checkpoints is not None:
        sections.append(checkpoints)
    convergence = convergence_summary(events)
    if convergence is not None:
        sections.append(convergence)
    if not events:
        sections.append(f"(trace {path} contains no known events)")
    return "\n\n".join(sections)


def render_metrics_summary(recorder: Recorder) -> str:
    """Counters + histogram stats + span totals of a live recorder."""
    sections = []
    if recorder.counters:
        rows = [(k, recorder.counters[k]) for k in sorted(recorder.counters)]
        sections.append(format_table(["counter", "value"], rows, title="Counters"))
    if recorder.gauges:
        rows = [(k, recorder.gauges[k]) for k in sorted(recorder.gauges)]
        sections.append(format_table(["gauge", "value"], rows, title="Gauges"))
    if recorder.histograms:
        rows = []
        for name in sorted(recorder.histograms):
            count, total, lo, hi = recorder.histograms[name]
            rows.append((name, count, round(lo, 3), round(total / count, 3),
                         round(hi, 3)))
        sections.append(
            format_table(["histogram", "n", "min", "mean", "max"], rows,
                         title="Histograms")
        )
    if recorder.span_totals:
        sections.append(phase_table(recorder.span_totals, title="Spans"))
    if not sections:
        return "(no metrics recorded)"
    return "\n\n".join(sections)

"""Deterministic causal tracing for campaign execution.

Every traced campaign gets a W3C-style 128-bit trace id hashed from the
app cache key and the deployment key, and every span (campaign, profile
phase, wave, chunk, lanes block, trial, checkpoint write) gets a 64-bit
span id hashed from the trace id plus the span's *logical* coordinates
— its category and key, ``derive(cat, *key)``: ``("trial", 7)``,
``("chunk", 0, 8)``, ``("phase", "profile")``.  Wall-clock never enters
an id, so ids are bit-identical across runs, ``--jobs``/``--lanes``
settings, and interrupt/resume; only the recorded ``t0``/``dur``
readings differ.

Spans are opened by :meth:`repro.obs.recorder.Recorder.span`, the same
call that times phases: while tracing, it derives the child
:class:`TraceContext` from the recorder's current one, makes it current
for the span's body, and records the span dict on exit.  Like the
hot-path profiler, tracing reads clocks but never touches program
state: records, the main event stream, and the provenance sidecar stay
byte-identical with tracing on or off.  Collected spans ride
:class:`~repro.obs.recorder.ObsSnapshot` back from worker processes,
and the driver emits one :class:`~repro.obs.events.CampaignTrace` event
per campaign (:class:`repro.obs.profiler.CampaignScope`), routed by
:func:`repro.obs.configure` to a ``*.timeline.jsonl`` sidecar so the
main trace's event stream is unaffected.

Span dicts are plain JSON: ``{name, cat, trace_id, span_id, parent_id,
t0, dur, pid, args}`` with ``t0`` in wall-clock epoch seconds and
``dur`` measured on the monotonic clock.  Exporters live in
:mod:`repro.obs.timeline`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

__all__ = ["TraceContext", "span_id_from", "trace_id_from"]


def trace_id_from(*parts: object) -> str:
    """32-hex-digit trace id hashed from logical identifiers only."""
    blob = "|".join(str(part) for part in parts)
    return hashlib.sha256(f"trace|{blob}".encode()).hexdigest()[:32]


def span_id_from(trace_id: str, *parts: object) -> str:
    """16-hex-digit span id, deterministic within one trace."""
    blob = "|".join((trace_id, *(str(part) for part in parts)))
    return hashlib.sha256(f"span|{blob}".encode()).hexdigest()[:16]


@dataclass(frozen=True)
class TraceContext:
    """The current position in a campaign's causal tree.

    Frozen and string-only, so it pickles to worker processes on
    :class:`~repro.engine.chunks.EngineContext` unchanged.  A campaign's
    root context has an empty ``span_id``: the campaign span derived
    from it records no parent.
    """

    trace_id: str
    span_id: str

    def derive(self, *parts: object) -> "TraceContext":
        """Child context whose span id is keyed by logical ``parts``."""
        return TraceContext(self.trace_id, span_id_from(self.trace_id, *parts))

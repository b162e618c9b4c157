"""The process-wide recorder: counters, histograms, spans, event fan-out.

One :class:`Recorder` instance is installed per process (see
:func:`get_recorder` / :func:`set_recorder`).  The default instance is
**disabled**: every instrumentation site either checks
:attr:`Recorder.enabled` or goes through methods that return
immediately, so the fault-injection hot path (per-vectorized-op
accounting in :mod:`repro.taint.ops`) pays one attribute test and
nothing else.

Cross-process aggregation
-------------------------
Campaign workers (:mod:`repro.engine`) cannot share the parent's
recorder, so each worker records into a local recorder and ships an
:class:`ObsSnapshot` — a picklable bundle of counters, histograms, span
totals and buffered events — back with its results.  The parent calls
:meth:`Recorder.absorb` to merge the aggregates and re-emit the events
to its own sinks, preserving serial-run semantics (progress lines,
traces and metric summaries see every trial exactly once).  A worker
recorder built with ``span_prefix=("campaign",)`` nests its trial spans
under the parent's campaign span, and one built with ``trace_ctx`` set
to the chunk's parent span nests its causal spans likewise, keeping
span paths and span ids identical to a serial run.

Metrics model
-------------
* **counters** — monotonically increasing totals (``fp.add.rank0``,
  ``cache.hit``), integer or float;
* **gauges** — last-write-wins values (``campaign.trials_planned``,
  ``campaign.trials_done``), the live-telemetry view of "where is the
  run right now";
* **histograms** — one ``[count, sum, min, max]`` summary per name
  (``taint.contamination_spread``, ``scheduler.blocked_ranks``);
* **spans** — :meth:`Recorder.span` is the one way code opens a span.
  Phase categories (``campaign``, ``phase``, ``trial``) nest into
  slash-joined paths (``campaign/trial/inject``); each close accumulates
  (count, total seconds) per path and emits a
  :class:`~repro.obs.events.SpanEnd`.  While tracing inside a campaign,
  the same enter/exit also records the span in the causal tree (see
  :mod:`repro.obs.trace`); :data:`TRACE_ONLY` categories go there only;
* **profile** — the hot-path profiler's attribution table, keyed
  ``(path, op kind, rank) -> [ops, calls, seconds]``.  Populated only
  while :attr:`Recorder.profiling` is set (see
  :mod:`repro.obs.profiler`); ``path`` extends the span path with
  lightweight *profiler frames* (:meth:`Recorder.push_frame`) that cost
  a list append and emit no events.

Thread safety
-------------
The live telemetry server (:mod:`repro.obs.live`) reads a recorder from
its own thread while a campaign writes.  The hot path stays lock-free;
:meth:`snapshot` instead retries the rare ``RuntimeError`` CPython
raises when a dict or deque is resized mid-copy, so readers always get
a consistent-enough copy without the writers paying anything.
"""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

from repro.obs.events import Event, SpanEnd
from repro.obs.sinks import Sink

__all__ = [
    "HISTOGRAM_FIELDS", "TRACE_ONLY", "ObsSnapshot", "Recorder",
    "get_recorder", "set_recorder", "recording", "reset",
]

#: Span categories recorded in the causal tree only: they extend no
#: phase path, accumulate no ``span_totals`` and emit no ``SpanEnd``, so
#: the main event stream is the same with or without them.
TRACE_ONLY = frozenset({"wave", "chunk", "lanes", "checkpoint"})

#: What each histogram's summary list holds, in order.
HISTOGRAM_FIELDS = ("count", "sum", "min", "max")


def _copy_racing(mapping: dict, value_copy: Callable | None = None) -> dict:
    """Copy a dict that another thread may be resizing concurrently.

    CPython raises ``RuntimeError`` when a dict grows during iteration;
    a bounded retry loop is cheaper (and hot-path-free) than locking
    every counter increment.  Falls back to a key-by-key copy if the
    writer outruns every retry.
    """
    for _ in range(64):
        try:
            if value_copy is None:
                return dict(mapping)
            return {k: value_copy(v) for k, v in mapping.items()}
        except RuntimeError:
            continue
    out: dict = {}
    for key in list(mapping):
        value = mapping.get(key)
        if value is not None:
            out[key] = value_copy(value) if value_copy else value
    return out


def _fold(summaries: dict, name: str, count, total, lo, hi) -> None:
    """Merge ``count`` samples summing to ``total``, within ``lo..hi``."""
    agg = summaries.get(name)
    # whole-list writes, so a racing snapshot never copies a torn summary;
    # a new name gets a fresh list, never one shared with a snapshot
    if agg is None:
        summaries[name] = [count, total, lo, hi]
    else:
        agg[:] = (agg[0] + count, agg[1] + total,
                  min(agg[2], lo), max(agg[3], hi))


@dataclass
class ObsSnapshot:
    """Picklable aggregate of one recorder's state (plus buffered events).

    Produced by :meth:`Recorder.snapshot` in a worker process and merged
    into the parent's recorder with :meth:`Recorder.absorb`.
    ``histograms`` maps a name to its ``[count, sum, min, max]`` summary,
    so a snapshot's size does not grow with the samples.  ``profile``
    carries the hot-path profiler's attribution rows so per-(phase, op
    kind, rank) data survives worker aggregation exactly like counters
    do; ``trace`` carries the causal spans collected while
    :attr:`Recorder.tracing` was set (see :mod:`repro.obs.trace`).
    Both stay out of checkpoint files (wall times are not deterministic,
    and checkpoint bytes must not depend on whether profiling or tracing
    was on) — ``trace`` defaults to empty so old checkpoints still
    deserialize.
    """

    counters: dict[str, float] = field(default_factory=dict)
    histograms: dict[str, list[float]] = field(default_factory=dict)
    span_totals: dict[str, list[float]] = field(default_factory=dict)
    events: list[Event] = field(default_factory=list)
    profile: dict[tuple[str, str, int], list[float]] = field(
        default_factory=dict
    )
    trace: list[dict] = field(default_factory=list)


class _NullSpan:
    """Shared no-op span: the disabled path allocates nothing per call."""

    __slots__ = ()
    duration = 0.0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def set(self, **attrs) -> None:
        """Attributes are dropped: nothing is recorded."""


_NULL_SPAN = _NullSpan()


class _Span:
    """One open span: a timed phase, a causal-tree node, or both."""

    __slots__ = ("_rec", "_name", "_phase", "_ctx", "_record", "_prev",
                 "_path", "_t0", "_args", "duration")

    def __init__(self, rec, name, phase, ctx, record, args):
        self._rec, self._name, self._phase = rec, name, phase
        self._ctx, self._record, self._args = ctx, record, args
        self.duration = 0.0  # set on close

    def set(self, **attrs) -> None:
        """Attach attributes known only at close (``outcome``, ``bytes``)."""
        self._args = {**(self._args or {}), **attrs}

    def __enter__(self) -> "_Span":
        rec = self._rec
        if self._phase:
            rec._span_stack.append(self._name)
            self._path = "/".join(rec._span_stack)
        if self._ctx is not None:
            self._prev, rec.trace_ctx = rec.trace_ctx, self._ctx
            self._record["t0"] = time.time()
        self._t0 = rec._clock()
        return self

    def __exit__(self, *exc_info) -> bool:
        rec = self._rec
        self.duration = duration = rec._clock() - self._t0
        if self._phase:
            rec._span_stack.pop()
            agg = rec.span_totals.setdefault(self._path, [0, 0.0])
            agg[0] += 1
            agg[1] += duration
            rec.emit(SpanEnd(path=self._path, duration_s=duration))
        if self._ctx is not None:
            rec.trace_ctx = self._prev
            self._record.update(dur=duration, pid=os.getpid())
            if self._args:
                self._record["args"] = dict(self._args)
            rec.trace_spans.append(self._record)
        return False


class Recorder:
    """Counters, histograms and nested timing spans for one process."""

    def __init__(
        self,
        sinks: Sequence[Sink] = (),
        enabled: bool | None = None,
        clock: Callable[[], float] = time.perf_counter,
        span_prefix: Sequence[str] = (),
        profiling: bool = False,
        tracing: bool = False,
        trace_ctx=None,
    ):
        self.sinks: list[Sink] = list(sinks)
        #: master switch — instrumentation sites test this one attribute.
        self.enabled: bool = bool(self.sinks) if enabled is None else enabled
        #: hot-path profiler switch; meaningful only while ``enabled``.
        #: Profiled objects (FPOps, the scheduler) resolve it once per
        #: instance, so the disabled path stays one attribute test.
        self.profiling: bool = profiling
        #: causal-tracing switch (see :mod:`repro.obs.trace`); like
        #: ``profiling``, meaningful only while ``enabled``, and the
        #: disabled path costs callers one attribute test.
        self.tracing: bool = tracing
        #: collected span dicts (cumulative across campaigns, like
        #: ``profile``); scoped per campaign by ``obs.CampaignScope``.
        self.trace_spans: list[dict] = []
        #: the current ``obs.trace.TraceContext``: the parent of the next
        #: traced span.  A chunk recorder is seeded with its chunk's
        #: parent, like ``span_prefix`` (kept untyped: the recorder never
        #: imports the tracing module).
        self.trace_ctx = trace_ctx
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        #: histogram name -> [count, sum, min, max]
        self.histograms: dict[str, list[float]] = {}
        #: span path -> [count, total_seconds]
        self.span_totals: dict[str, list[float]] = {}
        #: (path, op kind, rank) -> [ops, calls, seconds]
        self.profile: dict[tuple[str, str, int], list[float]] = {}
        #: ``span_prefix`` seeds the nesting so a worker's trial spans
        #: report the same paths as the parent's (never closed here).
        self._span_stack: list[str] = list(span_prefix)
        #: profiler frames nested below the span stack (no events).
        self._prof_stack: list[str] = []
        self._clock = clock

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def counter(self, name: str, value: float = 1) -> None:
        """Add ``value`` to counter ``name`` (no-op while disabled)."""
        if not self.enabled:
            return
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (no-op while disabled)."""
        if not self.enabled:
            return
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Fold ``value`` into histogram ``name`` (no-op while disabled)."""
        if not self.enabled:
            return
        _fold(self.histograms, name, 1, value, value, value)

    # ------------------------------------------------------------------
    # hot-path profiling
    # ------------------------------------------------------------------
    def push_frame(self, name: str) -> None:
        """Enter a profiler frame: extends the attribution path only.

        Unlike :meth:`span`, a frame emits no event and touches no
        aggregate on exit — it exists so :meth:`profile_op` calls made
        inside it attribute to a deeper path (e.g. the scheduler's
        ``advance`` frame under ``campaign/trial/inject``).  Callers
        must pair it with :meth:`pop_frame` in a ``finally``.
        """
        self._prof_stack.append(name)

    def pop_frame(self) -> None:
        """Leave the innermost profiler frame."""
        self._prof_stack.pop()

    def profile_op(self, kind: str, rank: int, ops: float, seconds: float) -> None:
        """Attribute ``ops`` instructions / ``seconds`` wall time.

        The attribution path is the current span path extended by any
        profiler frames; one row accumulates per ``(path, kind, rank)``.
        No-op unless :attr:`profiling` is set (hot callers cache the
        check per instance and never reach here while off).
        """
        if not self.profiling:
            return
        path = "/".join((*self._span_stack, *self._prof_stack))
        agg = self.profile.get((path, kind, rank))
        if agg is None:
            agg = self.profile.setdefault((path, kind, rank), [0.0, 0, 0.0])
        agg[0] += ops
        agg[1] += 1
        agg[2] += seconds

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def span(
        self,
        name: str,
        *key: object,
        cat: str = "phase",
        args: dict | None = None,
        label: str | None = None,
    ) -> "_Span | _NullSpan":
        """Open a span; its category decides what one enter/exit records.

        Outside :data:`TRACE_ONLY`, ``name`` extends the slash path and
        the close accumulates ``span_totals`` and emits ``SpanEnd``.
        While tracing inside a campaign (``trace_ctx`` set), any span
        but a key-less ``phase`` also makes ``trace_ctx.derive(cat,
        *key)`` current for its body and records its span dict on exit,
        named ``label`` (default: ``name``, plus the key joined by
        ``..`` outside ``phase``) with ``args`` and whatever the body
        ``set()`` on the handle.  While disabled — or for a trace-only
        span while not tracing — this returns a shared no-op span, so
        per-trial spans cost one call and no allocation.
        """
        if not self.enabled:
            return _NULL_SPAN
        if "/" in name:
            raise ValueError(f"span name may not contain '/': {name!r}")
        parent = self.trace_ctx
        if not (self.tracing and parent and (key or cat != "phase")):
            if cat in TRACE_ONLY:
                return _NULL_SPAN
            return _Span(self, name, True, None, None, args)
        ctx = parent.derive(cat, *key)
        if label is None:
            label = name
            if key and cat != "phase":
                label += " " + "..".join(map(str, key))
        record = {"name": label, "cat": cat, "trace_id": ctx.trace_id,
                  "span_id": ctx.span_id, "parent_id": parent.span_id}
        return _Span(self, name, cat not in TRACE_ONLY, ctx, record, args)

    # ------------------------------------------------------------------
    # events
    # ------------------------------------------------------------------
    def emit(self, event: Event) -> None:
        """Fan ``event`` out to every sink (no-op while disabled)."""
        if not self.enabled:
            return
        for sink in self.sinks:
            sink.write(event)

    def close(self) -> None:
        """Close all sinks (flushes the JSONL trace, finishes progress)."""
        for sink in self.sinks:
            sink.close()

    # ------------------------------------------------------------------
    # cross-process aggregation
    # ------------------------------------------------------------------
    def snapshot(self, events: Sequence[Event] = ()) -> ObsSnapshot:
        """Copy this recorder's aggregates into a picklable bundle.

        ``events`` lets the caller attach the buffered event stream of a
        :class:`~repro.obs.sinks.MemorySink` so the parent can re-emit
        it in order.  Safe to call from another thread while this
        recorder is being written (see *Thread safety* above).
        """
        return ObsSnapshot(
            counters=_copy_racing(self.counters),
            histograms=_copy_racing(self.histograms, list),
            span_totals=_copy_racing(self.span_totals, list),
            events=list(events),
            profile=_copy_racing(self.profile, list),
            trace=list(self.trace_spans),
        )

    def absorb(self, snapshot: ObsSnapshot, emit_events: bool = True) -> None:
        """Merge a worker's :class:`ObsSnapshot` into this recorder.

        Counters add, histogram summaries merge, span totals and profile
        rows accumulate, trace spans append, and the snapshot's events
        are re-emitted to this recorder's sinks in their original order.
        No-op while disabled.
        """
        if not self.enabled:
            return
        for name, value in snapshot.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        for name, (count, total, lo, hi) in snapshot.histograms.items():
            _fold(self.histograms, name, count, total, lo, hi)
        for path, (count, total) in snapshot.span_totals.items():
            agg = self.span_totals.setdefault(path, [0, 0.0])
            agg[0] += count
            agg[1] += total
        for key, (ops, calls, seconds) in snapshot.profile.items():
            agg = self.profile.setdefault(key, [0.0, 0, 0.0])
            agg[0] += ops
            agg[1] += calls
            agg[2] += seconds
        self.trace_spans.extend(snapshot.trace)
        if emit_events:
            for event in snapshot.events:
                self.emit(event)


#: The process-wide recorder; disabled until something installs sinks.
_RECORDER = Recorder()


def get_recorder() -> Recorder:
    """The currently installed process-wide recorder."""
    return _RECORDER


def set_recorder(recorder: Recorder) -> Recorder:
    """Install ``recorder`` globally; returns the previous one."""
    global _RECORDER
    previous, _RECORDER = _RECORDER, recorder
    return previous


def reset() -> Recorder:
    """Reinstall the default disabled recorder; returns the previous one.

    Instrumented objects resolve the recorder once per instance (e.g.
    :class:`repro.taint.ops.FPOps` per execution), so a reset takes
    effect for everything constructed afterwards.
    """
    return set_recorder(Recorder())


@contextlib.contextmanager
def recording(recorder: Recorder) -> Iterator[Recorder]:
    """Temporarily install ``recorder`` (tests, scoped instrumentation)."""
    previous = set_recorder(recorder)
    try:
        yield recorder
    finally:
        set_recorder(previous)

"""Deterministic hot-path profiler: where does campaign time actually go?

The ROADMAP's lane-vectorization work needs a measured baseline — what
fraction of trial time is spent inside the traced binary operations of
:mod:`repro.taint.ops` versus scheduler bookkeeping and outcome
classification — and the existing span totals are too coarse to answer
that.  This module turns the :class:`~repro.obs.recorder.Recorder`'s
profile table (populated when ``Recorder.profiling`` is set) into:

* per-campaign **deltas** (:class:`CampaignScope` — recorder state is
  cumulative across the campaigns of one experiment run), turned into a
  :class:`~repro.obs.events.CampaignProfile` event so profiles land in
  the JSONL trace and survive worker aggregation like everything else
  (the same scope yields the campaign's causal
  :class:`~repro.obs.events.CampaignTrace`, and, over a recorder's
  absolute state, the live server's mid-run view of both);
* a **span tree** (:func:`build_tree`) feeding the flamegraph-style SVG
  in the dashboard (:func:`render_profile_svg`);
* the ``obs-profile PATH`` CLI report (:func:`render_profile_report`)
  with per-(phase, op kind, rank) attribution, wall-time coverage, and
  the headline traced-op share.

Attribution paths are span paths (``campaign/trial/inject``) optionally
extended by profiler *frames* — e.g. the scheduler pushes an ``advance``
frame so FP ops attribute to ``campaign/trial/inject/advance``.  The
scheduler's own advance totals are recorded under the reserved op kind
:data:`FRAME_TOTAL_KIND`; they represent a frame's *total* time (FP ops
included), so share computations must not add them to the per-kind rows.

Determinism: profiling never changes what is computed — it only reads
clocks and sizes — so campaign outputs, provenance bytes and checkpoint
files are byte-identical with profiling on or off.  The instruction
*counts* are fully deterministic; only the attributed wall seconds vary
run to run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.obs.events import CampaignProfile, CampaignTrace, Event
from repro.obs.recorder import ObsSnapshot, Recorder
from repro.obs.trace import TraceContext
from repro.utils.tables import format_table
from repro.viz.svg import SvgCanvas, flamegraph

__all__ = [
    "FRAME_TOTAL_KIND",
    "OP_KINDS",
    "CampaignScope",
    "SpanNode",
    "build_tree",
    "coverage",
    "flamegraph_frames",
    "merge_profile_events",
    "profile_rows",
    "render_profile_report",
    "render_profile_svg",
    "traced_op_share",
]

#: Reserved op kind for a profiler frame's total wall time (e.g. the
#: scheduler's ``advance``).  A frame total *contains* the FP-op rows at
#: the same path, so it is displayed as the node's time, never summed
#: with the per-kind rows.
FRAME_TOTAL_KIND = "step"

#: The traced binary-op kinds of :class:`repro.taint.tracer_api.OpKind`.
OP_KINDS = ("add", "mul", "div", "other")


# ----------------------------------------------------------------------
# deltas: one campaign's slice of a cumulative recorder
# ----------------------------------------------------------------------
def _delta(current: dict, baseline: dict) -> dict:
    """Per-key element-wise difference of two ``key -> [numbers]`` maps."""
    out: dict = {}
    for key, values in current.items():
        base = baseline.get(key)
        if base is None:
            diff = list(values)
        else:
            diff = [v - b for v, b in zip(values, base)]
        if any(diff):
            out[key] = diff
    return out


def profile_rows(
    profile: dict[tuple[str, str, int], Sequence[float]],
) -> list[dict]:
    """Flatten a recorder profile table into sorted JSON-ready rows."""
    rows = []
    for (path, kind, rank), (ops, calls, seconds) in profile.items():
        rows.append({
            "phase": path, "kind": kind, "rank": rank,
            "ops": ops, "calls": int(calls), "seconds": seconds,
        })
    rows.sort(key=lambda r: (r["phase"], r["kind"], r["rank"]))
    return rows


class CampaignScope:
    """One campaign's slice of a recorder's cumulative state.

    The recorder accumulates span totals, profile rows and causal spans
    across the campaigns of a run; :meth:`events` turns what was added
    since the scope opened into a :class:`CampaignProfile` (while
    profiling) and a :class:`~repro.obs.events.CampaignTrace` (while
    tracing), both from one :meth:`Recorder.snapshot`.  ``live=True``
    slices the recorder's absolute state instead (the live server's
    mid-run view).  Entered with a ``trace_id``, the scope roots the
    causal tree: the context it installs has an empty span id, so the
    campaign span derives ``span_id_from(trace_id, "campaign")`` and
    records no parent.
    """

    def __init__(
        self, recorder: Recorder, app: str = "live",
        trace_id: str | None = None, live: bool = False,
    ):
        self._rec, self.app, self.trace_id = recorder, app, trace_id
        base = ObsSnapshot() if live else recorder.snapshot()
        self._spans0, self._profile0 = base.span_totals, base.profile
        self._trace0 = len(base.trace)

    def __enter__(self) -> "CampaignScope":
        self._prev = self._rec.trace_ctx
        if self.trace_id is not None:
            self._rec.trace_ctx = TraceContext(self.trace_id, "")
        return self

    def __exit__(self, *exc_info) -> bool:
        self._rec.trace_ctx = self._prev
        return False

    def events(self) -> list[Event]:
        """This campaign's profile and trace events (either may be absent)."""
        rec = self._rec
        if not (rec.enabled and (rec.profiling or rec.tracing)):
            return []
        snap = rec.snapshot()
        out: list[Event] = []
        if rec.profiling:
            spans = _delta(snap.span_totals, self._spans0)
            out.append(CampaignProfile(
                app=self.app,
                wall_s=float(spans.get("campaign", [0, 0.0])[1]),
                spans={k: [int(c), float(s)] for k, (c, s) in spans.items()},
                ops=profile_rows(_delta(snap.profile, self._profile0)),
            ))
        spans = snap.trace[self._trace0:]
        if rec.tracing and spans:
            out.append(CampaignTrace(
                app=self.app, trace_id=self.trace_id or spans[0]["trace_id"],
                spans=spans,
            ))
        return out


def merge_profile_events(events: Iterable[CampaignProfile]) -> CampaignProfile:
    """Sum several campaigns' profiles into one (whole-run flamegraph)."""
    events = list(events)
    if not events:
        raise ValueError("no CampaignProfile events to merge")
    if len(events) == 1:
        return events[0]
    spans: dict[str, list[float]] = {}
    ops: dict[tuple[str, str, int], list[float]] = {}
    apps: list[str] = []
    for e in events:
        if e.app not in apps:
            apps.append(e.app)
        for path, (count, secs) in e.spans.items():
            agg = spans.setdefault(path, [0, 0.0])
            agg[0] += count
            agg[1] += secs
        for r in e.ops:
            agg = ops.setdefault((r["phase"], r["kind"], r["rank"]), [0.0, 0, 0.0])
            agg[0] += r["ops"]
            agg[1] += r["calls"]
            agg[2] += r["seconds"]
    return CampaignProfile(
        app=", ".join(apps),
        wall_s=sum(e.wall_s for e in events),
        spans=spans,
        ops=profile_rows(ops),
    )


# ----------------------------------------------------------------------
# span tree and flamegraph layout
# ----------------------------------------------------------------------
@dataclass
class SpanNode:
    """One node of the profile tree: a span path or profiler frame."""

    name: str
    path: str
    count: int = 0
    seconds: float = 0.0
    children: dict[str, "SpanNode"] = field(default_factory=dict)
    #: op kind -> [ops, calls, seconds], summed over ranks.
    ops: dict[str, list[float]] = field(default_factory=dict)

    @property
    def ops_seconds(self) -> float:
        """Attributed per-kind seconds (frame totals excluded)."""
        return sum(
            v[2] for k, v in self.ops.items() if k != FRAME_TOTAL_KIND
        )

    @property
    def total_seconds(self) -> float:
        """Best estimate of this node's wall time.

        A span node measured its own time; a frame node's total lives in
        its :data:`FRAME_TOTAL_KIND` row; a synthesized intermediate
        falls back to whatever its children attribute.
        """
        if self.seconds > 0:
            return self.seconds
        frame = self.ops.get(FRAME_TOTAL_KIND)
        if frame is not None:
            return frame[2]
        child = sum(c.total_seconds for c in self.children.values())
        return child + self.ops_seconds


def build_tree(event: CampaignProfile) -> SpanNode:
    """The span/frame tree of one profile event (virtual root node)."""
    root = SpanNode(name="", path="")

    def node_at(path: str) -> SpanNode:
        if not path:
            return root
        node = root
        for part in path.split("/"):
            child = node.children.get(part)
            if child is None:
                child_path = f"{node.path}/{part}" if node.path else part
                child = SpanNode(name=part, path=child_path)
                node.children[part] = child
            node = child
        return node

    for path, (count, seconds) in event.spans.items():
        node = node_at(path)
        node.count = int(count)
        node.seconds += float(seconds)
    for row in event.ops:
        node = node_at(row["phase"])
        agg = node.ops.setdefault(row["kind"], [0.0, 0, 0.0])
        agg[0] += row["ops"]
        agg[1] += row["calls"]
        agg[2] += row["seconds"]
    return root


def flamegraph_frames(
    root: SpanNode,
) -> list[tuple[int, float, float, str]]:
    """Flamegraph layout ``(depth, x0, width, label)`` with x in [0, 1].

    Children are scaled to fit inside their parent even when their
    summed time exceeds the parent's wall time (parallel workers report
    more trial-seconds than the campaign's wall clock).
    """
    frames: list[tuple[int, float, float, str]] = []

    def walk(node: SpanNode, depth: int, x0: float, width: float) -> None:
        if width <= 0:
            return
        frames.append((depth, x0, width, f"{node.name} {node.total_seconds:.2f}s"))
        parts: list[tuple[float, SpanNode | str]] = [
            (child.total_seconds, child) for child in node.children.values()
        ]
        parts.extend(
            (values[2], kind)
            for kind, values in sorted(node.ops.items())
            if kind != FRAME_TOTAL_KIND
        )
        total = sum(secs for secs, _ in parts)
        if total <= 0:
            return
        scale = width / max(node.total_seconds, total)
        x = x0
        for secs, part in parts:
            w = secs * scale
            if isinstance(part, SpanNode):
                walk(part, depth + 1, x, w)
            elif w > 0:
                frames.append((depth + 1, x, w, f"{part} {secs:.2f}s"))
            x += w

    top = list(root.children.values())
    top_total = sum(n.total_seconds for n in top)
    if top_total <= 0:
        return frames
    x = 0.0
    for node in top:
        w = node.total_seconds / top_total
        walk(node, 0, x, w)
        x += w
    return frames


def render_profile_svg(event: CampaignProfile, width: int = 920) -> SvgCanvas:
    """The flamegraph-style span-tree SVG for one profile event."""
    frames = flamegraph_frames(build_tree(event))
    return flamegraph(
        frames,
        title=f"Campaign span tree — {event.app} ({event.wall_s:.2f}s)",
        width=width,
    )


# ----------------------------------------------------------------------
# headline numbers
# ----------------------------------------------------------------------
def coverage(event: CampaignProfile) -> float:
    """Fraction of campaign wall time attributed to its direct phases.

    Sums the spans nested directly under ``campaign`` (``profile``,
    ``trial``, …) against the campaign span itself.  Can exceed 1.0 for
    parallel runs, where workers report more phase-seconds than wall
    time elapses in the parent.
    """
    campaign = event.spans.get("campaign")
    if not campaign or campaign[1] <= 0:
        return 0.0
    attributed = sum(
        seconds for path, (_, seconds) in event.spans.items()
        if path.startswith("campaign/") and "/" not in path[len("campaign/"):]
    )
    return attributed / campaign[1]


def traced_op_share(event: CampaignProfile) -> float:
    """Share of injection (trial-execution) time inside traced FP ops.

    *The* lane-vectorization baseline: how much of
    ``campaign/trial/inject`` is spent in the binary operations that a
    vectorized shadow executor would accelerate.
    """
    inject = event.spans.get("campaign/trial/inject")
    if not inject or inject[1] <= 0:
        return 0.0
    traced = sum(
        r["seconds"] for r in event.ops
        if r["phase"].startswith("campaign/trial/inject")
        and r["kind"] in OP_KINDS
    )
    return traced / inject[1]


# ----------------------------------------------------------------------
# CLI report
# ----------------------------------------------------------------------
def render_profile_report(event: CampaignProfile) -> str:
    """The ``obs-profile`` text report for one campaign's profile."""
    from repro.obs.report import phase_table  # report imports nothing of ours

    sections = [
        phase_table(
            event.spans,
            title=f"Phases — {event.app} ({event.wall_s:.2f}s campaign)",
        )
    ]
    if event.ops:
        rows = []
        for r in event.ops:
            mops = (
                r["ops"] / r["seconds"] / 1e6 if r["seconds"] > 0
                else float("nan")
            )
            rows.append((
                r["phase"], r["kind"], r["rank"], int(r["ops"]), r["calls"],
                round(r["seconds"], 3), round(mops, 2),
            ))
        sections.append(format_table(
            ["phase", "op", "rank", "ops", "calls", "seconds", "Mops/s"],
            rows, title="Hot-path attribution",
        ))
    cov = coverage(event)
    share = traced_op_share(event)
    sections.append(
        f"wall-time coverage: {100 * cov:.1f}% of the campaign span is "
        f"attributed to its phases\n"
        f"traced-op share:    {100 * share:.1f}% of injection time is in "
        f"traced binary ops (lane-vectorization ceiling)"
    )
    return "\n\n".join(sections)


def profiles_of(events: Iterable[Event]) -> list[CampaignProfile]:
    """The :class:`CampaignProfile` events of a replayed trace."""
    return [e for e in events if isinstance(e, CampaignProfile)]

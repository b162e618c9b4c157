"""Typed structured events emitted by the instrumented layers.

Every event is a frozen dataclass with a stable ``type`` tag; sinks
serialize events as flat dicts (``{"type": ..., **fields}``), and
:func:`load_trace` reconstructs the typed objects from a JSONL trace so
analyses can replay a run.  Events carry only plain JSON-serializable
payloads (strings, numbers, bools, and lists/dicts thereof) by
construction.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Any, ClassVar

__all__ = [
    "Event",
    "CampaignStarted",
    "CampaignFinished",
    "CampaignResumed",
    "CampaignConverged",
    "CampaignPlanRevised",
    "CampaignProfile",
    "CampaignTrace",
    "CheckpointWritten",
    "TrialFinished",
    "FaultInjected",
    "RankKilled",
    "MessageCorrupted",
    "TrialProvenance",
    "CacheHit",
    "CacheMiss",
    "CacheWrite",
    "CacheCorrupt",
    "SchedulerDeadlock",
    "SpanEnd",
    "WorkerJoined",
    "WorkerLost",
    "ChunkRequeued",
    "EVENT_TYPES",
    "event_from_dict",
]


@dataclass(frozen=True)
class Event:
    """Base class: subclasses set ``type`` and declare payload fields."""

    type: ClassVar[str] = "event"

    def to_dict(self) -> dict[str, Any]:
        """Flat JSON-ready representation (``type`` tag + payload)."""
        return {"type": self.type, **asdict(self)}


@dataclass(frozen=True)
class CampaignStarted(Event):
    """A fault-injection deployment began executing trials."""

    type: ClassVar[str] = "campaign_started"

    app: str
    nprocs: int
    trials: int
    n_errors: int
    seed: int


@dataclass(frozen=True)
class CampaignFinished(Event):
    """A deployment completed; rates mirror :class:`CampaignResult`."""

    type: ClassVar[str] = "campaign_finished"

    app: str
    trials: int
    success_rate: float
    sdc_rate: float
    failure_rate: float
    profile_time: float
    injection_time: float


@dataclass(frozen=True)
class CampaignResumed(Event):
    """A deployment picked up from a crash-safe checkpoint.

    Emitted by the engine (:mod:`repro.engine`) right after
    ``CampaignStarted`` when completed-chunk results were recovered from
    a previous, interrupted process; the recovered trials' events are
    replayed to the sinks immediately after, so traces and progress see
    every trial exactly once.
    """

    type: ClassVar[str] = "campaign_resumed"

    app: str
    trials_done: int      # trials recovered from the checkpoint
    trials_total: int
    chunks_done: int
    chunks_total: int
    path: str             # checkpoint directory


@dataclass(frozen=True)
class CampaignConverged(Event):
    """An adaptive deployment hit (or missed) its precision target.

    Emitted once per adaptive campaign (``ci_halfwidth`` set) by
    :func:`repro.engine.core.run_trials` after the last wave:
    ``converged`` says whether every tracked outcome's Wilson half-width
    reached ``target`` before the ``trials_cap`` ran out, and
    ``halfwidths`` records the achieved half-width per outcome value.
    """

    type: ClassVar[str] = "campaign_converged"

    app: str
    nprocs: int
    n_errors: int
    target: float               # requested CI half-width
    trials_used: int
    trials_cap: int
    waves: int
    converged: bool
    halfwidths: dict[str, float]   # Outcome.value -> achieved half-width


@dataclass(frozen=True)
class CampaignPlanRevised(Event):
    """An adaptive campaign revised its projected total trial count.

    Emitted once per adaptive wave by
    :func:`repro.engine.core.run_trials` with the next
    convergence-check boundary — the driver's current best estimate of
    the campaign's final size.  Progress consumers
    (:class:`~repro.obs.sinks.ProgressSink`, the live ``/metrics``
    endpoint) use it to tighten their denominator and wall-clock ETA as
    waves converge.
    """

    type: ClassVar[str] = "campaign_plan_revised"

    app: str
    planned: int          # projected total trials at this revision
    done: int             # trials folded when the projection was made


@dataclass(frozen=True)
class CampaignProfile(Event):
    """Hot-path profile of one campaign (see :mod:`repro.obs.profiler`).

    Emitted by :func:`repro.fi.campaign.run_campaign` when profiling is
    enabled, after the campaign span closes.  ``spans`` holds the
    campaign's span-path deltas (``path -> [count, seconds]``); ``ops``
    holds one row per (phase path, op kind, rank) with the attributed
    FP-instruction count, call count and wall seconds.  Rendered by the
    ``obs-profile`` CLI and the dashboard's flamegraph section.
    """

    type: ClassVar[str] = "campaign_profile"

    app: str
    wall_s: float                   # campaign span wall time
    spans: dict[str, list[float]]   # span path -> [count, seconds]
    ops: list[dict]                 # {"phase","kind","rank","ops","calls","seconds"}


@dataclass(frozen=True)
class CampaignTrace(Event):
    """Causal spans of one campaign (see :mod:`repro.obs.trace`).

    Emitted by :func:`repro.fi.campaign.run_campaign` when tracing is
    enabled, after the campaign span closes.  ``spans`` holds one dict
    per recorded span — ``name``, ``cat`` (campaign / phase / wave /
    chunk / lanes / trial / checkpoint), deterministic W3C-style
    ``trace_id``/``span_id``/``parent_id``, wall-clock ``t0``/``dur``
    seconds and the recording process's ``pid``.
    :func:`repro.obs.configure` routes this event to the
    ``*.timeline.jsonl`` sidecar (never the main trace), so the main
    event stream is identical with tracing on or off.  Rendered by the
    ``obs-timeline`` CLI and the dashboards' worker-timeline section
    via :mod:`repro.obs.timeline`.
    """

    type: ClassVar[str] = "campaign_trace"

    app: str
    trace_id: str
    spans: list[dict]


@dataclass(frozen=True)
class CheckpointWritten(Event):
    """One completed chunk's results were durably persisted."""

    type: ClassVar[str] = "checkpoint_written"

    path: str             # chunk file
    chunk_start: int      # [start, stop) trial range of the chunk
    chunk_stop: int
    trials_done: int      # cumulative trials checkpointed so far
    size_bytes: int


@dataclass(frozen=True)
class TrialFinished(Event):
    """One fault-injection test finished (any outcome)."""

    type: ClassVar[str] = "trial_finished"

    trial: int
    outcome: str          # Outcome.value: "success" | "sdc" | "failure"
    n_contaminated: int
    activated: bool
    duration_s: float


@dataclass(frozen=True)
class FaultInjected(Event):
    """A planned bit flip actually fired during a trial."""

    type: ClassVar[str] = "fault_injected"

    trial: int
    rank: int
    region: str           # Region.value
    index: int            # global candidate-stream index
    bit: int


@dataclass(frozen=True)
class RankKilled(Event):
    """An armed fail-stop fired: ``rank`` was killed at scheduler ``step``.

    Emitted by the rank-kill scenario family
    (:mod:`repro.fi.scenarios.rankkill`); ``step`` is the deterministic
    scheduler step at which the kill actually happened, which can trail
    the sampled step when the victim was parked on communication.
    """

    type: ClassVar[str] = "rank_killed"

    trial: int
    rank: int
    step: int


@dataclass(frozen=True)
class MessageCorrupted(Event):
    """An in-transit payload corruption fired during a trial.

    Emitted by the message-corruption scenario family
    (:mod:`repro.fi.scenarios.msgcorrupt`).  ``kind`` is ``"p2p"`` or
    the collective kind (``"allreduce"``, ``"bcast"``, ...); ``src`` is
    the sending rank (-1 for collectives, whose results come from the
    scheduler); ``dest`` the receiving rank; ``element``/``bit`` locate
    the flipped bit inside the delivered payload.
    """

    type: ClassVar[str] = "message_corrupted"

    trial: int
    kind: str
    src: int
    dest: int
    element: int
    bit: int


@dataclass(frozen=True)
class TrialProvenance(Event):
    """Full fault provenance of one trial (site → spread → outcome).

    The bulky sibling of :class:`TrialFinished`: links the sampled fault
    site(s) to what actually happened.  ``planned`` lists every flip of
    the injection plan (``rank``/``region``/``index``/``operand``/
    ``bit``); ``fired`` lists the flips that actually landed, enriched
    with the dynamic op kind and the operand value before/after
    corruption; ``timeline`` records ``[step, rank]`` pairs — the
    scheduler step at which each rank was first contaminated, in
    contamination order.  All payloads are deterministic functions of
    ``(deployment, trial)``, so provenance files are bit-identical for
    any worker count (see :mod:`repro.obs.provenance`).
    """

    type: ClassVar[str] = "trial_provenance"

    trial: int
    outcome: str          # Outcome.value: "success" | "sdc" | "failure"
    n_contaminated: int
    activated: bool
    detail: str
    planned: list[dict]   # one entry per planned flip
    fired: list[dict]     # one entry per applied (instruction, operand) group
    timeline: list[list[int]]   # [scheduler step, rank], first-touch order


@dataclass(frozen=True)
class CacheHit(Event):
    """A campaign was served from the disk cache."""

    type: ClassVar[str] = "cache_hit"

    path: str
    size_bytes: int


@dataclass(frozen=True)
class CacheMiss(Event):
    """No usable cache entry; the campaign will be recomputed."""

    type: ClassVar[str] = "cache_miss"

    path: str


@dataclass(frozen=True)
class CacheWrite(Event):
    """A freshly computed campaign result was persisted."""

    type: ClassVar[str] = "cache_write"

    path: str
    size_bytes: int


@dataclass(frozen=True)
class CacheCorrupt(Event):
    """A cache file failed to parse and was deleted for recompute."""

    type: ClassVar[str] = "cache_corrupt"

    path: str
    reason: str


@dataclass(frozen=True)
class SchedulerDeadlock(Event):
    """Every unfinished rank is blocked on unmatchable communication."""

    type: ClassVar[str] = "scheduler_deadlock"

    blocked_ranks: list[int]
    pending_ops: list[str]    # one human-readable entry per blocked rank
    steps: int


@dataclass(frozen=True)
class SpanEnd(Event):
    """A timing span closed; ``path`` is the slash-joined nesting."""

    type: ClassVar[str] = "span_end"

    path: str
    duration_s: float


@dataclass(frozen=True)
class WorkerJoined(Event):
    """A pool worker connected and initialized.

    Emitted by the pool's controller (:mod:`repro.engine.distributed`)
    once a worker finishes its handshake.  ``warm`` says whether the worker already held this
    campaign's initialized state from a previous campaign (warm pool
    hit) or had to unpickle it cold; ``init_s`` is the worker-reported
    initialization time.  Worker-lifecycle events describe *where* work
    ran, never *what* it computed — they carry pids and wall-clock
    durations and are deliberately outside the byte-identity contract
    (see docs/distributed.md).
    """

    type: ClassVar[str] = "worker_joined"

    worker: int           # controller-assigned id, stable for the session
    pid: int              # worker process id (0 when unreported)
    addr: str             # the worker's socket address, host:port
    warm: bool
    init_s: float


@dataclass(frozen=True)
class WorkerLost(Event):
    """A pool worker left the pool.

    ``reason`` is ``"released"`` for a graceful end-of-campaign release,
    otherwise the failure class: ``"disconnect"`` (EOF / connection
    reset — e.g. a SIGKILLed worker), ``"timeout"`` (missed its chunk
    deadline), or ``"protocol"`` (sent a garbage frame).
    """

    type: ClassVar[str] = "worker_lost"

    worker: int
    reason: str
    chunks_done: int      # chunks this worker completed before leaving


@dataclass(frozen=True)
class ChunkRequeued(Event):
    """A dispatched chunk was returned to the work queue.

    Emitted when the worker holding the chunk was lost before reporting
    it.  Dispatch is at-least-once; the aggregator's duplicate guard
    makes folding exactly-once, so a requeue can never double-count.
    """

    type: ClassVar[str] = "chunk_requeued"

    chunk_start: int
    chunk_stop: int
    worker: int           # the worker that lost it
    reason: str           # same classes as WorkerLost.reason


#: type tag -> event class, for trace replay.
EVENT_TYPES: dict[str, type[Event]] = {
    cls.type: cls
    for cls in (
        CampaignStarted, CampaignFinished, CampaignResumed, CampaignConverged,
        CampaignPlanRevised, CampaignProfile, CampaignTrace,
        CheckpointWritten, TrialFinished, FaultInjected, RankKilled,
        MessageCorrupted, TrialProvenance,
        CacheHit, CacheMiss, CacheWrite, CacheCorrupt, SchedulerDeadlock,
        SpanEnd, WorkerJoined, WorkerLost, ChunkRequeued,
    )
}


def event_from_dict(blob: dict[str, Any]) -> Event | None:
    """Rebuild a typed event from its serialized dict.

    Returns None for unknown types (forward compatibility: readers skip
    events written by newer code).  Extra keys — e.g. the ``ts``
    timestamp sinks add — are ignored.
    """
    cls = EVENT_TYPES.get(blob.get("type", ""))
    if cls is None:
        return None
    names = {f.name for f in fields(cls)}
    return cls(**{k: v for k, v in blob.items() if k in names})

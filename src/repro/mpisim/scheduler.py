"""The SPMD scheduler: advances rank generators and matches communication.

Determinism: ranks are advanced in a fixed round-robin order and message
queues are FIFO per destination, so a given (program, size, injection
plan) always executes identically — a requirement for reproducible
fault-injection campaigns.

Failure semantics: if every unfinished rank is blocked on communication
that can never complete (missing sends, partially-entered collectives,
or a collective some ranks exited the program without joining) the
scheduler raises :class:`~repro.errors.DeadlockError`; mismatched
collective kinds/roots/ops raise
:class:`~repro.errors.CommunicatorError`.  The fault-injection campaign
maps both onto the paper's "hang/crash" FAILURE outcome.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Generator

import numpy as np

from repro.errors import (
    CollectiveAbortError,
    CommunicatorError,
    DeadlockError,
    InjectedDeadlockError,
    SimulatedHangError,
)
from repro.mpisim.collectives import (
    payload_diverged,
    payload_lane_divergence,
    reduce_payloads,
)
from repro.mpisim.communicator import Communicator
from repro.mpisim.faults import FailStop, TransitHook
from repro.mpisim.requests import (
    CollectiveKind,
    CollectiveRequest,
    RecvRequest,
    Request,
    SendRecvRequest,
    SendRequest,
)
from repro.obs import SchedulerDeadlock, get_recorder
from repro.taint.tracer_api import NullSink, TraceSink

__all__ = ["Scheduler"]

#: program_factory(rank, comm) -> generator yielding Requests, returning output
ProgramFactory = Callable[[int, Communicator], Generator[Request, Any, Any]]


@dataclass
class _Envelope:
    source: int
    tag: int
    payload: Any


@dataclass
class _RankState:
    generator: Generator[Request, Any, Any]
    done: bool = False
    failed: bool = False        # fail-stopped through the FailStop seam
    result: Any = None
    blocked_on: Request | None = None
    mailbox: deque = field(default_factory=deque)


def _check_posts_agree(posts: dict[int, CollectiveRequest]) -> None:
    """Raise on posts that differ where their collective needs agreement.

    Off the hot path: called only once a post differs from rank 0's.
    """
    kinds = {p.kind for p in posts.values()}
    if len(kinds) != 1:
        raise CommunicatorError(f"mismatched collectives posted: {sorted(k.value for k in kinds)}")
    kind = kinds.pop()
    roots = {p.root for p in posts.values()}
    if kind in (CollectiveKind.BCAST, CollectiveKind.REDUCE,
                CollectiveKind.GATHER, CollectiveKind.SCATTER) and len(roots) != 1:
        raise CommunicatorError(f"{kind.value} posted with differing roots {sorted(roots)}")
    ops = {p.op for p in posts.values()}
    if kind in (CollectiveKind.REDUCE, CollectiveKind.ALLREDUCE) and len(ops) != 1:
        raise CommunicatorError(f"{kind.value} posted with differing ops {sorted(ops)}")


class Scheduler:
    """Runs an SPMD program on a simulated communicator of ``size`` ranks."""

    def __init__(
        self,
        size: int,
        program_factory: ProgramFactory,
        sink: TraceSink | None = None,
        max_steps: int | None = None,
        record_traffic: bool = False,
        fail_stop: FailStop | None = None,
        transit: TransitHook | None = None,
    ):
        if size < 1:
            raise CommunicatorError(f"communicator size must be >= 1, got {size}")
        self.size = size
        self._sink: TraceSink = sink if sink is not None else NullSink()
        self._max_steps = max_steps
        self._steps = 0
        # System-level fault seams (repro.mpisim.faults): a rank
        # fail-stop seam and/or an in-transit payload hook.  Both default
        # to None so the bit-flip pipeline pays one attribute test per seam.
        self._fail_stop = fail_stop
        self._transit = transit
        #: (rank, step) of the fail-stop, once one happened
        self._killed: tuple[int, int] | None = None
        # Provenance: let the sink date contamination marks with the
        # deterministic step counter (fault-spread timelines).  getattr
        # keeps minimal sinks (tests, NullSink substitutes) working.
        bind = getattr(self._sink, "bind_step_provider", None)
        if bind is not None:
            bind(lambda: self._steps)
        # Lane batching: a batched payload is golden-clean overall but may
        # carry diverged shadow rows; sinks exposing per-lane marks get
        # them at the same delivery points as scalar contamination marks.
        self._lane_mark = getattr(self._sink, "mark_lanes_contaminated", None)
        #: (src, dst) -> point-to-point message count; filled when
        #: record_traffic is set (communication-topology analysis).
        self.traffic: dict[tuple[int, int], int] | None = (
            {} if record_traffic else None
        )
        #: number of completed collectives per kind name.
        self.collective_counts: dict[str, int] | None = (
            {} if record_traffic else None
        )
        self._states = [
            _RankState(generator=program_factory(rank, Communicator(rank, size)))
            for rank in range(size)
        ]
        self._ready: deque[tuple[int, Any]] = deque((r, None) for r in range(size))
        self._collective_posts: dict[int, CollectiveRequest] = {}
        # observability: resolved once per execution; disabled recorder
        # keeps every instrumentation site to a single attribute test.
        self._obs = get_recorder()
        # hot-path profiler (repro.obs.profiler): attribute
        # collective-matching time under the current span path; None
        # keeps the collective check to one attribute test.
        self._prof = (
            self._obs if self._obs.enabled and self._obs.profiling else None
        )

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    @property
    def steps(self) -> int:
        """Generator resumptions executed so far (one per compute burst
        between communication events) — a proxy for the runtime events a
        binary-instrumentation injector would have to process."""
        return self._steps

    def run(self) -> list[Any]:
        """Execute all ranks to completion; return their return values.

        Floating-point warnings are suppressed for the whole execution:
        injected bit flips legitimately produce overflow/NaN/inf on the
        faulty path, and applications handle them through their own
        guards and the outcome classification, not through warnings.
        """
        with np.errstate(all="ignore"):
            return self._run()

    def _run(self) -> list[Any]:
        fail = self._fail_stop
        while True:
            while self._ready:
                rank, resume = self._ready.popleft()
                self._advance(rank, resume)
            if fail is not None and self._strike_parked(fail):
                # a victim crossed its kill step while parked on
                # communication (its own bursts are checked per step in
                # _advance) — it is fail-stopped; re-evaluate.
                continue
            if self._obs.enabled:
                # gauge: ranks parked on communication each time the
                # ready queue drains (once per collective/quiescence).
                self._obs.observe(
                    "scheduler.blocked_ranks",
                    sum(1 for s in self._states if not s.done),
                )
            if self._try_complete_collective():
                continue
            if all(s.done or s.failed for s in self._states):
                if self._obs.enabled:
                    self._obs.counter("scheduler.steps", self._steps)
                    self._obs.counter("scheduler.runs")
                return [s.result for s in self._states]
            self._raise_deadlock()

    # ------------------------------------------------------------------
    # rank stepping
    # ------------------------------------------------------------------
    def _advance(self, rank: int, resume: Any) -> None:
        """Run ``rank`` until it blocks or finishes."""
        state = self._states[rank]
        state.blocked_on = None
        fail = self._fail_stop
        due = None if fail is None else fail.due(rank)
        while True:
            if due is not None and self._steps >= due:
                if fail.strike(rank, self._steps):
                    # the victim dies mid-burst, before executing this step
                    self._kill_rank(rank)
                    return
                due = fail.due(rank)
                continue
            self._steps += 1
            if self._max_steps is not None and self._steps > self._max_steps:
                raise SimulatedHangError(
                    f"scheduler exceeded {self._max_steps} steps — runaway execution"
                )
            try:
                request = state.generator.send(resume)
            except StopIteration as stop:
                state.done = True
                state.result = stop.value
                return
            resume = None
            if isinstance(request, SendRequest):
                self._deliver_send(request)
                continue
            if isinstance(request, RecvRequest):
                matched = self._match_recv(rank, request)
                if matched is None:
                    state.blocked_on = request
                    return
                resume = matched
                continue
            if isinstance(request, SendRecvRequest):
                self._deliver_send(
                    SendRequest(
                        rank=request.rank, dest=request.dest,
                        tag=request.send_tag, payload=request.payload,
                    )
                )
                recv = request.recv_part()
                matched = self._match_recv(rank, recv)
                if matched is None:
                    state.blocked_on = recv
                    return
                resume = matched
                continue
            if isinstance(request, CollectiveRequest):
                self._collective_posts[rank] = request
                state.blocked_on = request
                return
            raise CommunicatorError(
                f"rank {rank} yielded a non-request object: {request!r}"
            )

    def _deliver_send(self, request: SendRequest) -> None:
        if self.traffic is not None:
            key = (request.rank, request.dest)
            self.traffic[key] = self.traffic.get(key, 0) + 1
        dest = self._states[request.dest]
        if dest.failed:
            # MPI's default error handler: communication with a dead
            # rank aborts the job rather than wedging the sender.
            raise CollectiveAbortError(
                f"rank {request.rank} sent to fail-stopped rank {request.dest}"
            )
        if dest.done:
            raise CommunicatorError(
                f"rank {request.rank} sent to rank {request.dest}, "
                "which already finished"
            )
        payload = request.payload
        if self._transit is not None:
            payload = self._transit.on_p2p(request.rank, request.dest, payload)
        dest.mailbox.append(
            _Envelope(source=request.rank, tag=request.tag, payload=payload)
        )
        # If the destination is parked on a matching receive, hand over now.
        blocked = dest.blocked_on
        if isinstance(blocked, RecvRequest):
            matched = self._match_recv(request.dest, blocked)
            if matched is not None:
                dest.blocked_on = None
                self._ready.append((request.dest, matched))

    def _match_recv(self, rank: int, request: RecvRequest) -> Any:
        """Pop the earliest matching envelope, or None."""
        mailbox = self._states[rank].mailbox
        for i, env in enumerate(mailbox):
            if request.matches(env.source, env.tag):
                del mailbox[i]
                if payload_diverged(env.payload):
                    self._sink.mark_contaminated(rank)
                elif self._lane_mark is not None:
                    lanes = payload_lane_divergence(env.payload)
                    if lanes:
                        self._lane_mark(rank, lanes)
                return env.payload
        return None

    # ------------------------------------------------------------------
    # collectives
    # ------------------------------------------------------------------
    def _try_complete_collective(self) -> bool:
        prof = self._prof
        if prof is None:
            return self._try_complete_collective_impl()
        t0 = perf_counter()
        completed = self._try_complete_collective_impl()
        if completed:
            # rank -1: collective matching happens in the scheduler, not
            # on behalf of any one rank
            prof.profile_op("collective", -1, 1, perf_counter() - t0)
        return completed

    def _try_complete_collective_impl(self) -> bool:
        posts = self._collective_posts
        if len(posts) != self.size:
            return False
        first = posts[0]
        kind, root, op = first.kind, first.root, first.op
        for post in posts.values():
            if post.kind is not kind or post.root != root or post.op != op:
                _check_posts_agree(posts)
                break

        if self.collective_counts is not None:
            label = f"{kind.value}:{op}" if op else kind.value
            self.collective_counts[label] = self.collective_counts.get(label, 0) + 1
        results = self._collective_results(kind, posts)
        self._collective_posts = {}
        transit = self._transit
        for rank in range(self.size):
            self._states[rank].blocked_on = None
            delivered = results[rank]
            if transit is not None:
                delivered = transit.on_collective(kind.value, rank, delivered)
            # Receiving data that differs from the fault-free run
            # contaminates the receiver — except its own round-tripped
            # contribution (bcast from self, own gather slot) which it
            # already holds.
            if payload_diverged(delivered):
                self._sink.mark_contaminated(rank)
            elif self._lane_mark is not None:
                lanes = payload_lane_divergence(delivered)
                if lanes:
                    self._lane_mark(rank, lanes)
            self._ready.append((rank, delivered))
        return True

    def _collective_results(
        self, kind: CollectiveKind, posts: dict[int, CollectiveRequest]
    ) -> list[Any]:
        ordered = [posts[r].payload for r in range(self.size)]
        if kind is CollectiveKind.BARRIER:
            return [None] * self.size
        if kind is CollectiveKind.BCAST:
            root = posts[0].root
            assert root is not None
            return [ordered[root]] * self.size
        if kind is CollectiveKind.REDUCE:
            root = posts[0].root
            assert root is not None
            reduced = reduce_payloads(ordered, posts[0].op or "sum")
            return [reduced if r == root else None for r in range(self.size)]
        if kind is CollectiveKind.ALLREDUCE:
            reduced = reduce_payloads(ordered, posts[0].op or "sum")
            return [reduced] * self.size
        if kind is CollectiveKind.GATHER:
            root = posts[0].root
            assert root is not None
            return [list(ordered) if r == root else None for r in range(self.size)]
        if kind is CollectiveKind.ALLGATHER:
            return [list(ordered) for _ in range(self.size)]
        if kind is CollectiveKind.SCATTER:
            root = posts[0].root
            assert root is not None
            chunks = posts[root].payload
            if chunks is None or len(chunks) != self.size:
                raise CommunicatorError("scatter root did not provide one payload per rank")
            return list(chunks)
        if kind is CollectiveKind.ALLTOALL:
            for r, payload in enumerate(ordered):
                if not isinstance(payload, list) or len(payload) != self.size:
                    raise CommunicatorError(
                        f"alltoall rank {r} did not provide one payload per rank"
                    )
            return [[ordered[src][dst] for src in range(self.size)] for dst in range(self.size)]
        raise AssertionError(f"unhandled collective kind {kind}")  # pragma: no cover

    # ------------------------------------------------------------------
    # fail-stop
    # ------------------------------------------------------------------
    def _strike_parked(self, fail: FailStop) -> bool:
        """Offer every unfinished rank past its due step to ``fail``.

        True once a strike fail-stopped a rank (at most one per call).
        """
        for rank, state in enumerate(self._states):
            if state.done or state.failed:
                continue
            due = fail.due(rank)
            while due is not None and self._steps >= due:
                if fail.strike(rank, self._steps):
                    self._kill_rank(rank)
                    return True
                due = fail.due(rank)
        return False

    def _kill_rank(self, rank: int) -> None:
        """Fail-stop ``rank`` at the current step.

        The rank's generator is closed, any queued resumptions are
        dropped, and a pending collective post is withdrawn — from here
        on the rank neither computes nor communicates.  Surviving ranks
        either complete (the run finished without it), abort
        (:class:`CollectiveAbortError` on contact), or wedge
        (:class:`InjectedDeadlockError` from :meth:`_raise_deadlock`).
        """
        state = self._states[rank]
        self._killed = (rank, self._steps)
        state.failed = True
        state.blocked_on = None
        state.generator.close()
        self._collective_posts.pop(rank, None)
        if self._ready:
            self._ready = deque((r, v) for r, v in self._ready if r != rank)
        if self._obs.enabled:
            self._obs.counter("scheduler.rank_kills")

    # ------------------------------------------------------------------
    def _raise_deadlock(self) -> None:
        ranks = []
        waiting = []
        in_collective = False
        for rank, state in enumerate(self._states):
            if state.done or state.failed:
                continue
            ranks.append(rank)
            blocked = state.blocked_on
            if isinstance(blocked, RecvRequest):
                waiting.append(f"rank {rank} waiting on recv(source={blocked.source}, tag={blocked.tag})")
            elif isinstance(blocked, CollectiveRequest):
                in_collective = True
                waiting.append(f"rank {rank} waiting in {blocked.kind.value}")
            else:  # pragma: no cover - defensive
                waiting.append(f"rank {rank} blocked on {blocked!r}")
        if self._obs.enabled:
            self._obs.counter("scheduler.deadlocks")
            self._obs.emit(SchedulerDeadlock(
                blocked_ranks=ranks, pending_ops=waiting, steps=self._steps,
            ))
        if self._killed is not None:
            victim, step = self._killed
            message = (
                f"rank {victim} fail-stopped at step {step}: "
                + "; ".join(waiting)
            )
            if in_collective:
                # a collective over a dead participant can never
                # complete — real MPI aborts the job
                raise CollectiveAbortError(message)
            raise InjectedDeadlockError(message)
        raise DeadlockError("no runnable rank: " + "; ".join(waiting))

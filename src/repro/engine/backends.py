"""Execution backends: where a campaign's chunks actually run.

A :class:`Backend` turns a list of chunk bounds into a stream of
:class:`~repro.engine.chunks.ChunkPayload` objects.  The contract is
deliberately small — it is the seam a future multi-host backend (SSH
fan-out, a batch scheduler, MPI itself) drops into:

* payloads may arrive in **any order** (the driver's aggregator folds
  them deterministically; the checkpoint store persists them as they
  land);
* every chunk handed in must either be yielded exactly once or cause an
  exception — a backend never silently drops work;
* ``live_events`` declares whether the backend already streamed the
  chunks' observability events to the process-wide sinks while running
  (inline execution does; transported payloads have their events
  buffered in ``ChunkPayload.obs`` for the driver to re-emit);
* observability context rides the :class:`EngineContext` one way and
  the :class:`~repro.obs.recorder.ObsSnapshot` the other: the driver's
  causal :class:`~repro.obs.trace.TraceContext` (plus the ``tracing``
  and ``profiling`` switches) ships to workers in the pickled
  context, and each chunk's collected spans, profiler rows and
  buffered events come back in ``ChunkPayload.obs`` — a remote
  backend that honors this contract gets tracing and profiling for
  free.

Two implementations ship: :class:`InlineBackend` (the classic
in-process loop) and :class:`ProcessPoolBackend` (warm loopback workers
that live as long as the process, served by the controller loop, wire
protocol and failure table of :mod:`repro.engine.distributed`).
"""

from __future__ import annotations

import itertools
import multiprocessing
import secrets
import socket
from typing import Iterator, Protocol, Sequence

from repro.engine.chunks import ChunkPayload, EngineContext, execute_chunk
from repro.engine.distributed import dispatch, local_worker
from repro.obs import get_recorder

__all__ = ["Backend", "InlineBackend", "ProcessPoolBackend"]

Bounds = tuple[int, int]


class Backend(Protocol):
    """Executes chunks of trials; the engine's pluggable seam."""

    #: True when events were already emitted to the live sinks while the
    #: chunk ran (the driver then absorbs aggregates without re-emitting).
    live_events: bool

    def run(
        self, ctx: EngineContext, chunks: Sequence[Bounds]
    ) -> Iterator[ChunkPayload]:
        """Yield one payload per chunk, in any order."""
        ...


class InlineBackend:
    """Run chunks in-process, in order — the classic serial loop.

    With ``capture=False`` (the default) trials record straight into the
    process-wide recorder and the payload carries no snapshot: exactly
    the pre-engine serial path.  ``capture=True`` buffers each chunk's
    observability state for the checkpoint store while teeing events to
    the live sinks, so progress lines and traces behave identically.
    """

    live_events = True

    def __init__(self, capture: bool = False):
        self.capture = capture

    def run(
        self, ctx: EngineContext, chunks: Sequence[Bounds]
    ) -> Iterator[ChunkPayload]:
        live_sinks = tuple(get_recorder().sinks) if self.capture else ()
        for start, stop in chunks:
            yield execute_chunk(
                ctx, start, stop, capture=self.capture, live_sinks=live_sinks
            )


class _LocalPool:
    """Loopback workers, a 127.0.0.1 listener they queue on between
    campaigns, and the secret they prove membership with (passed in
    their spawn arguments, never through a file or the environment)."""

    def __init__(self):
        self.server = socket.create_server(("127.0.0.1", 0))
        self.secret = secrets.token_hex(16)
        self.worker_ids = itertools.count(1)
        self.procs: list[multiprocessing.process.BaseProcess] = []

    def ensure(self, jobs: int) -> None:
        """Replace dead workers and grow the pool to at least ``jobs``."""
        size = max(jobs, len(self.procs))
        self.procs = [proc for proc in self.procs if proc.is_alive()]
        while len(self.procs) < size:
            self.spawn(local_worker)

    def spawn(self, target, *args) -> None:
        """Start ``target(address, secret, *args)`` as a pool member."""
        proc = multiprocessing.get_context("spawn").Process(
            target=target,
            args=(self.server.getsockname()[:2], self.secret, *args),
            name="repro-pool-worker", daemon=True,
        )
        proc.start()
        self.procs.append(proc)

    def alive(self) -> bool:
        return any(proc.is_alive() for proc in self.procs)


#: This process's pool, started by the first pooled campaign.
_POOL: _LocalPool | None = None


class ProcessPoolBackend:
    """Fan chunks out over this process's warm local worker pool.

    The pool starts on first use and lives as long as the process:
    ``spawn``-started workers (they inherit ``sys.path`` and the working
    directory) that keep recent campaign state warm and fork at fault
    sites like an inline run.  It grows to the largest ``jobs``
    requested and replaces dead workers when the next campaign starts.
    Dispatch and failure handling are
    :func:`~repro.engine.distributed.dispatch`'s (docs/distributed.md),
    minus nominal worker-lifecycle telemetry, so events and counters
    match the inline run's.
    """

    live_events = False

    def __init__(self, jobs: int):
        self.jobs = jobs

    def run(
        self, ctx: EngineContext, chunks: Sequence[Bounds]
    ) -> Iterator[ChunkPayload]:
        global _POOL
        if _POOL is None:
            _POOL = _LocalPool()
        _POOL.ensure(self.jobs)
        yield from dispatch(
            _POOL.server, ctx, chunks, _POOL.worker_ids,
            secret=_POOL.secret, alive=_POOL.alive, lifecycle=False,
        )

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

Three implementations ship: :class:`InlineBackend` (the classic
in-process loop), :class:`ProcessPoolBackend` (warm loopback workers
that live as long as the process) and
:class:`~repro.engine.distributed.DistributedBackend` (workers anywhere
that can reach a TCP port).  The two pooled backends share one
controller loop, wire protocol and failure table
(:mod:`repro.engine.distributed`).
"""

from __future__ import annotations

import itertools
import multiprocessing
import secrets
import socket
from typing import Iterator, Protocol, Sequence

from repro.engine.chunks import ChunkPayload, EngineContext, execute_chunk
from repro.engine.distributed import (
    DEFAULT_PLAN_WORKERS,
    dispatch,
    local_worker,
)
from repro.errors import ConfigurationError
from repro.obs import get_recorder

__all__ = [
    "Backend", "InlineBackend", "ProcessPoolBackend", "canonical_backend",
    "planning_jobs",
]

Bounds = tuple[int, int]


def canonical_backend(spec: str | None) -> str | None:
    """Validate and canonicalize a backend spec string.

    Accepted forms: ``"inline"``, ``"process"`` (alias ``"pool"``), and
    ``"distributed:host:port"`` (``port`` 0 binds ephemerally; the
    controller publishes the bound address — see
    :mod:`repro.engine.distributed`).  ``None`` means "let
    ``select_backend`` decide from ``jobs``" and passes through.  Raises
    :class:`~repro.errors.ConfigurationError` on anything else, so bad
    ``--backend`` flags and ``$REPRO_BACKEND`` values fail at
    configuration time, not mid-campaign.
    """
    if spec is None:
        return None
    text = str(spec).strip()
    name, _, rest = text.partition(":")
    name = name.lower()
    if name == "inline" and not rest:
        return "inline"
    if name in ("process", "pool") and not rest:
        return "process"
    if name == "distributed":
        host, _, port_text = rest.rpartition(":")
        try:
            port = int(port_text)
        except ValueError:
            port = -1
        if host and 0 <= port <= 65535:
            return f"distributed:{host}:{port}"
        raise ConfigurationError(
            f"invalid backend spec {text!r}: expected distributed:host:port"
        )
    raise ConfigurationError(
        f"unknown backend {text!r}: expected inline, process, or "
        f"distributed:host:port"
    )


def planning_jobs(backend: str | None, jobs: int) -> int:
    """Effective parallelism for chunk planning under a backend spec.

    A distributed campaign with ``jobs`` left at 1 would otherwise plan
    one giant chunk and serialize the whole worker pool; plan for at
    least :data:`~repro.engine.distributed.DEFAULT_PLAN_WORKERS`
    instead.  Safe because chunk layout never affects results — only
    scheduling and checkpoint granularity (see docs/engine.md).
    """
    if backend is not None and backend.startswith("distributed:"):
        return max(jobs, DEFAULT_PLAN_WORKERS)
    return jobs


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
        context = multiprocessing.get_context("spawn")
        while len(self.procs) < size:
            proc = context.Process(
                target=local_worker,
                args=(self.server.getsockname()[:2], self.secret),
                name="repro-worker", daemon=True,
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
    directory) that keep recent campaign state warm.  It grows to the
    largest ``jobs`` requested and replaces dead workers when the next
    campaign starts.  Dispatch
    and failure handling are :func:`~repro.engine.distributed.dispatch`'s
    (docs/distributed.md), minus nominal worker-lifecycle telemetry, so
    events and counters match the inline run's.
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

"""``repro.engine`` — pluggable campaign execution with crash-safe resume.

The subsystem that owns fault-injection trial execution end-to-end
(cf. FINJ, Netti et al. 2018: large campaigns need an orchestration
layer with durable partial results).  One driver
(:func:`~repro.engine.core.run_trials`) runs every campaign through
three orthogonal pieces:

* a :class:`~repro.engine.backends.Backend` — *where* chunks of trials
  execute: in-process (:class:`~repro.engine.backends.InlineBackend`)
  or over the process's own warm pool of loopback workers
  (:class:`~repro.engine.backends.ProcessPoolBackend`, see
  ``docs/distributed.md``);
* a :class:`~repro.engine.aggregate.ChunkAggregator` — *how* chunk
  payloads fold into campaign aggregates: strictly in chunk order, so
  the result is bit-identical to the serial loop no matter which worker
  finished first or which half ran before a crash;
* a :class:`~repro.engine.checkpoint.CheckpointStore` — *what survives*
  a crash: completed chunks persist as they finish, and an interrupted
  campaign (SIGINT, worker crash, OOM kill) resumes by re-running only
  the missing chunks.

``run_campaign`` (:mod:`repro.fi.campaign`) is a thin driver over this
package; see ``docs/engine.md`` for the backend protocol, the
checkpoint format, resume semantics and the determinism argument.
"""

from repro.engine.adaptive import AdaptiveStopper, worst_case_trials
from repro.engine.aggregate import ChunkAggregator
from repro.engine.backends import Backend, InlineBackend, ProcessPoolBackend
from repro.engine.checkpoint import DEFAULT_CHECKPOINT_EVERY, CheckpointStore
from repro.engine.chunks import (
    MAX_CHUNK_TRIALS,
    ChunkPayload,
    EngineContext,
    chunk_bounds,
    execute_chunk,
    plan_chunks,
)
from repro.engine.core import run_trials, select_backend
from repro.engine.distributed import DistributedBackend
from repro.engine.store import LocalDirStore, MemoryStore, ResultStore

__all__ = [
    "AdaptiveStopper",
    "Backend",
    "DistributedBackend",
    "InlineBackend",
    "ProcessPoolBackend",
    "ChunkAggregator",
    "CheckpointStore",
    "ChunkPayload",
    "EngineContext",
    "DEFAULT_CHECKPOINT_EVERY",
    "MAX_CHUNK_TRIALS",
    "LocalDirStore",
    "MemoryStore",
    "ResultStore",
    "chunk_bounds",
    "execute_chunk",
    "plan_chunks",
    "run_trials",
    "select_backend",
    "worst_case_trials",
]

"""Exception hierarchy for the :mod:`repro` package.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch library failures without
swallowing programming errors.  A second, orthogonal family —
:class:`FaultActivatedError` — marks *simulated application failures*
caused by an injected fault (crash / hang analogues).  The fault-injection
campaign driver treats those as the ``FAILURE`` outcome rather than as a
bug in the harness.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """An invalid parameter or an inconsistent configuration was supplied."""


class DeadlockError(ReproError):
    """The simulated MPI scheduler found no runnable rank.

    Raised when every unfinished rank is blocked on a communication
    request that can never be satisfied (e.g. a receive with no matching
    send, or a collective some ranks never enter).
    """


class CommunicatorError(ReproError):
    """Misuse of the simulated MPI API (bad rank, tag, mismatched collective)."""


class InjectionPlanError(ReproError):
    """A fault-injection plan is inconsistent with the profiled execution.

    Typically the plan targets a dynamic instruction index beyond the
    number of instructions the program actually executes.
    """


class WorkerCrashError(ReproError):
    """A campaign worker process died without reporting a result.

    Raised by the campaign engine (:mod:`repro.engine`) when a pool
    worker terminates abruptly — a hard crash, ``os._exit``, or the OOM
    killer — rather than raising a normal (picklable) exception.  The
    campaign fails fast instead of hanging on the lost chunk, and the
    message narrows the failure to the first unfinished chunk's trial
    range (``chunk_start``/``chunk_stop``, ``[start, stop)``) so the
    culprit can be reproduced with a single in-process trial range.
    """

    def __init__(
        self,
        message: str,
        chunk_start: int | None = None,
        chunk_stop: int | None = None,
    ):
        super().__init__(message)
        self.chunk_start = chunk_start
        self.chunk_stop = chunk_stop


class DistributedProtocolError(ReproError):
    """A distributed-backend socket frame was malformed or out of order.

    Raised by the framing layer (:mod:`repro.engine.distributed`) on a
    truncated frame, an implausible length prefix, undecodable JSON or
    pickle payloads, or a message that violates the hello/init/ready/
    chunk/result conversation.  The controller treats it as the sending
    worker's failure: the worker is dropped, its in-flight chunk is
    requeued, and the campaign continues — the error only propagates to
    callers using the framing helpers directly (e.g. a worker talking
    to a broken controller).
    """


class CheckpointCorruptError(ReproError):
    """A campaign checkpoint file failed to parse or validate.

    Raised by the engine's checkpoint store (:mod:`repro.engine.checkpoint`)
    when a persisted chunk result or the checkpoint manifest is damaged —
    external truncation, disk corruption, or a foreign file in the
    checkpoint directory.  The offending file is deleted before raising,
    so simply rerunning the campaign restarts cleanly (re-running only
    the chunk whose checkpoint was lost).  ``path`` names the damaged
    file.
    """

    def __init__(self, message: str, path: str | None = None):
        super().__init__(message)
        self.path = path


class FaultActivatedError(ReproError):
    """Base class for simulated application failures caused by a fault.

    These are *outcomes*, not harness bugs: the campaign driver converts
    them into the ``FAILURE`` fault-injection outcome.
    """


class SimulatedCrashError(FaultActivatedError):
    """The application would have crashed (e.g. NaN/Inf reached a guard)."""


class SimulatedHangError(FaultActivatedError):
    """The application would have hung (e.g. a solver stopped converging)."""


class InjectedDeadlockError(DeadlockError, FaultActivatedError):
    """An injected system-level fault left live ranks blocked forever.

    Raised by the scheduler instead of the plain :class:`DeadlockError`
    when an armed fault (a rank fail-stop) actually fired before the
    ranks wedged — the surviving ranks are waiting on point-to-point
    messages the dead rank will never send.  Deriving from both bases
    keeps existing ``except DeadlockError`` handlers working while
    letting scenario drivers distinguish fault-induced deadlocks from
    harness bugs in provenance records.
    """


class CollectiveAbortError(CommunicatorError, FaultActivatedError):
    """Communication involving a fail-stopped rank aborted the application.

    The analogue of MPI's default error handler tearing the job down on
    any communication failure: a send targeting a dead rank, or a
    collective that can never complete because a participant was
    fail-stopped after others entered it.  Distinguished from
    :class:`InjectedDeadlockError` (a silent wedge) so rank-kill
    campaigns can report abort vs deadlock rates separately.
    """

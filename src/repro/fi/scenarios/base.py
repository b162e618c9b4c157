"""The pluggable fault-model contract behind every scenario family.

A :class:`FaultModel` owns every scenario-specific decision of one
fault-injection trial: sampling the trial's plan from the fault-free
execution, arming the right seam (the instruction-level tracer, the
scheduler's fail-stop seam, or its in-transit payload hook) as a
:class:`TrialRun`, the failures a run may end in, classifying a run that
completed, and the events of the faults that landed.  The lifecycle is
the base class's: a trial run alone, a forked child of a site-driven
block and a lane replayed from a batched pass (:mod:`repro.fi.lanes`)
all open the same spans (:class:`TrialScope`) and end in
:meth:`FaultModel.finish`, which records and reports the trial.  The
engine dispatches each trial through
``resolve_model(deployment.scenario).run_trial(...)`` (or a whole block
through :meth:`SiteFaultModel.run_block`) and otherwise never names a
concrete family — adding a scenario touches this package only.

Two invariants every model must uphold:

* **Determinism** — every per-trial decision derives from the
  ``numpy`` generator seeded by ``(deployment.seed, trial)``, so trials
  produce identical records in any order, in any worker process, and
  across checkpoint/resume.
* **Outcome-only side effects** — a model reports through the
  :class:`~repro.fi.outcomes.TrialRecord` and the observability
  recorder; it must not mutate the app, the deployment, or the profile.

Each ``(app, nprocs, max_steps)`` runs fault-free once per process
(:func:`fault_free_run`): that one execution yields the instruction
profile and reference output every campaign at this scale starts from,
and the *fault-free execution extent* — total scheduler steps and total
corruptible payload deliveries — against which system-level families
(rank fail-stop, message corruption) sample their fault sites
(:func:`execution_dynamics`).

Their trials are *site-driven* (:class:`SiteFaultModel`): the
fault-free execution runs with the family's hooks attached but unarmed,
and each trial's fault lands at one site of it — a (kill step, victim)
pair or a delivery index.  Everything before that site is the same for
every trial, so :meth:`SiteFaultModel.run_block` runs it once per block
and calls ``os.fork()`` at each site: the child arms its trial's fault in
place, runs the suffix, and pipes back its record.  A trial run alone
(:meth:`SiteFaultModel.run_trial`, the fallback where forking is
missing, unsafe or does not pay) is the same site-driven run with its
one site armed in place.  See ``docs/scenarios.md``, "Fork at the fault site".
"""

from __future__ import annotations

import abc
import copy
import os
import pickle
import signal
import struct
import threading
import time
import warnings
from contextlib import ExitStack
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, ClassVar, Iterable, Protocol, Sequence

from repro.errors import ConfigurationError, WorkerCrashError
from repro.fi.outcomes import Outcome, TrialRecord
from repro.fi.profile import InstructionProfile
from repro.fi.tracer import Tracer, TracerMode
from repro.mpisim.runner import execute_spmd
from repro.obs import MemorySink, ObsSnapshot, Recorder, TrialFinished, recording
from repro.obs.events import Event
from repro.obs.provenance import ScenarioObservation, build_trial_provenance
from repro.taint.tarray import TArray
from repro.utils.rng import trial_seed

if TYPE_CHECKING:  # avoid runtime cycles: campaign imports this package
    import numpy as np

    from repro.fi.campaign import AppProtocol, Deployment

__all__ = [
    "ScenarioPlan",
    "FaultModel",
    "TrialRun",
    "TrialScope",
    "SiteFaultModel",
    "SiteRun",
    "FaultFreeRun",
    "execution_dynamics",
    "fault_free_run",
    "count_corruptible",
    "fork_safe",
    "fork_pays",
    "fork_slots",
]

#: The cost model behind :func:`fork_pays`, fitted to blocks of 1 to 24
#: trials of both families on MG (4 and 16 ranks), CG (4 and 16), LU
#: and MiniFE (16); see ``docs/performance.md``, "Fork at the fault
#: site".  A trial run alone re-runs about this share of the fault-free
#: execution before its fault lands ...
FORK_PREFIX_SHARE = 0.5
#: ... and a forked child costs about this much on top (fork,
#: copy-on-write faults, pipe, ``waitpid``).
FORK_COST_S = 0.010


class ScenarioPlan(Protocol):
    """What one trial will inject, in scenario-specific terms.

    The only shared requirement is a provenance payload:
    ``to_payload()`` returns one JSON-able dict per planned fault.
    Scenario payloads carry a ``"scenario"`` key so provenance loaders
    can distinguish them from classic bit-flip sites.
    """

    def to_payload(self) -> list[dict]: ...


def count_corruptible(payload: Any) -> int:
    """Number of corruptible (TArray) leaves inside one delivered payload."""
    if isinstance(payload, TArray):
        return 1
    if isinstance(payload, dict):
        return sum(count_corruptible(v) for v in payload.values())
    if isinstance(payload, (list, tuple)):
        return sum(count_corruptible(v) for v in payload)
    return 0


class _DeliveryCounter:
    """Transit hook that tallies corruptible deliveries without touching them."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def on_p2p(self, src: int, dst: int, payload: Any) -> Any:
        self.count += count_corruptible(payload)
        return payload

    def on_collective(self, kind: str, rank: int, payload: Any) -> Any:
        self.count += count_corruptible(payload)
        return payload


@dataclass(frozen=True)
class FaultFreeRun:
    """What the fault-free execution of an app at one scale produced.

    Hands out copies (:meth:`profile`, :meth:`reference`), so no caller
    changes what the next one reads from the memo.
    """

    steps: int        #: total deterministic scheduler steps
    deliveries: int   #: corruptible payload deliveries (TArray leaves in transit)
    seconds: float    #: wall time of the run in this process
    _counts: dict
    _reference: Any
    _metrics: ObsSnapshot  #: the counters and histograms the run recorded

    def profile(self) -> InstructionProfile:
        """The per-rank dynamic-instruction profile."""
        return InstructionProfile(dict(self._counts))

    def reference(self) -> Any:
        """Rank 0's output."""
        return copy.deepcopy(self._reference)

    def replay(self, obs) -> None:
        """Record the execution's metrics into ``obs``, as if it ran there."""
        obs.absorb(self._metrics, emit_events=False)


#: (app cache key, nprocs, max_steps) -> its fault-free run, per process
_FAULT_FREE: dict[tuple[str, int, int | None], FaultFreeRun] = {}


def fault_free_run(
    app: "AppProtocol", nprocs: int, max_steps: int | None = None,
    known: FaultFreeRun | None = None,
) -> FaultFreeRun:
    """The fault-free execution of ``app`` at ``nprocs`` ranks, memoized.

    Runs the application once per ``(app, nprocs, max_steps)`` and
    process, under a profiling tracer and a counting transit hook.  It
    records into a private recorder, so it counts towards no campaign
    whichever caller happens to run it; a campaign replays its metrics
    (:meth:`FaultFreeRun.replay`) instead.  The scheduler is
    deterministic, so every process measures the same profile, output,
    ``steps`` and ``deliveries``; only ``seconds`` varies.  A process
    handed another's run (a pool worker, its parent's) passes it as
    ``known`` and serves it on a miss instead of executing.
    """
    key = (app.cache_key(), nprocs, max_steps)
    if known is not None:
        _FAULT_FREE.setdefault(key, known)
    hit = _FAULT_FREE.get(key)
    if hit is not None:
        return hit
    tracer, counter = Tracer(TracerMode.PROFILE), _DeliveryCounter()
    private = Recorder(enabled=True)
    with recording(private):
        started = time.perf_counter()
        outputs = execute_spmd(
            app.program, nprocs, sink=tracer, max_steps=max_steps,
            transit=counter,
        )
        seconds = time.perf_counter() - started
    run = FaultFreeRun(
        int(private.counters["scheduler.steps"]), counter.count, seconds,
        tracer.profile.counts, outputs[0],
        ObsSnapshot(counters=private.counters, histograms=private.histograms),
    )
    _FAULT_FREE[key] = run
    return run


def execution_dynamics(app: "AppProtocol", deployment: "Deployment") -> FaultFreeRun:
    """The fault-free execution at ``deployment``'s scale, whose ``steps``
    and ``deliveries`` size system-level fault sites (memoized)."""
    return fault_free_run(app, deployment.nprocs, deployment.max_steps)


class FaultModel(abc.ABC):
    """One pluggable fault-scenario family (see module docstring).

    Subclasses set :attr:`name` (the spec name used by
    ``--scenario``), :attr:`PARAMS` (accepted ``k=v`` spec parameters),
    :attr:`FAILURES`, :attr:`supports_lanes` (True only when the trial's
    semantics are preserved by the lane-vectorized execution path —
    currently the bit-flip family alone) and :attr:`supports_fork` (set
    by :class:`SiteFaultModel`), and supply :meth:`sample`, :meth:`arm`,
    :meth:`complete` and :meth:`fired_events`.  This class runs the
    trial and records and reports it.
    """

    name: ClassVar[str]
    #: parameter keys accepted in a ``name:k=v,...`` spec
    PARAMS: ClassVar[tuple[str, ...]] = ()
    #: whether lane batching (``lanes > 1``) may execute this family
    supports_lanes: ClassVar[bool] = False
    #: whether blocks of trials may fork off one fault-free execution
    #: (:meth:`SiteFaultModel.run_block`)
    supports_fork: ClassVar[bool] = False
    #: ``(exception type, detail label)`` in match order: the failures a
    #: faulty run may end in (anything else propagates)
    FAILURES: ClassVar[tuple[tuple[type[Exception], str], ...]] = ()

    def __init__(self, params: dict[str, str] | None = None):
        params = dict(params or {})
        unknown = sorted(set(params) - set(self.PARAMS))
        if unknown:
            accepted = ", ".join(self.PARAMS) if self.PARAMS else "(none)"
            raise ConfigurationError(
                f"scenario {self.name!r} does not accept parameter(s) "
                f"{', '.join(unknown)}; accepted: {accepted}"
            )
        self._params = params

    # ------------------------------------------------------------------
    def params(self) -> dict[str, str]:
        """The validated spec parameters this instance was built with."""
        return dict(self._params)

    def spec(self) -> str:
        """Canonical ``name[:k=v,...]`` spec string (parameters sorted)."""
        if not self._params:
            return self.name
        kv = ",".join(f"{k}={self._params[k]}" for k in sorted(self._params))
        return f"{self.name}:{kv}"

    def int_param(self, key: str, minimum: int = 0) -> int | None:
        """Parse an optional integer spec parameter, or None when unset."""
        raw = self._params.get(key)
        if raw is None:
            return None
        try:
            value = int(raw)
        except ValueError:
            raise ConfigurationError(
                f"scenario {self.name!r} parameter {key}={raw!r} is not an integer"
            ) from None
        if value < minimum:
            raise ConfigurationError(
                f"scenario {self.name!r} parameter {key}={value} must be >= {minimum}"
            )
        return value

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def sample(
        self,
        profile: InstructionProfile,
        rng: "np.random.Generator",
        *,
        app: "AppProtocol",
        deployment: "Deployment",
    ) -> ScenarioPlan:
        """Sample this trial's plan; consumes only ``rng`` state."""

    @abc.abstractmethod
    def arm(self, trial: int, plan: ScenarioPlan) -> "TrialRun":
        """Hooks that inject ``plan`` when their run executes."""

    @abc.abstractmethod
    def complete(self, outputs: list, reference: dict, app, obs) -> tuple[Outcome, str]:
        """Outcome and detail of a run that completed."""

    @abc.abstractmethod
    def fired_events(self, trial: int, run: "TrialRun") -> Iterable[Event]:
        """The events announcing which of the trial's faults landed."""

    # ------------------------------------------------------------------
    def run_trial(self, app, deployment, profile, reference, trial, obs) -> TrialRecord:
        """Execute one fault-injection test end to end (see invariants)."""
        with TrialScope(obs) as scope:
            plan = scope.open(trial, lambda: self.sample(
                profile, trial_seed(deployment.seed, trial),
                app=app, deployment=deployment,
            ))
            run = self.arm(trial, plan)
            result = self._execute(run, app, deployment)
            return self._conclude(app, reference, trial, plan, run, scope, result, obs)

    def _execute(self, run: "TrialRun", app, deployment):
        """The run's rank outputs, or the failure it ended in."""
        try:
            return run.execute(app, deployment)
        except tuple(kind for kind, _ in self.FAILURES) as exc:
            return exc

    def _conclude(
        self, app, reference, trial, plan, run: "TrialRun", scope: "TrialScope",
        result, obs,
    ) -> TrialRecord:
        """Classify a finished run, then :meth:`finish` it."""
        scope.end_inject()
        if isinstance(result, Exception):
            label = next(lb for kind, lb in self.FAILURES if isinstance(result, kind))
            outcome, detail = Outcome.FAILURE, f"{label}: {result}"
        else:
            outcome, detail = self.complete(result, reference, app, obs)
        return self.finish(trial, plan, run, scope, outcome, detail, obs)

    def finish(
        self, trial: int, plan: ScenarioPlan, run: "TrialRun",
        scope: "TrialScope", outcome: Outcome, detail: str, obs,
    ) -> TrialRecord:
        """Close a classified trial's spans; record and report it (the
        counters, events and provenance of every trial on every path)."""
        span = scope.span
        span.set(outcome=outcome.value)
        scope.close()
        record = TrialRecord(
            outcome=outcome,
            n_contaminated=run.n_contaminated(),
            activated=run.activated(),
            detail=detail,
        )
        if obs.enabled:
            run.replay(obs)
            obs.counter(f"campaign.trials.{outcome.value}")
            obs.observe("taint.contamination_spread", record.n_contaminated)
            for event in self.fired_events(trial, run):
                obs.emit(event)
            obs.emit(TrialFinished(
                trial=trial, outcome=outcome.value,
                n_contaminated=record.n_contaminated,
                activated=record.activated,
                duration_s=span.duration,
            ))
            obs.emit(build_trial_provenance(trial, plan, run, record))
        return record


class TrialRun(abc.ABC):
    """One trial's hooks (:meth:`FaultModel.arm`) and what they observed:
    whether every planned fault landed, the ranks they contaminated, and
    for provenance the applied faults and ``(step, rank)`` marks."""

    @abc.abstractmethod
    def execute(self, app: "AppProtocol", deployment: "Deployment") -> list:
        """Run the application with these hooks; the ranks' outputs."""

    @abc.abstractmethod
    def activated(self) -> bool: ...

    def n_contaminated(self) -> int:
        return 0

    def observations(self) -> Sequence:
        return ()

    def timeline(self) -> Sequence[tuple[int, int]]:
        return ()

    def replay(self, obs) -> None:
        """Record what the trial metered outside ``obs`` (a lane's share
        of its batched pass)."""


class TrialScope:
    """One trial's spans: ``trial`` over ``plan``, ``inject``, ``classify``.

    Opened where the trial's own execution starts — before the run when
    the trial runs alone, at its fault site in a forked child, after the
    batched pass for a lane — so every path records the same tree.
    :meth:`close` is idempotent and also runs on the way out of an
    exception (or of a ``with`` block).
    """

    def __init__(self, obs) -> None:
        self._obs = obs
        self._trial = ExitStack()
        self._inject = ExitStack()
        self.span = None

    def __enter__(self) -> "TrialScope":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def open(self, trial: int, sample: Callable[[], Any] | None = None):
        """Enter ``trial`` and ``inject``; returns ``sample()``, run in ``plan``."""
        obs = self._obs
        self.span = self._trial.enter_context(
            obs.span("trial", trial, cat="trial", args={"trial": trial})
        )
        with obs.span("plan"):
            plan = None if sample is None else sample()
        self._inject.enter_context(obs.span("inject"))
        return plan

    def end_inject(self) -> None:
        self._inject.close()

    def close(self) -> None:
        self._inject.close()
        self._trial.close()


# ----------------------------------------------------------------------
# site-driven trials: fork at the fault site
# ----------------------------------------------------------------------
def fork_safe() -> bool:
    """Whether this process may fork at fault sites.

    Needs POSIX ``fork`` and no Python thread besides the caller's: a
    thread holding a lock at fork time (the ``--serve-obs`` server)
    would leave it held in the child.  Inline runs and local pool
    workers both pass.
    """
    return hasattr(os, "fork") and threading.active_count() == 1


def fork_pays(app: "AppProtocol", deployment: "Deployment", trials: int) -> bool:
    """Whether forking ``trials`` trials off one fault-free execution
    beats running each on an execution of its own.

    The block pays for one execution up front; each of its trials then
    saves the prefix it would have re-run, less its child's cost.  Short
    executions (CG at 4 ranks: about 10 ms) never pay; MG at 16 ranks
    (about 100 ms) pays from 3 trials on.
    """
    run_s = execution_dynamics(app, deployment).seconds
    return trials * (FORK_PREFIX_SHARE * run_s - FORK_COST_S) > run_s


def _fork() -> int:
    with warnings.catch_warnings():
        # Python 3.12+ warns when fork() runs beside other OS threads.
        # fork_safe() ruled out Python threads; what remains are native
        # pools such as OpenBLAS's, which stops its workers in a
        # pthread_atfork handler and restarts them on demand.
        warnings.filterwarnings(
            "ignore", message=r"This process .* is multi-threaded",
            category=DeprecationWarning,
        )
        return os.fork()


def _read_report(pipe) -> tuple | None:
    """One length-prefixed pickle off a child's pipe; None at EOF or on a
    short one (the child died mid-report)."""
    head = pipe.read(8)
    if len(head) == 8:
        size = struct.unpack("<Q", head)[0]
        blob = pipe.read(size)
        if len(blob) == size:
            return pickle.loads(blob)
    return None


def fork_slots(workers: int = 1) -> int:
    """How many processes of one campaign worker may compute at once.

    The usable CPUs (the affinity mask where the platform has one)
    shared among the campaign's ``workers`` processes — its ``jobs``,
    1 inline — and never below 1, so a pool whose workers all fork
    does not oversubscribe the host.  A site-driven block keeps up to
    one child fewer alive beside itself (a one-CPU host reaps each child
    before the parent continues); a chunk of lane blocks or of trials run
    one at a time forks up to that many children and only folds their
    reports (:func:`repro.engine.chunks.execute_chunk`).
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        cpus = os.cpu_count() or 1
    return max(1, cpus // workers)


class _Forker:
    """Forks children and collects their length-prefixed pickled reports.

    A site-driven block forks a child per reached fault site, keeping up
    to ``slots`` alive: it reaps the oldest only when they fill their
    slots (:meth:`drain` reaps the rest), so the first failure in site
    order is the one raised.  A chunk run side by side forks one child
    per slot, each reporting once per lane block or trial run alone, and
    reads them in block order (:meth:`receive`).  A child does no I/O except its pipe, reports a
    failure as ``(None, error)`` and leaves via ``os._exit`` (see
    :meth:`SiteFaultModel.run_block`).
    """

    def __init__(self, slots: int) -> None:
        self.slots = slots
        #: the key (site trial or chunk child) this process runs as a child
        self.child: int | None = None
        #: trial -> (record, snapshot or None) of every reaped site child
        self.results: dict[int, tuple] = {}
        #: every key forked so far, reaped or not
        self.forked: set[int] = set()
        #: seconds the parent spent blocked in each report
        self.waits: list[float] = []
        #: key -> (pid, read end) of each live child, oldest first
        self._live: dict[int, tuple[int, Any]] = {}
        self._pipe = -1

    def fork(self, key: int) -> bool:
        """Fork child ``key``: True in the child; False in the parent,
        once the live children fit in their slots."""
        read_fd, write_fd = os.pipe()
        try:
            pid = _fork()
        except BaseException:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if pid == 0:
            os.close(read_fd)
            for _, pipe in self._live.values():  # the older siblings' pipes
                pipe.close()
            self._live.clear()
            self.child, self._pipe = key, write_fd
            warnings.simplefilter("ignore")  # no stderr: the pipe only
            return True
        os.close(write_fd)
        self.forked.add(key)
        self._live[key] = (pid, open(read_fd, "rb"))
        while len(self._live) >= self.slots:
            self._reap_oldest()
        return False

    def drain(self) -> None:
        """Parent: reap every live child, oldest first."""
        while self._live:
            self._reap_oldest()

    def kill(self) -> None:
        """Parent: kill and reap every live child (on a failure)."""
        while self._live:
            _, (pid, pipe) = self._live.popitem()
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)

    def _reap_oldest(self) -> None:
        trial = next(iter(self._live))
        self.results[trial] = self.receive(trial, trial, trial + 1)

    def receive(self, key: int, start: int, stop: int, last: bool = True) -> tuple:
        """Parent: child ``key``'s next report, on trials ``[start, stop)``.

        The child is reaped after its ``last`` report.  One that sends
        none instead (it raised, exited or died mid-report) is reaped and
        raises a typed :class:`WorkerCrashError` naming ``start``.  An
        interruption leaves the child live for :meth:`kill`.
        """
        pid, pipe = self._live[key]
        began = time.perf_counter()
        report = _read_report(pipe)
        failed, code = report is None or report[0] is None, 0
        if last or failed:
            pipe.close()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del self._live[key]
        self.waits.append(time.perf_counter() - began)
        if not failed and code == 0:
            return report
        if report is not None:
            reason = f"raised {report[1]}"
        elif code != 0:
            reason = f"exited with status {code}"
        else:
            reason = "sent a short report"
        raise WorkerCrashError(
            f"forked trial {start} {reason} before reporting its record",
            chunk_start=start, chunk_stop=stop,
        )

    def report(self, payload: tuple) -> None:
        """Child: send ``payload`` (a ``BrokenPipeError`` ends the child)."""
        blob = pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
        view = memoryview(struct.pack("<Q", len(blob)) + blob)
        while view:
            view = view[os.write(self._pipe, view):]


class SiteRun(TrialRun):
    """The hooks of one site-driven execution (see :class:`SiteFaultModel`).

    Built unarmed over a block's plans; at each plan's site it calls
    ``reach(trial)`` and, when that returns True, arms that trial's
    fault in place and drops every other site.  ``fired`` is the armed
    fault's provenance payload once it landed.
    """

    fired: dict | None = None

    def activated(self) -> bool:
        return self.fired is not None

    def observations(self) -> Sequence[ScenarioObservation]:
        return () if self.fired is None else (ScenarioObservation(self.fired),)


class SiteFaultModel(FaultModel):
    """A system-level family whose fault lands at one site of the
    fault-free execution.

    Subclasses provide :attr:`FAILURES`, :meth:`attach` (the family's
    :class:`SiteRun`), :meth:`complete` and :meth:`fired_events`; this
    class runs trials alone (:meth:`run_trial`, the site armed in place)
    or a block at a time (:meth:`run_block`), and both record and report
    each trial identically.
    """

    supports_fork = True

    @abc.abstractmethod
    def attach(
        self, plans: dict[int, ScenarioPlan], reach: Callable[[int], bool]
    ) -> SiteRun:
        """Unarmed hooks visiting every plan's site, in site order."""

    def arm(self, trial: int, plan: ScenarioPlan) -> SiteRun:
        return self.attach({trial: plan}, lambda _: True)

    def run_block(
        self, app, deployment, profile, reference, start: int, stop: int, obs,
    ) -> list[TrialRecord]:
        """Trials ``[start, stop)`` forked off one fault-free execution.

        The execution records into a recorder derived from ``obs``, so a
        child inherits the prefix's counters and histograms and reports
        what a trial run alone would have recorded.  Trials whose site
        the execution never reaches fork at its end.  Up to
        :func:`fork_slots` children run beside the parent; they are
        reaped in site order, and records and observations fold in trial
        order.  A failure kills and reaps every live child before it
        propagates.
        """
        plans = {
            trial: self.sample(
                profile, trial_seed(deployment.seed, trial),
                app=app, deployment=deployment,
            )
            for trial in range(start, stop)
        }
        mem = MemorySink()
        rec = obs.derive([mem])
        forker = _Forker(fork_slots(deployment.jobs or 1))
        scope = TrialScope(rec)

        def reach(trial: int) -> bool:
            if not forker.fork(trial):
                return False
            scope.open(trial)
            return True

        run = self.attach(plans, reach)
        status = 1
        try:
            with recording(rec):
                result = self._execute(run, app, deployment)
                for trial in plans:
                    if forker.child is None and trial not in forker.forked:
                        reach(trial)  # site never reached
                child = forker.child
                if child is None:
                    forker.drain()
                else:
                    record = self._conclude(
                        app, reference, child, plans[child], run, scope,
                        result, rec,
                    )
                    forker.report((
                        record,
                        rec.snapshot(events=mem.events) if rec.enabled else None,
                    ))
                    status = 0
        except BaseException as exc:
            if forker.child is None:
                forker.kill()
                raise
            # a child reports its failure and exits below: re-raising
            # would unwind into a second copy of the campaign
            forker.report((None, f"{type(exc).__name__}: {exc}"))
        finally:
            if forker.child is not None:
                os._exit(status)  # never unwind into the caller's stack
        records = []
        for trial in plans:
            record, snapshot = forker.results[trial]
            if snapshot is not None:
                for span in snapshot.trace:
                    span["pid"] = os.getpid()  # the chunk's lane, not the child's
                obs.absorb(snapshot)
            records.append(record)
        # here, not in ``rec``: a later child would inherit and re-report them
        obs.counter("fi.fork.children", len(forker.forked))
        for wait in forker.waits:
            obs.observe("fi.fork.wait_s", wait)
        return records

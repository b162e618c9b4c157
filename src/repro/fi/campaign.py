"""Fault-injection deployments: many randomized tests, one configuration.

A *deployment* (paper §2) fixes the execution scale (number of MPI
processes), the fault pattern (number of errors per test, target
region), and the number of tests.  Running one yields a
:class:`CampaignResult`: outcome rates (success / SDC / failure), the
joint distribution of (outcome, contaminated-process count), the
dynamic-instruction profile, and wall-clock fault-injection time — the
raw material for every model input and every figure of the paper.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Generator, Protocol

from repro.errors import ConfigurationError
from repro.fi.outcomes import Outcome, TrialRecord
from repro.fi.profile import InstructionProfile
from repro.fi.scenarios import canonical_scenario, resolve_model
from repro.fi.tracer import Tracer, TracerMode
from repro.mpisim.runner import execute_spmd
from repro.obs import (
    CampaignFinished,
    CampaignStarted,
    ProfileScope,
    get_recorder,
)
from repro.obs.trace import (
    TraceContext,
    TraceScope,
    make_span,
    span_id_from,
    trace_id_from,
)
from repro.taint.region import Region
from repro.utils.validation import check_positive_int

__all__ = [
    "Deployment", "CampaignResult", "run_campaign", "run_one_trial",
    "default_jobs", "default_lanes", "default_checkpoint_every",
    "default_resume", "default_ci_halfwidth", "default_scenario",
    "default_backend",
    "with_resolved_ci", "with_resolved_scenario",
    "AppProtocol",
]


def default_jobs() -> int:
    """Worker processes per campaign: ``$REPRO_JOBS``, falling back to 1.

    1 means the classic in-process serial loop.  Any value produces a
    bit-identical ``joint`` distribution (see :mod:`repro.engine`), so
    this only trades wall-clock for cores.
    """
    try:
        return max(1, int(os.environ.get("REPRO_JOBS", "1")))
    except ValueError:
        return 1


def default_lanes() -> int:
    """Shadow-execution lanes per pass: ``$REPRO_LANES``, falling back to 1.

    1 means the classic one-trial-per-execution loop.  Any value
    produces bit-identical records, events, and provenance (see
    ``docs/performance.md``), so — like ``jobs`` — this only trades
    wall-clock for memory.  A malformed or non-positive value warns once
    on stderr and leaves lane batching off rather than aborting an
    otherwise valid run.
    """
    raw = os.environ.get("REPRO_LANES")
    if raw is None or raw == "":
        return 1
    try:
        value = int(raw)
    except ValueError:
        print(
            f"repro: warning: malformed REPRO_LANES={raw!r}; "
            f"lane batching disabled",
            file=sys.stderr,
        )
        return 1
    if value < 1:
        print(
            f"repro: warning: REPRO_LANES={value} is not positive; "
            f"lane batching disabled",
            file=sys.stderr,
        )
        return 1
    return value


def default_checkpoint_every() -> int | None:
    """Checkpoint interval: ``$REPRO_CHECKPOINT_EVERY`` trials, else off.

    None disables checkpointing (the classic fire-and-forget campaign).
    A malformed or non-positive value warns once on stderr and leaves
    checkpointing off rather than aborting an otherwise valid run.
    """
    raw = os.environ.get("REPRO_CHECKPOINT_EVERY")
    if raw is None or raw == "":
        return None
    try:
        value = int(raw)
    except ValueError:
        print(
            f"repro: warning: malformed REPRO_CHECKPOINT_EVERY={raw!r}; "
            f"checkpointing disabled",
            file=sys.stderr,
        )
        return None
    if value < 1:
        print(
            f"repro: warning: REPRO_CHECKPOINT_EVERY={value} is not "
            f"positive; checkpointing disabled",
            file=sys.stderr,
        )
        return None
    return value


def default_resume() -> bool:
    """Resume from checkpoints by default? (``$REPRO_RESUME``, off unless set)."""
    return os.environ.get("REPRO_RESUME", "0").lower() not in ("0", "", "false", "no")


def default_ci_halfwidth() -> float | None:
    """Adaptive precision target: ``$REPRO_CI_HALFWIDTH``, else fixed-N.

    None keeps the classic fixed-trial-count campaign.  A malformed or
    out-of-range value warns once on stderr and leaves adaptive stopping
    off rather than aborting an otherwise valid run.
    """
    raw = os.environ.get("REPRO_CI_HALFWIDTH")
    if raw is None or raw == "":
        return None
    try:
        value = float(raw)
    except ValueError:
        print(
            f"repro: warning: malformed REPRO_CI_HALFWIDTH={raw!r}; "
            f"adaptive stopping disabled",
            file=sys.stderr,
        )
        return None
    if not 0.0 < value < 0.5:
        print(
            f"repro: warning: REPRO_CI_HALFWIDTH={value} outside (0, 0.5); "
            f"adaptive stopping disabled",
            file=sys.stderr,
        )
        return None
    return value


def default_scenario() -> str | None:
    """Fault-scenario family: ``$REPRO_SCENARIO``, falling back to bit flips.

    None means the classic transient bit-flip pipeline.  Specs are
    ``name[:k=v,...]`` (see :mod:`repro.fi.scenarios`); a malformed or
    unknown spec warns once on stderr and leaves the default family in
    place rather than aborting an otherwise valid run.
    """
    raw = os.environ.get("REPRO_SCENARIO")
    if raw is None or raw.strip() == "":
        return None
    try:
        return canonical_scenario(raw)
    except ConfigurationError as exc:
        print(
            f"repro: warning: ignoring REPRO_SCENARIO={raw!r}: {exc}",
            file=sys.stderr,
        )
        return None


def default_backend() -> str | None:
    """Execution backend: ``$REPRO_BACKEND``, falling back to auto-select.

    None lets :func:`~repro.engine.core.select_backend` pick from
    ``jobs`` (the classic heuristic).  Specs are ``inline``, ``process``,
    or ``distributed:host:port`` (see :mod:`repro.engine.distributed`);
    a malformed spec warns once on stderr and leaves auto-selection in
    place rather than aborting an otherwise valid run.
    """
    raw = os.environ.get("REPRO_BACKEND")
    if raw is None or raw.strip() == "":
        return None
    from repro.engine.backends import canonical_backend  # circular at import

    try:
        return canonical_backend(raw)
    except ConfigurationError as exc:
        print(
            f"repro: warning: ignoring REPRO_BACKEND={raw!r}: {exc}",
            file=sys.stderr,
        )
        return None


class AppProtocol(Protocol):
    """What the campaign driver needs from an application."""

    name: str

    def program(self, rank: int, size: int, comm, fp) -> Generator:
        """The SPMD rank program (generator; see :mod:`repro.mpisim`)."""
        ...

    def verify(self, output: dict, reference: dict) -> bool:
        """The application's correctness checker (paper §2 'checkers')."""
        ...

    def cache_key(self) -> str:
        """Stable string identifying the app's parameters."""
        ...


@dataclass(frozen=True)
class Deployment:
    """One fault-injection configuration (paper: 'fault injection deployment')."""

    nprocs: int
    trials: int
    n_errors: int = 1
    region: Region | None = None        # None = sample by candidate share
    target_rank: int | None = None      # None = uniform victim per test
    seed: int = 0
    max_steps: int | None = None        # scheduler runaway guard
    bits_per_error: int = 1             # >1 = multi-bit fault pattern
    jobs: int | None = None             # worker processes; None = $REPRO_JOBS
    lanes: int | None = None            # trials batched per execution pass;
                                        # None = $REPRO_LANES
    checkpoint_every: int | None = None  # trials per durable checkpoint;
                                         # None = $REPRO_CHECKPOINT_EVERY
    ci_halfwidth: float | None = None   # adaptive precision target; None =
                                        # $REPRO_CI_HALFWIDTH, else fixed-N
    scenario: str | None = None         # fault-scenario spec (see
                                        # repro.fi.scenarios); None =
                                        # $REPRO_SCENARIO, else bit flips
    backend: str | None = None          # execution backend spec (inline /
                                        # process / distributed:host:port);
                                        # None = $REPRO_BACKEND, else
                                        # auto-select from jobs

    def __post_init__(self) -> None:
        check_positive_int(self.nprocs, "nprocs")
        check_positive_int(self.trials, "trials")
        check_positive_int(self.n_errors, "n_errors")
        check_positive_int(self.bits_per_error, "bits_per_error")
        if self.jobs is not None:
            check_positive_int(self.jobs, "jobs")
        if self.lanes is not None:
            check_positive_int(self.lanes, "lanes")
        if self.checkpoint_every is not None:
            check_positive_int(self.checkpoint_every, "checkpoint_every")
        if self.ci_halfwidth is not None and not 0.0 < self.ci_halfwidth < 0.5:
            raise ConfigurationError(
                f"ci_halfwidth must be in (0, 0.5), got {self.ci_halfwidth}"
            )
        if self.n_errors > 1 and self.target_rank is None and self.nprocs > 1:
            raise ConfigurationError(
                "multi-error deployments on parallel executions must pin target_rank"
            )
        if self.scenario is not None:
            # validate and canonicalize eagerly (parameterless bit flips
            # normalize to None) so equal configurations compare equal
            # and derive identical cache/checkpoint identities
            object.__setattr__(self, "scenario", canonical_scenario(self.scenario))
        if self.backend is not None:
            # validate eagerly so a bad spec fails at construction, not
            # mid-campaign; lazy import — the engine imports this module
            from repro.engine.backends import canonical_backend

            object.__setattr__(self, "backend", canonical_backend(self.backend))

    @property
    def effective_target_rank(self) -> int | None:
        """Serial multi-error emulation implicitly targets rank 0."""
        if self.target_rank is not None:
            return self.target_rank
        return 0 if self.n_errors > 1 else None


@dataclass
class CampaignResult:
    """Aggregated result of one deployment.

    ``joint`` maps ``(outcome, n_contaminated, activated)`` to trial
    counts — sufficient for outcome rates, propagation histograms, and
    the conditional success rates of the paper's Fig. 3.
    """

    app_name: str
    deployment: Deployment
    joint: dict[tuple[Outcome, int, bool], int]
    parallel_unique_fraction: float
    total_instructions: int
    candidate_instructions: int
    profile_time: float
    injection_time: float
    records: list[TrialRecord] = field(default_factory=list)

    # ------------------------------------------------------------------
    @property
    def n_trials(self) -> int:
        """Total fault-injection tests aggregated in this result."""
        return sum(self.joint.values())

    def outcome_count(self, outcome: Outcome) -> int:
        """Number of tests that ended with ``outcome``."""
        return sum(c for (o, _, _), c in self.joint.items() if o == outcome)

    def rate(self, outcome: Outcome) -> float:
        """Fraction of tests with ``outcome`` (the paper's FI result)."""
        n = self.n_trials
        return self.outcome_count(outcome) / n if n else float("nan")

    @property
    def success_rate(self) -> float:
        return self.rate(Outcome.SUCCESS)

    @property
    def sdc_rate(self) -> float:
        return self.rate(Outcome.SDC)

    @property
    def failure_rate(self) -> float:
        return self.rate(Outcome.FAILURE)

    # ------------------------------------------------------------------
    def propagation_counts(self) -> dict[int, int]:
        """Trials per contaminated-process count (activated trials only)."""
        out: dict[int, int] = {}
        for (_, ncont, activated), c in self.joint.items():
            if activated and ncont >= 1:
                out[ncont] = out.get(ncont, 0) + c
        return out

    def success_rate_given_contaminated(self, n: int) -> float | None:
        """Success rate among activated trials with ``n`` ranks contaminated.

        Returns None when no such trial occurred (the paper's "missing
        bars" in Fig. 3).
        """
        total = succ = 0
        for (o, ncont, activated), c in self.joint.items():
            if activated and ncont == n:
                total += c
                if o == Outcome.SUCCESS:
                    succ += c
        return succ / total if total else None

    def activation_rate(self) -> float:
        """Share of tests whose planned flips all actually fired."""
        n = self.n_trials
        act = sum(c for (_, _, a), c in self.joint.items() if a)
        return act / n if n else float("nan")


def run_one_trial(
    app: AppProtocol,
    deployment: Deployment,
    profile: InstructionProfile,
    reference: dict,
    trial: int,
    obs,
) -> TrialRecord:
    """Execute fault-injection test ``trial`` of ``deployment``.

    Dispatches to the deployment's fault-scenario family
    (:mod:`repro.fi.scenarios`; ``None`` = the default transient bit
    flips).  Every family guarantees that per-trial decisions depend
    only on ``(deployment.seed, trial)`` via
    :func:`~repro.utils.rng.trial_seed`, so trials can run in any order
    — or in any process — and produce identical records.  Both the
    serial campaign loop and the parallel workers
    (:mod:`repro.engine`) call this one function.
    """
    model = resolve_model(deployment.scenario)
    return model.run_trial(app, deployment, profile, reference, trial, obs)


def _resolve_jobs(jobs: int | None, deployment: Deployment) -> int:
    """Worker count precedence: call arg > ``Deployment.jobs`` > env."""
    if jobs is None:
        jobs = deployment.jobs
    if jobs is None:
        return default_jobs()
    return check_positive_int(jobs, "jobs")


def _resolve_lanes(lanes: int | None, deployment: Deployment) -> int:
    """Lane count precedence: call arg > ``Deployment.lanes`` > env."""
    if lanes is None:
        lanes = deployment.lanes
    if lanes is None:
        return default_lanes()
    return check_positive_int(lanes, "lanes")


def _resolve_checkpoint_every(
    checkpoint_every: int | None, deployment: Deployment
) -> int | None:
    """Checkpoint interval precedence: call arg > deployment > env > off."""
    if checkpoint_every is None:
        checkpoint_every = deployment.checkpoint_every
    if checkpoint_every is None:
        return default_checkpoint_every()
    return check_positive_int(checkpoint_every, "checkpoint_every")


def _resolve_backend(backend: str | None, deployment: Deployment) -> str | None:
    """Backend spec precedence: call arg > ``Deployment.backend`` > env.

    Purely an execution knob — like ``jobs`` it never changes results,
    so (unlike the precision target and the scenario) it stays out of
    cache keys and checkpoint identities.
    """
    if backend is not None:
        from repro.engine.backends import canonical_backend

        return canonical_backend(backend)
    if deployment.backend is not None:
        return deployment.backend  # canonicalized at construction
    return default_backend()


def with_resolved_ci(
    deployment: Deployment, ci_halfwidth: float | None = None
) -> Deployment:
    """Materialize the effective precision target into the deployment.

    Precedence: call arg > ``Deployment.ci_halfwidth`` >
    ``$REPRO_CI_HALFWIDTH`` > None (fixed-N).  Unlike execution knobs
    (``jobs``, ``checkpoint_every``), the target *changes the executed
    trial set*, so it must be pinned into the deployment before cache
    keys or checkpoint identities are derived — both
    :func:`run_campaign` and :func:`repro.fi.cache.cached_campaign`
    resolve through here so the three always agree.
    """
    if ci_halfwidth is None:
        ci_halfwidth = deployment.ci_halfwidth
    if ci_halfwidth is None:
        ci_halfwidth = default_ci_halfwidth()
    if ci_halfwidth == deployment.ci_halfwidth:
        return deployment
    return replace(deployment, ci_halfwidth=ci_halfwidth)


def with_resolved_scenario(
    deployment: Deployment, scenario: str | None = None
) -> Deployment:
    """Materialize the effective fault scenario into the deployment.

    Precedence: call arg > ``Deployment.scenario`` > ``$REPRO_SCENARIO``
    > bit flips.  Like the precision target — and unlike pure execution
    knobs — the scenario *changes what each trial does*, so it must be
    pinned into the deployment before cache keys or checkpoint
    identities are derived; both :func:`run_campaign` and
    :func:`repro.fi.cache.cached_campaign` resolve through here.  The
    canonical form of the parameterless default family is ``None``, so
    deployments that never mention scenarios keep their pre-scenario
    cache entries and checkpoint directories.
    """
    if scenario is not None:
        scenario = canonical_scenario(scenario)
    elif deployment.scenario is not None:
        scenario = deployment.scenario
    else:
        scenario = default_scenario()
    if scenario == deployment.scenario:
        return deployment
    return replace(deployment, scenario=scenario)


def run_campaign(
    app: AppProtocol,
    deployment: Deployment,
    keep_records: bool = False,
    jobs: int | None = None,
    lanes: int | None = None,
    checkpoint_every: int | None = None,
    resume: bool | None = None,
    ci_halfwidth: float | None = None,
    scenario: str | None = None,
    backend: str | None = None,
) -> CampaignResult:
    """Run a full fault-injection deployment for ``app``.

    A fault-free profiling pass first records the reference output and
    the per-rank dynamic-instruction profile; trial execution is then
    handed to the campaign engine (:mod:`repro.engine`), which samples
    an injection plan per trial from the profile and re-executes the
    application with the tracer armed.  Crashes
    (:class:`FaultActivatedError`), hangs (deadlocks) and communicator
    breakdown caused by fault-perturbed control flow are classified as
    ``FAILURE``.

    ``jobs`` > 1 fans the trials out over this process's warm worker
    pool, which lives until the process exits; the result — including
    the ``joint`` distribution the disk cache persists — is bit-identical
    to the serial path for any worker count.  ``lanes=N`` batches N
    trials into one lane-vectorized pass through the application (see
    ``docs/performance.md``) — records, events, and provenance stay
    bit-identical to ``lanes=1``, and the knob composes freely with
    ``jobs`` and checkpoint/resume.
    ``checkpoint_every=N`` persists completed trial chunks as
    they finish, and ``resume=True`` recovers an interrupted campaign's
    durable chunks and re-runs only the missing ones — still
    bit-identical to an uninterrupted serial run (see ``docs/engine.md``).

    ``ci_halfwidth=H`` switches the deployment to adaptive precision
    targeting: ``deployment.trials`` becomes a *cap*, and trials stop as
    soon as every outcome rate's 95% Wilson half-width is at or below H
    (see ``docs/adaptive.md``) — still bit-identical for any ``jobs``
    and across interrupt/resume.

    ``scenario`` selects the fault-scenario family executed per trial
    (``"bitflip"`` — the default — ``"rankkill"``, ``"msgcorrupt"``;
    see ``docs/scenarios.md``).  Scenarios compose with every knob
    above, except that only the bit-flip family supports lane batching
    — other families fall back to the scalar path with a one-line
    warning.

    ``backend`` pins *where* chunks execute — ``"inline"``,
    ``"process"``, or ``"distributed:host:port"`` (a controller socket
    that warm worker processes connect to; see ``docs/distributed.md``)
    — overriding the jobs-based auto-selection.  Another pure execution
    knob: results stay bit-identical across backends, worker counts and
    worker churn.
    """
    deployment = with_resolved_scenario(
        with_resolved_ci(deployment, ci_halfwidth), scenario
    )
    n_jobs = _resolve_jobs(jobs, deployment)
    obs = get_recorder()
    # the one lane-fallback decision: the engine runs what it is given
    n_lanes = _resolve_lanes(lanes, deployment)
    model = resolve_model(deployment.scenario)
    if n_lanes > 1 and not model.supports_lanes:
        print(
            f"repro: warning: scenario {model.name!r} does not support "
            f"lane batching; running trials on the scalar path",
            file=sys.stderr,
        )
        n_lanes = 1
    # profiling meters per-trial op counts, which a batched pass cannot
    if obs.enabled and obs.profiling:
        n_lanes = 1
    ckpt_every = _resolve_checkpoint_every(checkpoint_every, deployment)
    do_resume = default_resume() if resume is None else resume
    backend_spec = _resolve_backend(backend, deployment)
    # the recorder accumulates across campaigns, so the profiler scopes
    # this campaign's span/op deltas (emitted as one CampaignProfile)
    prof_scope = (
        ProfileScope(obs) if obs.enabled and obs.profiling else None
    )
    # Like the profiler, tracing scopes this campaign's slice of the
    # recorder's cumulative span list.  Trace/span ids hash logical
    # identity only (app cache key + deployment key), never the clock,
    # so the same deployment traces to the same ids in every run.
    tracing = obs.enabled and obs.tracing
    trace_scope = None
    prev_trace_ctx = obs.trace_ctx
    if tracing:
        from repro.fi.cache import deployment_key  # circular at import time

        trace_id = trace_id_from(app.cache_key(), deployment_key(deployment))
        trace_ctx = TraceContext(trace_id, span_id_from(trace_id, "campaign"))
        obs.trace_ctx = trace_ctx
        trace_scope = TraceScope(obs)
        campaign_w0 = time.time()
        campaign_p0 = time.perf_counter()
    obs.emit(CampaignStarted(
        app=app.name, nprocs=deployment.nprocs, trials=deployment.trials,
        n_errors=deployment.n_errors, seed=deployment.seed,
    ))
    try:
        with obs.span("campaign"):
            t0 = time.perf_counter()
            prof_w0 = time.time() if tracing else 0.0
            with obs.span("profile"):
                profile_tracer = Tracer(TracerMode.PROFILE)
                outputs = execute_spmd(
                    app.program, deployment.nprocs, sink=profile_tracer,
                    max_steps=deployment.max_steps,
                )
            reference = outputs[0]
            if reference is None:
                raise ConfigurationError(
                    f"app {app.name!r} returned no output at rank 0"
                )
            profile: InstructionProfile = profile_tracer.profile
            profile_time = time.perf_counter() - t0
            if tracing:
                obs.add_trace_span(make_span(
                    "profile", "phase", trace_ctx.derive("phase", "profile"),
                    trace_ctx.span_id, prof_w0, profile_time,
                ))

            t1 = time.perf_counter()
            # imported lazily: the engine imports this module in turn
            if deployment.ci_halfwidth is not None:
                from repro.engine.adaptive import run_adaptive_trials

                joint, records = run_adaptive_trials(
                    app, deployment, profile, reference,
                    target=deployment.ci_halfwidth,
                    keep_records=keep_records, jobs=n_jobs, lanes=n_lanes,
                    checkpoint_every=ckpt_every, resume=do_resume,
                    backend=backend_spec,
                )
            else:
                from repro.engine import run_trials

                joint, records = run_trials(
                    app, deployment, profile, reference,
                    keep_records=keep_records, jobs=n_jobs, lanes=n_lanes,
                    checkpoint_every=ckpt_every, resume=do_resume,
                    backend=backend_spec,
                )
            injection_time = time.perf_counter() - t1
    finally:
        obs.trace_ctx = prev_trace_ctx

    if prof_scope is not None:
        # after the campaign span closes, so the delta includes its total
        obs.emit(prof_scope.to_event(app.name))
    if tracing:
        # the campaign span closes the tree; emitted as one event so
        # sinks can route it (obs.configure sends it to the timeline
        # sidecar, never the main trace)
        obs.add_trace_span(make_span(
            f"campaign {app.name}", "campaign", trace_ctx, "",
            campaign_w0, time.perf_counter() - campaign_p0,
            args={"app": app.name, "nprocs": deployment.nprocs,
                  "trials": deployment.trials, "seed": deployment.seed},
        ))
        obs.emit(trace_scope.to_event(app.name, trace_id))
    result = CampaignResult(
        app_name=app.name,
        deployment=deployment,
        joint=joint,
        parallel_unique_fraction=profile.parallel_unique_fraction(),
        total_instructions=profile.total_instructions(),
        candidate_instructions=sum(profile.candidates(r) for r in profile.ranks),
        profile_time=profile_time,
        injection_time=injection_time,
        records=records,
    )
    obs.emit(CampaignFinished(
        app=app.name, trials=result.n_trials,
        success_rate=result.success_rate, sdc_rate=result.sdc_rate,
        failure_rate=result.failure_rate,
        profile_time=profile_time, injection_time=injection_time,
    ))
    return result

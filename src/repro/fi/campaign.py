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

import sys
import time
from dataclasses import dataclass, field
from typing import Generator, Protocol

from repro import knobs
from repro.errors import ConfigurationError
from repro.fi.outcomes import Outcome, TrialRecord
from repro.fi.profile import InstructionProfile
from repro.fi.scenarios import resolve_model
from repro.fi.tracer import Tracer, TracerMode
from repro.mpisim.runner import execute_spmd
from repro.obs import (
    CampaignFinished,
    CampaignScope,
    CampaignStarted,
    get_recorder,
)
from repro.obs.trace import trace_id_from
from repro.taint.region import Region
from repro.utils.validation import check_positive_int

__all__ = [
    "Deployment", "CampaignResult", "run_campaign", "run_one_trial",
    "AppProtocol",
]


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
    """One fault-injection configuration (paper: 'fault injection deployment').

    The last six fields are knobs (see :mod:`repro.knobs`): None means
    "not set here", and :func:`run_campaign` fills them from its
    arguments, then ``$REPRO_*``, then the built-in defaults.
    """

    nprocs: int
    trials: int
    n_errors: int = 1
    region: Region | None = None        # None = sample by candidate share
    target_rank: int | None = None      # None = uniform victim per test
    seed: int = 0
    max_steps: int | None = None        # scheduler runaway guard
    bits_per_error: int = 1             # >1 = multi-bit fault pattern
    jobs: int | None = None             # worker processes
    lanes: int | None = None            # trials batched per execution pass
    checkpoint_every: int | None = None  # trials per durable checkpoint
    ci_halfwidth: float | None = None   # adaptive precision target
    scenario: str | None = None         # fault-scenario spec (see
                                        # repro.fi.scenarios)
    backend: str | None = None          # execution backend spec (inline /
                                        # process / distributed:host:port)

    def __post_init__(self) -> None:
        check_positive_int(self.nprocs, "nprocs")
        check_positive_int(self.trials, "trials")
        check_positive_int(self.n_errors, "n_errors")
        check_positive_int(self.bits_per_error, "bits_per_error")
        if self.n_errors > 1 and self.target_rank is None and self.nprocs > 1:
            raise ConfigurationError(
                "multi-error deployments on parallel executions must pin target_rank"
            )
        # validate and canonicalize eagerly, so a bad value fails at
        # construction and equal configurations (e.g. scenario "bitflip"
        # and None) derive identical cache/checkpoint identities
        for knob in knobs.FIELD_KNOBS:
            value = getattr(self, knob.field)
            if value is not None:
                object.__setattr__(self, knob.field, knob.parse(value, knob.field))

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
    — or in any process — and produce identical records.  The serial
    loop and the parallel workers (:mod:`repro.engine`) run every trial
    outside a lane block or a forked block through this one function.
    """
    model = resolve_model(deployment.scenario)
    return model.run_trial(app, deployment, profile, reference, trial, obs)


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

    The knob arguments override the deployment's fields, which override
    ``$REPRO_*`` (see :mod:`repro.knobs` and the knob table in
    ``docs/engine.md``); the result's ``deployment`` carries the resolved
    values.

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
    — other families fall back to the scalar path, with a one-line
    warning when ``lanes`` > 1 was set rather than left to its default.
    Instead, rank-kill and message-corruption chunks fork their trials
    off one shared fault-free execution (unprofiled runs, in a process
    that may fork) — again bit-identical.

    ``backend`` pins *where* chunks execute — ``"inline"``,
    ``"process"``, or ``"distributed:host:port"`` (a controller socket
    that warm worker processes connect to; see ``docs/distributed.md``)
    — overriding the jobs-based auto-selection.  Another pure execution
    knob: results stay bit-identical across backends, worker counts and
    worker churn.
    """
    lanes_asked = knobs.is_set("lanes", deployment, lanes)
    deployment = knobs.resolve(
        deployment, jobs=jobs, lanes=lanes, checkpoint_every=checkpoint_every,
        ci_halfwidth=ci_halfwidth, scenario=scenario, backend=backend,
    )
    do_resume = knobs.env_value("resume") if resume is None else resume
    obs = get_recorder()
    # the one lane-fallback decision: the engine runs what it is given.
    # Only a lane count someone asked for is worth a warning; the
    # built-in default falls back silently.
    n_lanes = deployment.lanes
    model = resolve_model(deployment.scenario)
    if n_lanes > 1 and not model.supports_lanes:
        if lanes_asked:
            print(
                f"repro: warning: scenario {model.name!r} does not support "
                f"lane batching; running trials on the scalar path",
                file=sys.stderr,
            )
        n_lanes = 1
    # profiling meters per-trial op counts, which a batched pass cannot
    if obs.enabled and obs.profiling:
        n_lanes = 1
    # Trace/span ids hash logical identity only (app cache key +
    # deployment key), never the clock, so the same deployment traces to
    # the same ids in every run.
    trace_id = None
    if obs.enabled and obs.tracing:
        from repro.fi.cache import deployment_key  # circular at import time

        trace_id = trace_id_from(app.cache_key(), deployment_key(deployment))
    # the recorder accumulates across campaigns: the scope slices out
    # this campaign's span/op deltas and causal spans, and roots the tree
    scope = CampaignScope(obs, app.name, trace_id)
    obs.emit(CampaignStarted(
        app=app.name, nprocs=deployment.nprocs, trials=deployment.trials,
        n_errors=deployment.n_errors, seed=deployment.seed,
    ))
    with scope, obs.span(
        "campaign", cat="campaign", label=f"campaign {app.name}",
        args={"app": app.name, "nprocs": deployment.nprocs,
              "trials": deployment.trials, "seed": deployment.seed},
    ):
        t0 = time.perf_counter()
        with obs.span("profile", "profile"):
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

        t1 = time.perf_counter()
        # imported lazily: the engine imports this module in turn
        from repro.engine import run_trials

        joint, records = run_trials(
            app, deployment, profile, reference,
            keep_records=keep_records, jobs=deployment.jobs, lanes=n_lanes,
            checkpoint_every=deployment.checkpoint_every,
            resume=do_resume, backend=deployment.backend,
        )
        injection_time = time.perf_counter() - t1

    # after the campaign span closes, so the profile delta includes its
    # total and the trace holds the root; the trace event is routed by
    # its sinks (obs.configure sends it to the timeline sidecar)
    for event in scope.events():
        obs.emit(event)
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

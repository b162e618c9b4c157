"""Adaptive stopping: unit properties and statistical guarantees.

Two layers of testing for :mod:`repro.engine.adaptive`:

* exact unit properties of the sizing functions (``min_trials_for`` /
  ``worst_case_trials`` / ``projected_trials``) and the
  :class:`AdaptiveStopper` decision rule, and
* a Monte-Carlo guarantee test: Bernoulli simulations at known true
  rates, driven through the *actual* stopping rule across a seed grid
  (plain seeded ``random``, no extra dependencies), asserting that
  converged campaigns achieve the requested half-width and that the
  reported Wilson intervals keep close to their nominal 95 % coverage
  despite the optional stopping.

A real MG campaign then checks the saving on injected trials at
``jobs=1`` and ``jobs=2``, and the CLI runs kill-and-resume end to end.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.apps import get_app
from repro.engine.adaptive import (
    MIN_WAVE_TRIALS,
    AdaptiveStopper,
    achieved_halfwidths,
    min_trials_for,
    projected_trials,
    wilson_halfwidth,
    worst_case_trials,
)
from repro.fi.campaign import Deployment, run_campaign
from repro.fi.outcomes import Outcome
from repro.obs import CampaignConverged, MemorySink, Recorder, recording
from repro.obs.confidence import wilson_interval


# ----------------------------------------------------------------------
# exact properties of the sizing functions
# ----------------------------------------------------------------------
TARGETS = [0.02, 0.05, 0.08, 0.1, 0.2]


class TestSizingFunctions:
    @pytest.mark.parametrize("target", TARGETS)
    def test_min_trials_for_is_tight(self, target):
        n = min_trials_for(target)
        assert wilson_halfwidth(0, n) <= target
        if n > 1:
            assert wilson_halfwidth(0, n - 1) > target

    @pytest.mark.parametrize("target", TARGETS)
    def test_worst_case_trials_is_tight(self, target):
        n = worst_case_trials(target)
        assert wilson_halfwidth(n // 2, n) <= target
        assert wilson_halfwidth((n - 1) // 2, n - 1) > target

    @pytest.mark.parametrize("target", TARGETS)
    def test_worst_case_dominates_every_rate(self, target):
        """At the worst-case budget, *any* observed count meets the target."""
        n = worst_case_trials(target)
        assert max(wilson_halfwidth(k, n) for k in range(n + 1)) <= target

    def test_projected_trials_is_tight_at_stable_rate(self):
        target = 0.05
        k, n = 30, 100  # p = 0.3: far from converged at n = 100
        m = projected_trials(k, n, target)
        assert m > n
        p = k / n
        assert wilson_halfwidth(round(p * m), m) <= target
        assert wilson_halfwidth(round(p * (m - 1)), m - 1) > target

    def test_projected_trials_already_converged_returns_n(self):
        assert projected_trials(0, 1000, 0.05) == 1000

    def test_projected_trials_respects_cap(self):
        # p = 1/2 at a tiny cap: unreachable, so the cap comes back
        assert projected_trials(10, 20, 0.01, cap=50) == 50

    def test_projected_trials_empty_history(self):
        assert projected_trials(0, 0, 0.05) == min_trials_for(0.05)

    def test_achieved_halfwidths_tracks_all_outcomes(self):
        joint = {(Outcome.SUCCESS, 0, True): 90, (Outcome.SDC, 1, True): 10}
        hws = achieved_halfwidths(joint)
        assert set(hws) == set(Outcome)
        # the unobserved outcome (k = 0) has the narrowest interval
        assert hws[Outcome.FAILURE] <= hws[Outcome.SDC]
        assert hws[Outcome.FAILURE] == wilson_halfwidth(0, 100)


class TestStopperRule:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError, match="half-width"):
            AdaptiveStopper(0.0, 100)
        with pytest.raises(ValueError, match="half-width"):
            AdaptiveStopper(0.5, 100)
        with pytest.raises(ValueError, match="cap"):
            AdaptiveStopper(0.05, 0)

    def test_empty_joint_never_converged(self):
        assert not AdaptiveStopper(0.05, 100).converged({})

    def test_first_boundary_is_min_viable_wave(self):
        stopper = AdaptiveStopper(0.05, 10_000)
        assert stopper.next_boundary({}, 0) == max(
            MIN_WAVE_TRIALS, min_trials_for(0.05)
        )

    def test_boundaries_make_progress_and_respect_cap(self):
        stopper = AdaptiveStopper(0.05, 100)
        joint = {(Outcome.SUCCESS, 0, False): 50, (Outcome.SDC, 1, True): 50}
        b = stopper.next_boundary(joint, 90)
        assert 90 < b <= 100

    def test_boundary_floor_is_min_wave(self):
        # a nearly-converged campaign still advances by a full wave
        stopper = AdaptiveStopper(0.05, 10_000)
        joint = {(Outcome.SUCCESS, 0, False): 390, (Outcome.SDC, 1, True): 2}
        b = stopper.next_boundary(joint, 392)
        assert b >= 392 + MIN_WAVE_TRIALS


# ----------------------------------------------------------------------
# Monte-Carlo: the statistical guarantee, via the real decision rule
# ----------------------------------------------------------------------
def simulate_adaptive(p: float, target: float, cap: int, seed: int):
    """Drive the actual stopping rule on Bernoulli(p) SDC draws.

    Mirrors the wave loop of ``repro.engine.core.run_trials`` with simulated
    trial results: outcome is SDC with probability ``p``, else SUCCESS.
    Returns ``(n_sdc, n_done, converged, stopper)``.
    """
    rng = random.Random(seed)
    stopper = AdaptiveStopper(target, cap)
    joint: dict[tuple[Outcome, int, bool], int] = {}
    n_done = 0
    while not stopper.converged(joint) and n_done < cap:
        boundary = stopper.next_boundary(joint, n_done)
        for _ in range(boundary - n_done):
            oc = Outcome.SDC if rng.random() < p else Outcome.SUCCESS
            key = (oc, 1 if oc is Outcome.SDC else 0, oc is Outcome.SDC)
            joint[key] = joint.get(key, 0) + 1
        n_done = boundary
    n_sdc = sum(c for (oc, _, _), c in joint.items() if oc is Outcome.SDC)
    return n_sdc, n_done, stopper.converged(joint), stopper


class TestStatisticalGuarantee:
    TARGET = 0.05

    @pytest.mark.parametrize("p", [0.02, 0.1, 0.25, 0.5])
    def test_converged_runs_achieve_target(self, p):
        cap = worst_case_trials(self.TARGET)
        for seed in range(30):
            n_sdc, n_done, converged, stopper = simulate_adaptive(
                p, self.TARGET, cap, seed
            )
            assert n_done <= cap
            # the cap equals the worst-case fixed budget, so the rule
            # *always* converges by the time it is exhausted
            assert converged
            hw = wilson_halfwidth(n_sdc, n_done)
            assert hw <= self.TARGET, (
                f"p={p} seed={seed}: achieved ±{hw:.4f} > ±{self.TARGET}"
            )

    def test_skewed_rates_save_trials(self):
        """The economic claim: skewed rates stop well before the cap."""
        cap = worst_case_trials(self.TARGET)
        used = [
            simulate_adaptive(0.03, self.TARGET, cap, seed)[1]
            for seed in range(30)
        ]
        assert max(used) <= 0.75 * cap, (
            f"adaptive used {max(used)} of cap {cap}: expected >=25% savings"
        )

    def test_balanced_rates_cannot_beat_worst_case(self):
        """p = 1/2 is the worst case: the rule must spend ~the full cap."""
        cap = worst_case_trials(self.TARGET)
        for seed in range(10):
            _, n_done, converged, _ = simulate_adaptive(
                0.5, self.TARGET, cap, seed
            )
            assert converged
            assert n_done >= 0.9 * cap

    @pytest.mark.parametrize("p", [0.1, 0.3])
    def test_wilson_coverage_survives_optional_stopping(self, p):
        """Empirical coverage of the reported 95 % interval >= ~93 %.

        Sequential stopping invalidates naive fixed-n coverage claims in
        general; this pins down that *this* rule's early looks cost at
        most a couple of points of coverage at realistic rates.
        """
        cap = worst_case_trials(self.TARGET)
        runs = 250
        hits = 0
        for seed in range(runs):
            n_sdc, n_done, _, _ = simulate_adaptive(p, self.TARGET, cap, seed)
            ci = wilson_interval(n_sdc, n_done)
            hits += ci.low <= p <= ci.high
        coverage = hits / runs
        assert coverage >= 0.93, f"p={p}: empirical coverage {coverage:.3f}"

    def test_decision_sequence_is_deterministic(self):
        """Same (p, target, cap, seed) => identical executed-trial count."""
        a = simulate_adaptive(0.1, 0.05, 1000, 7)
        b = simulate_adaptive(0.1, 0.05, 1000, 7)
        assert (a[0], a[1], a[2]) == (b[0], b[1], b[2])


# ----------------------------------------------------------------------
# a real campaign: the saving holds on injected trials, at any --jobs
# ----------------------------------------------------------------------
def run_adaptive_campaign(jobs: int):
    """MG at 4 ranks, ±0.08, capped at the fixed-N worst-case budget."""
    target = 0.08
    deployment = Deployment(
        nprocs=4, trials=worst_case_trials(target), seed=123,
        ci_halfwidth=target,
    )
    mem = MemorySink()
    with recording(Recorder([mem])):
        result = run_campaign(get_app("mg"), deployment, jobs=jobs)
    (converged,) = mem.of(CampaignConverged)
    return result.joint, converged


class TestRealCampaign:
    def test_skewed_campaign_saves_trials_at_any_jobs(self):
        joint, conv = run_adaptive_campaign(jobs=1)
        assert conv.trials_cap == worst_case_trials(0.08) == 147
        assert conv.converged
        assert max(conv.halfwidths.values()) <= 0.08
        assert conv.trials_used <= 0.75 * conv.trials_cap, (
            f"adaptive used {conv.trials_used} of cap {conv.trials_cap}: "
            f"expected >=25% savings"
        )
        pooled_joint, pooled = run_adaptive_campaign(jobs=2)
        assert list(pooled_joint.items()) == list(joint.items())  # and order
        assert pooled.trials_used == conv.trials_used


# ----------------------------------------------------------------------
# end-to-end: the CLI, a mid-wave kill, and --resume
# ----------------------------------------------------------------------
class TestAdaptiveCrashResumeE2E:
    """An adaptive CLI run hard-killed mid-wave resumes byte-identically.

    The full stack in one test: ``--ci-halfwidth`` env relay through
    ``repro.experiments.cli``, the experiment harness, wave planning,
    checkpointing of a partially-planned layout, and recovery.  The
    child (``adaptive_child.py``) is a separate interpreter so the
    ``os._exit`` kill is real; see that module's docstring.
    """

    def test_killed_adaptive_cli_run_resumes_byte_identically(self, tmp_path):
        child = Path(__file__).with_name("adaptive_child.py")
        src = Path(repro.__file__).resolve().parents[1]
        env = {**os.environ,
               "PYTHONPATH": f"{src}{os.pathsep}" + os.environ.get(
                   "PYTHONPATH", "")}

        def run_child(mode, trace, out):
            return subprocess.run(
                [sys.executable, str(child), mode, str(tmp_path / trace),
                 str(tmp_path / out), str(tmp_path / "ckpt")],
                env=env, capture_output=True, text=True, timeout=300,
            )

        clean = run_child("clean", "clean.jsonl", "clean.json")
        assert clean.returncode == 0, clean.stderr

        crash = run_child("crash", "broken.jsonl", "unused.json")
        assert crash.returncode == 41, crash.stderr  # died mid-wave
        ckpt_dirs = list((tmp_path / "ckpt" / "checkpoints").glob("cg-*"))
        assert ckpt_dirs, "the killed run left no checkpoints behind"
        # the interrupted layout was persisted as *partial* (planned <
        # cap): the manifest must say so, or resume validation would
        # reject it
        meta = json.loads((ckpt_dirs[0] / "meta.json").read_text())
        assert meta["planned"] < meta["trials"]

        resume = run_child("resume", "broken.jsonl", "resumed.json")
        assert resume.returncode == 0, resume.stderr

        clean_out = json.loads((tmp_path / "clean.json").read_text())
        resumed_out = json.loads((tmp_path / "resumed.json").read_text())
        # identical executed trial stream (order included) and identical
        # convergence decisions (trials used, waves, half-widths)
        assert resumed_out == clean_out
        assert clean_out["converged"], "no adaptive campaign ran"
        assert all(c[3] <= c[4] for c in clean_out["converged"])
        assert (tmp_path / "broken.provenance.jsonl").read_bytes() == \
            (tmp_path / "clean.provenance.jsonl").read_bytes()

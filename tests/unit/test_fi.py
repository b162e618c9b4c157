"""Tests for the fault-injection layer: profile, plan, tracer, outcomes."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import InjectionPlanError
from repro.fi.outcomes import Outcome, classify_outcome, outputs_identical
from repro.fi.plan import InjectionPlan, PlannedFlip, sample_plan
from repro.fi.profile import InstructionProfile
from repro.fi.tracer import Tracer, TracerMode
from repro.taint.region import Region
from repro.taint.tracer_api import Operand, OpKind
from repro.utils.rng import spawn_rng


def make_profile(counts):
    prof = InstructionProfile()
    for (rank, region, kind), c in counts.items():
        prof.record(rank, region, kind, c)
    return prof


SIMPLE = {
    (0, Region.COMMON, OpKind.ADD): 60,
    (0, Region.COMMON, OpKind.MUL): 40,
    (0, Region.PARALLEL_UNIQUE, OpKind.ADD): 10,
    (0, Region.COMMON, OpKind.DIV): 5,
    (1, Region.COMMON, OpKind.ADD): 100,
}


class TestProfile:
    def test_candidates(self):
        prof = make_profile(SIMPLE)
        assert prof.candidates(0) == 110
        assert prof.candidates(0, Region.COMMON) == 100
        assert prof.candidates(1) == 100

    def test_total_instructions_includes_passive(self):
        prof = make_profile(SIMPLE)
        assert prof.total_instructions(0) == 115
        assert prof.total_instructions() == 215

    def test_unique_fraction(self):
        prof = make_profile(SIMPLE)
        assert prof.parallel_unique_fraction() == pytest.approx(10 / 210)

    def test_ranks_and_merged(self):
        prof = make_profile(SIMPLE)
        assert prof.ranks == [0, 1]
        assert prof.merged()[OpKind.ADD] == 170

    def test_zero_counts_ignored(self):
        prof = InstructionProfile()
        prof.record(0, Region.COMMON, OpKind.ADD, 0)
        assert prof.counts == {}


class TestPlanSampling:
    def test_plan_fields_within_bounds(self):
        prof = make_profile(SIMPLE)
        for t in range(50):
            plan = sample_plan(prof, spawn_rng(1, t))
            (flip,) = plan.flips
            assert flip.rank in (0, 1)
            assert 0 <= flip.bit < 64
            assert flip.index < prof.candidates(flip.rank, flip.region)

    def test_victim_uniform_over_ranks(self):
        prof = make_profile(SIMPLE)
        victims = [
            sample_plan(prof, spawn_rng(2, t)).flips[0].rank for t in range(400)
        ]
        share = sum(v == 0 for v in victims) / len(victims)
        assert 0.38 < share < 0.62  # uniform despite unequal counts

    def test_region_restriction(self):
        prof = make_profile(SIMPLE)
        plan = sample_plan(
            prof, spawn_rng(3, 0), region=Region.PARALLEL_UNIQUE, target_rank=0
        )
        assert plan.flips[0].region is Region.PARALLEL_UNIQUE
        assert plan.flips[0].index < 10

    def test_multi_error_distinct_instructions(self):
        prof = make_profile(SIMPLE)
        plan = sample_plan(
            prof, spawn_rng(4, 0), n_errors=20, target_rank=0, region=Region.COMMON
        )
        assert plan.n_errors == 20
        keys = {(f.region, f.index) for f in plan.flips}
        assert len(keys) == 20

    def test_multibit_shares_instruction_and_operand(self):
        prof = make_profile(SIMPLE)
        plan = sample_plan(prof, spawn_rng(40, 0), bits_per_error=3)
        assert len(plan.flips) == 3
        assert len({(f.rank, f.region, f.index, f.operand) for f in plan.flips}) == 1
        assert len({f.bit for f in plan.flips}) == 3

    @pytest.mark.parametrize("nprocs, digest", [
        (1, "a77f5b1e4574f38255ca83710c312a3b09e0ca2d6c692650ea1592f5119fc337"),
        (4, "1b84bd00411357e742b13c0b4b0071c053fe41d304a162987a9fdbba1e5c3866"),
    ])
    def test_plans_pinned_on_cg_profiles(self, nprocs, digest):
        """The same random draws in the same order give the same plans,
        however the candidate counts are computed."""
        import hashlib
        import json

        from repro.apps import get_app
        from repro.fi.scenarios.base import fault_free_run

        profile = fault_free_run(get_app("cg"), nprocs).profile()
        payloads = [
            sample_plan(
                profile, spawn_rng(seed, "plan"), n_errors=x,
                target_rank=0 if x > 1 and nprocs > 1 else None,
                region=region, bits_per_error=bits,
            ).to_payload()
            for seed in range(20) for x in (1, 8, 64)
            for region in (None, Region.COMMON) for bits in (1, 3)
        ]
        assert hashlib.sha256(json.dumps(payloads).encode()).hexdigest() == digest

    def test_multibit_validation(self):
        prof = make_profile(SIMPLE)
        with pytest.raises(InjectionPlanError):
            sample_plan(prof, spawn_rng(41, 0), bits_per_error=0)
        with pytest.raises(InjectionPlanError):
            sample_plan(prof, spawn_rng(41, 0), bits_per_error=65)

    def test_multi_error_requires_target_in_parallel(self):
        prof = make_profile(SIMPLE)
        with pytest.raises(InjectionPlanError):
            sample_plan(prof, spawn_rng(5, 0), n_errors=2)

    def test_too_many_errors_rejected(self):
        prof = make_profile({(0, Region.COMMON, OpKind.ADD): 3})
        with pytest.raises(InjectionPlanError):
            sample_plan(prof, spawn_rng(6, 0), n_errors=10, target_rank=0)

    def test_empty_profile_rejected(self):
        with pytest.raises(InjectionPlanError):
            sample_plan(InstructionProfile(), spawn_rng(7, 0))

    def test_unknown_target_rank(self):
        prof = make_profile(SIMPLE)
        with pytest.raises(InjectionPlanError):
            sample_plan(prof, spawn_rng(8, 0), target_rank=9)

    def test_bad_flip_fields(self):
        with pytest.raises(InjectionPlanError):
            PlannedFlip(rank=0, region=Region.COMMON, index=-1, operand=Operand.A, bit=0)
        with pytest.raises(InjectionPlanError):
            PlannedFlip(rank=0, region=Region.COMMON, index=0, operand=Operand.A, bit=64)


class TestTracerCursor:
    def _plan(self, *indices, region=Region.COMMON):
        return InjectionPlan(
            flips=tuple(
                PlannedFlip(rank=0, region=region, index=i, operand=Operand.A, bit=5)
                for i in indices
            )
        )

    def test_fires_inside_window(self):
        tracer = Tracer(TracerMode.INJECT, self._plan(12))
        assert not tracer.account(0, Region.COMMON, OpKind.ADD, 10)
        fired = tracer.account(0, Region.COMMON, OpKind.ADD, 10)
        assert len(fired) == 1 and fired[0].offset == 2
        assert tracer.all_flips_activated

    def test_multiple_flips_one_window(self):
        tracer = Tracer(TracerMode.INJECT, self._plan(3, 7, 25))
        fired = tracer.account(0, Region.COMMON, OpKind.MUL, 20)
        assert [f.offset for f in fired] == [3, 7]
        assert not tracer.all_flips_activated

    def test_region_streams_independent(self):
        tracer = Tracer(TracerMode.INJECT, self._plan(0, region=Region.PARALLEL_UNIQUE))
        assert tracer.account(0, Region.COMMON, OpKind.ADD, 100) == ()
        fired = tracer.account(0, Region.PARALLEL_UNIQUE, OpKind.ADD, 1)
        assert len(fired) == 1

    def test_noncandidate_never_fires(self):
        tracer = Tracer(TracerMode.INJECT, self._plan(0))
        assert tracer.account(0, Region.COMMON, OpKind.DIV, 50) == ()
        assert not tracer.all_flips_activated

    def test_unactivated_when_stream_too_short(self):
        tracer = Tracer(TracerMode.INJECT, self._plan(99))
        tracer.account(0, Region.COMMON, OpKind.ADD, 10)
        assert not tracer.all_flips_activated
        assert tracer.contaminated_count() == 0

    def test_contaminated_count_includes_victim(self):
        tracer = Tracer(TracerMode.INJECT, self._plan(0))
        tracer.account(0, Region.COMMON, OpKind.ADD, 1)
        assert tracer.contaminated_count() == 1  # victim counted
        tracer.mark_contaminated(4)
        assert tracer.contaminated_count() == 2

    def test_profile_mode_rejects_plan(self):
        with pytest.raises(ValueError):
            Tracer(TracerMode.PROFILE, self._plan(0))
        with pytest.raises(ValueError):
            Tracer(TracerMode.INJECT, None)

    def test_inject_mode_does_not_record_profile(self):
        tracer = Tracer(TracerMode.INJECT, self._plan(5))
        tracer.account(0, Region.COMMON, OpKind.ADD, 10)
        assert tracer.profile.counts == {}


class TestOutcomes:
    def test_identical_is_success(self):
        out = {"a": 1.0}
        assert classify_outcome(out, {"a": 1.0}, lambda o, r: False) is Outcome.SUCCESS

    def test_checker_pass_is_success(self):
        assert (
            classify_outcome({"a": 1.1}, {"a": 1.0}, lambda o, r: True)
            is Outcome.SUCCESS
        )

    def test_checker_fail_is_sdc(self):
        assert (
            classify_outcome({"a": 2.0}, {"a": 1.0}, lambda o, r: False)
            is Outcome.SDC
        )

    def test_outputs_identical_nan_aware(self):
        assert outputs_identical({"a": float("nan")}, {"a": float("nan")})
        assert not outputs_identical({"a": 1.0}, {"b": 1.0})
        assert not outputs_identical({"a": 1.0}, {"a": 2.0})

    def test_outputs_identical_arrays(self):
        assert outputs_identical({"a": np.ones(3)}, {"a": np.ones(3)})
        assert not outputs_identical({"a": np.ones(3)}, {"a": np.zeros(3)})

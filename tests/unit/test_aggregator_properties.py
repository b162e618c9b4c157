"""Property-based tests for the engine's chunk aggregator.

The :class:`~repro.engine.aggregate.ChunkAggregator` is the keystone of
the engine's bit-reproducibility contract: payloads may arrive in *any*
order (pool completion order, checkpoint recovery order, adaptive
waves), but the fold must behave exactly as if the serial loop had
visited the trials in order.  These tests drive that claim with brute
force — every permutation of arrival orders for small chunk counts,
plus seeded random samples for larger ones (plain ``random``, no extra
dependencies) — and compare three observables against in-order
delivery: the joint distribution (content *and* insertion order), the
re-emitted event stream, and the serialized provenance bytes.
"""

from __future__ import annotations

import itertools
import json
import random

import pytest

from repro.engine.aggregate import ChunkAggregator
from repro.engine.chunks import ChunkPayload, EngineContext, execute_chunk
from repro.fi.outcomes import Outcome, TrialRecord
from repro.obs import JsonlSink, MemorySink, ObsSnapshot, Recorder
from repro.obs.events import TrialFinished, TrialProvenance


# ----------------------------------------------------------------------
# synthetic payloads: deterministic, distinct per trial, cheap
# ----------------------------------------------------------------------
_OUTCOMES = [Outcome.SUCCESS, Outcome.SDC, Outcome.FAILURE]


def make_payload(lo: int, hi: int) -> ChunkPayload:
    """A synthetic chunk whose content is a pure function of its bounds."""
    joint: dict[tuple[Outcome, int, bool], int] = {}
    records: list[TrialRecord] = []
    events: list = []
    for trial in range(lo, hi):
        outcome = _OUTCOMES[trial % 3]
        ncont = trial % 4
        activated = trial % 2 == 0
        key = (outcome, ncont, activated)
        joint[key] = joint.get(key, 0) + 1
        records.append(TrialRecord(
            outcome=outcome, n_contaminated=ncont, activated=activated,
            detail=f"trial-{trial}",
        ))
        events.append(TrialFinished(
            trial=trial, outcome=outcome.value, n_contaminated=ncont,
            activated=activated, duration_s=0.0,
        ))
        events.append(TrialProvenance(
            trial=trial, outcome=outcome.value, n_contaminated=ncont,
            activated=activated, detail=f"trial-{trial}",
            planned=[{"rank": 0, "index": trial, "bit": trial % 52}],
            fired=[], timeline=[[trial, 0]],
        ))
    spread = [t % 4 for t in range(lo, hi)]
    snapshot = ObsSnapshot(
        counters={f"campaign.trials.{_OUTCOMES[0].value}": hi - lo},
        histograms={"taint.contamination_spread": [
            len(spread), sum(spread), min(spread), max(spread),
        ]},
        span_totals={"campaign/trial": [hi - lo, 0.001 * (hi - lo)]},
        events=events,
    )
    return ChunkPayload(
        start=lo, stop=hi, joint=joint, records=records, obs=snapshot,
    )


def chunk_layout(n_chunks: int, size: int = 3) -> list[tuple[int, int]]:
    return [(i * size, (i + 1) * size) for i in range(n_chunks)]


def fold_in_order(chunks, payloads, order, tmp_path, tag: str):
    """Fold ``payloads`` arriving in ``order``; capture every observable.

    Returns (joint items, records, memory events, provenance bytes) —
    the provenance stream goes through a real timestamp-free JsonlSink,
    the same configuration ``obs.configure`` uses for ``*.provenance.jsonl``.
    """
    prov_path = tmp_path / f"{tag}.provenance.jsonl"
    mem = MemorySink()
    sinks = [
        mem,
        JsonlSink(prov_path, only=(TrialProvenance,), stamp_ts=False),
    ]
    recorder = Recorder(sinks, enabled=True)
    agg = ChunkAggregator(chunks, recorder)
    for i in order:
        agg.add(payloads[i])
    joint, records = agg.finish()
    recorder.close()
    return (
        list(joint.items()),
        records,
        list(mem.events),
        prov_path.read_bytes(),
    )


class TestArrivalOrderInvariance:
    @pytest.mark.parametrize("n_chunks", [1, 2, 3, 4])
    def test_every_permutation_matches_in_order(self, n_chunks, tmp_path):
        """Exhaustive: all n! arrival orders produce identical artifacts."""
        chunks = chunk_layout(n_chunks)
        payloads = [make_payload(lo, hi) for lo, hi in chunks]
        reference = fold_in_order(
            chunks, payloads, range(n_chunks), tmp_path, "ref"
        )
        for k, perm in enumerate(itertools.permutations(range(n_chunks))):
            got = fold_in_order(chunks, payloads, perm, tmp_path, f"perm{k}")
            assert got[0] == reference[0], f"joint diverged for {perm}"
            assert got[1] == reference[1], f"records diverged for {perm}"
            assert got[2] == reference[2], f"event order diverged for {perm}"
            assert got[3] == reference[3], f"provenance bytes diverged for {perm}"

    def test_sampled_permutations_for_larger_layouts(self, tmp_path):
        """Seeded random sample of arrival orders at 8 chunks (8! is too many)."""
        n_chunks = 8
        chunks = chunk_layout(n_chunks, size=2)
        payloads = [make_payload(lo, hi) for lo, hi in chunks]
        reference = fold_in_order(
            chunks, payloads, range(n_chunks), tmp_path, "ref"
        )
        rng = random.Random(0xA11C)
        for k in range(40):
            perm = list(range(n_chunks))
            rng.shuffle(perm)
            got = fold_in_order(chunks, payloads, perm, tmp_path, f"s{k}")
            assert got[0] == reference[0], f"joint diverged for {perm}"
            assert got[1] == reference[1], f"records diverged for {perm}"
            assert got[2] == reference[2], f"event order diverged for {perm}"
            assert got[3] == reference[3], f"provenance bytes diverged for {perm}"

    def test_ragged_chunk_sizes(self, tmp_path):
        """Uneven layouts (adaptive waves' tail chunks) stay invariant."""
        chunks = [(0, 5), (5, 6), (6, 13), (13, 15)]
        payloads = [make_payload(lo, hi) for lo, hi in chunks]
        reference = fold_in_order(chunks, payloads, range(4), tmp_path, "ref")
        for k, perm in enumerate(itertools.permutations(range(4))):
            got = fold_in_order(chunks, payloads, perm, tmp_path, f"r{k}")
            assert got == reference, f"diverged for {perm}"

    def test_events_replay_in_trial_order(self, tmp_path):
        """The re-emitted stream is sorted by trial even for reversed arrival."""
        chunks = chunk_layout(4)
        payloads = [make_payload(lo, hi) for lo, hi in chunks]
        _, _, events, _ = fold_in_order(
            chunks, payloads, [3, 2, 1, 0], tmp_path, "rev"
        )
        trials = [e.trial for e in events if isinstance(e, TrialFinished)]
        assert trials == sorted(trials) == list(range(12))

    def test_provenance_file_covers_every_trial_once(self, tmp_path):
        chunks = chunk_layout(3)
        payloads = [make_payload(lo, hi) for lo, hi in chunks]
        _, _, _, raw = fold_in_order(
            chunks, payloads, [2, 0, 1], tmp_path, "cov"
        )
        lines = [json.loads(l) for l in raw.splitlines()]
        assert [d["trial"] for d in lines] == list(range(9))
        assert all("ts" not in d for d in lines)  # timestamp-free by contract


class TestHistogramSummaries:
    def test_any_split_absorbs_to_the_one_recorder_summary(self):
        """Chunk snapshots of integer samples merge, in any arrival
        order, to exactly the summary of observing every sample in one
        recorder — so chunking can never change a histogram."""
        rng = random.Random(0x4157)
        for _ in range(200):
            samples = [
                (rng.choice("ab"), rng.randint(-50, 50))
                for _ in range(rng.randint(1, 40))
            ]
            whole = Recorder(enabled=True)
            for name, value in samples:
                whole.observe(name, value)
            cuts = sorted(rng.sample(range(1, len(samples)),
                                     rng.randint(0, len(samples) - 1)))
            bounds = list(zip([0, *cuts], [*cuts, len(samples)]))
            snapshots = []
            for lo, hi in bounds:
                worker = Recorder(enabled=True)
                for name, value in samples[lo:hi]:
                    worker.observe(name, value)
                snapshots.append(worker.snapshot())
            rng.shuffle(snapshots)
            merged = Recorder(enabled=True)
            for snapshot in snapshots:
                merged.absorb(snapshot)
            assert merged.histograms == whole.histograms


class TestRealEnginePayloads:
    """The same invariance through real executed chunks, not synthetic ones."""

    def test_permuted_real_chunks_match_serial(self, tmp_path):
        from repro.apps import get_app
        from repro.fi.campaign import Deployment
        from repro.fi.scenarios.base import fault_free_run

        app = get_app("cg")
        dep = Deployment(nprocs=1, trials=9, seed=21)
        ctx = EngineContext(
            app=app, deployment=dep, golden=fault_free_run(app, dep.nprocs),
            keep_records=True, obs_enabled=True,
        )
        chunks = [(0, 3), (3, 6), (6, 9)]
        payloads = [
            execute_chunk(ctx, lo, hi, capture=True)
            for lo, hi in chunks
        ]
        reference = fold_in_order(chunks, payloads, range(3), tmp_path, "ref")
        for k, perm in enumerate(itertools.permutations(range(3))):
            got = fold_in_order(chunks, payloads, perm, tmp_path, f"e{k}")
            assert got == reference, f"real-engine fold diverged for {perm}"


class TestLayoutExtension:
    """`extend` (adaptive wave growth) keeps the invariants."""

    def test_extend_then_out_of_order_within_wave(self, tmp_path):
        chunks = chunk_layout(2)
        payloads = [make_payload(lo, hi) for lo, hi in chunks]
        wave2 = [(6, 9), (9, 12)]
        wave2_payloads = [make_payload(lo, hi) for lo, hi in wave2]

        full = chunks + wave2
        reference = fold_in_order(
            full, payloads + wave2_payloads, range(4), tmp_path, "ref"
        )

        mem = MemorySink()
        prov = tmp_path / "ext.provenance.jsonl"
        recorder = Recorder(
            [mem, JsonlSink(prov, only=(TrialProvenance,), stamp_ts=False)],
            enabled=True,
        )
        agg = ChunkAggregator([], recorder)
        agg.extend(chunks)
        agg.add(payloads[1])
        agg.add(payloads[0])
        agg.extend(wave2)
        agg.add(wave2_payloads[1])
        agg.add(wave2_payloads[0])
        joint, records = agg.finish()
        recorder.close()
        assert (
            list(joint.items()), records, list(mem.events), prov.read_bytes()
        ) == reference

    def test_extend_rejects_overlapping_chunks(self):
        agg = ChunkAggregator([(0, 5), (5, 10)])
        with pytest.raises(ValueError, match="overlaps"):
            agg.extend([(8, 12)])

    def test_extend_rejects_chunks_before_existing_layout(self):
        agg = ChunkAggregator([(10, 20)])
        with pytest.raises(ValueError, match="overlaps"):
            agg.extend([(0, 10), (20, 30)])

    def test_finish_still_detects_missing_extended_chunk(self):
        agg = ChunkAggregator([(0, 3)])
        agg.add(make_payload(0, 3))
        agg.extend([(3, 6)])
        with pytest.raises(RuntimeError, match="never"):
            agg.finish()

"""Fast self-tests of the benchmark under ``benchmarks/perf/``.

They check the declaration in ``BENCHMARK.json`` against the limits the
benchmark promises, the statistics helpers, and that the layer wrappers
restore every original and never change a campaign's outputs.  None of
them spawns a benchmark child process.
"""

from __future__ import annotations

import json
import re
import statistics
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "benchmarks" / "perf"))

from perfbench import stats  # noqa: E402
from perfbench.runs import (  # noqa: E402
    CorrectnessError, RunResult, check_repeatable, layer_metrics,
)
from perfbench.layers import LayerTrace, patch_targets, traced  # noqa: E402
from perfbench.micro import MICRO_WORKLOAD  # noqa: E402
from perfbench.workloads import WORKLOADS, unit_seed  # noqa: E402

import repro.fi.campaign as campaign  # noqa: E402
from repro.apps import get_app  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")


# ----------------------------------------------------------------------
# the declaration
# ----------------------------------------------------------------------
def test_declaration_has_exactly_the_contract_keys():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 1 <= len(SPEC["command"]) <= 32
    assert all(isinstance(a, str) and len(a) <= 200 for a in SPEC["command"])
    assert 1 <= len(SPEC["paths"]) <= 16
    for path in SPEC["paths"]:
        assert PATH.fullmatch(path) and not path.startswith("/") and ".." not in path
        assert (ROOT / path).is_dir()
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_metric_and_workload_names_are_valid_and_unique():
    names = [
        item["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for item in SPEC[section]
    ]
    bad = [n for n in names if not NAME.fullmatch(n)]
    assert not bad, bad
    assert len(names) == len(set(names))
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128


def test_workloads_are_the_benchmarks_own():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert "\n" not in w["why"] and 0 < len(w["why"]) <= 200


def test_every_end_to_end_metric_has_unit_direction_and_bound():
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert UNIT.fullmatch(m["unit"])
        assert m["better"] in ("higher", "lower")
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_every_per_layer_metric_has_unit_and_direction():
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        assert UNIT.fullmatch(m["unit"])
        assert m["better"] in ("higher", "lower")


def test_every_microbench_maps_to_a_workload():
    micro = [m["name"] for m in SPEC["per_layer"] if m["name"].startswith("micro.")]
    assert len(micro) >= 18
    for name in micro:
        owners = [w for prefix, w in MICRO_WORKLOAD.items() if name.startswith(prefix)]
        assert len(owners) == 1 and owners[0] in WORKLOADS, name


def test_unit_zero_runs_the_run_seed_and_later_units_do_not():
    # pins.json holds unit 0 of seed 123: its deployment seed must be 123
    assert unit_seed(123, 0) == 123
    seeds = {unit_seed(s, k) for s in range(20) for k in range(20)}
    assert len(seeds) == 400


def test_repeated_units_must_agree_across_processes():
    a = RunResult({}, 2, 0, {0: "x", 1: "y"})
    check_repeatable("w", [a, RunResult({}, 1, 0, {0: "x"})])
    with pytest.raises(CorrectnessError):
        check_repeatable("w", [a, RunResult({}, 2, 0, {0: "x", 1: "z"})])


# ----------------------------------------------------------------------
# statistics helpers
# ----------------------------------------------------------------------
def test_median_and_quartiles_match_the_standard_library():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0]
    q1, mid, q3 = stats.quartiles(values)
    assert [q1, mid, q3] == statistics.quantiles(values, n=4)
    assert stats.median(values) == statistics.median(values)
    assert stats.iqr(values) == pytest.approx(q3 - q1)
    assert stats.relative_iqr(values) == pytest.approx((q3 - q1) / mid)
    assert stats.quartiles([2.5]) == (2.5, 2.5, 2.5)
    with pytest.raises(ValueError):
        stats.median([])


def test_percentile_interpolates_between_ranks():
    values = [10.0, 20.0, 30.0, 40.0, 50.0]
    assert stats.percentile(values, 0) == 10.0
    assert stats.percentile(values, 100) == 50.0
    assert stats.percentile(values, 50) == 30.0
    assert stats.percentile(values, 62.5) == pytest.approx(35.0)
    with pytest.raises(ValueError):
        stats.percentile(values, 101)


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert stats.tail_percentile(list(range(10))) is None
    assert stats.tail_percentile(list(range(19))) is None  # p47: not above the median
    p, value = stats.tail_percentile([float(v) for v in range(40)])
    assert p == 75
    assert sum(1 for v in range(40) if v > value) >= 10


@pytest.mark.parametrize(
    "parent, change, better, expected",
    [
        # wins 10/10 and the gap beats the parent's IQR
        ([100 + i % 3 for i in range(10)], [120 + i % 3 for i in range(10)], "higher", "gain"),
        ([1.0 + 0.01 * (i % 3) for i in range(10)], [0.8] * 10, "lower", "gain"),
        # identical runs: ties win nothing, nothing moved
        ([5.0] * 10, [5.0] * 10, "higher", "within bound"),
        # 30 % worse with a tight parent spread
        ([100 + i % 3 for i in range(10)], [70 + i % 3 for i in range(10)], "higher", "regression"),
        # the parent's spread exceeds the bound and the sides overlap
        ([50, 150] * 5, [60, 140] * 5, "higher", "unresolved"),
    ],
)
def test_verdict(parent, change, better, expected):
    assert stats.verdict(parent, change, better, bound=0.2) == expected


def test_verdict_rejects_unpaired_runs():
    with pytest.raises(ValueError):
        stats.verdict([1.0, 2.0], [1.0], "higher", 0.1)


# ----------------------------------------------------------------------
# layer wrappers
# ----------------------------------------------------------------------
def _originals() -> dict:
    return {
        (owner, attr): vars(owner)[attr]
        for owner, attr, _ in patch_targets(LayerTrace())
    }


def test_wrappers_replace_and_restore_every_original():
    before = _originals()
    assert len(before) > 30
    with pytest.raises(RuntimeError):
        with traced(LayerTrace()):
            changed = [k for k, v in before.items() if vars(k[0])[k[1]] is v]
            assert not changed
            raise RuntimeError("leave the block early")
    after = _originals()
    assert all(after[k] is v for k, v in before.items())


def _joint(lanes: int, trace: LayerTrace | None = None) -> list:
    # through the module attribute, as the workloads call it, so the
    # campaign wrapper applies
    deployment = campaign.Deployment(nprocs=4, trials=16, seed=5, lanes=lanes, jobs=1)
    if trace is None:
        return list(campaign.run_campaign(get_app("cg"), deployment).joint.items())
    with traced(trace):
        return list(campaign.run_campaign(get_app("cg"), deployment).joint.items())


@pytest.mark.parametrize("lanes, layer", [(1, "taint.ops"), (8, "taint.laneops")])
def test_traced_joint_equals_untraced(lanes, layer):
    trace = LayerTrace()
    assert _joint(lanes, trace) == _joint(lanes)
    summary = trace.summary()
    assert summary["leaves"][layer]["calls"] > 0
    assert summary["spans"]["campaign"]["count"] == 1
    assert summary["spans"]["mpisim.run"]["count"] >= 2
    # the per-layer metrics computed from it are exactly the declared ones
    traced_report = {
        "layers": summary, "probe": {"steps": 1, "p2p": 1, "collectives": 1},
        "unit": {"wall_s": 1.0},
    }
    micro = {m["name"]: {"median": 1.0} for m in SPEC["per_layer"]
             if m["name"].startswith("micro.")}
    metrics = layer_metrics(traced_report, 1.0, None, micro)
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}

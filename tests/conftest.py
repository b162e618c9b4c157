"""Shared fixtures: cache isolation and small deterministic helpers."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro import knobs
from repro.fi.plan import InjectionPlan, PlannedFlip
from repro.fi.scenarios import base as scenarios_base
from repro.fi.tracer import Tracer, TracerMode
from repro.taint.ops import FPOps
from repro.taint.region import Region
from repro.taint.tracer_api import Operand

# Helper modules under tests/ that child processes run directly; excluded
# from collection explicitly, not just by naming convention.
collect_ignore = [
    "unit/engine_child.py",
    "unit/adaptive_child.py",
    "unit/distributed_child.py",
]


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    """Keep campaign caching away from the repo's working directory."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))


@pytest.fixture(autouse=True)
def _fresh_knob_warnings():
    """Knob env warnings fire once per process; give each test its own."""
    knobs._ENV_MEMO.clear()


@pytest.fixture(autouse=True)
def _fresh_fault_free_runs():
    """Fault-free runs are memoized per process; give each test its own."""
    scenarios_base._FAULT_FREE.clear()


@pytest.fixture
def tmp_cache(tmp_path, monkeypatch) -> Path:
    """An isolated, *inspectable* campaign cache directory.

    The autouse fixture above already isolates caching; use this one in
    tests that assert on the cache's contents (entry counts, raw JSON
    bytes).  Returns the directory ``REPRO_CACHE_DIR`` points at.
    """
    cache = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
    monkeypatch.setenv("REPRO_CACHE", "1")
    return cache


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def fp():
    """Un-traced FP ops (NullSink)."""
    return FPOps()


def make_inject_fp(
    index: int,
    operand: Operand = Operand.A,
    bit: int = 51,
    rank: int = 0,
    region: Region = Region.COMMON,
    kind_region: Region | None = None,
) -> tuple[FPOps, Tracer]:
    """FPOps wired to a tracer that flips one planned instruction."""
    plan = InjectionPlan(
        flips=(
            PlannedFlip(rank=rank, region=region, index=index, operand=operand, bit=bit),
        )
    )
    tracer = Tracer(TracerMode.INJECT, plan)
    return FPOps(tracer, rank=rank), tracer


@pytest.fixture
def make_injector():
    return make_inject_fp

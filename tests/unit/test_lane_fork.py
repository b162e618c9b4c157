"""Blocks side by side: an inline chunk forks one child per slot.

When the process may fork and every one of at least two
:func:`~repro.fi.scenarios.base.fork_slots` gets
:data:`~repro.engine.chunks.LANE_CHILD_BLOCKS` lane blocks or
:data:`~repro.engine.chunks.SCALAR_CHILD_TRIALS` trials run one at a
time, :func:`~repro.engine.chunks.execute_chunk` runs block ``i`` in
child ``i mod n`` and folds the children's reports in block order.
Pinned here, for lane blocks and for blocks of one (``--lanes 1`` bit
flips, and rank kills where forking at the fault site does not pay):

* **Byte-identity** — with the slots forced to 1 (in-process), 2 and 3,
  records, joint order, events outside wall-clock fields, provenance
  bytes, counters and histograms outside ``fi.lanes.*`` and
  ``engine.chunk.children``, and the span tree agree, and lane runs
  equal the ``lanes=1`` run;
* **When to fork** — another live thread, or a chunk with too few
  blocks for two children, forks nothing;
* **The pay rule per child** — deterministic for a given slot count;
* **Failure** — a child that exits or raises gives a typed
  :class:`~repro.errors.WorkerCrashError` naming the first trial of its
  first unreported block (the first failure in block order), and no
  child outlives the campaign, not even on ``KeyboardInterrupt`` or an
  exception in the parent.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import textwrap
import threading
import pytest

import repro.fi.scenarios.base as base
from repro import obs
from repro.apps import get_app
from repro.fi.campaign import Deployment, run_campaign
from repro.obs.timeline import spans_of
from tests.ci_checks import strip
from tests.unit.test_fork import SRC, _force_slots, forks  # noqa: F401
from tests.unit.test_timeline import _tree_digest


#: the counter of a chunk's forked children, absent where none forked
CHILDREN = "engine.chunk.children"


def _traced(app, deployment, tmp_path, tag, lanes):
    """One traced inline campaign: what must not depend on the slots,
    the span-tree digest, and the full recorder."""
    trace = tmp_path / f"{tag}.jsonl"
    previous = obs.get_recorder()
    rec = obs.configure(trace_path=trace, timeline=True)
    try:
        result = run_campaign(app, deployment, keep_records=True, jobs=1,
                              lanes=lanes)
    finally:
        rec.close()
        obs.set_recorder(previous)
    same = {
        "records": result.records,
        "joint": list(result.joint.items()),
        "events": strip(str(trace)),
        "provenance": obs.provenance_path(trace).read_bytes(),
        "counters": {k: v for k, v in rec.counters.items()
                     if not k.startswith("fi.lanes.") and k != CHILDREN},
        "histograms": rec.histograms,
    }
    spans = spans_of(obs.load_trace(obs.timeline_path(trace)))
    return same, _tree_digest(spans), rec


class TestByteIdentity:
    @pytest.mark.parametrize("name, nprocs, trials", [
        ("cg", 4, 40), ("mg", 4, 24),
    ])
    def test_any_slot_count_matches_in_process_and_scalar(
        self, name, nprocs, trials, tmp_path, monkeypatch, forks
    ):
        app = get_app(name)
        deployment = Deployment(nprocs=nprocs, trials=trials, seed=5)
        scalar, _, _ = _traced(app, deployment, tmp_path, "l1", lanes=1)
        runs = {}
        for slots in (1, 2, 3):
            _force_slots(monkeypatch, slots)
            before = len(forks)
            runs[slots] = _traced(app, deployment, tmp_path, f"s{slots}", lanes=4)
            # one child per slot, each with two blocks or more
            children = 0 if slots == 1 else min(slots, trials // 4 // 2)
            assert len(forks) - before == children
            assert runs[slots][2].counters.get(CHILDREN, 0) == children
        for slots, (same, digest, _) in runs.items():
            assert same == scalar, slots
            assert digest == runs[1][1], slots
        spans = spans_of(obs.load_trace(obs.timeline_path(tmp_path / "s3.jsonl")))
        assert {span["pid"] for span in spans} == {os.getpid()}


class TestScalarByteIdentity:
    """Trials run one at a time: ``--lanes 1`` bit flips, and rank kills
    where forking at the fault site does not pay."""

    @pytest.mark.parametrize("scenario", ["bitflip", "rankkill"])
    def test_any_slot_count_matches_in_process(
        self, scenario, tmp_path, monkeypatch, forks
    ):
        monkeypatch.setattr(base, "fork_pays", lambda app, deployment, trials: False)
        deployment = Deployment(nprocs=4, trials=48, seed=5, scenario=scenario)
        runs = {}
        for slots in (1, 2, 3):
            _force_slots(monkeypatch, slots)
            before = len(forks)
            runs[slots] = _traced(get_app("cg"), deployment, tmp_path,
                                  f"{scenario}{slots}", lanes=1)
            # one child per slot, each with 16 trials or more
            children = 0 if slots == 1 else slots
            assert len(forks) - before == children
            assert runs[slots][2].counters.get(CHILDREN, 0) == children
        for slots, (same, digest, _) in runs.items():
            assert same == runs[1][0], slots
            assert digest == runs[1][1], slots


class TestWhenToFork:
    def test_another_thread_forces_in_process(self, monkeypatch, forks):
        _force_slots(monkeypatch, 2)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            run_campaign(get_app("cg"), Deployment(nprocs=4, trials=24, seed=1),
                         jobs=1, lanes=4)
        finally:
            stop.set()
            thread.join()
        assert forks == []

    @pytest.mark.parametrize("trials", [6, 16, 31])
    def test_short_scalar_chunks_run_in_process(self, trials, monkeypatch, forks):
        """Fewer than 16 trials for each of two children fork nothing."""
        _force_slots(monkeypatch, 3)
        with obs.recording(obs.Recorder(enabled=True)) as rec:
            run_campaign(get_app("cg"),
                         Deployment(nprocs=4, trials=trials, seed=1),
                         jobs=1, lanes=1)
        assert forks == []
        assert CHILDREN not in rec.counters

    def test_profiling_runs_in_process(self, monkeypatch, forks):
        _force_slots(monkeypatch, 2)
        with obs.recording(obs.Recorder(enabled=True, profiling=True)):
            run_campaign(get_app("cg"), Deployment(nprocs=4, trials=48, seed=1),
                         jobs=1)
        assert forks == []

    @pytest.mark.parametrize("slots, trials, children", [
        (2, 12, 0),  # 3 blocks: one child would get a single block
        (3, 20, 2),  # 5 blocks: two children, not three
        (2, 16, 2),
    ])
    def test_each_child_gets_two_blocks(self, slots, trials, children,
                                        monkeypatch, forks):
        _force_slots(monkeypatch, slots)
        with obs.recording(obs.Recorder(enabled=True)) as rec:
            run_campaign(get_app("cg"),
                         Deployment(nprocs=4, trials=trials, seed=1),
                         jobs=1, lanes=4)
        assert len(forks) == children
        assert rec.counters.get(CHILDREN, 0) == children


class TestPayRule:
    def test_per_child_pay_rule_is_deterministic(self, monkeypatch, forks):
        """PENNANT ejects most lanes: each child drops to one trial at a
        time after its own unpaid block, the same way every run."""
        deployment = Deployment(nprocs=1, trials=40, seed=11)
        # the reference runs in-process, so only the lane runs fork
        _force_slots(monkeypatch, 1)
        scalar = run_campaign(get_app("pennant"), deployment,
                              keep_records=True, jobs=1, lanes=1)
        _force_slots(monkeypatch, 2)
        lane_counters = []
        for _ in range(2):
            with obs.recording(obs.Recorder(enabled=True)) as rec:
                got = run_campaign(get_app("pennant"), deployment,
                                   keep_records=True, jobs=1, lanes=8)
            assert got.records == scalar.records
            lane_counters.append({k: v for k, v in rec.counters.items()
                                  if k.startswith("fi.lanes.") or k == CHILDREN})
        assert len(forks) == 4
        assert lane_counters[0] == lane_counters[1]
        assert lane_counters[0][CHILDREN] == 2
        assert lane_counters[0]["fi.lanes.unpaid"] >= 1


# ----------------------------------------------------------------------
# a failing child: typed, bounded, reaped
# ----------------------------------------------------------------------
_CHILD_SCRIPT = textwrap.dedent("""
    import os, signal, sys, time
    import repro.engine.chunks as chunks
    import repro.fi.campaign as campaign
    import repro.fi.lanes as lanes
    import repro.fi.scenarios.base as base
    from repro.apps import get_app
    from repro.errors import WorkerCrashError
    from repro.fi.campaign import Deployment, run_campaign

    pids = []
    real_fork = base._fork

    def recording_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    base._fork = recording_fork
    MODE, SLOTS, LANES = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    base.fork_slots = lambda workers=1: SLOTS
    ORIGIN = os.getpid()
    real_fold = chunks.fold_record
    real_block = lanes.run_lane_block if LANES > 1 else campaign.run_one_trial
    folds = []

    def failing_block(*args):
        # blocks of 4 trials start at trial 8 and 12; blocks of one too
        start = args[4]
        if os.getpid() != ORIGIN:
            if MODE == "exit" and start == 8:
                os._exit(3)
            if MODE == "raise" and start == 8:
                raise ValueError("boom")
            if MODE == "staggered":  # block 2 fails after block 3 has
                if start == 8:
                    time.sleep(0.3)
                    os._exit(3)
                if start == 12:
                    os._exit(4)
            if MODE == "sleep" and start == 8:
                time.sleep(60)
        return real_block(*args)

    def failing_fold(*args):
        folds.append(1)
        if MODE == "parent" and len(folds) > 6:
            raise RuntimeError("parent fails mid-chunk")
        return real_fold(*args)

    if LANES > 1:
        lanes.run_lane_block = failing_block
    else:
        campaign.run_one_trial = failing_block
    chunks.fold_record = failing_fold
    if MODE == "sleep":
        def interrupt(*_):
            raise KeyboardInterrupt
        signal.signal(signal.SIGALRM, interrupt)
        signal.alarm(1)
    start = time.monotonic()
    try:
        run_campaign(get_app("cg"),
                     Deployment(nprocs=4, trials=24 if LANES > 1 else 48, seed=1),
                     jobs=1, lanes=LANES)
    except WorkerCrashError as exc:
        print("crash", exc.chunk_start, exc.chunk_stop, exc)
    except KeyboardInterrupt:
        print("interrupted after", round(time.monotonic() - start), "s")
    except RuntimeError as exc:
        print("parent raised", exc)
    print("forked", len(pids))
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        print("no children")
""")


class TestChildFailure:
    #: 24 trials in blocks of 4
    lanes = 4

    def _run(self, mode: str, slots: int) -> str:
        proc = subprocess.run(
            [sys.executable, "-c", _CHILD_SCRIPT, mode, str(slots),
             str(self.lanes)],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def _crashed_block(self, mode: str, pattern: str) -> None:
        """The block at trial 8 is named at two slots and at three."""
        for slots in (2, 3):
            out = self._run(mode, slots)
            stop = 8 + self.lanes
            assert re.search(rf"crash 8 {stop} forked trial 8 {pattern}", out), (
                slots, out)
            assert f"forked {slots}" in out, (slots, out)
            assert "no children" in out, (slots, out)

    def test_child_exit_is_a_typed_error_naming_its_block(self):
        self._crashed_block("exit", "exited with status 3")

    def test_child_exception_is_a_typed_error_naming_its_block(self):
        self._crashed_block("raise", "raised ValueError: boom")

    def test_first_failure_in_block_order_is_raised(self):
        self._crashed_block("staggered", "exited with status 3")

    def test_interrupted_parent_kills_and_reaps_its_children(self):
        out = self._run("sleep", 2)
        # the alarm lands while the parent waits on the block at trial 8
        assert "interrupted after 1 s" in out
        assert "forked 2" in out
        assert "no children" in out

    def test_parent_exception_kills_and_reaps_live_children(self):
        out = self._run("parent", 2)
        assert "parent raised parent fails mid-chunk" in out
        assert "forked 2" in out
        assert "no children" in out


class TestScalarChildFailure(TestChildFailure):
    """The same failures where 48 trials run one at a time."""

    lanes = 1

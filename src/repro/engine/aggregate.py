"""Deterministic folding of chunk payloads into campaign aggregates.

The aggregator is why the engine can promise bit-identical results for
any backend, worker count, or interruption pattern: payloads may arrive
in **any** order (pool completion order, checkpoint recovery order), but
they are *folded* strictly in chunk order — the same order the serial
loop visits trials.  Folding merges the ``joint`` distribution
(preserving first-occurrence key insertion order), extends ``records``,
and absorbs each chunk's observability snapshot into the live recorder,
re-emitting buffered events so sinks see every trial exactly once and
in trial order.

This is the one aggregation loop in the package; the serial path, the
worker pool and checkpoint recovery all feed it.
"""

from __future__ import annotations

from typing import Sequence

from repro.engine.chunks import ChunkPayload
from repro.fi.outcomes import Outcome, TrialRecord
from repro.obs import Recorder, get_recorder

__all__ = ["ChunkAggregator"]


class ChunkAggregator:
    """Folds chunk payloads in deterministic chunk order.

    Construct with the campaign's full chunk layout, then :meth:`add`
    payloads as they arrive; out-of-order payloads are buffered until
    every earlier chunk has been folded.  :meth:`finish` returns the
    merged ``(joint, records)`` and verifies nothing went missing.
    """

    def __init__(
        self,
        chunks: Sequence[tuple[int, int]],
        recorder: Recorder | None = None,
    ):
        self._order: list[tuple[int, int]] = sorted(tuple(c) for c in chunks)
        self._next = 0
        self._pending: dict[tuple[int, int], tuple[ChunkPayload, bool]] = {}
        self._recorder = recorder if recorder is not None else get_recorder()
        self.joint: dict[tuple[Outcome, int, bool], int] = {}
        self.records: list[TrialRecord] = []
        self.trials_folded = 0
        self.duplicate_chunks = 0

    def extend(self, chunks: Sequence[tuple[int, int]]) -> None:
        """Append chunks to the layout (adaptive campaigns grow in waves).

        New chunks must come strictly after every chunk already planned —
        the fold order is append-only, so extending never reorders or
        invalidates chunks that may already have been folded.
        """
        new = sorted(tuple(c) for c in chunks)
        if not new:
            return
        if self._order and new[0][0] < self._order[-1][1]:
            raise ValueError(
                f"cannot extend layout with chunk {new[0]}: it overlaps "
                f"already-planned chunk {self._order[-1]}"
            )
        self._order.extend(new)

    def add(self, payload: ChunkPayload, events_emitted: bool = False) -> None:
        """Accept one payload; fold it (and any unblocked successors).

        ``events_emitted`` marks payloads whose events already reached
        the live sinks while the chunk ran (inline execution): their
        aggregates are still absorbed, but events are not re-emitted.

        Re-delivery of a chunk that was already folded or buffered is an
        idempotent no-op (counted in ``duplicate_chunks`` and the
        ``engine.duplicate_chunks`` obs counter): at-least-once backends
        — the worker pool requeues the chunk of a lost worker,
        and the original worker may still report it — can never
        double-count a trial.  A chunk that was never part of the layout
        at all is still a hard error.
        """
        bounds = payload.bounds
        if bounds in self._pending or bounds in self._order[: self._next]:
            self.duplicate_chunks += 1
            self._recorder.counter("engine.duplicate_chunks")
            return
        if bounds not in self._order[self._next:]:
            raise ValueError(
                f"unexpected chunk {bounds}: not in the remaining "
                f"campaign layout"
            )
        self._pending[payload.bounds] = (payload, events_emitted)
        while (
            self._next < len(self._order)
            and self._order[self._next] in self._pending
        ):
            ready, emitted = self._pending.pop(self._order[self._next])
            self._fold(ready, emitted)
            self._next += 1

    def _fold(self, payload: ChunkPayload, events_emitted: bool) -> None:
        for key, count in payload.joint.items():
            self.joint[key] = self.joint.get(key, 0) + count
        self.records.extend(payload.records)
        self.trials_folded += payload.n_trials
        if payload.obs is not None:
            self._recorder.absorb(payload.obs, emit_events=not events_emitted)

    def finish(
        self,
    ) -> tuple[dict[tuple[Outcome, int, bool], int], list[TrialRecord]]:
        """The merged aggregates; raises if any chunk never arrived."""
        if self._next != len(self._order):
            missing = [c for c in self._order[self._next:] if c not in self._pending]
            raise RuntimeError(
                f"aggregation incomplete: {len(missing)} chunk(s) never "
                f"arrived (first: {missing[0] if missing else self._order[self._next]})"
            )
        return self.joint, self.records

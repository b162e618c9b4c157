"""Crash-safe persistence of completed chunks — checkpoint and resume.

Layered on the disk-cache conventions of :mod:`repro.fi.cache`: the
store lives under ``cache_dir()/checkpoints/``, is keyed by the same
``(app.cache_key(), deployment_key(...))`` identity as the result cache
(execution knobs like ``jobs`` excluded, so a campaign interrupted at
one worker count resumes under another), and every write is an atomic
``tmp → rename`` so a kill can never leave a half-written file under a
final name.

Layout (one directory per in-flight campaign)::

    .repro-cache/checkpoints/<app>-<digest>/
        meta.json                 # layout manifest: key, trials, chunks
        chunk-00000000-00000050.json   # one file per completed chunk
        chunk-00000050-00000100.json

A chunk file holds the chunk's :class:`~repro.engine.chunks.ChunkPayload`:
the joint-distribution delta **in first-occurrence insertion order**
(a list, not a sorted dict — insertion order is part of the engine's
bit-identical-to-serial guarantee), the trial records when requested,
and the chunk's observability snapshot (counters, histogram summaries,
span totals, buffered events) so a resumed run replays every recovered
trial's events into its own trace and provenance files.

Corruption handling: a chunk file or manifest that fails to parse or
validate is **deleted first**, then a typed
:class:`~repro.errors.CheckpointCorruptError` is raised — rerunning the
campaign restarts cleanly, re-executing only the chunk whose checkpoint
was lost.  The campaign deletes the whole directory once it completes
(the result then lives in the ordinary result cache).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import TYPE_CHECKING

from repro.engine.chunks import ChunkPayload
from repro.engine.store import LocalDirStore, ResultStore
from repro.errors import CheckpointCorruptError
from repro.fi.cache import cache_dir, deployment_key
from repro.fi.outcomes import Outcome, TrialRecord
from repro.obs import CacheCorrupt, ObsSnapshot, event_from_dict, get_recorder
from repro.obs.recorder import HISTOGRAM_FIELDS

if TYPE_CHECKING:
    from repro.fi.campaign import AppProtocol, Deployment

__all__ = ["DEFAULT_CHECKPOINT_EVERY", "CheckpointStore"]

#: Trials between durable checkpoints when ``--checkpoint-every`` is
#: requested without a value.  Matches the engine's chunk-size cap: at
#: most one chunk of work is lost to a crash, and the per-chunk JSON
#: write is far below the benchmarked 5% overhead budget.
DEFAULT_CHECKPOINT_EVERY = 50

_CKPT_VERSION = "ckpt-v1"


# ----------------------------------------------------------------------
# payload (de)serialization
# ----------------------------------------------------------------------
def _serialize_snapshot(snapshot: ObsSnapshot | None) -> dict | None:
    if snapshot is None:
        return None
    return {
        "counters": snapshot.counters,
        # an object, not the summary list: an old chunk's sample list of
        # exactly four values must not read as a summary
        "histograms": {
            name: dict(zip(HISTOGRAM_FIELDS, summary))
            for name, summary in snapshot.histograms.items()
        },
        "span_totals": snapshot.span_totals,
        "events": [event.to_dict() for event in snapshot.events],
    }


def _histogram_summary(entry) -> list | None:
    """A stored histogram as ``[count, sum, min, max]``, or None.

    Reads the summary object this module writes, and folds the sample
    list older ``ckpt-v1`` chunks hold (an empty one is None).  Any
    other entry raises ``ValueError``: the chunk is corrupt.
    """
    numeric = (int, float)  # JSON numbers; a bool or string is corrupt
    if isinstance(entry, dict) and set(entry) == set(HISTOGRAM_FIELDS):
        summary = [entry[k] for k in HISTOGRAM_FIELDS]
        if all(type(v) in numeric for v in summary) and summary[0] >= 1:
            return summary
    elif isinstance(entry, list) and all(type(v) in numeric for v in entry):
        if not entry:
            return None
        return [len(entry), sum(entry), min(entry), max(entry)]
    raise ValueError(f"malformed histogram {entry!r}")


def _deserialize_snapshot(blob: dict | None) -> ObsSnapshot | None:
    if blob is None:
        return None
    events = [event_from_dict(e) for e in blob["events"]]
    return ObsSnapshot(
        counters={str(k): v for k, v in blob["counters"].items()},
        histograms={
            str(k): summary for k, v in blob["histograms"].items()
            if (summary := _histogram_summary(v)) is not None
        },
        span_totals={str(k): list(v) for k, v in blob["span_totals"].items()},
        # unknown event types (written by newer code) are dropped, same
        # as trace replay — forward compatibility over completeness
        events=[e for e in events if e is not None],
    )


def _serialize_chunk(payload: ChunkPayload) -> dict:
    return {
        "version": _CKPT_VERSION,
        "start": payload.start,
        "stop": payload.stop,
        # insertion order preserved: the fold replays it verbatim
        "joint": [
            [outcome.value, ncont, activated, count]
            for (outcome, ncont, activated), count in payload.joint.items()
        ],
        "records": [
            [r.outcome.value, r.n_contaminated, r.activated, r.detail]
            for r in payload.records
        ],
        "obs": _serialize_snapshot(payload.obs),
    }


def _deserialize_chunk(blob: dict, start: int, stop: int) -> ChunkPayload:
    if blob["version"] != _CKPT_VERSION:
        raise ValueError(f"unknown chunk schema {blob['version']!r}")
    if (blob["start"], blob["stop"]) != (start, stop):
        raise ValueError(
            f"chunk bounds {blob['start'], blob['stop']} do not match "
            f"file name ({start}, {stop})"
        )
    joint = {
        (Outcome(o), int(n), bool(a)): int(c) for o, n, a, c in blob["joint"]
    }
    records = [
        TrialRecord(
            outcome=Outcome(o), n_contaminated=int(n), activated=bool(a),
            detail=str(d),
        )
        for o, n, a, d in blob["records"]
    ]
    return ChunkPayload(
        start=start, stop=stop, joint=joint, records=records,
        obs=_deserialize_snapshot(blob.get("obs")),
    )


# ----------------------------------------------------------------------
class CheckpointStore:
    """Durable partial results for one campaign execution.

    Persistence goes through a :class:`~repro.engine.store.ResultStore`
    (default: a :class:`~repro.engine.store.LocalDirStore` rooted at
    ``cache_dir()``, which reproduces the historical on-disk layout
    byte-for-byte).  Point every worker of a multi-host deployment at
    one shared store and they cooperatively fill the same campaign's
    checkpoints.
    """

    def __init__(
        self,
        app: "AppProtocol",
        deployment: "Deployment",
        keep_records: bool = False,
        store: ResultStore | None = None,
    ):
        # keep_records is part of the identity: a checkpoint written
        # without records cannot serve a run that needs them.
        self.key = (
            f"{_CKPT_VERSION}|{app.cache_key()}|{deployment_key(deployment)}"
            f"|records={int(keep_records)}"
        )
        digest = hashlib.sha256(self.key.encode()).hexdigest()[:24]
        self.store: ResultStore = (
            store if store is not None else LocalDirStore(cache_dir())
        )
        self._prefix = f"checkpoints/{app.name}-{digest}"
        #: display location (a real directory for the default local store)
        self.dir = Path(self.store.describe(self._prefix))

    # ------------------------------------------------------------------
    def _meta_key(self) -> str:
        return f"{self._prefix}/meta.json"

    def _chunk_key(self, start: int, stop: int) -> str:
        return f"{self._prefix}/chunk-{start:08d}-{stop:08d}.json"

    def _corrupt(self, key: str, reason: str, wipe: bool = False) -> None:
        """Delete the damaged artifact, record the incident, and raise."""
        if wipe:
            self.clear()
        else:
            self.store.delete(key)
        path = self.store.describe(key)
        obs = get_recorder()
        if obs.enabled:
            obs.counter("checkpoint.corrupt")
            obs.emit(CacheCorrupt(path=path, reason=reason))
        raise CheckpointCorruptError(
            f"corrupt campaign checkpoint {path}: {reason} — the damaged "
            f"file was removed; rerun to restart cleanly from the "
            f"remaining checkpoints",
            path=path,
        )

    # ------------------------------------------------------------------
    def begin(
        self,
        trials: int,
        chunks: list[tuple[int, int]],
        planned: int | None = None,
    ) -> None:
        """Record the campaign's chunk layout (idempotent, atomic).

        ``planned`` marks a *partial* layout: an adaptive campaign plans
        its chunks wave by wave, so the manifest may cover only the
        first ``planned`` of up to ``trials`` trials.  Omitted (the
        fixed-N driver), the layout must tile the full trial range.
        """
        meta: dict = {
            "version": _CKPT_VERSION,
            "key": self.key,
            "trials": trials,
            "chunks": [[lo, hi] for lo, hi in chunks],
        }
        if planned is not None and planned < trials:
            meta["planned"] = planned
        self.store.put(self._meta_key(), json.dumps(meta).encode())

    def write(self, payload: ChunkPayload) -> tuple[Path, int]:
        """Persist one completed chunk; returns ``(path, bytes)``."""
        key = self._chunk_key(payload.start, payload.stop)
        size = self.store.put(key, json.dumps(_serialize_chunk(payload)).encode())
        return Path(self.store.describe(key)), size

    def load(
        self,
    ) -> tuple[list[tuple[int, int]], list[ChunkPayload]] | None:
        """Recover the chunk layout and every persisted chunk payload.

        Returns None when there is nothing usable to resume from — no
        directory, or a manifest written for a different campaign
        identity or schema (stale leftovers are wiped, not trusted).
        Damaged files raise :class:`~repro.errors.CheckpointCorruptError`
        after being deleted, so the *next* attempt restarts cleanly.
        """
        meta_key = self._meta_key()
        raw = self.store.get(meta_key)
        if raw is None:
            if self.store.keys(self._prefix):
                # chunk files with no manifest: useless
                self.clear()
            return None
        try:
            meta = json.loads(raw)
            version, key = meta["version"], meta["key"]
            trials = int(meta["trials"])
            planned = int(meta.get("planned", trials))
            chunks = [(int(lo), int(hi)) for lo, hi in meta["chunks"]]
        except (json.JSONDecodeError, UnicodeDecodeError, KeyError, TypeError,
                ValueError) as exc:
            self._corrupt(meta_key, f"unreadable manifest ({exc})", wipe=True)
        if version != _CKPT_VERSION or key != self.key:
            # a different campaign or an old schema — not corruption
            self.clear()
            return None
        covered = sorted(chunks)
        flat = [t for lo, hi in covered for t in range(lo, hi)]
        if planned > trials or flat != list(range(planned)):
            self._corrupt(
                meta_key, "manifest chunks do not tile the planned range",
                wipe=True,
            )
        payloads: list[ChunkPayload] = []
        for lo, hi in chunks:
            chunk_key = self._chunk_key(lo, hi)
            raw = self.store.get(chunk_key)
            if raw is None:
                continue
            try:
                payloads.append(
                    _deserialize_chunk(json.loads(raw), lo, hi)
                )
            except (json.JSONDecodeError, UnicodeDecodeError, KeyError,
                    TypeError, ValueError, IndexError, AttributeError) as exc:
                self._corrupt(chunk_key, f"unreadable chunk ({exc})")
        return chunks, payloads

    def clear(self) -> None:
        """Wipe this campaign's checkpoints (campaign done or stale)."""
        self.store.delete_prefix(self._prefix)

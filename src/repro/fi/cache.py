"""Disk cache for campaign results and parallel-unique profiles.

Campaigns are deterministic given (app configuration, deployment), so
their aggregate results can be cached and shared across experiment
harnesses and repeated benchmark runs.  The cache stores only the
aggregate joint distribution and profile summary — everything
downstream analyses consume — as JSON under ``REPRO_CACHE_DIR``
(default ``.repro-cache/`` in the working directory).  The layout:

* ``<app>-<digest>.json`` — one campaign result per (app, deployment);
* ``fractions/<app>-<digest>.json`` — one parallel-unique share and
  its candidate count per (app, nprocs), from one fault-free profiling
  run.  Kept out of the top level, where every ``<app>-*.json`` is a
  campaign entry.

Both kinds go through one read/write path (:func:`_cached_entry`):
hits, misses, writes and corrupt entries are counted and emitted alike.
A ``unique_fractions.json`` left by earlier versions (one shared table
of all fractions) is never read; ``make clean-cache`` removes it with
the rest of the directory.

Persistence goes through the :class:`~repro.engine.store.ResultStore`
abstraction (a :class:`~repro.engine.store.LocalDirStore` rooted at
:func:`cache_dir`), the same layer the engine's checkpoint store uses —
one place owns atomic write-then-rename and corrupt-entry deletion.

Set ``REPRO_CACHE=0`` to disable, e.g. while modifying the substrate.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Callable, TypeVar

from repro import knobs
from repro.fi.campaign import (
    AppProtocol,
    CampaignResult,
    Deployment,
    run_campaign,
)
from repro.fi.outcomes import Outcome
from repro.fi.scenarios.base import fault_free_run
from repro.obs import CacheCorrupt, CacheHit, CacheMiss, CacheWrite, get_recorder

if TYPE_CHECKING:
    from repro.engine.store import ResultStore

__all__ = [
    "cached_campaign", "cached_unique_fraction_stats", "cache_dir",
    "cache_enabled", "deployment_key", "load_unique_fraction_stats",
]

_T = TypeVar("_T")

#: v2: lane campaigns at 8 or more ranks wrote wrong ``n_contaminated``
#: counts under v1, and ``lanes`` is not part of the key; v3: MG lane
#: campaigns dropped some injected flips under v2
_CACHE_VERSION = "v3"


def cache_enabled() -> bool:
    """Is disk caching active? (disable with ``REPRO_CACHE=0``)."""
    return knobs.env_value("cache")


def cache_dir() -> Path:
    """Cache directory (``REPRO_CACHE_DIR``, default ``.repro-cache``)."""
    return Path(os.environ.get("REPRO_CACHE_DIR", ".repro-cache"))


def deployment_key(deployment: Deployment) -> str:
    """Stable identity string for a deployment's *result*.

    Only knobs that change what the trials execute enter the key
    (:data:`repro.knobs.KEYED_KNOBS`, appended when set); execution
    knobs — ``jobs``, ``lanes``, ``checkpoint_every`` — are
    deliberately excluded: the same string keys both the result
    cache and the engine's checkpoint store
    (:mod:`repro.engine.checkpoint`), so a campaign interrupted under
    one worker count can resume under another.
    """
    key = (
        f"p={deployment.nprocs},t={deployment.trials},e={deployment.n_errors},"
        f"r={deployment.region.value if deployment.region else None},"
        f"tr={deployment.target_rank},s={deployment.seed}"
    )
    if deployment.bits_per_error != 1:  # appended only when set: keeps
        key += f",b={deployment.bits_per_error}"  # single-bit keys stable
    if deployment.max_steps is not None:  # same trick: the runaway guard
        key += f",ms={deployment.max_steps}"  # changes outcomes when set
    for knob in knobs.KEYED_KNOBS:
        value = getattr(deployment, knob.field)
        if value is not None:
            key += f",{knob.key_tag}={value}"
    return key


def _store() -> "ResultStore":
    # local import: repro.engine imports this module during package init
    # (checkpoint keying), so the reverse import must not run at load time
    from repro.engine.store import LocalDirStore

    return LocalDirStore(cache_dir())


def _entry_key(app: AppProtocol, identity: str) -> str:
    key = f"{_CACHE_VERSION}|{app.cache_key()}|{identity}"
    digest = hashlib.sha256(key.encode()).hexdigest()[:24]
    return f"{app.name}-{digest}.json"


def _serialize(result: CampaignResult) -> dict:
    return {
        "app_name": result.app_name,
        "joint": [
            [outcome.value, ncont, activated, count]
            for (outcome, ncont, activated), count in sorted(
                result.joint.items(), key=lambda kv: (kv[0][0].value, kv[0][1], kv[0][2])
            )
        ],
        "parallel_unique_fraction": result.parallel_unique_fraction,
        "total_instructions": result.total_instructions,
        "candidate_instructions": result.candidate_instructions,
        "profile_time": result.profile_time,
        "injection_time": result.injection_time,
    }


def _deserialize(blob: dict, deployment: Deployment) -> CampaignResult:
    joint = {
        (Outcome(o), int(n), bool(a)): int(c) for o, n, a, c in blob["joint"]
    }
    return CampaignResult(
        app_name=blob["app_name"],
        deployment=deployment,
        joint=joint,
        parallel_unique_fraction=blob["parallel_unique_fraction"],
        total_instructions=blob["total_instructions"],
        candidate_instructions=blob["candidate_instructions"],
        profile_time=blob["profile_time"],
        injection_time=blob["injection_time"],
    )


def _cached_entry(
    key: str,
    decode: Callable[[dict], _T],
    compute: Callable[[], _T] | None = None,
    encode: Callable[[_T], dict] | None = None,
) -> _T | None:
    """Serve entry ``key`` from the cache, or compute and write it.

    The one read and write path of every cache entry; it stamps and
    checks each entry's ``version``.  A blob that no longer parses as
    JSON (truncated by a killed process, disk corruption) is deleted
    immediately and a :class:`~repro.obs.CacheCorrupt` event records
    the incident; a blob of another version or schema is recomputed
    and overwritten.  Hits, misses and writes are counted with byte
    sizes when observability is enabled.  Without ``compute`` this is
    a lookup: a miss returns None and writes nothing.
    """
    if not cache_enabled():
        return None if compute is None else compute()
    obs = get_recorder()
    store = _store()
    path = store.describe(key)
    raw = store.get(key)
    if raw is not None:
        try:
            text = raw.decode()
            blob = json.loads(text)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            # delete-and-recompute: never leave a known-bad file behind
            store.delete(key)
            if obs.enabled:
                obs.counter("cache.corrupt")
                obs.emit(CacheCorrupt(path=path, reason=str(exc)))
        else:
            try:
                if blob.get("version") == _CACHE_VERSION:
                    value = decode(blob)
                    if obs.enabled:
                        obs.counter("cache.hits")
                        obs.counter("cache.hit_bytes", len(text))
                        obs.emit(CacheHit(path=path, size_bytes=len(text)))
                    return value
            except (AttributeError, KeyError, ValueError, TypeError):
                pass  # stale schema: recompute below (overwrites entry)
    if obs.enabled:
        obs.counter("cache.misses")
        obs.emit(CacheMiss(path=path))
    if compute is None:
        return None
    value = compute()
    blob = {"version": _CACHE_VERSION, **encode(value)}
    size = store.put(key, json.dumps(blob).encode())
    if obs.enabled:
        obs.counter("cache.writes")
        obs.counter("cache.write_bytes", size)
        obs.emit(CacheWrite(path=path, size_bytes=size))
    return value


def cached_campaign(app: AppProtocol, deployment: Deployment) -> CampaignResult:
    """Run (or load) a campaign; results persist across processes."""
    # pin the effective knobs before keying: the precision target and
    # the fault scenario change what the trials execute, so they must
    # never share a cache entry (or checkpoint identity) with other
    # settings
    resolved = knobs.resolve(deployment)
    return _cached_entry(
        _entry_key(app, deployment_key(resolved)),
        lambda blob: _deserialize(blob, resolved),
        # the deployment as given: run_campaign resolves it the same
        # way, and tells a knob that was set from one left to default
        lambda: run_campaign(app, deployment),
        _serialize,
    )


# ----------------------------------------------------------------------
# parallel-unique profile fractions (one fault-free run per (app, p))
# ----------------------------------------------------------------------
def _fraction_key(app: AppProtocol, nprocs: int) -> str:
    return "fractions/" + _entry_key(app, f"p={nprocs}")


def _decode_fraction(blob: dict) -> tuple[float, int]:
    return float(blob["fraction"]), int(blob["candidates"])


def _encode_fraction(stats: tuple[float, int]) -> dict:
    fraction, candidates = stats
    return {"fraction": float(fraction), "candidates": int(candidates)}


def _profile_unique_fraction(app: AppProtocol, nprocs: int) -> tuple[float, int]:
    profile = fault_free_run(app, nprocs).profile()
    candidates = sum(profile.candidates(r) for r in profile.ranks)
    return profile.parallel_unique_fraction(), candidates


def cached_unique_fraction_stats(
    app: AppProtocol, nprocs: int
) -> tuple[float, int]:
    """``(parallel-unique share, candidate instructions)`` at ``nprocs``.

    Measured by the fault-free execution at ``nprocs``
    (:func:`~repro.fi.scenarios.base.fault_free_run`) on a miss.  Target-scale
    runs (p=64/128) are the costliest fault-free executions of the
    pipeline; persisting their result means a fresh process never
    redoes them.
    """
    return _cached_entry(
        _fraction_key(app, nprocs),
        _decode_fraction,
        lambda: _profile_unique_fraction(app, nprocs),
        _encode_fraction,
    )


def load_unique_fraction_stats(
    app: AppProtocol, nprocs: int
) -> tuple[float, int] | None:
    """Cached ``(fraction, candidate_instructions)`` for ``(app, nprocs)``.

    None when the cache is disabled or holds no valid entry; never
    profiles.
    """
    return _cached_entry(_fraction_key(app, nprocs), _decode_fraction)

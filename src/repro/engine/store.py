"""Pluggable result storage — the durability seam under cache and checkpoints.

Both durable artifact families in this package — the campaign result
cache (:mod:`repro.fi.cache`) and the crash-safe checkpoint store
(:mod:`repro.engine.checkpoint`) — used to speak to the filesystem
directly.  :class:`ResultStore` extracts the five operations they
actually need (get / put / delete / keys / delete_prefix) behind one
protocol, so a campaign's durable state can live on a local directory
or in memory (tests, ephemeral workers) without touching cache or
checkpoint logic.

Keys are relative POSIX-style paths (``"checkpoints/cg-abc123/meta.json"``).
The contract every implementation honors:

* **Atomicity.** :meth:`~ResultStore.put` is all-or-nothing: a reader
  (or a crash) can never observe a half-written value under a final
  key.  :class:`LocalDirStore` implements this as write-to-temp +
  :func:`os.replace`.
* **Idempotent deletes.** Deleting a missing key is a no-op, so
  corrupt-entry recovery (delete, then recompute) never races itself.
* **Prefix enumeration.** ``keys(prefix)`` returns a sorted list, so
  callers iterate deterministically.
"""

from __future__ import annotations

import os
from pathlib import Path, PurePosixPath
from typing import Protocol, runtime_checkable

__all__ = [
    "LocalDirStore",
    "MemoryStore",
    "ResultStore",
]


@runtime_checkable
class ResultStore(Protocol):
    """Durable key/value storage for campaign artifacts."""

    def get(self, key: str) -> bytes | None:
        """The stored bytes, or None when the key does not exist."""
        ...

    def put(self, key: str, data: bytes) -> int:
        """Atomically store ``data`` under ``key``; returns the byte count."""
        ...

    def delete(self, key: str) -> None:
        """Remove ``key``; deleting a missing key is a no-op."""
        ...

    def keys(self, prefix: str = "") -> list[str]:
        """All stored keys starting with ``prefix``, sorted."""
        ...

    def delete_prefix(self, prefix: str) -> None:
        """Remove every key under ``prefix`` (and any empty directories)."""
        ...

    def describe(self, key: str) -> str:
        """A human-readable location for ``key`` (for events and errors)."""
        ...


def _check_key(key: str) -> str:
    """Reject keys that could escape the store's root."""
    pure = PurePosixPath(key)
    if pure.is_absolute() or ".." in pure.parts or key in ("", "."):
        raise ValueError(f"invalid store key: {key!r}")
    return key


class LocalDirStore:
    """Keys are relative paths under one root directory.

    The on-disk layout is exactly what the pre-store cache and
    checkpoint code wrote — ``LocalDirStore(cache_dir())`` is a drop-in
    for their direct filesystem calls, byte-for-byte.  Writes go to a
    ``<name>.tmp`` sibling first and land via :func:`os.replace`, so a
    kill mid-write can never leave a torn file under a final key;
    ``keys`` skips those transient ``.tmp`` files.
    """

    def __init__(self, root: Path | str):
        self.root = Path(root)

    def _path(self, key: str) -> Path:
        return self.root / _check_key(key)

    def get(self, key: str) -> bytes | None:
        try:
            return self._path(key).read_bytes()
        except FileNotFoundError:
            return None

    def put(self, key: str, data: bytes) -> int:
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_bytes(data)
        os.replace(tmp, path)
        return len(data)

    def delete(self, key: str) -> None:
        try:
            self._path(key).unlink()
        except FileNotFoundError:
            pass

    def keys(self, prefix: str = "") -> list[str]:
        if not self.root.is_dir():
            return []
        found = []
        for path in self.root.rglob("*"):
            if not path.is_file() or path.name.endswith(".tmp"):
                continue
            key = path.relative_to(self.root).as_posix()
            if key.startswith(prefix):
                found.append(key)
        return sorted(found)

    def delete_prefix(self, prefix: str) -> None:
        for key in self.keys(prefix):
            self.delete(key)
        # prune directories the prefix emptied, deepest first
        target = self.root / prefix if prefix else self.root
        base = target if target.is_dir() else target.parent
        if not base.is_dir():
            return
        for directory in sorted(
            (d for d in base.rglob("*") if d.is_dir()), reverse=True
        ) + ([base] if base != self.root else []):
            try:
                directory.rmdir()
            except OSError:
                pass  # not empty (concurrent writer) — leave it

    def describe(self, key: str) -> str:
        return str(self._path(key))


class MemoryStore:
    """An in-process dict with the same contract — tests, dry runs."""

    def __init__(self):
        self._data: dict[str, bytes] = {}

    def get(self, key: str) -> bytes | None:
        return self._data.get(_check_key(key))

    def put(self, key: str, data: bytes) -> int:
        self._data[_check_key(key)] = bytes(data)
        return len(data)

    def delete(self, key: str) -> None:
        self._data.pop(_check_key(key), None)

    def keys(self, prefix: str = "") -> list[str]:
        return sorted(k for k in self._data if k.startswith(prefix))

    def delete_prefix(self, prefix: str) -> None:
        for key in self.keys(prefix):
            del self._data[key]

    def describe(self, key: str) -> str:
        return f"memory:{_check_key(key)}"

"""Property tests for the ``ResultStore`` implementations.

:mod:`repro.engine.store` is the persistence seam under the campaign
cache and the checkpoint store: byte blobs keyed by relative
slash-separated strings.  The contract every implementation must hold:

* ``put`` is atomic — a key is either absent or holds a complete blob,
  never a torn write (local stores stage to a sibling temp file and
  rename);
* ``keys`` enumerates sorted, ``delete``/``delete_prefix`` are
  idempotent, and the local store never leaks staging files.

Mirrors the brute-force style of test_aggregator_properties: seeded
random op sequences replayed against both implementations must agree
observable-for-observable.
"""

from __future__ import annotations

import random

import pytest

from repro.engine.checkpoint import CheckpointStore
from repro.engine.store import LocalDirStore, MemoryStore, ResultStore
from repro.errors import CheckpointCorruptError


def both_stores(tmp_path):
    return [LocalDirStore(tmp_path / "local"), MemoryStore()]


class TestStoreContract:
    def test_roundtrip_and_size(self, tmp_path):
        for store in both_stores(tmp_path):
            assert store.get("a/b.json") is None
            assert store.put("a/b.json", b"payload") == len(b"payload")
            assert store.get("a/b.json") == b"payload"

    def test_overwrite_replaces(self, tmp_path):
        for store in both_stores(tmp_path):
            store.put("k", b"old")
            store.put("k", b"new-longer-content")
            assert store.get("k") == b"new-longer-content"

    def test_delete_is_idempotent(self, tmp_path):
        for store in both_stores(tmp_path):
            store.put("k", b"x")
            store.delete("k")
            store.delete("k")                      # second time: no-op
            assert store.get("k") is None

    def test_keys_sorted_and_prefix_filtered(self, tmp_path):
        for store in both_stores(tmp_path):
            for key in ["z.json", "a/2.json", "a/1.json", "b/x/deep.json"]:
                store.put(key, b".")
            assert store.keys() == [
                "a/1.json", "a/2.json", "b/x/deep.json", "z.json"
            ]
            assert store.keys("a/") == ["a/1.json", "a/2.json"]

    def test_delete_prefix(self, tmp_path):
        for store in both_stores(tmp_path):
            store.put("c/1", b".")
            store.put("c/d/2", b".")
            store.put("keep", b".")
            store.delete_prefix("c/")
            assert store.keys() == ["keep"]
            store.delete_prefix("c/")              # idempotent

    def test_delete_prefix_prunes_local_dirs(self, tmp_path):
        root = tmp_path / "local"
        store = LocalDirStore(root)
        store.put("deep/nested/dir/blob", b".")
        store.delete_prefix("deep/")
        assert not (root / "deep").exists()

    @pytest.mark.parametrize("key", ["", "/abs", "../escape", "a/../b"])
    def test_hostile_keys_rejected(self, tmp_path, key):
        for store in both_stores(tmp_path):
            with pytest.raises(ValueError):
                store.put(key, b".")

    def test_no_temp_files_leak(self, tmp_path):
        root = tmp_path / "local"
        store = LocalDirStore(root)
        for i in range(10):
            store.put(f"dir/entry-{i}.json", b"x" * (i + 1))
        leftovers = [p for p in root.rglob("*") if p.name.endswith(".tmp")]
        assert leftovers == []
        assert len(store.keys()) == 10

    def test_satisfies_protocol(self, tmp_path):
        for store in both_stores(tmp_path):
            assert isinstance(store, ResultStore)

    def test_random_op_sequences_agree(self, tmp_path):
        """Seeded random workloads: both implementations stay in lockstep."""
        rng = random.Random(20260808)
        keyspace = [f"{a}/{b}.json" for a in "xyz" for b in "12345"]
        for trial in range(20):
            local = LocalDirStore(tmp_path / f"seq-{trial}")
            memory = MemoryStore()
            for _ in range(40):
                op = rng.choice(["put", "get", "delete", "keys", "prefix"])
                key = rng.choice(keyspace)
                if op == "put":
                    blob = rng.randbytes(rng.randrange(0, 64))
                    assert local.put(key, blob) == memory.put(key, blob)
                elif op == "get":
                    assert local.get(key) == memory.get(key)
                elif op == "delete":
                    local.delete(key)
                    memory.delete(key)
                elif op == "keys":
                    assert local.keys() == memory.keys()
                else:
                    prefix = key.split("/")[0] + "/"
                    local.delete_prefix(prefix)
                    memory.delete_prefix(prefix)
            assert local.keys() == memory.keys()


# ----------------------------------------------------------------------
class _App:
    name = "store-app"

    def cache_key(self) -> str:
        return "store-app(v=1)"


def _checkpoint_store(store) -> CheckpointStore:
    from repro.fi.campaign import Deployment

    deployment = Deployment(nprocs=2, trials=8, seed=3)
    return CheckpointStore(_App(), deployment, store=store)


class TestCheckpointStoreOnResultStore:
    """The checkpoint layer runs unchanged on any ResultStore."""

    def _payload(self, lo, hi):
        from repro.engine.chunks import ChunkPayload
        from repro.fi.outcomes import Outcome, TrialRecord

        return ChunkPayload(
            start=lo, stop=hi,
            joint={(Outcome.SUCCESS, 0, False): hi - lo},
            records=[
                TrialRecord(outcome=Outcome.SUCCESS, n_contaminated=0,
                            activated=False, detail=f"trial-{t}")
                for t in range(lo, hi)
            ],
        )

    def test_roundtrip_on_memory_store(self):
        backing = MemoryStore()
        store = _checkpoint_store(backing)
        chunks = [(0, 4), (4, 8)]
        store.begin(8, chunks)
        store.write(self._payload(0, 4))
        recovered = _checkpoint_store(backing).load()
        assert recovered is not None
        layout, payloads = recovered
        assert layout == chunks
        assert [(p.start, p.stop) for p in payloads] == [(0, 4)]
        assert payloads[0].joint == self._payload(0, 4).joint

    def test_corrupt_chunk_deleted_and_raised(self):
        backing = MemoryStore()
        store = _checkpoint_store(backing)
        store.begin(8, [(0, 4), (4, 8)])
        store.write(self._payload(0, 4))
        chunk_key = store._chunk_key(0, 4)
        backing.put(chunk_key, b"{not json")
        with pytest.raises(CheckpointCorruptError):
            _checkpoint_store(backing).load()
        # the damaged entry is gone; the next load succeeds without it
        assert backing.get(chunk_key) is None
        layout, payloads = _checkpoint_store(backing).load()
        assert layout == [(0, 4), (4, 8)]
        assert payloads == []

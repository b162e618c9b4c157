"""Deterministic random-number management for fault-injection campaigns.

A campaign must be reproducible: re-running with the same master seed has
to select the same dynamic instructions, operands and bits for every
trial, regardless of how many trials run or in what order.  We therefore
derive every random stream from a :class:`numpy.random.SeedSequence`
tree keyed by *named* paths (``campaign -> trial #k -> purpose``), never
from shared mutable generator state.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["SeedSequenceTree", "spawn_rng", "trial_seed"]


def _key_to_int(key: str | int) -> int:
    """Map an arbitrary string/int key to a stable 64-bit integer."""
    if isinstance(key, (int, np.integer)):
        return int(key)
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class SeedSequenceTree:
    """A keyed tree of seed sequences.

    Unlike ``SeedSequence.spawn`` (which is order-dependent), children here
    are addressed by key, so ``tree.child("trial", 7)`` is the same stream
    whether or not trials 0..6 were ever requested.

    Parameters
    ----------
    seed:
        Master seed (int) or an existing ``SeedSequence``.
    """

    def __init__(self, seed: int | np.random.SeedSequence = 0):
        if isinstance(seed, np.random.SeedSequence):
            self._ss = seed
        else:
            self._ss = np.random.SeedSequence(int(seed))

    def child(self, *keys: str | int) -> "SeedSequenceTree":
        """Return the subtree addressed by ``keys``."""
        entropy = list(self._ss.entropy if isinstance(self._ss.entropy, (list, tuple))
                       else [self._ss.entropy])
        path = list(self._ss.spawn_key) + [_key_to_int(k) % (2**32) for k in keys]
        return SeedSequenceTree(np.random.SeedSequence(entropy, spawn_key=tuple(path)))

    def generator(self) -> np.random.Generator:
        """Materialize a PCG64 generator at this node."""
        return np.random.Generator(np.random.PCG64(self._ss))


def spawn_rng(seed: int, *keys: str | int) -> np.random.Generator:
    """Convenience: generator at path ``keys`` under master ``seed``."""
    return SeedSequenceTree(seed).child(*keys).generator()


def trial_seed(master_seed: int, trial_index: int, purpose: str = "trial") -> np.random.Generator:
    """Generator dedicated to one fault-injection trial.

    Every trial gets an independent stream so campaigns parallelize or
    truncate without changing per-trial decisions.
    """
    return spawn_rng(master_seed, purpose, trial_index)


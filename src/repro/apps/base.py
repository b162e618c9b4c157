"""Base class and shared helpers for the mini-applications."""

from __future__ import annotations

import abc
import math
from typing import Generator

import numpy as np

from repro.errors import ConfigurationError
from repro.mpisim.communicator import Communicator
from repro.taint.ops import FPOps

__all__ = ["AppSpec", "relative_error", "block_bounds"]


def relative_error(value: float, reference: float) -> float:
    """|value - reference| scaled by max(|reference|, 1).

    NaN/Inf values map to +inf so they always fail tolerance checks.
    """
    if not (math.isfinite(value) and math.isfinite(reference)):
        return math.inf
    return abs(value - reference) / max(abs(reference), 1.0)


def block_bounds(n: int, size: int, rank: int) -> tuple[int, int]:
    """[lo, hi) bounds of ``rank``'s block in a balanced 1-D partition."""
    base, extra = divmod(n, size)
    lo = rank * base + min(rank, extra)
    hi = lo + base + (1 if rank < extra else 0)
    return lo, hi


class AppSpec(abc.ABC):
    """One benchmark: an SPMD program plus its verification checker.

    Subclasses set :attr:`name`, build any constant problem data in
    ``__init__`` (matrix structure, meshes, twiddle tables — setup is
    untraced, mirroring how the paper's injections target the timed main
    computation), implement :meth:`program` as an SPMD generator, and
    implement :meth:`verify`.
    """

    name: str = "app"

    #: Per-(scale, rank) constant data filled lazily (dicts): a pickled
    #: app leaves them out and arrives with them empty, so a campaign's
    #: context stays small and a worker builds its own read-only,
    #: layout-cacheable arrays (``taint.ops._csr_layout``).
    _memos: tuple[str, ...] = ()

    def __getstate__(self) -> dict:
        return {k: v for k, v in vars(self).items() if k not in self._memos}

    def __setstate__(self, state: dict) -> None:
        vars(self).update(state)
        for memo in self._memos:
            setattr(self, memo, {})

    @abc.abstractmethod
    def program(
        self, rank: int, size: int, comm: Communicator, fp: FPOps
    ) -> Generator:
        """The rank program.  Must return an output dict at rank 0."""

    @abc.abstractmethod
    def verify(self, output: dict, reference: dict) -> bool:
        """The application's checker (paper §2): is ``output`` acceptable?"""

    def cache_key(self) -> str:
        """Stable identifier of this app's parameters for result caching."""
        params = ",".join(
            f"{k}={v!r}" for k, v in sorted(vars(self).items()) if not k.startswith("_")
        )
        return f"{self.name}({params})"

    # ------------------------------------------------------------------
    def check_nprocs(self, size: int, limit: int) -> None:
        """Validate a process count for this app's decomposition."""
        if size < 1 or (size & (size - 1)):
            raise ConfigurationError(
                f"{self.name} requires a power-of-two process count, got {size}"
            )
        if size > limit:
            raise ConfigurationError(
                f"{self.name} supports at most {limit} processes for this "
                f"problem size, got {size}"
            )

    # ------------------------------------------------------------------
    def reference_output(self, nprocs: int = 1) -> dict:
        """Convenience: fault-free output at ``nprocs`` (for tests/examples)."""
        from repro.mpisim.runner import execute_spmd

        return execute_spmd(self.program, nprocs)[0]

    @staticmethod
    def _as_output(**values) -> dict:
        """Build the rank-0 output dict.

        TArray values pass through untouched: the runner normalizes them
        to plain faulty-path floats on the scalar path, and the lane
        batcher extracts one float per lane — returning the TArray (via
        :meth:`~repro.taint.tarray.TArray.scalar_map` for guarded math
        like sqrt) instead of reading ``.value`` keeps all lanes alive
        through the final reduction.
        """
        from repro.taint.tarray import TArray

        return {
            k: v if isinstance(v, TArray) else float(v)
            for k, v in values.items()
        }

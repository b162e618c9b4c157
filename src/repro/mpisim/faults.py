"""System-level fault seams of the simulated MPI runtime.

The scheduler accepts two optional, orthogonal fault controllers so
scenario families (:mod:`repro.fi.scenarios`) can inject faults at the
layers a real resilience study targets — the process and the network —
without the simulator importing any fault-injection code:

* a *fail-stop seam* (:class:`FailStop`) — consulted at the scheduler's
  two kill checks: before each step a rank is about to execute, and
  each time the ready queue drains (for ranks parked on
  communication).  ``due(rank)`` names the earliest step at which the
  rank may die; once the step counter reaches it, ``strike(rank,
  step)`` decides whether the rank fail-stops right there.  A seam can
  hold several pending kill sites and decline a strike, which lets one
  fault-free execution visit every trial's kill site in order.
* a *transit hook* (:class:`TransitHook`) — an object whose
  ``on_p2p(src, dst, payload)`` and ``on_collective(kind, rank,
  payload)`` methods see every payload at its delivery point and return
  the (possibly corrupted) payload to deliver instead.  Delivery order
  is deterministic, so a hook that counts or targets the k-th payload
  behaves identically across runs.

Both seams cost one ``is not None`` test on their hot paths when unused,
keeping the default bit-flip pipeline byte-identical.
"""

from __future__ import annotations

from typing import Any, Protocol, runtime_checkable

__all__ = ["FailStop", "TransitHook"]


@runtime_checkable
class FailStop(Protocol):
    """Rank fail-stop seam (duck-typed; see module docs)."""

    def due(self, rank: int) -> int | None:
        """The earliest scheduler step at which ``rank`` may die, or None."""
        ...

    def strike(self, rank: int, step: int) -> bool:
        """``rank`` reached its due step at ``step``: True kills it now.

        After a declined strike the scheduler asks :meth:`due` again, so
        a seam drops the site it just declined.
        """
        ...


@runtime_checkable
class TransitHook(Protocol):
    """In-transit payload interposition (duck-typed; see module docs)."""

    def on_p2p(self, src: int, dst: int, payload: Any) -> Any:
        """Called once per point-to-point delivery; returns the payload."""
        ...

    def on_collective(self, kind: str, rank: int, payload: Any) -> Any:
        """Called once per per-rank collective delivery; returns the payload."""
        ...

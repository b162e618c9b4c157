"""Glue between application specs, the taint layer and the scheduler."""

from __future__ import annotations

from typing import Any, Callable, Generator

from repro.mpisim.communicator import Communicator
from repro.mpisim.scheduler import Scheduler
from repro.taint.ops import FPOps
from repro.taint.tarray import TArray
from repro.taint.tracer_api import TraceSink

__all__ = ["execute_spmd"]

#: An SPMD program: (rank, size, comm, fp) -> generator returning rank output.
SPMDProgram = Callable[[int, int, Communicator, FPOps], Generator]


def _normalize_output(output: Any) -> Any:
    """Convert TArray outputs to the plain values apps used to return.

    Apps return TArrays (so lane batching can classify per lane without
    forcing a control-flow ``.value`` read); the scalar path flattens
    them back to the faulty-path value — bit-identical to the ``.value``
    reads the apps performed before lane batching existed.
    """
    if isinstance(output, TArray):
        faulty = output.faulty
        return float(faulty.reshape(())) if faulty.size == 1 else faulty
    if isinstance(output, dict):
        return {key: _normalize_output(val) for key, val in output.items()}
    return output


def execute_spmd(
    program: SPMDProgram,
    size: int,
    sink: TraceSink | None = None,
    max_steps: int | None = None,
    ops_factory: Callable[[TraceSink | None, int], FPOps] | None = None,
    raw_outputs: bool = False,
    fail_stop: "FailStop | None" = None,
    transit: "TransitHook | None" = None,
) -> list[Any]:
    """Run ``program`` on ``size`` simulated ranks; return per-rank outputs.

    Each rank receives its own :class:`FPOps` bound to the shared trace
    sink, so instruction accounting and contamination reports carry the
    correct rank id.  ``ops_factory`` substitutes a different traced-ops
    implementation (lane batching passes
    :class:`repro.taint.laneops.LaneFPOps`); ``raw_outputs=True``
    returns rank outputs as the program produced them (TArrays intact)
    instead of normalizing to plain values.  ``fail_stop`` and
    ``transit`` arm the scheduler's system-level fault seams
    (:mod:`repro.mpisim.faults`): a rank fail-stop seam and an
    in-transit payload hook, used by the scenario families of
    :mod:`repro.fi.scenarios`.  A fail-stopped rank contributes ``None``
    as its output.
    """
    if ops_factory is None:
        ops_factory = FPOps

    def factory(rank: int, comm: Communicator):
        return program(rank, size, comm, ops_factory(sink, rank))

    outputs = Scheduler(
        size, factory, sink=sink, max_steps=max_steps,
        fail_stop=fail_stop, transit=transit,
    ).run()
    if raw_outputs:
        return outputs
    return [_normalize_output(output) for output in outputs]

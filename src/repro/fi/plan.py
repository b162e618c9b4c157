"""Injection-plan sampling — the randomized part of a fault-injection test.

A plan is a set of :class:`PlannedFlip` entries; each names a dynamic
candidate instruction by its index in one rank's per-region candidate
stream, which operand of that instruction to corrupt, and which bit to
flip.  Plans are sampled from an :class:`InstructionProfile` obtained in
a fault-free profiling pass, mirroring how F-SEFI arms a trigger on the
k-th dynamic instruction of a chosen type.

Sampling policy (paper §2): pick the MPI process uniformly at random,
then a uniformly random candidate instruction inside it, a uniformly
random operand of that instruction, and a uniformly random bit of the
64-bit operand.  For serial multi-error emulation (§3.3) all ``x``
errors target rank 0 and the *common* region.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import InjectionPlanError
from repro.fi.profile import InstructionProfile
from repro.numerics.bits import bit_width
from repro.taint.region import Region
from repro.taint.tracer_api import Operand

__all__ = ["PlannedFlip", "InjectionPlan", "sample_plan"]

_N_BITS = bit_width(np.dtype(np.float64))


@dataclass(frozen=True, order=True)
class PlannedFlip:
    """One single-bit flip of one operand of one dynamic instruction."""

    rank: int
    region: Region
    index: int          # candidate-instruction index in (rank, region)'s stream
    operand: Operand
    bit: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise InjectionPlanError(f"negative instruction index {self.index}")
        if not 0 <= self.bit < _N_BITS:
            raise InjectionPlanError(f"bit {self.bit} outside [0, {_N_BITS})")

    def to_payload(self) -> dict:
        """JSON-ready description of this fault site (provenance records)."""
        return {
            "rank": self.rank, "region": self.region.value,
            "index": self.index, "operand": self.operand.name,
            "bit": self.bit,
        }


@dataclass(frozen=True)
class InjectionPlan:
    """The full set of flips for one fault-injection test."""

    flips: tuple[PlannedFlip, ...]

    @property
    def n_errors(self) -> int:
        """Number of planned flips (a k-bit error contributes k)."""
        return len(self.flips)

    def to_payload(self) -> list[dict]:
        """JSON-ready list of fault sites, in plan order."""
        return [f.to_payload() for f in self.flips]

    def for_rank_region(self, rank: int, region: Region) -> list[PlannedFlip]:
        """Flips of this plan in ``rank``'s ``region`` stream, index-sorted."""
        return sorted(
            (f for f in self.flips if f.rank == rank and f.region == region),
            key=lambda f: f.index,
        )


def _sample_region(
    space: dict[Region, int], rank: int, rng: np.random.Generator
) -> Region:
    """Pick a region of ``space`` in proportion to its candidate count."""
    total = sum(space.values())
    if total == 0:
        raise InjectionPlanError(f"rank {rank} executed no candidate instructions")
    u = int(rng.integers(0, total))
    acc = 0
    for reg, w in space.items():
        acc += w
        if u < acc:
            return reg
    raise AssertionError("unreachable")  # pragma: no cover


def sample_plan(
    profile: InstructionProfile,
    rng: np.random.Generator,
    n_errors: int = 1,
    target_rank: int | None = None,
    region: Region | None = None,
    bits_per_error: int = 1,
) -> InjectionPlan:
    """Sample an injection plan for one fault-injection test.

    Parameters
    ----------
    profile:
        Instruction profile from the fault-free profiling pass.
    rng:
        Per-trial random generator (see :func:`repro.utils.rng.trial_seed`).
    n_errors:
        Errors injected in this single test.  ``n_errors > 1`` is the
        serial multi-error emulation of multiple contaminated processes
        (paper §4.1): all flips then share one target rank.
    target_rank:
        Force the victim rank; default picks uniformly among ranks that
        executed candidate instructions (one victim per test, paper §2).
    region:
        Restrict flips to one computation region.  ``None`` samples the
        region proportionally to its candidate-instruction share.
    bits_per_error:
        Bits flipped per error (same instruction, same operand).  The
        paper's experiments use single-bit flips but its model makes no
        single-bit assumption (§2); multi-bit patterns exercise that.
    """
    if n_errors < 1:
        raise InjectionPlanError(f"n_errors must be >= 1, got {n_errors}")
    if not 1 <= bits_per_error <= _N_BITS:
        raise InjectionPlanError(
            f"bits_per_error must be in [1, {_N_BITS}], got {bits_per_error}"
        )
    ranks = profile.ranks
    if not ranks:
        raise InjectionPlanError("profile is empty — was the profiling pass run?")
    if target_rank is None:
        victim = int(ranks[int(rng.integers(0, len(ranks)))])
    else:
        if target_rank not in ranks:
            raise InjectionPlanError(f"rank {target_rank} not present in profile")
        victim = int(target_rank)
    if n_errors > 1 and target_rank is None and len(ranks) > 1:
        # Multi-error emulation is defined for a single execution stream.
        raise InjectionPlanError(
            "multi-error plans require an explicit target_rank in parallel profiles"
        )

    # the victim's candidates per region, counted once for every flip
    space = dict.fromkeys(Region, 0)
    for (r, reg, kind), count in profile.counts.items():
        if r == victim and kind.is_candidate:
            space[reg] += count

    flips: list[PlannedFlip] = []
    chosen: set[tuple[Region, int]] = set()
    attempts = 0
    while len(chosen) < n_errors:
        attempts += 1
        if attempts > 100 * n_errors + 100:
            raise InjectionPlanError(
                f"cannot sample {n_errors} distinct flips from rank {victim}'s "
                f"{sum(space.values())} candidate instructions"
            )
        reg = _sample_region(space, victim, rng) if region is None else region
        if space[reg] == 0:
            raise InjectionPlanError(
                f"rank {victim} has no candidate instructions in region {reg}"
            )
        index = int(rng.integers(0, space[reg]))
        if (reg, index) in chosen:
            continue  # never target the same dynamic instruction twice
        chosen.add((reg, index))
        operand = Operand(int(rng.integers(0, 3)))
        if bits_per_error == 1:
            bits = [int(rng.integers(0, _N_BITS))]
        else:
            bits = sorted(
                int(b) for b in rng.choice(_N_BITS, size=bits_per_error, replace=False)
            )
        flips.extend(
            PlannedFlip(
                rank=victim, region=reg, index=index, operand=operand, bit=bit,
            )
            for bit in bits
        )
    return InjectionPlan(flips=tuple(flips))

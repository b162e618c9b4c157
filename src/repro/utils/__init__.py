"""Shared utilities: deterministic RNG trees, validation, tables."""

from repro.utils.rng import SeedSequenceTree, spawn_rng, trial_seed
from repro.utils.validation import (
    check_positive_int,
    check_probability,
    check_power_of_two,
    require,
)
from repro.utils.tables import format_table

__all__ = [
    "SeedSequenceTree",
    "spawn_rng",
    "trial_seed",
    "check_positive_int",
    "check_probability",
    "check_power_of_two",
    "require",
    "format_table",
]

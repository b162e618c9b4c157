"""Tests for the utils package (rng, validation, tables)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.utils.rng import SeedSequenceTree, spawn_rng, trial_seed
from repro.utils.tables import format_table
from repro.utils.validation import (
    check_positive_int,
    check_power_of_two,
    check_probability,
    require,
)


class TestRng:
    def test_same_path_same_stream(self):
        a = spawn_rng(7, "x", 3).standard_normal(5)
        b = spawn_rng(7, "x", 3).standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_different_keys_differ(self):
        a = spawn_rng(7, "x", 3).standard_normal(5)
        b = spawn_rng(7, "x", 4).standard_normal(5)
        assert not np.array_equal(a, b)

    def test_key_addressing_is_order_independent(self):
        tree = SeedSequenceTree(1)
        direct = tree.child("trial", 9).generator().integers(0, 1 << 30)
        tree2 = SeedSequenceTree(1)
        tree2.child("trial", 0)  # touching other children must not matter
        again = tree2.child("trial", 9).generator().integers(0, 1 << 30)
        assert direct == again

    def test_trial_seed_independent_of_other_trials(self):
        a = trial_seed(0, 5).integers(0, 1 << 30)
        b = trial_seed(0, 5).integers(0, 1 << 30)
        assert a == b

    def test_string_and_int_keys_distinct(self):
        a = SeedSequenceTree(0).child("1").generator().integers(0, 1 << 30)
        b = SeedSequenceTree(0).child(1).generator().integers(0, 1 << 30)
        assert a != b  # astronomically unlikely to collide


class TestValidation:
    def test_require(self):
        require(True, "fine")
        with pytest.raises(ConfigurationError, match="broken"):
            require(False, "broken")

    @pytest.mark.parametrize("bad", [0, -3, 1.5, True, "x"])
    def test_positive_int_rejects(self, bad):
        with pytest.raises(ConfigurationError):
            check_positive_int(bad, "n")

    def test_positive_int_accepts(self):
        assert check_positive_int(7, "n") == 7

    def test_probability(self):
        assert check_probability(0.5, "p") == 0.5
        for bad in (-0.1, 1.1, "x"):
            with pytest.raises(ConfigurationError):
                check_probability(bad, "p")

    def test_power_of_two(self):
        assert check_power_of_two(8, "n") == 8
        for bad in (0, 3, 12):
            with pytest.raises(ConfigurationError):
                check_power_of_two(bad, "n")


class TestTables:
    def test_alignment_and_title(self):
        out = format_table(["a", "bb"], [(1, 2.5), (30, 4.125)], title="T", ndigits=2)
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "2.50" in out and "4.12" in out

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a"], [(1, 2)])

    def test_empty_rows(self):
        out = format_table(["col"], [])
        assert "col" in out

"""Tests for the dual-value TArray container."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from repro.taint.tarray import TArray, arrays_equal, as_tarray

finite_arrays = hnp.arrays(
    dtype=np.float64,
    shape=hnp.array_shapes(max_dims=2, max_side=8),
    elements=st.floats(-1e6, 1e6),
)


class TestConstruction:
    def test_fresh_shares(self):
        t = TArray.fresh([1.0, 2.0])
        assert t.faulty is t.golden
        assert not t.diverged

    def test_diverged_when_different(self):
        t = TArray(np.array([1.0]), np.array([2.0]))
        assert t.diverged

    def test_equal_faulty_collapses_to_shared(self):
        g = np.array([1.0, 2.0])
        t = TArray(g, g.copy())
        assert t.faulty is t.golden

    def test_nan_payloads_compare_equal(self):
        g = np.array([np.nan, 1.0])
        t = TArray(g, np.array([np.nan, 1.0]))
        assert not t.diverged

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TArray(np.zeros(3), np.zeros(4))

    def test_integer_input_coerced_to_float(self):
        t = TArray.fresh([1, 2, 3])
        assert t.dtype == np.float64

    def test_immutability(self):
        t = TArray.fresh([1.0])
        with pytest.raises(ValueError):
            t.golden[0] = 5.0


class TestAccessors:
    def test_value_requires_scalar(self):
        assert TArray.fresh(3.5).value == 3.5
        with pytest.raises(ValueError):
            TArray.fresh([1.0, 2.0]).value

    def test_golden_value_on_diverged(self):
        t = TArray(np.array(1.0), np.array(2.0))
        assert t.golden_value == 1.0
        assert t.value == 2.0

    def test_to_numpy_is_faulty_path(self):
        t = TArray(np.array([1.0]), np.array([9.0]))
        np.testing.assert_array_equal(t.to_numpy(), [9.0])
        np.testing.assert_array_equal(t.golden_numpy(), [1.0])


class TestDataMovement:
    def test_getitem_clean_slice_of_diverged_array_reshares(self):
        g = np.arange(4.0)
        f = g.copy()
        f[3] = 99.0
        t = TArray(g, f)
        assert t.diverged
        assert not t[:3].diverged  # the corrupted lane is outside the slice
        assert t[2:].diverged

    def test_fancy_indexing(self):
        t = TArray.fresh(np.arange(10.0))
        picked = t[np.array([3, 1, 4])]
        np.testing.assert_array_equal(picked.to_numpy(), [3.0, 1.0, 4.0])

    def test_reshape_ravel_transpose(self):
        t = TArray.fresh(np.arange(6.0))
        r = t.reshape(2, 3)
        assert r.shape == (2, 3)
        assert r.ravel().shape == (6,)
        assert r.transpose(1, 0).shape == (3, 2)

    def test_concatenate_tracks_divergence(self):
        clean = TArray.fresh([1.0])
        dirty = TArray(np.array([1.0]), np.array([2.0]))
        assert not TArray.concatenate([clean, clean]).diverged
        assert TArray.concatenate([clean, dirty]).diverged

    def test_stack(self):
        a = TArray.fresh([1.0, 2.0])
        s = TArray.stack([a, a], axis=0)
        assert s.shape == (2, 2)

    def test_scatter(self):
        vals = TArray(np.array([5.0, 6.0]), np.array([5.0, 7.0]))
        out = TArray.scatter(vals, np.array([1, 3]), 5)
        np.testing.assert_array_equal(out.golden_numpy(), [0, 5, 0, 6, 0])
        np.testing.assert_array_equal(out.to_numpy(), [0, 5, 0, 7, 0])

    def test_copy_returns_self(self):
        t = TArray.fresh([1.0])
        assert t.copy() is t


class TestHelpers:
    def test_as_tarray_passthrough(self):
        t = TArray.fresh([1.0])
        assert as_tarray(t) is t
        assert as_tarray(2.0).value == 2.0

    @given(finite_arrays)
    def test_arrays_equal_reflexive(self, arr):
        assert arrays_equal(arr, arr.copy())

    @given(finite_arrays)
    def test_fresh_never_diverged(self, arr):
        assert not TArray.fresh(arr).diverged

    def test_arrays_equal_shape_mismatch(self):
        assert not arrays_equal(np.zeros(2), np.zeros(3))

    def test_negative_zero_equal(self):
        assert arrays_equal(np.array([0.0]), np.array([-0.0]))

    def test_arrays_equal_matches_numpy_nan_equality(self):
        """The one-pass comparison agrees with ``np.array_equal(...,
        equal_nan=True)`` on 20 000 pairs built to collide: NaNs (two
        payloads), ±0.0 and ±inf, 0-d arrays included."""
        payload_nan = np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0]
        pool = np.array([np.nan, payload_nan, 0.0, -0.0, np.inf, -np.inf, 1.0, -2.5])
        rng = np.random.default_rng(7)
        for _ in range(20_000):
            shape = tuple(rng.integers(1, 4, size=rng.integers(0, 3)))
            a = np.asarray(rng.choice(pool, size=shape))
            b = a.copy()
            flip = np.asarray(rng.random(shape) < rng.random())
            b[flip] = np.asarray(rng.choice(pool, size=shape))[flip]
            assert arrays_equal(a, b) == np.array_equal(a, b, equal_nan=True), (a, b)

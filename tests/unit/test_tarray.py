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


# ----------------------------------------------------------------------
# the immutability guard: every op result is read-only on both paths
# ----------------------------------------------------------------------
_G = np.linspace(1.0, 2.0, 6)
_OTHER = TArray.fresh(np.linspace(0.5, 3.0, 6))
_MASK = np.array([True, False, True, False, True, False])
_CSR = (np.arange(1.0, 7.0), np.array([0, 2, 5, 1, 3, 4]), np.array([0, 2, 2, 5, 6]))
_SEGMENTS = np.array([0, 2, 2, 6])

#: FPOps method -> a call on the operand under test ``x``
FP_OPS = {
    **{name: (lambda name: lambda fp, x: getattr(fp, name)(x, _OTHER))(name)
       for name in ("add", "sub", "mul", "div", "minimum", "maximum", "dot")},
    **{name: (lambda name: lambda fp, x: getattr(fp, name)(x))(name)
       for name in ("neg", "abs", "sqrt", "exp", "log", "sin", "cos",
                    "reciprocal", "sum", "norm2", "max", "min")},
    "where": lambda fp, x: fp.where(_MASK, x, _OTHER),
    "csr_matvec": lambda fp, x: fp.csr_matvec(*_CSR, x),
    "segment_sum": lambda fp, x: fp.segment_sum(x, _SEGMENTS),
}

#: data-movement op -> a call on the operand under test ``x``
MOVEMENT_OPS = {
    "getitem_slice": lambda x: x[1:4],
    "getitem_scalar": lambda x: x[2],
    "getitem_fancy": lambda x: x[np.array([4, 0, 2])],
    "reshape": lambda x: x.reshape(2, 3),
    "transpose": lambda x: x.reshape(2, 3).transpose(),
    "concatenate": lambda x: TArray.concatenate([x, _OTHER]),
    "stack": lambda x: TArray.stack([x, _OTHER]),
    "scatter": lambda x: TArray.scatter(x, np.arange(6) * 2, 12),
}

#: FPOps methods that do not return a traced result
_NOT_OPS = {"asarray", "region", "current_region", "greater", "less"}


def _operand(path: str) -> TArray:
    if path == "clean":
        return TArray.fresh(_G)
    return TArray(_G.copy(), _G * (1 + 1e-3))  # every element diverged


def _assert_read_only(out: TArray, path: str) -> None:
    assert out.diverged == (path == "diverged")
    for arr in (out.golden, out.faulty):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[...] = 0.0


class TestImmutabilityGuard:
    """Shared payloads are safe only while nothing can write into them."""

    def test_every_fpops_op_is_covered(self):
        from repro.taint.ops import FPOps

        public = {n for n in dir(FPOps) if not n.startswith("_")}
        assert public - _NOT_OPS == set(FP_OPS)

    @pytest.mark.parametrize("path", ["clean", "diverged"])
    @pytest.mark.parametrize("op", sorted(FP_OPS))
    def test_fpops_results_are_read_only(self, op, path):
        from repro.taint.ops import FPOps

        _assert_read_only(FP_OPS[op](FPOps(), _operand(path)), path)

    @pytest.mark.parametrize("path", ["clean", "diverged"])
    @pytest.mark.parametrize("op", sorted(MOVEMENT_OPS))
    def test_movement_results_are_read_only(self, op, path):
        _assert_read_only(MOVEMENT_OPS[op](_operand(path)), path)

    def test_constructor_freezes_op_results_in_place(self):
        g, f = np.ones(3), np.full(3, 2.0)
        out = TArray(g, f)
        assert out.golden is g and out.faulty is f
        assert not g.flags.writeable and not f.flags.writeable

    @pytest.mark.parametrize("faulty", [None, "same", "equal", "nan"])
    def test_constructor_reshares_equal_values(self, faulty):
        g = np.array([1.0, np.nan, -0.0])
        f = {None: None, "same": g, "equal": g.copy(),
             "nan": np.array([1.0, np.nan, 0.0])}[faulty]
        out = TArray(g, f)
        assert out.faulty is out.golden is g

    def test_constructor_coerces_what_is_not_a_float_ndarray(self):
        out = TArray(np.float64(1.0), np.float64(2.0))  # 0-d ufunc results
        assert isinstance(out.golden, np.ndarray) and out.golden.shape == ()
        assert out.diverged and out.value == 2.0
        assert not out.faulty.flags.writeable
        out = TArray(np.arange(3), [0.0, 1.0, 5.0])
        assert out.golden.dtype == np.float64 and out.faulty.dtype == np.float64
        with pytest.raises(ValueError, match="shape mismatch"):
            TArray(np.ones(3), np.ones(4))

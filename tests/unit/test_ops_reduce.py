"""Reduction and sparse traced operations: sum, dot, csr_matvec, segment_sum."""

import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.fi.plan import InjectionPlan, PlannedFlip
from repro.fi.tracer import Tracer, TracerMode
from repro.numerics.bits import flip_bit_scalar
from repro.taint import ops
from repro.taint.ops import FPOps, _sum_sequential_with_injections
from repro.taint.region import Region
from repro.taint.tarray import TArray
from repro.taint.tracer_api import LaneInjection, Operand
from tests.conftest import make_inject_fp


class TestSumAndDot:
    def test_sum_matches_numpy(self, fp, rng):
        a = rng.standard_normal(100)
        assert fp.sum(fp.asarray(a)).value == pytest.approx(np.sum(a), rel=1e-15)

    def test_sum_counts_n_minus_1_adds(self):
        tracer = Tracer(TracerMode.PROFILE)
        fp = FPOps(tracer)
        fp.sum(fp.asarray(np.ones(10)))
        assert tracer.profile.candidates(0) == 9

    def test_dot_counts_muls_and_adds(self):
        tracer = Tracer(TracerMode.PROFILE)
        fp = FPOps(tracer)
        fp.dot(fp.asarray(np.ones(10)), fp.asarray(np.ones(10)))
        assert tracer.profile.candidates(0) == 10 + 9

    def test_dot_matches_numpy(self, fp, rng):
        a, b = rng.standard_normal(64), rng.standard_normal(64)
        assert fp.dot(fp.asarray(a), fp.asarray(b)).value == pytest.approx(
            np.dot(a, b), rel=1e-12
        )

    def test_norm2(self, fp, rng):
        a = rng.standard_normal(16)
        assert fp.norm2(fp.asarray(a)).value == pytest.approx(np.linalg.norm(a))

    def test_max_min(self, fp, rng):
        a = rng.standard_normal(16)
        assert fp.max(fp.asarray(a)).value == a.max()
        assert fp.min(fp.asarray(a)).value == a.min()

    def test_sum_single_element_no_adds(self):
        tracer = Tracer(TracerMode.PROFILE)
        fp = FPOps(tracer)
        out = fp.sum(fp.asarray([4.0]))
        assert out.value == 4.0
        assert tracer.profile.candidates(0) == 0


class TestReductionInjection:
    def test_element_flip_in_reduction(self, rng):
        a = rng.standard_normal(8)
        # reduction add i consumes element i+1: flip element 4's view
        fp, tracer = make_inject_fp(index=3, operand=Operand.B, bit=63)
        out = fp.sum(fp.asarray(a))
        expected = np.sum(a) - 2 * a[4]
        assert out.value == pytest.approx(expected, rel=1e-12)
        assert tracer.all_flips_activated

    def test_accumulator_flip_corrupts_prefix(self, rng):
        a = rng.standard_normal(6)
        fp, _ = make_inject_fp(index=2, operand=Operand.A, bit=63)
        out = fp.sum(fp.asarray(a))
        # accumulator before add 2 holds sum(a[:3]); sign-flip it
        expected = -np.sum(a[:3]) + np.sum(a[3:])
        assert out.value == pytest.approx(expected, rel=1e-12)

    def test_out_flip_applies_after_add(self, rng):
        a = rng.standard_normal(4)
        fp, _ = make_inject_fp(index=2, operand=Operand.OUT, bit=63)
        out = fp.sum(fp.asarray(a))
        assert out.value == pytest.approx(-np.sum(a), rel=1e-12)

    def test_golden_path_untouched_by_reduction_injection(self, rng):
        a = rng.standard_normal(16)
        fp, _ = make_inject_fp(index=7, operand=Operand.A, bit=55)
        out = fp.sum(fp.asarray(a))
        # golden uses the same association order minus the flip
        assert out.golden_value == pytest.approx(np.sum(a), rel=1e-12)

    def test_low_bit_reduction_flip_can_be_absorbed(self):
        """Flipping the LSB of a tiny element in a big sum rounds away."""
        a = np.array([1e16, 1.0, 1e16])
        fp, tracer = make_inject_fp(index=0, operand=Operand.B, bit=0)
        out = fp.sum(fp.asarray(a))
        assert not out.diverged
        assert tracer.all_flips_activated


def _random_csr(rng, nrows=12, ncols=10, density=0.4):
    m = sp.random(nrows, ncols, density=density, random_state=42, format="csr")
    m.data = rng.standard_normal(m.nnz)
    return m


class TestCsrMatvec:
    def test_matches_scipy(self, fp, rng):
        m = _random_csr(rng)
        x = rng.standard_normal(m.shape[1])
        y = fp.csr_matvec(m.data, m.indices, m.indptr, fp.asarray(x))
        np.testing.assert_allclose(y.to_numpy(), m @ x, rtol=1e-12)

    def test_trailing_empty_rows_keep_last_product(self, fp):
        """Regression: trailing empty rows must not drop prod[nnz-1]."""
        indptr = np.array([0, 3, 3, 3])
        indices = np.array([0, 1, 2])
        data = np.array([1.0, 2.0, 4.0])
        y = fp.csr_matvec(data, indices, indptr, fp.asarray([1.0, 1.0, 1.0]))
        np.testing.assert_array_equal(y.to_numpy(), [7.0, 0.0, 0.0])

    def test_empty_rows_give_zero(self, fp, rng):
        indptr = np.array([0, 2, 2, 3])
        indices = np.array([0, 1, 2])
        data = np.array([1.0, 2.0, 3.0])
        x = fp.asarray([1.0, 1.0, 1.0])
        y = fp.csr_matvec(data, indices, indptr, x)
        np.testing.assert_array_equal(y.to_numpy(), [3.0, 0.0, 3.0])

    def test_instruction_counts(self, rng):
        m = _random_csr(rng)
        tracer = Tracer(TracerMode.PROFILE)
        fp = FPOps(tracer)
        fp.csr_matvec(m.data, m.indices, m.indptr, fp.asarray(np.ones(m.shape[1])))
        lens = np.diff(m.indptr)
        expected = m.nnz + int(np.maximum(lens - 1, 0).sum())
        assert tracer.profile.candidates(0) == expected

    def test_mul_stage_injection(self, rng):
        m = _random_csr(rng)
        x = rng.standard_normal(m.shape[1])
        k = 5  # corrupt the 6th stored product's A operand (matrix entry)
        fp, tracer = make_inject_fp(index=k, operand=Operand.A, bit=63)
        y = fp.csr_matvec(m.data, m.indices, m.indptr, fp.asarray(x))
        row = int(np.searchsorted(m.indptr, k, side="right")) - 1
        expected = m @ x
        expected[row] -= 2 * m.data[k] * x[m.indices[k]]
        np.testing.assert_allclose(y.to_numpy(), expected, rtol=1e-10)
        assert tracer.contaminated == {0}

    def test_add_stage_injection_changes_single_row(self, rng):
        m = _random_csr(rng, density=0.8)
        x = rng.standard_normal(m.shape[1])
        lens = np.diff(m.indptr)
        n_adds = int(np.maximum(lens - 1, 0).sum())
        fp, tracer = make_inject_fp(
            index=m.nnz + n_adds // 2, operand=Operand.OUT, bit=63
        )
        y = fp.csr_matvec(m.data, m.indices, m.indptr, fp.asarray(x))
        diff = np.abs(y.to_numpy() - m @ x) > 1e-12
        assert diff.sum() == 1  # exactly one row corrupted
        assert tracer.all_flips_activated

    def test_diverged_x_propagates(self, fp, rng):
        m = _random_csr(rng)
        x = rng.standard_normal(m.shape[1])
        xf = x.copy()
        xf[0] += 1.0
        y = fp.csr_matvec(m.data, m.indices, m.indptr, TArray(x, xf))
        assert y.diverged
        np.testing.assert_allclose(y.golden_numpy(), m @ x, rtol=1e-12)
        np.testing.assert_allclose(y.to_numpy(), m @ xf, rtol=1e-12)

    def test_data_length_mismatch(self, fp):
        with pytest.raises(ValueError):
            fp.csr_matvec(np.ones(3), np.array([0, 1]), np.array([0, 2]), fp.asarray([1.0, 1.0]))


class TestSegmentSum:
    def test_matches_reduceat(self, fp, rng):
        vals = rng.standard_normal(20)
        indptr = np.array([0, 3, 3, 10, 20])
        out = fp.segment_sum(fp.asarray(vals), indptr)
        expected = [vals[0:3].sum(), 0.0, vals[3:10].sum(), vals[10:20].sum()]
        np.testing.assert_allclose(out.to_numpy(), expected, rtol=1e-12)

    def test_counts_adds(self):
        tracer = Tracer(TracerMode.PROFILE)
        fp = FPOps(tracer)
        fp.segment_sum(fp.asarray(np.ones(10)), np.array([0, 4, 10]))
        assert tracer.profile.candidates(0) == 3 + 5

    def test_injection_in_segment(self, rng):
        vals = rng.standard_normal(10)
        indptr = np.array([0, 4, 10])
        # segment 1 has 5 adds at stream offsets 3..7; flip its first add's
        # incoming element (segment element index 1 => vals[5])
        fp, tracer = make_inject_fp(index=3, operand=Operand.B, bit=63)
        out = fp.segment_sum(fp.asarray(vals), indptr)
        expected0 = vals[:4].sum()
        expected1 = vals[4:].sum() - 2 * vals[5]
        np.testing.assert_allclose(out.to_numpy(), [expected0, expected1], rtol=1e-12)
        assert tracer.all_flips_activated

    def test_length_mismatch(self, fp):
        with pytest.raises(ValueError):
            fp.segment_sum(fp.asarray(np.ones(5)), np.array([0, 3]))


class TestSequentialDecomposition:
    """The helper behind reduction injections must be order-exact."""

    @given(
        data=st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=30),
        offset_frac=st.floats(0.0, 0.999),
        operand=st.sampled_from(list(Operand)),
    )
    @settings(max_examples=60)
    def test_no_flip_equals_plain_sum(self, data, offset_frac, operand):
        arr = np.array(data)
        offset = int(offset_frac * (len(data) - 1))
        injs = [LaneInjection(offset=offset, operand=operand, bit=3)]
        val = _sum_sequential_with_injections(arr, injs, apply_flips=False)
        # identical association order as a plain left fold
        acc = arr[0]
        for v in arr[1:]:
            acc = acc + v
        assert val == pytest.approx(acc, rel=1e-12, abs=1e-9)

    def test_multiple_flips_sorted_application(self, rng):
        arr = rng.standard_normal(10)
        injs = [
            LaneInjection(offset=7, operand=Operand.B, bit=63),
            LaneInjection(offset=2, operand=Operand.B, bit=63),
        ]
        val = _sum_sequential_with_injections(arr, injs, apply_flips=True)
        expected = arr.sum() - 2 * arr[3] - 2 * arr[8]
        assert val == pytest.approx(expected, rel=1e-10)

    def test_empty_array(self):
        assert _sum_sequential_with_injections(np.array([]), [], True) == 0.0


class TestCsrLayoutCache:
    """``_csr_layout`` memoizes read-only row pointers by identity."""

    @pytest.fixture(autouse=True)
    def _empty_cache(self):
        ops._CSR_LAYOUT_CACHE.clear()
        yield
        ops._CSR_LAYOUT_CACHE.clear()

    @staticmethod
    def _frozen(values) -> np.ndarray:
        arr = np.array(values)
        arr.setflags(write=False)
        return arr

    @staticmethod
    def _uncached(indptr):
        lengths = np.diff(indptr)
        return lengths == 0, np.concatenate(([0], np.cumsum(np.maximum(lengths - 1, 0))))

    def test_writable_indptr_is_never_cached(self, fp):
        indptr = np.array([0, 2, 2, 3])
        fp.csr_matvec(np.ones(3), np.array([0, 1, 2]), indptr, fp.asarray(np.ones(3)))
        fp.segment_sum(fp.asarray(np.ones(3)), indptr)
        assert ops._CSR_LAYOUT_CACHE == {}

    def test_read_only_view_is_never_cached(self):
        base = np.array([0, 2, 2, 3])
        view = base[:]
        view.setflags(write=False)
        ops._csr_layout(view)
        assert ops._CSR_LAYOUT_CACHE == {}

    def test_read_only_indptr_is_cached(self):
        indptr = self._frozen([0, 2, 2, 3])
        first = ops._csr_layout(indptr)
        again = ops._csr_layout(indptr)
        assert again[0] is first[0] and again[1] is first[1]
        assert not first[0].flags.writeable and not first[1].flags.writeable

    def test_recycled_id_never_shares_an_entry(self):
        live = self._frozen([0, 1, 1, 1, 3])
        other = self._frozen([0, 3])
        # another array's entry under the id() this array now holds
        ops._CSR_LAYOUT_CACHE[id(live)] = (weakref.ref(other), *self._uncached(other))
        for got, want in zip(ops._csr_layout(live), self._uncached(live)):
            np.testing.assert_array_equal(got, want)
        assert ops._CSR_LAYOUT_CACHE[id(live)][0]() is live
        # and arrays freed and reallocated in a loop, ids recycled or not
        for n in range(1, 40):
            indptr = self._frozen(np.arange(n + 1) * (n % 3))
            for got, want in zip(ops._csr_layout(indptr), self._uncached(indptr)):
                np.testing.assert_array_equal(got, want)
            del indptr

    def test_entries_live_as_long_as_their_indptr(self):
        """Bounded by the live arrays, whatever their number: 256 rank
        blocks all stay cached, and freeing them empties the cache."""
        keep = [self._frozen([0, k, 2 * k]) for k in range(256)]
        first = [ops._csr_layout(indptr) for indptr in keep]
        assert len(ops._CSR_LAYOUT_CACHE) == len(keep)
        for indptr, layout in zip(keep, first):
            assert ops._csr_layout(indptr)[1] is layout[1]
        del keep, indptr
        gc.collect()
        assert ops._CSR_LAYOUT_CACHE == {}
        for n in range(1000):  # short-lived arrays never pile up
            ops._csr_layout(self._frozen([0, n]))
            assert len(ops._CSR_LAYOUT_CACHE) <= 1

    @pytest.mark.parametrize("index", [4, 13, 19])
    def test_cached_layout_gives_the_same_bytes(self, rng, index):
        """Empty rows (leading, inner, trailing) and flips in either stage:
        12 multiplies, then 8 reduction adds."""
        indptr = np.array([0, 0, 3, 3, 7, 8, 8, 12, 12])
        indices = rng.integers(0, 5, size=12)
        data, x = rng.standard_normal(12), rng.standard_normal(5)
        frozen = indptr.copy()
        frozen.setflags(write=False)
        outs = []
        for ptr in (indptr, frozen, frozen):  # uncached, cache miss, cache hit
            fp, tracer = make_inject_fp(index=index, operand=Operand.B, bit=40)
            y = fp.csr_matvec(data, indices, ptr, fp.asarray(x))
            assert y.diverged and tracer.all_flips_activated
            fp, tracer = make_inject_fp(index=index % 8, operand=Operand.A, bit=40)
            s = fp.segment_sum(fp.asarray(data), ptr)
            assert tracer.all_flips_activated
            outs.append([a.tobytes() for a in (y.golden, y.faulty, s.golden, s.faulty)])
        assert outs[0] == outs[1] == outs[2]
        assert len(ops._CSR_LAYOUT_CACHE) == 1

"""Lane-vectorized traced operations: N trials per pass through the app.

:class:`LaneFPOps` executes the batched counterpart of every
:class:`~repro.taint.ops.FPOps` operation: one golden computation plus a
``(k, ...)`` stack of per-lane faulty shadows, where lane ``i`` carries
trial ``i``'s injected execution (see :mod:`repro.fi.lanes` and
docs/performance.md, "Lane vectorization").  The contract is exact
scalar parity — every lane's faulty (and, after injected reductions,
golden) values are bit-identical to what a lanes=1 run of that trial
would hold:

* elementwise add/sub/mul/div/min/max, ``where`` selection and
  comparisons are exactly rounded per element, so one vectorized ufunc
  call over the stacks reproduces every lane's scalar bits;
* reductions only ever reduce contiguous rows — ``np.add.reduceat`` is
  sequential per segment, and a row-wise ``np.sum`` applies the same
  pairwise blocking as the scalar path's 1-D sum;
* transcendentals (exp/log/sin/cos/sqrt/...) may vary bits with SIMD
  position, so lanes whose *input* row is bit-equal to the golden array
  are forced back onto the golden output bits — exactly the sharing the
  scalar path gets for free;
* lanes hit by an injection are recomputed with the scalar path's own
  sequential decomposition (:func:`_sum_sequential_with_injections`),
  golden and faulty alike (rounding parity).

Contamination marks and flip observations route through the batch
tracer per lane; the plain ``mark_contaminated``/``record_flip`` sink
channels are never used (the batch's own golden/faulty pair never
diverges).  Comparisons whose faulty mask differs from the golden mask
for some lane *eject* those lanes: their control flow leaves the golden
path, so the batch hands them back for scalar re-execution.
"""

from __future__ import annotations

import numpy as np

from repro.taint.ops import (
    FPOps,
    _flip_bits,
    _group_injections,
    _lane_value,
    _segmented_sums,
    _sum_sequential_with_injections,
)
from repro.taint.tarray import TArray, _rows_bitwise_equal, as_tarray
from repro.taint.tracer_api import LaneInjection, Operand, OpKind

__all__ = ["LaneFPOps"]


def _pad_stack(stack: np.ndarray, out_ndim: int) -> np.ndarray:
    """Left-pad a ``(k, ...)`` stack's row axes for output broadcasting.

    numpy broadcasting right-aligns shapes, but the lane axis sits at
    position 0 — so a stack whose rows have fewer dims than the output
    needs explicit length-1 axes inserted after the lane axis.
    """
    pad = out_ndim - (stack.ndim - 1)
    if pad <= 0:
        return stack
    return stack.reshape((stack.shape[0],) + (1,) * pad + stack.shape[1:])


def _segmented_sums_stack(
    prod: np.ndarray, indptr: np.ndarray, empty_rows: np.ndarray
) -> np.ndarray:
    """Row-wise :func:`_segmented_sums` over a ``(k, nnz)`` stack.

    ``reduceat`` runs the same sequential per-segment adds along axis 1
    for every lane as the scalar path runs on its 1-D array, so the
    bits match lane for lane.
    """
    k = prod.shape[0]
    nrows = indptr.size - 1
    if prod.shape[1] == 0:
        return np.zeros((k, nrows))
    if not empty_rows.any():
        return np.add.reduceat(prod, indptr[:-1], axis=1)
    out = np.zeros((k, nrows))
    out[:, ~empty_rows] = np.add.reduceat(prod, indptr[:-1][~empty_rows], axis=1)
    return out


def _by_lane(injections) -> dict[int, list[LaneInjection]]:
    """Group account() results per lane, preserving firing order."""
    per: dict[int, list[LaneInjection]] = {}
    for inj in injections:
        per.setdefault(inj.lane, []).append(inj)
    return per


_EMPTY_LANES = np.empty(0, dtype=np.intp)


def _active_lanes(k: int, injections, *lane_sets) -> np.ndarray:
    """Sorted indices of lanes that can differ from golden after this op.

    The union of every input LaneSet's diverged lanes and the lanes this
    op injects into: all other lanes' rows are bit-identical to the
    golden array (exact ops on bit-identical inputs — the invariant
    ``TArray.batched`` maintains whenever there is no golden drift), so
    per-lane work can skip them entirely.
    """
    live = [ls for ls in lane_sets if ls is not None]
    if not injections:
        # per-op fast paths: the no-injection case runs thousands of
        # times per pass, so avoid rebuilding masks already cached
        if not live:
            return _EMPTY_LANES
        if len(live) == 1 and live[0].gdrift is None:
            return live[0].div_lanes()
    cand: np.ndarray | None = None
    for ls in live:
        mask = ls.div if ls.gdrift is None else ls.div | ls.gdrift
        cand = mask if cand is None else cand | mask
    if cand is None:
        cand = np.zeros(k, dtype=bool)
    elif injections and cand is live[0].div:
        cand = cand.copy()  # never scribble on a LaneSet's own mask
    for inj in injections:
        cand[inj.lane] = True
    return np.nonzero(cand)[0]


def _drift_lanes(k: int, *lane_sets) -> np.ndarray:
    """Sorted indices of lanes with golden drift in any input."""
    live = [ls for ls in lane_sets
            if ls is not None and ls.gdrift is not None]
    if not live:
        return _EMPTY_LANES
    if len(live) == 1:
        return np.nonzero(live[0].gdrift)[0]
    drift = live[0].gdrift | live[1].gdrift
    for ls in live[2:]:
        drift |= ls.gdrift
    return np.nonzero(drift)[0]


class LaneFPOps(FPOps):
    """Per-rank traced operations over lane-batched TArrays.

    ``batch`` is the :class:`repro.fi.lanes.BatchTracer` coordinating
    the lanes; ``sink`` is the same object in its TraceSink role (the
    base class wraps it with the observability meter exactly as the
    scalar path does, so ``fp.*`` instruction counters are recorded
    once per pass = once per trial).
    """

    def __init__(self, sink, rank: int, batch):
        super().__init__(sink, rank)
        self._batch = batch

    # ------------------------------------------------------------------
    # per-lane contamination marks
    # ------------------------------------------------------------------
    def _mark_from(self, out: TArray) -> None:
        """Mark every diverged lane of ``out`` — the scalar path's
        ``mark_contaminated``-iff-``out.diverged``, per lane."""
        ls = out.lanes
        if ls is None:
            return
        lanes = ls.div_lanes()
        if lanes.size:
            self._batch.mark_lanes_from_op(self.rank, lanes)

    # ------------------------------------------------------------------
    # elementwise binary
    # ------------------------------------------------------------------
    def _ewise2_impl(self, ufunc, kind: OpKind, a, b) -> TArray:
        ta, tb = as_tarray(a), as_tarray(b)
        lsa, lsb = ta.lanes, tb.lanes
        g = ufunc(ta.golden, tb.golden)
        injections = self._sink.account(self.rank, self._region, kind, g.size)
        if lsa is None and lsb is None and not injections:
            return TArray(g)
        k = self._batch.k
        out_shape = g.shape
        # Only active lanes can differ from golden (the other rows'
        # inputs are bit-identical to golden and these ufuncs are
        # exactly rounded per element, so their outputs land on the
        # golden bits by construction); ``candidates`` confines the
        # divergence compare in ``batched`` to those rows.
        cand = _active_lanes(k, injections, lsa, lsb)
        if lsa is None and lsb is None:
            fstack = np.repeat(g[np.newaxis], k, axis=0)
        else:
            fa = _pad_stack(lsa.fstack, g.ndim) if lsa is not None else ta.faulty
            fb = _pad_stack(lsb.fstack, g.ndim) if lsb is not None else tb.faulty
            fstack = ufunc(fa, fb)
        # Golden drift is sparse — compute drifted rows only, everyone
        # else's golden shadow is the batch golden itself.
        gd = _drift_lanes(k, lsa, lsb)
        gstack = None
        if gd.size:
            gstack = np.repeat(g[np.newaxis], k, axis=0)
            ga = (
                _pad_stack(lsa.gstack[gd], g.ndim)
                if lsa is not None and lsa.gstack is not None
                else ta.golden
            )
            gb = (
                _pad_stack(lsb.gstack[gd], g.ndim)
                if lsb is not None and lsb.gstack is not None
                else tb.golden
            )
            gstack[gd] = ufunc(ga, gb)
        for lane, lane_injs in sorted(_by_lane(injections).items()):
            fa_lane = np.asarray(lsa.fstack[lane]) if lsa is not None else ta.faulty
            fb_lane = np.asarray(lsb.fstack[lane]) if lsb is not None else tb.faulty
            # Write through the lane's row view (0-d for scalar-shaped
            # outputs) in C order, whatever the stack's layout: numpy's
            # default 'K' order can leave the lane axis inner, and a
            # flat reshape of such a stack is a copy that would swallow
            # the flip.
            row_flat = fstack[lane, ...].flat
            on_flip = self._batch.lane_flip_reporter(
                lane, self.rank, self._region, kind
            )
            for off, operand, bits, index in _group_injections(lane_injs):
                a_val = _lane_value(fa_lane, off, out_shape)
                b_val = _lane_value(fb_lane, off, out_shape)
                if operand == Operand.A:
                    pre, post = a_val, _flip_bits(a_val, bits)
                    row_flat[off] = ufunc(post, b_val)
                elif operand == Operand.B:
                    pre, post = b_val, _flip_bits(b_val, bits)
                    row_flat[off] = ufunc(a_val, post)
                else:
                    pre = float(row_flat[off])
                    post = _flip_bits(pre, bits)
                    row_flat[off] = post
                on_flip(index, operand, bits, pre, post)
        out = TArray.batched(g, fstack, gstack, self._batch, candidates=cand)
        self._mark_from(out)
        return out

    # ------------------------------------------------------------------
    # elementwise unary (never a candidate, never injected)
    # ------------------------------------------------------------------
    def _ewise1_impl(self, ufunc, a) -> TArray:
        ta = as_tarray(a)
        ls = ta.lanes
        if ls is None:
            return super()._ewise1_impl(ufunc, a)
        self._sink.account(self.rank, self._region, OpKind.OTHER, ta.size)
        g = ufunc(ta.golden)
        # Non-active rows are bit-equal to the golden input, so they
        # must reproduce the golden output bits exactly — which also
        # sidesteps transcendental SIMD loops producing
        # position-dependent bits for bit-equal inputs.  Active rows
        # that still match the golden input bits are forced likewise.
        cand = _active_lanes(ls.k, (), ls)
        fstack = np.repeat(np.asarray(g)[np.newaxis], ls.k, axis=0)
        if cand.size:
            fsub = np.asarray(ufunc(ls.fstack[cand]))
            same = _rows_bitwise_equal(ls.fstack[cand], ta.golden)
            if same.any():
                fsub[same] = g
            fstack[cand] = fsub
        gd = _drift_lanes(ls.k, ls)
        gstack = None
        if gd.size:
            gstack = np.repeat(np.asarray(g)[np.newaxis], ls.k, axis=0)
            gsub = np.asarray(ufunc(ls.gstack[gd]))
            gsame = _rows_bitwise_equal(ls.gstack[gd], ta.golden)
            if gsame.any():
                gsub[gsame] = g
            gstack[gd] = gsub
        out = TArray.batched(
            np.asarray(g), fstack, gstack, self._batch, candidates=cand
        )
        self._mark_from(out)
        return out

    # ------------------------------------------------------------------
    # selection / comparison
    # ------------------------------------------------------------------
    def _where_impl(self, cond: np.ndarray, a, b) -> TArray:
        ta, tb = as_tarray(a), as_tarray(b)
        lsa, lsb = ta.lanes, tb.lanes
        if lsa is None and lsb is None:
            return super()._where_impl(cond, a, b)
        g = np.where(cond, ta.golden, tb.golden)
        self._sink.account(self.rank, self._region, OpKind.OTHER, int(g.size))
        # selection is exact, so non-active rows reproduce the golden
        # bits; ``candidates`` confines the compare
        cand = _active_lanes(self._batch.k, (), lsa, lsb)
        fa = _pad_stack(lsa.fstack, g.ndim) if lsa is not None else ta.faulty
        fb = _pad_stack(lsb.fstack, g.ndim) if lsb is not None else tb.faulty
        fstack = np.where(cond, fa, fb)
        gd = _drift_lanes(self._batch.k, lsa, lsb)
        gstack = None
        if gd.size:
            gstack = np.repeat(g[np.newaxis], self._batch.k, axis=0)
            ga = (
                _pad_stack(lsa.gstack[gd], g.ndim)
                if lsa is not None and lsa.gstack is not None
                else ta.golden
            )
            gb = (
                _pad_stack(lsb.gstack[gd], g.ndim)
                if lsb is not None and lsb.gstack is not None
                else tb.golden
            )
            gstack[gd] = np.where(cond, ga, gb)
        out = TArray.batched(g, fstack, gstack, self._batch, candidates=cand)
        self._mark_from(out)
        return out

    def _compare(self, op, a, b) -> np.ndarray:
        """Faulty-path comparison; ejects lanes whose mask disagrees.

        The returned mask is the batch (= golden-path) mask: every lane
        still in the batch branches exactly like the fault-free run, and
        lanes that would branch differently re-execute on the scalar
        path — same contract as a ``TArray.value`` control-flow read.
        """
        ta, tb = as_tarray(a), as_tarray(b)
        lsa, lsb = ta.lanes, tb.lanes
        base = np.asarray(op(ta.faulty, tb.faulty))
        if lsa is None and lsb is None:
            return base
        # Bit-identical rows compare identically — only active lanes
        # (diverged or golden-drifted) can branch differently.
        cand = _active_lanes(self._batch.k, (), lsa, lsb)
        if not cand.size:
            return base
        fa = (
            _pad_stack(lsa.fstack[cand], base.ndim)
            if lsa is not None else ta.faulty
        )
        fb = (
            _pad_stack(lsb.fstack[cand], base.ndim)
            if lsb is not None else tb.faulty
        )
        masks = op(fa, fb)
        sub = (masks != base).reshape(masks.shape[0], -1).any(axis=1)
        if sub.any():
            differ = np.zeros(self._batch.k, dtype=bool)
            differ[cand] = sub
            ls = lsa if lsa is not None else lsb
            ls.eject(differ, "comparison")
        return base

    def greater(self, a, b) -> np.ndarray:
        return self._compare(np.greater, a, b)

    def less(self, a, b) -> np.ndarray:
        return self._compare(np.less, a, b)

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    def _sum_impl(self, a) -> TArray:
        ta = as_tarray(a)
        ls = ta.lanes
        n = ta.size
        injections = self._sink.account(
            self.rank, self._region, OpKind.ADD, max(n - 1, 0)
        )
        g_flat = ta.golden.reshape(-1)
        g = np.asarray(np.sum(g_flat))
        if ls is None and not injections:
            return TArray(g)
        k = self._batch.k
        gvals = np.full(k, float(g))
        if ls is not None:
            for lane in _drift_lanes(k, ls):
                gvals[lane] = np.sum(ls.gstack[lane].reshape(-1))
        fvals = gvals.copy()
        if ls is not None and ls.div.any():
            idx = np.nonzero(ls.div)[0]
            fmat = np.ascontiguousarray(ls.fstack.reshape(k, -1)[idx])
            fvals[idx] = np.sum(fmat, axis=1)
        for lane, lane_injs in sorted(_by_lane(injections).items()):
            gl = (
                ls.gstack[lane].reshape(-1)
                if ls is not None and ls.gstack is not None
                else g_flat
            )
            fl = ls.fstack[lane].reshape(-1) if ls is not None else g_flat
            gvals[lane] = _sum_sequential_with_injections(
                gl, lane_injs, apply_flips=False
            )
            fvals[lane] = _sum_sequential_with_injections(
                fl, lane_injs, apply_flips=True,
                on_flip=self._batch.lane_flip_reporter(
                    lane, self.rank, self._region, OpKind.ADD
                ),
            )
        shape = (k,) + g.shape
        out = TArray.batched(
            g, fvals.reshape(shape), gvals.reshape(shape), self._batch,
            candidates=_active_lanes(k, injections, ls),
        )
        self._mark_from(out)
        return out

    def _reduce_passive_impl(self, reducer, a) -> TArray:
        ta = as_tarray(a)
        ls = ta.lanes
        if ls is None:
            return super()._reduce_passive_impl(reducer, a)
        self._sink.account(
            self.rank, self._region, OpKind.OTHER, max(ta.size - 1, 0)
        )
        g = np.asarray(reducer(ta.golden))
        k = ls.k
        gvals = np.full(k, float(g))
        for lane in _drift_lanes(k, ls):
            gvals[lane] = reducer(ls.gstack[lane])
        fvals = gvals.copy()
        for lane in np.nonzero(ls.div)[0]:
            fvals[lane] = reducer(ls.fstack[lane])
        shape = (k,) + g.shape
        out = TArray.batched(
            g, fvals.reshape(shape), gvals.reshape(shape), self._batch,
            candidates=_active_lanes(k, (), ls),
        )
        self._mark_from(out)
        return out

    # ------------------------------------------------------------------
    # CSR matvec / segmented sums
    # ------------------------------------------------------------------
    def _csr_matvec_impl(
        self, data, indices: np.ndarray, indptr: np.ndarray, x
    ) -> TArray:
        tdata, tx = as_tarray(data), as_tarray(x)
        lsd, lsx = tdata.lanes, tx.lanes
        indices = np.asarray(indices)
        indptr = np.asarray(indptr)
        nnz = int(indptr[-1])
        if tdata.size != nnz:
            raise ValueError(f"CSR data length {tdata.size} != indptr nnz {nnz}")
        row_lengths = np.diff(indptr)
        empty_rows = row_lengths == 0

        mul_injs = self._sink.account(self.rank, self._region, OpKind.MUL, nnz)
        add_counts = np.maximum(row_lengths - 1, 0)
        add_offsets = np.concatenate(([0], np.cumsum(add_counts)))
        add_injs = self._sink.account(
            self.rank, self._region, OpKind.ADD, int(add_offsets[-1])
        )

        prod_g = tdata.golden * tx.golden[indices]
        y_g = _segmented_sums(prod_g, indptr, empty_rows)
        if lsd is None and lsx is None and not mul_injs and not add_injs:
            return TArray(y_g)

        return self._csr_matvec_lanes(
            tdata, tx, lsd, lsx, indices, indptr, empty_rows,
            mul_injs, add_injs, add_offsets, prod_g, y_g,
        )

    def _csr_matvec_lanes(
        self, tdata, tx, lsd, lsx, indices, indptr, empty_rows,
        mul_injs, add_injs, add_offsets, prod_g, y_g,
    ) -> TArray:
        """Lane-batched CSR matvec: only active lanes get real rows.

        ``prod_f`` holds one (nnz,) row per *active* lane (diverged,
        golden-drifted, or injected); every other lane's inputs are
        bit-identical to golden, so its output row is the golden result
        verbatim.  Golden drift is handled per drifted lane with the
        scalar path's own 1-D segmented sums.
        """
        k = self._batch.k
        dg_flat = tdata.golden.reshape(-1)
        cand = _active_lanes(k, [*mul_injs, *add_injs], lsd, lsx)
        pos = {int(lane): i for i, lane in enumerate(cand)}
        if cand.size:
            if lsd is None and lsx is None:
                prod_f = np.repeat(prod_g[np.newaxis], cand.size, axis=0)
            else:
                df = (
                    lsd.fstack.reshape(k, -1)[cand]
                    if lsd is not None else dg_flat[np.newaxis]
                )
                xf = (
                    lsx.fstack[cand]
                    if lsx is not None else tx.faulty[np.newaxis]
                )
                prod_f = df * xf[:, indices]
        else:
            prod_f = np.zeros((0, int(indptr[-1])))

        # per-drifted-lane golden products, with the scalar path's own
        # 1-D elementwise bits
        gd = _drift_lanes(k, lsd, lsx)
        prod_g_lane: dict[int, np.ndarray] = {}
        for lane in gd:
            dgl = (
                lsd.gstack[lane].reshape(-1)
                if lsd is not None and lsd.gstack is not None else dg_flat
            )
            xgl = (
                lsx.gstack[lane]
                if lsx is not None and lsx.gstack is not None else tx.golden
            )
            prod_g_lane[int(lane)] = dgl * xgl[indices]

        for lane, injs in sorted(_by_lane(mul_injs).items()):
            df_lane = (
                lsd.fstack[lane].reshape(-1) if lsd is not None else dg_flat
            )
            xf_lane = lsx.fstack[lane] if lsx is not None else tx.faulty
            row_f = prod_f[pos[lane]]
            report = self._batch.lane_flip_reporter(
                lane, self.rank, self._region, OpKind.MUL
            )
            for j, operand, bits, index in _group_injections(injs):
                a_val = float(df_lane[j])
                b_val = float(xf_lane[indices[j]])
                if operand == Operand.A:
                    pre, post = a_val, _flip_bits(a_val, bits)
                    row_f[j] = post * b_val
                elif operand == Operand.B:
                    pre, post = b_val, _flip_bits(b_val, bits)
                    row_f[j] = a_val * post
                else:
                    pre = float(row_f[j])
                    post = _flip_bits(pre, bits)
                    row_f[j] = post
                report(index, operand, bits, pre, post)

        y_f_stack = np.repeat(y_g[np.newaxis], k, axis=0)
        if cand.size:
            y_f_stack[cand] = _segmented_sums_stack(prod_f, indptr, empty_rows)

        add_per_lane = _by_lane(add_injs)
        y_g_stack = None
        if gd.size or add_per_lane:
            y_g_stack = np.repeat(y_g[np.newaxis], k, axis=0)
            for lane in gd:
                y_g_stack[lane] = _segmented_sums(
                    prod_g_lane[int(lane)], indptr, empty_rows
                )
        for lane, injs in sorted(add_per_lane.items()):
            report = self._batch.lane_flip_reporter(
                lane, self.rank, self._region, OpKind.ADD
            )
            per_row: dict[int, list[LaneInjection]] = {}
            for inj in injs:
                row = int(np.searchsorted(add_offsets, inj.offset, side="right")) - 1
                local = LaneInjection(
                    offset=inj.offset - int(add_offsets[row]),
                    operand=inj.operand,
                    bit=inj.bit,
                    index=inj.index,
                )
                per_row.setdefault(row, []).append(local)
            pf_lane = prod_f[pos[lane]]
            pg_lane = prod_g_lane.get(lane, prod_g)
            for row, local_injs in per_row.items():
                lo, hi = int(indptr[row]), int(indptr[row + 1])
                y_g_stack[lane, row] = _sum_sequential_with_injections(
                    pg_lane[lo:hi], local_injs, apply_flips=False
                )
                y_f_stack[lane, row] = _sum_sequential_with_injections(
                    pf_lane[lo:hi], local_injs, apply_flips=True,
                    on_flip=report,
                )
        out = TArray.batched(
            y_g, y_f_stack, y_g_stack, self._batch, candidates=cand
        )
        self._mark_from(out)
        return out

    def _segment_sum_impl(self, values, indptr: np.ndarray) -> TArray:
        tv = as_tarray(values)
        ls = tv.lanes
        indptr = np.asarray(indptr)
        nnz = int(indptr[-1])
        if tv.size != nnz:
            raise ValueError(f"values length {tv.size} != indptr nnz {nnz}")
        row_lengths = np.diff(indptr)
        empty_rows = row_lengths == 0
        add_counts = np.maximum(row_lengths - 1, 0)
        add_offsets = np.concatenate(([0], np.cumsum(add_counts)))
        injections = self._sink.account(
            self.rank, self._region, OpKind.ADD, int(add_offsets[-1])
        )
        vg = tv.golden.reshape(-1)
        y_g = _segmented_sums(vg, indptr, empty_rows)
        if ls is None and not injections:
            return TArray(y_g)
        k = self._batch.k
        cand = _active_lanes(k, injections, ls)
        vf = ls.fstack.reshape(k, -1) if ls is not None else None
        y_f_stack = np.repeat(y_g[np.newaxis], k, axis=0)
        if cand.size:
            vf_sub = (
                vf[cand] if vf is not None
                else np.repeat(vg[np.newaxis], cand.size, axis=0)
            )
            y_f_stack[cand] = _segmented_sums_stack(
                vf_sub, indptr, empty_rows
            )
        gd = _drift_lanes(k, ls)
        per_lane = _by_lane(injections)
        y_g_stack = None
        if gd.size or per_lane:
            y_g_stack = np.repeat(y_g[np.newaxis], k, axis=0)
            for lane in gd:
                y_g_stack[lane] = _segmented_sums(
                    ls.gstack[lane].reshape(-1), indptr, empty_rows
                )
        for lane, injs in sorted(per_lane.items()):
            report = self._batch.lane_flip_reporter(
                lane, self.rank, self._region, OpKind.ADD
            )
            per_row: dict[int, list[LaneInjection]] = {}
            for inj in injs:
                row = int(
                    np.searchsorted(add_offsets, inj.offset, side="right")
                ) - 1
                local = LaneInjection(
                    offset=inj.offset - int(add_offsets[row]),
                    operand=inj.operand,
                    bit=inj.bit,
                    index=inj.index,
                )
                per_row.setdefault(row, []).append(local)
            vf_lane = vf[lane] if vf is not None else vg
            vg_lane = (
                ls.gstack[lane].reshape(-1)
                if ls is not None and ls.gstack is not None else vg
            )
            for row, local_injs in per_row.items():
                lo, hi = int(indptr[row]), int(indptr[row + 1])
                y_g_stack[lane, row] = _sum_sequential_with_injections(
                    vg_lane[lo:hi], local_injs, apply_flips=False
                )
                y_f_stack[lane, row] = _sum_sequential_with_injections(
                    vf_lane[lo:hi], local_injs, apply_flips=True,
                    on_flip=report,
                )
        out = TArray.batched(
            y_g, y_f_stack, y_g_stack, self._batch, candidates=cand
        )
        self._mark_from(out)
        return out

"""Traced floating-point operations over :class:`TArray` values.

Every mini-app performs its arithmetic through an :class:`FPOps` handle,
which

1. executes the operation on the golden and faulty paths (sharing the
   result object while they agree),
2. reports the operation's dynamic scalar instructions to the
   fault-injection tracer (`FP adds` and `multiplies` are the
   *candidate* instructions of the paper's fault model, §2), and
3. applies any bit flips the injection plan scheduled inside this very
   operation.

Injection semantics — transient operand corruption
---------------------------------------------------
A flip corrupts **one dynamic scalar instruction's view of one
operand** (or its result register), exactly like a register-level flip
under F-SEFI: the stored input arrays are never modified, only the
output lane produced by the corrupted instruction differs.  For
reductions, the corrupted accumulator state propagates into the rest of
the reduction chain (emulated with a sequential-order decomposition).

Rounding parity
---------------
Whenever an injection forces a lane or a reduction to be recomputed in
a different association order, the golden shadow is recomputed with the
*same* order, so golden-vs-faulty divergence reflects only the injected
flip — never our decomposition's rounding noise.  This is what lets
low-order-mantissa flips be genuinely absorbed by rounding, the
mechanism behind the paper's single-process propagation mass (Fig. 1).
"""

from __future__ import annotations

import contextlib
import weakref
from time import perf_counter
from typing import Sequence

import numpy as np

from repro.numerics.bits import flip_bit_scalar
from repro.obs import get_recorder
from repro.taint.region import Region
from repro.taint.tarray import TArray, as_tarray
from repro.taint.tracer_api import LaneInjection, NullSink, Operand, OpKind, TraceSink

__all__ = ["FPOps"]

_F64 = np.dtype(np.float64)


#: (id(arr), out_shape) -> (arr, broadcast view).  Multi-bit faults and
#: multi-operand groups hit :func:`_lane_value` several times with the
#: same operand array and output shape back to back (the profiler shows
#: it on the hot flip path); the broadcast view is a cheap strided
#: wrapper but rebuilding it per lookup still costs a numpy call.  The
#: array object itself is stored alongside the view so a recycled id()
#: can never alias a dead entry, and the cache is bounded.
_LANE_VIEW_CACHE: dict[tuple[int, tuple[int, ...]], tuple[np.ndarray, np.ndarray]] = {}
_LANE_VIEW_CACHE_MAX = 8


def _broadcast_view(arr: np.ndarray, out_shape: tuple[int, ...]) -> np.ndarray:
    key = (id(arr), out_shape)
    hit = _LANE_VIEW_CACHE.get(key)
    if hit is not None and hit[0] is arr:
        return hit[1]
    view = np.broadcast_to(arr, out_shape)
    if len(_LANE_VIEW_CACHE) >= _LANE_VIEW_CACHE_MAX:
        _LANE_VIEW_CACHE.clear()
    _LANE_VIEW_CACHE[key] = (arr, view)
    return view


def _lane_value(arr: np.ndarray, lane: int, out_shape: tuple[int, ...]) -> float:
    """Fetch the scalar the instruction at output ``lane`` reads.

    Handles numpy broadcasting: the operand is virtually expanded to the
    output shape (a cached strided view, no copy) and indexed at the
    lane (``flat`` performs the unraveling in C).
    """
    if arr.shape == out_shape:
        return float(arr.reshape(-1)[lane])
    if arr.size == 1:
        return float(arr.reshape(-1)[0])
    return float(_broadcast_view(arr, out_shape).flat[lane])


def _flip(value: float, bit: int) -> float:
    return flip_bit_scalar(value, bit, _F64)


def _group_injections(
    injections: Sequence[LaneInjection],
) -> list[tuple[int, Operand, tuple[int, ...], int]]:
    """Group same-site injections into (offset, operand, bits, index) events.

    A multi-bit fault is expressed as several planned flips sharing one
    dynamic instruction and operand; they must corrupt the *same* view
    of the operand (XOR of all bits), not be applied as independent
    recomputations.  ``index`` is the group's global candidate-stream
    index (identical for every flip in a group, since a group is one
    dynamic instruction), carried through for provenance reporting.
    """
    grouped: dict[tuple[int, Operand], tuple[list[int], int]] = {}
    for inj in injections:
        bits, _ = grouped.setdefault((inj.offset, inj.operand), ([], inj.index))
        bits.append(inj.bit)
    return sorted(
        (offset, operand, tuple(sorted(bits)), index)
        for (offset, operand), (bits, index) in grouped.items()
    )


def _flip_bits(value: float, bits: tuple[int, ...]) -> float:
    for bit in bits:
        value = _flip(value, bit)
    return value


def _sum_sequential_with_injections(
    flat: np.ndarray,
    injections: Sequence[LaneInjection],
    apply_flips: bool,
    on_flip=None,
) -> float:
    """Sum ``flat`` in sequential order, applying reduction-add flips.

    Reduction add ``i`` adds element ``i + 1`` to an accumulator holding
    the sum of elements ``0..i``.  Operand ``A`` is the accumulator,
    ``B`` the incoming element, ``OUT`` the accumulator after the add.
    With ``apply_flips=False`` the same association order is used without
    flips (golden-path rounding parity).  ``on_flip(index, operand,
    bits, pre, post)`` reports each applied corruption for provenance
    (faulty path only).
    """
    if flat.size == 0:
        return 0.0
    acc = 0.0
    prev = 0  # next un-consumed element index
    pending: dict[int, list[tuple[Operand, tuple[int, ...], int]]] = {}
    for offset, operand, bits, index in _group_injections(injections):
        pending.setdefault(offset, []).append((operand, bits, index))
    for i in sorted(pending):
        # the i-th reduction add consumes element i + 1
        acc = acc + float(np.sum(flat[prev : i + 1]))
        elem = float(flat[i + 1])
        out_entries: list[tuple[tuple[int, ...], int]] = []
        for operand, bits, index in pending[i]:
            if apply_flips and operand == Operand.A:
                flipped = _flip_bits(acc, bits)
                if on_flip is not None:
                    on_flip(index, operand, bits, acc, flipped)
                acc = flipped
            if apply_flips and operand == Operand.B:
                flipped = _flip_bits(elem, bits)
                if on_flip is not None:
                    on_flip(index, operand, bits, elem, flipped)
                elem = flipped
            if operand == Operand.OUT:
                out_entries.append((bits, index))
        acc = acc + elem
        if apply_flips and out_entries:
            for bits, index in out_entries:
                flipped = _flip_bits(acc, bits)
                if on_flip is not None:
                    on_flip(index, Operand.OUT, bits, acc, flipped)
                acc = flipped
        prev = i + 2
    return acc + float(np.sum(flat[prev:]))


def _segmented_sums(
    prod: np.ndarray, indptr: np.ndarray, empty_rows: np.ndarray
) -> np.ndarray:
    """Per-segment sums for CSR-style data; empty segments yield 0.0.

    ``reduceat`` is only given the starts of non-empty segments (strictly
    increasing, so each segment reduces exactly its own slice); empty
    segments are filled with zero by scatter.
    """
    nrows = indptr.size - 1
    if prod.size == 0:
        return np.zeros(nrows)
    if not empty_rows.any():
        return np.add.reduceat(prod, indptr[:-1])
    out = np.zeros(nrows)
    out[~empty_rows] = np.add.reduceat(prod, indptr[:-1][~empty_rows])
    return out


#: id(indptr) -> (weakref to indptr, empty_rows, add_offsets).  An app
#: builds its CSR structure once and every trial's matvecs reuse it, so
#: the layout derived from ``indptr`` is memoized by identity.  An entry
#: lives exactly as long as its ``indptr``: the weakref's callback drops
#: it, so the cache holds no more entries than there are live cached
#: arrays (one per CG rank block, whatever the rank count), and the
#: identity check means a recycled id() never aliases a dead entry.
#: Only read-only arrays that own their memory are cached; a writable
#: array or a view (whose base may be written) is laid out per call.
_CSR_LAYOUT_CACHE: dict[int, tuple[weakref.ref, np.ndarray, np.ndarray]] = {}


def _csr_layout(indptr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(empty_rows, add_offsets)`` of a CSR row-pointer array.

    ``empty_rows[r]`` flags a row with no entries.  ``add_offsets[r]`` is
    the position of row ``r``'s first reduction add in the op's candidate
    ADD stream (``max(len(row) - 1, 0)`` adds per row, row-major), and
    ``add_offsets[-1]`` the total.
    """
    cacheable = not indptr.flags.writeable and indptr.base is None
    if cacheable:
        hit = _CSR_LAYOUT_CACHE.get(id(indptr))
        if hit is not None and hit[0]() is indptr:
            return hit[1], hit[2]
    row_lengths = np.diff(indptr)
    empty_rows = row_lengths == 0
    add_offsets = np.concatenate(
        ([0], np.cumsum(np.maximum(row_lengths - 1, 0)))
    )
    if cacheable:
        empty_rows.setflags(write=False)
        add_offsets.setflags(write=False)
        key = id(indptr)

        def drop(_ref, key=key):  # runs as indptr is freed, before id reuse
            _CSR_LAYOUT_CACHE.pop(key, None)

        _CSR_LAYOUT_CACHE[key] = (weakref.ref(indptr, drop), empty_rows, add_offsets)
    return empty_rows, add_offsets


def _redo_injected_rows(
    y_g: np.ndarray, y_f: np.ndarray, vg: np.ndarray, vf: np.ndarray,
    indptr: np.ndarray, add_offsets: np.ndarray,
    injections: Sequence[LaneInjection], on_flip,
) -> None:
    """Redo the segment sums that reduction-add flips hit, in place.

    Each hit row is summed sequentially on both paths (rounding parity),
    with the row's injections grouped and their offsets made local to
    the row.  ``on_flip`` reports each applied flip (or is None).
    """
    per_row: dict[int, list[LaneInjection]] = {}
    for inj in injections:
        row = int(np.searchsorted(add_offsets, inj.offset, side="right")) - 1
        local = LaneInjection(
            offset=inj.offset - int(add_offsets[row]),
            operand=inj.operand,
            bit=inj.bit,
            index=inj.index,
        )
        per_row.setdefault(row, []).append(local)
    for row, local_injs in per_row.items():
        lo, hi = int(indptr[row]), int(indptr[row + 1])
        y_g[row] = _sum_sequential_with_injections(
            vg[lo:hi], local_injs, apply_flips=False
        )
        y_f[row] = _sum_sequential_with_injections(
            vf[lo:hi], local_injs, apply_flips=True, on_flip=on_flip,
        )


#: rank -> (per-kind counter names, contamination counter name).  An
#: FPOps handle is created per rank per execution — thousands of times
#: per campaign — so the key strings are interned here once per rank
#: instead of being rebuilt on every instantiation.
_METER_KEYS: dict[int, tuple[dict[OpKind, str], str]] = {}


def _meter_keys(rank: int) -> tuple[dict[OpKind, str], str]:
    keys = _METER_KEYS.get(rank)
    if keys is None:
        keys = (
            {kind: f"fp.{kind.value}.rank{rank}" for kind in OpKind},
            f"taint.contaminated_reports.rank{rank}",
        )
        _METER_KEYS[rank] = keys
    return keys


class _MeteredSink:
    """Wraps a trace sink with per-rank dynamic-instruction metering.

    Installed by :class:`FPOps` only when the process-wide observability
    recorder is enabled, so plain runs keep the original sink object and
    pay nothing.  Accounting is the single choke point every traced
    operation passes through, which makes it the one place to meter the
    taint layer: dynamic FP-instruction counters per (rank, op kind) and
    a contamination-report counter per rank.
    """

    __slots__ = ("_inner", "_rec", "_keys", "_contaminated_key")

    def __init__(self, inner: TraceSink, recorder, rank: int):
        self._inner = inner
        self._rec = recorder
        self._keys, self._contaminated_key = _meter_keys(rank)

    def account(self, rank, region, kind, count):
        self._rec.counter(self._keys[kind], count)
        return self._inner.account(rank, region, kind, count)

    def mark_contaminated(self, rank):
        self._rec.counter(self._contaminated_key)
        return self._inner.mark_contaminated(rank)

    def record_flip(self, rank, region, kind, index, operand, bits, pre, post):
        record = getattr(self._inner, "record_flip", None)
        if record is not None:
            record(rank, region, kind, index, operand, bits, pre, post)


class FPOps:
    """Per-rank handle for traced floating-point computation.

    Parameters
    ----------
    sink:
        The fault-injection tracer (or :class:`NullSink` for plain runs).
    rank:
        MPI rank this handle computes for (0 in serial execution).
    """

    def __init__(self, sink: TraceSink | None = None, rank: int = 0):
        self._sink: TraceSink = sink if sink is not None else NullSink()
        self.rank = int(rank)
        self._region = Region.COMMON
        # The recorder is resolved exactly once per FPOps instance, never
        # on the per-operation hot path; a newly installed recorder
        # (set_recorder / obs.reset) is picked up by the next execution,
        # which constructs fresh handles.
        recorder = get_recorder()
        if recorder.enabled:
            self._sink = _MeteredSink(self._sink, recorder, self.rank)
        # Hot-path profiler, also resolved once per handle: None keeps
        # every traced operation at a single attribute test; set, each
        # operation is timed and attributed per (phase, op kind, rank).
        self._prof = (
            recorder if recorder.enabled and recorder.profiling else None
        )

    # ------------------------------------------------------------------
    # provenance
    # ------------------------------------------------------------------
    def _flip_reporter(self, kind: OpKind):
        """Bound ``on_flip(index, operand, bits, pre, post)`` callback.

        Only built when injections actually landed in an operation (at
        most a handful of times per trial), so the clean path never pays
        for provenance.  Returns None for sinks without ``record_flip``
        (minimal test doubles).
        """
        record = getattr(self._sink, "record_flip", None)
        if record is None:
            return None
        rank, region = self.rank, self._region

        def on_flip(index, operand, bits, pre, post):
            record(rank, region, kind, index, operand, bits, pre, post)

        return on_flip

    # ------------------------------------------------------------------
    # regions
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def region(self, region: Region):
        """Tag enclosed operations as belonging to ``region`` (paper §3.1)."""
        prev, self._region = self._region, region
        try:
            yield self
        finally:
            self._region = prev

    @property
    def current_region(self) -> Region:
        return self._region

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @staticmethod
    def asarray(data) -> TArray:
        """Wrap uncorrupted data in a TArray."""
        return as_tarray(data)

    # ------------------------------------------------------------------
    # elementwise binary operations
    # ------------------------------------------------------------------
    def add(self, a, b) -> TArray:
        """Elementwise ``a + b`` (candidate ADD instructions)."""
        return self._ewise2(np.add, OpKind.ADD, a, b)

    def sub(self, a, b) -> TArray:
        """Elementwise ``a - b`` (FP adder, candidate ADD instructions)."""
        return self._ewise2(np.subtract, OpKind.ADD, a, b)

    def mul(self, a, b) -> TArray:
        """Elementwise ``a * b`` (candidate MUL instructions)."""
        return self._ewise2(np.multiply, OpKind.MUL, a, b)

    def div(self, a, b) -> TArray:
        """Elementwise ``a / b`` (traced, but not an injection candidate)."""
        return self._ewise2(np.divide, OpKind.DIV, a, b)

    def minimum(self, a, b) -> TArray:
        return self._ewise2(np.minimum, OpKind.OTHER, a, b)

    def maximum(self, a, b) -> TArray:
        return self._ewise2(np.maximum, OpKind.OTHER, a, b)

    # ------------------------------------------------------------------
    # elementwise unary operations (never candidates)
    # ------------------------------------------------------------------
    def neg(self, a) -> TArray:
        return self._ewise1(np.negative, a)

    def abs(self, a) -> TArray:
        return self._ewise1(np.abs, a)

    def sqrt(self, a) -> TArray:
        return self._ewise1(np.sqrt, a)

    def exp(self, a) -> TArray:
        return self._ewise1(np.exp, a)

    def log(self, a) -> TArray:
        return self._ewise1(np.log, a)

    def sin(self, a) -> TArray:
        return self._ewise1(np.sin, a)

    def cos(self, a) -> TArray:
        return self._ewise1(np.cos, a)

    def reciprocal(self, a) -> TArray:
        return self._ewise1(np.reciprocal, a)

    # ------------------------------------------------------------------
    # selection / comparison (control flow reads the faulty path)
    # ------------------------------------------------------------------
    def where(self, cond: np.ndarray, a, b) -> TArray:
        """Select lanes by a plain boolean mask.

        The mask comes from faulty-path comparisons — the injected run
        is the real execution — and is applied to *both* paths, mirroring
        how a real faulty run takes one concrete control path.
        """
        prof = self._prof
        if prof is None:
            return self._where_impl(cond, a, b)
        t0 = perf_counter()
        out = self._where_impl(cond, a, b)
        prof.profile_op(
            OpKind.OTHER.value, self.rank, out.size, perf_counter() - t0
        )
        return out

    def _where_impl(self, cond: np.ndarray, a, b) -> TArray:
        ta = a if type(a) is TArray else TArray.fresh(a)
        tb = b if type(b) is TArray else TArray.fresh(b)
        g = np.where(cond, ta.golden, tb.golden)
        self._sink.account(self.rank, self._region, OpKind.OTHER, int(g.size))
        if ta.faulty is ta.golden and tb.faulty is tb.golden:
            return TArray(g)
        out = TArray(g, np.where(cond, ta.faulty, tb.faulty))
        if out.diverged:
            self._sink.mark_contaminated(self.rank)
        return out

    def greater(self, a, b) -> np.ndarray:
        """Faulty-path elementwise ``a > b`` as a plain boolean array."""
        return np.asarray(as_tarray(a).faulty > as_tarray(b).faulty)

    def less(self, a, b) -> np.ndarray:
        """Faulty-path elementwise ``a < b`` as a plain boolean array."""
        return np.asarray(as_tarray(a).faulty < as_tarray(b).faulty)

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    def sum(self, a) -> TArray:
        """Reduce-sum of all lanes (``n - 1`` candidate ADD instructions)."""
        prof = self._prof
        if prof is None:
            return self._sum_impl(a)
        t0 = perf_counter()
        out = self._sum_impl(a)
        ops = max(as_tarray(a).size - 1, 0)
        prof.profile_op(OpKind.ADD.value, self.rank, ops, perf_counter() - t0)
        return out

    def _sum_impl(self, a) -> TArray:
        ta = a if type(a) is TArray else TArray.fresh(a)
        n = ta.golden.size
        injections = self._sink.account(
            self.rank, self._region, OpKind.ADD, max(n - 1, 0)
        )
        g_flat = ta.golden.reshape(-1)
        if not injections:
            # np.sum of an ndarray dispatches to this very reduction
            g = np.asarray(np.add.reduce(g_flat))
            if ta.faulty is ta.golden:
                return TArray(g)
            out = TArray(
                g, np.asarray(np.add.reduce(ta.faulty.reshape(-1)))
            )
        else:
            # Sequential decomposition on both paths (rounding parity).
            f_flat = ta.faulty.reshape(-1)
            gval = _sum_sequential_with_injections(g_flat, injections, apply_flips=False)
            fval = _sum_sequential_with_injections(
                f_flat, injections, apply_flips=True,
                on_flip=self._flip_reporter(OpKind.ADD),
            )
            out = TArray(np.asarray(gval), np.asarray(fval))
        if out.diverged:
            self._sink.mark_contaminated(self.rank)
        return out

    def dot(self, a, b) -> TArray:
        """Inner product = traced multiply stage + traced reduction."""
        return self.sum(self.mul(a, b))

    def norm2(self, a) -> TArray:
        """Euclidean norm ``sqrt(a · a)``."""
        return self.sqrt(self.dot(a, a))

    def max(self, a) -> TArray:
        """Reduce-max (comparison tree; not an injection candidate)."""
        return self._reduce_passive(np.max, a)

    def min(self, a) -> TArray:
        return self._reduce_passive(np.min, a)

    # ------------------------------------------------------------------
    # sparse matrix-vector product (CSR)
    # ------------------------------------------------------------------
    def csr_matvec(self, data, indices: np.ndarray, indptr: np.ndarray, x) -> TArray:
        """``y = A @ x`` for CSR ``A`` with per-scalar-instruction tracing.

        Candidate stream: ``nnz`` multiplies in CSR data order, then the
        row-major chain of reduction adds (``max(len(row) - 1, 0)`` per
        row).  Empty rows are allowed (column blocks of a distributed
        matrix routinely have them) and produce ``0.0``.

        ``data`` may be a TArray (e.g. a matrix assembled by traced FE
        computation in MiniFE) or a plain constant array.
        """
        prof = self._prof
        if prof is None:
            return self._csr_matvec_impl(data, indices, indptr, x)
        t0 = perf_counter()
        out = self._csr_matvec_impl(data, indices, indptr, x)
        dt = perf_counter() - t0
        indptr_arr = np.asarray(indptr)
        nnz = int(indptr_arr[-1])
        adds = int(_csr_layout(indptr_arr)[1][-1])
        total = nnz + adds
        if total:
            # one timed call, two instruction kinds: split the wall time
            # in proportion to the multiply/add instruction counts
            prof.profile_op(
                OpKind.MUL.value, self.rank, nnz, dt * nnz / total
            )
            prof.profile_op(
                OpKind.ADD.value, self.rank, adds, dt * adds / total
            )
        return out

    def _csr_matvec_impl(
        self, data, indices: np.ndarray, indptr: np.ndarray, x
    ) -> TArray:
        # Plain constant data is used as is: no clean TArray copy of it.
        if type(data) is TArray:
            data_g, data_f = data.golden, data.faulty
        else:
            data_g = data_f = np.asarray(data, dtype=np.float64)
        tx = x if type(x) is TArray else TArray.fresh(x)
        indices = np.asarray(indices)
        indptr = np.asarray(indptr)
        nnz = int(indptr[-1])
        if data_g.size != nnz:
            raise ValueError(f"CSR data length {data_g.size} != indptr nnz {nnz}")
        empty_rows, add_offsets = _csr_layout(indptr)

        mul_injs = self._sink.account(self.rank, self._region, OpKind.MUL, nnz)
        add_injs = self._sink.account(
            self.rank, self._region, OpKind.ADD, int(add_offsets[-1])
        )

        prod_g = data_g * tx.golden[indices]
        y_g = _segmented_sums(prod_g, indptr, empty_rows)

        diverged = data_f is not data_g or tx.faulty is not tx.golden
        if not diverged and not mul_injs and not add_injs:
            out = TArray(y_g)
        else:
            prod_f = data_f * tx.faulty[indices] if diverged else prod_g.copy()
            if not prod_f.flags.writeable:
                prod_f = prod_f.copy()
            # Multiply-stage flips corrupt single product lanes.
            mul_report = self._flip_reporter(OpKind.MUL) if mul_injs else None
            for k, operand, bits, index in _group_injections(mul_injs):
                a_val = float(data_f.reshape(-1)[k])
                b_val = float(tx.faulty[indices[k]])
                if operand == Operand.A:
                    pre, post = a_val, _flip_bits(a_val, bits)
                    prod_f[k] = post * b_val
                elif operand == Operand.B:
                    pre, post = b_val, _flip_bits(b_val, bits)
                    prod_f[k] = a_val * post
                else:
                    pre = float(prod_f[k])
                    post = _flip_bits(pre, bits)
                    prod_f[k] = post
                if mul_report is not None:
                    mul_report(index, operand, bits, pre, post)
            y_f = _segmented_sums(prod_f, indptr, empty_rows)
            if add_injs:
                _redo_injected_rows(
                    y_g, y_f, prod_g, prod_f, indptr, add_offsets, add_injs,
                    self._flip_reporter(OpKind.ADD),
                )
            out = TArray(y_g, y_f)
        if out.diverged:
            self._sink.mark_contaminated(self.rank)
        return out

    def segment_sum(self, values, indptr: np.ndarray) -> TArray:
        """Segmented reduction: ``out[s] = sum(values[indptr[s]:indptr[s+1]])``.

        The workhorse of FE assembly (scatter-add of element
        contributions grouped by matrix slot).  Each segment contributes
        ``max(len - 1, 0)`` candidate ADD instructions, in segment-major
        order; injection semantics match :meth:`sum` (sequential-order
        decomposition with rounding parity on both paths).
        """
        prof = self._prof
        if prof is None:
            return self._segment_sum_impl(values, indptr)
        t0 = perf_counter()
        out = self._segment_sum_impl(values, indptr)
        dt = perf_counter() - t0
        adds = int(_csr_layout(np.asarray(indptr))[1][-1])
        prof.profile_op(OpKind.ADD.value, self.rank, adds, dt)
        return out

    def _segment_sum_impl(self, values, indptr: np.ndarray) -> TArray:
        tv = values if type(values) is TArray else TArray.fresh(values)
        indptr = np.asarray(indptr)
        nnz = int(indptr[-1])
        if tv.size != nnz:
            raise ValueError(f"values length {tv.size} != indptr nnz {nnz}")
        empty_rows, add_offsets = _csr_layout(indptr)
        injections = self._sink.account(
            self.rank, self._region, OpKind.ADD, int(add_offsets[-1])
        )
        vg = tv.golden.reshape(-1)
        y_g = _segmented_sums(vg, indptr, empty_rows)
        if tv.faulty is tv.golden and not injections:
            return TArray(y_g)
        vf = tv.faulty.reshape(-1)
        y_f = _segmented_sums(vf, indptr, empty_rows)
        if injections:
            _redo_injected_rows(
                y_g, y_f, vg, vf, indptr, add_offsets, injections,
                self._flip_reporter(OpKind.ADD),
            )
        out = TArray(y_g, y_f)
        if out.diverged:
            self._sink.mark_contaminated(self.rank)
        return out

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _ewise2(self, ufunc, kind: OpKind, a, b) -> TArray:
        prof = self._prof
        if prof is None:
            return self._ewise2_impl(ufunc, kind, a, b)
        t0 = perf_counter()
        out = self._ewise2_impl(ufunc, kind, a, b)
        prof.profile_op(kind.value, self.rank, out.size, perf_counter() - t0)
        return out

    def _ewise2_impl(self, ufunc, kind: OpKind, a, b) -> TArray:
        ta = a if type(a) is TArray else TArray.fresh(a)
        tb = b if type(b) is TArray else TArray.fresh(b)
        g = ufunc(ta.golden, tb.golden)
        injections = self._sink.account(self.rank, self._region, kind, g.size)
        diverged = ta.faulty is not ta.golden or tb.faulty is not tb.golden
        if not diverged and not injections:
            return TArray(g)
        f = ufunc(ta.faulty, tb.faulty) if diverged else g.copy()
        if injections:
            on_flip = self._flip_reporter(kind)
            f = np.array(f, copy=True)  # ensure writable, drop any sharing
            f_flat = f.reshape(-1)
            out_shape = g.shape
            for lane, operand, bits, index in _group_injections(injections):
                a_val = _lane_value(ta.faulty, lane, out_shape)
                b_val = _lane_value(tb.faulty, lane, out_shape)
                if operand == Operand.A:
                    pre, post = a_val, _flip_bits(a_val, bits)
                    f_flat[lane] = ufunc(post, b_val)
                elif operand == Operand.B:
                    pre, post = b_val, _flip_bits(b_val, bits)
                    f_flat[lane] = ufunc(a_val, post)
                else:
                    pre = float(f_flat[lane])
                    post = _flip_bits(pre, bits)
                    f_flat[lane] = post
                if on_flip is not None:
                    on_flip(index, operand, bits, pre, post)
        out = TArray(g, f)
        if out.diverged:
            self._sink.mark_contaminated(self.rank)
        return out

    def _ewise1(self, ufunc, a) -> TArray:
        prof = self._prof
        if prof is None:
            return self._ewise1_impl(ufunc, a)
        t0 = perf_counter()
        out = self._ewise1_impl(ufunc, a)
        prof.profile_op(
            OpKind.OTHER.value, self.rank, out.size, perf_counter() - t0
        )
        return out

    def _ewise1_impl(self, ufunc, a) -> TArray:
        ta = a if type(a) is TArray else TArray.fresh(a)
        self._sink.account(self.rank, self._region, OpKind.OTHER, ta.golden.size)
        g = ufunc(ta.golden)
        if ta.faulty is ta.golden:
            return TArray(g)
        out = TArray(g, ufunc(ta.faulty))
        if out.diverged:
            self._sink.mark_contaminated(self.rank)
        return out

    def _reduce_passive(self, reducer, a) -> TArray:
        prof = self._prof
        if prof is None:
            return self._reduce_passive_impl(reducer, a)
        t0 = perf_counter()
        out = self._reduce_passive_impl(reducer, a)
        ops = max(as_tarray(a).size - 1, 0)
        prof.profile_op(
            OpKind.OTHER.value, self.rank, ops, perf_counter() - t0
        )
        return out

    def _reduce_passive_impl(self, reducer, a) -> TArray:
        ta = a if type(a) is TArray else TArray.fresh(a)
        self._sink.account(
            self.rank, self._region, OpKind.OTHER, max(ta.size - 1, 0)
        )
        g = np.asarray(reducer(ta.golden))
        if ta.faulty is ta.golden:
            return TArray(g)
        out = TArray(g, np.asarray(reducer(ta.faulty)))
        if out.diverged:
            self._sink.mark_contaminated(self.rank)
        return out

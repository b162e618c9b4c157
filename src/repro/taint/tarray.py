"""The dual-value array type carried through every traced computation.

A :class:`TArray` pairs the fault-free (*golden*) value of a datum with
the value the actual, possibly fault-injected, execution holds
(*faulty*).  The two references are **the same ndarray object** until an
injected bit flip makes them differ; traced operations re-share them
whenever the results compare equal again (rounding absorbed the
perturbation).

Design rules
------------
* TArrays are immutable: both payload arrays are frozen
  (``writeable=False``) at construction.  Operations always allocate
  outputs.  This makes sharing safe — a collective can hand the same
  TArray to every rank.
* ``diverged`` is an identity check (``faulty is not golden``), never a
  value scan, so the fault-free fast path costs nothing.
* Application *control flow* must read :attr:`value` /
  :meth:`to_numpy`, which expose the faulty path — the injected run is
  the real execution; the golden path is only a shadow for
  contamination tracking and outcome classification.

Lane batching
-------------
A TArray may additionally carry a :class:`LaneSet`: a stack of per-lane
shadows, one lane per concurrently executing fault-injection trial
(docs/performance.md, "Lane vectorization").  The batch TArray's own
``golden``/``faulty`` pair stays shared (``diverged`` is ``False``) —
the batch follows the fault-free execution, and each lane's divergence
lives in the stack.  ``LaneSet.div[lane]`` reproduces exactly what the
scalar path's ``diverged`` flag would be for that lane's trial.  Reads
that steer application control flow (:attr:`value`, :meth:`to_numpy`)
*eject* lanes whose faulty value disagrees with the golden one back to
the batch tracer, which replays them on the scalar path — so every lane
that stays in the batch shares the golden control flow exactly.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

import numpy as np

__all__ = ["LaneSet", "TArray", "arrays_equal", "as_tarray", "lane_rows_differ"]


def arrays_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Bitwise-meaningful value equality used for taint collapse.

    NaNs compare equal to NaNs (a flipped NaN payload is still "no
    visible corruption" for downstream consumers), and ``-0.0`` equals
    ``+0.0`` — matching how corrupted values behave arithmetically.
    """
    if a is b:
        return True
    if a.shape != b.shape:
        return False
    return bool(np.array_equal(a, b, equal_nan=True))


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def lane_rows_differ(stack: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Per-lane NaN-aware inequality of ``(k,)+shape`` rows vs a reference.

    ``ref`` is either a single row (``shape``) or a stack of the same
    shape as ``stack``.  Mirrors :func:`arrays_equal` per row: NaN
    compares equal to NaN and ``-0.0`` equals ``+0.0``, so a lane counts
    as divergent exactly when the scalar path's constructor would have
    kept its faulty array separate.
    """
    if ref.ndim == stack.ndim - 1:
        ref = ref[np.newaxis]
    # Cheap first pass: plain != (NaN != NaN flags spuriously).  Only
    # rows it flags pay the NaN-aware recheck — NaNs are rare, so the
    # common case is a single comparison sweep.
    rough = (stack != ref).reshape(stack.shape[0], -1).any(axis=1)
    if not rough.any():
        return rough
    # A spurious flag needs NaN in *both* arrays at one position, so a
    # NaN-free reference (one golden row in the common case) proves
    # every flag genuine without rescanning the whole stack.
    if not np.issubdtype(ref.dtype, np.inexact) or not np.isnan(ref).any():
        return rough
    with np.errstate(invalid="ignore"):
        idx = np.nonzero(rough)[0]
        s = stack[idx]
        r = ref if ref.shape[0] == 1 else ref[idx]
        differ = s != r
        differ &= ~(np.isnan(s) & np.isnan(r))
        rough[idx] = differ.reshape(differ.shape[0], -1).any(axis=1)
    return rough


def _union_active(k: int, parts) -> np.ndarray | None:
    """Union of every part's active lanes, for multi-input movement ops.

    Returns None (no candidates guarantee) when any non-lane part is
    itself diverged — its faulty row broadcasts to *every* lane.
    """
    mask = np.zeros(k, dtype=bool)
    for p in parts:
        ls = p.lanes
        if ls is None:
            if p.diverged:
                return None
            continue
        mask |= ls.div
        if ls.gdrift is not None:
            mask |= ls.gdrift
    return np.nonzero(mask)[0]


def _rows_bitwise_equal(stack: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Per-lane *bit-exact* equality (distinguishes -0.0 and NaN payloads)."""
    iview = f"u{stack.dtype.itemsize}"
    s = stack.view(iview)
    r = ref.view(iview)
    if r.ndim == s.ndim - 1:
        r = r[np.newaxis]
    eq = s == r
    return eq.reshape(eq.shape[0], -1).all(axis=1)


class LaneSet:
    """Per-lane shadow stacks attached to a batch TArray.

    ``fstack[(lane,) + idx]`` is ``lane``'s faulty value of element
    ``idx``.  ``gstack`` is ``None`` while every lane's golden shadow
    still equals the batch golden array — the common case, since golden
    drift only arises from reductions whose *golden* accumulation order
    an injection perturbed — otherwise a per-lane golden stack of the
    same shape, with ``gdrift`` caching which rows actually differ
    (bitwise) from the batch golden so ops can treat drift sparsely.
    ``div`` caches the per-lane divergence flag (lane faulty != lane
    golden, NaN-aware): exactly the scalar path's ``TArray.diverged``
    for that lane's trial.  ``tracer`` is the batch tracer coordinating
    the lanes (duck-typed: needs ``eject``); lanes whose control flow
    leaves the golden path are handed back to it.
    """

    __slots__ = ("tracer", "fstack", "gstack", "div", "gdrift", "_div_idx")

    def __init__(self, tracer, fstack: np.ndarray,
                 gstack: np.ndarray | None, div: np.ndarray,
                 gdrift: np.ndarray | None = None):
        self.tracer = tracer
        self.fstack = _freeze(fstack)
        self.gstack = None if gstack is None else _freeze(gstack)
        self.div = div
        self.gdrift = None if gstack is None else gdrift
        self._div_idx: np.ndarray | None = None

    @property
    def k(self) -> int:
        return self.fstack.shape[0]

    def div_lanes(self) -> np.ndarray:
        """Sorted indices of diverged lanes (``np.nonzero(div)``, cached —
        divergence is immutable once the set is built, and both the
        contamination mark after every op and the next op's candidate
        union want the same vector)."""
        if self._div_idx is None:
            self._div_idx = np.nonzero(self.div)[0]
        return self._div_idx

    def active_lanes(self) -> np.ndarray:
        """Sorted indices of lanes diverged or golden-drifted.

        Every lane *not* listed has both rows bit-identical to the
        batch golden array — the invariant pure data-movement ops pass
        down as ``TArray.batched``'s ``candidates``.
        """
        if self.gdrift is None:
            return self.div_lanes()
        return np.nonzero(self.div | self.gdrift)[0]

    def eject(self, mask: np.ndarray, reason: str) -> None:
        """Hand every lane set in ``mask`` back to the scalar path."""
        lanes = np.nonzero(mask)[0]
        if not lanes.size:
            return
        if self.tracer is None:
            raise RuntimeError(
                f"lane control-flow divergence ({reason}) with no batch "
                f"tracer attached"
            )
        self.tracer.eject([int(i) for i in lanes], reason)


class TArray:
    """A dual-value (golden, faulty) array.  See module docstring."""

    __slots__ = ("golden", "faulty", "lanes")

    def __init__(self, golden: np.ndarray, faulty: np.ndarray | None = None):
        golden = np.asarray(golden)
        if golden.dtype.kind != "f":
            golden = golden.astype(np.float64)
        if faulty is None or faulty is golden:
            golden = _freeze(golden)
            faulty = golden
        else:
            faulty = np.asarray(faulty)
            if faulty.dtype != golden.dtype:
                faulty = faulty.astype(golden.dtype)
            if faulty.shape != golden.shape:
                raise ValueError(
                    f"golden/faulty shape mismatch: {golden.shape} vs {faulty.shape}"
                )
            # Re-share when the faulty path produced identical values.
            if arrays_equal(golden, faulty):
                golden = _freeze(golden)
                faulty = golden
            else:
                golden = _freeze(golden)
                faulty = _freeze(faulty)
        self.golden = golden
        self.faulty = faulty
        self.lanes: LaneSet | None = None

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def fresh(cls, data: np.ndarray | float | Iterable) -> "TArray":
        """Wrap uncorrupted initial data (golden == faulty, shared)."""
        return cls(np.array(data, dtype=np.float64))

    @classmethod
    def batched(cls, golden: np.ndarray, fstack: np.ndarray,
                gstack: np.ndarray | None = None, tracer=None,
                candidates: np.ndarray | None = None) -> "TArray":
        """Build a batch TArray from per-lane stacks.

        Applies the same re-sharing the scalar constructor does, per
        lane: a lane whose faulty row equals its golden row (NaN-aware)
        has the row reset to the golden bits, and when no lane diverges
        and no golden drift remains the stacks are dropped entirely —
        the result is a plain clean TArray, so batches stay cheap once
        rounding absorbs every lane's perturbation.

        ``candidates`` (sorted lane indices) is the caller's guarantee
        that every row *not* listed is already bit-identical to
        ``golden`` — in ``fstack`` *and* ``gstack`` alike.  Traced ops
        derive it from the union of their inputs' diverged and
        golden-drifted lanes plus this op's injections, so divergence
        and drift checks and re-sharing touch only the active lanes
        instead of the whole stack.
        """
        out = cls(golden)
        golden = out.golden
        fstack = np.asarray(fstack)
        if fstack.dtype != golden.dtype:
            fstack = fstack.astype(golden.dtype)
        expect = (fstack.shape[0],) + golden.shape
        if fstack.shape != expect:
            raise ValueError(
                f"lane stack shape mismatch: {fstack.shape} vs {expect}"
            )
        k = fstack.shape[0]
        gdrift = None
        if gstack is not None:
            gstack = np.asarray(gstack)
            if gstack.dtype != golden.dtype:
                gstack = gstack.astype(golden.dtype)
            if gstack.shape != expect:
                raise ValueError(
                    f"lane golden stack shape mismatch: {gstack.shape} vs {expect}"
                )
            # Golden drift healed bit-exactly: fold the stack away.  The
            # check must be bitwise — replacing a lane's -0.0 golden with
            # the batch's +0.0 would poison later re-shares.
            if candidates is None or candidates.size == k:
                eq = _rows_bitwise_equal(gstack, golden)
            else:
                eq = np.ones(k, dtype=bool)
                if candidates.size:
                    eq[candidates] = _rows_bitwise_equal(
                        gstack[candidates], golden
                    )
            if eq.all():
                gstack = None
            else:
                gdrift = ~eq
        if candidates is not None:
            ref = gstack if gstack is not None else golden
            if candidates.size == k:  # saturated: skip the gather copy
                div = lane_rows_differ(fstack, ref)
            else:
                div = np.zeros(k, dtype=bool)
                if candidates.size:
                    rsub = ref[candidates] if gstack is not None else ref
                    div[candidates] = lane_rows_differ(
                        fstack[candidates], rsub
                    )
            div_idx = np.nonzero(div)[0]
            if gstack is None and div_idx.size == 0:
                return out
            # Re-share candidate rows that came out clean (NaN payloads,
            # -0.0) onto their golden bits; non-candidate rows already
            # hold them by the caller's guarantee.  div never leaves the
            # candidate set, so equal sizes mean nothing to fix.
            if div_idx.size < candidates.size:
                fix = candidates[~div[candidates]]
                if not fstack.flags.writeable:
                    fstack = fstack.copy()
                fstack[fix] = gstack[fix] if gstack is not None else golden
            lanes = LaneSet(tracer, fstack, gstack, div, gdrift)
            lanes._div_idx = div_idx
            out.lanes = lanes
            return out
        ref = gstack if gstack is not None else golden
        div = lane_rows_differ(fstack, ref)
        div_idx = np.nonzero(div)[0]
        if gstack is None and div_idx.size == 0:
            return out
        if div_idx.size < k:
            # Re-share clean lanes onto their golden bits, dropping the
            # bitwise differences arrays_equal ignores (NaN payloads,
            # -0.0) — exactly what the scalar constructor's faulty-is-
            # golden sharing does.
            clean = ~div
            if not fstack.flags.writeable:
                fstack = fstack.copy()
            fstack[clean] = gstack[clean] if gstack is not None else golden
        lanes = LaneSet(tracer, fstack, gstack, div, gdrift)
        lanes._div_idx = div_idx
        out.lanes = lanes
        return out

    # ------------------------------------------------------------------
    # status
    # ------------------------------------------------------------------
    @property
    def diverged(self) -> bool:
        """True when the faulty execution's value differs from fault-free."""
        return self.faulty is not self.golden

    @property
    def shape(self) -> tuple[int, ...]:
        return self.golden.shape

    @property
    def size(self) -> int:
        return self.golden.size

    @property
    def dtype(self) -> np.dtype:
        return self.golden.dtype

    # ------------------------------------------------------------------
    # faulty-path accessors (application control flow / output)
    # ------------------------------------------------------------------
    def _vs_golden_mask(self, ls: "LaneSet") -> np.ndarray:
        """Per-lane faulty-vs-*batch*-golden divergence (NaN-aware).

        With no golden drift, ``div`` IS that mask; drifted rows need a
        value compare against the batch golden (their ``div`` is
        relative to their own drifted golden).
        """
        if ls.gstack is None:
            return ls.div
        mask = ls.div
        gd = (
            np.nonzero(ls.gdrift)[0] if ls.gdrift is not None
            else np.arange(ls.k)
        )
        if gd.size:
            mask = mask.copy()
            mask[gd] = lane_rows_differ(ls.fstack[gd], self.golden)
        return mask

    @property
    def value(self) -> float:
        """The faulty-path scalar value (for control flow and output)."""
        if self.faulty.size != 1:
            raise ValueError(f"value requires a single-element TArray, shape {self.shape}")
        if self.lanes is not None:
            ls = self.lanes
            ls.eject(self._vs_golden_mask(ls), "value")
        return float(self.faulty.reshape(()))

    @property
    def golden_value(self) -> float:
        """The fault-free scalar value (shadow; not for control flow)."""
        if self.golden.size != 1:
            raise ValueError(f"golden_value requires a single-element TArray, shape {self.shape}")
        if self.lanes is not None and self.lanes.gstack is not None:
            ls = self.lanes
            ls.eject(
                lane_rows_differ(ls.gstack, self.golden), "golden_value"
            )
        return float(self.golden.reshape(()))

    def to_numpy(self) -> np.ndarray:
        """Read-only view of the faulty-path array."""
        if self.lanes is not None:
            ls = self.lanes
            ls.eject(self._vs_golden_mask(ls), "to_numpy")
        return self.faulty

    def golden_numpy(self) -> np.ndarray:
        """Read-only view of the golden-path array."""
        if self.lanes is not None and self.lanes.gstack is not None:
            ls = self.lanes
            ls.eject(
                lane_rows_differ(ls.gstack, self.golden), "golden_numpy"
            )
        return self.golden

    def scalar_map(self, func: Callable[[float], float]) -> "TArray":
        """Apply a pure ``float -> float`` function to every scalar view.

        Size-1 TArrays only.  Maps the golden scalar, the faulty scalar
        and each lane shadow independently, so branches *inside*
        ``func`` (e.g. guarding ``sqrt`` of a negative residual)
        evaluate per lane exactly as they would at lanes=1 — no lane
        ejection needed.  This is how apps express output
        transformations that would otherwise force a ``.value`` read.
        """
        if self.golden.size != 1:
            raise ValueError(
                f"scalar_map requires a single-element TArray, shape {self.shape}"
            )
        shape = self.golden.shape
        g = np.array(func(float(self.golden.reshape(())))).reshape(shape)
        if self.lanes is not None:
            ls = self.lanes
            ejected = getattr(ls.tracer, "ejected", ())
            flat_f = ls.fstack.reshape(ls.k)
            fstack = np.array([
                math.nan if i in ejected else func(float(v))
                for i, v in enumerate(flat_f)
            ]).reshape((ls.k,) + shape)
            gstack = None
            if ls.gstack is not None:
                flat_g = ls.gstack.reshape(ls.k)
                gstack = np.array([
                    math.nan if i in ejected else func(float(v))
                    for i, v in enumerate(flat_g)
                ]).reshape((ls.k,) + shape)
            return TArray.batched(g, fstack, gstack, ls.tracer)
        if not self.diverged:
            return TArray(g)
        f = np.array(func(float(self.faulty.reshape(())))).reshape(shape)
        return TArray(g, f)

    # ------------------------------------------------------------------
    # shape/data-movement operations (no FP instructions => untraced)
    # ------------------------------------------------------------------
    def __getitem__(self, key) -> "TArray":
        g = self.golden[key]
        if self.lanes is not None:
            ls = self.lanes
            skey = (slice(None),) + (key if isinstance(key, tuple) else (key,))
            gstack = None if ls.gstack is None else np.asarray(ls.gstack[skey])
            return TArray.batched(
                np.asarray(g), np.asarray(ls.fstack[skey]), gstack, ls.tracer,
                candidates=ls.active_lanes(),
            )
        f = g if self.faulty is self.golden else self.faulty[key]
        # Slices of diverged arrays may be clean; the constructor re-shares.
        return TArray(np.asarray(g), None if f is g else np.asarray(f))

    def reshape(self, *shape) -> "TArray":
        g = self.golden.reshape(*shape)
        if self.lanes is not None:
            ls = self.lanes
            fstack = ls.fstack.reshape((ls.k,) + g.shape)
            gstack = (
                None if ls.gstack is None
                else ls.gstack.reshape((ls.k,) + g.shape)
            )
            return TArray.batched(
                g, fstack, gstack, ls.tracer, candidates=ls.active_lanes()
            )
        f = g if self.faulty is self.golden else self.faulty.reshape(*shape)
        return TArray(g, None if f is g else f)

    def ravel(self) -> "TArray":
        return self.reshape(-1)

    def transpose(self, *axes) -> "TArray":
        g = np.ascontiguousarray(self.golden.transpose(*axes))
        if self.lanes is not None:
            ls = self.lanes
            if not axes:
                row_axes = tuple(range(self.golden.ndim - 1, -1, -1))
            elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
                row_axes = tuple(axes[0])
            else:
                row_axes = tuple(axes)
            # Lane axis 0 stays put; non-negative row axes shift by one,
            # negative ones already count from the (unchanged) end.
            sax = (0,) + tuple(a + 1 if a >= 0 else a for a in row_axes)
            fstack = np.ascontiguousarray(ls.fstack.transpose(sax))
            gstack = (
                None if ls.gstack is None
                else np.ascontiguousarray(ls.gstack.transpose(sax))
            )
            return TArray.batched(
                g, fstack, gstack, ls.tracer, candidates=ls.active_lanes()
            )
        if self.faulty is self.golden:
            return TArray(g)
        return TArray(g, np.ascontiguousarray(self.faulty.transpose(*axes)))

    @staticmethod
    def concatenate(parts: Iterable["TArray"], axis: int = 0) -> "TArray":
        """Concatenate TArrays (pure data movement, untraced)."""
        parts = list(parts)
        g = np.concatenate([p.golden for p in parts], axis=axis)
        lane_parts = [p for p in parts if p.lanes is not None]
        if lane_parts:
            ls0 = lane_parts[0].lanes
            k = ls0.k
            sax = axis + 1 if axis >= 0 else axis
            fstack = np.concatenate([
                p.lanes.fstack if p.lanes is not None
                else np.broadcast_to(p.faulty, (k,) + p.faulty.shape)
                for p in parts
            ], axis=sax)
            gstack = None
            if any(p.lanes is not None and p.lanes.gstack is not None
                   for p in parts):
                gstack = np.concatenate([
                    p.lanes.gstack
                    if p.lanes is not None and p.lanes.gstack is not None
                    else np.broadcast_to(p.golden, (k,) + p.golden.shape)
                    for p in parts
                ], axis=sax)
            return TArray.batched(
                g, fstack, gstack, ls0.tracer,
                candidates=_union_active(k, parts),
            )
        if all(not p.diverged for p in parts):
            return TArray(g)
        return TArray(g, np.concatenate([p.faulty for p in parts], axis=axis))

    @staticmethod
    def scatter(values: "TArray", positions: np.ndarray, size: int) -> "TArray":
        """Dense array of ``size`` zeros with ``values`` at ``positions``.

        Pure data movement (untraced); positions must be unique.  The
        output keeps ``values``' dtype.
        """
        dtype = values.golden.dtype
        g = np.zeros(size, dtype=dtype)
        g[positions] = values.golden
        if values.lanes is not None:
            ls = values.lanes
            fstack = np.zeros((ls.k, size), dtype=dtype)
            fstack[:, positions] = ls.fstack
            gstack = None
            if ls.gstack is not None:
                gstack = np.zeros((ls.k, size), dtype=dtype)
                gstack[:, positions] = ls.gstack
            return TArray.batched(
                g, fstack, gstack, ls.tracer, candidates=ls.active_lanes()
            )
        if not values.diverged:
            return TArray(g)
        f = np.zeros(size, dtype=dtype)
        f[positions] = values.faulty
        return TArray(g, f)

    @staticmethod
    def stack(parts: Iterable["TArray"], axis: int = 0) -> "TArray":
        parts = list(parts)
        g = np.stack([p.golden for p in parts], axis=axis)
        lane_parts = [p for p in parts if p.lanes is not None]
        if lane_parts:
            ls0 = lane_parts[0].lanes
            k = ls0.k
            sax = axis + 1 if axis >= 0 else axis
            fstack = np.stack([
                p.lanes.fstack if p.lanes is not None
                else np.broadcast_to(p.faulty, (k,) + p.faulty.shape)
                for p in parts
            ], axis=sax)
            gstack = None
            if any(p.lanes is not None and p.lanes.gstack is not None
                   for p in parts):
                gstack = np.stack([
                    p.lanes.gstack
                    if p.lanes is not None and p.lanes.gstack is not None
                    else np.broadcast_to(p.golden, (k,) + p.golden.shape)
                    for p in parts
                ], axis=sax)
            return TArray.batched(
                g, fstack, gstack, ls0.tracer,
                candidates=_union_active(k, parts),
            )
        if all(not p.diverged for p in parts):
            return TArray(g)
        return TArray(g, np.stack([p.faulty for p in parts], axis=axis))

    def copy(self) -> "TArray":
        """TArrays are immutable; copy returns self."""
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.lanes is not None:
            tag = f"lanes={self.lanes.k}, {int(self.lanes.div.sum())} diverged"
        else:
            tag = "diverged" if self.diverged else "clean"
        return f"TArray(shape={self.shape}, {tag})"


def as_tarray(x: "TArray | np.ndarray | float | int") -> TArray:
    """Coerce constants / plain arrays into (clean) TArrays."""
    if isinstance(x, TArray):
        return x
    return TArray.fresh(x)

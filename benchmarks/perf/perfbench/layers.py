"""Per-layer tracing from outside the program.

:func:`traced` replaces public functions of each layer — class
attributes, or the name a caller module imported — with timing
wrappers, and puts every original back on exit.  Nothing under ``src/``
changes: the wrappers only read clocks and arguments, so a traced
campaign produces the same joint distribution as an untraced one.

Leaf calls (every traced floating-point op, plan sampling, outcome
classification) are aggregated in memory into ``[calls, total, self]``.
Coarse boundaries — campaign, ``Backend.run``, ``ChunkAggregator.add``,
``Scheduler.run``, store and cache calls — are kept as full spans
(name, start, end, parent, campaign id).  A frame's self time is its
duration minus the time of the frames it encloses, so the self times of
all layers partition the traced wall time without double counting.

Self time of ``mpisim.run`` includes the application's own Python
between traced ops (the rank generators run inside ``Scheduler.run``).
"""

from __future__ import annotations

import contextlib
import functools
import json
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator

__all__ = ["LayerTrace", "traced", "patch_targets", "TAINT_OPS"]

#: The public floating-point operations of ``FPOps`` (``LaneFPOps``
#: inherits them and overrides only ``greater``/``less``).
TAINT_OPS = (
    "add", "sub", "mul", "div", "minimum", "maximum", "neg", "abs", "sqrt",
    "exp", "log", "sin", "cos", "reciprocal", "where", "greater", "less",
    "sum", "dot", "norm2", "max", "min", "csr_matvec", "segment_sum",
)


class LayerTrace:
    """In-memory spans, leaf aggregates and counters of one traced run."""

    def __init__(self) -> None:
        #: layer -> [calls, total_s, self_s]
        self.leaves: dict[str, list] = {}
        #: coarse spans in start order
        self.spans: list[dict] = []
        #: plain counters (lanes run, lanes ejected, bytes written, ...)
        self.counts: dict[str, float] = {}
        #: per-event samples (golden pass seconds, first-payload seconds)
        self.samples: dict[str, list[float]] = {}
        self._stack: list[list] = []  # open frames: [span dict | None, child_s]
        #: campaign spans opened so far; numbers each campaign span
        self.campaigns = 0

    # -- recording -------------------------------------------------------
    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def _open_span(self, name: str) -> dict:
        parent = next((f[0] for f in reversed(self._stack) if f[0] is not None), None)
        if name == "campaign":
            self.campaigns += 1
            campaign = self.campaigns
        else:
            campaign = parent["campaign"] if parent is not None else 0
        span = {
            "name": name, "start": perf_counter(), "end": None, "self": 0.0,
            "parent": parent["id"] if parent is not None else None,
            "campaign": campaign, "id": len(self.spans),
        }
        self.spans.append(span)
        return span

    def _close(self, frame: list, t0: float) -> float:
        """Pop ``frame``; credit its duration to the enclosing frame."""
        dur = perf_counter() - t0
        self._stack.pop()
        if self._stack:
            self._stack[-1][1] += dur
        return dur - frame[1]

    # -- wrappers --------------------------------------------------------
    def leaf(self, layer: str, fn: Callable) -> Callable:
        """Aggregate-only wrapper: calls, total and self time per layer."""
        agg = self.leaves.setdefault(layer, [0, 0.0, 0.0])
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [None, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:  # _close, inlined: this runs on every traced op
                dur = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[1]

        return wrapper

    def op_leaf(self, fn: Callable, lane_cls: type) -> Callable:
        """A traced FP op, attributed to ``taint.laneops`` on lane handles."""
        scalar = self.leaf("taint.ops", fn)
        lane = self.leaf("taint.laneops", fn)

        @functools.wraps(fn)
        def wrapper(self_, *args, **kwargs):
            impl = lane if isinstance(self_, lane_cls) else scalar
            return impl(self_, *args, **kwargs)

        return wrapper

    def span(
        self, name: str, fn: Callable,
        after: Callable[[dict, tuple, object], None] | None = None,
    ) -> Callable:
        """Full-span wrapper; ``after(span, args, result)`` runs on exit
        (``result`` is None when the call raised)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open_span(name)
            frame = [span, 0.0]
            self._stack.append(frame)
            t0 = span["start"]
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span["self"] = self._close(frame, t0)
                span["end"] = perf_counter()
                if after is not None:
                    after(span, args, result)

        return wrapper

    def generator_span(self, name: str, fn: Callable) -> Callable:
        """Span around a generator function (``Backend.run``).

        Only the time spent inside the generator — each ``next`` — is
        on the frame stack, so work the consumer does between payloads
        is never charged to the backend.  ``first_payload_s`` samples
        the latency from the call to the first yielded item.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            span = self._open_span(name)
            first = True
            try:
                while True:
                    frame = [span, 0.0]
                    self._stack.append(frame)
                    t0 = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        span["self"] += self._close(frame, t0)
                    if first:
                        self.sample("first_payload_s", perf_counter() - span["start"])
                        first = False
                    yield item
            finally:
                inner.close()
                span["end"] = perf_counter()

        return wrapper

    # -- reading ---------------------------------------------------------
    def span_stats(self, name: str) -> tuple[int, float, float]:
        """``(count, total duration, total self time)`` of ``name`` spans."""
        count = total = own = 0.0
        for span in self.spans:
            if span["name"] == name and span["end"] is not None:
                count += 1
                total += span["end"] - span["start"]
                own += span["self"]
        return int(count), total, own

    def child_span_time(self, name: str, parent_name: str) -> float:
        """Total duration of ``name`` spans directly under ``parent_name``."""
        names = {s["id"]: s["name"] for s in self.spans}
        return sum(
            s["end"] - s["start"] for s in self.spans
            if s["name"] == name and s["end"] is not None
            and s["parent"] is not None and names[s["parent"]] == parent_name
        )

    def summary(self) -> dict:
        """Everything the per-layer metrics are computed from (JSON-able)."""
        spans = {}
        for name in sorted({s["name"] for s in self.spans}):
            count, total, own = self.span_stats(name)
            spans[name] = {"count": count, "total_s": total, "self_s": own}
        return {
            "leaves": {
                k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                for k, v in self.leaves.items()
            },
            "spans": spans,
            "counts": dict(self.counts),
            "samples": {k: list(v) for k, v in self.samples.items()},
            "replay_s": self.child_span_time("fi.trial", "fi.lanes.block"),
        }

    def write_spans(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans))


def patch_targets(trace: LayerTrace) -> Iterator[tuple[object, str, Callable]]:
    """``(owner, attribute, make_wrapper)`` for every traced boundary."""
    import repro.experiments.common as common
    import repro.fi.cache as cache
    import repro.fi.campaign as campaign
    import repro.fi.lanes as lanes
    import repro.fi.scenarios.bitflip as bitflip
    import repro.fi.scenarios.msgcorrupt as msgcorrupt
    import repro.fi.scenarios.rankkill as rankkill
    from repro.engine.aggregate import ChunkAggregator
    from repro.engine.backends import InlineBackend, ProcessPoolBackend
    from repro.engine.distributed import DistributedBackend
    from repro.engine.store import LocalDirStore
    from repro.model.predictor import ResiliencePredictor
    from repro.mpisim.scheduler import Scheduler
    from repro.taint.laneops import LaneFPOps
    from repro.taint.ops import FPOps

    def op(fn):
        return trace.op_leaf(fn, LaneFPOps)

    for name in TAINT_OPS:
        yield FPOps, name, op
    for name in ("greater", "less"):
        yield LaneFPOps, name, op

    def scheduler_done(span, args, result):
        trace.count("mpisim.steps", args[0].steps)

    yield Scheduler, "run", lambda fn: trace.span("mpisim.run", fn, scheduler_done)

    def sample(fn):
        return trace.leaf("fi.scenarios.sample", fn)

    def classify(fn):
        return trace.leaf("fi.scenarios.classify", fn)

    for model in (bitflip.BitFlipModel, rankkill.RankKillModel,
                  msgcorrupt.MessageCorruptionModel):
        yield model, "sample", sample
    yield lanes, "sample_plan", sample
    for module in (bitflip, rankkill, msgcorrupt, lanes):
        yield module, "classify_outcome", classify

    def block_done(span, args, result):
        trace.count("fi.lanes.lanes_run", args[5] - args[4])

    yield lanes, "run_lane_block", lambda fn: trace.span("fi.lanes.block", fn, block_done)

    def eject(fn):
        @functools.wraps(fn)
        def wrapper(self_, lanes_, reason):
            before = len(self_.ejected)
            try:
                return fn(self_, lanes_, reason)
            finally:
                trace.count("fi.lanes.ejected", len(self_.ejected) - before)

        return wrapper

    yield lanes.BatchTracer, "eject", eject
    yield campaign, "run_one_trial", lambda fn: trace.span("fi.trial", fn)

    def campaign_done(span, args, result):
        if result is not None:
            trace.sample("golden_s", result.profile_time)

    for module in (campaign, cache):
        yield module, "run_campaign", lambda fn: trace.span("campaign", fn, campaign_done)

    for backend in (InlineBackend, ProcessPoolBackend, DistributedBackend):
        yield backend, "run", lambda fn: trace.generator_span("engine.backend", fn)
    yield ChunkAggregator, "add", lambda fn: trace.span("engine.aggregate.add", fn)

    def put_done(span, args, result):
        trace.count("engine.store.put_bytes", len(args[2]))

    yield LocalDirStore, "put", lambda fn: trace.span("engine.store.put", fn, put_done)
    yield LocalDirStore, "get", lambda fn: trace.span("engine.store.get", fn)

    def cached(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = trace.campaigns
            try:
                return fn(*args, **kwargs)
            finally:
                hit = trace.campaigns == before
                trace.count("fi.cache.hits" if hit else "fi.cache.misses")

        return trace.span("fi.cache.campaign", wrapper)

    yield common, "cached_campaign", cached
    yield ResiliencePredictor, "predict", lambda fn: trace.span("model.predict", fn)


@contextlib.contextmanager
def traced(trace: LayerTrace) -> Iterator[LayerTrace]:
    """Install every wrapper of :func:`patch_targets`; restore on exit."""
    installed: list[tuple[object, str, object]] = []
    try:
        for owner, attr, make in patch_targets(trace):
            original = vars(owner)[attr]
            setattr(owner, attr, make(original))
            installed.append((owner, attr, original))
        yield trace
    finally:
        for owner, attr, original in reversed(installed):
            setattr(owner, attr, original)

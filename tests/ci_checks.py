"""Assertions of the CI ``smoke`` job (not a pytest module).

Usage::

    python tests/ci_checks.py events A.jsonl B.jsonl
    python tests/ci_checks.py selfcontained FILE [--min-svg N] [--refresh] [--svg]
    PYTHONPATH=src python tests/ci_checks.py chrome FILE [--min-pids N] [--otlp FILE]
    PYTHONPATH=src python tests/ci_checks.py lanes-floor
    PYTHONPATH=src python tests/ci_checks.py lanes-parity [--apps A,B] [--seeds N]
    python tests/ci_checks.py cache-warm COLD.jsonl WARM.jsonl --entries N

``events`` asserts two JSONL event streams are identical once the
per-event wall-clock fields are dropped.

``selfcontained`` asserts a rendered page ships no JavaScript and no
external references: an HTML document (``--min-svg N`` inline SVG
charts at least, ``--refresh`` an auto-refresh meta tag) or, with
``--svg``, a well-formed standalone SVG document.

``chrome`` asserts an ``obs-timeline --chrome`` export is valid (sorted
timestamps, balanced B/E pairs), that every event carries ``pid`` and
``tid``, and that it spans at least ``--min-pids`` processes; with
``--otlp``, that the OTLP export's spans all carry non-empty trace and
span ids.

``lanes-floor`` runs one CG deployment (4 ranks, 96 trials, seed 123)
at ``lanes=1``, 8 and 32, best of 2 after one ``lanes=1`` warm-up. It
asserts the batched joints equal the ``lanes=1`` joint in values and
key order, and that ``lanes=32`` reaches at least 4x the ``lanes=1``
trials/sec. Lane batching is single-process numpy work, so the timed
runs are pinned to one CPU (the process's own affinity, restored
afterwards): an inline chunk would otherwise run its trials side by
side in forked children, one per usable CPU, and the ratio would
measure the CPU count rather than lanes per CPU. It first asserts the same joint parity, untimed,
for CG at 8 ranks (32 trials), the smallest scale at which numpy sums
the per-rank scalars of a reduction pairwise rather than in order.

``lanes-parity`` is the seeded lane-parity sweep: every paper app (or
``--apps``) at 1, 4, 8 and 16 ranks, with 1 and 8 errors per trial
(multi-error deployments pin rank 0), over ``--seeds`` seeds (default
5), runs one traced 16-trial campaign at ``lanes=8``, with the lane pay
rule off, and one at ``lanes=1``. It asserts their records, joint key
order, event streams (minus wall-clock fields) and provenance bytes are
identical, and lists every cell that differs.
``tests/unit/test_lanes.py`` runs a slice of the same cells.

``cache-warm`` asserts a run on an empty cache wrote ``--entries``
cache entries and that the rerun on the filled cache served every one
of them as a hit, with no miss.

Exits non-zero with the failed assertion's message on any mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import tempfile
import time
import xml.etree.ElementTree as ET
from collections import Counter
from html.parser import HTMLParser
from pathlib import Path

#: per-event fields that carry wall-clock readings
WALL_CLOCK = ("ts", "duration_s", "profile_time", "injection_time")

#: lane counts timed against ``lanes=1``, and the floor the last must reach
LANE_COUNTS = (8, 32)
LANES_FLOOR = 4.0
#: the untimed joint-parity deployment of ``lanes-floor``
WIDE_PARITY = dict(nprocs=8, trials=32, seed=123)

#: the ``lanes-parity`` sweep: every app x these scales x error counts
PARITY_NPROCS = (1, 4, 8, 16)
PARITY_ERRORS = (1, 8)
#: trials per cell: two lane blocks at ``PARITY_LANES``
PARITY_TRIALS = 16
PARITY_LANES = 8

EXTERNAL_REF = re.compile(
    r"""(?:src|href)\s*=\s*["']?(?:[a-z]+:)?//[^\s"'>]+""", re.I
)


def strip(path: str) -> list[dict]:
    """The event stream at ``path`` without its wall-clock fields."""
    events = []
    with open(path) as fh:
        for line in fh:
            event = json.loads(line)
            for key in WALL_CLOCK:
                event.pop(key, None)
            events.append(event)
    return events


def check_events(args) -> None:
    a, b = strip(args.a), strip(args.b)
    assert a == b, f"event stream {args.b} diverged from {args.a}"
    print(f"event parity OK: {len(b)} events bit-identical")


def check_selfcontained(args) -> None:
    text = Path(args.file).read_text()
    if args.svg:
        ET.fromstring(text)  # well-formed XML
        assert text.startswith("<svg"), "not an SVG document"
    else:
        assert text.startswith("<!DOCTYPE html>"), "missing doctype"
        HTMLParser().feed(text)  # raises on grossly malformed markup
    assert "<script" not in text, f"{args.file} must not ship JavaScript"
    external = EXTERNAL_REF.findall(text)
    assert not external, f"external references found: {external}"
    if args.refresh:
        assert 'http-equiv="refresh"' in text, "live page must auto-refresh"
    charts = text.count("<svg")
    assert charts >= args.min_svg, (
        f"expected at least {args.min_svg} inline SVG charts, got {charts}"
    )
    print(f"{args.file} OK: {len(text)} bytes, self-contained")


def check_chrome(args) -> None:
    from repro.obs.timeline import validate_chrome_trace

    blob = json.loads(Path(args.file).read_text())
    pairs = validate_chrome_trace(blob)  # sorted ts, balanced B/E
    for event in blob["traceEvents"]:
        assert "pid" in event and "tid" in event, event
    pids = {e["pid"] for e in blob["traceEvents"]}
    assert len(pids) >= args.min_pids, (
        f"expected at least {args.min_pids} pids, got {sorted(pids)}"
    )
    if args.otlp:
        otlp = json.loads(Path(args.otlp).read_text())
        spans = otlp["resourceSpans"][0]["scopeSpans"][0]["spans"]
        assert spans, f"{args.otlp} has no spans"
        assert all(s["traceId"] and s["spanId"] for s in spans), (
            f"{args.otlp} has a span with an empty trace or span id"
        )
    print(f"chrome trace OK: {pairs} span pairs across {len(pids)} pids")


def check_lanes_floor(args) -> None:
    from repro.apps import get_app
    from repro.fi.campaign import Deployment, run_campaign

    app = get_app("cg")
    wide = Deployment(**WIDE_PARITY)
    scalar = run_campaign(app, wide, jobs=1, lanes=1).joint
    for lanes in LANE_COUNTS:  # values and key order
        joint = run_campaign(app, wide, jobs=1, lanes=lanes).joint
        assert list(joint.items()) == list(scalar.items()), (
            f"nprocs={wide.nprocs} lanes={lanes} joint diverged from lanes=1"
        )
    print(f"lanes parity OK at nprocs={wide.nprocs}: lanes {LANE_COUNTS} = lanes=1")
    deployment = Deployment(nprocs=4, trials=96, seed=123)
    times: dict[int, float] = {}
    joints: dict[int, dict] = {}
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})  # fork_slots() = 1: in-process
    try:
        run_campaign(app, deployment, jobs=1, lanes=1)  # warm-up
        for lanes in (1, *LANE_COUNTS):
            best = float("inf")
            for _ in range(2):
                t0 = time.perf_counter()
                result = run_campaign(app, deployment, jobs=1, lanes=lanes)
                best = min(best, time.perf_counter() - t0)
            times[lanes] = best
            joints[lanes] = result.joint
            print(f"lanes={lanes:<3d} {best:6.2f}s  "
                  f"{deployment.trials / best:7.1f} trials/s  "
                  f"speedup {times[1] / best:.2f}x")
    finally:
        os.sched_setaffinity(0, cpus)
    for lanes in LANE_COUNTS:  # values and key order
        assert list(joints[lanes].items()) == list(joints[1].items()), (
            f"lanes={lanes} joint diverged from lanes=1"
        )
    top = LANE_COUNTS[-1]
    speedup = times[1] / times[top]
    assert speedup >= LANES_FLOOR, (
        f"lanes={top} speedup {speedup:.2f}x < {LANES_FLOOR}x"
    )
    print(f"lanes floor OK: lanes={top} at {speedup:.2f}x >= {LANES_FLOOR}x")


def lane_parity(app: str, nprocs: int, n_errors: int, seed: int,
                workdir: str | Path, trials: int = PARITY_TRIALS,
                lanes: int = PARITY_LANES) -> list[str]:
    """How one traced campaign at ``lanes`` differs from ``lanes=1``.

    Compares records, joint key order, the event stream without its
    wall-clock fields, and the provenance bytes; returns one line per
    difference (an empty list when the runs agree).  The lane pay rule
    is off, so every block of the campaign runs batched however many
    lanes it ejects.
    """
    import repro.engine.chunks as chunks
    from repro import obs
    from repro.apps import get_app
    from repro.fi.campaign import Deployment, run_campaign

    deployment = Deployment(
        nprocs=nprocs, trials=trials, seed=seed, n_errors=n_errors,
        target_rank=0 if n_errors > 1 and nprocs > 1 else None,
    )
    runs = []
    for n_lanes in (1, lanes):
        trace = Path(workdir) / f"{app}-p{nprocs}-x{n_errors}-s{seed}-l{n_lanes}.jsonl"
        previous = obs.get_recorder()
        recorder = obs.configure(trace_path=trace)
        share, chunks.LANE_EJECT_SHARE = chunks.LANE_EJECT_SHARE, 1.0
        try:
            result = run_campaign(get_app(app), deployment, keep_records=True,
                                  jobs=1, lanes=n_lanes)
        finally:
            chunks.LANE_EJECT_SHARE = share
            recorder.close()
            obs.set_recorder(previous)
        runs.append((result.records, list(result.joint),
                     strip(str(trace)),
                     obs.provenance_path(trace).read_bytes()))
    cell = f"{app} p={nprocs} x={n_errors} seed={seed}"
    return [
        f"{cell}: {what} differ at lanes={lanes}"
        for what, a, b in zip(("records", "joint order", "events", "provenance"),
                              *runs)
        if a != b
    ]


def check_lanes_parity(args) -> None:
    from repro.apps import paper_apps

    apps = args.apps.split(",") if args.apps else paper_apps()
    cells = [(app, p, x, seed) for app in apps for p in PARITY_NPROCS
             for x in PARITY_ERRORS for seed in range(args.seeds)]
    failures = []
    with tempfile.TemporaryDirectory() as workdir:
        for cell in cells:
            t0 = time.perf_counter()
            found = lane_parity(*cell, workdir)
            failures.extend(found)
            print(f"{'DIFF' if found else 'ok  '} {cell} "
                  f"{time.perf_counter() - t0:5.1f}s", flush=True)
    assert not failures, "lane parity broken:\n" + "\n".join(failures)
    print(f"lane parity OK: {len(cells)} cells, lanes={PARITY_LANES} = lanes=1")


def check_cache_warm(args) -> None:
    def types(path: str) -> Counter:
        with open(path) as fh:
            return Counter(json.loads(line)["type"] for line in fh)

    cold, warm = types(args.cold), types(args.warm)
    assert cold["cache_write"] == args.entries, f"{args.cold}: {dict(cold)}"
    assert warm["cache_hit"] == args.entries and not warm["cache_miss"], (
        f"{args.warm}: {dict(warm)}"
    )
    print(f"cache OK: {args.entries} entries written cold, all hits warm")


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    events = sub.add_parser("events", help="event-stream parity")
    events.add_argument("a")
    events.add_argument("b")
    events.set_defaults(run=check_events)
    page = sub.add_parser("selfcontained", help="no scripts, no external refs")
    page.add_argument("file")
    page.add_argument("--min-svg", type=int, default=0)
    page.add_argument("--refresh", action="store_true")
    page.add_argument("--svg", action="store_true")
    page.set_defaults(run=check_selfcontained)
    chrome = sub.add_parser("chrome", help="valid Chrome (and OTLP) trace")
    chrome.add_argument("file")
    chrome.add_argument("--min-pids", type=int, default=1)
    chrome.add_argument("--otlp")
    chrome.set_defaults(run=check_chrome)
    floor = sub.add_parser("lanes-floor", help="lanes=32 >= 4x lanes=1")
    floor.set_defaults(run=check_lanes_floor)
    parity = sub.add_parser("lanes-parity", help="seeded lanes=8 vs lanes=1 sweep")
    parity.add_argument("--apps", help="comma-separated apps (default: all)")
    parity.add_argument("--seeds", type=int, default=5)
    parity.set_defaults(run=check_lanes_parity)
    warm = sub.add_parser("cache-warm", help="a warm rerun only hits")
    warm.add_argument("cold")
    warm.add_argument("warm")
    warm.add_argument("--entries", type=int, required=True)
    warm.set_defaults(run=check_cache_warm)
    args = parser.parse_args(argv)
    args.run(args)


if __name__ == "__main__":
    main()

"""Assertions shared by the CI smoke jobs (not a pytest module).

Usage::

    python tests/ci_checks.py events A.jsonl B.jsonl [--drop-operational]
    python tests/ci_checks.py selfcontained FILE [--min-svg N] [--refresh] [--svg]

``events`` asserts two JSONL event streams are identical once the
per-event wall-clock fields are dropped; ``--drop-operational`` also
drops the operational events (worker lifecycle, checkpoints, cache
traffic) that legitimately differ between backends — see
``docs/distributed.md``.

``selfcontained`` asserts a rendered page ships no JavaScript and no
external references: an HTML document (``--min-svg N`` inline SVG
charts at least, ``--refresh`` an auto-refresh meta tag) or, with
``--svg``, a well-formed standalone SVG document.

Exits non-zero with the failed assertion's message on any mismatch.
"""

from __future__ import annotations

import argparse
import json
import re
import xml.etree.ElementTree as ET
from html.parser import HTMLParser
from pathlib import Path

#: per-event fields that carry wall-clock readings
WALL_CLOCK = ("ts", "duration_s", "profile_time", "injection_time")

#: event types whose presence depends on the backend, not the trials
OPERATIONAL = {"worker_joined", "worker_lost", "chunk_requeued",
               "checkpoint_written", "campaign_resumed", "cache_hit",
               "cache_miss", "cache_write", "cache_corrupt"}

EXTERNAL_REF = re.compile(
    r"""(?:src|href)\s*=\s*["']?(?:[a-z]+:)?//[^\s"'>]+""", re.I
)


def strip(path: str, drop_operational: bool) -> list[dict]:
    """The event stream at ``path`` without its wall-clock fields."""
    events = []
    with open(path) as fh:
        for line in fh:
            event = json.loads(line)
            if drop_operational and event.get("type") in OPERATIONAL:
                continue
            for key in WALL_CLOCK:
                event.pop(key, None)
            events.append(event)
    return events


def check_events(args) -> None:
    a, b = strip(args.a, args.drop_operational), strip(args.b, args.drop_operational)
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


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    events = sub.add_parser("events", help="event-stream parity")
    events.add_argument("a")
    events.add_argument("b")
    events.add_argument("--drop-operational", action="store_true")
    events.set_defaults(run=check_events)
    page = sub.add_parser("selfcontained", help="no scripts, no external refs")
    page.add_argument("file")
    page.add_argument("--min-svg", type=int, default=0)
    page.add_argument("--refresh", action="store_true")
    page.add_argument("--svg", action="store_true")
    page.set_defaults(run=check_selfcontained)
    args = parser.parse_args(argv)
    args.run(args)


if __name__ == "__main__":
    main()

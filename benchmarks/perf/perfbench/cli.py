"""Command line of ``benchmarks/perf/run.py``.

Modes:

* ``run.py [--seed N] [--out FILE] [--smoke]`` — everything: 5 rounds
  round-robin over the workloads, one traced round, the microbenches,
  a report of every metric with its unit, and optionally a JSON record;
* ``run.py --workload W --seed N --seconds S --trace 0|1`` — one run of
  one workload; the last stdout line is one JSON object with the
  end-to-end (``--trace 0``) or per-layer (``--trace 1``) metrics;
* ``run.py compare --parent DIR --change DIR`` — paired runs of two
  checkouts with this benchmark code, and a verdict per metric;
* ``run.py pins`` — recompute the pinned seed-123 outputs.

Exit status: 0 on success, 1 when the program's outputs are wrong (no
metrics are printed then), 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from dataclasses import replace
from pathlib import Path

from perfbench import stats
from perfbench.runs import (
    CHILDREN, PIN_SEED, BenchError, Context, CorrectnessError, RunResult,
    check_repeatable, host_facts, run_measure, run_micro, run_trace, spawn,
)
from perfbench.micro import MICRO_WORKLOAD
from perfbench.workloads import WORKLOADS, load_pins

__all__ = ["main", "ROOT", "load_spec"]

ROOT = Path(__file__).resolve().parents[3]
PINS = Path(__file__).resolve().parent / "pins.json"
#: a single run (``--workload``) must finish inside this many seconds
RUN_DEADLINE_S = 170.0
#: rounds of the full mode, round-robin over the workloads
ROUNDS = 5


def load_spec(root: Path = ROOT) -> dict:
    """The benchmark declaration: workloads, metrics, units, bounds."""
    return json.loads((root / "BENCHMARK.json").read_text())


def _units(spec: dict, section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec[section]}


def _declared(values: dict[str, float], units: dict[str, str]) -> dict:
    """``{name: {value, unit}}`` in declaration order; names must match."""
    if set(values) != set(units):
        missing = sorted(set(units) - set(values))
        extra = sorted(set(values) - set(units))
        raise BenchError(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def _print_metrics(metrics: dict, indent: str = "  ") -> None:
    for name, m in metrics.items():
        print(f"{indent}{name:36s} {m['value']:14.6g} {m['unit']}")


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("seeds are non-negative integers")
    return seed


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="run.py", description="Campaign-throughput benchmark (see README.md).",
    )
    p.add_argument("--seed", type=_seed, default=PIN_SEED)
    p.add_argument("--seconds", type=float, default=None,
                   help="measured seconds per run (default: BENCHMARK.json run_seconds)")
    p.add_argument("--workload", choices=sorted(WORKLOADS),
                   help="run one workload once; the last stdout line is JSON")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="with --workload: 1 reports the per-layer metrics")
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes, one round: checks the plumbing in under a minute")
    p.add_argument("--out", type=Path, help="write the JSON record here")
    return p


def _compare_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="run.py compare",
        description="Alternating parent/change runs of two checkouts.",
    )
    p.add_argument("--parent", type=Path, required=True, help="parent checkout root")
    p.add_argument("--change", type=Path, required=True, help="change checkout root")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=_seed, default=1000,
                   help="pair i runs seed + i (one seed per pair)")
    p.add_argument("--out", type=Path)
    return p


def _program(src: Path) -> Path:
    src = src.resolve()
    if not (src / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source at {src} (expected {src}/repro)")
    return src


def _context(src: Path, size: str, deadline: float | None = None) -> Context:
    src = _program(src)
    work = ROOT / ".perf-work" / f"{os.getpid()}-{time.time_ns()}"
    work.mkdir(parents=True)
    return Context(ROOT, src, work, size, load_pins(PINS), deadline)


def _cleanup(ctx: Context | None) -> None:
    if ctx is None:
        return
    shutil.rmtree(ctx.work, ignore_errors=True)
    try:
        ctx.work.parent.rmdir()
    except OSError:
        pass  # another invocation's scratch is still there


def _single(args, spec: dict, ctx: Context) -> dict:
    """One run of one workload; its record is the last stdout line."""
    wl = WORKLOADS[args.workload]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.trace:
        spans = args.out.with_suffix(".spans.json") if args.out else ctx.work / "spans.json"
        values, attempted, failed = run_trace(ctx, wl, args.seed, seconds, spans=spans)
        metrics = _declared(values, _units(spec, "per_layer"))
    else:
        run = run_measure(ctx, wl, args.seed, seconds)
        values, attempted, failed = run.metrics, run.attempted, run.failed
        metrics = _declared(values, _units(spec, "end_to_end"))
    print(f"{wl.name} seed {args.seed}: {attempted} units, {failed} raised")
    _print_metrics(metrics)
    return {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}


def _full(args, spec: dict, ctx: Context) -> dict:
    """Rounds × workloads, the traced round and the microbenches."""
    if args.seconds is not None:
        seconds = args.seconds
    else:
        seconds = 0.0 if args.smoke else spec["run_seconds"]  # smoke: one unit
    rounds, children = (1, 1) if args.smoke else (ROUNDS, CHILDREN)
    e2e_units = _units(spec, "end_to_end")
    runs: dict[str, list[RunResult]] = {name: [] for name in WORKLOADS}
    for r in range(rounds):
        for wl in WORKLOADS.values():
            run = run_measure(ctx, wl, args.seed, seconds, children)
            runs[wl.name].append(run)
            print(f"round {r + 1}/{rounds} {wl.name}: "
                  f"{run.metrics['trials_per_s']:.4g} trials/s", file=sys.stderr)
    micro = run_micro(ctx)
    record = {"host": host_facts(ctx, args.seed), "seconds": seconds,
              "rounds": rounds, "size": ctx.size, "workloads": {}, "micro": micro}
    for wl in WORKLOADS.values():
        done = runs[wl.name]
        check_repeatable(wl.name, done)
        reference = RunResult(
            {}, 0, 0, {k: d for run in done for k, d in run.digests.items()},
            [w for run in done for w in run.unit_walls],
        )
        spans = (args.out.with_suffix(f".{wl.name}.spans.json") if args.out
                 else ctx.work / f"{wl.name}.spans.json")
        layers, t_attempted, t_failed = run_trace(
            ctx, wl, args.seed, seconds, reference=reference, micro=micro, spans=spans,
        )
        attempted = sum(run.attempted for run in done)
        failed = sum(run.failed for run in done)
        walls = reference.unit_walls
        tail = stats.tail_percentile(walls)
        record["workloads"][wl.name] = {
            "end_to_end": {
                name: {**stats.summarize([run.metrics[name] for run in done]),
                       "unit": unit, "values": [run.metrics[name] for run in done]}
                for name, unit in e2e_units.items()
            },
            "error_frac": failed / attempted,
            "attempted": attempted + t_attempted, "failed": failed + t_failed,
            "unit_s": {"median": stats.median(walls), "n": len(walls),
                       "tail": {"p": tail[0], "value": tail[1]} if tail else None},
            "per_layer": _declared(layers, _units(spec, "per_layer")),
        }
    return record


def _print_report(record: dict) -> None:
    host = record["host"]
    print(f"host: {host['cores']} cores, Python {host['python']}, numpy "
          f"{host['numpy']}, commit {host['git_sha'][:12]}, seed {host['seed']}")
    print(f"{record['rounds']} round(s) of {record['seconds']:g} s per workload "
          f"({record['size']} sizes)")
    for name, wl in record["workloads"].items():
        unit_s = wl["unit_s"]
        tail = unit_s["tail"]
        print(f"\n== {name}  (error_frac {wl['error_frac']:.3g}; unit wall "
              f"median {unit_s['median']:.3g} s"
              + (f", p{tail['p']} {tail['value']:.3g} s" if tail else "")
              + f", n={unit_s['n']})")
        for metric, s in wl["end_to_end"].items():
            print(f"  {metric:36s} {s['median']:14.6g} {s['unit']:9s} "
                  f"IQR [{s['q1']:.6g}, {s['q3']:.6g}] n={s['n']}")
        print("  -- per layer (traced round)")
        _print_metrics(
            {k: v for k, v in wl["per_layer"].items() if not k.startswith("micro.")},
            indent="  ",
        )
    print("\n== microbenches (µs per call; the workload whose layer it is)")
    for name, s in record["micro"].items():
        owner = next(w for prefix, w in MICRO_WORKLOAD.items() if name.startswith(prefix))
        print(f"  {name:36s} {s['median']:14.6g} us        "
              f"IQR [{s['q1']:.6g}, {s['q3']:.6g}] n={s['n']}  {owner}")


def _compare(argv: list[str], spec: dict) -> int:
    args = _compare_parser().parse_args(argv)
    if args.pairs < 10:
        raise BenchError("compare needs at least 10 parent/change pairs")
    seconds = spec["run_seconds"]
    names = list(WORKLOADS)
    sides = {"parent": _program(args.parent / "src"), "change": _program(args.change / "src")}
    ctx = _context(args.parent / "src", "full")
    values = {w: {side: [] for side in sides} for w in names}
    failed = {w: {side: 0 for side in sides} for w in names}
    try:
        for i in range(args.pairs):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for name in names:
                for side in order:
                    run = run_measure(replace(ctx, src=sides[side]), WORKLOADS[name],
                                      args.seed + i, seconds)
                    values[name][side].append(run.metrics)
                    failed[name][side] += run.failed
                print(f"pair {i + 1}/{args.pairs} {name} done", file=sys.stderr)
    finally:
        _cleanup(ctx)
    report = {}
    for name in names:
        print(f"\n== {name}  (units raised: parent {failed[name]['parent']}, "
              f"change {failed[name]['change']})")
        report[name] = {}
        for m in spec["end_to_end"]:
            parent = [v[m["name"]] for v in values[name]["parent"]]
            change = [v[m["name"]] for v in values[name]["change"]]
            verdict = stats.verdict(parent, change, m["better"], m["bound"])
            if verdict == "gain" and failed[name]["change"] > failed[name]["parent"]:
                verdict = "not met (more units raised)"
            p, c = stats.summarize(parent), stats.summarize(change)
            print(f"  {m['name']:18s} parent {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}]"
                  f"  change {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}]"
                  f"  {m['unit']}: {verdict}")
            report[name][m["name"]] = {
                "parent": parent, "change": change, "verdict": verdict,
            }
    if args.out:
        args.out.write_text(json.dumps(report, indent=1))
    return 0


def _pins(spec: dict) -> int:
    """Recompute pins.json: one clean child per workload at seed 123."""
    ctx = _context(ROOT / "src", "full")
    try:
        pins = {}
        for wl in WORKLOADS.values():
            unit = spawn(ctx, "measure", wl, PIN_SEED, budget=0, first_unit=0)["units"][0]
            if "error" in unit:
                raise CorrectnessError(f"{wl.name}: {unit['error']}")
            pins[wl.name] = {"digest": unit["digest"]}
            if unit["triple"] is not None:
                pins[wl.name]["triple"] = unit["triple"]
    finally:
        _cleanup(ctx)
    PINS.write_text(json.dumps(pins, indent=1) + "\n")
    print(f"wrote {PINS}")
    return 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["child"]:
        from perfbench.child import main as child_main

        return child_main(json.loads(argv[1]))
    ctx = None
    try:
        spec = load_spec()
        if argv[:1] == ["compare"]:
            return _compare(argv[1:], spec)
        if argv[:1] == ["pins"]:
            return _pins(spec)
        args = _parser().parse_args(argv)
        if args.workload:
            ctx = _context(ROOT / "src", "full", time.time() + RUN_DEADLINE_S)
            record = _single(args, spec, ctx)
        else:
            ctx = _context(ROOT / "src", "smoke" if args.smoke else "full")
            record = _full(args, spec, ctx)
        if args.out:
            args.out.write_text(json.dumps(record, indent=1) + "\n")
        if args.workload:
            print(json.dumps(record))
        else:
            _print_report(record)
        return 0
    except CorrectnessError as exc:
        print(f"run.py: outputs are wrong: {exc}", file=sys.stderr)
        return 1
    except (BenchError, OSError, ValueError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    finally:
        _cleanup(ctx)

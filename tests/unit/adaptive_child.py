"""Child process for the adaptive campaign's CLI crash/resume parity test.

Not a test module (no ``test_`` prefix): ``tests/unit/test_adaptive.py``
launches it in a subprocess so a mid-wave ``os._exit`` — the closest
in-tree stand-in for an OOM kill — takes down a whole interpreter
without touching the pytest process.  Unlike ``engine_child.py`` this
one goes through the real CLI entry point (``repro.experiments.cli``),
so the ``--ci-halfwidth`` env relay, the experiment harness, and the
adaptive engine are all exercised end to end.

Usage::

    python adaptive_child.py {clean|crash|resume} TRACE OUT_JSON CACHE_DIR

* ``clean``  — uninterrupted adaptive run, no checkpointing.
* ``crash``  — checkpointed adaptive run, hard-exits (status 41) mid-wave.
* ``resume`` — checkpointed adaptive run with ``--resume``, after ``crash``.

``clean`` and ``resume`` write the executed trial stream and the
per-campaign convergence summaries (reconstructed from the trace) to
OUT_JSON; the trace and its sibling ``*.provenance.jsonl`` land next to
TRACE.
"""

import json
import os
import sys

CRASH_AT_TRIAL = 7   # one checkpoint chunk durable, mid first 20-trial wave
EXIT_STATUS = 41

CLI_ARGS = [
    "motivation", "-q",
    "--trials", "30",          # the adaptive cap
    "--ci-halfwidth", "0.15",  # first wave = 20 trials, so the cap bites
]


def main() -> None:
    mode, trace, out_json, cache_dir = sys.argv[1:5]
    os.environ["REPRO_CACHE"] = "0"  # isolate from the result cache
    os.environ["REPRO_CACHE_DIR"] = cache_dir  # checkpoints live here

    import repro.engine.chunks as chunks_mod
    from repro.experiments.cli import main as cli_main

    argv = [*CLI_ARGS, "--trace-out", trace]

    if mode == "crash":
        real = chunks_mod.fold_record
        calls = {"n": 0}

        def dying(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] > CRASH_AT_TRIAL:
                os._exit(EXIT_STATUS)  # no flush, no atexit — a hard kill
            return real(*args, **kwargs)

        chunks_mod.fold_record = dying
        cli_main(argv + ["--checkpoint-every", "7"])
        raise SystemExit("crash mode must never complete")

    if mode == "clean":
        rc = cli_main(argv)
    elif mode == "resume":
        rc = cli_main(argv + ["--checkpoint-every", "7", "--resume"])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    if rc != 0:
        raise SystemExit(f"cli exited with {rc}")

    # Reconstruct the executed trial stream and convergence decisions
    # from the trace: trial order, outcomes, and per-campaign wave/stop
    # decisions must all survive the kill byte-for-byte.
    from repro.obs import load_trace
    from repro.obs.events import CampaignConverged, TrialFinished

    events = load_trace(trace)
    payload = {
        "trials": [
            [e.trial, e.outcome, e.n_contaminated, e.activated]
            for e in events if isinstance(e, TrialFinished)
        ],
        "converged": [
            [e.app, e.nprocs, e.target, e.trials_used, e.trials_cap,
             e.waves, e.converged, e.halfwidths]
            for e in events if isinstance(e, CampaignConverged)
        ],
    }
    with open(out_json, "w") as fh:
        json.dump(payload, fh)


if __name__ == "__main__":
    main()

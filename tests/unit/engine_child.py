"""Child process for the engine's crash/resume byte-parity test.

Not a test module (no ``test_`` prefix): ``tests/unit/test_engine.py``
launches it in a subprocess so a mid-campaign ``os._exit`` — the closest
in-tree stand-in for an OOM kill — takes down a whole interpreter
without touching the pytest process.

Usage::

    python engine_child.py {clean|crash|resume} TRACE OUT_JSON CACHE_DIR

* ``clean``  — uninterrupted serial campaign, no checkpointing.
* ``crash``  — checkpointed campaign, hard-exits (status 41) mid-trial.
* ``resume`` — checkpointed campaign with resume, after a ``crash`` run.

``clean`` and ``resume`` write the final joint distribution (as an
insertion-ordered list) to OUT_JSON; the trace and its sibling
``*.provenance.jsonl`` land next to TRACE.
"""

import json
import os
import sys

CRASH_AT_TRIAL = 7  # inside the third of four checkpoint chunks
EXIT_STATUS = 41


def main() -> None:
    mode, trace, out_json, cache_dir = sys.argv[1:5]
    os.environ["REPRO_CACHE"] = "0"  # isolate from the result cache
    os.environ["REPRO_CACHE_DIR"] = cache_dir  # checkpoints live here

    from repro import Deployment, obs, run_campaign
    from repro.apps import get_app
    import repro.engine.chunks as chunks_mod

    app = get_app("cg")
    dep = Deployment(nprocs=2, trials=10, seed=13)
    recorder = obs.configure(trace_path=trace)

    if mode == "crash":
        real = chunks_mod.fold_record
        calls = {"n": 0}

        def dying(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] > CRASH_AT_TRIAL:
                os._exit(EXIT_STATUS)  # no flush, no atexit — a hard kill
            return real(*args, **kwargs)

        chunks_mod.fold_record = dying
        run_campaign(app, dep, jobs=1, checkpoint_every=3)
        raise SystemExit("crash mode must never complete")

    if mode == "clean":
        result = run_campaign(app, dep, jobs=1)
    elif mode == "resume":
        result = run_campaign(app, dep, jobs=1, checkpoint_every=3, resume=True)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    recorder.close()

    joint = [
        [outcome.value, ncont, activated, count]
        for (outcome, ncont, activated), count in result.joint.items()
    ]
    with open(out_json, "w") as fh:
        json.dump({"joint": joint}, fh)


if __name__ == "__main__":
    main()

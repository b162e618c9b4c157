"""Regenerate the BitFlipModel byte-identity goldens.

Run from the repository root::

    PYTHONPATH=src python tests/goldens/gen_bitflip_goldens.py

Captures, for a small CG, MG and PENNANT campaign at jobs=1 / lanes=1:

* ``<app>.provenance.jsonl`` — the provenance sidecar, byte-exact;
* ``<app>.events.jsonl`` — the main trace with wall-clock fields
  (``ts``, ``duration_s``, ``profile_time``, ``injection_time``)
  stripped, one canonical JSON object per line;
* ``<app>.joint.json`` — the joint distribution in insertion order.

The CG and MG goldens were produced by the pre-scenario-refactor
bit-flip pipeline, and the PENNANT one (bit-flip failures) before the
families shared one trial lifecycle; ``tests/unit/test_scenarios.py``
asserts the refactored :class:`BitFlipModel` reproduces them
byte-for-byte for any jobs × lanes × resume combination.
"""

from __future__ import annotations

import json
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent

#: one (app, deployment-kwargs) pair per golden set
CASES = {
    "cg": dict(nprocs=4, trials=24, seed=7),
    "mg": dict(nprocs=4, trials=24, seed=7),
    # 8-bit flips crash PENNANT's guards: the one golden with failures
    "pennant": dict(nprocs=4, trials=24, seed=7, bits_per_error=8),
}

#: wall-clock fields stripped from main-trace events before comparison
VOLATILE_FIELDS = ("ts", "duration_s", "profile_time", "injection_time")


def strip_volatile(line: str) -> str:
    """Canonicalize one trace line: drop wall-clock fields, sort keys."""
    blob = json.loads(line)
    for key in VOLATILE_FIELDS:
        blob.pop(key, None)
    return json.dumps(blob, sort_keys=True)


def generate(out_dir: Path = GOLDEN_DIR) -> None:
    import tempfile

    from repro import obs
    from repro.apps import get_app
    from repro.fi.campaign import Deployment, run_campaign
    from repro.obs.provenance import provenance_path

    for name, kwargs in CASES.items():
        app = get_app(name)
        deployment = Deployment(**kwargs)
        with tempfile.TemporaryDirectory() as tmp:
            trace = Path(tmp) / "run.jsonl"
            previous = obs.get_recorder()
            recorder = obs.configure(trace_path=trace)
            try:
                result = run_campaign(app, deployment, jobs=1, lanes=1)
            finally:
                obs.set_recorder(previous)
                recorder.close()
            (out_dir / f"{name}.provenance.jsonl").write_bytes(
                provenance_path(trace).read_bytes()
            )
            stripped = "".join(
                strip_volatile(line) + "\n"
                for line in trace.read_text().splitlines()
            )
            (out_dir / f"{name}.events.jsonl").write_text(stripped)
        joint = [
            [outcome.value, ncont, activated, count]
            for (outcome, ncont, activated), count in result.joint.items()
        ]
        (out_dir / f"{name}.joint.json").write_text(
            json.dumps(joint, indent=1) + "\n"
        )
        print(f"{name}: {result.n_trials} trials, joint={len(joint)} cells")


if __name__ == "__main__":
    generate()

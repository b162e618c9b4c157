"""Regenerate the system-level scenario byte-identity goldens.

Run from the repository root::

    PYTHONPATH=src python tests/goldens/gen_scenario_goldens.py

Captures, for rank-kill and message-corruption campaigns of CG at 4
ranks and MG at 16 ranks (jobs=1, fixed seeds), the same three files per
case as ``gen_bitflip_goldens.py``: the provenance sidecar byte-exact,
the main trace with wall-clock fields stripped, and the joint
distribution in insertion order.

The committed files were produced by the per-trial pipeline that ran
each trial as its own execution from step 0;
``tests/unit/test_fork.py`` asserts that every execution path — forked
at the fault site, the in-place fallback, the worker pool and
checkpoint→resume — reproduces them byte for byte.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent

_spec = importlib.util.spec_from_file_location(
    "gen_bitflip_goldens", GOLDEN_DIR / "gen_bitflip_goldens.py"
)
_bitflip = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_bitflip)
strip_volatile = _bitflip.strip_volatile

#: golden name -> (app, deployment kwargs)
CASES = {
    "cg4-rankkill": ("cg", dict(nprocs=4, trials=12, seed=11, scenario="rankkill")),
    "cg4-msgcorrupt": ("cg", dict(nprocs=4, trials=12, seed=11, scenario="msgcorrupt")),
    "mg16-rankkill": ("mg", dict(nprocs=16, trials=8, seed=5, scenario="rankkill")),
    "mg16-msgcorrupt": ("mg", dict(nprocs=16, trials=8, seed=5, scenario="msgcorrupt")),
}


def capture(app_name: str, kwargs: dict, **run_kwargs) -> tuple[bytes, str, list]:
    """Run one case under a trace: (provenance bytes, events, joint)."""
    import tempfile

    from repro import obs
    from repro.apps import get_app
    from repro.fi.campaign import Deployment, run_campaign
    from repro.obs.provenance import provenance_path

    with tempfile.TemporaryDirectory() as tmp:
        trace = Path(tmp) / "run.jsonl"
        previous = obs.get_recorder()
        recorder = obs.configure(trace_path=trace)
        try:
            result = run_campaign(get_app(app_name), Deployment(**kwargs), **run_kwargs)
        finally:
            obs.set_recorder(previous)
            recorder.close()
        prov = provenance_path(trace).read_bytes()
        events = "".join(
            strip_volatile(line) + "\n" for line in trace.read_text().splitlines()
        )
    joint = [
        [outcome.value, ncont, activated, count]
        for (outcome, ncont, activated), count in result.joint.items()
    ]
    return prov, events, joint


def generate(out_dir: Path = GOLDEN_DIR) -> None:
    for name, (app_name, kwargs) in CASES.items():
        prov, events, joint = capture(app_name, kwargs, jobs=1, lanes=1)
        (out_dir / f"{name}.provenance.jsonl").write_bytes(prov)
        (out_dir / f"{name}.events.jsonl").write_text(events)
        (out_dir / f"{name}.joint.json").write_text(json.dumps(joint, indent=1) + "\n")
        print(f"{name}: {sum(c for *_, c in joint)} trials, joint={len(joint)} cells")


if __name__ == "__main__":
    generate()

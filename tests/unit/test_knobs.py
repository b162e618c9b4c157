"""The knob table (``repro.knobs.KNOBS``), checked row by row.

Every row is exercised the same way: its environment variable is
honoured, blank means the default, a malformed value warns exactly once
and falls back; field rows validate in ``Deployment`` and resolve with
arg > field > env > default; flag rows relay through the experiments
CLI; and exactly the keyed rows enter ``deployment_key``.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments import cli
from repro.fi.cache import cached_campaign, deployment_key
from repro.fi.campaign import Deployment
from repro.knobs import FIELD_KNOBS, FLAG_KNOBS, KNOBS, env_value, resolve

#: per row: a raw non-default value and its canonical form
GOOD = {
    "jobs": ("3", 3),
    "lanes": ("16", 16),
    "checkpoint_every": ("25", 25),
    "resume": ("yes", True),
    "ci_halfwidth": ("0.1", 0.1),
    "scenario": ("RANKKILL:rank=1", "rankkill:rank=1"),
    "backend": ("pool", "process"),
    "trials": ("42", 42),
    "cache": ("0", False),
    "obs_port": ("8123", 8123),
    "dist_chunk_timeout": ("2.5", 2.5),
    "dist_worker_timeout": ("0.5", 0.5),
}

#: per row: raw values that must be rejected (malformed or out of range)
BAD = {
    "jobs": ["zz", "0"],
    "lanes": ["many", "0"],
    "checkpoint_every": ["soon", "-3"],
    "resume": ["maybe"],
    "ci_halfwidth": ["banana", "0.7"],
    "scenario": ["cosmicray", "rankkill:rank"],
    "backend": ["warp-drive", "distributed:host:nope"],
    "trials": ["lots", "0", "-5"],
    "cache": ["sometimes"],
    "obs_port": ["not-a-port", "99999"],
    "dist_chunk_timeout": ["soon", "0"],
    "dist_worker_timeout": ["-1", "nan"],
}

#: per field row: three distinct valid values for env, field and arg
LAYERS = {
    "jobs": (2, 3, 4),
    "lanes": (2, 4, 8),
    "checkpoint_every": (5, 10, 20),
    "ci_halfwidth": (0.05, 0.1, 0.2),
    "scenario": ("msgcorrupt", "rankkill", "rankkill:rank=1"),
    "backend": ("process", "inline", "distributed:127.0.0.1:0"),
}

BASE = dict(nprocs=4, trials=10, seed=1)

ALL = sorted(KNOBS)
BAD_CASES = [(name, raw) for name in ALL for raw in BAD[name]]
FIELD_BAD_CASES = [
    (knob.name, raw) for knob in FIELD_KNOBS for raw in BAD[knob.name]
]


def test_every_row_has_cases():
    assert set(GOOD) == set(BAD) == set(KNOBS)
    assert set(LAYERS) == {knob.name for knob in FIELD_KNOBS}


@pytest.mark.parametrize("name", ALL)
def test_env_honoured(monkeypatch, name):
    raw, canonical = GOOD[name]
    monkeypatch.setenv(KNOBS[name].env, raw)
    assert env_value(name) == canonical


@pytest.mark.parametrize("name", ALL)
def test_unset_or_blank_env_means_default(monkeypatch, capsys, name):
    knob = KNOBS[name]
    monkeypatch.delenv(knob.env, raising=False)
    assert env_value(name) == knob.default
    for blank in ("", "  "):
        monkeypatch.setenv(knob.env, blank)
        assert env_value(name) == knob.default
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("name,raw", BAD_CASES)
def test_malformed_env_warns_once_and_falls_back(monkeypatch, capsys, name, raw):
    knob = KNOBS[name]
    monkeypatch.setenv(knob.env, raw)
    assert env_value(name) == knob.default
    assert env_value(name) == knob.default
    err = capsys.readouterr().err
    assert err.count("\n") == 1, err
    assert f"malformed {knob.env}={raw!r}" in err


@pytest.mark.parametrize("name,raw", FIELD_BAD_CASES)
def test_invalid_field_value_raises(name, raw):
    with pytest.raises(ConfigurationError):
        Deployment(**BASE, **{KNOBS[name].field: raw})


@pytest.mark.parametrize("name", [k.name for k in FIELD_KNOBS])
def test_field_values_are_canonicalized(name):
    raw, canonical = GOOD[name]
    assert getattr(Deployment(**BASE, **{name: raw}), name) == canonical


@pytest.mark.parametrize("name", [k.name for k in FIELD_KNOBS])
def test_precedence_arg_over_field_over_env_over_default(monkeypatch, name):
    knob = KNOBS[name]
    env, fld, arg = LAYERS[name]
    plain = Deployment(**BASE)
    fielded = Deployment(**BASE, **{name: fld})
    monkeypatch.delenv(knob.env, raising=False)
    assert getattr(resolve(plain), name) == knob.default
    monkeypatch.setenv(knob.env, str(env))
    assert getattr(resolve(plain), name) == env
    assert getattr(resolve(fielded), name) == fld
    assert getattr(resolve(fielded, **{name: arg}), name) == arg
    # idempotent: a resolved deployment resolves to itself
    once = resolve(plain)
    assert resolve(once) is once


def test_bitflip_argument_overrides_env_scenario(monkeypatch):
    monkeypatch.setenv("REPRO_SCENARIO", "msgcorrupt")
    assert resolve(Deployment(**BASE), scenario="bitflip").scenario is None


@pytest.mark.parametrize("env,raw", [
    ("REPRO_SCENARIO", "bogus"), ("REPRO_LANES", "x"), ("REPRO_JOBS", "zz"),
])
def test_env_warning_is_once_per_process_not_per_campaign(
    monkeypatch, capsys, tmp_cache, env, raw
):
    monkeypatch.setenv(env, raw)
    app = WarnApp()
    for seed in (1, 2):
        cached_campaign(app, Deployment(nprocs=1, trials=2, seed=seed))
    err = capsys.readouterr().err
    assert err.count(f"malformed {env}") == 1, err


# ----------------------------------------------------------------------
# CLI relay
# ----------------------------------------------------------------------
class _Stub:
    """Stands in for an experiment module; records the relayed env."""

    def __init__(self, env: str):
        self.env = env
        self.seen = None

    def run(self, trials=None, seed=0, quiet=False):
        self.seen = os.environ.get(self.env)


@pytest.mark.parametrize("name", [k.name for k in FLAG_KNOBS])
def test_cli_flag_relays(monkeypatch, name):
    knob = KNOBS[name]
    raw, canonical = GOOD[name]
    # setenv registers an undo, so the CLI's env write never leaks
    monkeypatch.setenv(knob.env, "")
    stub = _Stub(knob.env)
    monkeypatch.setattr(cli.importlib, "import_module", lambda _: stub)
    flag = [knob.flag] if isinstance(knob.default, bool) else [knob.flag, raw]
    assert cli.main(["table1", "-q", *flag]) == 0
    assert knob.parse(stub.seen, knob.env) == canonical


@pytest.mark.parametrize(
    "name,raw",
    [(k.name, raw) for k in FLAG_KNOBS if not isinstance(k.default, bool)
     for raw in BAD[k.name]],
)
def test_cli_rejects_bad_flag(monkeypatch, name, raw):
    monkeypatch.setenv(KNOBS[name].env, "")
    monkeypatch.setattr(cli.importlib, "import_module", lambda _: _Stub(""))
    with pytest.raises(SystemExit) as exc:
        cli.main(["table1", KNOBS[name].flag, raw])
    assert exc.value.code == 2
    assert os.environ[KNOBS[name].env] == ""  # nothing relayed


def test_cli_bitflip_overrides_inherited_env(monkeypatch):
    monkeypatch.setenv("REPRO_SCENARIO", "msgcorrupt")
    monkeypatch.setattr(cli.importlib, "import_module", lambda _: _Stub(""))
    assert cli.main(["table1", "-q", "--scenario", "bitflip"]) == 0
    assert resolve(Deployment(**BASE)).scenario is None


# ----------------------------------------------------------------------
# deployment_key
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", [k.name for k in FIELD_KNOBS])
def test_deployment_key_holds_exactly_the_keyed_rows(name):
    knob = KNOBS[name]
    plain = deployment_key(Deployment(**BASE))
    keyed = deployment_key(Deployment(**BASE, **{name: GOOD[name][0]}))
    if knob.key_tag is None:
        assert keyed == plain
    else:
        assert keyed == f"{plain},{knob.key_tag}={GOOD[name][1]}"


@pytest.mark.parametrize("extra,key", [
    ({}, "p=4,t=10,e=1,r=None,tr=None,s=1"),
    ({"ci_halfwidth": 0.05}, "p=4,t=10,e=1,r=None,tr=None,s=1,ci=0.05"),
    ({"scenario": "rankkill:rank=1"},
     "p=4,t=10,e=1,r=None,tr=None,s=1,sc=rankkill:rank=1"),
    ({"bits_per_error": 2}, "p=4,t=10,e=1,r=None,tr=None,s=1,b=2"),
    ({"max_steps": 500}, "p=4,t=10,e=1,r=None,tr=None,s=1,ms=500"),
])
def test_deployment_key_strings_are_pinned(extra, key):
    """Cache files, checkpoint directories and trace ids hash these."""
    assert deployment_key(Deployment(**BASE, **extra)) == key
    assert deployment_key(resolve(Deployment(**BASE, **extra))) == key


class WarnApp:
    """A tiny one-rank app: cheap campaigns for the warn-once check."""

    name = "knobwarn"

    def program(self, rank, size, comm, fp):
        x = fp.asarray(np.linspace(1.0, 2.0, 8))
        total = yield comm.allreduce(fp.dot(x, x), op="sum")
        return {"total": total.value}

    def verify(self, output, reference):
        return bool(np.isclose(output["total"], reference["total"]))

    def cache_key(self):
        return "knobwarn"

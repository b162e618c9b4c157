"""Pluggable fault-scenario families (see ``docs/scenarios.md``).

A scenario *spec* is a string — ``name`` or ``name:k=v,...`` — naming a
registered :class:`~repro.fi.scenarios.base.FaultModel` family plus its
parameters, e.g. ``bitflip``, ``rankkill:rank=0``, ``msgcorrupt:bit=63``.
Specs arrive from three places with fixed precedence (call argument >
``Deployment.scenario`` > ``$REPRO_SCENARIO`` > bit flips) and are
normalized by :func:`canonical_scenario` before cache keys or
checkpoint identities are derived; the parameterless default family
canonicalizes to ``None`` so pre-scenario cache entries and checkpoint
directories keep their identities.

Registered families:

* ``bitflip`` — transient bit flips in dynamic floating-point
  instructions (the paper's model; the default; lane-batchable);
* ``rankkill`` — fail-stop one rank mid-execution (``rank=R`` pins the
  victim);
* ``msgcorrupt`` — flip a bit in one message payload in transit
  (``bit=B`` pins the bit position).
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.fi.scenarios.base import (
    FaultFreeRun,
    FaultModel,
    ScenarioPlan,
    execution_dynamics,
    fault_free_run,
)
from repro.fi.scenarios.bitflip import BitFlipModel
from repro.fi.scenarios.msgcorrupt import MessageCorruptionModel
from repro.fi.scenarios.rankkill import RankKillModel

__all__ = [
    "SCENARIOS",
    "FaultModel",
    "ScenarioPlan",
    "FaultFreeRun",
    "BitFlipModel",
    "RankKillModel",
    "MessageCorruptionModel",
    "parse_scenario",
    "canonical_scenario",
    "resolve_model",
    "execution_dynamics",
    "fault_free_run",
]

#: registered scenario families, by spec name
SCENARIOS: dict[str, type[FaultModel]] = {
    BitFlipModel.name: BitFlipModel,
    RankKillModel.name: RankKillModel,
    MessageCorruptionModel.name: MessageCorruptionModel,
}


def parse_scenario(spec: str) -> FaultModel:
    """Parse a ``name[:k=v,...]`` spec into a validated model instance."""
    name, _, tail = spec.partition(":")
    name = name.strip().lower()
    cls = SCENARIOS.get(name)
    if cls is None:
        raise ConfigurationError(
            f"unknown scenario {name!r}; available: {', '.join(sorted(SCENARIOS))}"
        )
    params: dict[str, str] = {}
    for item in tail.split(",") if tail else ():
        key, sep, value = item.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise ConfigurationError(
                f"malformed scenario parameter {item!r} in {spec!r} "
                f"(expected key=value)"
            )
        params[key] = value
    return cls(params)


def canonical_scenario(spec: str | None) -> str | None:
    """Normalize a spec for identity derivation (keys, checkpoints).

    Parameters are validated and sorted; the parameterless default
    family (``bitflip``) canonicalizes to ``None`` so deployments that
    never mention scenarios keep their pre-scenario cache and
    checkpoint identities.
    """
    if spec is None or not spec.strip():
        return None
    canonical = parse_scenario(spec).spec()
    return None if canonical == BitFlipModel.name else canonical


#: spec -> model instance; resolve_model sits on the per-trial hot path
_MODELS: dict[str | None, FaultModel] = {}


def resolve_model(spec: str | None) -> FaultModel:
    """Memoized spec → model instance (``None`` = the default bit flips)."""
    model = _MODELS.get(spec)
    if model is None:
        model = BitFlipModel() if spec is None else parse_scenario(spec)
        _MODELS[spec] = model
    return model

"""Every campaign knob, declared once (see the table in docs/engine.md).

A *knob* is read, in order of precedence, from a
:func:`~repro.fi.campaign.run_campaign` argument, a
:class:`~repro.fi.campaign.Deployment` field, a ``REPRO_*`` environment
variable, and a built-in default.  :data:`KNOBS` has one row per knob:
:func:`resolve` applies the precedence to the rows with a field,
``Deployment`` validates its fields through the rows,
``deployment_key`` appends the keyed rows, and the experiments CLI
declares and relays the flag rows.  :func:`env_value` and
:func:`is_set` are the only readers of knob variables; path settings
(``REPRO_CACHE_DIR``, ...) are read where they are used.

A leaf of the import graph: the error type and the scenario parser are
imported when first needed.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, replace
from math import inf
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:
    from repro.fi.campaign import Deployment

__all__ = [
    "Knob", "KNOBS", "FIELD_KNOBS", "KEYED_KNOBS", "FLAG_KNOBS",
    "env_value", "is_set", "resolve",
]


def _invalid(message: str) -> Exception:
    from repro.errors import ConfigurationError

    return ConfigurationError(message)


# ----------------------------------------------------------------------
# parsers: (value, name) -> canonical value.  ``value`` is a raw string
# (environment, CLI) or a typed value (field, argument); ``name`` is how
# the caller spelled the knob, for the error message.
# ----------------------------------------------------------------------
def _positive_int(value: Any, name: str) -> int:
    try:
        number = int(value) if isinstance(value, str) else value
    except ValueError:
        number = None
    if not isinstance(number, int) or isinstance(number, bool) or number < 1:
        raise _invalid(f"{name} must be a positive integer, got {value!r}")
    return number


def _float_in(low: float, high: float) -> Callable[[Any, str], float]:
    """Parser of a float in the open interval ``(low, high)``."""

    def parse(value: Any, name: str) -> float:
        try:
            number = float(value)
        except (TypeError, ValueError):
            number = float("nan")
        if isinstance(value, bool) or not low < number < high:
            raise _invalid(f"{name} must be in ({low:g}, {high:g}), got {value!r}")
        return number

    return parse


def _port(value: Any, name: str) -> int:
    try:
        number = int(value)
    except (TypeError, ValueError):
        raise _invalid(f"{name} must be an integer port, got {value!r}") from None
    if not 0 <= number <= 65535:
        raise _invalid(f"{name} port must be in [0, 65535], got {number}")
    return number


def _boolean(value: Any, name: str) -> bool:
    text = str(value).strip().lower()
    if text in ("1", "true", "yes", "on"):
        return True
    if text in ("0", "false", "no", "off"):
        return False
    raise _invalid(f"{name} must be 1/0, true/false, yes/no or on/off, got {value!r}")


def _scenario(value: Any, name: str) -> str | None:
    from repro.fi.scenarios import canonical_scenario

    return canonical_scenario(value)


# ----------------------------------------------------------------------
# the table
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Knob:
    """One row of the knob table."""

    name: str
    env: str
    #: ``(value, name) -> canonical value``; raises ConfigurationError
    parse: Callable[[Any, str], Any]
    default: Any = None
    #: the ``Deployment`` field the knob lives in, if any
    field: str | None = None
    #: the experiments CLI flag, if any (relayed through ``env``)
    flag: str | None = None
    metavar: str | None = None
    help: str | None = None
    #: ``deployment_key`` tag: set for knobs that change what the trials
    #: execute, so they must never share a cache entry or checkpoint
    key_tag: str | None = None


KNOBS: dict[str, Knob] = {knob.name: knob for knob in (
    Knob(
        "jobs", "REPRO_JOBS", _positive_int, 1, field="jobs",
        flag="--jobs", metavar="N",
        help="worker processes per campaign (default: $REPRO_JOBS or 1). "
             "Results are bit-identical for any N; see docs/performance.md",
    ),
    Knob(
        "lanes", "REPRO_LANES", _positive_int, 32, field="lanes",
        flag="--lanes", metavar="N",
        help="fault-injection trials batched per lane-vectorized pass "
             "through the application, bit-flip campaigns only (default: "
             "$REPRO_LANES or 32; 1 turns batching off). Once a pass sends "
             "most of its trials back to run alone, the rest of that "
             "process's passes run one trial at a time. Results are "
             "bit-identical for any "
             "N; see docs/performance.md",
    ),
    Knob(
        "checkpoint_every", "REPRO_CHECKPOINT_EVERY", _positive_int,
        field="checkpoint_every", flag="--checkpoint-every", metavar="N",
        help="persist campaign progress every N trials; an interrupted run "
             "can then be resumed with --resume (see docs/engine.md)",
    ),
    Knob(
        "resume", "REPRO_RESUME", _boolean, False, flag="--resume",
        help="resume interrupted campaigns from their checkpoints, "
             "re-running only the missing trials",
    ),
    Knob(
        "ci_halfwidth", "REPRO_CI_HALFWIDTH", _float_in(0.0, 0.5),
        field="ci_halfwidth", flag="--ci-halfwidth", metavar="H",
        help="adaptive precision target in (0, 0.5): stop each deployment "
             "once every outcome rate's 95%% Wilson half-width is <= H, "
             "with --trials as the cap (e.g. 0.05 for ±5 pp; see "
             "docs/adaptive.md). Default: $REPRO_CI_HALFWIDTH or fixed-N",
        key_tag="ci",
    ),
    Knob(
        "scenario", "REPRO_SCENARIO", _scenario, field="scenario",
        flag="--scenario", metavar="NAME[:k=v,...]",
        help="fault-scenario family injected per trial: bitflip (default), "
             "rankkill (fail-stop a rank; rank=R pins the victim), or "
             "msgcorrupt (flip a bit in a message in transit; bit=B pins "
             "the bit). See docs/scenarios.md. Default: $REPRO_SCENARIO "
             "or bitflip",
        key_tag="sc",
    ),
    # environment-only settings read through the same reader
    Knob("trials", "REPRO_TRIALS", _positive_int, 300),
    Knob("cache", "REPRO_CACHE", _boolean, True),
    Knob("obs_port", "REPRO_OBS_PORT", _port),
    Knob("dist_chunk_timeout", "REPRO_DIST_CHUNK_TIMEOUT", _float_in(0.0, inf), 300.0),
    Knob("dist_worker_timeout", "REPRO_DIST_WORKER_TIMEOUT", _float_in(0.0, inf), 120.0),
)}

#: rows materialized into ``Deployment`` fields by :func:`resolve`
FIELD_KNOBS = tuple(k for k in KNOBS.values() if k.field is not None)
#: rows that enter ``deployment_key``, in key order
KEYED_KNOBS = tuple(k for k in KNOBS.values() if k.key_tag is not None)
#: rows with an experiments CLI flag
FLAG_KNOBS = tuple(k for k in KNOBS.values() if k.flag is not None)


# ----------------------------------------------------------------------
# resolution
# ----------------------------------------------------------------------
#: (variable, raw value) -> parsed value (the default if it was bad)
_ENV_MEMO: dict[tuple[str, str], Any] = {}


def env_value(name: str) -> Any:
    """The knob's environment value, else its default.

    Each distinct raw value is parsed once per process; a bad one warns
    on stderr that single time and yields the default, so a typo never
    aborts an otherwise valid run.
    """
    knob = KNOBS[name]
    raw = os.environ.get(knob.env, "")
    if not raw.strip():
        return knob.default
    memo = (knob.env, raw)
    if memo not in _ENV_MEMO:
        from repro.errors import ConfigurationError

        try:
            _ENV_MEMO[memo] = knob.parse(raw, knob.env)
        except ConfigurationError as exc:
            print(
                f"repro: warning: malformed {knob.env}={raw!r}: {exc}; "
                f"using the default, {knob.default!r}",
                file=sys.stderr,
            )
            _ENV_MEMO[memo] = knob.default
    return _ENV_MEMO[memo]


def is_set(name: str, deployment: "Deployment", arg: Any = None) -> bool:
    """Whether a field knob was given, not left to its built-in default.

    True when ``arg`` (a ``run_campaign`` argument) is not None, the
    deployment's field is set, or the knob's variable is non-blank.
    Call it before :func:`resolve`, which fills every field.
    """
    knob = KNOBS[name]
    return (
        arg is not None
        or getattr(deployment, knob.field) is not None
        or bool(os.environ.get(knob.env, "").strip())
    )


def resolve(deployment: "Deployment", **args: Any) -> "Deployment":
    """Materialize every field knob: arg > field > env > default.

    ``args`` are ``run_campaign``-style overrides keyed by knob name;
    None means "not given".  Idempotent: resolving a resolved deployment
    without arguments returns it unchanged, so every layer that needs the
    effective values (cache keys, checkpoint identities, the engine) may
    resolve without re-deciding anything.
    """
    changes = {}
    for knob in FIELD_KNOBS:
        arg = args.get(knob.name)
        current = getattr(deployment, knob.field)
        if arg is not None:
            value = knob.parse(arg, knob.name)
        elif current is not None:
            value = current  # canonicalized at construction
        else:
            value = env_value(knob.name)
        if value != current:
            changes[knob.field] = value
    return replace(deployment, **changes) if changes else deployment

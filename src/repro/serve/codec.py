"""RunSpec ⇄ JSON: what a run looks like on the wire.

A run travels as its dataclass fields, so :class:`~repro.eval.campaign.
RunSpec` is the one definition of the format: :func:`encode_run` writes
``dataclasses.asdict(run)`` and :func:`decode_run` builds each part from
the keys present, an absent key taking its field's default.

Only the *declarative* spec types travel — :class:`~repro.eval.common.
VictimConfig`, :class:`~repro.eval.campaign.AttackSpec`,
:class:`~repro.eval.campaign.PathSpec`, :class:`~repro.faultsim.models.
FaultSpec` — because they are plain data whose canonical-JSON digest is
stable no matter who computes it.  Raw schedule/path objects and chaos
drills are refused: a run the server cannot digest identically to the
client would silently miss the cache forever, and chaos drills are
process-local fire drills, not workload.

The invariant the tests pin down: ``run_digest(decode(encode(run))) ==
run_digest(run)`` — encoding is lossless exactly where digests are
stable.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Iterable, Tuple

from ..errors import ReproError
from ..eval.campaign import AttackSpec, PathSpec, RunSpec
from ..eval.common import VictimConfig
from ..faultsim.models import FaultSpec
from .protocol import ServeError

__all__ = ["decode_run", "encode_run"]

#: The RunSpec fields a run travels as: all but the process-local drill.
_WIRE_FIELDS = tuple(f.name for f in dataclasses.fields(RunSpec)
                     if f.name != "chaos")


def _declarative(name: str, value: Any, kind: type) -> None:
    if not isinstance(value, kind):
        raise ServeError(
            f"only declarative {kind.__name__} {name}s can be submitted "
            f"(got {type(value).__name__}); raw objects do not digest "
            f"stably across processes")


def encode_run(run: RunSpec) -> dict:
    """One RunSpec as a JSON-safe dict (raises :class:`ServeError` for
    non-declarative or process-local pieces)."""
    if run.chaos is not None:
        raise ServeError("chaos drills are process-local and cannot be "
                         "submitted to a server")
    _declarative("attack", run.attack, AttackSpec)
    _declarative("path", run.path, PathSpec)
    if run.fault is not None:
        _declarative("fault", run.fault, FaultSpec)
    data = dataclasses.asdict(run)
    del data["chaos"]
    return data


def _pairs(items: Iterable, what: str) -> Tuple[Tuple[Any, Any], ...]:
    """A JSON list of two-element lists as a tuple of pairs."""
    pairs = tuple(tuple(item) for item in items)
    if any(len(pair) != 2 for pair in pairs):
        raise ValueError(f"{what} must be pairs, got {items!r}")
    return pairs


def _decode_attack(data: dict) -> AttackSpec:
    attack = AttackSpec(**data)
    if attack.windows is None:
        return attack
    return dataclasses.replace(
        attack, windows=_pairs(attack.windows, "attack windows"))


#: How each field whose JSON spelling is not its value is rebuilt.
_DECODERS = {
    "victim": lambda data: VictimConfig(**data),
    "attack": _decode_attack,
    "path": lambda data: PathSpec(**data),
    "fault": lambda data: None if data is None else FaultSpec(**data),
    "sim_overrides": lambda data: _pairs(data, "sim_overrides entries"),
}


def decode_run(data: dict) -> RunSpec:
    """The inverse of :func:`encode_run`, digest-preserving.  Any run
    that cannot be built is one ``malformed run submission`` error."""
    try:
        parts = {}
        for name in _WIRE_FIELDS:
            if name in data:
                decode = _DECODERS.get(name)
                parts[name] = decode(data[name]) if decode else data[name]
        return RunSpec(**parts)
    except (TypeError, ValueError, ReproError) as exc:
        raise ServeError(f"malformed run submission: {exc}") from None

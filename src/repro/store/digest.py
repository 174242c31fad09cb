"""The one canonical content digest every cache in the repo keys on.

Content addressing only works if every producer and consumer agrees on
the bytes being hashed.  This module is the single definition the result
store, the serving layer, the exhaustive engine and the torture corpus
share:

* :func:`jsonable` — fold any value (dataclasses, tuples, mappings,
  primitives) into plain JSON types, deterministically;
* :func:`canonical_json` — the one serialization (sorted keys, no
  whitespace) whose bytes are the hashing contract;
* :func:`content_digest` — sha256 over those bytes;
* :func:`run_digest` — a run's result-store key.

A :class:`~repro.eval.campaign.RunSpec` digests identically no matter
which process, campaign, or client computed it — which is what lets the
result store memoize at run granularity across campaign boundaries.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any

__all__ = [
    "canonical_json",
    "content_digest",
    "jsonable",
    "run_digest",
]


#: Marks a coerced spelling in canonical JSON.  NUL never appears in
#: normal data, and plain strings that do contain it are themselves
#: tagged — so a coerced key or repr fallback can never produce the
#: same canonical bytes as an untouched value.
_TAG = "\x00"


def _fold_key(key: Any) -> str:
    """A mapping key's canonical string spelling.

    Plain strings pass through untouched (the common case, and what
    keeps existing digests stable); any other key — and any string
    starting with the tag byte — becomes the tag plus its own canonical
    JSON, so ``{1: x}`` and ``{"1": x}`` digest differently and two
    distinct keys cannot collapse onto one spelling.
    """
    if isinstance(key, str) and not key.startswith(_TAG):
        return key
    return _TAG + canonical_json(key)


def jsonable(value: Any) -> Any:
    """Fold ``value`` into plain JSON types, deterministically.

    Dataclasses become dicts, tuples become lists; mapping keys and
    unknown types are folded to *tagged* strings (see :data:`_TAG`) so
    structurally different values never share canonical bytes.  Callers
    wanting stable digests should still stick to data — the declarative
    spec types are all dataclasses for exactly this reason.
    """
    if isinstance(value, str):
        return _TAG + "s" + value if value.startswith(_TAG) else value
    if isinstance(value, (int, float, bool)) or value is None:
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return jsonable(dataclasses.asdict(value))
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        folded = {_fold_key(k): jsonable(v) for k, v in value.items()}
        if len(folded) != len(value):
            raise ValueError(
                f"mapping keys collide under canonical folding: "
                f"{sorted(map(repr, value))}")
        return folded
    return f"{_TAG}r{type(value).__qualname__}:{value!r}"


#: Value types :func:`jsonable` passes through untouched.
_SCALARS = frozenset((int, float, bool, type(None)))


def _plain(value: Any) -> bool:
    """Whether :func:`jsonable` would leave ``value`` as it is, up to
    tuple-vs-list spelling: plain JSON types, string keys, and no string
    that folding tags."""
    if isinstance(value, str):
        return not value.startswith(_TAG)
    if isinstance(value, (int, float, bool)) or value is None:
        return True
    if dataclasses.is_dataclass(value):
        return False
    if isinstance(value, (list, tuple)):
        # Scalar arrays (memory images, register files) in one C pass.
        return set(map(type, value)) <= _SCALARS \
            or all(_plain(v) for v in value)
    if isinstance(value, dict):
        return all(isinstance(k, str) and not k.startswith(_TAG)
                   and _plain(v) for k, v in value.items())
    return False


def canonical_json(value: Any) -> str:
    """The canonical serialization: sorted keys, compact separators.

    Two structurally equal values — regardless of dict insertion order
    or tuple-vs-list spelling — produce byte-identical output.  A value
    already in plain JSON types is serialized as it is: folding it would
    only build a same-shaped copy (megabytes for a full fault map).
    """
    return json.dumps(value if _plain(value) else jsonable(value),
                      sort_keys=True, separators=(",", ":"))


def content_digest(value: Any) -> str:
    """sha256 hex digest of :func:`canonical_json` of ``value``."""
    return hashlib.sha256(canonical_json(value).encode()).hexdigest()


def run_digest(run: Any) -> str:
    """A :class:`~repro.eval.campaign.RunSpec`'s store key.

    Deliberately content-only: no campaign name, no grid index — so the
    same run submitted by different campaigns, clients, or processes
    lands on the same store entry.
    """
    return content_digest(run)

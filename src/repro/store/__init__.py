"""Content-addressed result store (:mod:`repro.store`).

Two layers:

* :mod:`repro.store.digest` — the canonical JSON content digest every
  cache in the repo keys on (the result store, the serving layer, the
  exhaustive engine, the torture corpus);
* :mod:`repro.store.store` — :class:`ResultStore`, one SQLite database
  per root that serves any run ever executed from cache across
  campaigns and processes.  It is the repo's only memo: campaign,
  exhaustive and serve fan-outs write each run as it finishes, so a
  rerun over the same store after a kill executes only what is missing.
  Importing this package does not import :mod:`sqlite3`; opening a
  store does.

``repro-gecko store ls/stats/gc`` operates on a store directly;
:mod:`repro.serve` puts one behind a long-running service.
"""

from __future__ import annotations

from .digest import (
    canonical_json,
    content_digest,
    jsonable,
    run_digest,
)
from .store import GCStats, ResultStore, StoreError, StoreStats

__all__ = [
    "GCStats",
    "ResultStore",
    "StoreError",
    "StoreStats",
    "canonical_json",
    "content_digest",
    "jsonable",
    "run_digest",
]

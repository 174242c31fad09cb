"""Content-addressed result store: one SQLite database per root.

Every simulated run this repo executes is content-addressable; this
module makes the address durable and shared.  A :class:`ResultStore`
holds one entry per :func:`~repro.store.digest.run_digest`, so any
campaign, client, or process that resolves a run to the same digest is
served the recorded result instead of re-simulating it — including a
rerun of a campaign that was killed mid-way, since runs are stored as
they finish.

A store root holds one SQLite database, ``root/results.sqlite`` (plus
its ``-wal`` and ``-shm`` files while it is open), with one ``entries``
table keyed by digest.  Values and meta are stored as canonical JSON
(sorted keys, compact separators), so a read decodes to the same
objects whichever process wrote the entry.  SQLite's write-ahead log
supplies the guarantees the store needs:

* each put is one committed transaction, so a put that has returned
  survives a process kill; ``put(..., fsync=True)`` also syncs the log
  before returning, so that entry survives power loss too;
* the threads sharing one instance, and any number of instances in
  other processes, read and write one root concurrently, and every
  query sees every commit made before it;
* :meth:`ResultStore.gc` deletes stale entries in one transaction while
  other instances keep the root open.

A non-empty directory without the database (such as a store written in
an older on-disk layout) is refused with :class:`StoreError` rather
than read as an empty store.
"""

from __future__ import annotations

import dataclasses
import json
import os
import threading
import time
from typing import Any, Iterator, List, Optional, Tuple

from ..errors import ReproError

__all__ = ["DATABASE", "GCStats", "ResultStore", "StoreError",
           "StoreStats"]

#: The database file inside a store root.
DATABASE = "results.sqlite"

_HEX = frozenset("0123456789abcdef")


class StoreError(ReproError):
    """A result-store root, database, or digest problem."""


@dataclasses.dataclass
class StoreStats:
    """One snapshot of store contents plus this instance's traffic.

    ``bytes`` is the size of the database file and its write-ahead log.
    """

    entries: int = 0
    bytes: int = 0
    hits: int = 0
    misses: int = 0
    puts: int = 0
    duplicate_puts: int = 0

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class GCStats:
    """What one :meth:`ResultStore.gc` pass did.

    ``bytes_reclaimed`` counts the JSON bytes of the dropped entries;
    later puts reuse that space, the database file does not shrink.
    """

    kept: int = 0
    dropped: int = 0
    bytes_reclaimed: int = 0
    dry_run: bool = False

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _dumps(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


class ResultStore:
    """A content-addressed, crash-safe, on-disk result store.

    One instance may be shared by threads; several instances, in one
    process or many, may open the same root.
    """

    def __init__(self, root: str) -> None:
        # Imported here: every ``repro.store.digest`` import loads this
        # module, and the many callers that never open a store should
        # not pay for sqlite3's import or its ~1.5 MiB.
        import sqlite3

        self.root = root
        self.path = os.path.join(root, DATABASE)
        if os.path.isdir(root) and not os.path.exists(self.path):
            foreign = sorted(name for name in os.listdir(root)
                             if not name.startswith(DATABASE))
            if foreign:
                raise StoreError(
                    f"{root} holds {foreign[0]!r} but no {DATABASE}: "
                    f"not a result store (stores written in an older "
                    f"on-disk layout are not read)")
        os.makedirs(root, exist_ok=True)
        self._lock = threading.RLock()
        self._traffic = StoreStats()
        try:
            # Autocommit: every statement outside an explicit BEGIN is
            # its own transaction.  Writers in other processes wait up
            # to ``timeout`` seconds for each other's commits.
            self._db = sqlite3.connect(self.path, timeout=60.0,
                                       isolation_level=None,
                                       check_same_thread=False)
            self._db.execute("PRAGMA journal_mode=WAL")
            # NORMAL: a commit reaches the OS before put returns (kill-
            # safe) but is synced to disk only when put asks for it.
            self._db.execute("PRAGMA synchronous=NORMAL")
            self._db.execute(
                "CREATE TABLE IF NOT EXISTS entries (digest TEXT PRIMARY "
                "KEY, value TEXT NOT NULL, meta TEXT NOT NULL, t REAL) "
                "WITHOUT ROWID")
        except sqlite3.DatabaseError as exc:
            raise StoreError(f"{self.path}: not a readable result store "
                             f"database ({exc})") from None

    # -- the API --------------------------------------------------------
    def contains(self, digest: str) -> bool:
        with self._lock:
            return self._db.execute(
                "SELECT 1 FROM entries WHERE digest = ?",
                (digest,)).fetchone() is not None

    def get(self, digest: str, default: Any = None) -> Optional[dict]:
        """The stored entry ``{"value", "meta"}`` for ``digest``, or
        ``default``."""
        with self._lock:
            row = self._db.execute(
                "SELECT value, meta FROM entries WHERE digest = ?",
                (digest,)).fetchone()
            if row is None:
                self._traffic.misses += 1
                return default
            self._traffic.hits += 1
        return {"value": json.loads(row[0]), "meta": json.loads(row[1])}

    def put(self, digest: str, value: Any,
            meta: Optional[dict] = None, fsync: bool = False) -> bool:
        """Store one entry; returns False when the digest is already
        stored (content addressing makes re-puts no-ops, and the first
        value stays).  ``meta["t"]`` defaults to the current time.

        ``fsync=True`` syncs the commit to disk before returning, so the
        entry survives power loss, not only a process kill.  The torture
        corpus puts its repro cases this way: a shrunk failure is far
        more expensive to rediscover than an fsync costs.
        """
        if not (isinstance(digest, str) and len(digest) == 64
                and _HEX.issuperset(digest)):
            raise StoreError(f"malformed digest {digest!r}: want 64 "
                             f"lowercase hex characters")
        meta = dict(meta or {})
        meta.setdefault("t", time.time())
        row = (digest, _dumps(value), _dumps(meta), meta["t"])
        with self._lock:
            if fsync:
                self._db.execute("PRAGMA synchronous=FULL")
            try:
                stored = self._db.execute(
                    "INSERT OR IGNORE INTO entries VALUES (?, ?, ?, ?)",
                    row).rowcount == 1
            finally:
                if fsync:
                    self._db.execute("PRAGMA synchronous=NORMAL")
            if stored:
                self._traffic.puts += 1
            else:
                self._traffic.duplicate_puts += 1
            return stored

    def stats(self) -> StoreStats:
        """Contents snapshot plus this instance's hit/miss traffic."""
        size = sum(os.path.getsize(path)
                   for path in (self.path, self.path + "-wal")
                   if os.path.exists(path))
        with self._lock:
            return dataclasses.replace(self._traffic, entries=len(self),
                                       bytes=size)

    def gc(self, max_age_s: Optional[float] = None,
           dry_run: bool = False) -> GCStats:
        """Delete the entries whose ``meta["t"]`` is more than
        ``max_age_s`` seconds old, in one transaction (``None`` keeps
        every entry).  Other instances may keep the root open and
        write meanwhile.  ``dry_run`` only counts what would go.
        """
        cutoff = float("-inf") if max_age_s is None \
            else time.time() - max_age_s
        with self._lock, self._db:
            self._db.execute("BEGIN" if dry_run else "BEGIN IMMEDIATE")
            sizes = self._db.execute(
                "SELECT LENGTH(value) + LENGTH(meta) FROM entries "
                "WHERE t < ?", (cutoff,)).fetchall()
            total = self._db.execute(
                "SELECT COUNT(*) FROM entries").fetchone()[0]
            if not dry_run:
                self._db.execute("DELETE FROM entries WHERE t < ?",
                                 (cutoff,))
        return GCStats(kept=total - len(sizes), dropped=len(sizes),
                       bytes_reclaimed=sum(size for size, in sizes),
                       dry_run=dry_run)

    # -- iteration ------------------------------------------------------
    def digests(self) -> List[str]:
        with self._lock:
            return [digest for digest, in self._db.execute(
                "SELECT digest FROM entries ORDER BY digest")]

    def entries(self) -> Iterator[Tuple[str, dict]]:
        """Yield ``(digest, {"value", "meta"})`` in digest order."""
        for digest in self.digests():
            entry = self.get(digest)
            if entry is not None:
                yield digest, entry

    def __len__(self) -> int:
        with self._lock:
            return self._db.execute(
                "SELECT COUNT(*) FROM entries").fetchone()[0]

    def __contains__(self, digest: str) -> bool:
        return self.contains(digest)

    def close(self) -> None:
        with self._lock:
            self._db.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

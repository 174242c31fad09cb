"""Content-addressed result store: sharded JSONL segments on disk.

Every simulated run this repo executes is content-addressable; this
module makes the address durable and shared.  A :class:`ResultStore`
holds one entry per :func:`~repro.store.digest.run_digest`, so any
campaign, client, or process that resolves a run to the same digest is
served the recorded result instead of re-simulating it — including a
rerun of a campaign that was killed mid-way, since runs are stored as
they finish.

On-disk layout — sharded by digest prefix so no directory grows
unbounded and concurrent writers never contend on one file::

    root/
      .writers.lock                  # flock: shared per live writer,
                                     # exclusive during gc()
      buckets/
        <digest[:2]>/
          seg-<writer-id>.jsonl      # one append stream per writer
          seg-<writer-id>-gc.jsonl   # compacted replacement after gc()

Each line is one JSON entry ``{"digest", "value", "meta"}``.  Writes are
append-plus-flush; a crash can tear at most the trailing line of one
segment, and :meth:`ResultStore._scan_segment` recovers by truncating
the torn tail (own segments) or skipping it (segments another writer may
still be appending to).  The in-memory index maps digests to
``(segment, offset, length)`` so ``get`` is one seek+read — warm-store
serving runs at ≥10⁴ results/sec (``benchmarks/
bench_store_throughput.py``) without holding values in memory.

Concurrency model: one *writer id* (default: the pid) owns each segment
file, so parallel writer processes never interleave bytes; readers pick
up other writers' appends via :meth:`refresh`.  Every instance that has
appended holds a *shared* ``flock`` on ``root/.writers.lock`` until
:meth:`close`; ``gc()`` takes the *exclusive* side before touching any
segment, so it can never unlink a file a live writer is still appending
to — it raises :class:`StoreError` instead when other writers hold the
store open.  Concurrent readers stay safe throughout: gc compacts into
fresh segments and atomically replaces the old ones, and readers holding
old file handles keep reading the unlinked segments (POSIX semantics)
until their next :meth:`refresh`.
"""

from __future__ import annotations

import dataclasses
import json
import os
import threading
import time
import warnings
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

try:
    import fcntl
except ImportError:                       # pragma: no cover - non-POSIX
    fcntl = None  # type: ignore[assignment]

from ..errors import ReproError

__all__ = ["GCStats", "ResultStore", "StoreError", "StoreStats"]


class StoreError(ReproError):
    """A result-store layout, entry, or configuration problem."""


#: Open read handles kept per store (LRU-evicted); bounds fds, not data.
_READ_HANDLE_CAP = 64


@dataclasses.dataclass
class StoreStats:
    """One snapshot of store contents plus this instance's traffic."""

    entries: int = 0
    buckets: int = 0
    segments: int = 0
    bytes: int = 0
    hits: int = 0
    misses: int = 0
    puts: int = 0
    duplicate_puts: int = 0
    torn_recovered: int = 0
    corrupt_skipped: int = 0

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class GCStats:
    """What one :meth:`ResultStore.gc` pass did."""

    kept: int = 0
    dropped: int = 0
    duplicates_dropped: int = 0
    segments_compacted: int = 0
    bytes_reclaimed: int = 0
    dry_run: bool = False

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


class ResultStore:
    """A content-addressed, crash-safe, sharded on-disk result store.

    ``prefix_len`` controls the bucket fan-out (2 hex chars → 256
    buckets).  ``writer_id`` names this instance's append segments; it
    defaults to the pid, which is what makes parallel writer processes
    safe on one store.  ``fsync=True`` trades put throughput for
    power-loss durability (flush-only survives process crashes, which is
    the failure mode campaigns actually see).
    """

    def __init__(self, root: str, prefix_len: int = 2,
                 writer_id: Optional[str] = None,
                 fsync: bool = False) -> None:
        if not 1 <= prefix_len <= 8:
            raise StoreError(f"prefix_len must be in [1, 8], "
                             f"got {prefix_len}")
        self.root = root
        self.prefix_len = prefix_len
        self.writer_id = writer_id if writer_id is not None \
            else f"{os.getpid():x}"
        self.fsync = fsync
        self._lock = threading.RLock()
        #: digest -> (segment path, byte offset, byte length)
        self._index: Dict[str, Tuple[str, int, int]] = {}
        #: segment path -> bytes scanned so far (refresh resumes here)
        self._scanned: Dict[str, int] = {}
        self._write_handles: Dict[str, Any] = {}   # bucket -> own segment
        self._read_handles: Dict[str, Any] = {}    # path -> handle (LRU)
        self._lock_handle: Optional[Any] = None    # root/.writers.lock
        self._holds_writer_lock = False
        self._traffic = StoreStats()
        os.makedirs(self._buckets_dir(), exist_ok=True)
        self.refresh(repair=True)

    # -- paths ----------------------------------------------------------
    def _buckets_dir(self) -> str:
        return os.path.join(self.root, "buckets")

    def _writer_lock_path(self) -> str:
        return os.path.join(self.root, ".writers.lock")

    def _bucket_of(self, digest: str) -> str:
        if len(digest) <= self.prefix_len:
            raise StoreError(f"digest {digest!r} is shorter than the "
                             f"bucket prefix ({self.prefix_len})")
        return digest[:self.prefix_len]

    def _own_segment(self, bucket: str) -> str:
        return os.path.join(self._buckets_dir(), bucket,
                            f"seg-{self.writer_id}.jsonl")

    # -- loading and recovery -------------------------------------------
    def refresh(self, repair: bool = False) -> int:
        """Scan for entries appended since the last scan.

        Returns how many new entries were indexed.  ``repair=True``
        truncates a torn trailing line in place (done once at open, when
        no other writer can be mid-append on our own segments; plain
        refreshes skip the tail instead, because it may be another
        writer's in-flight append).
        """
        with self._lock:
            added = 0
            buckets_dir = self._buckets_dir()
            try:
                buckets = sorted(os.listdir(buckets_dir))
            except FileNotFoundError:
                return 0
            for bucket in buckets:
                bucket_dir = os.path.join(buckets_dir, bucket)
                if not os.path.isdir(bucket_dir):
                    continue
                for name in sorted(os.listdir(bucket_dir)):
                    if not name.endswith(".jsonl"):
                        continue
                    path = os.path.join(bucket_dir, name)
                    own = name == f"seg-{self.writer_id}.jsonl"
                    added += self._scan_segment(path,
                                                repair=repair and own)
            return added

    def _scan_segment(self, path: str, repair: bool) -> int:
        """Index entries past the scanned watermark; recover torn tails."""
        start = self._scanned.get(path, 0)
        added = 0
        try:
            handle = open(path, "rb")
        except OSError:
            return 0
        with handle:
            handle.seek(start)
            offset = start
            while True:
                line = handle.readline()
                if not line:
                    break
                length = len(line)
                if not line.endswith(b"\n"):
                    # Torn tail: a mid-write kill (or an in-flight append
                    # by another live writer).  Never index it; truncate
                    # only our own segments, and only at open time.
                    self._traffic.torn_recovered += 1
                    if repair:
                        with open(path, "r+b") as fix:
                            fix.truncate(offset)
                    break
                entry = self._parse_line(path, offset, line)
                offset += length
                self._scanned[path] = offset
                if entry is None:
                    continue
                self._index[entry["digest"]] = (path, offset - length,
                                                length)
                added += 1
        return added

    def _parse_line(self, path: str, offset: int,
                    line: bytes) -> Optional[dict]:
        try:
            entry = json.loads(line)
        except (json.JSONDecodeError, UnicodeDecodeError):
            entry = None
        if not isinstance(entry, dict) or "digest" not in entry:
            self._traffic.corrupt_skipped += 1
            warnings.warn(
                f"result store {path}: skipping corrupt entry at byte "
                f"offset {offset}", RuntimeWarning, stacklevel=4)
            return None
        return entry

    # -- the API --------------------------------------------------------
    def contains(self, digest: str) -> bool:
        with self._lock:
            return digest in self._index

    def get(self, digest: str, default: Any = None) -> Optional[dict]:
        """The stored entry ``{"value", "meta"}`` for ``digest``, or
        ``default`` — one seek+read against the segment file."""
        with self._lock:
            location = self._index.get(digest)
            if location is None:
                self._traffic.misses += 1
                return default
            path, offset, length = location
            try:
                handle = self._reader(path)
                handle.seek(offset)
                entry = json.loads(handle.read(length))
            except (OSError, json.JSONDecodeError, UnicodeDecodeError):
                entry = None
            if not isinstance(entry, dict) \
                    or entry.get("digest") != digest:
                # Segment rewritten or unlinked under us (a gc by
                # another instance): drop its caches, rescan, retry.
                self._drop_reader(path)
                self._scanned.pop(path, None)
                self._index = {d: loc for d, loc in self._index.items()
                               if loc[0] != path}
                self.refresh()
                return self.get(digest, default)
            self._traffic.hits += 1
            return {"value": entry.get("value"),
                    "meta": entry.get("meta") or {}}

    def put(self, digest: str, value: Any,
            meta: Optional[dict] = None,
            fsync: Optional[bool] = None) -> bool:
        """Append one entry; returns False when the digest is already
        stored (content addressing makes re-puts no-ops).

        ``fsync`` overrides the store-wide durability default for this
        one put: ``True`` forces the entry to disk before returning (a
        killed writer then loses at most a torn tail after it, never
        this entry), ``False`` skips the sync, ``None`` defers to the
        constructor's ``fsync`` setting.  The torture corpus puts its
        repro cases with ``fsync=True`` — a shrunk failure is far more
        expensive to rediscover than an fsync costs.
        """
        with self._lock:
            if digest in self._index:
                self._traffic.duplicate_puts += 1
                return False
            bucket = self._bucket_of(digest)
            entry = {"digest": digest, "value": value,
                     "meta": dict(meta or {})}
            entry["meta"].setdefault("t", time.time())
            line = json.dumps(entry, sort_keys=True,
                              separators=(",", ":")) + "\n"
            self._acquire_writer_lock()
            handle = self._writer(bucket)
            offset = handle.tell()
            data = line.encode()
            handle.write(data)
            handle.flush()
            if self.fsync if fsync is None else fsync:
                os.fsync(handle.fileno())
            path = self._own_segment(bucket)
            self._index[digest] = (path, offset, len(data))
            self._scanned[path] = offset + len(data)
            self._traffic.puts += 1
            return True

    def stats(self) -> StoreStats:
        """Contents snapshot plus this instance's hit/miss traffic."""
        with self._lock:
            segments = set(loc[0] for loc in self._index.values())
            segments |= set(self._scanned)
            stats = dataclasses.replace(
                self._traffic,
                entries=len(self._index),
                buckets=len({self._bucket_of(d) for d in self._index}),
                segments=len(segments),
                bytes=sum(os.path.getsize(path) for path in segments
                          if os.path.exists(path)),
            )
            return stats

    def gc(self, keep: Optional[Callable[[str, dict], bool]] = None,
           max_age_s: Optional[float] = None,
           dry_run: bool = False) -> GCStats:
        """Compact segments: drop duplicate digests, stale entries
        (``max_age_s`` against ``meta["t"]``), and entries the ``keep``
        predicate rejects.  Atomic per segment (write-new + rename + old
        unlinked); concurrent readers keep their old handles until they
        :meth:`refresh`.

        Requires exclusive store access: raises :class:`StoreError` when
        another live writer (a running server, an in-flight campaign)
        holds this root open, because unlinking a segment a writer is
        still appending to would silently lose its subsequent puts.
        ``dry_run`` only reads and never takes the lock.
        """
        now = time.time()

        def retain(digest: str, entry: dict) -> bool:
            meta = entry.get("meta") or {}
            if max_age_s is not None \
                    and now - meta.get("t", now) > max_age_s:
                return False
            return keep is None or keep(digest, meta)

        with self._lock:
            result = GCStats(dry_run=dry_run)
            if not dry_run:
                # Exclusive before the scan: a writer appending between
                # scan and unlink would lose those entries otherwise.
                self._acquire_gc_lock()
            try:
                before = self.stats().bytes
                survivors: Dict[str, Tuple[str, dict]] = {}
                segment_paths: List[str] = []
                for bucket in sorted(os.listdir(self._buckets_dir())):
                    bucket_dir = os.path.join(self._buckets_dir(),
                                              bucket)
                    if not os.path.isdir(bucket_dir):
                        continue
                    for name in sorted(os.listdir(bucket_dir)):
                        if name.endswith(".jsonl"):
                            segment_paths.append(
                                os.path.join(bucket_dir, name))
                for path in segment_paths:
                    for _, _, entry in self._iter_segment(path):
                        digest = entry["digest"]
                        if digest in survivors:
                            result.duplicates_dropped += 1
                        elif retain(digest, entry):
                            survivors[digest] = \
                                (self._bucket_of(digest), entry)
                            result.kept += 1
                        else:
                            result.dropped += 1
                if dry_run:
                    return result

                # Write survivors into fresh per-bucket segments, then
                # atomically replace: rename over the gc name, unlink
                # every pre-existing segment (including stale gc files
                # from earlier passes and other — quiesced — writers,
                # which would otherwise resurrect dropped entries on
                # the next refresh), drop caches, and reindex.
                self._close_handles()
                by_bucket: Dict[str, List[dict]] = {}
                for digest, (bucket, entry) in survivors.items():
                    by_bucket.setdefault(bucket, []).append(entry)
                fresh: set = set()
                for bucket, entries in sorted(by_bucket.items()):
                    bucket_dir = os.path.join(self._buckets_dir(),
                                              bucket)
                    final = os.path.join(
                        bucket_dir, f"seg-{self.writer_id}-gc.jsonl")
                    tmp = final + ".tmp"
                    with open(tmp, "w") as handle:
                        for entry in sorted(entries,
                                            key=lambda e: e["digest"]):
                            handle.write(json.dumps(
                                entry, sort_keys=True,
                                separators=(",", ":")) + "\n")
                        handle.flush()
                        os.fsync(handle.fileno())
                    os.replace(tmp, final)
                    fresh.add(final)
                    result.segments_compacted += 1
                for path in segment_paths:
                    if path not in fresh:
                        try:
                            os.unlink(path)
                        except FileNotFoundError:
                            pass
                self._index.clear()
                self._scanned.clear()
                self.refresh()
                result.bytes_reclaimed = max(
                    0, before - self.stats().bytes)
                return result
            finally:
                if not dry_run:
                    self._release_gc_lock()

    # -- iteration ------------------------------------------------------
    def digests(self) -> List[str]:
        with self._lock:
            return sorted(self._index)

    def entries(self) -> Iterator[Tuple[str, dict]]:
        """Yield ``(digest, {"value", "meta"})`` in digest order."""
        for digest in self.digests():
            entry = self.get(digest)
            if entry is not None:
                yield digest, entry

    def __len__(self) -> int:
        with self._lock:
            return len(self._index)

    def __contains__(self, digest: str) -> bool:
        return self.contains(digest)

    # -- the cross-process writer lock ----------------------------------
    def _acquire_writer_lock(self) -> None:
        """Hold the shared side of ``root/.writers.lock`` while this
        instance may have appended (first put acquires, :meth:`close`
        releases).  Blocks briefly while a gc holds the exclusive side,
        so a put can never land in a segment gc is about to unlink."""
        if fcntl is None or self._holds_writer_lock:
            return
        if self._lock_handle is None:
            self._lock_handle = open(self._writer_lock_path(), "a+b")
        fcntl.flock(self._lock_handle.fileno(), fcntl.LOCK_SH)
        self._holds_writer_lock = True

    def _acquire_gc_lock(self) -> None:
        """Take the exclusive side for the duration of a gc pass."""
        if fcntl is None:
            return
        if self._lock_handle is None:
            self._lock_handle = open(self._writer_lock_path(), "a+b")
        try:
            fcntl.flock(self._lock_handle.fileno(),
                        fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            raise StoreError(
                "gc needs exclusive store access, but another live "
                "writer holds this store open (a running server or "
                "in-flight campaign?); close or stop it, then retry"
            ) from None

    def _release_gc_lock(self) -> None:
        """Back to the pre-gc state: shared if this instance had
        written, unlocked otherwise."""
        if fcntl is None or self._lock_handle is None:
            return
        fcntl.flock(self._lock_handle.fileno(),
                    fcntl.LOCK_SH if self._holds_writer_lock
                    else fcntl.LOCK_UN)

    # -- handles --------------------------------------------------------
    def _writer(self, bucket: str):
        handle = self._write_handles.get(bucket)
        if handle is None:
            path = self._own_segment(bucket)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            handle = open(path, "ab")
            self._write_handles[bucket] = handle
        return handle

    def _reader(self, path: str):
        handle = self._read_handles.pop(path, None)
        if handle is None:
            handle = open(path, "rb")
            while len(self._read_handles) >= _READ_HANDLE_CAP:
                stale_path = next(iter(self._read_handles))
                self._read_handles.pop(stale_path).close()
        self._read_handles[path] = handle   # most-recently-used last
        return handle

    def _drop_reader(self, path: str) -> None:
        handle = self._read_handles.pop(path, None)
        if handle is not None:
            handle.close()

    def _iter_segment(self, path: str):
        """Yield ``(offset, length, entry)`` for every intact line."""
        try:
            handle = open(path, "rb")
        except OSError:
            return
        with handle:
            offset = 0
            while True:
                line = handle.readline()
                if not line or not line.endswith(b"\n"):
                    break
                try:
                    entry = json.loads(line)
                except (json.JSONDecodeError, UnicodeDecodeError):
                    entry = None
                if isinstance(entry, dict) and "digest" in entry:
                    yield offset, len(line), entry
                offset += len(line)

    def _close_handles(self) -> None:
        for handle in self._write_handles.values():
            handle.close()
        self._write_handles.clear()
        for handle in self._read_handles.values():
            handle.close()
        self._read_handles.clear()

    def close(self) -> None:
        with self._lock:
            self._close_handles()
            if self._lock_handle is not None:
                if fcntl is not None:
                    try:
                        fcntl.flock(self._lock_handle.fileno(),
                                    fcntl.LOCK_UN)
                    except OSError:
                        pass
                self._lock_handle.close()
                self._lock_handle = None
                self._holds_writer_lock = False

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

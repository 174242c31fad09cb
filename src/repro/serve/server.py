"""The always-on campaign server behind ``repro-gecko serve``.

Composition of pieces this repo already trusts, arranged in the classic
serving shape — cache, queue, scheduler, workers, event stream:

* **cache** — a :class:`~repro.store.ResultStore`: submissions whose
  :func:`~repro.store.digest.run_digest` is already stored are answered
  immediately, without touching a simulator;
* **queue** — a :class:`~repro.serve.scheduler.FairScheduler`: misses
  enter per-tenant FIFOs and are served round-robin, so no campaign
  starves another tenant's single run;
* **workers** — ``shards`` threads, each draining fair-share batches
  through a :class:`~repro.eval.resilient.ResilientExecutor` (retries,
  taxonomy, budget) with a shared compile cache, defaulting to the
  threaded execution backend (bit-identical metrics, ~10× throughput);
* **dedup** — a digest queued or in flight is never enqueued twice;
  concurrent submitters of the same run all wait on the one execution;
* **events** — every queue/hit/start/done/error transition is published
  on an :class:`~repro.obs.EventBus`; ``subscribe`` connections stream
  it live.

Results are durable the moment they are stored: restarting the server
over the same store directory keeps every previously-served run warm.
"""

from __future__ import annotations

import dataclasses
import socket
import threading
import time
from dataclasses import replace
from typing import Any, Dict, List, Optional, Tuple

from ..eval.campaign import RunSpec, _encode_result, _run_point
from ..eval.resilient import (
    ExecStats,
    ResilientExecutor,
    RetryPolicy,
    SIM_ERROR,
)
from ..obs import EventBus
from ..store import ResultStore, run_digest
from .codec import decode_run
from .protocol import (
    PROTOCOL_VERSION,
    ServeError,
    recv_message,
    send_message,
    server_socket,
)
from .scheduler import FairScheduler

__all__ = [
    "CampaignServer",
    "SERVE_DONE",
    "SERVE_ERROR",
    "SERVE_HIT",
    "SERVE_QUEUED",
    "SERVE_STARTED",
]

# Server-side event kinds (the obs-bus vocabulary of the serving layer).
SERVE_QUEUED = "serve.queued"
SERVE_HIT = "serve.hit"
SERVE_STARTED = "serve.started"
SERVE_DONE = "serve.done"
SERVE_ERROR = "serve.error"

#: How long shards block on the scheduler before re-checking shutdown.
_TAKE_TIMEOUT_S = 0.1


@dataclasses.dataclass
class ServerStats:
    """Aggregate serving counters (over this process's lifetime)."""

    submissions: int = 0
    hits_served: int = 0
    executed: int = 0
    errors: int = 0
    started_at: float = 0.0


class CampaignServer:
    """Accepts line-JSON clients, serves warm-store hits immediately,
    and routes misses through fair-share queues to worker shards.

    ``backend`` overrides the *execution* backend of every miss (default
    ``"threaded"`` — bit-identical metrics at interpreter semantics);
    the store key is always the digest of the run *as submitted*, so
    clients find their results regardless of how the server ran them.
    ``backend=None`` executes runs exactly as submitted.
    """

    def __init__(self, store: ResultStore, address: str,
                 shards: int = 2, batch: int = 8,
                 policy: Optional[RetryPolicy] = None,
                 backend: Optional[str] = "threaded",
                 workers_per_shard: int = 1) -> None:
        self.store = store
        self.requested_address = address
        self.shards = max(1, int(shards))
        self.batch = max(1, int(batch))
        self.policy = policy if policy is not None \
            else RetryPolicy(retries=1, backoff_s=0.01)
        self.backend = backend
        self.workers_per_shard = max(1, int(workers_per_shard))
        self.bus = EventBus(ring=4096, sample_ring=1)
        self.stats = ServerStats()
        self.scheduler = FairScheduler()
        self._compile_cache: Dict[Tuple, Any] = {}
        self._lock = threading.RLock()
        #: digests queued or executing; guards double-enqueue.
        self._inflight: set = set()
        #: digest -> waiter queues to notify on completion.
        self._waiters: Dict[str, List[Any]] = {}
        self._threads: List[threading.Thread] = []
        self._sock: Optional[socket.socket] = None
        self.address: Optional[str] = None
        self._stopping = threading.Event()

    # -- lifecycle ------------------------------------------------------
    def start(self) -> str:
        """Bind, spawn shard + accept threads, return the resolved
        address (the one clients should dial)."""
        if self._sock is not None:
            raise ServeError("server already started")
        self._sock, self.address = server_socket(self.requested_address)
        self._sock.settimeout(0.2)
        self.stats.started_at = time.time()
        for shard in range(self.shards):
            thread = threading.Thread(target=self._shard_loop,
                                      args=(shard,),
                                      name=f"serve-shard-{shard}",
                                      daemon=True)
            thread.start()
            self._threads.append(thread)
        accept = threading.Thread(target=self._accept_loop,
                                  name="serve-accept", daemon=True)
        accept.start()
        self._threads.append(accept)
        return self.address

    def stop(self) -> None:
        self._stopping.set()
        self.scheduler.close()
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
        for thread in self._threads:
            thread.join(timeout=2.0)
        self._threads.clear()

    def serve_forever(self) -> None:
        """Block until :meth:`stop` (or a ``shutdown`` op) is called."""
        while not self._stopping.is_set():
            self._stopping.wait(0.2)
        self.stop()

    def __enter__(self) -> "CampaignServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- accept + per-connection handling -------------------------------
    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                conn, _ = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            thread = threading.Thread(target=self._handle_connection,
                                      args=(conn,), daemon=True)
            thread.start()

    def _handle_connection(self, conn: socket.socket) -> None:
        conn.settimeout(None)
        reader = conn.makefile("r")
        try:
            while not self._stopping.is_set():
                try:
                    request = recv_message(reader)
                except ServeError as exc:
                    send_message(conn, {"ok": False, "error": str(exc)})
                    return
                if request is None:
                    return
                try:
                    if not self._handle_request(conn, request):
                        return
                except ServeError as exc:
                    send_message(conn, {"ok": False, "error": str(exc)})
                except BrokenPipeError:
                    return
        except (OSError, ValueError):
            pass     # client went away mid-message
        finally:
            reader.close()
            try:
                conn.close()
            except OSError:
                pass

    def _handle_request(self, conn, request: dict) -> bool:
        """Dispatch one op; returns False to end the connection."""
        op = request.get("op")
        if op == "ping":
            send_message(conn, {"ok": True, "pong": True,
                                "version": PROTOCOL_VERSION})
        elif op == "stats":
            send_message(conn, {
                "ok": True,
                "store": self.store.stats().to_dict(),
                "queue": {
                    "pending": self.scheduler.pending(),
                    "by_tenant": self.scheduler.pending_by_tenant(),
                    "submitted": self.scheduler.submitted,
                    "served": self.scheduler.served,
                },
                "server": dataclasses.asdict(self.stats),
            })
        elif op == "contains":
            send_message(conn, {
                "ok": True,
                "contains": self.store.contains(request.get("digest", "")),
            })
        elif op == "get":
            entry = self.store.get(request.get("digest", ""))
            if entry is not None:
                with self._lock:
                    self.stats.hits_served += 1
            send_message(conn, {"ok": True, "entry": entry})
        elif op == "put":
            digest = request.get("digest")
            if not digest:
                raise ServeError("put needs a digest")
            stored = self.store.put(digest, request.get("value"),
                                    meta=request.get("meta"))
            send_message(conn, {"ok": True, "stored": stored})
        elif op == "submit":
            self._handle_submit(conn, request)
        elif op == "subscribe":
            self._handle_subscribe(conn, request)
            return False
        elif op == "shutdown":
            send_message(conn, {"ok": True, "stopping": True})
            self._stopping.set()
            self.scheduler.close()
            return False
        else:
            raise ServeError(f"unknown op {op!r}")
        return True

    # -- submission -----------------------------------------------------
    def _handle_submit(self, conn, request: dict) -> None:
        runs = request.get("runs")
        if not isinstance(runs, list) or not runs:
            raise ServeError("submit needs a non-empty 'runs' list")
        tenant = str(request.get("tenant", "default"))
        wait = bool(request.get("wait", True))
        with self._lock:
            self.stats.submissions += 1

        waiter: Any = None
        #: digest -> submitted slot indexes still waiting on it.
        pending: Dict[str, List[int]] = {}
        hit_lines: List[dict] = []
        digests: List[str] = []
        import queue as queue_mod
        for slot, run_data in enumerate(runs):
            run = decode_run(run_data)
            digest = run_digest(run)
            digests.append(digest)
            with self._lock:
                entry = self.store.get(digest)
                if entry is not None:
                    self.stats.hits_served += 1
                    self._emit(SERVE_HIT, digest, tenant)
                    hit_lines.append({
                        "ok": True, "run": slot, "digest": digest,
                        "cached": True, "result": entry["value"],
                    })
                    continue
                if waiter is None:
                    waiter = queue_mod.Queue()
                slots = pending.setdefault(digest, [])
                slots.append(slot)
                if len(slots) == 1:
                    self._waiters.setdefault(digest, []).append(waiter)
                if digest not in self._inflight:
                    self._inflight.add(digest)
                    try:
                        self.scheduler.submit(tenant, (digest, run))
                    except RuntimeError:     # scheduler closed mid-stop
                        self._inflight.discard(digest)
                        raise ServeError("server is stopping") from None
                    self._emit(SERVE_QUEUED, digest, tenant)
        if not wait:
            send_message(conn, {"ok": True, "accepted": len(runs),
                                "hits": len(hit_lines),
                                "queued": len(pending),
                                "digests": digests})
            return
        # Header first, then warm-store hits immediately, then misses
        # stream in as the shards finish them.
        send_message(conn, {"ok": True, "accepted": len(runs),
                            "hits": len(hit_lines),
                            "queued": len(pending)})
        for line in hit_lines:
            send_message(conn, line)
        while pending:
            try:
                notice = waiter.get(timeout=_TAKE_TIMEOUT_S)
            except queue_mod.Empty:
                if self._stopping.is_set():
                    break
                continue
            slots = pending.pop(notice["digest"], [])
            for slot in slots:
                line = {"ok": "error" not in notice, "run": slot,
                        "digest": notice["digest"], "cached": False}
                line.update(notice)
                send_message(conn, line)
        # Shutdown with runs still pending: an explicit error line per
        # run beats leaving the client to its own socket timeout.
        aborted = 0
        for digest, slots in sorted(pending.items()):
            for slot in slots:
                aborted += 1
                send_message(conn, {
                    "ok": False, "run": slot, "digest": digest,
                    "cached": False,
                    "error": "server stopping before this run was "
                             "served",
                    "error_kind": SIM_ERROR})
        send_message(conn, {"ok": True, "done": True,
                            "served": len(runs) - aborted,
                            "aborted": aborted})

    # -- subscription ---------------------------------------------------
    def _handle_subscribe(self, conn, request: dict) -> None:
        import queue as queue_mod
        kinds = request.get("kinds")
        events: Any = queue_mod.Queue()

        def forward(event) -> None:
            events.put(event)

        self.bus.subscribe(forward,
                           kinds=kinds if kinds is not None else None)
        send_message(conn, {"ok": True, "subscribed": True})
        try:
            while not self._stopping.is_set():
                try:
                    event = events.get(timeout=0.2)
                except queue_mod.Empty:
                    continue
                send_message(conn, {"ok": True,
                                    "event": event.to_dict()})
        except (BrokenPipeError, OSError):
            pass    # client went away; detach below
        finally:
            self.bus.unsubscribe(forward)

    # -- worker shards --------------------------------------------------
    def _shard_loop(self, shard: int) -> None:
        while not self._stopping.is_set():
            items = self.scheduler.take(self.batch,
                                        timeout=_TAKE_TIMEOUT_S)
            if not items:
                continue
            try:
                self._execute_batch(shard, items)
            except Exception as exc:
                # A failed batch must cost its submitters an error
                # line, never the shard thread: digests stuck in
                # _inflight would hang their waiters and dedup every
                # future submission against a dead execution.
                for tenant, (digest, _run) in items:
                    if self._notify(digest, {
                            "digest": digest,
                            "error": f"shard failure: {exc}",
                            "error_kind": SIM_ERROR}):
                        with self._lock:
                            self.stats.errors += 1
                        self._emit(SERVE_ERROR, digest, tenant,
                                   extra=f"shard={shard} batch "
                                         f"failure: {exc}")

    def _execute_batch(self, shard: int,
                       items: List[Tuple[str, Tuple[str, RunSpec]]]
                       ) -> None:
        tasks: List[Tuple[int, RunSpec]] = []
        digest_of: Dict[int, str] = {}
        tenant_of: Dict[int, str] = {}
        for slot, (tenant, (digest, run)) in enumerate(items):
            executed = run if self.backend is None else replace(
                run, victim=run.victim.with_overrides(
                    backend=self.backend))
            tasks.append((slot, executed))
            digest_of[slot] = digest
            tenant_of[slot] = tenant
            self._emit(SERVE_STARTED, digest, tenant,
                       extra=f"shard={shard}")
        # Compile per run, not per batch: one unknown workload must cost
        # only its submitter an error line, never the whole shard.
        ready: List[Tuple[int, RunSpec]] = []
        for slot, run in tasks:
            try:
                with self._lock:
                    key = run.compile_key()
                    if key not in self._compile_cache:
                        self._compile_cache[key] = run.victim.compile()
            except Exception as exc:
                with self._lock:
                    self.stats.errors += 1
                self._emit(SERVE_ERROR, digest_of[slot],
                           tenant_of[slot], extra=str(exc))
                self._notify(digest_of[slot], {
                    "digest": digest_of[slot],
                    "error": f"compile failed: {exc}",
                    "error_kind": SIM_ERROR})
                continue
            ready.append((slot, run))
        if not ready:
            return
        executor = ResilientExecutor(
            task_fn=_run_point, workers=self.workers_per_shard,
            policy=self.policy, context=self._compile_cache,
            stats=ExecStats())
        for result in executor.run(ready):
            digest = digest_of[result.index]
            tenant = tenant_of[result.index]
            if result.ok and result.result is not None:
                value = _encode_result(result.result)
                notice = {"digest": digest, "result": value}
                with self._lock:
                    self.store.put(digest, value,
                                   meta={"tenant": tenant,
                                         "shard": shard,
                                         "elapsed_s": result.elapsed_s})
                    self.stats.executed += 1
                self._emit(SERVE_DONE, digest, tenant,
                           extra=f"shard={shard} "
                                 f"elapsed={result.elapsed_s:.3f}s")
            else:
                notice = {"digest": digest,
                          "error": result.error or "unknown failure",
                          "error_kind": result.error_kind}
                with self._lock:
                    self.stats.errors += 1
                self._emit(SERVE_ERROR, digest, tenant,
                           extra=str(result.error))
            self._notify(digest, notice)

    def _notify(self, digest: str, notice: dict) -> bool:
        """Wake every waiter on ``digest``; returns whether the digest
        was still in flight (False → someone already notified it)."""
        with self._lock:
            pending = digest in self._inflight
            self._inflight.discard(digest)
            waiters = self._waiters.pop(digest, [])
        for waiter in waiters:
            waiter.put(dict(notice))
        return pending

    def _emit(self, kind: str, digest: str, tenant: str,
              extra: str = "") -> None:
        detail = f"{digest[:12]} tenant={tenant}"
        if extra:
            detail += f" {extra}"
        self.bus.emit(time.time(), kind, detail)

"""The always-on campaign server behind ``repro-gecko serve``.

Composition of pieces this repo already trusts, arranged in the classic
serving shape — cache, queue, pool, event stream:

* **cache** — a :class:`~repro.store.ResultStore`: submissions whose
  :func:`~repro.store.digest.run_digest` is already stored are answered
  immediately, without touching a simulator.  ``submit`` is the only
  op that reaches it, and the dispatch threads its only writers;
* **queue** — a :class:`~repro.serve.scheduler.FairScheduler`: misses
  enter per-tenant FIFOs and are served round-robin, so no campaign
  starves another tenant's single run;
* **pool** — ``workers`` single-worker
  :class:`~repro.eval.resilient.ResilientExecutor` instances whose
  processes live from :meth:`CampaignServer.start` to
  :meth:`CampaignServer.stop`, each fed by its own dispatch thread: a
  free worker takes the next fair-share run at once, so a long run holds
  only its own worker.  Every miss runs in a worker (own compile cache)
  under the policy's watchdog, retries and taxonomy, on the threaded
  backend by default (bit-identical metrics, 13–20× the interpreter's
  cycle rate on kernels and ~7× on glucose); its
  dispatch thread stores the result and wakes its waiters;
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
import queue
import socket
import threading
import time
import traceback
from dataclasses import replace
from typing import Any, Dict, List, Optional

from ..eval.campaign import _run_point
from ..eval.resilient import (
    ResilienceError,
    ResilientExecutor,
    RetryPolicy,
    SIM_ERROR,
    TaskResult,
)
from ..obs import EventBus
from ..store import ResultStore, StoreError, run_digest
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

#: How long the dispatch thread and submitters block between shutdown checks.
_TAKE_TIMEOUT_S = 0.1


@dataclasses.dataclass
class ServerStats:
    """Aggregate serving counters (over this process's lifetime)."""

    submissions: int = 0
    hits_served: int = 0        # runs ``submit`` answered from the store
    executed: int = 0
    errors: int = 0
    started_at: float = 0.0


class CampaignServer:
    """Accepts line-JSON clients, serves warm-store hits immediately,
    and routes misses through fair-share queues to ``workers`` worker
    processes, each with its own dispatch thread.

    ``backend`` overrides the *execution* backend of every miss (default
    ``"threaded"`` — bit-identical metrics at interpreter semantics);
    the store key is always the digest of the run *as submitted*, so
    clients find their results regardless of how the server ran them.
    ``backend=None`` executes runs exactly as submitted.
    """

    def __init__(self, store: ResultStore, address: str,
                 workers: int = 1,
                 policy: Optional[RetryPolicy] = None,
                 backend: Optional[str] = "threaded") -> None:
        self.store = store
        self.requested_address = address
        self.backend = backend
        self.bus = EventBus(ring=4096, sample_ring=1)
        self.stats = ServerStats()
        self.scheduler = FairScheduler()
        policy = policy if policy is not None \
            else RetryPolicy(retries=1, backoff_s=0.01)
        #: Every miss runs on one of these single-worker executors, each
        #: worker with its own compile cache.  Workers fork from a fork
        #: server, not from this multi-threaded process, so a replacement
        #: inherits none of its locks or sockets.
        self.pools = [
            ResilientExecutor(task_fn=_run_point, policy=policy,
                              context={}, start_method="forkserver")
            for _ in range(max(1, int(workers)))]
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
        """Bind, start every worker before any thread, then one dispatch
        thread per worker and the accept thread; returns the resolved
        address (the one clients should dial).  Raises
        :class:`ServeError` if a worker dies before serving."""
        if self._sock is not None:
            raise ServeError("server already started")
        self._sock, self.address = server_socket(self.requested_address)
        self._sock.settimeout(0.2)
        self.stats.started_at = time.time()
        try:
            for pool in self.pools:
                pool.__enter__()
        except ResilienceError as exc:
            for pool in self.pools:
                pool.__exit__(None, None, None)
            self._sock.close()
            raise ServeError(
                f"{exc}: workers re-import the main module, so start the "
                f"server from a module file or the CLI, under an "
                f"'if __name__ == \"__main__\":' guard") from None
        targets = [(self._dispatch_loop, (pool,)) for pool in self.pools]
        for target, args in targets + [(self._accept_loop, ())]:
            thread = threading.Thread(target=target, args=args, daemon=True)
            thread.start()
            self._threads.append(thread)
        return self.address

    def stop(self) -> None:
        """Stop serving.  Closing the executors kills their workers,
        runs in flight included; each waiting submitter gets an error
        line per run not yet served."""
        self._stopping.set()
        self.scheduler.close()
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
        for pool in self.pools:
            pool.__exit__(None, None, None)
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
            threading.Thread(target=self._handle_connection, args=(conn,),
                             daemon=True).start()

    def _handle_connection(self, conn: socket.socket) -> None:
        conn.settimeout(None)
        reader = conn.makefile("r")
        try:
            while not self._stopping.is_set():
                try:
                    request = recv_message(reader)
                    if request is None \
                            or not self._handle_request(conn, request):
                        return
                except (ServeError, StoreError) as exc:
                    send_message(conn, {"ok": False, "error": str(exc)})
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
            counters = [dataclasses.asdict(pool.stats)
                        for pool in self.pools]
            send_message(conn, {
                "ok": True,
                "store": self.store.stats().to_dict(),
                "queue": {
                    "pending": self.scheduler.pending(),
                    "by_tenant": self.scheduler.pending_by_tenant(),
                    "submitted": self.scheduler.submitted,
                    "served": self.scheduler.served,
                },
                "pool": {"workers": len(self.pools),
                         **{name: sum(counter[name] for counter in counters)
                            for name in counters[0]}},
                "server": dataclasses.asdict(self.stats),
            })
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

        # Decode the whole submission first: a malformed run refuses it
        # before any of its runs is queued.
        decoded = [decode_run(run_data) for run_data in runs]
        digests = [run_digest(run) for run in decoded]
        waiter: Any = queue.Queue()
        #: digest -> submitted slot indexes still waiting on it.
        pending: Dict[str, List[int]] = {}
        hit_lines: List[dict] = []
        for slot, (run, digest) in enumerate(zip(decoded, digests)):
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
        header = {"ok": True, "accepted": len(runs),
                  "hits": len(hit_lines), "queued": len(pending)}
        if not wait:
            send_message(conn, {**header, "digests": digests})
            return
        # Header first, then warm-store hits immediately, then misses
        # stream in as the pool finishes them.
        send_message(conn, header)
        for line in hit_lines:
            send_message(conn, line)
        while pending:
            try:
                notice = waiter.get(timeout=_TAKE_TIMEOUT_S)
            except queue.Empty:
                if self._stopping.is_set():
                    break
                continue
            for slot in pending.pop(notice["digest"], []):
                send_message(conn, {"ok": "error" not in notice,
                                    "run": slot, "cached": False, **notice})
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
        events: Any = queue.Queue()
        forward = events.put
        self.bus.subscribe(forward, kinds=request.get("kinds"))
        send_message(conn, {"ok": True, "subscribed": True})
        try:
            while not self._stopping.is_set():
                try:
                    event = events.get(timeout=0.2)
                except queue.Empty:
                    continue
                send_message(conn, {"ok": True,
                                    "event": event.to_dict()})
        except OSError:
            pass    # client went away; detach below
        finally:
            self.bus.unsubscribe(forward)

    # -- the workers ------------------------------------------------------
    def _dispatch_loop(self, pool: ResilientExecutor) -> None:
        """Feed one worker: take the next fair-share run as soon as the
        worker is free, run it, then store it and wake its waiters."""
        while not self._stopping.is_set():
            taken = self.scheduler.take(timeout=_TAKE_TIMEOUT_S)
            if taken is None:
                continue
            tenant, (digest, run) = taken
            try:
                if self.backend is not None:
                    run = replace(run, victim=run.victim.with_overrides(
                        backend=self.backend))
                self._emit(SERVE_STARTED, digest, tenant)
                (result,) = pool.run([(0, run)])
                self._deliver(tenant, digest, result)
            except Exception as exc:
                if self._stopping.is_set():
                    return     # the waiting submitters answer themselves
                # A failed dispatch must cost its submitters an error
                # line, never the dispatch thread: a digest stuck in
                # _inflight would hang its waiters and dedup every future
                # submission against a dead execution.
                traceback.print_exc()
                self._fail(tenant, digest, f"dispatch failure: {exc}")

    def _deliver(self, tenant: str, digest: str,
                 result: TaskResult) -> None:
        """Store a finished run and wake its waiters."""
        if not result.ok:
            self._fail(tenant, digest, result.error, result.error_kind)
            return
        value = result.result.to_dict()
        with self._lock:
            self.store.put(digest, value, meta={
                "tenant": tenant, "elapsed_s": result.elapsed_s})
            self.stats.executed += 1
        self._emit(SERVE_DONE, digest, tenant,
                   extra=f"elapsed={result.elapsed_s:.3f}s")
        self._notify(digest, {"digest": digest, "result": value})

    def _fail(self, tenant: str, digest: str, error: str,
              kind: str = SIM_ERROR) -> None:
        """Answer ``digest``'s waiters with an error line, once."""
        if self._notify(digest, {"digest": digest, "error": error,
                                 "error_kind": kind}):
            with self._lock:
                self.stats.errors += 1
            self._emit(SERVE_ERROR, digest, tenant, extra=error)

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

"""Resilient campaign execution: timeouts, retries, crash recovery, resume.

The campaign engine's original pool path was a bare ``pool.map``: one
worker killed by the OS, one pathological grid point hanging in
wall-clock terms, or one transient exception lost the entire sweep.
This module replaces it with a dispatch loop over worker processes the
parent owns — each on its own pipe, holding at most one run — so it
always knows which run each worker holds, and degrades gracefully
instead of failing wholesale:

* a **watchdog** enforces a per-run wall-clock timeout: the hung run's
  worker alone is killed and replaced, every other in-flight run goes
  on undisturbed;
* **crash detection**: a worker process that exits while holding a run
  fails exactly that run, and is replaced;
* **bounded retries** with seeded, jittered exponential backoff
  (:meth:`RetryPolicy.delay_s`) re-dispatch failed runs; a run that
  eventually succeeds is tagged :data:`RETRIED_OK`;
* every terminal failure carries an **error taxonomy** kind —
  :data:`TIMEOUT`, :data:`WORKER_CRASH`, :data:`SIM_ERROR`,
  :data:`INVARIANT_VIOLATION`, :data:`BUDGET_EXCEEDED` — plus the
  traceback tail, instead of a bare exception name; a result that cannot
  be pickled back fails its own run as :data:`SIM_ERROR`;
* a **result sink** (``on_result``) receives each task's final result
  the moment it is known, so callers persist finished work as it lands:
  the campaign runner, the exhaustive mapper and the campaign server
  write every finished run to the content-addressed result store
  (:mod:`repro.store`), and a rerun over the same store after a kill
  executes only what is missing.

The executor is generic over the task function — the campaign engine
passes its grid-point worker, the tests pass chaos fixtures — and
:class:`ChaosSpec` provides the fault drills (raise / crash / hang on
cue) that keep the recovery paths honest.  Whatever every task shares
(a compile cache, a golden trace) travels once as the executor's
*context*: each task runs as ``task_fn(context, payload)``, pool workers
receive the context when they start — inherited under ``fork``, pickled
once per worker under ``spawn`` — and the serial path passes it
directly, so it is never pickled per task.

Without a ``timeout_s``, one worker or one task runs serially in the
calling process, with the same retries, budget, sink and taxonomy; a
set ``timeout_s`` always runs on worker processes, which it can kill.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import threading
import time
import traceback
from dataclasses import dataclass
from multiprocessing.connection import wait
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import InvariantViolation, ReproError


class ResilienceError(ReproError):
    """A resilient-execution configuration or chaos problem."""


# ----------------------------------------------------------------------
# Error taxonomy.
# ----------------------------------------------------------------------
#: The run exceeded the per-run wall-clock timeout and was killed.
TIMEOUT = "timeout"
#: The worker process executing the run died (signal, OOM, ``os._exit``).
WORKER_CRASH = "worker_crash"
#: The run itself raised (simulation error, bad spec, chaos ``raise``).
SIM_ERROR = "sim_error"
#: The run raised :class:`~repro.errors.InvariantViolation`: a torture
#: oracle failed.  Deterministic by construction, so retries are
#: *disabled* for this kind — re-running could only mask the finding.
INVARIANT_VIOLATION = "invariant_violation"
#: The campaign's total wall-clock budget ran out before this run did.
BUDGET_EXCEEDED = "budget_exceeded"
#: The run failed at least once but succeeded on a retry (``ok`` is True).
RETRIED_OK = "retried_ok"

#: Every kind an outcome's ``error_kind`` can carry.
ERROR_KINDS = (TIMEOUT, WORKER_CRASH, SIM_ERROR, INVARIANT_VIOLATION,
               BUDGET_EXCEEDED, RETRIED_OK)

#: Traceback lines kept per failed attempt (the tail is where the cause is).
TRACEBACK_TAIL_LINES = 8


def default_start_method() -> Optional[str]:
    """``fork`` where the platform offers it (cheap workers, inherited
    pages), else the platform default.  ``CampaignRunner`` makes this
    explicit so the pool path is also exercised — and tested — under
    ``spawn``, where everything must travel by pickle."""
    return "fork" if "fork" in multiprocessing.get_all_start_methods() \
        else None


def traceback_tail(limit: int = TRACEBACK_TAIL_LINES) -> str:
    """The last ``limit`` lines of the active exception's traceback."""
    lines = traceback.format_exc().strip().splitlines()
    return "\n".join(lines[-limit:])


# ----------------------------------------------------------------------
# Policy.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """How hard to fight for each run, and for how long overall.

    ``retries`` failed attempts are re-dispatched after a seeded,
    jittered exponential backoff; ``timeout_s`` is the per-run wall-clock
    watchdog; ``max_total_s`` is a campaign-wide wall-clock budget —
    once spent, remaining runs are tagged :data:`BUDGET_EXCEEDED`
    instead of executing.
    """

    retries: int = 0
    timeout_s: Optional[float] = None
    backoff_s: float = 0.05
    backoff_factor: float = 2.0
    jitter: float = 0.5
    seed: int = 0
    max_total_s: Optional[float] = None

    def delay_s(self, index: int, attempt: int) -> float:
        """Backoff before re-dispatching run ``index`` after ``attempt``
        failures.  Seeded per (policy seed, run, attempt), so a rerun of
        the same campaign waits the same schedule — retry timing is as
        reproducible as the runs themselves."""
        base = self.backoff_s * (self.backoff_factor ** max(0, attempt - 1))
        rng = random.Random(f"{self.seed}:{index}:{attempt}")
        return base * (1.0 + self.jitter * rng.random())


# ----------------------------------------------------------------------
# Chaos drills.
# ----------------------------------------------------------------------
#: Chaos kinds: raise an exception, kill the worker, or hang it.
CHAOS_KINDS = ("raise", "crash", "hang")


@dataclass(frozen=True)
class ChaosSpec:
    """A misbehavior drill for one grid point — the fixture that keeps
    the recovery paths honest (tests, CI smoke, and operator fire
    drills).

    ``kind`` is ``"raise"`` (throw :class:`ResilienceError`), ``"crash"``
    (``os._exit`` the worker mid-run), or ``"hang"`` (sleep ``hang_s``).
    With a ``latch`` file, only the first ``arm`` attempts misbehave —
    the attempt counter lives in the file so it survives worker
    boundaries — which is how "fails once, then succeeds on retry" is
    scripted.  Without a latch every attempt misbehaves.
    """

    kind: str = "raise"
    arm: int = 1
    latch: Optional[str] = None
    hang_s: float = 3600.0

    def __post_init__(self) -> None:
        if self.kind not in CHAOS_KINDS:
            raise ResilienceError(
                f"unknown chaos kind {self.kind!r} "
                f"(want one of {', '.join(CHAOS_KINDS)})")

    def trip(self) -> None:
        """Misbehave if still armed; called at the top of the run."""
        if self.latch is not None:
            try:
                with open(self.latch) as handle:
                    count = int(handle.read().strip() or 0)
            except (OSError, ValueError):
                count = 0
            count += 1
            with open(self.latch, "w") as handle:
                handle.write(str(count))
            if count > self.arm:
                return
        if self.kind == "hang":
            time.sleep(self.hang_s)
            return
        if self.kind == "crash":
            os._exit(17)
        raise ResilienceError(f"chaos: injected failure ({self.kind})")


# ----------------------------------------------------------------------
# Results and accounting.
# ----------------------------------------------------------------------
@dataclass
class TaskResult:
    """One task's final accounting after retries."""

    index: int
    result: Any = None
    error: Optional[str] = None
    error_kind: Optional[str] = None
    traceback: Optional[str] = None
    elapsed_s: float = 0.0
    attempts: int = 1
    #: Served from a content-addressed result store (``repro.store``)
    #: instead of executing.
    stored: bool = False
    #: The original exception object — inline (serial) execution only,
    #: so ``reraise`` can propagate the real type to the caller.
    exception: Optional[BaseException] = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class ExecStats:
    """What resilience cost: every recovery action, counted."""

    retries: int = 0
    timeouts: int = 0
    worker_crashes: int = 0
    worker_restarts: int = 0
    budget_exceeded: int = 0


# ----------------------------------------------------------------------
# Worker-side plumbing (module-level: must pickle under ``spawn``).
# ----------------------------------------------------------------------
_CONTEXT = None  # per-worker: the executor's context, handed to each task


def _install_worker(context) -> None:
    """Worker start: install the context every task receives."""
    global _CONTEXT
    _CONTEXT = context


def _classify(exc: BaseException) -> str:
    """Taxonomy kind for an exception a run raised."""
    return INVARIANT_VIOLATION if isinstance(exc, InvariantViolation) \
        else SIM_ERROR


def _guarded_call(task_fn: Callable[[Any, Any], Any], index: int,
                  payload: Any) -> Tuple[bool, Any, Optional[str],
                                         Optional[str], Optional[str],
                                         float]:
    """Execute and capture — nothing escapes but the tuple."""
    start = time.perf_counter()
    try:
        return (True, task_fn(_CONTEXT, payload), None, None, None,
                time.perf_counter() - start)
    except Exception as exc:
        return (False, None, _classify(exc),
                f"{type(exc).__name__}: {exc}",
                traceback_tail(), time.perf_counter() - start)


def _worker_main(conn, parent_end, task_fn: Callable[[Any, Any], Any],
                 context: Any) -> None:
    """One pool worker: install the context, then run each ``(index,
    payload)`` the parent sends and send back its :func:`_guarded_call`
    tuple, until the parent kills the worker or goes away."""
    # A forked worker inherits the parent's end of its own pipe; closing
    # it lets the parent's death reach ``recv`` as EOF.
    parent_end.close()
    _install_worker(context)
    try:
        while True:
            task = conn.recv()
            if task is None:            # an opened pool's start-up ping
                conn.send(None)
                continue
            index, payload = task
            outcome = _guarded_call(task_fn, index, payload)
            try:
                conn.send(outcome)
            except Exception as exc:
                # A result that cannot be pickled fails its own run only.
                conn.send((False, None, SIM_ERROR,
                           f"result not picklable: "
                           f"{type(exc).__name__}: {exc}",
                           traceback_tail(), outcome[-1]))
    except (EOFError, OSError):
        return  # the parent is gone


# ----------------------------------------------------------------------
# Dispatch bookkeeping.
# ----------------------------------------------------------------------
@dataclass
class _Attempt:
    """One dispatchable unit: a task plus its retry state."""

    index: int
    payload: Any
    attempts: int = 0          # attempts dispatched so far
    not_before: float = 0.0    # monotonic backoff gate


@dataclass
class _Worker:
    """One worker process, its pipe, and the run it holds (if any)."""

    process: Any                       # multiprocessing Process
    conn: Any                          # the parent's end of its pipe
    entry: Optional[_Attempt] = None   # the run it holds
    since: float = 0.0                 # monotonic dispatch time of entry


class ResilientExecutor:
    """Runs ``(index, payload)`` tasks as ``task_fn(context, payload)``
    with retries, a timeout watchdog, crash recovery, and a wall-clock
    budget.  Generic over the task function so campaign workers and
    chaos fixtures share one dispatch loop; the ``context`` is installed
    once per worker (see the module docstring).

    The pool path runs tasks on worker processes, each on its own pipe
    and holding at most one run.  The parent sleeps in
    :func:`multiprocessing.connection.wait` on the busy workers' pipes
    and every worker's exit sentinel until the nearest watchdog
    deadline, retry-backoff gate or budget end.  A worker that exits
    while holding a run fails exactly that run as :data:`WORKER_CRASH`;
    a run older than ``timeout_s`` has its own worker killed and fails
    as :data:`TIMEOUT`.  Either way that one worker is replaced
    (``stats.worker_restarts``) and every other in-flight run goes on.

    A bare :meth:`run` is one-shot: it starts ``min(workers,
    len(tasks))`` workers and stops them before it returns (or runs
    serially, see the module docstring).  Opened with ``with``, the
    executor starts ``workers`` processes once and runs every
    :meth:`run` on them, even at ``workers=1``; entering raises
    :class:`ResilienceError` if a worker exits before it answers a ping,
    and leaving the block kills them all, and from another thread also
    makes a waiting :meth:`run` raise :class:`ResilienceError`.

    ``on_result`` is the result sink: the parent calls it once per task,
    with that task's final :class:`TaskResult`, as soon as the result is
    final — a success, a terminal failure, or a budget give-up — on both
    the serial and the pool path.  An exception it raises leaves
    :meth:`run`, after every worker still holding a run is stopped."""

    def __init__(self, task_fn: Callable[[Any, Any], Any], workers: int = 1,
                 policy: Optional[RetryPolicy] = None,
                 context: Any = None,
                 start_method: Optional[str] = None,
                 on_result: Optional[Callable[[TaskResult], None]] = None,
                 stats: Optional[ExecStats] = None) -> None:
        self.task_fn = task_fn
        self.workers = max(1, int(workers))
        self.policy = policy if policy is not None else RetryPolicy()
        self.context = context
        self.start_method = start_method if start_method is not None \
            else default_start_method()
        self.on_result = on_result
        self.stats = stats if stats is not None else ExecStats()
        self._deadline: Optional[float] = None
        #: Open (``with``): the workers, and a pipe that wakes run().
        self._pool: Optional[List[_Worker]] = None
        self._wake = self._waker = None
        self._running = threading.Lock()

    def __enter__(self) -> "ResilientExecutor":
        self._wake, self._waker = multiprocessing.get_context(
            self.start_method).Pipe(duplex=False)
        self._pool = [self._start() for _ in range(self.workers)]
        if not all(self._answers(worker) for worker in self._pool):
            self.__exit__(None, None, None)
            raise ResilienceError("a pool worker exited before serving")
        return self

    def __exit__(self, *exc) -> None:
        if not self._pool:
            return
        self._waker.send(None)        # a run waiting in another thread
        with self._running:           # gives up before the workers go
            for worker in self._pool:
                self._stop(worker)
            self._pool.clear()
            self._wake.close()
            self._waker.close()

    # ------------------------------------------------------------------
    def run(self, tasks: Sequence[Tuple[int, Any]]) -> List[TaskResult]:
        """Execute every task, returning results sorted by index — one
        :class:`TaskResult` per task, no matter what happened to it."""
        if self.policy.max_total_s is not None:
            self._deadline = time.monotonic() + self.policy.max_total_s
        results: Dict[int, TaskResult] = {}
        todo = [_Attempt(index=index, payload=payload)
                for index, payload in tasks]
        if self._pool is not None:
            with self._running:
                if not self._pool:
                    raise ResilienceError("the executor is closed")
                self._run_pool(todo, results, self._pool)
        elif todo and self.policy.timeout_s is None \
                and (self.workers <= 1 or len(todo) <= 1):
            # Only a watchdog needs workers: serial cannot preempt.
            self._run_serial(todo, results)
        elif todo:
            workers: List[_Worker] = []
            try:
                for _ in range(min(self.workers, len(todo))):
                    workers.append(self._start())
                self._run_pool(todo, results, workers)
            finally:
                for worker in workers:
                    self._stop(worker)
        return [results[index] for index in sorted(results)]

    # ------------------------------------------------------------------
    # Serial path: same taxonomy/retries/budget/sink, no preemption.
    # ------------------------------------------------------------------
    def _run_serial(self, todo: List[_Attempt],
                    results: Dict[int, TaskResult]) -> None:
        for entry in todo:
            if self._budget_exhausted():
                self._give_up(results, entry)
                continue
            self._finish(results, self._serial_task(entry))

    def _serial_task(self, entry: _Attempt) -> TaskResult:
        while True:
            entry.attempts += 1
            start = time.perf_counter()
            try:
                value = self.task_fn(self.context, entry.payload)
            except Exception as exc:
                elapsed = time.perf_counter() - start
                error = f"{type(exc).__name__}: {exc}"
                tail = traceback_tail()
                kind = _classify(exc)
                if kind != INVARIANT_VIOLATION \
                        and entry.attempts <= self.policy.retries \
                        and not self._budget_exhausted():
                    self.stats.retries += 1
                    time.sleep(self.policy.delay_s(entry.index,
                                                   entry.attempts))
                    continue
                return TaskResult(index=entry.index, error=error,
                                  error_kind=kind, traceback=tail,
                                  elapsed_s=elapsed,
                                  attempts=entry.attempts, exception=exc)
            elapsed = time.perf_counter() - start
            return self._succeed(entry, value, elapsed)

    # ------------------------------------------------------------------
    # Pool path: one pipe per worker process, watchdog, replacement.
    # ------------------------------------------------------------------
    def _run_pool(self, pending: List[_Attempt],
                  results: Dict[int, TaskResult],
                  workers: List[_Worker]) -> None:
        """Run ``pending`` on ``workers``, replacing in place each worker
        that dies or overruns its watchdog."""
        timeout_s = self.policy.timeout_s
        try:
            for slot, worker in enumerate(workers):
                if not worker.process.is_alive():   # since the last run
                    self._replace(workers, slot)
            while True:
                now = time.monotonic()
                if self._budget_exhausted():
                    for entry in pending + [worker.entry for worker in workers
                                            if worker.entry is not None]:
                        self._give_up(results, entry)
                    return
                for worker in workers:
                    if worker.entry is None:
                        entry = self._next_ready(pending, now)
                        if entry is None:
                            break
                        self._dispatch(worker, entry, now)
                busy = [worker for worker in workers
                        if worker.entry is not None]
                if not busy and not pending:
                    return

                # Sleep until a result, a worker exit or a close arrives,
                # or the nearest watchdog deadline, backoff gate or budget
                # end.
                gates = [] if self._deadline is None else [self._deadline]
                if timeout_s is not None:
                    gates += [worker.since + timeout_s for worker in busy]
                if pending and len(busy) < len(workers):
                    gates.append(min(entry.not_before for entry in pending))
                ready = wait([worker.conn for worker in busy]
                             + [worker.process.sentinel for worker in workers]
                             + ([] if self._wake is None else [self._wake]),
                             max(0.0, min(gates) - now) if gates else None)
                if self._wake is not None and self._wake in ready:
                    raise ResilienceError(
                        f"the executor closed with {len(busy)} runs in "
                        f"flight and {len(pending)} pending")
                now = time.monotonic()

                for slot, worker in enumerate(workers):
                    exited = worker.process.sentinel in ready
                    if worker.entry is not None and worker.conn in ready \
                            and not self._receive(worker, results, pending,
                                                  now):
                        exited = True          # its pipe broke mid-result
                    overdue = worker.entry is not None \
                        and timeout_s is not None \
                        and now - worker.since >= timeout_s
                    if not (exited or overdue):
                        continue
                    # Replace this one worker; every other run goes on.
                    self._replace(workers, slot)
                    if worker.entry is None:
                        continue               # died idle: no run lost
                    if exited:
                        self.stats.worker_crashes += 1
                        kind, error = WORKER_CRASH, (
                            f"worker process died (pid {worker.process.pid},"
                            f" exit code {worker.process.exitcode})")
                    else:
                        self.stats.timeouts += 1
                        kind, error = TIMEOUT, (
                            f"run exceeded the {timeout_s:g}s wall-clock "
                            f"timeout")
                    self._fail(results, pending, worker.entry, kind, error,
                               None, now - worker.since, now)
        finally:
            # A run left in flight (budget give-up, a raising sink, a
            # close) takes its worker with it; the next run replaces it.
            for worker in workers:
                if worker.entry is not None:
                    self._stop(worker)

    # ------------------------------------------------------------------
    def _start(self) -> _Worker:
        ctx = multiprocessing.get_context(self.start_method)
        conn, child = ctx.Pipe()
        process = ctx.Process(target=_worker_main,
                              args=(child, conn, self.task_fn, self.context))
        process.start()
        child.close()
        return _Worker(process=process, conn=conn)

    @staticmethod
    def _answers(worker: _Worker) -> bool:
        """Whether a new worker answers a ping rather than exiting."""
        try:
            worker.conn.send(None)
            wait([worker.conn, worker.process.sentinel])
            return worker.conn.poll() and worker.conn.recv() is None
        except (EOFError, OSError):
            return False

    def _replace(self, workers: List[_Worker], slot: int) -> None:
        self._stop(workers[slot])
        workers[slot] = self._start()
        self.stats.worker_restarts += 1

    @staticmethod
    def _stop(worker: _Worker) -> None:
        worker.process.kill()
        worker.process.join()
        worker.conn.close()

    @staticmethod
    def _next_ready(pending: List[_Attempt],
                    now: float) -> Optional[_Attempt]:
        for position, entry in enumerate(pending):
            if entry.not_before <= now:
                del pending[position]
                return entry
        return None

    def _dispatch(self, worker: _Worker, entry: _Attempt,
                  now: float) -> None:
        entry.attempts += 1
        worker.entry, worker.since = entry, now
        try:
            worker.conn.send((entry.index, entry.payload))
        except OSError:
            pass  # the worker already exited: its sentinel fails the run

    def _receive(self, worker: _Worker, results: Dict[int, TaskResult],
                 pending: List[_Attempt], now: float) -> bool:
        """Settle the run ``worker`` holds from the outcome on its pipe;
        False when the pipe broke instead (the worker died sending)."""
        try:
            ok, value, kind, error, tail, elapsed = worker.conn.recv()
        except (EOFError, OSError):
            return False
        entry, worker.entry = worker.entry, None
        if ok:
            self._finish(results, self._succeed(entry, value, elapsed))
        else:
            self._fail(results, pending, entry, kind, error, tail, elapsed,
                       now)
        return True

    # ------------------------------------------------------------------
    def _budget_exhausted(self) -> bool:
        return self._deadline is not None \
            and time.monotonic() >= self._deadline

    def _finish(self, results: Dict[int, TaskResult],
                outcome: TaskResult) -> None:
        """Record a task's final result and hand it to the sink."""
        results[outcome.index] = outcome
        if self.on_result is not None:
            self.on_result(outcome)

    def _give_up(self, results: Dict[int, TaskResult],
                 entry: _Attempt) -> None:
        self.stats.budget_exceeded += 1
        self._finish(results, TaskResult(
            index=entry.index,
            error=f"campaign wall-clock budget "
                  f"({self.policy.max_total_s:g}s) exhausted",
            error_kind=BUDGET_EXCEEDED, attempts=entry.attempts))

    @staticmethod
    def _succeed(entry: _Attempt, value: Any, elapsed: float) -> TaskResult:
        return TaskResult(index=entry.index, result=value,
                          elapsed_s=elapsed, attempts=entry.attempts,
                          error_kind=RETRIED_OK if entry.attempts > 1
                          else None)

    def _fail(self, results: Dict[int, TaskResult],
              pending: List[_Attempt], entry: _Attempt, kind: str,
              error: Optional[str], tail: Optional[str], elapsed: float,
              now: float) -> None:
        # Oracle violations are deterministic: a retry can only mask the
        # finding, never fix it, so the retry policy does not apply.
        if kind != INVARIANT_VIOLATION \
                and entry.attempts <= self.policy.retries \
                and not self._budget_exhausted():
            self.stats.retries += 1
            entry.not_before = now + self.policy.delay_s(entry.index,
                                                         entry.attempts)
            pending.append(entry)
            return
        self._finish(results, TaskResult(
            index=entry.index, error=error, error_kind=kind,
            traceback=tail, elapsed_s=elapsed, attempts=entry.attempts))

"""Resilient campaign execution: timeouts, retries, crash recovery, resume.

The campaign engine's original pool path was a bare ``pool.map``: one
worker killed by the OS, one pathological grid point hanging in
wall-clock terms, or one transient exception lost the entire sweep.
This module replaces it with an async dispatch loop that degrades
gracefully instead of failing wholesale:

* a **watchdog** enforces a per-run wall-clock timeout; hung workers
  cannot be cancelled individually, so the pool is torn down and
  respawned, and the healthy in-flight runs are re-dispatched without an
  attempt charge;
* **crash detection**: every worker announces which run it picked up on
  a beacon queue, so when a worker pid vanishes the parent knows exactly
  which run died with it (the pool respawns the worker on its own);
* **bounded retries** with seeded, jittered exponential backoff
  (:meth:`RetryPolicy.delay_s`) re-dispatch failed runs; a run that
  eventually succeeds is tagged :data:`RETRIED_OK`;
* every terminal failure carries an **error taxonomy** kind —
  :data:`TIMEOUT`, :data:`WORKER_CRASH`, :data:`SIM_ERROR`,
  :data:`BUDGET_EXCEEDED` — plus the traceback tail, instead of a bare
  exception name;
* a **run journal** streams completed outcomes to a JSONL file as they
  finish, and a resume pass skips journaled runs by content digest, so a
  campaign killed mid-run finishes where it left off with a
  byte-identical ``metrics_fingerprint()``.

The executor is generic over the task function — the campaign engine
passes its grid-point worker, the tests pass chaos fixtures — and
:class:`ChaosSpec` provides the fault drills (raise / crash / hang on
cue) that keep the recovery paths honest.  Whatever every task shares
(a compile cache, a golden trace) travels once as the executor's
*context*: each task runs as ``task_fn(context, payload)``, pool workers
receive the context when they start — inherited under ``fork``, pickled
once per worker under ``spawn`` — and the serial path passes it
directly, so it is never pickled per task.

Serial execution (``workers=1``) applies the same retries, budget,
journal, and taxonomy, but cannot preempt a hung run: wall-clock
timeouts are only enforced on the pool path.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import queue
import random
import time
import traceback
import warnings
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import InvariantViolation, ReproError
from ..store.digest import task_digest


class ResilienceError(ReproError):
    """A resilient-execution configuration, chaos, or journal problem."""


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

#: Dispatch-loop poll period.  Completion detection lags by up to one
#: poll, so this bounds the per-task latency the loop adds over a bare
#: ``pool.map`` (measured by ``benchmarks/bench_resilient_overhead.py``);
#: polling ``AsyncResult.ready()`` at this rate costs negligible CPU.
_POLL_S = 0.002

#: How long a dispatched run may stay beacon-less after a worker death
#: before the parent concludes the dead worker took it (see `_run_pool`).
_BEACON_GRACE_S = 1.0


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
    watchdog (pool path only); ``max_total_s`` is a campaign-wide
    wall-clock budget — once spent, remaining runs are tagged
    :data:`BUDGET_EXCEEDED` instead of executing.
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
    """One task's final accounting after retries and journal replay."""

    index: int
    result: Any = None
    error: Optional[str] = None
    error_kind: Optional[str] = None
    traceback: Optional[str] = None
    elapsed_s: float = 0.0
    attempts: int = 1
    journaled: bool = False
    #: Served from a content-addressed result store (``repro.store``)
    #: instead of executing — the cross-campaign analog of ``journaled``.
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
    journal_skipped: int = 0


# ----------------------------------------------------------------------
# The journal.
# ----------------------------------------------------------------------
class RunJournal:
    """Append-only JSONL of completed runs, streamed as they finish.

    Each line carries the run's content digest, so a resume pass matches
    journaled outcomes to the *same* runs of the *same* spec — a changed
    spec simply misses and re-executes.  Only successful runs are
    journaled: failures are retried fresh on resume (a crash or timeout
    may not recur on a healthy machine).  A torn trailing line — the
    signature of a mid-write kill — is tolerated and ignored on load.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._handle = None

    def append(self, entry: dict) -> None:
        if self._handle is None:
            self._handle = open(self.path, "a")
        self._handle.write(json.dumps(entry, sort_keys=True,
                                      separators=(",", ":")) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    @staticmethod
    def load(path: str) -> Dict[str, dict]:
        """Digest-keyed journal entries; missing file means no entries.

        A truncated or corrupt line — the torn tail of a mid-write kill,
        or bit rot anywhere in the file — is skipped with a warning
        instead of raising, so one bad line never costs the rest of a
        journal's resume value.
        """
        entries: Dict[str, dict] = {}
        try:
            handle = open(path, errors="replace")
        except FileNotFoundError:
            return entries
        with handle:
            for number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError:
                    warnings.warn(
                        f"run journal {path}: skipping corrupt line "
                        f"{number} (torn write?)", RuntimeWarning,
                        stacklevel=2)
                    continue
                if isinstance(entry, dict) and "digest" in entry:
                    entries[entry["digest"]] = entry
                else:
                    warnings.warn(
                        f"run journal {path}: skipping line {number} "
                        f"(not a digest-keyed entry)", RuntimeWarning,
                        stacklevel=2)
        return entries


def _default_digest(index: int, payload: Any) -> str:
    """Canonical JSON content digest (:func:`repro.store.digest.
    task_digest`): stable across processes and dict construction order,
    unlike the ``repr()`` hashing it replaced."""
    return task_digest(index, payload)


# ----------------------------------------------------------------------
# Worker-side plumbing (module-level: must pickle under ``spawn``).
# ----------------------------------------------------------------------
_BEACON = None   # per-worker: the start-announcement queue
_CONTEXT = None  # per-worker: the executor's context, handed to each task


def _install_worker(beacon, context) -> None:
    """Pool initializer: wire the beacon and install the context."""
    global _BEACON, _CONTEXT
    _BEACON = beacon
    _CONTEXT = context


def _classify(exc: BaseException) -> str:
    """Taxonomy kind for an exception a run raised."""
    return INVARIANT_VIOLATION if isinstance(exc, InvariantViolation) \
        else SIM_ERROR


def _guarded_call(task_fn: Callable[[Any, Any], Any], index: int,
                  payload: Any) -> Tuple[bool, Any, Optional[str],
                                         Optional[str], Optional[str],
                                         float]:
    """Announce, execute, and capture — nothing escapes but the tuple."""
    if _BEACON is not None:
        try:
            _BEACON.put((os.getpid(), index))
        except Exception:
            pass  # a lost beacon degrades crash attribution, not results
    start = time.perf_counter()
    try:
        return (True, task_fn(_CONTEXT, payload), None, None, None,
                time.perf_counter() - start)
    except Exception as exc:
        return (False, None, _classify(exc),
                f"{type(exc).__name__}: {exc}",
                traceback_tail(), time.perf_counter() - start)


# ----------------------------------------------------------------------
# Dispatch bookkeeping.
# ----------------------------------------------------------------------
@dataclass
class _Attempt:
    """One dispatchable unit: a task plus its retry state."""

    index: int
    payload: Any
    digest: str
    attempts: int = 0          # attempts dispatched so far
    not_before: float = 0.0    # monotonic backoff gate


@dataclass
class _Flight:
    """One in-flight dispatch: the attempt plus where/when it runs."""

    entry: _Attempt
    handle: Any                # multiprocessing AsyncResult
    dispatched_at: float
    pid: Optional[int] = None  # set when the worker's beacon arrives


class ResilientExecutor:
    """Runs ``(index, payload)`` tasks as ``task_fn(context, payload)``
    with retries, a timeout watchdog, crash recovery, a wall-clock
    budget, and journal streaming/resume.  Generic over the task function
    so campaign workers and chaos fixtures share one dispatch loop; the
    ``context`` is installed once per worker (see the module docstring)."""

    def __init__(self, task_fn: Callable[[Any, Any], Any], workers: int = 1,
                 policy: Optional[RetryPolicy] = None,
                 context: Any = None,
                 start_method: Optional[str] = None,
                 journal: Optional[RunJournal] = None,
                 resume: Optional[Dict[str, dict]] = None,
                 digest_fn: Callable[[int, Any], str] = _default_digest,
                 encode: Callable[[Any], Any] = lambda value: value,
                 decode: Callable[[Any], Any] = lambda value: value,
                 stats: Optional[ExecStats] = None) -> None:
        self.task_fn = task_fn
        self.workers = max(1, int(workers))
        self.policy = policy if policy is not None else RetryPolicy()
        self.context = context
        self.start_method = start_method if start_method is not None \
            else default_start_method()
        self.journal = journal
        self.resume = resume or {}
        self.digest_fn = digest_fn
        self.encode = encode
        self.decode = decode
        self.stats = stats if stats is not None else ExecStats()
        self._deadline: Optional[float] = None

    # ------------------------------------------------------------------
    def run(self, tasks: Sequence[Tuple[int, Any]]) -> List[TaskResult]:
        """Execute every task, returning results sorted by index — one
        :class:`TaskResult` per task, no matter what happened to it."""
        if self.policy.max_total_s is not None:
            self._deadline = time.monotonic() + self.policy.max_total_s
        results: Dict[int, TaskResult] = {}
        todo: List[_Attempt] = []
        for index, payload in tasks:
            digest = self.digest_fn(index, payload)
            entry = self.resume.get(digest)
            if entry is not None:
                results[index] = self._from_journal(index, entry)
                self.stats.journal_skipped += 1
            else:
                todo.append(_Attempt(index=index, payload=payload,
                                     digest=digest))
        if todo:
            # A single run only warrants a pool when a watchdog must be
            # able to kill it; serial execution cannot preempt.
            if self.workers <= 1 or (len(todo) <= 1
                                     and self.policy.timeout_s is None):
                self._run_serial(todo, results)
            else:
                self._run_pool(todo, results)
        return [results[index] for index in sorted(results)]

    # ------------------------------------------------------------------
    # Serial path: same taxonomy/retries/budget/journal, no preemption.
    # ------------------------------------------------------------------
    def _run_serial(self, todo: List[_Attempt],
                    results: Dict[int, TaskResult]) -> None:
        for entry in todo:
            if self._budget_exhausted():
                self._give_up(results, entry)
                continue
            results[entry.index] = self._serial_task(entry)

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
    # Pool path: async dispatch + beacon + watchdog + respawn.
    # ------------------------------------------------------------------
    def _run_pool(self, todo: List[_Attempt],
                  results: Dict[int, TaskResult]) -> None:
        ctx = multiprocessing.get_context(self.start_method)
        processes = min(self.workers, len(todo))
        # Without a watchdog the clock doesn't matter, so keep a backlog
        # queued in the pool — a worker that finishes picks up its next
        # task without waiting for the parent's poll.  With a timeout,
        # in-flight work stays bounded by the worker count so that
        # dispatch time ≈ start time and the watchdog clock is honest.
        depth = processes * 2 if self.policy.timeout_s is None \
            else processes
        pending: List[_Attempt] = list(todo)
        inflight: Dict[int, _Flight] = {}
        pool = beacon = None
        last_death_at: Optional[float] = None
        unattributed = 0           # observed deaths not yet blamed on a run
        try:
            pool, beacon, known_pids = self._spawn(ctx, processes)
            while pending or inflight:
                now = time.monotonic()

                if self._budget_exhausted():
                    for entry in pending + [flight.entry
                                            for flight in inflight.values()]:
                        self._give_up(results, entry)
                    pending.clear()
                    inflight.clear()
                    break

                # Dispatch into free slots.  In-flight work is bounded by
                # the worker count, so a dispatched run starts (nearly)
                # immediately and the watchdog clock is honest.
                progressed = False
                while len(inflight) < depth:
                    entry = self._next_ready(pending, now)
                    if entry is None:
                        break
                    inflight[entry.index] = self._dispatch(pool, entry, now)
                    progressed = True

                # Beacons attribute runs to worker pids.
                self._drain_beacon(beacon, inflight)

                # Completed runs (success or captured exception).
                ready = [index for index, flight in inflight.items()
                         if flight.handle.ready()]
                progressed = progressed or bool(ready)
                for index in ready:
                    flight = inflight.pop(index)
                    ok, value, kind, error, tail, elapsed = \
                        flight.handle.get()
                    if ok:
                        results[index] = self._succeed(flight.entry, value,
                                                       elapsed)
                    else:
                        self._fail(results, pending, flight.entry,
                                   kind, error, tail, elapsed, now)

                # Crashed workers: a vanished pid takes its run with it
                # (the pool replaces the worker on its own).  Runs whose
                # beacons matched a dead pid are failed directly; beyond
                # those, at most one beacon-less run per unattributed
                # death is assumed lost too (oldest dispatch first, after
                # a grace period) — re-running a live run is safe
                # (deterministic sims; first result wins), losing one is
                # not, and the bound keeps backlog runs that merely sat
                # queued through a death from being blamed for it.
                pids = self._pool_pids(pool)
                dead = known_pids - pids
                if dead:
                    last_death_at = now
                    self.stats.worker_restarts += len(dead)
                    unattributed += len(dead)
                for index, flight in list(inflight.items()):
                    if flight.pid is not None and flight.pid in dead:
                        inflight.pop(index)
                        unattributed -= 1
                        self._crash(results, pending, flight, now)
                if unattributed > 0 and last_death_at is not None:
                    suspects = sorted(
                        (flight for flight in inflight.values()
                         if flight.pid is None
                         and last_death_at >= flight.dispatched_at
                         and now - flight.dispatched_at > _BEACON_GRACE_S),
                        key=lambda flight: flight.dispatched_at)
                    for flight in suspects[:unattributed]:
                        inflight.pop(flight.entry.index)
                        unattributed -= 1
                        self._crash(results, pending, flight, now)
                known_pids = pids

                # Watchdog: a hung worker cannot be cancelled one run at
                # a time, so tear the whole pool down; healthy in-flight
                # runs re-dispatch without an attempt charge.
                if self.policy.timeout_s is not None and inflight:
                    expired = {index for index, flight in inflight.items()
                               if now - flight.dispatched_at
                               > self.policy.timeout_s}
                    if expired:
                        self.stats.timeouts += len(expired)
                        for index, flight in list(inflight.items()):
                            inflight.pop(index)
                            if index in expired:
                                self._fail(
                                    results, pending, flight.entry, TIMEOUT,
                                    f"run exceeded the "
                                    f"{self.policy.timeout_s:g}s wall-clock "
                                    f"timeout", None,
                                    now - flight.dispatched_at, now)
                            else:
                                flight.entry.attempts -= 1
                                flight.entry.not_before = 0.0
                                pending.append(flight.entry)
                        self._teardown(pool, beacon)
                        pool, beacon, known_pids = self._spawn(ctx,
                                                               processes)
                        self.stats.worker_restarts += processes
                        last_death_at = None
                        unattributed = 0

                # Sleep only when nothing moved: a completed run frees a
                # slot that refills on the very next iteration, so the
                # loop adds at most one poll of latency per task.
                if not progressed:
                    time.sleep(_POLL_S)
        finally:
            self._teardown(pool, beacon)

    # ------------------------------------------------------------------
    def _spawn(self, ctx, processes: int):
        beacon = ctx.Queue()
        pool = ctx.Pool(processes=processes, initializer=_install_worker,
                        initargs=(beacon, self.context))
        return pool, beacon, self._pool_pids(pool)

    @staticmethod
    def _teardown(pool, beacon) -> None:
        if pool is not None:
            pool.terminate()
            pool.join()
        if beacon is not None:
            beacon.close()

    @staticmethod
    def _pool_pids(pool) -> set:
        return {proc.pid for proc in getattr(pool, "_pool", [])
                if proc.pid is not None}

    @staticmethod
    def _next_ready(pending: List[_Attempt],
                    now: float) -> Optional[_Attempt]:
        for position, entry in enumerate(pending):
            if entry.not_before <= now:
                del pending[position]
                return entry
        return None

    def _dispatch(self, pool, entry: _Attempt, now: float) -> _Flight:
        entry.attempts += 1
        handle = pool.apply_async(_guarded_call,
                                  (self.task_fn, entry.index, entry.payload))
        return _Flight(entry=entry, handle=handle, dispatched_at=now)

    @staticmethod
    def _drain_beacon(beacon, inflight: Dict[int, _Flight]) -> None:
        while True:
            try:
                pid, index = beacon.get_nowait()
            except queue.Empty:
                return
            except (OSError, ValueError):
                return  # queue torn down under us during a respawn
            flight = inflight.get(index)
            if flight is not None:
                flight.pid = pid

    # ------------------------------------------------------------------
    def _budget_exhausted(self) -> bool:
        return self._deadline is not None \
            and time.monotonic() >= self._deadline

    def _give_up(self, results: Dict[int, TaskResult],
                 entry: _Attempt) -> None:
        self.stats.budget_exceeded += 1
        results[entry.index] = TaskResult(
            index=entry.index,
            error=f"campaign wall-clock budget "
                  f"({self.policy.max_total_s:g}s) exhausted",
            error_kind=BUDGET_EXCEEDED, attempts=entry.attempts)

    def _succeed(self, entry: _Attempt, value: Any,
                 elapsed: float) -> TaskResult:
        outcome = TaskResult(index=entry.index, result=value,
                             elapsed_s=elapsed, attempts=entry.attempts)
        if entry.attempts > 1:
            outcome.error_kind = RETRIED_OK
        if self.journal is not None:
            self.journal.append({
                "digest": entry.digest, "index": entry.index,
                "attempts": outcome.attempts,
                "elapsed_s": outcome.elapsed_s,
                "error_kind": outcome.error_kind,
                "result": self.encode(outcome.result),
            })
        return outcome

    def _crash(self, results: Dict[int, TaskResult],
               pending: List[_Attempt], flight: _Flight,
               now: float) -> None:
        self.stats.worker_crashes += 1
        self._fail(results, pending, flight.entry, WORKER_CRASH,
                   f"worker process died (pid {flight.pid})", None,
                   now - flight.dispatched_at, now)

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
        results[entry.index] = TaskResult(
            index=entry.index, error=error, error_kind=kind,
            traceback=tail, elapsed_s=elapsed, attempts=entry.attempts)

    def _from_journal(self, index: int, entry: dict) -> TaskResult:
        data = entry.get("result")
        return TaskResult(index=index,
                          result=self.decode(data) if data is not None
                          else None,
                          error_kind=entry.get("error_kind"),
                          attempts=entry.get("attempts", 1),
                          elapsed_s=entry.get("elapsed_s", 0.0),
                          journaled=True)

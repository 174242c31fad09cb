"""Per-layer tracing for the benchmark, installed from outside ``src/``.

Nothing in ``repro`` knows it is being traced: :func:`install` replaces
the entry points of each layer with timing wrappers (on their classes,
and on every ``repro`` module that bound the function by name), and
:meth:`Installation.undo` puts the originals back.  Pool workers are
forked, so they inherit the wrappers that were installed when the pool
started.

Two kinds of boundary are recorded:

* **spans** — coarse calls (a compile, a simulator run, a store get, a
  pool task).  Each keeps name, layer, start, end, parent span and task
  id in memory; they are exported to Perfetto when the run ends.
* **leaves** — hot calls made thousands of times per task (a run slice,
  a protocol tick, one capacitor update).  They are counted and timed in
  place and never stored one by one.

A layer's self time is the time its frames ran minus the part of it their
children covered.  For a span, children may run in other processes (the
pool workers below an executor span), where their intervals overlap: the
covered part is the *union* of the child intervals, so a child is
subtracted once however many lanes overlap it (:func:`covered`).

Workers append their spans and counters to one spool file per pid after
every task, because the executor terminates its pool instead of letting
workers exit.
"""

from __future__ import annotations

import functools
import json
import os
import pickle
import sys
from collections import defaultdict
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Span record fields, in order.
SID, PARENT, PID, LAYER, LABEL, T0, T1, TASK, LEAF_SELF, ATTRS = range(10)

#: Layers whose time the benchmark attributes, in report order.
LAYERS = (
    "core", "runtime.threaded", "runtime.backend", "runtime.machine",
    "runtime.simulator", "runtime.protocol", "energy", "emi", "analog",
    "exhaustive", "eval.resilient", "eval.campaign", "store", "torture",
)

#: The benchmark's own round and task spans: not a layer, so their self
#: time is the traced wall time no layer covers.
BENCH = "bench"


def covered(interval: Tuple[float, float],
            children: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``children`` clipped to ``interval``."""
    lo, hi = interval
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in children
                     if b > lo and a < hi)
    total = 0.0
    end = lo
    for a, b in clipped:
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def span_self_times(spans: Sequence[list]) -> Dict[object, float]:
    """Self time of every span: duration minus the union of its direct
    children's intervals (in any process) minus its leaves' self time."""
    children: Dict[object, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[T0], span[T1]))
    return {
        span[SID]: span[T1] - span[T0]
        - covered((span[T0], span[T1]), children.get(span[SID], ()))
        - span[LEAF_SELF]
        for span in spans
    }


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class Recorder:
    """Frames, spans and counters of one process (and, after fork, of
    each worker, which starts over with the parent's open span as root)."""

    def __init__(self, spool_dir: str) -> None:
        self.spool_dir = spool_dir
        self.pid = os.getpid()
        self.worker = False
        self.root_parent = None
        self.root_task = None
        self.spans: List[list] = []
        self.stack: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.depth: Dict[str, int] = defaultdict(int)
        self.marks: Dict[str, float] = {}
        self._next = 0
        self._flushed = 0

    # -- frames -----------------------------------------------------------
    def _span_top(self) -> Optional[list]:
        for frame in reversed(self.stack):
            if frame[4] is not None:
                return frame
        return None

    def _forked(self) -> None:
        """First span in a forked worker: drop what the parent recorded."""
        top = self._span_top()
        self.root_parent = top[4] if top is not None else None
        self.root_task = top[5] if top is not None else None
        self.pid = os.getpid()
        self.worker = True
        self.spans = []
        self.stack = []
        self.counters = defaultdict(float)
        self.samples = defaultdict(list)
        self.depth = defaultdict(int)
        self.marks = {}
        self._flushed = 0

    def enter(self, site: "Site", span: bool = False,
              task: Optional[str] = None) -> list:
        """Open a frame: [site, t0, child time, leaf self time, span id
        (None for a leaf), task id, attrs]."""
        sid = None
        if span:
            if os.getpid() != self.pid:
                self._forked()
            self._next += 1
            sid = f"{self.pid}.{self._next}"
            if task is None:
                top = self._span_top()
                task = top[5] if top is not None else self.root_task
        frame = [site, 0.0, 0.0, 0.0, sid, task, None]
        self.stack.append(frame)
        self.depth[site.layer] += 1
        frame[1] = perf_counter()
        return frame

    def exit(self, frame: list) -> float:
        """Close ``frame`` and any frame left open above it; returns its
        duration."""
        t1 = perf_counter()
        stack = self.stack
        if not stack or stack[-1] is not frame:
            if not any(open_frame is frame for open_frame in stack):
                return 0.0
            while stack[-1] is not frame:
                self.exit(stack[-1])
        stack.pop()
        site, t0 = frame[0], frame[1]
        dur = t1 - t0
        counters = self.counters
        if stack:
            stack[-1][2] += dur
        self.depth[site.layer] -= 1
        if self.depth[site.layer] == 0:
            counters[site.tot_key] += dur
        counters[site.n_key] += 1
        counters[site.t_key] += dur
        if frame[4] is None:
            own = dur - frame[2]
            counters[site.self_key] += own
            top = self._span_top()
            if top is not None:
                top[3] += own
        else:
            top = self._span_top()
            parent = top[4] if top is not None else self.root_parent
            self.spans.append([frame[4], parent, self.pid, site.layer,
                               site.label, t0, t1, frame[5], frame[3],
                               frame[6]])
        return dur

    def count(self, name: str, value: float = 1) -> None:
        self.counters["c:" + name] += value

    # -- worker spool -----------------------------------------------------
    def flush_worker(self) -> None:
        """Append this worker's new spans and its counters to its spool."""
        if not self.worker:
            return
        path = os.path.join(self.spool_dir, f"{self.pid}.jsonl")
        record = {"spans": self.spans[self._flushed:],
                  "counters": self.counters, "samples": self.samples}
        with open(path, "a") as handle:
            handle.write(json.dumps(record) + "\n")
        self._flushed = len(self.spans)

    def collect_workers(self) -> int:
        """Merge every worker spool into this (parent) recorder; returns
        the number of worker pids seen.  Counters are cumulative per
        worker, so only each file's last line counts."""
        if not os.path.isdir(self.spool_dir):
            return 0
        pids = 0
        for name in sorted(os.listdir(self.spool_dir)):
            path = os.path.join(self.spool_dir, name)
            last = None
            with open(path) as handle:
                for line in handle:
                    record = json.loads(line)
                    self.spans.extend(record["spans"])
                    last = record
            os.unlink(path)
            if last is not None:
                pids += 1
                for key, value in last["counters"].items():
                    self.counters[key] += value
                for key, values in last["samples"].items():
                    self.samples[key].extend(values)
        return pids


# ----------------------------------------------------------------------
# Wrappers.
# ----------------------------------------------------------------------
class Site:
    """One traced call site: its layer, its label, and the counter keys
    it updates (built once, not per call)."""

    __slots__ = ("layer", "label", "n_key", "t_key", "self_key", "tot_key")

    def __init__(self, layer: str, label: str) -> None:
        self.layer = layer
        self.label = label
        self.n_key = "n:" + label
        self.t_key = "t:" + label
        self.self_key = "self:" + layer
        self.tot_key = "tot:" + layer


def _timed(rec: Recorder, fn, site: Site, span: bool):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = rec.enter(site, span)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.exit(frame)
    return wrapper


def _counted(rec: Recorder, fn, name: str):
    key = "c:" + name

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.counters[key] += 1
        return fn(*args, **kwargs)
    return wrapper


class Installation:
    """The patches one :func:`install` made, for :func:`uninstall`."""

    def __init__(self) -> None:
        self.patches: List[Tuple[object, str, object]] = []
        #: Hook points this tree does not have (renamed or removed); their
        #: metrics read 0 instead of failing the run.
        self.missing: List[str] = []

    def method(self, owner, name: str, make) -> None:
        original = vars(owner).get(name) if owner is not None else None
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{name}")
            return
        self.patches.append((owner, name, original))
        setattr(owner, name, make(original))

    def function(self, module_name: str, name: str, make) -> None:
        """Wrap a module-level function everywhere a repro module bound it."""
        original = _attr(module_name, name)
        if original is None:
            self.missing.append(f"{module_name}.{name}")
            return
        wrapper = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro"
                                   or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def undo(self) -> None:
        for owner, name, original in reversed(self.patches):
            setattr(owner, name, original)
        self.patches.clear()


def _attr(module_name: str, name: str):
    module = sys.modules.get(module_name)
    return getattr(module, name, None) if module is not None else None


def install(rec: Recorder) -> Installation:
    """Wrap every layer's entry points (the layer table in
    ``perfbench/README.md``).  The modules must already be imported."""
    inst = Installation()

    def leaf(layer, label):
        site = Site(layer, label)
        return lambda fn: _timed(rec, fn, site, False)

    def span(layer, label):
        site = Site(layer, label)
        return lambda fn: _timed(rec, fn, site, True)

    # core
    inst.function("repro.core.gecko", "compile_scheme",
                  span("core", "core.compile_scheme"))
    inst.method(_attr("repro.eval.common", "VictimConfig"), "compile",
                span("core", "core.victim_compile"))

    # runtime.threaded: each block is compiled on its first execution.
    inst.method(_attr("repro.runtime.threaded", "_BlockCompiler"), "compile",
                leaf("runtime.threaded", "threaded.compile_block"))

    # runtime.backend
    inst.method(_attr("repro.runtime.backend", "InterpreterBackend"),
                "run_slice", lambda fn: _run_slice(rec, fn, False))
    inst.method(_attr("repro.runtime.threaded", "ThreadedBackend"),
                "run_slice", lambda fn: _run_slice(rec, fn, True))
    inst.function("repro.runtime.backend", "drain",
                  leaf("runtime.backend", "backend.drain"))

    # runtime.machine
    machine = _attr("repro.runtime.machine", "Machine")
    inst.method(machine, "__init__", leaf("runtime.machine", "machine.init"))
    inst.method(machine, "snapshot",
                leaf("runtime.machine", "machine.snapshot"))
    inst.method(machine, "restore", leaf("runtime.machine", "machine.restore"))

    # runtime.simulator
    simulator = _attr("repro.runtime.simulator", "IntermittentSimulator")
    inst.method(simulator, "__init__",
                leaf("runtime.simulator", "simulator.init"))
    inst.method(simulator, "run", span("runtime.simulator", "simulator.run"))
    inst.method(simulator, "_slice_idle",
                lambda fn: _counted(rec, fn, "idle_slices"))
    inst.function("repro", "simulate_program",
                  span("runtime.simulator", "simulate_program"))

    # runtime.protocol
    for module_name, cls_name in (("repro.runtime.nvp", "NVPRuntime"),
                                  ("repro.runtime.gecko_runtime",
                                   "GeckoRuntime"),
                                  ("repro.runtime.rollback",
                                   "RollbackRuntime")):
        cls = _attr(module_name, cls_name)
        for name in ("tick", "on_power_off"):
            inst.method(cls, name,
                        leaf("runtime.protocol", f"protocol.{name}"))
        for name in ("on_checkpoint_signal", "on_reboot"):
            site = Site("runtime.protocol", f"protocol.{name}")
            inst.method(cls, name,
                        lambda fn, site=site: _protocol(rec, fn, site))

    # energy
    power = _attr("repro.energy.power_system", "PowerSystem")
    for name in ("harvest", "consume_cycles", "consume_sleep",
                 "checkpoint_budget_cycles"):
        inst.method(power, name, leaf("energy", f"energy.{name}"))

    # emi
    inst.method(_attr("repro.emi.attacker", "AttackSchedule"), "source_at",
                leaf("emi", "emi.source_at"))
    for cls_name in ("RemotePath", "DPIPath"):
        inst.method(_attr("repro.emi.propagation", cls_name),
                    "received_power_w", leaf("emi", "emi.received_power_w"))
    inst.method(_attr("repro.emi.susceptibility", "SusceptibilityCurve"),
                "induced_amplitude", leaf("emi", "emi.induced_amplitude"))

    # analog
    sample_site = Site("analog", "analog.sample")
    for cls_name in ("ADCMonitor", "ComparatorMonitor"):
        inst.method(_attr("repro.analog.monitor", cls_name), "sample",
                    lambda fn: _monitor_sample(rec, fn, sample_site))

    # exhaustive
    inst.function("repro.exhaustive.mapper", "exhaustive_map",
                  span("exhaustive", "exhaustive.map"))
    inst.function("repro.exhaustive.trace", "capture_trace",
                  span("exhaustive", "exhaustive.capture_trace"))
    inst.function("repro.ir.liveness", "linked_liveness",
                  span("exhaustive", "exhaustive.liveness"))
    inst.function("repro.exhaustive.reduce", "reduce_step_model",
                  lambda fn: _reduce(rec, fn))
    inst.function("repro.exhaustive.mapper", "classify_fork",
                  lambda fn: _classify_fork(rec, fn))
    inst.function("repro.exhaustive.mapper", "_fork_init",
                  span("exhaustive", "exhaustive.worker_init"))

    # eval.resilient
    executor = _attr("repro.eval.resilient", "ResilientExecutor")
    inst.method(executor, "run", lambda fn: _executor_run(rec, fn))
    inst.method(executor, "_dispatch", lambda fn: _dispatch(rec, fn))
    inst.method(executor, "_serial_task", lambda fn: _serial_task(rec, fn))
    inst.function("repro.eval.resilient", "_guarded_call",
                  lambda fn: _guarded_call(rec, fn))
    inst.function("repro.eval.resilient", "_install_worker",
                  span("eval.resilient", "resilient.worker_init"))

    # eval.campaign
    inst.method(_attr("repro.eval.campaign", "CampaignRunner"), "run",
                lambda fn: _campaign_run(rec, fn))

    # store
    store = _attr("repro.store.store", "ResultStore")
    inst.method(store, "__init__", span("store", "store.open"))
    inst.method(store, "get", lambda fn: _store_get(rec, fn))
    inst.method(store, "put", span("store", "store.put"))
    inst.function("repro.store.digest", "run_digest",
                  span("store", "store.run_digest"))

    # torture (and periph, read from each run's outcome)
    inst.function("repro.torture.fuzz", "run_campaign",
                  lambda fn: _torture_campaign(rec, fn))
    inst.function("repro.torture.fuzz", "generate_case",
                  span("torture", "torture.generate_case"))
    inst.function("repro.torture.engine", "run_schedule",
                  lambda fn: _run_schedule(rec, fn))
    inst.function("repro.torture.engine", "build_target",
                  span("torture", "torture.build_target"))
    return inst


# -- wrappers that read arguments, results or statistics -----------------
_SLICE = Site("runtime.backend", "backend.run_slice")


def _run_slice(rec: Recorder, fn, threaded: bool):
    @functools.wraps(fn)
    def wrapper(self, machine, budget):
        frame = rec.enter(_SLICE)
        before = machine.instr_count
        if threaded:
            # Count the reference-path steps the slice falls back to.
            counters = rec.counters
            step = machine.step

            def counting_step():
                counters["c:step_fallbacks"] += 1
                return step()
            machine.step = counting_step
        try:
            return fn(self, machine, budget)
        finally:
            if threaded:
                del machine.step
            rec.counters["c:instrs"] += machine.instr_count - before
            rec.exit(frame)
    return wrapper


def _protocol(rec: Recorder, fn, site: Site):
    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        stats = self.stats
        before = (stats.jit_checkpoints, stats.jit_checkpoint_failures,
                  stats.rollback_restores)
        frame = rec.enter(site)
        try:
            return fn(self, *args, **kwargs)
        finally:
            rec.exit(frame)
            rec.count("jit_checkpoints", stats.jit_checkpoints - before[0])
            rec.count("ckpt_failures",
                      stats.jit_checkpoint_failures - before[1])
            rec.count("rollback_restores",
                      stats.rollback_restores - before[2])
    return wrapper


def _monitor_sample(rec: Recorder, fn, site: Site):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = rec.enter(site)
        try:
            event = fn(*args, **kwargs)
        finally:
            rec.exit(frame)
        if event.name != "NONE":
            rec.count("trips")
        return event
    return wrapper


_REDUCE = Site("exhaustive", "exhaustive.reduce")
_FORK = Site("exhaustive", "exhaustive.fork")


def _reduce(rec: Recorder, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = rec.enter(_REDUCE, True)
        try:
            plan = fn(*args, **kwargs)
        finally:
            rec.exit(frame)
        rec.count("enumerated", plan.enumerated)
        rec.count("representatives", len(plan.representatives))
        return plan
    return wrapper


def _classify_fork(rec: Recorder, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = rec.enter(_FORK, True)
        frame[5] = frame[4]          # every fork is a task of its own
        try:
            return fn(*args, **kwargs)
        finally:
            rec.samples["fork_s"].append(rec.exit(frame))
    return wrapper


_EXEC_RUN = Site("eval.resilient", "resilient.run")
_EXEC_TASK = Site("eval.resilient", "resilient.task")


def _executor_run(rec: Recorder, fn):
    @functools.wraps(fn)
    def wrapper(self, tasks):
        frame = rec.enter(_EXEC_RUN, True)
        pooled = self.workers > 1 and (len(tasks) > 1
                                       or self.policy.timeout_s is not None)
        frame[6] = {"workers": min(self.workers, len(tasks))
                    if pooled else 1}
        before = (self.stats.retries, self.stats.worker_restarts)
        try:
            return fn(self, tasks)
        finally:
            rec.exit(frame)
            rec.count("retries", self.stats.retries - before[0])
            rec.count("worker_restarts",
                      self.stats.worker_restarts - before[1])
    return wrapper


def _dispatch(rec: Recorder, fn):
    @functools.wraps(fn)
    def wrapper(self, pool, entry, now):
        top = rec._span_top()
        if top is not None:
            rec.marks[f"{top[4]}:{entry.index}"] = perf_counter()
        return fn(self, pool, entry, now)
    return wrapper


def _serial_task(rec: Recorder, fn):
    @functools.wraps(fn)
    def wrapper(self, entry):
        top = rec._span_top()
        frame = rec.enter(_EXEC_TASK, True,
                          f"{top[4] if top is not None else '-'}:"
                          f"{entry.index}")
        try:
            return fn(self, entry)
        finally:
            rec.exit(frame)
    return wrapper


def _guarded_call(rec: Recorder, fn):
    @functools.wraps(fn)
    def wrapper(task_fn, index, payload):
        frame = rec.enter(_EXEC_TASK, True)
        frame[5] = f"{rec.root_parent}:{index}"
        try:
            result = fn(task_fn, index, payload)
        finally:
            rec.exit(frame)
        try:
            rec.count("payload_bytes", len(pickle.dumps(payload))
                      + len(pickle.dumps(result)))
        except (pickle.PicklingError, TypeError, AttributeError):
            pass  # the pool reports an unpicklable result itself
        rec.flush_worker()
        return result
    return wrapper


_CAMPAIGN = Site("eval.campaign", "campaign.run")


def _campaign_run(rec: Recorder, fn):
    @functools.wraps(fn)
    def wrapper(self, spec):
        frame = rec.enter(_CAMPAIGN, True)
        try:
            result = fn(self, spec)
        finally:
            rec.exit(frame)
        rec.samples["campaign_task_s"].extend(
            outcome.elapsed_s for outcome in result.baselines
            + result.outcomes if outcome.elapsed_s > 0)
        return result
    return wrapper


_STORE_GET = Site("store", "store.get")


def _store_get(rec: Recorder, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = rec.enter(_STORE_GET, True)
        try:
            entry = fn(*args, **kwargs)
        finally:
            rec.exit(frame)
        if entry is not None:
            rec.count("store_hits")
        return entry
    return wrapper


_TORTURE = Site("torture", "torture.campaign")


def _torture_campaign(rec: Recorder, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = rec.enter(_TORTURE, True)
        try:
            report = fn(*args, **kwargs)
        finally:
            rec.exit(frame)
        rec.count("torture_cases", len(report.cases))
        rec.count("torture_violations", report.violations)
        return report
    return wrapper


_RUN_SITES = {name: Site("torture", f"torture.run.{name}")
              for name in ("interpreter", "threaded")}


def _run_schedule(rec: Recorder, fn):
    @functools.wraps(fn)
    def wrapper(target, schedule, backend="interpreter", *args, **kwargs):
        name = backend if isinstance(backend, str) else backend.name
        site = _RUN_SITES.get(name) or Site("torture", f"torture.run.{name}")
        frame = rec.enter(site, True)
        try:
            outcome = fn(target, schedule, backend, *args, **kwargs)
        finally:
            rec.exit(frame)
        rec.count("torture_crashes", outcome.crashes)
        rec.count("periph_deliveries", outcome.deliveries)
        rec.count("periph_heals", outcome.heals)
        return outcome
    return wrapper


# ----------------------------------------------------------------------
# Per-layer metrics and the Perfetto timeline.
# ----------------------------------------------------------------------
#: Every per-layer metric: (name, unit, better).  Counts and times are
#: per round; ratios and percentiles are over all traced rounds.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("repro.import_s", "s", "lower"),
    ("core.compile_calls", "count", "lower"),
    ("core.compile_s", "s", "lower"),
    ("core.setup_compile_s", "s", "lower"),
    ("runtime.threaded.blocks", "count", "lower"),
    ("runtime.threaded.block_compile_s", "s", "lower"),
    ("runtime.backend.slices", "count", "lower"),
    ("runtime.backend.slice_s", "s", "lower"),
    ("runtime.backend.instrs", "count", "lower"),
    ("runtime.backend.instrs_per_slice", "count", "higher"),
    ("runtime.backend.step_fallbacks", "count", "lower"),
    ("runtime.machine.snapshots", "count", "lower"),
    ("runtime.machine.restores", "count", "lower"),
    ("runtime.machine.restore_s", "s", "lower"),
    ("runtime.simulator.idle_slices", "count", "lower"),
    ("runtime.protocol.calls", "count", "lower"),
    ("runtime.protocol.s", "s", "lower"),
    ("runtime.protocol.jit_checkpoints", "count", "lower"),
    ("runtime.protocol.ckpt_failures", "count", "lower"),
    ("runtime.protocol.rollback_restores", "count", "lower"),
    ("runtime.protocol.reboots", "count", "lower"),
    ("energy.calls", "count", "lower"),
    ("energy.s", "s", "lower"),
    ("emi.calls", "count", "lower"),
    ("emi.s", "s", "lower"),
    ("analog.samples", "count", "lower"),
    ("analog.s", "s", "lower"),
    ("analog.trips", "count", "lower"),
    ("exhaustive.trace_s", "s", "lower"),
    ("exhaustive.reduce_s", "s", "lower"),
    ("exhaustive.enumerated", "count", "lower"),
    ("exhaustive.representatives", "count", "lower"),
    ("exhaustive.forks", "count", "lower"),
    ("exhaustive.fork_p50_ms", "ms", "lower"),
    ("exhaustive.fork_p95_ms", "ms", "lower"),
    ("eval.resilient.tasks", "count", "lower"),
    ("eval.resilient.worker_busy_s", "s", "lower"),
    ("eval.resilient.wait_s", "s", "lower"),
    ("eval.resilient.utilization", "ratio", "higher"),
    ("eval.resilient.payload_bytes", "B", "lower"),
    ("eval.resilient.retries", "count", "lower"),
    ("eval.resilient.worker_restarts", "count", "lower"),
    ("eval.campaign.task_p50_ms", "ms", "lower"),
    ("eval.campaign.task_p95_ms", "ms", "lower"),
    ("store.gets", "count", "lower"),
    ("store.get_s", "s", "lower"),
    ("store.puts", "count", "lower"),
    ("store.put_s", "s", "lower"),
    ("store.hit_ratio", "ratio", "higher"),
    ("store.digest_s", "s", "lower"),
    ("torture.cases", "count", "higher"),
    ("torture.generate_s", "s", "lower"),
    ("torture.run_s.interpreter", "s", "lower"),
    ("torture.run_s.threaded", "s", "lower"),
    ("torture.crashes", "count", "higher"),
    ("torture.violations", "count", "lower"),
    ("periph.deliveries", "count", "higher"),
    ("periph.heals", "count", "higher"),
) + tuple((f"{layer}.self_s", "s", "lower") for layer in LAYERS) + (
    ("trace.uncovered_share", "ratio", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
)


def per_layer_metrics(rec: Recorder, rounds: int, import_s: float,
                      setup_compile_s: float, untraced_wall_s: float,
                      traced_wall_s: float) -> Dict[str, Tuple[float, str]]:
    """Every :data:`PER_LAYER` metric from one parent recorder that has
    collected its workers' spools, over ``rounds`` traced rounds."""
    counters = rec.counters

    def n(label):
        return counters.get("n:" + label, 0.0)

    def t(label):
        return counters.get("t:" + label, 0.0)

    def c(name):
        return counters.get("c:" + name, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    layer_self = {layer: counters.get("self:" + layer, 0.0)
                  for layer in LAYERS}
    own = span_self_times(rec.spans)
    uncovered = bench_wall = busy = capacity = wait = 0.0
    for span in rec.spans:
        dur = span[T1] - span[T0]
        if span[LAYER] == BENCH:
            uncovered += own[span[SID]]
            if span[LABEL] == "bench.round":
                bench_wall += dur
            continue
        layer_self[span[LAYER]] = layer_self.get(span[LAYER], 0.0) \
            + own[span[SID]]
        if span[LABEL] == "resilient.run":
            capacity += dur * (span[ATTRS] or {}).get("workers", 1)
        elif span[LABEL] == "resilient.task":
            busy += dur
            dispatched = rec.marks.get(span[TASK])
            if span[PID] != rec.pid and dispatched is not None:
                wait += max(0.0, span[T0] - dispatched)
    gets = n("store.get")
    fork_ms = [1e3 * s for s in rec.samples.get("fork_s", ())]
    task_ms = [1e3 * s for s in rec.samples.get("campaign_task_s", ())]
    per_round = {
        "core.compile_calls": n("core.compile_scheme"),
        "core.compile_s": counters.get("tot:core", 0.0),
        "runtime.threaded.blocks": n("threaded.compile_block"),
        "runtime.threaded.block_compile_s": t("threaded.compile_block"),
        "runtime.backend.slices": n("backend.run_slice"),
        "runtime.backend.slice_s": t("backend.run_slice"),
        "runtime.backend.instrs": c("instrs"),
        "runtime.backend.step_fallbacks": c("step_fallbacks"),
        "runtime.machine.snapshots": n("machine.snapshot"),
        "runtime.machine.restores": n("machine.restore"),
        "runtime.machine.restore_s": t("machine.restore"),
        "runtime.simulator.idle_slices": c("idle_slices"),
        "runtime.protocol.calls": sum(
            n(f"protocol.{name}") for name in
            ("tick", "on_power_off", "on_checkpoint_signal", "on_reboot")),
        "runtime.protocol.s": counters.get("tot:runtime.protocol", 0.0),
        "runtime.protocol.jit_checkpoints": c("jit_checkpoints"),
        "runtime.protocol.ckpt_failures": c("ckpt_failures"),
        "runtime.protocol.rollback_restores": c("rollback_restores"),
        "runtime.protocol.reboots": n("protocol.on_reboot"),
        "energy.calls": sum(n(f"energy.{name}") for name in (
            "harvest", "consume_cycles", "consume_sleep",
            "checkpoint_budget_cycles")),
        "energy.s": counters.get("tot:energy", 0.0),
        "emi.calls": sum(n(f"emi.{name}") for name in (
            "source_at", "received_power_w", "induced_amplitude")),
        "emi.s": counters.get("tot:emi", 0.0),
        "analog.samples": n("analog.sample"),
        "analog.s": t("analog.sample"),
        "analog.trips": c("trips"),
        "exhaustive.trace_s": t("exhaustive.capture_trace"),
        "exhaustive.reduce_s": t("exhaustive.liveness")
        + t("exhaustive.reduce"),
        "exhaustive.enumerated": c("enumerated"),
        "exhaustive.representatives": c("representatives"),
        "exhaustive.forks": n("exhaustive.fork"),
        "eval.resilient.tasks": n("resilient.task"),
        "eval.resilient.worker_busy_s": busy,
        "eval.resilient.wait_s": wait,
        "eval.resilient.payload_bytes": c("payload_bytes"),
        "eval.resilient.retries": c("retries"),
        "eval.resilient.worker_restarts": c("worker_restarts"),
        "store.gets": gets,
        "store.get_s": t("store.get"),
        "store.puts": n("store.put"),
        "store.put_s": t("store.put"),
        "store.digest_s": t("store.run_digest"),
        "torture.cases": c("torture_cases"),
        "torture.generate_s": t("torture.generate_case"),
        "torture.run_s.interpreter": t("torture.run.interpreter"),
        "torture.run_s.threaded": t("torture.run.threaded"),
        "torture.crashes": c("torture_crashes"),
        "torture.violations": c("torture_violations"),
        "periph.deliveries": c("periph_deliveries"),
        "periph.heals": c("periph_heals"),
        "trace.spans": float(len(rec.spans)),
    }
    per_round.update({f"{layer}.self_s": value
                      for layer, value in layer_self.items()
                      if layer in LAYERS})
    values = {name: value / rounds for name, value in per_round.items()}
    values.update({
        "repro.import_s": import_s,
        "core.setup_compile_s": setup_compile_s,
        "runtime.backend.instrs_per_slice": ratio(
            c("instrs"), n("backend.run_slice")),
        "exhaustive.fork_p50_ms": percentile(fork_ms, 50),
        "exhaustive.fork_p95_ms": percentile(fork_ms, 95),
        "eval.resilient.utilization": ratio(busy, capacity),
        "eval.campaign.task_p50_ms": percentile(task_ms, 50),
        "eval.campaign.task_p95_ms": percentile(task_ms, 95),
        "store.hit_ratio": ratio(c("store_hits"), gets),
        "trace.uncovered_share": ratio(uncovered, bench_wall),
        "trace.wall_s": traced_wall_s,
        "trace.overhead_s": traced_wall_s - untraced_wall_s,
    })
    return {name: (values[name], unit) for name, unit, _ in PER_LAYER}


def perfetto_trace(spans: Sequence[list], parent_pid: int) -> dict:
    """Spans as a Chrome-trace/Perfetto timeline in the layout
    :func:`repro.obs.write_perfetto` writes: one process lane per pid
    (the benchmark, then each pool worker), microsecond timestamps from
    the first span, metadata first, then events in time order."""
    if not spans:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    origin = min(span[T0] for span in spans)
    pids = sorted({span[PID] for span in spans},
                  key=lambda pid: (pid != parent_pid, pid))
    events = []
    for pid in pids:
        label = "benchmark" if pid == parent_pid else f"worker {pid}"
        events.append({"ph": "M", "name": "process_name", "pid": pid,
                       "ts": 0, "args": {"name": label}})
        events.append({"ph": "M", "name": "thread_name", "pid": pid,
                       "tid": pid, "ts": 0, "args": {"name": label}})
    for span in spans:
        events.append({
            "ph": "X", "name": span[LABEL], "cat": span[LAYER],
            "pid": span[PID], "tid": span[PID],
            "ts": (span[T0] - origin) * 1e6,
            "dur": (span[T1] - span[T0]) * 1e6,
            "args": {"span": span[SID], "parent": span[PARENT],
                     "task": span[TASK]},
        })
    events.sort(key=lambda e: (e["ts"], e["ph"] != "M"))
    return {"traceEvents": events, "displayTimeUnit": "ms"}

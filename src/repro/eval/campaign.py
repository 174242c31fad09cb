"""Declarative experiment campaigns: a sweep is data, not a for-loop.

Every figure and table in the paper's evaluation (§IV, §VII) is a sweep —
over frequency, distance, capacitance, scheme, or device.  This module
turns those sweeps into values:

* :class:`ExperimentSpec` — one victim + attack + path + sim config, plus
  ``sweep`` axes that expand into the cartesian grid of runs;
* :class:`CampaignRunner` — executes the grid, serially or across a
  ``multiprocessing`` pool (specs are picklable; each worker builds its own
  simulator), with a keyed compile cache (each (workload, scheme, budget)
  compiles once per campaign) and baseline deduplication (the silent-attack
  baseline for a victim runs once and is shared by every attacked point);
* :class:`CampaignResult` — per-run results, rates, timings and failures,
  serializable to JSON.

A 41-point Fig. 4-style sweep therefore costs one compile, one baseline,
and 41 attacked runs, instead of 41 of each::

    spec = ExperimentSpec(
        victim=VictimConfig(device_name="TI-MSP430FR5994", duration_s=0.03),
        attack=AttackSpec.tone(tx_dbm=20.0),
        path=PathSpec.dpi("P2"),
        sweep={"attack.freq_mhz": frequency_sweep_mhz()},
    )
    campaign = CampaignRunner(workers=4).run(spec)
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import time
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..emi import AttackSchedule, DPIPath, EMISource, RemotePath
from ..errors import ReproError
from ..obs import (
    CAMPAIGN_RETRIES,
    CAMPAIGN_TIMEOUTS,
    CAMPAIGN_WORKER_RESTARTS,
    Observability,
    merge_flat,
)
from ..runtime import IntermittentSimulator, Machine, SimResult, runtime_for
from ..runtime.metrics import forward_progress_rate
from ..store.digest import jsonable as _jsonable
from ..store.digest import content_digest, run_digest
from .common import REMOTE_DISTANCE_M, REMOTE_TX_DBM, VictimConfig
from .resilient import (
    ExecStats,
    ResilientExecutor,
    RetryPolicy,
    TaskResult,
    default_start_method,
)


class CampaignError(ReproError):
    """An experiment spec that cannot be expanded or executed."""


# ----------------------------------------------------------------------
# Declarative attack / path descriptions (picklable, cache-keyable).
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AttackSpec:
    """A tone described by data; the schedule is built per grid point.

    ``freq_mhz=None`` resolves to the victim monitor's resonant peak at
    build time (the paper's "most effective tone").  ``windows`` are
    (start, end) fractions of the run window; ``None`` means a continuous
    tone from t=0 and ``()`` means no transmission at all.
    """

    freq_mhz: Optional[float] = None
    tx_dbm: float = REMOTE_TX_DBM
    windows: Optional[Tuple[Tuple[float, float], ...]] = None

    @classmethod
    def silent(cls) -> "AttackSpec":
        return cls(windows=())

    @classmethod
    def tone(cls, freq_mhz: Optional[float] = None,
             tx_dbm: float = REMOTE_TX_DBM) -> "AttackSpec":
        return cls(freq_mhz=freq_mhz, tx_dbm=tx_dbm)

    @classmethod
    def bursts(cls, windows: Sequence[Tuple[float, float]],
               freq_mhz: Optional[float] = None,
               tx_dbm: float = REMOTE_TX_DBM) -> "AttackSpec":
        return cls(freq_mhz=freq_mhz, tx_dbm=tx_dbm,
                   windows=tuple(tuple(w) for w in windows))

    def build(self, victim: VictimConfig, duration_s: float) -> AttackSchedule:
        if self.windows == ():
            return AttackSchedule.silent()
        if self.freq_mhz is not None:
            freq_hz = self.freq_mhz * 1e6
        else:
            curve = victim.profile().curve_for(victim.monitor_kind)
            freq_hz = curve.peak_frequency()
        source = EMISource(freq_hz, self.tx_dbm)
        if self.windows is None:
            return AttackSchedule.always(source)
        schedule = AttackSchedule()
        for start, end in self.windows:
            schedule.add(start * duration_s, end * duration_s, source)
        return schedule


@dataclass(frozen=True)
class PathSpec:
    """Remote (over-the-air) or DPI (wired) coupling, as data."""

    kind: str = "remote"               # "remote" | "dpi"
    distance_m: float = REMOTE_DISTANCE_M
    walls: int = 0
    point: str = "P2"                  # DPI injection point

    @classmethod
    def remote(cls, distance_m: float = REMOTE_DISTANCE_M,
               walls: int = 0) -> "PathSpec":
        return cls(kind="remote", distance_m=distance_m, walls=walls)

    @classmethod
    def dpi(cls, point: str = "P2") -> "PathSpec":
        return cls(kind="dpi", point=point)

    def build(self):
        if self.kind == "remote":
            return RemotePath(distance_m=self.distance_m, walls=self.walls)
        if self.kind == "dpi":
            return DPIPath(point=self.point)
        raise CampaignError(f"unknown path kind {self.kind!r}")


def _build_attack(attack: Any, victim: VictimConfig,
                  duration_s: float) -> AttackSchedule:
    """Specs build per point; raw AttackSchedule objects pass through."""
    if isinstance(attack, AttackSpec):
        return attack.build(victim, duration_s)
    return attack


def _build_path(path: Any):
    return path.build() if isinstance(path, PathSpec) else path


def _key_of(obj: Any) -> Any:
    """A hashable cache key for a spec or a raw schedule/path object."""
    return obj if isinstance(obj, (AttackSpec, PathSpec)) else repr(obj)


#: The attack side of a run: the fields :meth:`RunSpec.silenced` clears
#: and :meth:`RunSpec.baseline_key` leaves out.
_ATTACK_SIDE = ("attack", "fault", "chaos")


# ----------------------------------------------------------------------
# Grid points.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunSpec:
    """One fully-resolved grid point.  Picklable: workers build their own
    simulator from it, so campaigns fan out across processes safely.

    Its fields are the one definition of a run: the serve codec
    (:mod:`repro.serve.codec`), :meth:`baseline_key`, :meth:`silenced`
    and :meth:`ExperimentSpec._resolve` read them by name."""

    victim: VictimConfig
    attack: Any = field(default_factory=AttackSpec.silent)
    path: Any = field(default_factory=PathSpec)
    duration_s: Optional[float] = None
    sim_overrides: Tuple[Tuple[str, Any], ...] = ()
    mode: str = "fixed"                # "fixed" | "batch"
    target_completions: int = 0        # batch mode: stop after this many
    batch_window_s: float = 0.05       # batch mode: sim window per step
    max_sim_s: float = 20.0            # batch mode: hard time stop
    #: Optional fault injection (a :class:`~repro.faultsim.FaultSpec`);
    #: the worker builds the injector, so grid points stay picklable.
    fault: Any = None
    #: Attach a deterministic :class:`~repro.obs.Observability` bundle to
    #: the run; its metrics travel back inside :attr:`SimResult.metrics`,
    #: so serial and pooled executions aggregate identically.
    telemetry: bool = False
    #: Optional misbehavior drill (a :class:`~repro.eval.resilient.ChaosSpec`)
    #: tripped at the top of the run — how crash/hang/retry recovery is
    #: exercised end-to-end without faking the executor.
    chaos: Any = None

    @property
    def duration(self) -> float:
        return self.duration_s if self.duration_s is not None \
            else self.victim.duration_s

    def compile_key(self) -> Tuple:
        return self.victim.compile_key()

    def baseline_key(self) -> Tuple:
        """Everything the silent baseline depends on: every field off the
        attack side, in field order — the victim by its cache key, the
        path by :func:`_key_of`, the duration resolved.  A field added
        later therefore splits baselines instead of being shared."""
        keyed = {"victim": self.victim.cache_key(),
                 "path": _key_of(self.path), "duration_s": self.duration}
        return tuple(keyed[name] if name in keyed else getattr(self, name)
                     for name in _BASELINE_FIELDS)

    def silenced(self) -> "RunSpec":
        """The golden reference point: the attack side at its defaults
        (no attack, no injected fault, no drill)."""
        return replace(self, **{
            f.name: f.default_factory() if f.default is MISSING
            else f.default
            for f in fields(self) if f.name in _ATTACK_SIDE})


#: The fields :meth:`RunSpec.baseline_key` keys on, in field order.
_BASELINE_FIELDS = tuple(f.name for f in fields(RunSpec)
                         if f.name not in _ATTACK_SIDE)


def execute_run(run: RunSpec, compiled) -> SimResult:
    """Build a fresh simulator for one grid point and run it."""
    if run.chaos is not None:
        run.chaos.trip()
    victim = run.victim
    duration = run.duration
    injector = None
    if run.fault is not None:
        from ..faultsim.injector import FaultInjector  # avoid import cycle
        injector = FaultInjector(run.fault)
    obs = Observability.for_telemetry() if run.telemetry else None
    sim = IntermittentSimulator(
        machine=Machine(compiled.linked),
        runtime=runtime_for(compiled),
        power=victim.power_system(),
        attack=_build_attack(run.attack, victim, duration),
        path=_build_path(run.path),
        device_profile=victim.profile(),
        monitor_kind=victim.monitor_kind,
        config=victim.sim_config(**dict(run.sim_overrides)),
        fault_injector=injector,
        obs=obs,
        backend=victim.backend,
    )
    if run.mode == "batch":
        return _run_batch(sim, run)
    if run.mode != "fixed":
        raise CampaignError(f"unknown run mode {run.mode!r}")
    return sim.run(duration)


def _run_batch(sim: IntermittentSimulator, run: RunSpec) -> SimResult:
    """Fixed-batch mode (Fig. 15): simulate windows until the completion
    target is met or ``max_sim_s`` of simulated time elapses."""
    total = SimResult()
    start_t = sim.t
    while total.completions < run.target_completions \
            and sim.t < run.max_sim_s:
        window = sim.run(run.batch_window_s)
        _merge_window(total, window)
    total.duration_s = sim.t - start_t
    return total


def _merge_window(total: SimResult, window: SimResult) -> None:
    total.executed_cycles += window.executed_cycles
    total.overhead_cycles += window.overhead_cycles
    total.completions += window.completions
    total.reboots += window.reboots
    total.brownouts += window.brownouts
    total.completion_times.extend(window.completion_times)
    total.committed_outputs.extend(window.committed_outputs)
    total.timeline.extend(window.timeline)
    # Runtime-stat fields are cumulative snapshots, not per-window deltas.
    total.jit_checkpoints = window.jit_checkpoints
    total.jit_checkpoint_failures = window.jit_checkpoint_failures
    total.attacks_detected = window.attacks_detected
    total.rollback_restores = window.rollback_restores
    total.marks_committed = window.marks_committed
    total.final_state = window.final_state
    # The simulator snapshots metrics/events cumulatively at the end of
    # every window, so the latest window carries the whole history.
    if window.metrics:
        total.metrics = window.metrics
    if window.events:
        total.events = window.events
    if window.machine_fault:
        total.machine_fault = window.machine_fault


# ----------------------------------------------------------------------
# The spec.
# ----------------------------------------------------------------------
@dataclass
class ExperimentSpec:
    """A whole experiment as data: base point + sweep axes.

    ``sweep`` maps axis targets to value lists; the grid is the cartesian
    product in declaration order.  Axis targets:

    * ``"victim"`` / ``"attack"`` / ``"path"`` — replace the whole object
      (for coupled parameters, e.g. Fig. 15's threshold-matched victims);
    * ``"victim.<field>"`` — :meth:`VictimConfig.with_overrides`;
    * ``"attack.<field>"`` / ``"path.<field>"`` — spec field replacement;
    * ``"sim.<field>"`` — a :class:`SimConfig` override;
    * ``"duration_s"`` — the run window;
    * ``"backend"`` — the execution backend ("interpreter" | "threaded"),
      shorthand for ``"victim.backend"``;
    * ``"fault"`` — a fault injection per point (:mod:`repro.faultsim`);
    * ``"chaos"`` — a misbehavior drill per point
      (:class:`~repro.eval.resilient.ChaosSpec`);
    * ``"*"`` — a *paired* axis: each value is a mapping of the targets
      above, applied together as one grid point.  This is how coupled
      parameters sweep without a cartesian blow-up — e.g. the adversary
      search's (attack, path, duration) candidates.

    ``baseline=True`` runs the silent-attack baseline for every distinct
    (victim, path, duration, sim config) and attaches forward-progress
    rates to the outcomes; identical baselines are computed once.
    """

    name: str = "campaign"
    victim: VictimConfig = field(default_factory=VictimConfig)
    attack: Any = field(default_factory=AttackSpec.silent)
    path: Any = field(default_factory=PathSpec)
    duration_s: Optional[float] = None
    sim_overrides: Mapping[str, Any] = field(default_factory=dict)
    sweep: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    baseline: bool = True
    mode: str = "fixed"
    target_completions: int = 0
    batch_window_s: float = 0.05
    max_sim_s: float = 20.0
    fault: Any = None
    #: Attach per-run observability metrics (see :attr:`RunSpec.telemetry`).
    telemetry: bool = False
    #: Misbehavior drill applied to every point (see :attr:`RunSpec.chaos`).
    chaos: Any = None
    #: Execution backend for every point; ``None`` keeps the victim's own
    #: :attr:`VictimConfig.backend` (sweepable via the ``"backend"`` axis).
    backend: Optional[str] = None

    def expand(self) -> List[Tuple[Dict[str, Any], RunSpec]]:
        """The (params, run) grid, in cartesian-product order."""
        axes = list(self.sweep.items())
        grid = []
        for values in itertools.product(*(vals for _, vals in axes)):
            params = dict(zip((target for target, _ in axes), values))
            grid.append((params, self._resolve(params)))
        return grid

    def _resolve(self, params: Mapping[str, Any]) -> RunSpec:
        state = {name: getattr(self, name) for name in _SPEC_FIELDS}
        if self.backend is not None:
            state["victim"] = self.victim.with_overrides(backend=self.backend)
        overrides = dict(self.sim_overrides)

        def apply(target: str, value: Any) -> None:
            if target in _WHOLE_AXES:
                state[target] = value
            elif target == "backend":
                state["victim"] = \
                    state["victim"].with_overrides(backend=value)
            elif target.startswith("victim."):
                state["victim"] = \
                    state["victim"].with_overrides(**{target[7:]: value})
            elif target.startswith("attack."):
                if not isinstance(state["attack"], AttackSpec):
                    raise CampaignError(
                        f"axis {target!r} needs an AttackSpec base attack")
                state["attack"] = replace(state["attack"], **{target[7:]: value})
            elif target.startswith("path."):
                if not isinstance(state["path"], PathSpec):
                    raise CampaignError(
                        f"axis {target!r} needs a PathSpec base path")
                state["path"] = replace(state["path"], **{target[5:]: value})
            elif target.startswith("sim."):
                overrides[target[4:]] = value
            else:
                raise CampaignError(f"unknown sweep axis {target!r}")

        for target, value in params.items():
            if target == "*":
                if not isinstance(value, Mapping):
                    raise CampaignError(
                        f"paired axis '*' values must be mappings of axis "
                        f"targets, got {type(value).__name__}")
                for sub_target, sub_value in value.items():
                    if sub_target == "*":
                        raise CampaignError("paired axis '*' cannot nest")
                    apply(sub_target, sub_value)
            else:
                apply(target, value)
        state["sim_overrides"] = tuple(sorted(overrides.items()))
        return RunSpec(**state)


#: The RunSpec fields an ExperimentSpec sets for every point, by name.
_SPEC_FIELDS = tuple(f.name for f in fields(RunSpec)
                     if f.name in {g.name for g in fields(ExperimentSpec)})
#: Sweep axes that replace a whole RunSpec field.
_WHOLE_AXES = ("victim", "attack", "path", "duration_s", "fault", "chaos")


# ----------------------------------------------------------------------
# Results.  (``_jsonable`` is the canonical :func:`repro.store.digest.
# jsonable` — one folding rule for digests and serialization alike.)
# ----------------------------------------------------------------------
@dataclass
class RunOutcome:
    """One grid point's accounting: result, rate, timing, failure."""

    index: int
    params: Dict[str, Any] = field(default_factory=dict)
    result: Optional[SimResult] = None
    baseline: Optional[SimResult] = None   # shared object across outcomes
    progress_rate: Optional[float] = None
    error: Optional[str] = None
    #: Taxonomy tag (:data:`~repro.eval.resilient.ERROR_KINDS`): why the
    #: run failed — or :data:`~repro.eval.resilient.RETRIED_OK` when it
    #: failed at least once and a retry saved it (``ok`` stays True).
    error_kind: Optional[str] = None
    #: Traceback tail of the final failed attempt, when one raised.
    traceback: Optional[str] = None
    #: Execution attempts this outcome took.
    attempts: int = 1
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "params": _jsonable(self.params),
            "progress_rate": self.progress_rate,
            "error": self.error,
            "error_kind": self.error_kind,
            "traceback": self.traceback,
            "attempts": self.attempts,
            "elapsed_s": self.elapsed_s,
            "result": self.result.to_dict() if self.result else None,
        }


@dataclass
class CampaignStats:
    """Cache effectiveness and cost accounting for one campaign."""

    grid_points: int = 0
    compiles: int = 0
    compile_cache_hits: int = 0
    baseline_runs: int = 0
    baseline_cache_hits: int = 0
    failures: int = 0
    workers: int = 1
    wall_time_s: float = 0.0
    # Resilience accounting (see repro.eval.resilient).
    retries: int = 0
    timeouts: int = 0
    worker_crashes: int = 0
    worker_restarts: int = 0
    budget_exceeded: int = 0
    # Result-store accounting (see repro.store): grid points served from
    # the content-addressed store vs executed (then stored).
    store_hits: int = 0
    store_misses: int = 0
    store_puts: int = 0


@dataclass
class CampaignResult:
    """Everything a campaign produced, serializable to JSON."""

    name: str
    stats: CampaignStats = field(default_factory=CampaignStats)
    outcomes: List[RunOutcome] = field(default_factory=list)
    baselines: List[RunOutcome] = field(default_factory=list)

    def results(self) -> List[Optional[SimResult]]:
        return [outcome.result for outcome in self.outcomes]

    def rates(self) -> List[Optional[float]]:
        return [outcome.progress_rate for outcome in self.outcomes]

    def failures(self) -> List[RunOutcome]:
        return [o for o in self.outcomes + self.baselines if o.error]

    def aggregate_metrics(self) -> Dict[str, Any]:
        """Campaign-level telemetry: every outcome's flat metrics summed.

        Aggregation is in outcome order over data that travelled inside
        the (picklable) results, so a serial run and a pooled run of the
        same spec produce identical dictionaries.
        """
        total: Dict[str, Any] = {}
        for outcome in self.baselines + self.outcomes:
            if outcome.result is not None and outcome.result.metrics:
                merge_flat(total, outcome.result.metrics)
        return total

    def metrics_fingerprint(self) -> str:
        """Content digest of :meth:`aggregate_metrics`."""
        return content_digest(self.aggregate_metrics())

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "stats": dataclasses.asdict(self.stats),
            "outcomes": [o.to_dict() for o in self.outcomes],
            "baselines": [o.to_dict() for o in self.baselines],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def save(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json() + "\n")


# ----------------------------------------------------------------------
# Execution: serial fast path or a resilient process pool.
# ----------------------------------------------------------------------
def _compiled(compile_cache: Dict[Tuple, Any], victim: VictimConfig):
    """``victim``'s compiled program, compiled into the cache on a miss."""
    key = victim.compile_key()
    compiled = compile_cache.get(key)
    if compiled is None:
        compiled = compile_cache[key] = victim.compile()
    return compiled


def _run_point(compile_cache: Dict[Tuple, Any], run: RunSpec) -> SimResult:
    """The resilient executor's task function: one grid point per call,
    against the compile cache the executor hands every worker (the
    campaign server's workers start theirs empty, so a compile error
    fails its run as a simulation error)."""
    return execute_run(run, _compiled(compile_cache, run.victim))


class CampaignRunner:
    """Executes :class:`ExperimentSpec` grids with compile caching,
    baseline deduplication, and a resilient worker pool.

    The compile cache persists across :meth:`run` calls (and can be seeded
    via ``compile_cache``), so multi-stage experiments — e.g. a rate sweep
    followed by failure-rate reruns at the biting frequencies — reuse the
    same compiled artifacts.

    Resilience knobs (see :mod:`repro.eval.resilient`):

    * ``policy`` — per-run timeout, bounded retries with seeded backoff,
      and a campaign wall-clock budget;
    * ``start_method`` — explicit pool start method (default ``fork``
      where available); ``spawn`` works because the compile cache is the
      executor's worker context, pickled once per worker;
    * ``obs`` — campaign-level counters (``campaign.retries``,
      ``campaign.timeouts``, ``campaign.worker_restarts``) are recorded
      on this bundle's metrics registry.  They stay out of the per-run
      metrics, so fingerprints compare clean runs to resumed ones.

    Store-backed memoization (see :mod:`repro.store`, :mod:`repro.serve`),
    one of:

    * ``store`` — a :class:`~repro.store.ResultStore` (any object with
      ``get(digest)`` / ``put(digest, value, meta)``).  Every task is
      keyed by its content digest (:func:`~repro.store.digest.run_digest`
      — campaign-independent, so hits cross campaign and process
      boundaries); hits skip compilation and simulation entirely, misses
      execute and are written back one by one as they finish, so a
      campaign killed mid-run resumes from the same store with an
      identical :meth:`CampaignResult.metrics_fingerprint`.
    * ``dispatcher`` — an object with ``execute(tasks) -> [TaskResult]``
      (a :class:`~repro.serve.client.ServeClient`): every task goes there
      in one call, compiling nothing locally — e.g. to a ``repro-gecko
      serve`` instance, which answers warm runs from its own store and
      queues the rest; results flagged ``stored`` count as store hits.
    """

    def __init__(self, workers: int = 1,
                 compile_cache: Optional[Dict[Tuple, Any]] = None,
                 reraise: bool = False,
                 policy: Optional[RetryPolicy] = None,
                 start_method: Optional[str] = None,
                 obs: Optional[Observability] = None,
                 store: Optional[Any] = None,
                 dispatcher: Optional[Any] = None) -> None:
        self.workers = max(1, int(workers))
        self.compile_cache: Dict[Tuple, Any] = \
            compile_cache if compile_cache is not None else {}
        self.reraise = reraise
        self.policy = policy if policy is not None else RetryPolicy()
        self.start_method = start_method if start_method is not None \
            else default_start_method()
        self.obs = obs
        if store is not None and dispatcher is not None:
            raise CampaignError("a campaign takes a store or a dispatcher,"
                                " not both: a server keeps its own store")
        self.store = store
        self.dispatcher = dispatcher

    # ------------------------------------------------------------------
    def compile(self, victim: VictimConfig):
        """``victim``'s compiled program from the compile cache, compiled
        and cached on first request."""
        return _compiled(self.compile_cache, victim)

    def run(self, spec: ExperimentSpec) -> CampaignResult:
        start = time.perf_counter()
        stats = CampaignStats(workers=self.workers)
        grid = spec.expand()
        if not grid:
            raise CampaignError("spec expanded to an empty grid")
        stats.grid_points = len(grid)

        # Baseline dedup: one silent run per distinct baseline key.
        baseline_slot: Dict[Tuple, int] = {}
        baseline_specs: List[RunSpec] = []
        if spec.baseline:
            for _, run in grid:
                key = run.baseline_key()
                if key in baseline_slot:
                    stats.baseline_cache_hits += 1
                else:
                    baseline_slot[key] = len(baseline_specs)
                    baseline_specs.append(run.silenced())
                    stats.baseline_runs += 1

        # Baselines and attacked points are independent simulations, so
        # they share one task list (and one pool pass).
        tasks = [(i, run) for i, run in enumerate(baseline_specs)]
        offset = len(tasks)
        tasks += [(offset + i, run) for i, (_, run) in enumerate(grid)]

        # Store lookups happen before compiling: compile keys whose every
        # run is store-served are never needed, so a warm store — or a
        # rerun after a kill — skips the compiles too (the hit path
        # invokes neither the compiler nor the simulator).
        store_hits: Dict[int, dict] = {}
        store_digests: Dict[int, str] = {}
        if self.store is not None:
            for index, run in tasks:
                key = run_digest(run)
                store_digests[index] = key
                entry = self.store.get(key)
                if entry is not None:
                    store_hits[index] = entry
        needed = {run.compile_key() for index, run in tasks
                  if index not in store_hits} \
            if self.dispatcher is None else set()
        for _, run in grid:
            key = run.compile_key()
            if key in self.compile_cache:
                stats.compile_cache_hits += 1
            elif key in needed:
                self.compile_cache[key] = run.victim.compile()
                stats.compiles += 1

        raw = self._run_tasks(tasks, stats, store_hits, store_digests,
                              spec.name)
        if self.reraise:
            self._reraise_first_failure(raw)

        baselines = [
            RunOutcome(index=i, result=tr.result, error=tr.error,
                       error_kind=tr.error_kind, traceback=tr.traceback,
                       attempts=tr.attempts, elapsed_s=tr.elapsed_s)
            for i, tr in enumerate(raw[:offset])
        ]
        outcomes: List[RunOutcome] = []
        for i, ((params, run), tr) in enumerate(zip(grid, raw[offset:])):
            outcome = RunOutcome(index=i, params=params, result=tr.result,
                                 error=tr.error, error_kind=tr.error_kind,
                                 traceback=tr.traceback,
                                 attempts=tr.attempts,
                                 elapsed_s=tr.elapsed_s)
            if spec.baseline and tr.result is not None:
                base = baselines[baseline_slot[run.baseline_key()]].result
                outcome.baseline = base
                if base is not None:
                    outcome.progress_rate = forward_progress_rate(
                        tr.result, base)
            outcomes.append(outcome)
        stats.failures = sum(1 for o in outcomes + baselines if o.error)
        stats.wall_time_s = time.perf_counter() - start
        return CampaignResult(name=spec.name, stats=stats,
                              outcomes=outcomes, baselines=baselines)

    # ------------------------------------------------------------------
    def _run_tasks(self, tasks, stats: CampaignStats,
                   store_hits: Dict[int, dict],
                   store_digests: Dict[int, str],
                   name: str) -> List[TaskResult]:
        """Dispatch the unified task list through the resilient executor.

        Serial and pooled execution share one path — taxonomy, retries
        and budget behave identically — so ``reraise`` and failure
        accounting no longer fork on ``workers``.

        With a ``store`` attached, hit tasks are decoded straight from
        the store (no simulator, no compiler) and locally executed misses
        are written back by the executor's result sink the moment each
        one finishes, so the next campaign to resolve the same
        :class:`RunSpec` digest — including a rerun of this one after a
        kill — is served from cache.  A dispatcher's server owns its own
        store: nothing is put here, and results flagged ``stored`` are hits.
        """
        results: Dict[int, TaskResult] = {}
        for index, entry in store_hits.items():
            value = entry.get("value") if isinstance(entry, dict) else None
            results[index] = TaskResult(
                index=index,
                result=SimResult.from_dict(value) if value is not None
                else None,
                stored=True)
        todo = [(index, run) for index, run in tasks
                if index not in store_hits]
        exec_stats = ExecStats()
        store_puts = 0

        def write_back(tr: TaskResult) -> None:
            nonlocal store_puts
            if tr.ok and tr.result is not None and self.store.put(
                    store_digests[tr.index], tr.result.to_dict(),
                    meta={"name": name, "elapsed_s": tr.elapsed_s}):
                store_puts += 1

        raw: List[TaskResult] = []
        if todo and self.dispatcher is not None:
            raw = self.dispatcher.execute(todo)
        elif todo:
            raw = ResilientExecutor(
                task_fn=_run_point, workers=self.workers,
                policy=self.policy, context=self.compile_cache,
                start_method=self.start_method,
                on_result=write_back if self.store is not None else None,
                stats=exec_stats).run(todo)

        for tr in raw:
            results[tr.index] = tr
        raw = [results[index] for index in sorted(results)]
        if self.store is not None:
            stats.store_hits = len(store_hits)
            stats.store_misses = len(todo)
            stats.store_puts = store_puts
        elif self.dispatcher is not None:
            stats.store_hits = sum(tr.stored for tr in raw)
            stats.store_misses = len(raw) - stats.store_hits
        stats.retries = exec_stats.retries
        stats.timeouts = exec_stats.timeouts
        stats.worker_crashes = exec_stats.worker_crashes
        stats.worker_restarts = exec_stats.worker_restarts
        stats.budget_exceeded = exec_stats.budget_exceeded
        if self.obs is not None:
            metrics = self.obs.metrics
            metrics.count(CAMPAIGN_RETRIES, exec_stats.retries)
            metrics.count(CAMPAIGN_TIMEOUTS, exec_stats.timeouts)
            metrics.count(CAMPAIGN_WORKER_RESTARTS,
                          exec_stats.worker_restarts)
        return raw

    def _reraise_first_failure(self, raw: List[TaskResult]) -> None:
        """``reraise=True`` now applies to pooled execution too: serial
        runs propagate the original exception object, pooled runs raise a
        :class:`CampaignError` carrying the taxonomy and traceback tail
        (the original object died with the worker)."""
        for tr in raw:
            if tr.error is None:
                continue
            if tr.exception is not None:
                raise tr.exception
            detail = f"\n{tr.traceback}" if tr.traceback else ""
            raise CampaignError(
                f"run {tr.index} failed ({tr.error_kind}): "
                f"{tr.error}{detail}")


def run_campaign(spec: ExperimentSpec, workers: int = 1) -> CampaignResult:
    """One-shot convenience: ``CampaignRunner(workers).run(spec)``."""
    return CampaignRunner(workers=workers).run(spec)

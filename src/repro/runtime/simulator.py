"""Whole-system intermittent simulation.

Couples the pieces of Figure 1: harvested power charges a capacitor, the
MCU drains it while executing a compiled program, a voltage monitor watches
the (possibly EMI-corrupted) supply, and a crash-consistency runtime reacts
to the monitor's signals.  The simulator advances in slices: a quantum of
instructions while running, a fixed idle step while sleeping or off.

Device states:

* ``RUNNING``  — core executing; monitor (if the runtime keeps it enabled)
  can raise a CHECKPOINT signal.
* ``SLEEPING`` — post-checkpoint low-power mode (volatile state already
  lost, CTPL-style LPM4.5); the monitor's WAKE signal — genuine or spoofed
  — reboots the device.  This is where the ``V_fail`` corruption attack
  lands.
* ``OFF``      — browned out below ``V_off``; only a genuine power-on reset
  at ``V_on`` (unspoofable) reboots.  GECKO's rollback mode lives here: the
  monitor is disabled, so the attack surface is closed.
* ``FAILED``   — the machine trapped (e.g. resumed from a corrupted JIT
  image); the device is bricked, which is how the paper describes NVP
  under a successful corruption attack (§VII-B3).
"""

from __future__ import annotations

import dataclasses
import enum
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from ..analog.monitor import MonitorEvent, make_monitor
from ..emi.attacker import AttackSchedule
from ..emi.devices import DeviceProfile, EVALUATION_BOARD, device
from ..emi.propagation import RemotePath
from ..errors import MachineFault, SimulationError
from ..energy.power_system import PowerSystem
from ..obs import EMI_OFF, EMI_ON, MONITOR_TRIP, Observability
from ..obs.profiler import maybe as _maybe_prof
from .backend import ExecutionBackend, backend_for
from .machine import Machine

#: Fraction of the incident attack RF the harvester rectifies back into
#: the capacitor (§VI-A: the harvester "collects the attack signals as
#: ambient energy").  The factor folds in the electrically-small antenna's
#: aperture and the rectifier's mismatch at the attack frequency — a watt
#: of airborne tone yields tens of microwatts of charging, like any
#: ambient-RF source (§III, "Weak Input Power").
ATTACK_HARVEST_EFFICIENCY = 3e-5

#: Events copied into :attr:`SimResult.events` at the end of a run — a
#: short excerpt, not the full ring, so results stay cheap to pickle.
EVENT_TAIL = 64


class DeviceState(enum.Enum):
    RUNNING = "running"
    SLEEPING = "sleeping"
    OFF = "off"
    FAILED = "failed"


@dataclass
class SimConfig:
    """Simulation knobs (time scales compressed relative to the paper)."""

    quantum: int = 128              # instructions per running slice
    idle_dt_s: float = 1e-4         # time step while sleeping/off
    #: CTPL-style minimum sleep after a checkpoint-shutdown: the device
    #: stays in LPM for at least this long before honouring a wake signal.
    sleep_min_s: float = 2e-3
    max_slices: int = 5_000_000     # hard safety stop
    record_timeline: bool = False
    timeline_dt_s: float = 0.25     # completion-count sampling period


@dataclass
class SimResult:
    """Everything an experiment needs from one simulated window."""

    duration_s: float = 0.0
    executed_cycles: float = 0.0
    overhead_cycles: float = 0.0      # checkpoint/restore work
    completions: int = 0
    completion_times: List[float] = field(default_factory=list)
    committed_outputs: List[List[int]] = field(default_factory=list)
    marks_committed: int = 0
    reboots: int = 0
    brownouts: int = 0
    machine_fault: Optional[str] = None
    final_state: str = "running"
    jit_checkpoints: int = 0
    jit_checkpoint_failures: int = 0
    attacks_detected: int = 0
    rollback_restores: int = 0
    timeline: List[Tuple[float, int]] = field(default_factory=list)
    #: Flat observability metrics (:meth:`MetricsRegistry.as_dict`) when
    #: the run carried an :class:`~repro.obs.Observability` bundle.
    metrics: Dict[str, Union[int, float]] = field(default_factory=dict)
    #: The last events retained by the bus ring, as JSON-safe dicts — the
    #: per-run excerpt fault campaigns use to explain sdc/brick outcomes.
    events: List[dict] = field(default_factory=list)

    @property
    def checkpoint_failure_rate(self) -> float:
        total = self.jit_checkpoints + self.jit_checkpoint_failures
        if total == 0:
            return 0.0
        return self.jit_checkpoint_failures / total

    def throughput_per_minute(self, window_s: Optional[float] = None) -> float:
        window = window_s or self.duration_s
        if window <= 0:
            return 0.0
        return self.completions * 60.0 / window

    # -- serialization -------------------------------------------------
    def to_dict(self) -> dict:
        """A JSON-safe dict of every field (timeline tuples become lists)."""
        data = dataclasses.asdict(self)
        data["timeline"] = [list(entry) for entry in self.timeline]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "SimResult":
        """Rebuild a result from :meth:`to_dict` output (extra keys ignored)."""
        names = {f.name for f in dataclasses.fields(cls)}
        kwargs = {k: v for k, v in data.items() if k in names}
        if "timeline" in kwargs:
            kwargs["timeline"] = [tuple(entry) for entry in kwargs["timeline"]]
        if "committed_outputs" in kwargs:
            kwargs["committed_outputs"] = [list(run)
                                           for run in kwargs["committed_outputs"]]
        return cls(**kwargs)


class IntermittentSimulator:
    """Drives one device through a simulated window of (attacked) operation."""

    def __init__(self, machine: Machine, runtime, power: PowerSystem,
                 attack: Optional[AttackSchedule] = None,
                 path: Optional[object] = None,
                 device_profile: Optional[DeviceProfile] = None,
                 monitor_kind: str = "adc",
                 config: Optional[SimConfig] = None,
                 fault_injector=None,
                 obs: Optional[Observability] = None,
                 backend: Union[str, ExecutionBackend] = "interpreter") -> None:
        self.machine = machine
        self.runtime = runtime
        #: Execution backend advancing the machine inside running slices
        #: (name or :class:`ExecutionBackend` instance).
        self.backend = backend_for(backend) if isinstance(backend, str) \
            else backend
        self.power = power
        self.attack = attack or AttackSchedule.silent()
        self.path = path or RemotePath()
        self.device = device_profile or device(EVALUATION_BOARD)
        self.monitor_kind = monitor_kind
        self.curve = self.device.curve_for(monitor_kind)
        self.monitor = make_monitor(monitor_kind, power.v_backup, power.v_on)
        self.config = config or SimConfig()
        self.state = DeviceState.OFF  # boots when the capacitor is ready
        self.t = 0.0
        self._sleep_until = 0.0
        self._init_image = list(machine.mem)
        # Observability (:mod:`repro.obs`): one bundle shared by every
        # layer (a Tracer subscribes to its bus).
        self.obs = obs
        self._emi_on = False
        self._prof = None
        if obs is not None:
            obs.bind_clock(lambda: self.t)
            self._prof = _maybe_prof(obs.profiler)
            machine.attach(obs=obs, profiler=self._prof)
            runtime.attach(obs=obs)
            power.attach_obs(obs)
        #: Fault injector (:mod:`repro.faultsim`): wires itself into the
        #: machine/runtime hook points and filters monitor events.
        self.fault = fault_injector
        if fault_injector is not None:
            fault_injector.attach(self)

    # ------------------------------------------------------------------
    def _attack_at(self, t: float) -> Tuple[float, float, float]:
        """(induced amplitude V, frequency Hz, incident power W) at time t."""
        source = self.attack.source_at(t)
        if source is None:
            return 0.0, 0.0, 0.0
        received = self.path.received_power_w(source)
        amplitude = self.curve.induced_amplitude(source.frequency_hz, received)
        if getattr(self.path, "point", None) is not None:
            amplitude *= self.device.dpi_boost  # wired injection
        return amplitude, source.frequency_hz, received

    def _charge(self, dt: float, incident_w: float) -> None:
        extra = 0.0
        if incident_w > 0:
            extra = incident_w * ATTACK_HARVEST_EFFICIENCY
        self.power.harvest(self.t, dt, extra_power_w=extra)

    def _trace_event(self, kind: str, detail: str = "") -> None:
        if self.obs is not None:
            self.obs.emit(kind, detail, t=self.t)

    def _note_attack_window(self) -> None:
        """Emit EMI burst edges (attack tone became active/quiet)."""
        active = self.attack.source_at(self.t) is not None
        if active != self._emi_on:
            self._emi_on = active
            self.obs.emit(EMI_ON if active else EMI_OFF, t=self.t)

    def _consume_runtime_cycles(self, cycles: float,
                                result: SimResult) -> None:
        if cycles > 0:
            self.power.consume_cycles(cycles)
            self.t += self.power.mcu.cycles_to_seconds(cycles)
            result.overhead_cycles += cycles

    # ------------------------------------------------------------------
    def run(self, duration_s: float) -> SimResult:
        """Simulate ``duration_s`` seconds of wall-clock time."""
        result = SimResult()
        start = self.t
        end = self.t + duration_s
        next_timeline = self.t
        slices = 0
        while self.t < end:
            slices += 1
            if slices > self.config.max_slices:
                raise SimulationError("simulation exceeded max_slices")
            if self.config.record_timeline and self.t >= next_timeline:
                result.timeline.append((self.t - start, result.completions))
                next_timeline += self.config.timeline_dt_s
            if self.obs is not None:
                self.obs.sample(self.power.voltage, self.state.value,
                                t=self.t)
                self._note_attack_window()
            if self.state is DeviceState.RUNNING:
                self._slice_running(result)
            elif self.state is DeviceState.FAILED:
                self._slice_idle(result, sleeping=False)
            else:
                self._slice_idle(result,
                                 sleeping=self.state is DeviceState.SLEEPING)
        result.duration_s = self.t - start
        result.final_state = self.state.value
        stats = self.runtime.stats
        result.jit_checkpoints = stats.jit_checkpoints
        result.jit_checkpoint_failures = stats.jit_checkpoint_failures
        result.attacks_detected = stats.attacks_detected
        result.rollback_restores = stats.rollback_restores
        result.marks_committed = self.machine.marks_executed
        if self.obs is not None and self.obs.metrics.enabled:
            # Cumulative snapshots, like the runtime stats above: batch
            # callers re-running the simulator see the whole history.
            result.metrics = self.obs.flat_metrics()
            result.events = self.obs.event_tail(EVENT_TAIL)
        return result

    # ------------------------------------------------------------------
    def _slice_running(self, result: SimResult) -> None:
        machine = self.machine
        prof = self._prof
        t0 = time.perf_counter() if prof is not None else 0.0
        cycles, fault = self.backend.run_slice(machine, self.config.quantum)
        if prof is not None:
            prof.add_wall("machine.step", time.perf_counter() - t0)
        self._record_cycles(cycles, result)
        if fault is not None:
            result.machine_fault = str(fault)
            self.state = DeviceState.FAILED
            return
        self.runtime.tick(machine)

        if machine.halted:
            self._handle_completion(result)
            return
        if self.power.voltage < self.power.v_off:
            self.runtime.on_power_off(machine)
            machine.power_off()
            self.state = DeviceState.OFF
            result.brownouts += 1
            self._trace_event("brownout")
            return
        self._sample_monitor(result, powered=True)

    def _record_cycles(self, cycles: int, result: SimResult) -> None:
        if cycles:
            prof = self._prof
            t0 = time.perf_counter() if prof is not None else 0.0
            self.power.consume_cycles(cycles)
            dt = self.power.mcu.cycles_to_seconds(cycles)
            # The monitor only samples at slice boundaries; mid-slice the
            # attack matters solely through the harvested incident power.
            incident = self._attack_at(self.t)[2]
            self._charge(dt, incident)
            if prof is not None:
                prof.add_wall("energy", time.perf_counter() - t0)
            self.t += dt
            result.executed_cycles += cycles

    def _slice_idle(self, result: SimResult, sleeping: bool) -> None:
        dt = self.config.idle_dt_s
        amplitude, freq, incident = self._attack_at(self.t)
        self._charge(dt, incident)
        if sleeping:
            self.power.consume_sleep(dt)
        self.t += dt
        if self.state is DeviceState.FAILED:
            return
        if sleeping and self.power.voltage < self.power.v_off:
            self.state = DeviceState.OFF
            return
        if sleeping:
            self._sample_monitor(result, powered=False)
        else:
            # OFF: only the genuine power-on reset wakes the device.
            if self.power.voltage >= self.power.v_on:
                self._reboot(result)

    def _sample_monitor(self, result: SimResult, powered: bool) -> None:
        if not self.runtime.monitor_enabled(self.machine):
            return
        amplitude, freq, _ = self._attack_at(self.t)
        prof = self._prof
        t0 = time.perf_counter() if prof is not None else 0.0
        event = self.monitor.sample(self.power.voltage, amplitude, freq,
                                    self.t, powered)
        if prof is not None:
            prof.add_wall("monitor", time.perf_counter() - t0)
        if self.fault is not None:
            # Injected monitor faults obey the same surface the EMI attack
            # does: a disabled monitor never reaches this point.
            event = self.fault.filter_monitor_event(event, powered, self.t)
        if event is not MonitorEvent.NONE and self.obs is not None:
            self.obs.emit(MONITOR_TRIP, event.name.lower(), t=self.t)
        if powered and event is MonitorEvent.CHECKPOINT:
            budget = self.power.checkpoint_budget_cycles()
            failures_before = self.runtime.stats.jit_checkpoint_failures
            try:
                cycles, shutdown = self.runtime.on_checkpoint_signal(
                    self.machine, budget
                )
            except (MachineFault, SimulationError) as fault:
                result.machine_fault = str(fault)
                self.state = DeviceState.FAILED
                self._trace_event("fault", str(fault))
                return
            self._consume_runtime_cycles(cycles, result)
            failed = self.runtime.stats.jit_checkpoint_failures \
                > failures_before
            self._trace_event(
                "checkpoint_failed" if failed else "checkpoint"
            )
            if shutdown:
                self.machine.power_off()
                self.state = DeviceState.SLEEPING
                self._sleep_until = self.t + self.config.sleep_min_s
        elif not powered and event is MonitorEvent.WAKE:
            if self.t >= self._sleep_until:
                self._reboot(result)

    def _reboot(self, result: SimResult) -> None:
        detections_before = self.runtime.stats.attacks_detected
        try:
            cycles = self.runtime.on_reboot(self.machine)
        except (MachineFault, SimulationError) as fault:
            result.machine_fault = str(fault)
            self.state = DeviceState.FAILED
            self._trace_event("fault", str(fault))
            return
        self._consume_runtime_cycles(cycles, result)
        self.state = DeviceState.RUNNING
        result.reboots += 1
        self._trace_event("reboot")
        if self.runtime.stats.attacks_detected > detections_before:
            self._trace_event("detection")
        # A continuous monitor (comparator) latches the first excursion
        # after wake-up, before the core executes a single quantum; a
        # spoofed wake into a genuinely low supply then re-triggers the
        # checkpoint protocol immediately — the V_fail path (§IV-B2).
        if self.monitor.continuous:
            self._sample_monitor(result, powered=True)

    # ------------------------------------------------------------------
    def _handle_completion(self, result: SimResult) -> None:
        machine = self.machine
        result.completions += 1
        result.completion_times.append(self.t)
        self._trace_event("completion")
        result.committed_outputs.append(list(machine.committed_out))
        machine.committed_out.clear()
        # Applications loop forever: a halt restarts the program.
        self._reset_program_state()

    def _reset_program_state(self) -> None:
        """Restart the application: fresh program data, continuous device state.

        Device-level words (mode, detection bookkeeping) persist across
        application iterations; program data, region commits and the JIT
        image reset with the new run.
        """
        machine = self.machine
        preserve = {}
        # __region_done is the monotone progress counter GECKO's DoS
        # detector compares across reboots: wiping it with the application
        # image would erase the evidence of progress and fake an attack.
        for name in ("__mode", "__boots", "__ack_seen", "__done_seen",
                     "__region_done"):
            preserve[name] = machine.read_word(name)
        # The JIT checkpoint area (__jit_valid, __jit_ack, __jit_regs, ...)
        # is device NVM, not application data: on hardware it survives the
        # app's outer loop untouched, and a stale-but-valid image there is
        # exactly what a later interrupted checkpoint partially overwrites.
        spans = {}
        for name, (base, size) in machine.program.symtab.items():
            if name.startswith("__jit_"):
                spans[base] = machine.mem[base:base + size]
        machine.mem[:] = self._init_image
        for name, value in preserve.items():
            machine.write_word(name, 0, value)
        for base, words in spans.items():
            machine.mem[base:base + len(words)] = words
        machine.halted = False
        machine.regs = [0] * len(machine.regs)
        machine.pc = machine.program.entry_pc
        machine.out_buffer = []
        machine.sensor_cursor = 0

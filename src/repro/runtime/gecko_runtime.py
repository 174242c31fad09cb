"""GECKO's attack-aware hybrid runtime (paper §VI-A, §VI-F).

Normal operation is JIT checkpointing (fast, roll-forward).  Two reactive
detectors run at every reboot:

* **ACK detection** — the JIT checkpoint's final store toggles a persisted
  ACK.  An unchanged ACK across a power cycle means the last checkpoint
  never committed: a spoofed recovery signal made the system checkpoint
  inside the ``V_fail`` window (data-corruption attack).
* **Region-completion (timer) detection** — every region is WCET-bounded
  to one charge cycle, so at least one boundary commits per power-on
  period.  Zero boundary commits between consecutive reboots means the
  system is being power-cycled faster than it can progress (DoS attack).

On detection GECKO closes the attack surface: the voltage monitor is
disabled, the JIT image is distrusted, and recovery switches to idempotent
rollback using the compiler's restore plans.  At each subsequent reboot the
runtime *probes* (§VI-F "Back to Normal"): it watches the first region for
a monitor signal; a quiet first region means the attack has ended and JIT
checkpointing is re-enabled.  A wrong guess is harmless — the idempotent
program recovers correctly either way.
"""

from __future__ import annotations

from typing import Tuple

from ..isa.program import LinkedProgram
from ..obs import MODE_SWITCH, ROLLBACK_RESTORE
from .machine import _UNSET, Machine
from .nvp import NVPRuntime, RuntimeStats
from .rollback import RollbackRuntime

MODE_JIT = 0
MODE_ROLLBACK = 1


class GeckoRuntime:
    """Hybrid JIT/rollback runtime with reactive EMI-attack detection."""

    name = "gecko"

    def __init__(self, program: LinkedProgram,
                 probe_cycles: int = 40_000,
                 min_progress_regions: int = 4) -> None:
        self._jit = NVPRuntime()
        self._rollback = RollbackRuntime(program)
        self.stats = RuntimeStats()
        #: Cycles that must execute signal-free after a reboot before the
        #: JIT protocol is re-enabled ("within the initial region", §VI-F —
        #: expressed as an execution window because this compiler's I/O
        #: boundaries make single regions much shorter than a charge cycle).
        self.probe_cycles = probe_cycles
        #: Boundary commits expected per power-on period.  The paper sizes
        #: regions to a whole charge cycle and checks for "at least one
        #: completed region"; with this compiler's finer regions the
        #: equivalent test is a small minimum count — a genuine charge
        #: cycle completes orders of magnitude more.
        self.min_progress_regions = min_progress_regions
        # Per-boot volatile probe state.
        self._probing = False
        self._probe_failed = False
        self._boot_cycles = 0
        #: Observability bundle (:mod:`repro.obs`), simulator-attached.
        self.obs = None

    def attach(self, fault_hook=_UNSET, obs=_UNSET) -> None:
        """Register runtime hooks (mirrors :meth:`Machine.attach`).

        The observability bundle is shared with the inner JIT protocol so
        checkpoint begin/ok/fail events land on the same bus regardless
        of mode; the checkpoint-fault hook is forwarded there too, so
        injected image corruption lands on the same code path as NVP's.
        """
        if fault_hook is not _UNSET:
            self._jit.attach(fault_hook=fault_hook)
        if obs is not _UNSET:
            self.obs = obs
            self._jit.attach(obs=obs)

    # -- mode helpers ---------------------------------------------------
    @staticmethod
    def mode(machine: Machine) -> int:
        return machine.read_word("__mode")

    def _set_mode(self, machine: Machine, mode: int) -> None:
        if machine.read_word("__mode") != mode:
            machine.write_word("__mode", 0, mode)
            self.stats.mode_switches += 1
            if self.obs is not None:
                self.obs.emit(MODE_SWITCH, "rollback->jit" if mode == MODE_JIT
                              else "jit->rollback")

    @property
    def in_probe(self) -> bool:
        return self._probing and not self._probe_failed

    @property
    def fault_hook(self):
        """Checkpoint-fault hook, forwarded to the inner JIT protocol so
        injected image corruption lands on the same code path as NVP's."""
        return self._jit.fault_hook

    @fault_hook.setter
    def fault_hook(self, hook) -> None:
        self._jit.fault_hook = hook

    # -- simulator interface -------------------------------------------
    def monitor_enabled(self, machine: Machine) -> bool:
        """The attack surface: open under JIT, or transiently while probing."""
        if self.mode(machine) == MODE_JIT:
            return True
        return self.in_probe

    def tick(self, machine: Machine) -> None:
        """Promote a quiet probe to JIT once the probe window passes."""
        if (self.mode(machine) == MODE_ROLLBACK and self.in_probe
                and machine.cycles >= self._boot_cycles + self.probe_cycles):
            self._probing = False
            self._set_mode(machine, MODE_JIT)

    def on_checkpoint_signal(self, machine: Machine,
                             energy_cycles: float) -> Tuple[int, bool]:
        if self.mode(machine) == MODE_JIT:
            cycles, completed = self._jit.jit_checkpoint(
                machine, energy_cycles
            )
            if not completed:
                self.stats.jit_checkpoint_failures += 1
            else:
                self.stats.jit_checkpoints += 1
            return cycles, True
        if self.in_probe:
            # A signal inside the first region after reboot: the attack is
            # still live.  Ignore it and keep the surface closed — if it
            # was a genuine outage, rollback recovery handles it anyway.
            self._probe_failed = True
            return 0, False
        return 0, False

    def on_power_off(self, machine: Machine) -> None:
        """Rollback state persists at MARKs; JIT state at the checkpoint."""

    def on_reboot(self, machine: Machine) -> int:
        boots = machine.read_word("__boots")
        machine.write_word("__boots", 0, boots + 1)
        mode = self.mode(machine)

        ack = machine.read_word("__jit_ack")
        done = machine.read_word("__region_done")
        ack_attack = boots > 0 and mode == MODE_JIT \
            and ack == machine.read_word("__ack_seen")
        progressed = done - machine.read_word("__done_seen")
        dos_attack = boots > 0 and progressed < self.min_progress_regions
        machine.write_word("__ack_seen", 0, ack)
        machine.write_word("__done_seen", 0, done)

        self._probing = False
        self._probe_failed = False

        if mode == MODE_JIT and (ack_attack or dos_attack):
            # Attack detected: close the surface, distrust the JIT image,
            # recover through the idempotent restore plan.
            self.stats.attacks_detected += 1
            self._set_mode(machine, MODE_ROLLBACK)
            cycles = self._rollback.rollback_restore(machine)
            self.stats.rollback_restores += 1
            self.stats.recovery_cycles += cycles
            self._note_rollback(cycles)
            self._begin_probe(machine)
            return cycles

        if mode == MODE_JIT:
            if machine.read_word("__jit_valid"):
                cycles = self._jit.jit_restore(machine)
                self.stats.jit_restores += 1
            else:
                machine.cold_boot()
                self.stats.cold_boots += 1
                cycles = 0
            return cycles

        # Rollback mode: recover, then probe for the end of the attack.
        cycles = self._rollback.rollback_restore(machine)
        self.stats.rollback_restores += 1
        self.stats.recovery_cycles += cycles
        self._note_rollback(cycles)
        self._begin_probe(machine)
        return cycles

    def _note_rollback(self, cycles: int) -> None:
        if self.obs is not None:
            self.obs.emit(ROLLBACK_RESTORE, f"cycles={cycles}")
            self.obs.metrics.count("runtime.restore_cycles", cycles,
                                   kind="rollback")

    def _begin_probe(self, machine: Machine) -> None:
        self._probing = True
        self._probe_failed = False
        self._boot_cycles = machine.cycles

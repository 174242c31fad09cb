"""The JIT-checkpoint runtime (NVP / TI-CTPL model).

Roll-forward crash consistency exactly as §II-B describes: when the voltage
monitor signals ``V_backup``, all volatile state — register file, PC,
sensor cursor, and the pending output buffer — is written to the dedicated
NVM area; the validity flag and the ACK toggle are the *final* stores, so a
checkpoint that runs out of energy mid-way never commits.  On ``V_on`` the
saved state is restored and execution resumes at the interruption point.

The energy-bounded :meth:`NVPRuntime.jit_checkpoint` is where the paper's
attack lands: a spoofed recovery signal inside the ``V_fail`` window starts
a checkpoint without enough buffered energy, the commit stores never
execute, and the *previous* checkpoint image is left partially overwritten
— data corruption (§IV-B2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..isa.instructions import CYCLES, Opcode
from ..isa.operands import NUM_REGS
from ..obs import CHECKPOINT_BEGIN, JIT_RESTORE
from .machine import _UNSET, JIT_OUT_CAPACITY, Machine

_ST = CYCLES[Opcode.ST]
_LD = CYCLES[Opcode.LD]


@dataclass
class RuntimeStats:
    """Counters shared by all crash-consistency runtimes."""

    jit_checkpoints: int = 0
    jit_checkpoint_failures: int = 0
    jit_restores: int = 0
    rollback_restores: int = 0
    cold_boots: int = 0
    recovery_cycles: int = 0
    attacks_detected: int = 0
    mode_switches: int = 0


class NVPRuntime:
    """Crash consistency purely via hardware-style JIT checkpointing."""

    name = "nvp"

    def __init__(self) -> None:
        self.stats = RuntimeStats()
        #: Fault-injection hook (:mod:`repro.faultsim`).  When set, its
        #: ``on_checkpoint(writes, budget)`` may corrupt or truncate the
        #: checkpoint image as it is being written — the in-flight
        #: corruption mechanism of the paper's ``V_fail`` attack.
        self.fault_hook = None
        #: Observability bundle (:mod:`repro.obs`), simulator-attached.
        self.obs = None

    def attach(self, fault_hook=_UNSET, obs=_UNSET) -> None:
        """Register runtime hooks (mirrors :meth:`Machine.attach`)."""
        if fault_hook is not _UNSET:
            self.fault_hook = fault_hook
        if obs is not _UNSET:
            self.obs = obs

    # -- simulator interface -------------------------------------------
    def monitor_enabled(self, machine: Machine) -> bool:
        """NVP's checkpoint trigger is the monitor: the attack surface."""
        return True

    def tick(self, machine: Machine) -> None:
        """No periodic work."""

    def on_checkpoint_signal(self, machine: Machine,
                             energy_cycles: float) -> Tuple[int, bool]:
        """Voltage monitor fired: checkpoint within ``energy_cycles``.

        Returns ``(cycles consumed, shutdown)`` — NVP always sleeps after
        the checkpoint attempt, completed or not.
        """
        cycles, _completed = self.jit_checkpoint(machine, energy_cycles)
        return cycles, True

    def on_power_off(self, machine: Machine) -> None:
        """Nothing to do: all persistence happened at the checkpoint."""

    def on_reboot(self, machine: Machine) -> int:
        """Restore the last committed checkpoint, or cold-boot."""
        machine.write_word("__boots", 0, machine.read_word("__boots") + 1)
        if machine.read_word("__jit_valid"):
            self.stats.jit_restores += 1
            return self.jit_restore(machine)
        self.stats.cold_boots += 1
        machine.cold_boot()
        return self.checkpoint_size_words() * _LD

    # -- protocol ------------------------------------------------------
    @staticmethod
    def checkpoint_size_words(buffer_len: int = 0) -> int:
        """Words a JIT checkpoint writes (registers, PC, cursor, buffer, commit)."""
        return NUM_REGS + 1 + 1 + 1 + min(buffer_len, JIT_OUT_CAPACITY) + 2

    def jit_checkpoint(self, machine: Machine,
                       energy_cycles: float) -> Tuple[int, bool]:
        """Write the checkpoint image, stopping when energy runs out.

        The image is written front-to-back; ``__jit_valid`` and the ACK
        toggle come last, so an interrupted checkpoint leaves the previous
        commit markers intact *but may have corrupted the image itself* —
        the vulnerability the paper exploits.
        """
        writes: List[Tuple[str, int, int]] = []
        for i in range(NUM_REGS):
            writes.append(("__jit_regs", i, machine.regs[i]))
        writes.append(("__jit_pc", 0, machine.pc))
        writes.append(("__jit_sensor", 0, machine.sensor_cursor))
        buffer = machine.out_buffer[:JIT_OUT_CAPACITY]
        overflow = machine.out_buffer[JIT_OUT_CAPACITY:]
        if overflow:
            # Oversized peripheral state is committed rather than saved
            # (roll-forward never re-executes, so this is safe).
            machine.committed_out.extend(overflow)
            del machine.out_buffer[JIT_OUT_CAPACITY:]
        writes.append(("__jit_outlen", 0, len(buffer)))
        for i, value in enumerate(buffer):
            writes.append(("__jit_out", i, value))
        # Commit markers last.
        writes.append(("__jit_valid", 0, 1))
        writes.append(("__jit_ack", 0, 1 - (machine.read_word("__jit_ack") & 1)))

        budget = int(energy_cycles // _ST)
        if self.fault_hook is not None:
            writes, budget = self.fault_hook.on_checkpoint(writes, budget)
        obs = self.obs
        if obs is not None:
            obs.emit(CHECKPOINT_BEGIN,
                     f"budget={budget} words={len(writes)}")
            obs.metrics.histogram("runtime.checkpoint_budget_words",
                                  scheme=self.name).observe(budget)
        consumed = 0
        for count, (sym, off, value) in enumerate(writes):
            if count >= budget:
                self.stats.jit_checkpoint_failures += 1
                if obs is not None:
                    obs.metrics.count("runtime.checkpoints", scheme=self.name,
                                      status="failed")
                    obs.metrics.count("runtime.checkpoint_cycles",
                                      consumed, scheme=self.name)
                return consumed, False
            machine.write_word(sym, off, value)
            consumed += _ST
        self.stats.jit_checkpoints += 1
        if obs is not None:
            obs.metrics.count("runtime.checkpoints", scheme=self.name,
                              status="ok")
            obs.metrics.count("runtime.checkpoint_cycles", consumed,
                              scheme=self.name)
        return consumed, True

    def jit_restore(self, machine: Machine) -> int:
        """Load the checkpoint image back into volatile state."""
        machine.powered = True
        machine.halted = False
        for i in range(NUM_REGS):
            machine.regs[i] = machine.read_word("__jit_regs", i)
        machine.pc = machine.read_word("__jit_pc")
        machine.sensor_cursor = machine.read_word("__jit_sensor")
        length = machine.read_word("__jit_outlen")
        machine.out_buffer = [
            machine.read_word("__jit_out", i)
            for i in range(max(0, min(length, JIT_OUT_CAPACITY)))
        ]
        words = self.checkpoint_size_words(len(machine.out_buffer))
        cycles = words * _LD
        self.stats.recovery_cycles += cycles
        if self.obs is not None:
            self.obs.emit(JIT_RESTORE, f"words={words}")
            self.obs.metrics.count("runtime.restore_cycles", cycles,
                                   kind="jit")
        return cycles

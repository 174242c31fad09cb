"""Rollback-recovery runtime (idempotent re-execution; Ratchet-style).

On reboot the runtime re-enters the last *committed* region: the MARK
commit record (``__region_cur``/``__region_pc``) names the region, and the
region's restore plan rebuilds every input register — from its checkpoint
slot, or by interpreting a recovery block in an isolated environment (the
paper's recovery-block execution, §VI-E).

This runtime never JIT-checkpoints.  It still listens to the voltage
monitor for a graceful shutdown (as the paper's Ratchet port does), which
is exactly why Ratchet remains attackable: spoofed signals shorten the
effective on-period until long regions can no longer complete (§VII-B3).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..errors import SimulationError
from ..isa.instructions import ALU, CYCLES, Opcode
from ..isa.operands import Imm, NUM_REGS, PReg, wrap32
from ..isa.program import LinkedProgram, derived
from ..core.plans import RegionPlan, SliceExec, SlotLoad
from .machine import _UNSET, Machine
from .nvp import RuntimeStats

_LD = CYCLES[Opcode.LD]

#: Fixed cycles charged for the recovery lookup-table search (§VII-C).
LOOKUP_CYCLES = 12


def build_region_table(program: LinkedProgram) -> Dict[int, RegionPlan]:
    """Collect every MARK's restore plan, keyed by region id."""
    table: Dict[int, RegionPlan] = {}
    for instr in program.instrs:
        if instr.op is Opcode.MARK:
            plan = instr.meta.get("plan")
            if isinstance(plan, RegionPlan):
                table[instr.region or 0] = plan
    return table


def execute_slice(machine: Machine, action: SliceExec) -> int:
    """Interpret a recovery block in an isolated register environment.

    Every register an instruction reads must have been written by an
    earlier slice instruction (closed-slice property); only the final
    target value is written back to the real register file.
    """
    env: Dict[int, int] = {}

    def value(operand) -> int:
        if isinstance(operand, Imm):
            return operand.value
        if isinstance(operand, PReg):
            if operand.index not in env:
                raise SimulationError(
                    f"recovery block reads undefined register {operand}"
                )
            return env[operand.index]
        raise SimulationError(f"bad slice operand {operand!r}")

    cycles = 0
    for instr in action.instrs:
        op = instr.op
        if op is Opcode.LD:
            base, size = machine.program.symtab[instr.sym.name]
            offset = value(instr.off)
            if not 0 <= offset < size:
                raise SimulationError(
                    f"recovery block access out of bounds: "
                    f"{instr.sym.name}[{offset}]"
                )
            env[instr.dst.index] = machine.mem[base + offset]
        elif op is Opcode.LI or op is Opcode.MOV:
            env[instr.dst.index] = value(instr.a)
        elif op in ALU:
            a = value(instr.a)
            b = 0 if instr.b is None else value(instr.b)
            if b == 0 and op in (Opcode.DIV, Opcode.REM):
                raise SimulationError("recovery block division by zero")
            env[instr.dst.index] = ALU[op](a, b)
        else:
            raise SimulationError(f"illegal recovery-block opcode {op}")
        cycles += instr.cycles
    if action.target not in env:
        raise SimulationError(
            f"recovery block never defined its target R{action.target}"
        )
    machine.regs[action.target] = wrap32(env[action.target])
    return cycles


class RollbackRuntime:
    """Pure rollback recovery over compiler-inserted checkpoints."""

    name = "ratchet"

    def __init__(self, program: LinkedProgram) -> None:
        self.table = derived(program, build_region_table)
        self.stats = RuntimeStats()
        #: Observability bundle (:mod:`repro.obs`), simulator-attached.
        self.obs = None

    def attach(self, obs=_UNSET) -> None:
        """Register runtime hooks (mirrors :meth:`Machine.attach`)."""
        if obs is not _UNSET:
            self.obs = obs

    # -- simulator interface -------------------------------------------
    def monitor_enabled(self, machine: Machine) -> bool:
        """Ratchet keeps the monitor for graceful shutdown — attackable."""
        return True

    def tick(self, machine: Machine) -> None:
        """No periodic work."""

    def on_checkpoint_signal(self, machine: Machine,
                             energy_cycles: float) -> Tuple[int, bool]:
        """Low-voltage signal: sleep gracefully; MARK commits did the rest."""
        return 0, True

    def on_power_off(self, machine: Machine) -> None:
        """All recovery state was persisted at region commits."""

    def on_reboot(self, machine: Machine) -> int:
        machine.write_word("__boots", 0, machine.read_word("__boots") + 1)
        return self.rollback_restore(machine)

    # -- protocol -------------------------------------------------------
    def rollback_restore(self, machine: Machine) -> int:
        """Re-enter the last committed region with reconstructed inputs."""
        region = machine.read_word("__region_cur")
        if region == 0:
            self.stats.cold_boots += 1
            machine.cold_boot()
            return LOOKUP_CYCLES
        plan = self.table.get(region)
        if plan is None:
            raise SimulationError(f"no restore plan for region {region}")
        machine.powered = True
        machine.halted = False
        machine.regs = [0] * NUM_REGS
        cycles = LOOKUP_CYCLES
        committed_color = machine.read_word("__color") & 1
        # Slot restores first, then recovery blocks (closed slices read
        # only slots/read-only memory, so order among them is free).
        for reg_index, action in sorted(plan.restores.items()):
            if isinstance(action, SlotLoad):
                color = action.color
                if color is None:
                    if action.per_reg:
                        color = machine.read_word("__rcolor",
                                                  action.reg_index) & 1
                        cycles += _LD  # the committed-index read
                    else:
                        color = committed_color
                machine.regs[reg_index] = machine.read_word(
                    f"__ckpt{color}", action.reg_index
                )
                cycles += _LD
        for reg_index, action in sorted(plan.restores.items()):
            if isinstance(action, SliceExec):
                cycles += self._execute_slice_dynamic(machine, action,
                                                      committed_color)
        machine.pc = machine.read_word("__region_pc")
        machine.sensor_cursor = machine.read_word("__sensor_idx")
        machine.out_buffer = []
        self.stats.rollback_restores += 1
        if self.obs is not None:
            self.obs.emit("rollback_restore", f"region={region}")
            self.obs.metrics.count("runtime.restore_cycles", cycles,
                                   kind="rollback")
        return cycles

    def _execute_slice_dynamic(self, machine: Machine, action: SliceExec,
                               committed_color: int) -> int:
        """Execute a slice, resolving dynamic slot loads to committed buffers."""
        resolved = action
        if any(i.meta.get("dynamic_slot") or i.meta.get("per_reg_slot")
               for i in action.instrs):
            instrs = []
            for instr in action.instrs:
                if instr.meta.get("dynamic_slot"):
                    instr = instr.copy()
                    instr.sym = type(instr.sym)(f"__ckpt{committed_color}")
                elif instr.meta.get("per_reg_slot"):
                    reg_color = machine.read_word("__rcolor",
                                                  instr.off.value) & 1
                    instr = instr.copy()
                    instr.sym = type(instr.sym)(f"__ckpt{reg_color}")
                instrs.append(instr)
            resolved = SliceExec(target=action.target, instrs=instrs)
        return execute_slice(machine, resolved)

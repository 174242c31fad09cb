"""IR analysis tests: CFG, dominators, sites, liveness, reaching defs, alias,
loops.

Functions are built from small MiniC sources (exercising the real lowering
path) or assembled by hand where a precise shape is needed.
"""

import pytest

from repro.errors import CompileError
from repro.isa import Imm, Label, Opcode, PReg, Sym, VReg
from repro.isa import instructions as ins
from repro.compiler.region import _marked_path_exists
from repro.ir import (
    MemRef,
    dominators,
    find_loops,
    liveness,
    may_alias,
    mem_ref,
    memory_antideps,
    must_alias,
    reaching_definitions,
    remove_unreachable,
)
from repro.ir.cfg import Function, split_block
from repro.ir.sites import SiteMap, markfree_reaches, next_sites, path_through
from repro.lang import compile_source


def diamond_function() -> Function:
    """entry -> (then | else) -> join -> exit."""
    fn = Function("f")
    entry = fn.add_block("entry")
    then = fn.add_block("then")
    other = fn.add_block("else")
    join = fn.add_block("join")
    v0, v1 = fn.new_vreg(), fn.new_vreg()
    entry.instrs = [
        ins.li(v0, 1),
        ins.bnz(v0, Label("then")),
        ins.jmp(Label("else")),
    ]
    then.instrs = [ins.li(v1, 10), ins.jmp(Label("join"))]
    other.instrs = [ins.li(v1, 20), ins.jmp(Label("join"))]
    join.instrs = [ins.out(v1), ins.halt()]
    return fn


def loop_function() -> Function:
    """entry -> header <-> body, header -> exit."""
    fn = Function("loop")
    entry = fn.add_block("entry")
    header = fn.add_block("header")
    body = fn.add_block("body")
    exit_ = fn.add_block("exit")
    i, cond = fn.new_vreg(), fn.new_vreg()
    entry.instrs = [ins.li(i, 0), ins.jmp(Label("header"))]
    header.instrs = [
        ins.binop(Opcode.SLT, cond, i, Imm(10)),
        ins.bnz(cond, Label("body")),
        ins.jmp(Label("exit")),
    ]
    body.instrs = [
        ins.binop(Opcode.ADD, i, i, Imm(1)),
        ins.jmp(Label("header")),
    ]
    exit_.instrs = [ins.out(i), ins.halt()]
    return fn


class TestCFG:
    def test_successors(self):
        fn = diamond_function()
        assert set(fn.blocks["entry"].successors()) == {"then", "else"}
        assert fn.blocks["join"].successors() == []

    def test_predecessors(self):
        fn = diamond_function()
        assert set(fn.predecessors()["join"]) == {"then", "else"}

    def test_reverse_postorder_starts_at_entry(self):
        fn = diamond_function()
        order = fn.reverse_postorder()
        assert order[0] == "entry"
        assert order[-1] == "join"

    def test_verify_rejects_unterminated(self):
        fn = Function("bad")
        fn.add_block("entry").instrs = [ins.li(fn.new_vreg(), 1)]
        with pytest.raises(CompileError):
            fn.verify()

    def test_verify_rejects_midblock_terminator(self):
        fn = Function("bad")
        block = fn.add_block("entry")
        block.instrs = [ins.halt(), ins.halt()]
        with pytest.raises(CompileError):
            fn.verify()

    def test_split_block(self):
        fn = diamond_function()
        new = split_block(fn, "join", 1)
        assert fn.blocks["join"].successors() == [new]
        assert fn.blocks[new].instrs[-1].op is Opcode.HALT
        fn.verify()

    def test_remove_unreachable(self):
        fn = diamond_function()
        dead = fn.add_block("dead")
        dead.instrs = [ins.halt()]
        removed = remove_unreachable(fn)
        assert removed == ["dead"]
        assert "dead" not in fn.blocks


class TestDominators:
    def test_diamond(self):
        fn = diamond_function()
        dom = dominators(fn)
        assert dom["join"] == {"entry", "join"}
        assert dom["then"] == {"entry", "then"}


def store_load_loop() -> Function:
    """loop: st x; ld x; mark; bnz loop -- then halt."""
    fn = Function("f")
    loop = fn.add_block("loop")
    done = fn.add_block("done")
    v = fn.new_vreg()
    loop.instrs = [
        ins.store(v, Sym("x"), Imm(0)),
        ins.load(v, Sym("x"), Imm(0)),
        ins.mark(0),
        ins.bnz(v, Label("loop")),
        ins.jmp(Label("done")),
    ]
    done.instrs = [ins.halt()]
    return fn


class TestSites:
    def test_next_sites(self):
        fn = diamond_function()
        assert next_sites(fn, ("entry", 0)) == [("entry", 1)]
        assert next_sites(fn, ("entry", 1)) == [("then", 0), ("entry", 2)]
        assert next_sites(fn, ("then", 1)) == [("join", 0)]
        assert next_sites(fn, ("join", 1)) == []

    def test_markfree_reaches_stops_at_a_mark(self):
        fn = store_load_loop()
        assert markfree_reaches(fn, ("loop", 0), {("loop", 1)})
        assert markfree_reaches(fn, ("loop", 0), {("loop", 2)})
        assert not markfree_reaches(fn, ("loop", 0), {("done", 0)})
        assert markfree_reaches(fn, ("loop", 2), {("done", 0)})

    def test_path_through(self):
        fn = diamond_function()
        then, other = {("then", 0)}, {("else", 0)}
        assert path_through(fn, ("entry", 0), ("join", 0), then)
        assert path_through(fn, ("entry", 0), ("join", 0), other)
        assert not path_through(fn, ("then", 0), ("join", 0), other)

    def test_marked_path_rule_differs_from_path_through(self):
        # Region formation's own rule follows paths that pass the store
        # again; path_through cuts them at the revisit, so on this loop
        # only the former sees the MARK between the store and the load.
        fn = store_load_loop()
        st, ld, mk = ("loop", 0), ("loop", 1), ("loop", 2)
        assert _marked_path_exists(fn, st, ld)
        assert not path_through(fn, st, ld, {mk})

    def test_of_is_an_identity_lookup(self):
        fn = diamond_function()
        sites = SiteMap(fn)
        out = fn.blocks["join"].instrs[0]
        assert sites.of(out) == ("join", 0)
        assert sites.of(out.copy()) is None
        fn.blocks["join"].instrs.insert(0, ins.mark(0))
        assert sites.of(out) == ("join", 0)    # one map, one IR state
        assert SiteMap(fn).of(out) == ("join", 1)

    def test_dominates_is_strict(self):
        sites = SiteMap(diamond_function())
        assert sites.dominates(("entry", 0), ("entry", 1))
        assert not sites.dominates(("entry", 1), ("entry", 1))
        assert not sites.dominates(("entry", 1), ("entry", 0))
        assert sites.dominates(("entry", 2), ("join", 0))
        assert not sites.dominates(("then", 0), ("join", 0))
        assert not sites.dominates(("join", 0), ("join", 0))

    def test_def_sites(self):
        fn = Function("f")
        r4, r5 = PReg(4), PReg(5)
        fn.add_block("entry").instrs = [
            ins.li(r4, 1),
            ins.li(r5, 2),
            ins.binop(Opcode.ADD, r4, r4, r5),
            ins.out(r4),
            ins.halt(),
        ]
        sites = SiteMap(fn)
        assert sites.def_sites(4) == {("entry", 0), ("entry", 2)}
        assert sites.def_sites(5) == {("entry", 1)}
        assert sites.def_sites(6) == set()


class TestLiveness:
    def test_branch_value_live_into_join(self):
        fn = diamond_function()
        result = liveness(fn)
        v1 = VReg(1)
        assert v1 in result.live_in["join"]
        assert v1 in result.live_out["then"]

    def test_loop_variable_live_around_backedge(self):
        fn = loop_function()
        result = liveness(fn)
        i = VReg(0)
        assert i in result.live_in["header"]
        assert i in result.live_out["body"]

    def test_live_at_instruction(self):
        fn = diamond_function()
        result = liveness(fn)
        live = result.live_at(fn, "join", 0)
        assert VReg(1) in live

    def test_ignore_ckpt_uses(self):
        fn = Function("f")
        block = fn.add_block("entry")
        v = fn.new_vreg()
        block.instrs = [
            ins.li(v, 1),
            ins.ckpt(v.__class__(0) if False else v, reg_index=4, color=0),
            ins.halt(),
        ]
        plain = liveness(fn)
        filtered = liveness(fn, ignore_ckpt_uses=True)
        assert v in plain.live_at(fn, "entry", 1)
        assert v not in filtered.live_at(fn, "entry", 1)


class TestReaching:
    def test_single_def_reaches_use(self):
        fn = diamond_function()
        result = reaching_definitions(fn)
        defs = result.defs_reaching_use(("join", 0), VReg(1))
        assert defs == frozenset({("then", 0), ("else", 0)})

    def test_kill_within_block(self):
        fn = Function("f")
        block = fn.add_block("entry")
        v = fn.new_vreg()
        block.instrs = [ins.li(v, 1), ins.li(v, 2), ins.out(v), ins.halt()]
        result = reaching_definitions(fn)
        assert result.defs_reaching_use(("entry", 2), v) == \
            frozenset({("entry", 1)})

    def test_def_use_chain(self):
        fn = loop_function()
        result = reaching_definitions(fn)
        # The loop increment reaches the header's compare.
        assert (("header", 0) in result.def_use.get(("body", 0), set()))


class TestAlias:
    def test_different_symbols_never_alias(self):
        a = MemRef("x", 0, True)
        b = MemRef("y", 0, False)
        assert not may_alias(a, b)

    def test_same_symbol_const_offsets(self):
        a = MemRef("arr", 1, True)
        b = MemRef("arr", 2, False)
        c = MemRef("arr", 1, False)
        assert not may_alias(a, b)
        assert may_alias(a, c)
        assert must_alias(a, c)

    def test_dynamic_offset_conservative(self):
        a = MemRef("arr", None, True)
        b = MemRef("arr", 5, False)
        assert may_alias(a, b)
        assert not must_alias(a, b)

    def test_mem_ref_extraction(self):
        instr = ins.load(VReg(0), Sym("arr"), Imm(3))
        ref = mem_ref(instr)
        assert ref == MemRef("arr", 3, False)
        assert mem_ref(ins.ckpt(VReg(0), reg_index=1, color=0)) is None


class TestLoops:
    def test_natural_loop_found(self):
        fn = loop_function()
        loops = find_loops(fn)
        assert len(loops) == 1
        assert loops[0].header == "header"
        assert loops[0].body == {"header", "body"}

    def test_loop_bound_annotation(self):
        fn = loop_function()
        fn.blocks["header"].meta["loop_bound"] = 10
        assert find_loops(fn)[0].bound == 10

    def test_nesting(self):
        module = compile_source("""
        void main() {
            for (int i = 0; i < 3; i = i + 1) {
                for (int j = 0; j < 4; j = j + 1) { out(i + j); }
            }
        }
        """)
        loops = find_loops(module.functions["main"])
        assert len(loops) == 2
        inner = max(loops, key=lambda l: l.depth)
        assert inner.parent is not None
        assert inner.bound == 4


class TestAntideps:
    def test_war_detected(self):
        module = compile_source("""
        int g;
        void main() {
            int x = g;      // load g
            g = x + 1;      // store g: WAR
            out(x);
        }
        """)
        deps = memory_antideps(module.functions["main"])
        assert any(dep.symbol == "g" for dep in deps)

    def test_waraw_protector_found(self):
        module = compile_source("""
        int g;
        void main() {
            g = 5;          // W1 dominates the load: WARAW protection
            int x = g;
            g = x + 1;
            out(x);
        }
        """)
        deps = [d for d in memory_antideps(module.functions["main"])
                if d.symbol == "g"]
        assert any(dep.protectors for dep in deps)

    def test_read_only_table_has_no_antidep(self):
        module = compile_source("""
        int t[4] = {1, 2, 3, 4};
        void main() { out(t[0] + t[3]); }
        """)
        deps = memory_antideps(module.functions["main"])
        assert not any(dep.symbol == "t" for dep in deps)

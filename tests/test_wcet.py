"""WCET analysis and region-gap tests."""

import os
import subprocess
import sys

import pytest

import repro
from repro.compiler import allocate_module, form_regions, split_regions, splitting
from repro.compiler.splitting import verify_region_budget
from repro.errors import WCETError
from repro.ir import function_wcet, module_wcet
from repro.ir.wcet import region_gap
from repro.isa import Opcode
from repro.lang import compile_source
from repro.runtime import run_to_completion
from repro.core import compile_gecko, compile_nvp


def test_straight_line_wcet_equals_execution():
    src = "void main() { int a = 3; int b = a * 7; out(a + b); }"
    module = compile_source(src)
    wcet = module_wcet(module)["main"]
    cycles = run_to_completion(compile_nvp(src).linked).cycles
    # WCET over the unallocated IR differs slightly from the machine run
    # (spills, fallthrough removal) but must be the same magnitude and safe.
    assert wcet >= cycles * 0.5
    assert wcet <= cycles * 2.0


def test_bounded_loop_uses_annotation():
    module = compile_source(
        "void main() { int s = 0; "
        "for (int i = 0; i < 100; i = i + 1) { s = s + i; } out(s); }"
    )
    small = compile_source(
        "void main() { int s = 0; "
        "for (int i = 0; i < 10; i = i + 1) { s = s + i; } out(s); }"
    )
    big = function_wcet(module.functions["main"])
    little = function_wcet(small.functions["main"])
    assert big > little * 5


def test_unbounded_loop_strict_mode_raises():
    module = compile_source("""
    void main() {
        int x = sense();
        while (x > 0) { x = x - 1; }
        out(x);
    }
    """)
    with pytest.raises(WCETError):
        function_wcet(module.functions["main"], strict=True)
    # Non-strict mode falls back to the default bound.
    assert function_wcet(module.functions["main"]) > 0


def test_call_costs_include_callee():
    module = compile_source("""
    int heavy() {
        int s = 0;
        for (int i = 0; i < 50; i = i + 1) { s = s + i * i; }
        return s;
    }
    void main() { out(heavy()); }
    """)
    wcets = module_wcet(module)
    assert wcets["main"] > wcets["heavy"]


def test_nested_loops_multiply():
    module = compile_source("""
    void main() {
        int s = 0;
        for (int i = 0; i < 10; i = i + 1) {
            for (int j = 0; j < 10; j = j + 1) { s = s + 1; }
        }
        out(s);
    }
    """)
    wcet = function_wcet(module.functions["main"])
    assert wcet > 100 * 4  # at least bound product times body floor


class TestIRBoundInference:
    def _bounds(self, src, optimize=True):
        from repro.compiler.optimize import optimize_module
        from repro.ir import find_loops, infer_loop_bounds
        module = compile_source(src)
        if optimize:
            optimize_module(module)
        fn = module.functions["main"]
        infer_loop_bounds(fn)
        return {l.header: l.bound for l in find_loops(fn)}

    def test_constant_variable_limit(self):
        bounds = self._bounds("""
        void main() {
            int n = 9; int s = 0;
            for (int i = 0; i < n; i = i + 1) { s = s + i; }
            out(s);
        }
        """)
        assert list(bounds.values()) == [9]

    def test_negative_step(self):
        bounds = self._bounds("""
        void main() {
            int s = 0;
            for (int i = 10; i > 0; i = i - 2) { s = s + i; }
            out(s);
        }
        """)
        assert list(bounds.values()) == [5]

    def test_dynamic_limit_not_bounded(self):
        bounds = self._bounds("""
        void main() {
            int n = sense(); int s = 0;
            for (int i = 0; i < n; i = i + 1) bound(1024) { s = s + 1; }
            out(s);
        }
        """)
        # The explicit annotation is all we get; inference adds nothing.
        assert list(bounds.values()) == [1024]

    def test_extra_same_direction_increment_is_safe_overestimate(self):
        bounds = self._bounds("""
        void main() {
            int s = 0;
            for (int i = 0; i < 10; i = i + 1) {
                if (s > 5) { i = i + 1; }   // occasionally skips ahead
                s = s + 1;
            }
            out(s);
        }
        """)
        # The mandatory step dominates the backedge, so 10 is a sound
        # (over-)estimate of the trip count.
        assert list(bounds.values()) == [10]

    def test_conditional_only_increment_not_bounded(self):
        bounds = self._bounds("""
        void main() {
            int s = 0;
            int i = 0;
            while (i < 10) {
                s = s + 1;
                if (sense() > 100) { i = i + 1; }   // may never run
            }
            out(s);
        }
        """)
        # No increment dominates the backedge: the loop may not progress,
        # so inferring 10 would understate the WCET.  Refuse.
        assert list(bounds.values()) == [None]

    def test_annotation_wins(self):
        bounds = self._bounds("""
        void main() {
            int s = 0;
            for (int i = 0; i < 10; i = i + 1) bound(99) { s = s + i; }
            out(s);
        }
        """)
        assert list(bounds.values()) == [99]


class TestRegionGap:
    def _prepared(self, src: str):
        module = compile_source(src)
        allocate_module(module)
        fn = module.functions["main"]
        form_regions(fn)
        return fn

    def test_unmarked_bounded_loop_collapses(self):
        fn = self._prepared(
            "void main() { int s = 0; "
            "for (int i = 0; i < 8; i = i + 1) { s = s + i; } out(s); }"
        )
        analysis = region_gap(fn)
        assert analysis.divergent_loop is None
        assert analysis.worst > 0

    def test_gap_scales_with_bound(self):
        small = self._prepared(
            "void main() { int s = 0; "
            "for (int i = 0; i < 8; i = i + 1) { s = s + i; } out(s); }"
        )
        large = self._prepared(
            "void main() { int s = 0; "
            "for (int i = 0; i < 800; i = i + 1) { s = s + i; } out(s); }"
        )
        assert region_gap(large).worst > region_gap(small).worst * 20

    def test_splitting_respects_budget(self):
        fn = self._prepared(
            "void main() { int s = 0; "
            "for (int i = 0; i < 500; i = i + 1) { s = s + i * 3; } out(s); }"
        )
        inserted = split_regions(fn, 600)
        assert inserted >= 1
        assert verify_region_budget(fn, 600) <= 600

    def test_budget_below_minimum_rejected(self):
        fn = self._prepared("void main() { out(1 / 1); }")
        with pytest.raises(WCETError):
            split_regions(fn, 4)

    def test_mark_resets_gap(self):
        fn = self._prepared("void main() { out(1); out(2); out(3); }")
        analysis = region_gap(fn)
        # I/O boundaries chop the straight line into small regions.
        total = sum(
            i.cycles for _, _, i in fn.instructions()
        )
        assert analysis.worst < total

    def test_witness_is_independent_of_hash_seed(self):
        # dhrystone's func_2 has two equally long region gaps; the split
        # witness must not depend on string-hash order.
        code = ("from repro.core.gecko import _prepare\n"
                "from repro.ir.wcet import region_gap\n"
                "from repro.workloads import source\n"
                "fn = _prepare(source('dhrystone')).functions['func_2']\n"
                "print(region_gap(fn).witness)\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        path = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        witnesses = [
            subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True,
                check=True,
                env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path),
            ).stdout
            for seed in ("0", "2")
        ]
        assert witnesses[0] == witnesses[1]


DIAMOND = """
void main() {
    int x = sense(); int s = 0;
    if (x & 1) {
        s = s * 3 + 1; s = s * 5 + 2; s = s * 7 + 3; s = s * 11 + 4;
    } else {
        s = s * 3 + 2; s = s * 5 + 3; s = s * 7 + 4; s = s * 11 + 5;
    }
    s = s * 13 + x; s = s * 17 + x;
    out(s);
}
"""


@pytest.mark.parametrize("budget", [150, 120, 100])
def test_splitting_a_diamond_converges(budget, monkeypatch):
    # Once one arm ends in a MARK, the arm leaves only its jump's cycles
    # behind: the next cut must go elsewhere, not at that arm's end again.
    placed = []
    insert = splitting._insert_mark

    def spy(function, block, index):
        placed.append((block, index))
        assert len(placed) <= 50, f"{len(placed)} splits and counting"
        insert(function, block, index)

    monkeypatch.setattr(splitting, "_insert_mark", spy)
    program = compile_gecko(DIAMOND, region_budget=budget)
    assert run_to_completion(program.linked).committed_out \
        == run_to_completion(compile_nvp(DIAMOND).linked).committed_out

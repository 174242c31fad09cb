"""MiniC front-end tests: lexer, parser, and lowering semantics.

Lowering correctness is mostly checked by executing small programs on the
machine under the plain NVP pipeline and asserting their committed output —
the shortest path to "the compiler implements C semantics".
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import compile_nvp
from repro.errors import LexError, ParseError, SemanticError
from repro.lang import compile_source, parse, tokenize
from repro.runtime import run_to_completion


def run_main(source: str):
    """Compile under NVP and return the committed output."""
    return run_to_completion(compile_nvp(source).linked).committed_out


class TestLexer:
    def test_keywords_and_idents(self):
        kinds = [t.kind for t in tokenize("int x; while sense bound")]
        assert kinds == ["int", "ident", ";", "while", "sense", "bound", "eof"]

    def test_hex_numbers(self):
        tokens = tokenize("0xFF 0x10")
        assert tokens[0].text == "0xFF"

    def test_maximal_munch(self):
        kinds = [t.kind for t in tokenize("a<<=b")]
        assert kinds[:3] == ["ident", "<<", "="]

    def test_comments(self):
        tokens = tokenize("a // line\n /* block\nstill */ b")
        assert [t.text for t in tokens[:-1]] == ["a", "b"]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("/* nope")

    def test_bad_character(self):
        with pytest.raises(LexError):
            tokenize("int $x;")

    def test_positions_tracked(self):
        token = tokenize("\n\n  x")[0]
        assert (token.line, token.col) == (3, 3)


class TestParser:
    def test_precedence(self):
        # 2 + 3 * 4 == 14, (2 + 3) * 4 == 20
        assert run_main("void main() { out(2 + 3 * 4); out((2 + 3) * 4); }") \
            == [14, 20]

    def test_unary_operators(self):
        assert run_main("void main() { out(-5); out(!0); out(!7); out(~0); }") \
            == [-5, 1, 0, -1]

    def test_else_binds_to_nearest_if(self):
        src = """
        void main() {
            int x = 1;
            if (x) if (x - 1) out(1); else out(2);
        }
        """
        assert run_main(src) == [2]

    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse("void main() { int x = 1 }")

    def test_unbalanced_braces(self):
        with pytest.raises(ParseError):
            parse("void main() { if (1) { out(1); }")

    def test_bound_annotation_parsed(self):
        ast = parse("void main() { int i = 0; while (i < 3) bound(3) "
                    "{ i = i + 1; } }")
        loop = ast.functions[0].body.stmts[1]
        assert loop.bound == 3

    def test_array_expression_vs_assignment(self):
        assert run_main("""
        int a[4] = {10, 20, 30, 40};
        void main() { a[1] = a[2] + 1; out(a[1]); }
        """) == [31]


class TestSemantics:
    def test_undeclared_variable(self):
        with pytest.raises(SemanticError):
            compile_source("void main() { out(ghost); }")

    def test_arity_mismatch(self):
        with pytest.raises(SemanticError):
            compile_source("int f(int a) { return a; } void main() { f(); }")

    def test_scalar_indexed(self):
        with pytest.raises(SemanticError):
            compile_source("void main() { int x = 0; x[1] = 2; }")

    def test_array_used_as_scalar(self):
        with pytest.raises(SemanticError):
            compile_source("int a[4]; void main() { out(a); }")

    def test_break_outside_loop(self):
        with pytest.raises(SemanticError):
            compile_source("void main() { break; }")

    def test_void_returning_value(self):
        with pytest.raises(SemanticError):
            compile_source("void main() { return 3; }")

    def test_redeclaration_in_scope(self):
        with pytest.raises(SemanticError):
            compile_source("void main() { int x = 1; int x = 2; }")

    def test_shadowing_in_inner_scope_allowed(self):
        assert run_main("""
        void main() {
            int x = 1;
            { int x = 2; out(x); }
            out(x);
        }
        """) == [2, 1]

    def test_no_entry_function(self):
        with pytest.raises(SemanticError):
            compile_source("int f() { return 1; }")

    def test_recursion_rejected(self):
        from repro.errors import CompileError
        with pytest.raises(CompileError):
            compile_nvp("int f(int n) { if (n) { return f(n - 1); } "
                        "return 0; } void main() { out(f(3)); }")


class TestLoweredSemantics:
    def test_division_truncates_toward_zero(self):
        assert run_main("void main() { out(-7 / 2); out(7 / -2); "
                        "out(-7 % 2); }") == [-3, -3, -1]

    def test_wraparound_arithmetic(self):
        assert run_main(
            "void main() { out(2147483647 + 1); }"
        ) == [-2147483648]

    def test_shift_semantics(self):
        assert run_main(
            "void main() { out(-8 >> 1); out(1 << 31); out(3 << 2); }"
        ) == [-4, -2147483648, 12]

    def test_short_circuit_and(self):
        # Division by zero on the right must not execute when left is false.
        assert run_main("""
        void main() {
            int zero = 0;
            if (zero != 0 && 1 / zero > 0) { out(1); } else { out(2); }
        }
        """) == [2]

    def test_short_circuit_or(self):
        assert run_main("""
        void main() {
            int zero = 0;
            if (1 == 1 || 1 / zero > 0) { out(1); }
        }
        """) == [1]

    def test_while_with_break_continue(self):
        assert run_main("""
        void main() {
            int total = 0;
            for (int i = 0; i < 10; i = i + 1) {
                if (i == 3) { continue; }
                if (i == 6) { break; }
                total = total + i;
            }
            out(total);
        }
        """) == [0 + 1 + 2 + 4 + 5]

    def test_global_scalar_and_array_init(self):
        assert run_main("""
        int g = 7;
        int a[3] = {1, 2, 3};
        void main() { out(g + a[0] + a[2]); }
        """) == [11]

    def test_local_array_reinitialised_per_call(self):
        assert run_main("""
        int f() {
            int buf[2] = {5, 6};
            buf[0] = buf[0] + 1;
            return buf[0];
        }
        void main() { out(f()); out(f()); }
        """) == [6, 6]

    def test_nested_calls(self):
        assert run_main("""
        int add(int a, int b) { return a + b; }
        int twice(int x) { return add(x, x); }
        void main() { out(twice(add(1, 2))); }
        """) == [6]

    def test_sense_stream_is_deterministic(self):
        src = "void main() { out(sense()); out(sense()); }"
        assert run_main(src) == run_main(src)

    def test_for_bound_inference(self):
        from repro.ir import find_loops
        module = compile_source(
            "void main() { int s = 0; "
            "for (int i = 0; i < 10; i = i + 2) { s = s + i; } out(s); }"
        )
        loops = find_loops(module.functions["main"])
        assert loops and loops[0].bound == 5

    def test_global_counter_gets_no_bound(self):
        # The callee resets the counter: the loop runs 33 times, not 10.
        from repro.ir import find_loops
        src = ("int g; void reset() { g = 0; } "
               "void main() { int s = 0; "
               "for (g = 0; g < 10; g = g + 1) { "
               "s = s + 1; if (s < 25) { reset(); } } out(s); }")
        for module in (compile_source(src), compile_nvp(src).module):
            loops = find_loops(module.functions["main"])
            assert [loop.bound for loop in loops] == [None]
        assert run_main(src) == [33]

    def test_loops_sharing_a_counter_keep_their_bounds(self):
        # Each loop sees only the initialization that reaches its header.
        from repro.ir import find_loops
        src = ("void main() { int s = 0; int i; "
               "for (i = 0; i < 4; i = i + 1) { s = s + 1; } "
               "for (i = 0; i < 8; i = i + 1) { s = s + 10; } out(s); }")
        for module in (compile_source(src), compile_nvp(src).module):
            function = module.functions["main"]
            rpo = function.reverse_postorder().index
            loops = sorted(find_loops(function), key=lambda lp: rpo(lp.header))
            assert [loop.bound for loop in loops] == [4, 8]
        assert run_main(src) == [84]

    @settings(max_examples=60, deadline=None)
    @given(start=st.integers(-20, 20), limit=st.integers(-20, 20),
           step=st.integers(1, 5), op=st.sampled_from(["<", "<=", ">", ">="]),
           body_step=st.booleans(),
           counter=st.sampled_from(["for-init", "before", "reused"]))
    def test_inferred_bound_covers_execution(self, start, limit, step, op,
                                             body_step, counter):
        from repro.ir import find_loops
        advance = f"i + {step}" if op in ("<", "<=") else f"i - {step}"
        again = f" i = {advance};" if body_step else ""
        init = f"int i = {start}" if counter == "for-init" else f"i = {start}"
        before = {"for-init": "", "before": "int i; ",
                  "reused": "int i; int t = 0; "
                            "for (i = 0; i < 3; i = i + 1) { t = t + 1; } "}
        src = (f"void main() {{ int s = 0; {before[counter]}"
               f"for ({init}; i {op} {limit}; i = {advance}) "
               f"{{ s = s + 1;{again} }} out(s); }}")
        function = compile_source(src).functions["main"]
        rpo = function.reverse_postorder().index
        loop = max(find_loops(function), key=lambda lp: rpo(lp.header))
        (iterations,) = run_main(src)
        assert loop.bound is not None and loop.bound >= iterations
        if not body_step:
            assert loop.bound == iterations

    def test_main_with_return(self):
        assert run_main("void main() { out(1); return; out(2); }") == [1]

"""Property-based tests (hypothesis).

* ALU semantics against a hand-written Python model of 32-bit C
  arithmetic: the :data:`~repro.isa.instructions.ALU` table and every
  layer that computes with it (both execution backends, recovery blocks,
  both constant folders), zero-divisor traps included;
* the headline invariant: randomly generated MiniC programs produce
  identical committed output with and without injected power failures,
  under both Ratchet and GECKO (JIT and rollback recovery);
* energy-model invariants.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.compiler import optimize
from repro.core import compile_gecko, compile_ratchet
from repro.core.plans import SliceExec
from repro.errors import MachineFault, SemanticError, SimulationError
from repro.isa import Instr, Opcode, VReg, link, parse_instr, parse_program
from repro.isa.instructions import ALU, BINOPS as ALU_BINOPS
from repro.isa.operands import trunc_div, trunc_rem, wrap32
from repro.lang import lowering
from repro.runtime import (
    BACKEND_NAMES,
    GeckoRuntime,
    Machine,
    RollbackRuntime,
    execute_slice,
    run_to_completion,
)

int32 = st.integers(min_value=-(2**31), max_value=2**31 - 1)


# ----------------------------------------------------------------------
# ALU semantics vs a Python model.
# ----------------------------------------------------------------------
def _c_div(a: int, b: int) -> int:
    """C division: Python's floor quotient, moved toward zero if inexact."""
    quotient = a // b
    return quotient + 1 if quotient < 0 and quotient * b != a else quotient


#: Every ALU opcode, written out independently of ``repro.isa``'s table
#: (unary ops ignore ``b``).
_ALU_MODEL = {
    "add": lambda a, b: wrap32(a + b),
    "sub": lambda a, b: wrap32(a - b),
    "mul": lambda a, b: wrap32(a * b),
    "div": lambda a, b: wrap32(_c_div(a, b)),
    "rem": lambda a, b: wrap32(a - b * _c_div(a, b)),
    "and": lambda a, b: wrap32(a & b),
    "or": lambda a, b: wrap32(a | b),
    "xor": lambda a, b: wrap32(a ^ b),
    "shl": lambda a, b: wrap32(a << (b & 31)),
    "shr": lambda a, b: wrap32((a & 0xFFFFFFFF) >> (b & 31)),
    "sar": lambda a, b: wrap32(a >> (b & 31)),
    "neg": lambda a, b: wrap32(-a),
    "not": lambda a, b: wrap32(~a),
    "slt": lambda a, b: int(a < b),
    "sle": lambda a, b: int(a <= b),
    "seq": lambda a, b: int(a == b),
    "sne": lambda a, b: int(a != b),
    "sgt": lambda a, b: int(a > b),
    "sge": lambda a, b: int(a >= b),
}

_UNARY = ("neg", "not")

#: Where 32-bit C arithmetic and Python integers part ways.
_ALU_EDGES = [
    ("div", -(2**31), -1), ("rem", -(2**31), -1),
    ("div", 7, 0), ("rem", -7, 0),
    ("shl", 1, 31), ("shl", 1, 32), ("shl", 3, -1),
    ("shr", -1, 31), ("shr", -5, 32), ("shr", -8, -1), ("shr", -(2**31), 1),
    ("sar", -(2**31), 31), ("sar", -1, 32), ("sar", -12345, -1),
    ("neg", -(2**31), 0), ("not", -1, 0),
    ("add", 2**31 - 1, 1), ("sub", -(2**31), 1), ("mul", 2**31 - 1, 2**31 - 1),
]


def _alu_cases(test):
    """Every ALU opcode on random int32 operands, plus :data:`_ALU_EDGES`."""
    for op, a, b in _ALU_EDGES:
        test = example(op=op, a=a, b=b)(test)
    return settings(max_examples=120, deadline=None)(given(
        op=st.sampled_from(sorted(_ALU_MODEL)), a=int32, b=int32)(test))


def _traps(op: str, b: int) -> bool:
    return b == 0 and op in ("div", "rem")


def _alu_text(op: str, b: int, imm: bool = False) -> str:
    """``op R6, R4[, R5]``, or with ``b`` as an immediate divisor/operand."""
    if op in _UNARY:
        return f"{op} R6, R4"
    return f"{op} R6, R4, #{b}" if imm else f"{op} R6, R4, R5"


def _run_alu(backend: str, op: str, a: int, b: int, imm: bool = False) -> int:
    asm = f"""
.data
    s 1
.func main
    li R4, #{a}
    li R5, #{b}
    {_alu_text(op, b, imm)}
    out R6
    halt
"""
    machine = Machine(link(parse_program(asm)))
    machine.run(backend=backend)
    return machine.committed_out[0]


def test_alu_table_covers_every_alu_opcode():
    assert set(ALU) == ALU_BINOPS | {Opcode.NEG, Opcode.NOT}
    assert {Opcode(op) for op in _ALU_MODEL} == set(ALU)


@_alu_cases
def test_alu_table_matches_model(op, a, b):
    if not _traps(op, b):  # a zero divisor is each caller's own trap
        assert ALU[Opcode(op)](a, b) == _ALU_MODEL[op](a, b)


@_alu_cases
def test_alu_matches_model(op, a, b):
    """Both backends, with ``b`` in a register and as an immediate."""
    for backend in BACKEND_NAMES:
        for imm in (False, True):
            if _traps(op, b):
                with pytest.raises(MachineFault,
                                   match="^pc=2: division by zero$"):
                    _run_alu(backend, op, a, b, imm)
            else:
                assert _run_alu(backend, op, a, b, imm) \
                    == _ALU_MODEL[op](a, b)


@_alu_cases
def test_recovery_block_alu_matches_model(op, a, b):
    block = SliceExec(target=6, instrs=[
        parse_instr(f"li R4, #{a}"), parse_instr(f"li R5, #{b}"),
        parse_instr(_alu_text(op, b))])
    machine = Machine(link(parse_program(".func main\n    halt\n")))
    if _traps(op, b):
        with pytest.raises(SimulationError,
                           match="recovery block division by zero"):
            execute_slice(machine, block)
    else:
        execute_slice(machine, block)
        assert machine.regs[6] == _ALU_MODEL[op](a, b)


@_alu_cases
def test_constant_propagation_matches_model(op, a, b):
    instr = Instr(Opcode(op), dst=VReg(3), a=VReg(1),
                  b=None if op in _UNARY else VReg(2))
    folded = optimize._evaluate(instr, {VReg(1): a, VReg(2): b})
    if _traps(op, b):
        assert folded is optimize._BOTTOM  # the trap survives folding
    else:
        assert folded == _ALU_MODEL[op](a, b)


#: MiniC binary operator of each opcode that has one.
_MINIC_OPERATORS = {opcode.value: symbol for symbol, opcode
                    in lowering._BINOP_OPCODES.items()}


@_alu_cases
def test_minic_constant_folding_matches_model(op, a, b):
    symbol = _MINIC_OPERATORS.get(op)
    if symbol is None:  # shr, neg and not have no binary MiniC operator
        return
    if _traps(op, b):
        with pytest.raises(SemanticError, match="constant division by zero"):
            lowering._fold_binary(symbol, a, b, line=1)
    else:
        assert lowering._fold_binary(symbol, a, b, line=1) \
            == _ALU_MODEL[op](a, b)


@settings(max_examples=60, deadline=None)
@given(a=int32, b=int32.filter(lambda v: v != 0))
def test_division_matches_c_semantics(a, b):
    quotient = _run_alu("interpreter", "div", a, b)
    remainder = _run_alu("interpreter", "rem", a, b)
    assert quotient == trunc_div(a, b)
    assert remainder == trunc_rem(a, b)
    if b != -1 or a != -(2**31):  # the single UB-ish corner: just wraps
        assert wrap32(_ALU_MODEL["mul"](quotient, b) + remainder) \
            == wrap32(a)


@settings(max_examples=80, deadline=None)
@given(value=st.integers(min_value=-(2**40), max_value=2**40))
def test_wrap32_involution(value):
    assert wrap32(wrap32(value)) == wrap32(value)
    assert -(2**31) <= wrap32(value) <= 2**31 - 1


# ----------------------------------------------------------------------
# Random MiniC programs: crash consistency end to end.
# ----------------------------------------------------------------------
VARS = ["a", "b", "c", "d"]
BINOPS = ["+", "-", "*", "&", "|", "^"]


@st.composite
def expressions(draw, depth: int = 0):
    choice = draw(st.integers(0, 5 if depth < 2 else 2))
    if choice == 0:
        return str(draw(st.integers(-1000, 1000)))
    if choice == 1:
        return draw(st.sampled_from(VARS))
    if choice == 2:
        index = draw(expressions(depth=2))
        return f"buf[({index}) & 7]"
    if choice == 3:
        op = draw(st.sampled_from(BINOPS))
        left = draw(expressions(depth=depth + 1))
        right = draw(expressions(depth=depth + 1))
        return f"({left} {op} {right})"
    if choice == 4:
        amount = draw(st.integers(0, 8))
        inner = draw(expressions(depth=depth + 1))
        direction = draw(st.sampled_from([">>", "<<"]))
        return f"(({inner}) {direction} {amount})"
    return f"(({draw(expressions(depth=depth + 1))}) % 1021)"


@st.composite
def statements(draw, depth: int = 0):
    choice = draw(st.integers(0, 5 if depth < 2 else 2))
    if choice == 0:
        var = draw(st.sampled_from(VARS))
        return f"{var} = {draw(expressions())};"
    if choice == 1:
        index = draw(expressions(depth=2))
        return f"buf[({index}) & 7] = {draw(expressions())};"
    if choice == 2:
        return f"out({draw(expressions())});"
    if choice == 3:
        cond = draw(expressions(depth=1))
        then = draw(statements(depth=depth + 1))
        other = draw(statements(depth=depth + 1))
        return f"if (({cond}) & 1) {{ {then} }} else {{ {other} }}"
    if choice == 4:
        bound = draw(st.integers(1, 5))
        var = f"i{depth}"
        body = draw(statements(depth=depth + 1))
        return (f"for (int {var} = 0; {var} < {bound}; "
                f"{var} = {var} + 1) {{ {body} }}")
    return f"{draw(st.sampled_from(VARS))} = sense();"


@st.composite
def programs(draw):
    body = "\n    ".join(
        draw(st.lists(statements(), min_size=3, max_size=10))
    )
    use_helper = draw(st.booleans())
    helper = ""
    helper_call = ""
    if use_helper:
        op1 = draw(st.sampled_from(BINOPS))
        op2 = draw(st.sampled_from(BINOPS))
        shift = draw(st.integers(0, 8))
        constant = draw(st.integers(-50, 50))
        helper = f"""
int mix(int x, int y) {{
    int acc = (x ^ y) + {constant};
    acc = acc {op1} (buf[(x) & 7] {op2} (y >> {shift}));
    return acc;
}}
"""
        helper_call = "a = mix(a, b); c = mix(c, d);"
    return f"""
int buf[8] = {{3, 1, 4, 1, 5, 9, 2, 6}};
{helper}
void main() {{
    int a = 7; int b = -2; int c = 100; int d = 0;
    {body}
    {helper_call}
    out(a); out(b); out(c); out(d);
    for (int k = 0; k < 8; k = k + 1) {{ out(buf[k]); }}
}}
"""


def _crash_everything(compiled, runtime_factory, period, rollback):
    machine = Machine(compiled.linked)
    runtime = runtime_factory(compiled.linked)
    runtime.on_reboot(machine)
    if rollback:
        machine.write_word("__mode", 0, 1)
    since = 0
    guard = 0
    while not machine.halted:
        since += machine.step()
        if since >= period and not machine.halted:
            since = 0
            guard += 1
            assert guard < 50_000, "livelock on generated program"
            if not rollback and isinstance(runtime, GeckoRuntime):
                runtime.on_checkpoint_signal(machine, 1e9)
            machine.power_off()
            runtime.on_reboot(machine)
            if rollback:
                machine.write_word("__mode", 0, 1)
    return machine.committed_out


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large,
                                 HealthCheck.filter_too_much])
@given(src=programs(), period=st.sampled_from([113, 431, 1009]))
def test_random_programs_crash_consistent(src, period):
    gecko = compile_gecko(src, region_budget=2000)
    golden = run_to_completion(gecko.linked).committed_out

    # GECKO pure rollback (recovery blocks + coloring under fire).
    out = _crash_everything(gecko, GeckoRuntime, max(period, 2100), True)
    assert out == golden

    # GECKO hybrid JIT path.
    out = _crash_everything(gecko, GeckoRuntime, max(period, 2100), False)
    assert out == golden

    # Ratchet full-register-file rollback.
    ratchet = compile_ratchet(src)
    golden_r = run_to_completion(ratchet.linked).committed_out
    assert golden_r == golden  # schemes agree on failure-free semantics
    out = _crash_everything(ratchet, RollbackRuntime, 4001, True)
    assert out == golden


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(src=programs())
def test_random_programs_restore_plans_exact(src):
    """Invariant 3 on generated programs: plans rebuild boundary state."""
    from repro.isa import Opcode
    compiled = compile_gecko(src, region_budget=2000)
    runtime = RollbackRuntime(compiled.linked)
    golden = Machine(compiled.linked)
    snapshots = []
    while not golden.halted:
        was_mark = compiled.linked.instrs[golden.pc].op is Opcode.MARK
        golden.step()
        if was_mark:
            snapshots.append((golden.read_word("__region_cur"), golden.pc,
                              list(golden.regs), list(golden.mem)))
    for region, pc, regs, mem in snapshots[::3]:
        machine = Machine(compiled.linked)
        machine.mem[:] = mem
        machine.power_off()
        runtime.rollback_restore(machine)
        assert machine.pc == pc
        for reg_index in runtime.table[region].restores:
            assert machine.regs[reg_index] == regs[reg_index]


# ----------------------------------------------------------------------
# Energy-model invariants.
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(c=st.floats(1e-7, 1e-2), v=st.floats(0.1, 3.3))
def test_capacitor_energy_voltage_roundtrip(c, v):
    from repro.energy import Capacitor
    cap = Capacitor(c)
    cap.reset(v)
    assert cap.voltage == pytest.approx(min(v, cap.v_max), rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(c=st.floats(1e-6, 1e-2), power=st.floats(0, 1e-2),
       dt=st.floats(0, 0.1))
def test_capacitor_charge_bounded(c, power, dt):
    from repro.energy import Capacitor
    cap = Capacitor(c)
    cap.reset(1.0)
    before = cap.energy
    stored = cap.charge(power, dt)
    assert 0 <= stored <= power * dt + 1e-12
    assert cap.energy == pytest.approx(before + stored)
    assert cap.voltage <= cap.v_max + 1e-9

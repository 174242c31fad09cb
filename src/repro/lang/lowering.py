"""Lowering from the MiniC AST to the mid-level IR.

Conventions:

* Scalar locals and parameters live in virtual registers.
* Local arrays live in the function's static frame (``__frame_<f>``).
* Arguments are passed through per-callee global slots ``__arg_<f>_<i>``;
  return values through ``__ret_<f>``.  The static-frame convention forbids
  recursion (rejected later by :meth:`repro.ir.cfg.Module.call_order`).
* ``&&``/``||`` short-circuit via control flow.
* ``for`` loops with constant init/limit/step and an unmodified induction
  variable get an inferred trip bound; ``bound(N)`` annotations override.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from ..errors import SemanticError
from ..isa import instructions as ins
from ..isa.instructions import ALU, Instr, Opcode
from ..isa.operands import Imm, Label, Sym, VReg, wrap32
from ..isa.program import ISR_SOURCES
from ..ir.cfg import BasicBlock, Function, Module, remove_unreachable
from . import ast
from .parser import parse

#: AST binary operator -> IR opcode (the short-circuit ones are absent).
_BINOP_OPCODES = {
    "+": Opcode.ADD, "-": Opcode.SUB, "*": Opcode.MUL,
    "/": Opcode.DIV, "%": Opcode.REM,
    "&": Opcode.AND, "|": Opcode.OR, "^": Opcode.XOR,
    "<<": Opcode.SHL, ">>": Opcode.SAR,
    "<": Opcode.SLT, "<=": Opcode.SLE, ">": Opcode.SGT, ">=": Opcode.SGE,
    "==": Opcode.SEQ, "!=": Opcode.SNE,
}

#: AST unary operator -> IR opcode (``!x`` is ``x == 0``).
_UNARY_OPCODES = {"-": Opcode.NEG, "~": Opcode.NOT, "!": Opcode.SEQ}

Binding = Tuple[str, object]  # ("reg", VReg) | ("gscalar"|"garray", name[, size]) | ("larray", off, size)

#: Peripheral intrinsics (name -> arity).  Calls to these names lower to
#: MMIO loads/stores on the linker's peripheral control block; a user
#: function of the same name shadows the intrinsic.
_PERIPH_INTRINSICS: Dict[str, int] = {
    "irq_enable": 1, "irq_disable": 1, "irq_pending": 0,
    "irq_priority": 2, "irq_nest": 1,
    "timer_start": 1, "timer_stop": 0, "timer_count": 0,
    "adc_start": 1, "adc_stop": 0, "adc_read": 0, "adc_count": 0,
    "gpio_watch": 1, "gpio_stop": 0, "gpio_read": 0, "gpio_write": 1,
    "dma_start": 2, "dma_done": 0, "dma_get": 1,
}


def compile_source(source: str, entry: str = "main") -> Module:
    """Parse and lower MiniC source into a verified IR module."""
    return lower_program(parse(source), entry=entry)


def lower_program(program: ast.ProgramAst, entry: str = "main") -> Module:
    """Lower a parsed program into a verified IR module."""
    module = Module(entry=entry)
    func_decls: Dict[str, ast.FuncDecl] = {}
    for decl in program.functions:
        if decl.name in func_decls:
            raise SemanticError(f"line {decl.line}: duplicate function {decl.name}")
        func_decls[decl.name] = decl

    global_env: Dict[str, Binding] = {}
    for decl in program.globals:
        if decl.name in global_env or decl.name in func_decls:
            raise SemanticError(f"line {decl.line}: duplicate global {decl.name}")
        size = decl.size if decl.size is not None else 1
        init = decl.init_list
        if init is not None and len(init) > size:
            raise SemanticError(
                f"line {decl.line}: initialiser for {decl.name} too long"
            )
        module.add_global(decl.name, size, [wrap32(v) for v in init] if init else None)
        if decl.size is None:
            global_env[decl.name] = ("gscalar", decl.name)
        else:
            global_env[decl.name] = ("garray", (decl.name, decl.size))

    if entry not in func_decls:
        raise SemanticError(f"no {entry!r} function defined")

    for decl in func_decls.values():
        if decl.isr_source is None:
            continue
        if decl.isr_source not in ISR_SOURCES:
            raise SemanticError(
                f"line {decl.line}: unknown interrupt source "
                f"{decl.isr_source!r} (want one of "
                f"{', '.join(sorted(ISR_SOURCES))})"
            )
        if decl.name == entry:
            raise SemanticError(
                f"line {decl.line}: the entry function cannot be an isr")
        vector = ISR_SOURCES[decl.isr_source]
        if vector in module.isrs:
            raise SemanticError(
                f"line {decl.line}: duplicate handler for interrupt source "
                f"{decl.isr_source!r}"
            )
        module.isrs[vector] = decl.name
        module.uses_periph = True

    for decl in func_decls.values():
        for i in range(len(decl.params)):
            module.add_global(f"__arg_{decl.name}_{i}", 1)
        if decl.returns_value:
            module.add_global(f"__ret_{decl.name}", 1)

    for decl in func_decls.values():
        lowerer = _FunctionLowerer(module, decl, func_decls, global_env,
                                   is_entry=decl.name == entry)
        module.add_function(lowerer.lower())

    # Frame symbols (__frame_<f>) are *not* registered here: register
    # allocation may still grow frames with spill slots, so code generation
    # owns the final frame sizes.
    module.verify()
    return module


class _FunctionLowerer:
    """Lowers a single function body."""

    def __init__(self, module: Module, decl: ast.FuncDecl,
                 func_decls: Dict[str, ast.FuncDecl],
                 global_env: Dict[str, Binding], is_entry: bool) -> None:
        self._module = module
        self._decl = decl
        self._func_decls = func_decls
        self._is_entry = is_entry
        self._fn = Function(decl.name)
        self._scopes: List[Dict[str, Binding]] = [dict(global_env)]
        self._block: BasicBlock = self._fn.add_block(name="entry")
        self._loop_stack: List[Tuple[str, str]] = []  # (continue tgt, break tgt)

    # -- plumbing -----------------------------------------------------
    def _emit(self, instr: Instr) -> None:
        self._block.instrs.append(instr)

    def _start_block(self, name: Optional[str] = None, hint: str = "bb") -> None:
        self._block = self._fn.add_block(name=name, hint=hint)

    def _branch(self, cond: VReg, then_name: str, else_name: str) -> None:
        self._emit(ins.bnz(cond, Label(then_name)))
        self._emit(ins.jmp(Label(else_name)))

    def _lookup(self, name: str, line: int) -> Binding:
        for scope in reversed(self._scopes):
            if name in scope:
                return scope[name]
        raise SemanticError(f"line {line}: undeclared variable {name!r}")

    def _declare(self, name: str, binding: Binding, line: int) -> None:
        if name in self._scopes[-1]:
            raise SemanticError(f"line {line}: redeclaration of {name!r}")
        self._scopes[-1][name] = binding

    def _as_reg(self, operand: Union[VReg, Imm]) -> VReg:
        if isinstance(operand, VReg):
            return operand
        reg = self._fn.new_vreg()
        self._emit(ins.li(reg, operand.value))
        return reg

    # -- entry point ----------------------------------------------------
    def lower(self) -> Function:
        decl = self._decl
        self._fn.params = []
        for i, pname in enumerate(decl.params):
            reg = self._fn.new_vreg()
            self._emit(ins.load(reg, Sym(f"__arg_{decl.name}_{i}"), Imm(0)))
            self._declare(pname, ("reg", reg), decl.line)
            self._fn.params.append(reg)
        self._lower_block(decl.body)
        if not self._block.terminated:
            self._emit(Instr(Opcode.HALT) if self._is_entry else ins.ret())
        remove_unreachable(self._fn)
        return self._fn

    # -- statements -------------------------------------------------------
    def _lower_stmt(self, stmt: ast.Stmt) -> None:
        handler = {
            ast.Block: self._lower_block,
            ast.VarDecl: self._lower_var_decl,
            ast.Assign: self._lower_assign,
            ast.If: self._lower_if,
            ast.While: self._lower_while,
            ast.For: self._lower_for,
            ast.Return: self._lower_return,
            ast.ExprStmt: self._lower_expr_stmt,
            ast.OutStmt: self._lower_out,
            ast.Break: self._lower_break,
            ast.Continue: self._lower_continue,
        }.get(type(stmt))
        if handler is None:
            raise SemanticError(f"unsupported statement {type(stmt).__name__}")
        handler(stmt)

    def _lower_block(self, block: ast.Block) -> None:
        self._scopes.append({})
        for stmt in block.stmts:
            self._lower_stmt(stmt)
        self._scopes.pop()

    def _lower_var_decl(self, stmt: ast.VarDecl) -> None:
        if stmt.size is None:
            reg = self._fn.new_vreg()
            if stmt.init is not None:
                value = self._lower_expr(stmt.init)
                if isinstance(value, Imm):
                    self._emit(ins.li(reg, value.value))
                else:
                    self._emit(ins.mov(reg, value))
            else:
                self._emit(ins.li(reg, 0))
            self._declare(stmt.name, ("reg", reg), stmt.line)
            return
        offset = self._fn.alloc_frame(stmt.size)
        self._declare(stmt.name, ("larray", (offset, stmt.size)), stmt.line)
        if stmt.init_list:
            if len(stmt.init_list) > stmt.size:
                raise SemanticError(
                    f"line {stmt.line}: initialiser for {stmt.name} too long"
                )
            for i, value in enumerate(stmt.init_list):
                reg = self._fn.new_vreg()
                self._emit(ins.li(reg, wrap32(value)))
                self._emit(ins.store(reg, Sym(self._fn.frame_symbol),
                                     Imm(offset + i)))

    def _lower_assign(self, stmt: ast.Assign) -> None:
        binding = self._lookup(stmt.target, stmt.line)
        kind, payload = binding
        if stmt.index is None:
            value = self._lower_expr(stmt.value)
            if kind == "reg":
                if isinstance(value, Imm):
                    self._emit(ins.li(payload, value.value))
                else:
                    self._emit(ins.mov(payload, value))
                return
            if kind == "gscalar":
                self._emit(ins.store(self._as_reg(value), Sym(payload), Imm(0)))
                return
            raise SemanticError(
                f"line {stmt.line}: cannot assign to array {stmt.target!r} "
                f"without an index"
            )
        sym, off = self._array_address(stmt.target, binding, stmt.index, stmt.line)
        value = self._lower_expr(stmt.value)
        self._emit(ins.store(self._as_reg(value), sym, off))

    def _array_address(self, name: str, binding: Binding, index: ast.Expr,
                       line: int) -> Tuple[Sym, Union[VReg, Imm]]:
        kind, payload = binding
        idx = self._lower_expr(index)
        if kind == "garray":
            sym_name, _size = payload
            return Sym(sym_name), idx
        if kind == "larray":
            offset, _size = payload
            if isinstance(idx, Imm):
                return Sym(self._fn.frame_symbol), Imm(offset + idx.value)
            base = self._fn.new_vreg()
            self._emit(ins.binop(Opcode.ADD, base, self._as_reg(idx), Imm(offset)))
            return Sym(self._fn.frame_symbol), base
        raise SemanticError(f"line {line}: {name!r} is not an array")

    def _lower_if(self, stmt: ast.If) -> None:
        cond = self._as_reg(self._lower_expr(stmt.cond))
        then_name = self._fn.new_label("then")
        join_name = self._fn.new_label("join")
        else_name = self._fn.new_label("else") if stmt.otherwise else join_name
        self._branch(cond, then_name, else_name)
        self._start_block(name=then_name)
        self._lower_stmt(stmt.then)
        if not self._block.terminated:
            self._emit(ins.jmp(Label(join_name)))
        if stmt.otherwise is not None:
            self._start_block(name=else_name)
            self._lower_stmt(stmt.otherwise)
            if not self._block.terminated:
                self._emit(ins.jmp(Label(join_name)))
        self._start_block(name=join_name)

    def _lower_while(self, stmt: ast.While) -> None:
        header = self._fn.new_label("loop")
        body_name = self._fn.new_label("body")
        after = self._fn.new_label("after")
        self._emit(ins.jmp(Label(header)))
        self._start_block(name=header)
        if stmt.bound is not None:
            self._block.meta["loop_bound"] = stmt.bound
        cond = self._as_reg(self._lower_expr(stmt.cond))
        self._branch(cond, body_name, after)
        self._start_block(name=body_name)
        self._loop_stack.append((header, after))
        self._lower_stmt(stmt.body)
        self._loop_stack.pop()
        if not self._block.terminated:
            self._emit(ins.jmp(Label(header)))
        self._start_block(name=after)

    def _lower_for(self, stmt: ast.For) -> None:
        self._scopes.append({})  # a for-init declaration scopes to the loop
        if stmt.init is not None:
            self._lower_stmt(stmt.init)
        header = self._fn.new_label("loop")
        body_name = self._fn.new_label("body")
        step_name = self._fn.new_label("step")
        after = self._fn.new_label("after")
        self._emit(ins.jmp(Label(header)))
        self._start_block(name=header)
        bound = stmt.bound if stmt.bound is not None else _infer_for_bound(stmt)
        if bound is not None:
            self._block.meta["loop_bound"] = bound
        if stmt.cond is not None:
            cond = self._as_reg(self._lower_expr(stmt.cond))
            self._branch(cond, body_name, after)
        else:
            self._emit(ins.jmp(Label(body_name)))
        self._start_block(name=body_name)
        self._loop_stack.append((step_name, after))
        self._lower_stmt(stmt.body)
        self._loop_stack.pop()
        if not self._block.terminated:
            self._emit(ins.jmp(Label(step_name)))
        self._start_block(name=step_name)
        if stmt.step is not None:
            self._lower_stmt(stmt.step)
        self._emit(ins.jmp(Label(header)))
        self._start_block(name=after)
        self._scopes.pop()

    def _lower_return(self, stmt: ast.Return) -> None:
        if stmt.value is not None:
            if not self._decl.returns_value:
                raise SemanticError(
                    f"line {stmt.line}: void function {self._decl.name!r} "
                    f"returns a value"
                )
            value = self._as_reg(self._lower_expr(stmt.value))
            self._emit(ins.store(value, Sym(f"__ret_{self._decl.name}"), Imm(0)))
        self._emit(Instr(Opcode.HALT) if self._is_entry else ins.ret())
        self._start_block(hint="dead")

    def _lower_expr_stmt(self, stmt: ast.ExprStmt) -> None:
        self._lower_expr(stmt.expr)

    def _lower_out(self, stmt: ast.OutStmt) -> None:
        value = self._as_reg(self._lower_expr(stmt.value))
        self._emit(ins.out(value))

    def _lower_break(self, stmt: ast.Break) -> None:
        if not self._loop_stack:
            raise SemanticError(f"line {stmt.line}: break outside a loop")
        self._emit(ins.jmp(Label(self._loop_stack[-1][1])))
        self._start_block(hint="dead")

    def _lower_continue(self, stmt: ast.Continue) -> None:
        if not self._loop_stack:
            raise SemanticError(f"line {stmt.line}: continue outside a loop")
        self._emit(ins.jmp(Label(self._loop_stack[-1][0])))
        self._start_block(hint="dead")

    # -- expressions ------------------------------------------------------
    def _lower_expr(self, expr: ast.Expr) -> Union[VReg, Imm]:
        if isinstance(expr, ast.Num):
            return Imm(wrap32(expr.value))
        if isinstance(expr, ast.Var):
            return self._lower_var(expr)
        if isinstance(expr, ast.ArrIndex):
            binding = self._lookup(expr.name, expr.line)
            sym, off = self._array_address(expr.name, binding, expr.index,
                                           expr.line)
            reg = self._fn.new_vreg()
            self._emit(ins.load(reg, sym, off))
            return reg
        if isinstance(expr, ast.Unary):
            return self._lower_unary(expr)
        if isinstance(expr, ast.Binary):
            if expr.op in ("&&", "||"):
                return self._lower_shortcircuit(expr)
            return self._lower_binary(expr)
        if isinstance(expr, ast.Call):
            return self._lower_call(expr)
        if isinstance(expr, ast.SenseExpr):
            reg = self._fn.new_vreg()
            self._emit(ins.sense(reg))
            return reg
        raise SemanticError(f"unsupported expression {type(expr).__name__}")

    def _lower_var(self, expr: ast.Var) -> Union[VReg, Imm]:
        kind, payload = self._lookup(expr.name, expr.line)
        if kind == "reg":
            return payload
        if kind == "gscalar":
            reg = self._fn.new_vreg()
            self._emit(ins.load(reg, Sym(payload), Imm(0)))
            return reg
        raise SemanticError(
            f"line {expr.line}: array {expr.name!r} used without an index"
        )

    def _lower_unary(self, expr: ast.Unary) -> Union[VReg, Imm]:
        operand = self._lower_expr(expr.operand)
        opcode = _UNARY_OPCODES[expr.op]
        if isinstance(operand, Imm):
            return Imm(ALU[opcode](operand.value))
        reg = self._fn.new_vreg()
        if opcode is Opcode.SEQ:  # '!x' is 'x == 0'
            self._emit(ins.binop(opcode, reg, operand, Imm(0)))
        else:
            self._emit(Instr(opcode, dst=reg, a=operand))
        return reg

    def _lower_binary(self, expr: ast.Binary) -> Union[VReg, Imm]:
        left = self._lower_expr(expr.left)
        right = self._lower_expr(expr.right)
        if isinstance(left, Imm) and isinstance(right, Imm):
            return Imm(_fold_binary(expr.op, left.value, right.value,
                                    expr.line))
        opcode = _BINOP_OPCODES[expr.op]
        reg = self._fn.new_vreg()
        self._emit(ins.binop(opcode, reg, self._as_reg(left), right))
        return reg

    def _lower_shortcircuit(self, expr: ast.Binary) -> VReg:
        result = self._fn.new_vreg()
        rhs_name = self._fn.new_label("sc_rhs")
        done_name = self._fn.new_label("sc_done")
        set_name = self._fn.new_label("sc_const")
        left = self._as_reg(self._lower_expr(expr.left))
        if expr.op == "&&":
            self._branch(left, rhs_name, set_name)  # left false -> result 0
            const_value = 0
        else:
            self._branch(left, set_name, rhs_name)  # left true -> result 1
            const_value = 1
        self._start_block(name=set_name)
        self._emit(ins.li(result, const_value))
        self._emit(ins.jmp(Label(done_name)))
        self._start_block(name=rhs_name)
        right = self._as_reg(self._lower_expr(expr.right))
        self._emit(ins.binop(Opcode.SNE, result, right, Imm(0)))
        self._emit(ins.jmp(Label(done_name)))
        self._start_block(name=done_name)
        return result

    def _lower_call(self, expr: ast.Call) -> Union[VReg, Imm]:
        decl = self._func_decls.get(expr.name)
        if decl is None:
            lowered = self._lower_intrinsic(expr)
            if lowered is not None:
                return lowered
            raise SemanticError(f"line {expr.line}: call to undefined "
                                f"function {expr.name!r}")
        if decl.isr_source is not None:
            raise SemanticError(
                f"line {expr.line}: isr handler {expr.name!r} cannot be "
                f"called directly"
            )
        if len(expr.args) != len(decl.params):
            raise SemanticError(
                f"line {expr.line}: {expr.name}() takes {len(decl.params)} "
                f"arguments, got {len(expr.args)}"
            )
        arg_regs = [self._as_reg(self._lower_expr(arg)) for arg in expr.args]
        for i, reg in enumerate(arg_regs):
            self._emit(ins.store(reg, Sym(f"__arg_{expr.name}_{i}"), Imm(0)))
        self._emit(ins.call(expr.name))
        if decl.returns_value:
            reg = self._fn.new_vreg()
            self._emit(ins.load(reg, Sym(f"__ret_{expr.name}"), Imm(0)))
            return reg
        return Imm(0)  # a void call used as a value is harmlessly zero

    # -- peripheral MMIO intrinsics ------------------------------------
    def _periph_load(self, sym: str,
                     off: Union[VReg, Imm] = Imm(0)) -> VReg:
        reg = self._fn.new_vreg()
        self._emit(ins.load(reg, Sym(sym), off))
        return reg

    def _periph_store(self, sym: str, value: Union[VReg, Imm],
                      off: Union[VReg, Imm] = Imm(0)) -> None:
        self._emit(ins.store(self._as_reg(value), Sym(sym), off))

    def _periph_store_imm(self, sym: str, value: int) -> None:
        reg = self._fn.new_vreg()
        self._emit(ins.li(reg, value))
        self._emit(ins.store(reg, Sym(sym), Imm(0)))

    def _device_start(self, prefix: str, period: Union[VReg, Imm]) -> None:
        # ctrl is written 0 first so no spurious re-arm happens between
        # the configuration stores; base = 0 re-arms at the next boundary.
        self._periph_store_imm(f"{prefix}_ctrl", 0)
        self._periph_store(f"{prefix}_period", period)
        self._periph_store_imm(f"{prefix}_count", 0)
        self._periph_store_imm(f"{prefix}_base", 0)
        self._periph_store_imm(f"{prefix}_ctrl", 1)

    def _device_stop(self, prefix: str) -> None:
        self._periph_store_imm(f"{prefix}_ctrl", 0)
        self._periph_store_imm(f"{prefix}_base", 0)

    def _lower_intrinsic(self, expr: ast.Call) -> Optional[Union[VReg, Imm]]:
        """Lower a peripheral intrinsic, or return None if ``expr`` isn't
        one.  Intrinsics are plain loads/stores/ALU on the MMIO control
        block (:data:`repro.isa.program.PERIPH_SYMBOLS`) — no new opcodes."""
        name = expr.name
        arity = _PERIPH_INTRINSICS.get(name)
        if arity is None:
            return None
        if len(expr.args) != arity:
            raise SemanticError(
                f"line {expr.line}: {name}() takes {arity} "
                f"argument{'s' if arity != 1 else ''}, got {len(expr.args)}"
            )
        self._module.uses_periph = True
        args = [self._lower_expr(arg) for arg in expr.args]
        if name == "irq_enable" or name == "irq_disable":
            cur = self._periph_load("__irq_en")
            out = self._fn.new_vreg()
            if name == "irq_enable":
                self._emit(ins.binop(Opcode.OR, out, cur, args[0]))
            else:
                mask = args[0]
                if isinstance(mask, Imm):
                    inverted: Union[VReg, Imm] = Imm(
                        ALU[Opcode.NOT](mask.value))
                else:
                    inverted = self._fn.new_vreg()
                    self._emit(Instr(Opcode.NOT, dst=inverted, a=mask))
                self._emit(ins.binop(Opcode.AND, out, cur, inverted))
            self._periph_store("__irq_en", out)
            return Imm(0)
        if name == "irq_pending":
            return self._periph_load("__irq_pend")
        if name == "irq_priority":
            self._periph_store("__irq_prio", args[1], off=args[0])
            return Imm(0)
        if name == "irq_nest":
            self._periph_store("__irq_nest", args[0])
            return Imm(0)
        if name == "timer_start":
            self._device_start("__t0", args[0])
            return Imm(0)
        if name == "timer_stop":
            self._device_stop("__t0")
            return Imm(0)
        if name == "timer_count":
            return self._periph_load("__t0_count")
        if name == "adc_start":
            self._device_start("__adc", args[0])
            return Imm(0)
        if name == "adc_stop":
            self._device_stop("__adc")
            return Imm(0)
        if name == "adc_read":
            return self._periph_load("__adc_data")
        if name == "adc_count":
            return self._periph_load("__adc_count")
        if name == "gpio_watch":
            self._device_start("__gpio", args[0])
            return Imm(0)
        if name == "gpio_stop":
            self._device_stop("__gpio")
            return Imm(0)
        if name == "gpio_read":
            return self._periph_load("__gpio_in")
        if name == "gpio_write":
            self._periph_store("__gpio_out", args[0])
            return Imm(0)
        if name == "dma_start":
            self._periph_store_imm("__dma_ctrl", 0)
            self._periph_store("__dma_len", args[0])
            self._periph_store("__dma_rate", args[1])
            self._periph_store_imm("__dma_xfrd", 0)
            self._periph_store_imm("__dma_done", 0)
            self._periph_store_imm("__dma_base", 0)
            self._periph_store_imm("__dma_ctrl", 1)
            return Imm(0)
        if name == "dma_done":
            return self._periph_load("__dma_done")
        if name == "dma_get":
            return self._periph_load("__dma_buf", off=args[0])
        raise SemanticError(
            f"line {expr.line}: unimplemented intrinsic {name!r}"
        )  # pragma: no cover - table and dispatch kept in sync


def _fold_binary(op: str, a: int, b: int, line: int) -> int:
    """Constant-fold a binary op with the machine's own arithmetic."""
    opcode = _BINOP_OPCODES[op]
    if b == 0 and opcode in (Opcode.DIV, Opcode.REM):
        raise SemanticError(f"line {line}: constant division by zero")
    return ALU[opcode](a, b)


def _infer_for_bound(stmt: ast.For) -> Optional[int]:
    """Infer a trip bound for a canonical counted ``for`` loop."""
    init = stmt.init
    if isinstance(init, ast.VarDecl) and isinstance(init.init, ast.Num):
        var, start = init.name, init.init.value
    elif (isinstance(init, ast.Assign) and init.index is None
          and isinstance(init.value, ast.Num)):
        var, start = init.target, init.value.value
    else:
        return None
    cond = stmt.cond
    if not (isinstance(cond, ast.Binary) and isinstance(cond.left, ast.Var)
            and cond.left.name == var and isinstance(cond.right, ast.Num)
            and cond.op in ("<", "<=", ">", ">=")):
        return None
    limit = cond.right.value
    step_stmt = stmt.step
    if not (isinstance(step_stmt, ast.Assign) and step_stmt.target == var
            and step_stmt.index is None):
        return None
    step_expr = step_stmt.value
    if not (isinstance(step_expr, ast.Binary) and step_expr.op in ("+", "-")
            and isinstance(step_expr.left, ast.Var)
            and step_expr.left.name == var
            and isinstance(step_expr.right, ast.Num)):
        return None
    delta = step_expr.right.value
    if step_expr.op == "-":
        delta = -delta
    if delta == 0 or _modifies_var(stmt.body, var):
        return None
    if cond.op == "<" and delta > 0:
        span = limit - start
    elif cond.op == "<=" and delta > 0:
        span = limit - start + 1
    elif cond.op == ">" and delta < 0:
        span = start - limit
    elif cond.op == ">=" and delta < 0:
        span = start - limit + 1
    else:
        return None
    if span <= 0:
        return 0
    return -(-span // abs(delta))  # ceil division


def _modifies_var(node: object, var: str) -> bool:
    """Whether any statement under ``node`` assigns to scalar ``var``."""
    if isinstance(node, ast.Assign):
        return node.index is None and node.target == var
    if isinstance(node, ast.VarDecl):
        return node.name == var  # shadowing: be conservative
    if isinstance(node, ast.Block):
        return any(_modifies_var(s, var) for s in node.stmts)
    if isinstance(node, ast.If):
        return (_modifies_var(node.then, var)
                or _modifies_var(node.otherwise, var))
    if isinstance(node, (ast.While, ast.For)):
        parts = [node.body]
        if isinstance(node, ast.For):
            parts += [node.init, node.step]
        return any(_modifies_var(p, var) for p in parts if p is not None)
    return False

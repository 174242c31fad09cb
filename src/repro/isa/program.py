"""Machine-level program containers and the linker.

A :class:`MachineProgram` is the output of code generation: a set of
:class:`MachineFunction` bodies (flat instruction lists with local labels)
plus a data-symbol table.  :func:`link` flattens it into a
:class:`LinkedProgram` — absolute instruction indices, absolute data
addresses, and the runtime control block the crash-consistency runtimes
(:mod:`repro.runtime`) rely on.

Memory layout (word addressed, all of it non-volatile FRAM):

========================  =====================================================
symbol                    purpose
========================  =====================================================
``__jit_regs``            JIT checkpoint area: 16 register words (NVP/CTPL)
``__jit_pc``              JIT checkpoint: saved program counter
``__jit_valid``           JIT checkpoint: validity flag
``__jit_ack``             GECKO's persisted ACK toggle (§VI-A)
``__jit_sensor``          JIT checkpoint: saved sensor-stream cursor
``__jit_outlen``          JIT checkpoint: number of buffered OUT values saved
``__jit_out``             JIT checkpoint: the buffered OUT values (32 words)
``__ckpt0``, ``__ckpt1``  compiler-assisted double-buffered checkpoint storage
``__region_cur``          id of the region currently executing
``__region_pc``           absolute re-entry PC of the current region
``__region_done``         count of region boundaries crossed (completion proof)
``__color``               buffer (0/1) the last ``MARK`` committed
``__sensor_idx``          sensor-stream cursor the last ``MARK`` committed
``__mode``                persisted runtime mode (0 = JIT on, 1 = rollback)
``__ack_seen``            GECKO: ``__jit_ack`` as read at the last reboot
``__done_seen``           GECKO: ``__region_done`` as read at the last reboot
``__boots``               count of reboots
``__rcolor``              per-register committed buffer (16 words)
``__ra_<f>``              static return-address slot of function ``<f>``
``__frame_<f>``           static frame (locals + spills) of function ``<f>``
``__irq_*``, ``__isr_*``  peripheral block (:data:`PERIPH_SYMBOLS`): the
                          interrupt controller, the ISR frame stack and the
                          timer/ADC/GPIO/DMA device words; linked only into
                          programs that declare ISRs or touch a peripheral
========================  =====================================================
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import AsmError
from .instructions import Instr, Opcode
from .operands import NUM_REGS, PReg, Sym

#: Runtime control-block symbols added by the linker, with sizes in words.
RUNTIME_SYMBOLS: Tuple[Tuple[str, int], ...] = (
    ("__jit_regs", NUM_REGS),
    ("__jit_pc", 1),
    ("__jit_valid", 1),
    ("__jit_ack", 1),
    ("__jit_sensor", 1),
    ("__jit_outlen", 1),
    ("__jit_out", 32),
    ("__ckpt0", NUM_REGS),
    ("__ckpt1", NUM_REGS),
    ("__region_cur", 1),
    ("__region_pc", 1),
    ("__region_done", 1),
    ("__color", 1),
    ("__sensor_idx", 1),
    ("__mode", 1),
    ("__ack_seen", 1),
    ("__done_seen", 1),
    ("__boots", 1),
    ("__rcolor", NUM_REGS),
)

#: Interrupt sources and their fixed vector numbers (``repro.periph``).
ISR_SOURCES: Dict[str, int] = {"timer": 0, "adc": 1, "gpio": 2, "dma": 3}

#: Maximum ISR nesting depth (frame-stack slots).
ISR_MAX_DEPTH = 4

#: Words per saved interrupt frame: the interrupted pc plus all registers.
ISR_FRAME_WORDS = 1 + NUM_REGS

#: Peripheral/interrupt-controller control block, appended to the runtime
#: symbols only when a program declares ISRs or touches a peripheral — the
#: memory layout of straight-line programs is unchanged.  Everything the
#: controller and device models need lives in these NVM words, so
#: ``Machine.snapshot()``/``restore()`` and power cycles round-trip pending
#: interrupts and peripheral state with no extra machinery.
PERIPH_SYMBOLS: Tuple[Tuple[str, int], ...] = (
    # interrupt controller
    ("__irq_en", 1),         # per-source enable mask (bit v = vector v)
    ("__irq_pend", 1),       # per-source pending mask
    ("__irq_prio", len(ISR_SOURCES)),   # per-source priority (higher wins)
    ("__irq_nest", 1),       # nesting policy: 0 = no preemption
    ("__isr_sp", 1),         # frame-stack depth (0 = in main context)
    ("__isr_stack", ISR_MAX_DEPTH),     # vector numbers, innermost last
    ("__isr_frames", ISR_MAX_DEPTH * ISR_FRAME_WORDS),
    # timer: fires vector 0 every `period` cycles while ctrl != 0
    ("__t0_ctrl", 1),
    ("__t0_period", 1),
    ("__t0_base", 1),        # arming cycle + 1 (0 = unarmed)
    ("__t0_count", 1),
    # sensor ADC: samples the sensor stream, fires vector 1 per sample
    ("__adc_ctrl", 1),
    ("__adc_period", 1),
    ("__adc_base", 1),
    ("__adc_count", 1),
    ("__adc_data", 1),
    # GPIO: watches a scripted input line, fires vector 2 on edges
    ("__gpio_ctrl", 1),
    ("__gpio_period", 1),
    ("__gpio_base", 1),
    ("__gpio_count", 1),
    ("__gpio_in", 1),
    ("__gpio_out", 1),
    # DMA: streams a block into __dma_buf, fires vector 3 on completion
    ("__dma_ctrl", 1),
    ("__dma_rate", 1),
    ("__dma_base", 1),
    ("__dma_xfrd", 1),
    ("__dma_len", 1),
    ("__dma_done", 1),
    ("__dma_buf", 16),
)

#: Every peripheral/controller word is memory-mapped control state: a store
#: to any of them can re-arm a device or unmask an interrupt, so the
#: threaded block compiler ends the basic block after such a store to keep
#: boundary semantics identical to the interpreter.
PERIPH_CONTROL_SYMBOLS = frozenset(name for name, _ in PERIPH_SYMBOLS)


@dataclass
class MachineFunction:
    """A code-generated function: a flat body with label → index mapping."""

    name: str
    body: List[Instr] = field(default_factory=list)
    labels: Dict[str, int] = field(default_factory=dict)

    def validate(self) -> None:
        """Check structural well-formedness (physical regs, resolvable labels)."""
        for i, instr in enumerate(self.body):
            for reg in instr.defs() + instr.uses():
                if not isinstance(reg, PReg):
                    raise AsmError(
                        f"{self.name}[{i}]: unallocated virtual register in {instr}"
                    )
            if instr.target is not None and instr.target.name not in self.labels:
                raise AsmError(
                    f"{self.name}[{i}]: undefined label {instr.target}"
                )
        for label, index in self.labels.items():
            if not 0 <= index <= len(self.body):
                raise AsmError(f"{self.name}: label {label} out of range")

    def __str__(self) -> str:
        index_to_labels: Dict[int, List[str]] = {}
        for label, index in self.labels.items():
            index_to_labels.setdefault(index, []).append(label)
        lines = [f".func {self.name}"]
        for i, instr in enumerate(self.body):
            for label in sorted(index_to_labels.get(i, [])):
                lines.append(f"{label}:")
            lines.append(f"    {instr}")
        for label in sorted(index_to_labels.get(len(self.body), [])):
            lines.append(f"{label}:")
        return "\n".join(lines)


@dataclass
class MachineProgram:
    """A complete code-generated program prior to linking."""

    functions: Dict[str, MachineFunction] = field(default_factory=dict)
    #: Data symbols: name -> size in words.
    data: Dict[str, int] = field(default_factory=dict)
    #: Initialised data: name -> initial word values (defaults to zeros).
    init: Dict[str, List[int]] = field(default_factory=dict)
    entry: str = "main"
    #: Interrupt handlers: vector number -> function name.
    isrs: Dict[int, str] = field(default_factory=dict)
    #: True when the program touches peripheral MMIO (even with no ISRs).
    uses_periph: bool = False

    def add_function(self, function: MachineFunction) -> None:
        if function.name in self.functions:
            raise AsmError(f"duplicate function {function.name}")
        self.functions[function.name] = function

    def add_data(self, name: str, size: int, init: Optional[List[int]] = None) -> None:
        if name in self.data:
            raise AsmError(f"duplicate data symbol {name}")
        if size <= 0:
            raise AsmError(f"data symbol {name} must have positive size")
        self.data[name] = size
        if init is not None:
            if len(init) > size:
                raise AsmError(f"initialiser for {name} longer than its size")
            self.init[name] = list(init)

    def __str__(self) -> str:
        lines = [".data"]
        for name in sorted(self.data):
            init = self.init.get(name)
            if init:
                words = ", ".join(str(w) for w in init)
                lines.append(f"    {name} {self.data[name]} = {words}")
            else:
                lines.append(f"    {name} {self.data[name]}")
        for name in sorted(self.functions):
            lines.append(str(self.functions[name]))
        return "\n".join(lines)


@dataclass
class LinkedProgram:
    """A fully resolved program ready for execution on the machine.

    Attributes:
        instrs: the flat instruction stream (all functions concatenated).
        targets: per-instruction resolved absolute branch target (or ``None``).
        func_entry: function name -> entry index.
        owner: per-instruction owning function name.
        ret_slot: function name -> absolute address of its return-address slot.
        symtab: symbol name -> (base address, size in words).
        data_words: total data segment size.
        init_words: initial memory image (length ``data_words``).
        entry: entry function name.
    """

    instrs: List[Instr]
    targets: List[Optional[int]]
    func_entry: Dict[str, int]
    owner: List[str]
    ret_slot: Dict[str, int]
    symtab: Dict[str, Tuple[int, int]]
    data_words: int
    init_words: List[int]
    entry: str = "main"
    #: Interrupt vector table: vector number -> handler function name.
    #: Non-empty only for programs linked with peripherals enabled.
    isr_vectors: Dict[int, str] = field(default_factory=dict)

    def addr_of(self, name: str, offset: int = 0) -> int:
        """Absolute address of ``name[offset]``."""
        base, size = self.symtab[name]
        if not 0 <= offset < size:
            raise AsmError(f"offset {offset} out of range for {name} (size {size})")
        return base + offset

    @property
    def entry_pc(self) -> int:
        return self.func_entry[self.entry]

    def code_size(self) -> int:
        """Number of instructions (the paper's binary-size proxy, §VII-C)."""
        return len(self.instrs)

    def count_opcode(self, op: Opcode) -> int:
        """Static count of instructions with opcode ``op``."""
        return sum(1 for instr in self.instrs if instr.op is op)

    def block_leaders(self) -> frozenset:
        """Machine-level basic-block leaders (absolute instruction indices).

        A leader is any point where control can enter: a function entry,
        the target of a resolved branch/call, or the slot after a
        :data:`~repro.isa.instructions.BLOCK_ENDERS` opcode (fallthrough of
        a conditional branch, the return point after a ``CALL``).  Block
        compilers (:mod:`repro.runtime.threaded`) end a straight-line
        block before every leader so every entry pc starts a block.
        """
        from .instructions import BLOCK_ENDERS

        leaders = set(self.func_entry.values())
        for index, instr in enumerate(self.instrs):
            if self.targets[index] is not None:
                leaders.add(self.targets[index])
            if instr.op in BLOCK_ENDERS and index + 1 < len(self.instrs):
                leaders.add(index + 1)
        return frozenset(leaders)


#: What :func:`derived` built, keyed by ``(id(program), build)``.
_DERIVED: Dict[tuple, Tuple["weakref.ref", object]] = {}


def derived(program: LinkedProgram, build: Callable) -> object:
    """``build(program)``, built once per live program and then shared:
    never on the :class:`LinkedProgram`, which worker pools pickle.  A
    weakref guards the id-keyed entry against id reuse, and a finalizer
    drops it with the program.  The built value must not reference its
    program: the entry holds it strongly, so it would keep the program
    alive and the finalizer would never run."""
    key = (id(program), build)
    entry = _DERIVED.get(key)
    if entry is not None and entry[0]() is program:
        return entry[1]
    value = build(program)
    _DERIVED[key] = (weakref.ref(program), value)
    weakref.finalize(program, _DERIVED.pop, key, None)
    return value


def symbol_addresses(program: LinkedProgram) -> Dict[str, int]:
    """Symbol name -> base address, shared read-only via :func:`derived`."""
    return {name: base for name, (base, _) in program.symtab.items()}


def link(program: MachineProgram) -> LinkedProgram:
    """Resolve labels, lay out data, and add the runtime control block.

    Raises:
        AsmError: on undefined callees, a missing entry function, or any
            structural problem reported by function validation.
    """
    if program.entry not in program.functions:
        raise AsmError(f"entry function {program.entry!r} is not defined")

    # --- data layout -------------------------------------------------
    symtab: Dict[str, Tuple[int, int]] = {}
    cursor = 0
    for name, size in RUNTIME_SYMBOLS:
        symtab[name] = (cursor, size)
        cursor += size
    if program.uses_periph or program.isrs:
        for vector, fname in sorted(program.isrs.items()):
            if not 0 <= vector < len(ISR_SOURCES):
                raise AsmError(f"isr vector {vector} out of range")
            if fname not in program.functions:
                raise AsmError(f"isr vector {vector} names undefined "
                               f"function {fname!r}")
            if fname == program.entry:
                raise AsmError("the entry function cannot be an isr")
        for name, size in PERIPH_SYMBOLS:
            symtab[name] = (cursor, size)
            cursor += size
    ret_slot: Dict[str, int] = {}
    for fname in sorted(program.functions):
        if fname != program.entry:
            symtab[f"__ra_{fname}"] = (cursor, 1)
            ret_slot[fname] = cursor
            cursor += 1
    for name in sorted(program.data):
        if name in symtab:
            raise AsmError(f"data symbol {name} collides with a runtime symbol")
        symtab[name] = (cursor, program.data[name])
        cursor += program.data[name]
    data_words = cursor
    init_words = [0] * data_words
    for name, values in program.init.items():
        base, _ = symtab[name]
        init_words[base : base + len(values)] = values

    # --- code layout ---------------------------------------------------
    instrs: List[Instr] = []
    targets: List[Optional[int]] = []
    owner: List[str] = []
    func_entry: Dict[str, int] = {}
    ordered = [program.entry] + sorted(
        name for name in program.functions if name != program.entry
    )
    for fname in ordered:
        function = program.functions[fname]
        function.validate()
        func_entry[fname] = len(instrs)
        base = len(instrs)
        for instr in function.body:
            instrs.append(instr)
            owner.append(fname)
            if instr.target is not None:
                targets.append(base + function.labels[instr.target.name])
            else:
                targets.append(None)

    for i, instr in enumerate(instrs):
        if instr.op is Opcode.CALL:
            if instr.callee not in func_entry:
                raise AsmError(f"call to undefined function {instr.callee!r}")
            if instr.callee == program.entry:
                raise AsmError("the entry function must not be called")
            targets[i] = func_entry[instr.callee]
        for sym in _symbols_of(instr):
            if sym.name not in symtab:
                raise AsmError(f"undefined data symbol {sym}")

    return LinkedProgram(
        instrs=instrs,
        targets=targets,
        func_entry=func_entry,
        owner=owner,
        ret_slot=ret_slot,
        symtab=symtab,
        data_words=data_words,
        init_words=init_words,
        entry=program.entry,
        isr_vectors=dict(program.isrs),
    )


def _symbols_of(instr: Instr) -> List[Sym]:
    return [instr.sym] if instr.sym is not None else []

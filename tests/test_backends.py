"""The execution-backend contract: both backends, one observable behavior.

The threaded backend (:mod:`repro.runtime.threaded`) precompiles basic
blocks into specialized closures; its whole claim is *exact* equivalence
with the reference interpreter — same cycles, same traps, same fault
classifications, same telemetry fingerprints.  These tests are that
claim, stated as asserts:

* differential campaigns over every bundled workload × {NVP, GECKO},
  asserting per-run metrics, committed outputs, and campaign-level
  ``metrics_fingerprint()`` are identical across backends;
* a fault-injection slice classified identically by both backends;
* block-compiler edge cases (fallthrough, self-loop, branch-to-entry,
  mid-block resume, budget exactness) on hand-written assembly;
* trap equivalence — message, pc, cycles, instr_count — for division by
  zero and out-of-bounds access;
* the ``Machine.attach`` hook API;
* loop regions (every slice budget, entry at every pc inside a region,
  traps inside a region, every exit that writes a region's register
  locals back: traps, ``MARK``/``SENSE`` call-outs, the return), the
  armed-hook fast-forward to a declared ``trigger_step``, and profiler
  cycle attribution from plain blocks;
* slice-edge residues (every budget on the hub programs, traps inside a
  residue, no steps at the victims' quantum, one residue per block
  start), the hub's horizon (a pend injected between slices, a handler
  returning into main code, an unmasking MMIO store), and
  ``Machine._commit_region`` pinned word by word, since both backends
  share it.
"""

import warnings

import pytest

from repro.errors import MachineFault
from repro.eval.campaign import (
    AttackSpec,
    CampaignRunner,
    ExperimentSpec,
    PathSpec,
)
from repro.exhaustive import classify_fork
from repro.faultsim.explorer import fault_victim, scheme_comparison
from repro.faultsim.golden import capture_trace
from repro.faultsim.injector import FaultInjector
from repro.faultsim.models import CKPT_CORRUPT, INSTR_SKIP, REG_FLIP, FaultSpec
from repro.isa import link, parse_program
from repro.isa.instructions import Opcode
from repro.obs import REGION_COMMIT, Observability
from repro.obs.profiler import Profiler
from repro.runtime import (
    BACKEND_NAMES,
    ExecutionBackend,
    InterpreterBackend,
    Machine,
    ThreadedBackend,
    backend_for,
    drain,
)
from repro.runtime.threaded import (
    MAX_BLOCK_LEN,
    _block_end,
    _blocks_for,
    compile_block,
)
from repro.workloads import (
    REACTIVE_WORKLOADS,
    WORKLOAD_NAMES,
    expected_output,
    source,
)

SCHEMES = ("nvp", "gecko")

#: Shared across the module so every (workload, scheme) compiles once —
#: the backend axis is deliberately absent from the compile key.
_RUNNER = CampaignRunner(workers=1)


def _machine(text: str) -> Machine:
    return Machine(link(parse_program(text)))


def _pair(text: str):
    """Two fresh machines over the same program, one per backend."""
    return _machine(text), _machine(text)


def _drain(backend, machine, budget: int = 1_000_000):
    """Run slices until the machine halts; return (cycles, fault)."""
    total = 0
    while not machine.halted:
        cycles, fault = backend.run_slice(machine, budget)
        total += cycles
        if fault is not None:
            return total, fault
    return total, None


# ----------------------------------------------------------------------
# The factory and the protocol.
# ----------------------------------------------------------------------
class TestBackendFactory:
    def test_names(self):
        assert BACKEND_NAMES == ("interpreter", "threaded")

    def test_backend_for_resolves_names(self):
        assert isinstance(backend_for("interpreter"), InterpreterBackend)
        assert isinstance(backend_for("threaded"), ThreadedBackend)

    def test_backends_satisfy_protocol(self):
        for name in BACKEND_NAMES:
            backend = backend_for(name)
            assert isinstance(backend, ExecutionBackend)
            assert backend.name == name

    def test_instances_are_shared(self):
        assert backend_for("threaded") is backend_for("threaded")
        assert backend_for("interpreter") is backend_for("interpreter")

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            backend_for("jit")


# ----------------------------------------------------------------------
# Workload differential: every workload × {NVP, GECKO} × both backends.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_workload_differential(workload):
    """Intermittent campaign runs are indistinguishable across backends.

    One two-point campaign per scheme, swept over the ``"backend"``
    axis, on the outage-driven fault-victim rig (so JIT checkpoints,
    shutdowns, and reboots all happen inside the window).  Telemetry
    metrics, committed outputs, and the summary counters must match
    field for field.
    """
    for scheme in SCHEMES:
        spec = ExperimentSpec(
            name=f"diff:{workload}:{scheme}",
            victim=fault_victim(workload=workload, scheme=scheme,
                                duration_s=0.02),
            attack=AttackSpec.silent(),
            path=PathSpec.remote(),
            sweep={"backend": list(BACKEND_NAMES)},
            telemetry=True,
        )
        campaign = _RUNNER.run(spec)
        reference, threaded = campaign.outcomes
        assert reference.params["backend"] == "interpreter"
        assert threaded.params["backend"] == "threaded"
        assert reference.error is None and threaded.error is None
        a, b = reference.result, threaded.result
        assert a.metrics == b.metrics, f"{workload}/{scheme} metrics differ"
        assert a.committed_outputs == b.committed_outputs
        assert (a.executed_cycles, a.completions, a.reboots,
                a.jit_checkpoints, a.final_state) \
            == (b.executed_cycles, b.completions, b.reboots,
                b.jit_checkpoints, b.final_state)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_campaign_fingerprint_identical(scheme):
    """The CI contract: byte-identical ``metrics_fingerprint()``."""
    fingerprints = {}
    for backend in BACKEND_NAMES:
        spec = ExperimentSpec(
            name=f"fp:{scheme}",
            victim=fault_victim(workload="crc16", scheme=scheme,
                                duration_s=0.03),
            attack=AttackSpec.tone(tx_dbm=35.0),
            path=PathSpec.remote(),
            sweep={"attack.freq_mhz": [13.56, 27.0]},
            baseline=True,
            telemetry=True,
            backend=backend,
        )
        fingerprints[backend] = _RUNNER.run(spec).metrics_fingerprint()
    assert fingerprints["interpreter"] == fingerprints["threaded"]


def test_fault_classifications_identical():
    """A fault-plan slice classifies identically under both backends."""
    maps = {}
    for backend in BACKEND_NAMES:
        campaigns = scheme_comparison(
            workload="crc16", schemes=SCHEMES,
            models=(REG_FLIP, CKPT_CORRUPT), points=3, seed=7,
            duration_s=0.1, runner=_RUNNER, backend=backend)
        maps[backend] = {
            scheme: [(record.fault, record.outcome)
                     for record in campaign.map.records]
            for scheme, campaign in campaigns.items()
        }
    assert maps["interpreter"] == maps["threaded"]


@pytest.mark.parametrize("workload", ["crc16", "bitcnt", "fir"])
def test_stable_power_output_matches_golden(workload):
    """On stable power the threaded backend reproduces the golden output."""
    from repro.core import compile_nvp
    from repro.runtime import run_to_completion

    machine = run_to_completion(compile_nvp(source(workload)).linked,
                                backend="threaded")
    assert machine.halted
    assert machine.committed_out == expected_output(workload)


# ----------------------------------------------------------------------
# Block-compiler edge cases on hand-written assembly.
# ----------------------------------------------------------------------
LOOP_TEXT = """
.data
    acc 1
.func main
    li R4, #0
    li R5, #5
loop:
    add R4, R4, #3
    sub R5, R5, #1
    bnz R5, .loop
    st R4, [@acc + #0]
    out R4
    halt
"""


class TestBlockCompiler:
    def test_block_ends_before_leader(self):
        """Fallthrough: a block must stop at the next branch target."""
        program = link(parse_program(LOOP_TEXT))
        block = compile_block(program, 0)
        # The prologue block holds exactly the two LIs; `loop:` is a
        # leader, so instruction 2 starts its own block.
        assert block.start == 0
        assert block.n == 2

    def test_block_cycle_presum(self):
        program = link(parse_program(LOOP_TEXT))
        block = compile_block(program, 0)
        assert block.cycles == sum(program.instrs[pc].cycles
                                   for pc in range(block.n))

    def test_self_loop_block(self):
        """A block whose branch targets its own first instruction."""
        interp, threaded = _pair(LOOP_TEXT)
        interp.run(max_steps=1000)
        threaded.run(max_steps=1000, backend="threaded")
        assert threaded.halted
        assert threaded.regs == interp.regs
        assert threaded.cycles == interp.cycles
        assert threaded.instr_count == interp.instr_count
        assert threaded.committed_out == interp.committed_out == [15]

    def test_branch_to_entry(self):
        """A backward branch to pc 0 re-enters the entry block."""
        text = """
.func main
entry:
    add R4, R4, #1
    slt R5, R4, #4
    bnz R5, .entry
    out R4
    halt
"""
        interp, threaded = _pair(text)
        interp.run(max_steps=100)
        threaded.run(max_steps=100, backend="threaded")
        assert threaded.committed_out == interp.committed_out == [4]
        assert threaded.cycles == interp.cycles

    def test_mid_block_resume(self):
        """Resuming from a non-leader pc (the JIT-restore shape) works.

        A suffix block is compiled lazily for the odd entry point, and
        the result is identical to single-stepping from the same state.
        """
        interp, threaded = _pair(LOOP_TEXT)
        backend = backend_for("threaded")
        for machine in (interp, threaded):
            for _ in range(3):  # land mid-way through the loop body
                machine.step()
        assert interp.pc == threaded.pc
        assert interp.pc not in link(parse_program(LOOP_TEXT)).block_leaders()
        while not interp.halted:
            interp.step()
        _drain(backend, threaded)
        assert threaded.regs == interp.regs
        assert threaded.cycles == interp.cycles

    def test_budget_exactness(self):
        """A slice never executes more instructions than its budget."""
        interp, threaded = _pair(LOOP_TEXT)
        reference = backend_for("interpreter")
        backend = backend_for("threaded")
        for budget in (1, 2, 3):
            while not threaded.halted:
                before_i = interp.instr_count
                before_t = threaded.instr_count
                rc, rf = reference.run_slice(interp, budget)
                tc, tf = backend.run_slice(threaded, budget)
                assert (rc, rf) == (tc, tf)
                assert threaded.instr_count - before_t <= budget
                assert threaded.instr_count == interp.instr_count
                assert threaded.cycles == interp.cycles
                assert threaded.pc == interp.pc
            interp, threaded = _pair(LOOP_TEXT)

    def test_mid_block_power_failure(self):
        """Power dying mid-slice stops execution at the block boundary.

        The simulator only drops power between slices, but the backend
        must tolerate ``powered`` going False at any block boundary and
        preserve the machine state for the JIT checkpoint path.
        """
        interp, threaded = _pair(LOOP_TEXT)
        backend = backend_for("threaded")
        for _ in range(4):
            interp.step()
        backend.run_slice(threaded, 4)
        threaded.powered = False
        cycles, fault = backend.run_slice(threaded, 1000)
        assert cycles == 0 and fault is None
        assert threaded.instr_count == interp.instr_count
        threaded.powered = True
        _drain(backend, threaded)
        assert threaded.halted


# ----------------------------------------------------------------------
# Trap equivalence: same message, same partial accounting.
# ----------------------------------------------------------------------
DIV_ZERO_TEXT = """
.func main
    li R4, #6
    li R5, #0
    div R6, R4, R5
    halt
"""

OOB_TEXT = """
.data
    arr 4
.func main
    li R4, #9
    ld R5, [@arr + R4]
    halt
"""


class TestTrapEquivalence:
    @pytest.mark.parametrize("text", [DIV_ZERO_TEXT, OOB_TEXT],
                             ids=["div-zero", "out-of-bounds"])
    def test_same_fault_same_state(self, text):
        interp, threaded = _pair(text)
        _, fault_i = _drain(backend_for("interpreter"), interp)
        _, fault_t = _drain(backend_for("threaded"), threaded)
        assert isinstance(fault_i, MachineFault)
        assert isinstance(fault_t, MachineFault)
        assert str(fault_t) == str(fault_i)
        assert threaded.pc == interp.pc
        assert threaded.cycles == interp.cycles
        assert threaded.instr_count == interp.instr_count

    def test_machine_run_raises_for_both_backends(self):
        for backend in BACKEND_NAMES:
            machine = _machine(DIV_ZERO_TEXT)
            with pytest.raises(MachineFault, match="division by zero"):
                machine.run(max_steps=100, backend=backend)


# ----------------------------------------------------------------------
# The attach() hook API and its deprecation shims.
# ----------------------------------------------------------------------
class _Hook:
    """Minimal fault-hook shape: fired flag, trigger_step and a no-op
    before_step."""

    trigger_step = 0

    def __init__(self):
        self.fired = True
        self.calls = 0

    def before_step(self, machine):
        self.calls += 1
        return False


class TestAttachAPI:
    def test_attach_sets_hooks(self):
        machine = _machine(LOOP_TEXT)
        hook = _Hook()
        obs = Observability.disabled()
        machine.attach(fault_hook=hook, obs=obs)
        assert machine.fault_hook is hook
        assert machine.obs is obs

    def test_attach_leaves_unmentioned_hooks_alone(self):
        machine = _machine(LOOP_TEXT)
        hook = _Hook()
        machine.attach(fault_hook=hook)
        machine.attach(obs=Observability.disabled())
        assert machine.fault_hook is hook

    def test_attach_detaches_with_none(self):
        machine = _machine(LOOP_TEXT)
        machine.attach(fault_hook=_Hook())
        machine.attach(fault_hook=None)
        assert machine.fault_hook is None

    def test_direct_assignment_is_refused(self):
        machine = _machine(LOOP_TEXT)
        with pytest.raises(AttributeError):
            machine.fault_hook = _Hook()
        with pytest.raises(AttributeError):
            machine.obs = Observability.disabled()
        assert machine.fault_hook is None
        assert machine.obs is None

    def test_both_backends_honor_attached_hook(self):
        for name in BACKEND_NAMES:
            machine = _machine(LOOP_TEXT)
            hook = _Hook()
            hook.fired = False  # keep the per-step path engaged
            machine.attach(fault_hook=hook)
            machine.run(max_steps=1000, backend=name)
            assert machine.halted
            assert hook.calls == machine.instr_count

    def test_runtime_attach_forwards(self):
        from repro.core import compile_gecko
        from repro.runtime import GeckoRuntime, NVPRuntime
        from repro.workloads import source

        hook = _Hook()
        nvp = NVPRuntime()
        nvp.attach(fault_hook=hook)
        assert nvp.fault_hook is hook

        compiled = compile_gecko(source("blink"))
        gecko = GeckoRuntime(compiled.linked)
        gecko.attach(fault_hook=hook)
        assert gecko.fault_hook is hook


# ----------------------------------------------------------------------
# Interrupt load: the reactive suite must be backend-indistinguishable.
# ----------------------------------------------------------------------
class TestInterruptDifferential:
    """Block-boundary delivery makes the threaded backend's interrupt
    timing *exactly* the interpreter's — under stable power, intermittent
    campaigns, mid-block resume with pending interrupts, and EMI bursts
    phase-locked to interrupt arrival."""

    @staticmethod
    def _full_state(machine):
        return (list(machine.mem), list(machine.regs), machine.pc,
                machine.halted, machine.cycles, machine.instr_count,
                list(machine.committed_out),
                [(s.vector, s.entry_step, s.exit_step)
                 for s in machine.isr_spans])

    @pytest.mark.parametrize("workload", REACTIVE_WORKLOADS)
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_stable_power_state_identical(self, workload, scheme):
        from repro.core import compile_scheme

        linked = compile_scheme(source(workload), scheme).linked
        states = []
        for backend in BACKEND_NAMES:
            machine = Machine(linked)
            machine.run(max_steps=3_000_000, backend=backend)
            states.append(self._full_state(machine))
        assert states[0] == states[1], f"{workload}/{scheme}"

    @pytest.mark.parametrize("workload", REACTIVE_WORKLOADS)
    def test_campaign_fingerprint_identical(self, workload):
        """The CI contract, restated over the reactive suite."""
        for scheme in SCHEMES:
            fingerprints = {}
            for backend in BACKEND_NAMES:
                spec = ExperimentSpec(
                    name=f"reactive-fp:{workload}:{scheme}",
                    victim=fault_victim(workload=workload, scheme=scheme,
                                        duration_s=0.02),
                    attack=AttackSpec.silent(),
                    path=PathSpec.remote(),
                    baseline=True,
                    telemetry=True,
                    backend=backend,
                )
                fingerprints[backend] = \
                    _RUNNER.run(spec).metrics_fingerprint()
            assert fingerprints["interpreter"] == fingerprints["threaded"], \
                f"{workload}/{scheme}"

    def test_mid_block_resume_with_pending_irq(self):
        """A snapshot cut mid-block while an interrupt is pending (masked
        by a higher-priority live handler) resumes identically: the
        threaded backend must single-step the suffix AND deliver the
        pending vector at the same boundary the interpreter does."""
        from repro.core import compile_scheme

        linked = compile_scheme(source("heartbeat"), "nvp").linked
        leaders = linked.block_leaders()
        probe = Machine(linked)
        cut = None
        while not probe.halted:
            probe.step()
            if probe.read_word("__irq_pend") != 0 \
                    and probe.pc not in leaders:
                cut = probe.snapshot()
                break
        assert cut is not None, "never saw a pending IRQ mid-block"

        resumed = []
        for backend in BACKEND_NAMES:
            machine = Machine(linked)
            machine.restore(cut)
            machine.run(max_steps=3_000_000, backend=backend)
            resumed.append(self._full_state(machine))
        assert resumed[0] == resumed[1]

    def test_phase_locked_attack_fingerprint_identical(self):
        """ISR-phase-locked EMI bursts (the repro.adversary.isrspace
        axis) classify identically under both backends."""
        from repro.adversary import isr_attack_space

        for scheme in SCHEMES:
            victim = fault_victim(workload="glucose", scheme=scheme,
                                  duration_s=0.02)
            compiled = _RUNNER.compile_cache.get(victim.compile_key())
            if compiled is None:
                compiled = victim.compile()
                _RUNNER.compile_cache[victim.compile_key()] = compiled
            candidate = isr_attack_space(
                compiled.linked, duration_s=0.02).aggressive(27.0)
            fingerprints = {}
            for backend in BACKEND_NAMES:
                spec = ExperimentSpec(
                    name=f"isr-phase:{scheme}",
                    victim=victim,
                    attack=candidate.attack_spec(),
                    path=candidate.path_spec(),
                    baseline=True,
                    telemetry=True,
                    backend=backend,
                )
                fingerprints[backend] = \
                    _RUNNER.run(spec).metrics_fingerprint()
            assert fingerprints["interpreter"] == fingerprints["threaded"], \
                scheme


# ----------------------------------------------------------------------
# Loop regions, armed-hook fast-forward, and block-level profiling.
# ----------------------------------------------------------------------
#: Budgets up to past the longest block, so every block is both split
#: across slices and run whole at some budget.
REGION_BUDGETS = range(1, MAX_BLOCK_LEN + 9)

#: Loops that trap inside a region after a few iterations.
DIV_LOOP_TEXT = """
.func main
    li R4, #12
    li R5, #3
    li R7, #1
loop:
    div R6, R4, R5
    sub R5, R5, #1
    bnz R7, .loop
    halt
"""

#: A loop whose region holds a HALT that is a member entry of its own:
#: the region must stop there, not dispatch to it again.
HALT_LOOP_TEXT = """
.func main
    li R4, #3
loop:
    sub R4, R4, #1
    out R4
    bnz R4, .body
    halt
body:
    jmp .loop
"""

OOB_LOOP_TEXT = """
.data
    arr 4
.func main
    li R4, #0
    li R6, #1
loop:
    ld R5, [@arr + R4]
    add R4, R4, #1
    bnz R6, .loop
    halt
"""


def _state(machine):
    """Everything a slice can change, as comparable data."""
    return (list(machine.regs), list(machine.mem), list(machine.wear),
            machine.pc, machine.halted, machine.cycles, machine.instr_count,
            list(machine.out_buffer), list(machine.committed_out),
            machine.sensor_cursor, machine.ckpt_stores_executed,
            machine.marks_executed, sorted(machine._pending_rcolor))


def _linked(name: str):
    """A hand-written program (``*_TEXT``) or a ``workload/scheme``."""
    if "/" not in name:
        return link(parse_program(globals()[name]))
    from repro.core import compile_scheme

    workload, scheme = name.split("/")
    return compile_scheme(source(workload), scheme).linked


def _runs_regions(linked) -> bool:
    return any(unit is not None and unit.region
               for unit in _blocks_for(linked).units)


def _region_end(linked, starts) -> int:
    """One past the last pc of the region whose members are ``starts``."""
    return _block_end(linked, starts[-1], _blocks_for(linked).leaders)


class TestRegions:
    @pytest.mark.parametrize("name", ["LOOP_TEXT", "HALT_LOOP_TEXT",
                                      "crc16/nvp", "crc16/gecko",
                                      "dhrystone/nvp", "dhrystone/gecko"])
    def test_every_budget_matches_interpreter_after_every_slice(self, name):
        """(a) Nested loops, calls inside loops, MARK/CKPT inside loops:
        the full state agrees after every slice at every budget."""
        linked = _linked(name)
        reference = backend_for("interpreter")
        threaded = backend_for("threaded")
        for budget in REGION_BUDGETS:
            interp, fast = Machine(linked), Machine(linked)
            while not interp.halted:
                expected = reference.run_slice(interp, budget)
                assert threaded.run_slice(fast, budget) == expected
                assert _state(fast) == _state(interp), (name, budget)
            assert fast.halted
        assert _runs_regions(linked)

    @pytest.mark.parametrize("name", ["crc16/gecko", "dhrystone/nvp"])
    def test_entry_at_every_region_pc(self, name):
        """(b) Restoring a stride-1 golden snapshot at any pc inside a
        region — member entry or mid-block — drains to the golden end
        state."""
        linked = _linked(name)
        trace = capture_trace(linked, snapshot_stride=1)
        golden = Machine(linked)
        golden.run(max_steps=trace.budget)
        members = _blocks_for(linked).regions
        inside = {pc for starts in members.values()
                  for pc in range(starts[0], _region_end(linked, starts))}
        first_step = {}
        for step, pc in enumerate(trace.pcs):
            if pc in inside:
                first_step.setdefault(pc, step)
        assert len(first_step) > len(members) // 2
        backend = backend_for("threaded")
        for pc, step in sorted(first_step.items()):
            for budget in (7, 1_000_000):
                machine = Machine(linked)
                machine.restore(trace.snapshots[step])
                assert machine.pc == pc
                remaining = golden.cycles - machine.cycles
                assert _drain(backend, machine, budget) == (remaining, None)
                assert _state(machine) == _state(golden), (pc, budget)

    @pytest.mark.parametrize("text", ["DIV_LOOP_TEXT", "OOB_LOOP_TEXT"])
    @pytest.mark.parametrize("budget", [1, 2, 3, 5, 1_000_000])
    def test_trap_inside_region(self, text, budget):
        """(c) A trap in a region member: the interpreter's message, pc,
        cycles and instr_count."""
        linked = _linked(text)
        interp, fast = Machine(linked), Machine(linked)
        _, fault_i = _drain(backend_for("interpreter"), interp, budget)
        _, fault_t = _drain(backend_for("threaded"), fast, budget)
        assert isinstance(fault_i, MachineFault)
        assert isinstance(fault_t, MachineFault)
        assert str(fault_t) == str(fault_i)
        assert _state(fast) == _state(interp)
        assert any(starts[0] <= fast.pc < _region_end(linked, starts)
                   for starts in _blocks_for(linked).regions.values())
        if budget >= 3:
            assert _runs_regions(linked)

    def test_compile_block_stays_a_plain_block(self):
        """The test hook keeps compiling plain blocks, also at a region
        entry, and region members are not compiled standalone."""
        linked = _linked("LOOP_TEXT")
        Machine(linked).run(max_steps=1000, backend="threaded")
        cache = _blocks_for(linked)
        loop = min(cache.regions)
        assert cache.units[loop].region
        assert cache.blocks[loop] is None
        block = compile_block(linked, loop)
        assert (block.start, block.n) == (loop, 3)
        assert block.cycles == sum(linked.instrs[pc].cycles
                                   for pc in range(loop, loop + 3))


#: A loop that writes registers, then traps on an out-of-bounds load in
#: the same iteration.
OOB_AFTER_WRITES_TEXT = """
.data
    arr 4
.func main
    li R4, #0
    li R6, #1
    li R7, #0
loop:
    add R7, R7, #5
    mul R8, R7, R7
    ld R5, [@arr + R4]
    add R4, R4, #1
    bnz R6, .loop
    halt
"""

#: A loop that writes registers, then divides by zero in its third
#: iteration.
DIV_AFTER_WRITES_TEXT = """
.func main
    li R4, #12
    li R5, #3
    li R7, #1
loop:
    add R8, R8, R4
    sub R5, R5, #1
    div R6, R4, R5
    bnz R7, .loop
    halt
"""

#: A loop that commits a region between register writes; the commit's
#: subscriber reads the registers and bumps R9, which the loop reads.
MARK_LOOP_TEXT = """
.data
    s 1
.func main
    li R4, #5
    li R5, #0
loop:
    add R5, R5, R4
    sub R4, R4, #1
    mark region=1
    add R6, R5, R9
    bnz R4, .loop
    out R6
    halt
"""

#: A loop whose sensor stream reads the register written just before.
SENSE_LOOP_TEXT = """
.data
    s 1
.func main
    li R4, #6
    li R5, #0
loop:
    add R5, R5, R4
    sense R6
    add R5, R5, R6
    sub R4, R4, #1
    bnz R4, .loop
    out R5
    halt
"""


def _observed(machine):
    return (list(machine.regs), machine.pc, machine.cycles,
            machine.instr_count)


class TestRegionWriteBacks:
    """A region keeps registers and costs in locals: every way out of
    its code — a trap, a ``MARK`` or ``SENSE`` call-out, the return —
    must hand the interpreter's exact state over."""

    @staticmethod
    def _run(linked, backend, budget, watch):
        machine = Machine(linked)
        seen = []
        if watch == "mark":
            def on_commit(event):
                seen.append(_observed(machine))
                machine.regs[9] += 1

            obs = Observability()
            obs.bus.subscribe(on_commit, kinds=[REGION_COMMIT])
            machine.attach(obs=obs)
        elif watch == "sense":
            def stream(index):
                seen.append(_observed(machine))
                return machine.regs[5] * 3 + index

            machine.sensor_stream = stream
        _, fault = _drain(backend_for(backend), machine, budget)
        return _state(machine), str(fault) if fault else None, seen

    @pytest.mark.parametrize("budget", [1, 7, 64, 1_000_000])
    @pytest.mark.parametrize("text,watch", [
        ("OOB_AFTER_WRITES_TEXT", None), ("DIV_AFTER_WRITES_TEXT", None),
        ("MARK_LOOP_TEXT", "mark"), ("SENSE_LOOP_TEXT", "sense")])
    def test_matches_interpreter(self, text, watch, budget):
        linked = _linked(text)
        expected = self._run(linked, "interpreter", budget, watch)
        assert self._run(linked, "threaded", budget, watch) == expected
        _, fault, seen = expected
        assert (fault is not None) == (watch is None)
        assert len(seen) == (0 if watch is None else 5 if watch == "mark"
                             else 6)
        if budget >= 7:
            assert _runs_regions(linked)


class _CountingSteps:
    """Counts reference-path steps by wrapping the instance's ``step``."""

    def __init__(self, machine):
        self.count = 0
        step = machine.step

        def counting():
            self.count += 1
            return step()
        machine.step = counting


class TestFastForward:
    """(d) Armed one-shot injectors declare ``trigger_step``; the threaded
    backend runs blocks and regions up to it, then steps."""

    @pytest.fixture(scope="class")
    def crc16(self):
        linked = _linked("crc16/nvp")
        return linked, capture_trace(linked, snapshot_stride=64)

    @staticmethod
    def _triggers(linked, trace):
        cache = _blocks_for(linked)
        leaders = cache.leaders
        members = cache.regions
        steps = trace.golden_steps
        boundary = next(s for s in range(40, steps)
                        if trace.pcs[s] in leaders
                        and trace.pcs[s] not in members)
        mid_block = next(s for s in range(100, steps)
                         if trace.pcs[s] not in leaders
                         and trace.pcs[s] not in members)
        in_region = next(s for s in range(1000, steps)
                         if trace.pcs[s] not in members
                         and min(members) < trace.pcs[s] < max(members))
        return {"trigger-0": 0, "boundary": boundary,
                "mid-block": mid_block, "in-region": in_region,
                "region-entry": next(s for s in range(2000, steps)
                                     if trace.pcs[s] in members),
                "last-step": steps - 1, "past-halt": steps + 5}

    @pytest.mark.parametrize("model,target,bit", [
        (REG_FLIP, 5, 3), (REG_FLIP, 6, 31), (REG_FLIP, 7, 0),
        (INSTR_SKIP, 0, 0)])
    def test_verdicts_and_end_states_match(self, crc16, model, target,
                                           bit):
        linked, trace = crc16
        for label, step in self._triggers(linked, trace).items():
            fault = FaultSpec(model=model, target=target, bit=bit,
                              trigger_step=step)
            for from_reset in (False, True):
                verdicts, states = [], []
                for name in BACKEND_NAMES:
                    backend = backend_for(name)
                    verdicts.append(classify_fork(linked, backend, trace,
                                                  fault, from_reset))
                    machine = Machine(linked)
                    if not from_reset:
                        machine.restore(trace.snapshot_before(step))
                    hook = FaultInjector(fault)
                    machine.attach(fault_hook=hook)
                    exc = drain(machine, backend,
                                trace.budget - machine.instr_count)
                    states.append((_state(machine), hook.fired,
                                   None if exc is None else str(exc)))
                assert verdicts[0] == verdicts[1], (label, fault)
                assert states[0] == states[1], (label, fault, from_reset)

    def test_catch_up_runs_blocks_not_steps(self, crc16):
        """Before the trigger nothing is stepped: the block that would
        overshoot it runs as a residue up to the trigger."""
        linked, trace = crc16
        # A trigger mid-block, so the catch-up must cut a block.
        leaders = _blocks_for(linked).leaders
        step = next(s for s in range(trace.golden_steps - 100,
                                     trace.golden_steps)
                    if trace.pcs[s] not in leaders)
        fault = FaultSpec(model=REG_FLIP, target=0, bit=0,
                          trigger_step=step)
        machine = Machine(linked)
        hook = FaultInjector(fault)
        machine.attach(fault_hook=hook)
        counter = _CountingSteps(machine)
        _, exc = backend_for("threaded").run_slice(machine, step)
        assert exc is None and not hook.fired
        assert machine.instr_count == step
        assert counter.count == 0
        assert hook.trigger_step == step

    def test_untimed_models_declare_no_trigger(self):
        hook = FaultInjector(FaultSpec(model=CKPT_CORRUPT,
                                       trigger_time_s=0.01))
        assert hook.trigger_step is None


class _FiresAfter:
    """A one-shot hook armed from step 0: it acts on its ``shots``-th
    armed step, so every armed step must reach it."""

    trigger_step = 0

    def __init__(self, shots: int):
        self.shots = shots
        self.armed_calls = []

    @property
    def fired(self):
        return len(self.armed_calls) >= self.shots

    def before_step(self, machine):
        if self.fired:
            return False
        self.armed_calls.append((machine.instr_count, machine.pc))
        if self.fired:
            machine.regs[5] ^= 1 << 4
        return False


@pytest.mark.parametrize("shots", [1, 57, 700])
def test_hook_armed_from_step_0_sees_every_armed_step(shots):
    """(e) Exact stepping until the hook fires: the same before_step
    calls, at the same instruction counts, as the interpreter."""
    linked = _linked("crc16/nvp")
    runs = []
    for name in BACKEND_NAMES:
        machine = Machine(linked)
        hook = _FiresAfter(shots)
        machine.attach(fault_hook=hook)
        fault = drain(machine, backend_for(name), 100_000)
        runs.append((hook.armed_calls, _state(machine),
                     None if fault is None else str(fault)))
    assert runs[0] == runs[1]
    assert [count for count, _ in runs[0][0]] == list(range(shots))


class TestProfiledBlocks:
    """(f) A profiled threaded run runs plain blocks and attributes the
    interpreter's exact cycle table — order of first appearance too."""

    @staticmethod
    def _profiled(linked, backend, budget):
        machine = Machine(linked)
        profiler = Profiler()
        machine.attach(profiler=profiler)
        _, fault = _drain(backend_for(backend), machine, budget)
        return (list(profiler.cycles.items()), _state(machine),
                None if fault is None else str(fault))

    @pytest.mark.parametrize("name", ["crc16/gecko", "dhrystone/nvp",
                                      "DIV_ZERO_TEXT", "OOB_TEXT",
                                      "DIV_LOOP_TEXT", "OOB_LOOP_TEXT"])
    @pytest.mark.parametrize("budget", [5, 1_000_000])
    def test_cycle_tables_equal(self, name, budget):
        linked = _linked(name)
        reference = self._profiled(linked, "interpreter", budget)
        assert self._profiled(linked, "threaded", budget) == reference
        assert reference[0]
        assert not _runs_regions(linked)
        assert any(block is not None for block in _blocks_for(linked).blocks)


# ----------------------------------------------------------------------
# Slice-edge residues, the hub's idle horizon, and the shared commit.
# ----------------------------------------------------------------------
HUB_PROGRAMS = [f"{workload}/{scheme}" for workload in REACTIVE_WORKLOADS
                for scheme in SCHEMES]

#: Straight-line blocks whose 4th instruction (pc 3) traps.
RESIDUE_DIV_TEXT = """
.func main
    li R4, #6
    li R5, #0
    add R6, R4, #1
    div R7, R4, R5
    add R8, R4, #2
    out R7
    halt
"""

RESIDUE_OOB_TEXT = """
.data
    arr 4
.func main
    li R4, #9
    li R5, #1
    add R6, R4, #1
    ld R7, [@arr + R4]
    add R8, R4, #2
    out R7
    halt
"""

#: A timer that fires while its vector is masked (the pend waits), then
#: an ``irq_enable`` store that must deliver at its own boundary.
MASKED_TIMER = """
int ticks = 0;
int spin = 0;

isr timer on_tick() {
    ticks = ticks + 1;
}

void main() {
    timer_start(200);
    while (spin < 60) bound(100) { spin = spin + 1; }
    irq_enable(1);
    while (spin < 200) bound(200) { spin = spin + 1; }
    timer_stop();
    out(ticks);
}
"""


def _hub_state(machine):
    """``_state`` plus the hub's volatile diagnostics."""
    return (_state(machine),
            [(s.vector, s.entry_step, s.entry_cycles, s.exit_step,
              s.exit_cycles) for s in machine.isr_spans],
            list(machine.isr_heals))


def _lockstep(linked, budget: int, between=None):
    """Run both backends slice by slice, comparing the full state (hub
    diagnostics included) after every slice; ``between(machines)`` runs
    between slices.  Returns the threaded machine."""
    reference = backend_for("interpreter")
    threaded = backend_for("threaded")
    interp, fast = Machine(linked), Machine(linked)
    while not interp.halted:
        expected = reference.run_slice(interp, budget)
        assert threaded.run_slice(fast, budget) == expected
        assert _hub_state(fast) == _hub_state(interp), budget
        if expected[1] is not None:
            break
        if between is not None:
            between((interp, fast))
    return fast


class TestResidues:
    """A block longer than the rest of its slice runs its first ``k``
    instructions as one compiled residue, not ``k`` steps."""

    @pytest.mark.parametrize("name", HUB_PROGRAMS)
    def test_every_budget_matches_interpreter_on_hub_programs(self, name):
        linked = _linked(name)
        for budget in REGION_BUDGETS:
            assert _lockstep(linked, budget).halted
        assert any(residue is not None
                   for residue in _blocks_for(linked).residues)

    @pytest.mark.parametrize("text", ["RESIDUE_DIV_TEXT",
                                      "RESIDUE_OOB_TEXT"])
    @pytest.mark.parametrize("budget", [3, 4])
    def test_trap_inside_residue(self, text, budget):
        """Budget 3 stops one instruction before the trap (the next
        slice's residue traps first thing); budget 4 traps as the 4th
        instruction of the first residue."""
        linked = _linked(text)
        interp, fast = Machine(linked), Machine(linked)
        counter = _CountingSteps(fast)
        _, fault_i = _drain(backend_for("interpreter"), interp, budget)
        _, fault_t = _drain(backend_for("threaded"), fast, budget)
        assert isinstance(fault_i, MachineFault)
        assert isinstance(fault_t, MachineFault)
        assert str(fault_t) == str(fault_i)
        assert (fast.pc, fast.cycles, fast.instr_count) \
            == (interp.pc, interp.cycles, interp.instr_count) == \
            (3, sum(instr.cycles for instr in linked.instrs[:3]), 3)
        assert _state(fast) == _state(interp)
        assert counter.count == 0

    @pytest.mark.parametrize("name", ["crc16/nvp", "dhrystone/gecko"])
    def test_drain_at_the_victim_quantum_takes_no_steps(self, name):
        machine = Machine(_linked(name))
        counter = _CountingSteps(machine)
        assert _drain(backend_for("threaded"), machine, 64)[1] is None
        assert machine.halted
        assert counter.count == 0

    def test_one_residue_per_block_start(self, monkeypatch):
        """Residues are cached per pc, whatever their length: never more
        closures than distinct block starts, and none compiled twice."""
        from repro.runtime import threaded as module

        compiled = []
        compile_ = module._BlockCompiler.compile

        def counting(self):
            if self.residue:
                compiled.append(self.start)
            return compile_(self)
        monkeypatch.setattr(module._BlockCompiler, "compile", counting)
        linked = _linked("dhrystone/gecko")
        for budget in REGION_BUDGETS:
            _drain(backend_for("threaded"), Machine(linked), budget)
        cache = _blocks_for(linked)
        residues = [pc for pc, residue in enumerate(cache.residues)
                    if residue is not None]
        starts = [pc for pc, (block, unit)
                  in enumerate(zip(cache.blocks, cache.units))
                  if block is not None or unit is not None]
        assert sorted(compiled) == residues
        assert 0 < len(residues) <= len(starts)


class TestHubHorizon:
    """Blocks that end before the hub's horizon skip the hub calls unless
    they end in ``RET`` or an MMIO store; whatever changes the hub
    between slices, at a handler's return or at an MMIO store must still
    land on the interpreter's boundaries."""

    def test_injected_pend_between_idle_slices(self):
        linked = _linked("glucose/nvp")
        injected = []

        def inject(machines):
            interp, fast = machines
            hub = fast._periph
            # Only with no frame stacked: the horizon is defined inside a
            # handler too, where the pend would wait for its return.
            if len(injected) < 8 and hub.horizon(fast) > fast.cycles \
                    and fast.read_word("__isr_sp") == 0 \
                    and fast.read_word("__irq_en") & 2:
                injected.append(fast.instr_count)
                for machine in machines:
                    machine._periph.inject_pend(machine, 1)
        fast = _lockstep(linked, 64, inject)
        assert fast.halted
        assert len(injected) == 8
        # Delivered at the first boundary of the next slice.
        entries = {span.entry_step for span in fast.isr_spans}
        assert all(step + 1 in entries for step in injected)

    @pytest.mark.parametrize("budget", [7, 64])
    def test_heal_after_a_handler_returns_into_main_code(self, budget):
        """A handler whose return slot is overwritten with a main-code pc
        returns there with its frame still stacked: the heal after its
        ``RET`` must land on the interpreter's boundary, although blocks
        inside a running handler make no hub call."""
        linked = _linked("glucose/nvp")
        main_pc = linked.func_entry["main"]
        rewritten = []

        def redirect(machines):
            _, fast = machines
            if rewritten or fast.read_word("__isr_sp") != 1:
                return
            vector = fast.read_word("__isr_stack")
            handler = linked.isr_vectors[vector]
            if fast._periph.horizon(fast) <= fast.cycles \
                    or linked.owner[fast.pc] != handler:
                return
            rewritten.append(fast.instr_count)
            for machine in machines:
                machine.mem[linked.ret_slot[handler]] = main_pc
        fast = _lockstep(linked, budget, redirect)
        assert fast.halted
        assert rewritten
        heals = fast.isr_heals
        assert heals and heals[0][0] > rewritten[0]

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("budget", [7, 64, 1_000_000])
    def test_unmasking_store_delivers_at_its_boundary(self, scheme, budget):
        from repro.core import compile_scheme

        linked = compile_scheme(MASKED_TIMER, scheme).linked
        fast = _lockstep(linked, budget)
        assert fast.halted
        assert len(fast.isr_spans) >= 2
        assert fast.committed_out[-1] == len(fast.isr_spans)


def test_commit_region_writes_pinned_words():
    """``Machine._commit_region`` is the one commit routine both
    backends call, so no differential test can see a slip in it: pin
    its words, wear bumps, output commit and bus event."""
    from repro.obs import REGION_COMMIT

    for name in ("glucose/gecko", "fir/gecko"):
        linked = _linked(name)
        pc, instr = next((pc, instr) for pc, instr
                         in enumerate(linked.instrs)
                         if instr.op is Opcode.MARK and instr.region)
        assert any(i.meta.get("per_reg") for i in linked.instrs), name
        machine = Machine(linked)
        obs = Observability()
        machine.attach(obs=obs)
        base = {symbol: linked.symtab[symbol][0] for symbol in (
            "__region_cur", "__region_pc", "__region_done", "__color",
            "__rcolor", "__sensor_idx")}
        rcolor = base["__rcolor"]
        machine.pc = pc
        machine.mem[base["__region_done"]] = 2**31 - 1
        machine.mem[base["__color"]] = 5
        machine.mem[rcolor + 2] = 1
        machine.mem[rcolor + 9] = -4
        machine._pending_rcolor.update({9, 2})
        machine.sensor_cursor = 2**32 + 7
        machine.out_buffer.extend([11, -3])
        machine.committed_out.append(4)
        mem_before = list(machine.mem)
        wear_before = list(machine.wear)

        machine._commit_region(instr)

        expected = {base["__region_cur"]: instr.region,
                    base["__region_pc"]: pc + 1,
                    base["__region_done"]: -2**31,
                    base["__color"]: 0,
                    rcolor + 2: 0,
                    rcolor + 9: 1,
                    base["__sensor_idx"]: 7}
        changed = {address: value for address, value
                   in enumerate(machine.mem)
                   if value != mem_before[address]
                   or address in expected}
        assert changed == expected, name
        worn = [address for address, count in enumerate(machine.wear)
                if count != wear_before[address]]
        assert worn == sorted(expected)
        assert all(machine.wear[address] == wear_before[address] + 1
                   for address in worn)
        assert machine.committed_out == [4, 11, -3]
        assert machine.out_buffer == []
        assert machine._pending_rcolor == set()
        assert machine.marks_executed == 1
        assert [(event.kind, event.detail) for event in obs.bus.events] \
            == [(REGION_COMMIT, f"region={instr.region}")]

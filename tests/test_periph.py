"""The peripheral subsystem: interrupt controller, device models, ISR
compilation, crash consistency, and the ISR-aware attack vocabulary.

Covers the contracts the reactive suite rests on:

* linker layout — the peripheral NVM block exists exactly when the
  program declares ISRs or touches MMIO intrinsics;
* language — the ``isr`` declaration form, registration validation, and
  handler-exclusivity / WCET compile checks;
* delivery — enable masks, priorities, nesting, and the sentinel-return
  protocol, observed through each machine's ``isr_spans``;
* crash consistency — snapshot/restore round-trips mid-handler (the
  PR 8 rewind property, restated over reactive state), and heal-by-
  re-delivery after an NVP-style rollback into stale frames;
* the ISR-aware fault and attack planners (:mod:`repro.periph.attack`,
  :class:`~repro.faultsim.FaultCampaignSpec` ``isr_window``,
  :mod:`repro.adversary.isrspace`).
"""

import contextlib
import gc
import random
import signal
import weakref

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.adversary import (
    AdversaryError,
    IsrPhaseCandidate,
    IsrPhaseSpace,
    isr_attack_space,
)
from repro.core import compile_scheme
from repro.errors import CompileError, ParseError, SemanticError
from repro.exhaustive import capture_trace, classify_fork
from repro.faultsim import (
    REG_FLIP,
    FaultCampaignSpec,
    FaultSimError,
    FaultSpec,
    fault_victim,
)
from repro.faultsim.explorer import profile_execution
from repro.isa.program import ISR_SOURCES, PERIPH_CONTROL_SYMBOLS
from repro.periph import (
    PeriphError,
    isr_arrivals,
    isr_trace,
    phase_locked_windows,
)
from repro.runtime import Machine, backend_for, runtime_for
from repro.workloads import (
    KERNEL,
    REACTIVE,
    REACTIVE_WORKLOADS,
    REGISTRY,
    WORKLOAD_NAMES,
    expected_output,
    source,
)

TIMER_TICKS = """
int ticks = 0;

isr timer on_tick() {
    ticks = ticks + 1;
}

void main() {
    irq_enable(1);
    timer_start(50);
    while (ticks < 5) bound(100000) { }
    timer_stop();
    out(ticks);
}
"""


def _run(linked, backend=None, max_steps=3_000_000):
    machine = Machine(linked)
    machine.run(max_steps=max_steps, backend=backend)
    return machine


def _state_of(machine):
    return (list(machine.mem), list(machine.regs), machine.pc,
            machine.halted, machine.cycles, machine.instr_count,
            list(machine.out_buffer), list(machine.committed_out))


@pytest.fixture(scope="module")
def glucose_nvp():
    return compile_scheme(source("glucose"), "nvp")


@pytest.fixture(scope="module")
def ticks_nvp():
    return compile_scheme(TIMER_TICKS, "nvp")


# ----------------------------------------------------------------------
# Linker layout.
# ----------------------------------------------------------------------
class TestLinkerLayout:
    def test_periph_block_present_for_isr_programs(self, ticks_nvp):
        symtab = ticks_nvp.linked.symtab
        for name in ("__irq_en", "__irq_pend", "__isr_sp", "__isr_stack",
                     "__isr_frames", "__t0_ctrl", "__adc_data",
                     "__dma_buf"):
            assert name in symtab, name
        assert ticks_nvp.linked.isr_vectors == {0: "on_tick"}

    def test_periph_block_absent_for_plain_programs(self):
        linked = compile_scheme(source("crc16"), "nvp").linked
        assert "__isr_sp" not in linked.symtab
        assert linked.isr_vectors == {}
        assert Machine(linked)._periph is None

    def test_mmio_intrinsics_alone_pull_in_the_block(self):
        linked = compile_scheme(
            "void main() { gpio_write(1); out(gpio_read()); }",
            "nvp").linked
        assert "__gpio_out" in linked.symtab
        assert linked.isr_vectors == {}

    def test_second_machine_computes_no_closure(self, monkeypatch):
        """The hub, its handler territories and the address map depend
        on the program alone: every ``Machine`` of one program (an
        exhaustive fork each) shares them, and only the first builds
        them."""
        import repro.periph.hub as hub_mod
        import repro.runtime.machine as machine_mod

        calls = []

        def counting(build):
            def wrapper(program):
                calls.append((build.__name__, program))
                return build(program)
            return wrapper

        init = hub_mod.PeriphHub.__init__

        def counting_init(hub, program):
            calls.append(("PeriphHub", program))
            init(hub, program)

        addresses = counting(machine_mod.symbol_addresses)
        monkeypatch.setattr(machine_mod, "symbol_addresses", addresses)
        monkeypatch.setattr(hub_mod, "symbol_addresses", addresses)
        monkeypatch.setattr(hub_mod, "_territories",
                            counting(hub_mod._territories))
        monkeypatch.setattr(hub_mod.PeriphHub, "__init__", counting_init)
        linked = compile_scheme(source("glucose"), "nvp").linked
        first, second = Machine(linked), Machine(linked)
        assert calls == [("symbol_addresses", linked),
                         ("PeriphHub", linked), ("_territories", linked)]
        assert second._periph is first._periph
        assert second._addr_cache is first._addr_cache
        for vector, handler in linked.isr_vectors.items():
            assert handler in first._periph._territory[vector]

    def test_control_symbols_cover_every_source(self):
        for prefix in ("__t0", "__adc", "__gpio", "__dma"):
            assert any(s.startswith(prefix)
                       for s in PERIPH_CONTROL_SYMBOLS)
        assert set(ISR_SOURCES) == {"timer", "adc", "gpio", "dma"}


# ----------------------------------------------------------------------
# One hub per program; each machine keeps its own record.
# ----------------------------------------------------------------------
def _run_with_runtime_and_drop(workload, scheme, backend):
    """Run one program to halt under its runtime; returns a weakref to
    the program and its id, holding nothing else of the run."""
    compiled = compile_scheme(source(workload), scheme)
    machine = Machine(compiled.linked)
    runtime_for(compiled).on_reboot(machine)
    machine.run(max_steps=3_000_000, backend=backend)
    assert machine.halted
    return weakref.ref(compiled.linked), id(compiled.linked)


class TestPerProgramHub:
    @pytest.mark.parametrize("backend", ["interpreter", "threaded"])
    @pytest.mark.parametrize("workload", ["glucose", "heartbeat"])
    def test_interleaved_machines_keep_their_own_record(self, workload,
                                                        backend):
        """Two machines of one program share its hub, but each records
        its own deliveries and heals: interleaved in 64-instruction
        slices, one 37 instructions behind, each matches a solo run."""
        def record(machine):
            return ([(s.vector, s.entry_step, s.entry_cycles, s.exit_step,
                      s.exit_cycles) for s in machine.isr_spans],
                    list(machine.isr_heals))

        linked = compile_scheme(source(workload), "nvp").linked
        solo = record(_run(linked, backend=backend))
        assert solo[0]
        engine = backend_for(backend)
        ahead, behind = Machine(linked), Machine(linked)
        assert engine.run_slice(ahead, 37)[1] is None
        while not (ahead.halted and behind.halted):
            for machine in (behind, ahead):
                assert engine.run_slice(machine, 64)[1] is None
        for machine in (ahead, behind):
            assert record(machine) == solo

    @pytest.mark.parametrize("backend", ["interpreter", "threaded"])
    @pytest.mark.parametrize("workload,scheme", [
        ("glucose", "nvp"), ("heartbeat", "gecko"), ("crc16", "gecko")])
    def test_no_program_stays_pinned(self, workload, scheme, backend):
        """What ``derived`` builds (hub, address map, region table,
        threaded blocks) must not reference its program: once a run is
        over, the program is freed and its entries are gone."""
        from repro.isa import program as program_mod

        ref, key = _run_with_runtime_and_drop(workload, scheme, backend)
        gc.collect()
        assert ref() is None
        assert not [entry for entry in program_mod._DERIVED
                    if entry[0] == key]


# ----------------------------------------------------------------------
# Language: parse, register, validate.
# ----------------------------------------------------------------------
class TestIsrLanguage:
    def test_unknown_source_rejected(self):
        with pytest.raises(SemanticError, match="unknown interrupt source"):
            compile_scheme("isr uart h() { }  void main() { }", "nvp")

    def test_handler_with_params_rejected(self):
        with pytest.raises(ParseError, match="no parameters"):
            compile_scheme("isr timer h(int x) { }  void main() { }", "nvp")

    def test_duplicate_source_rejected(self):
        with pytest.raises(SemanticError, match="duplicate handler"):
            compile_scheme(
                "isr timer a() { }  isr timer b() { }  void main() { }",
                "nvp")

    def test_direct_call_of_handler_rejected(self):
        with pytest.raises(SemanticError, match="cannot be called"):
            compile_scheme(
                "isr timer h() { }  void main() { h(); }", "nvp")

    def test_intrinsic_arity_checked(self):
        with pytest.raises(SemanticError, match="takes"):
            compile_scheme("void main() { timer_start(); }", "nvp")

    def test_gecko_rejects_unbounded_handler_loop(self):
        src = """
        int x = 0;
        isr timer h() { while (x < 10) { x = x + 1; } }
        void main() { irq_enable(1); timer_start(50); out(x); }
        """
        with pytest.raises(CompileError, match="isr closure"):
            compile_scheme(src, "gecko")
        compile_scheme(src, "nvp")  # NVP has no WCET contract

    def test_gecko_bounds_handler_loops_sharing_a_counter(self):
        src = """
        int x = 0;
        isr timer h() {
            int i;
            for (i = 0; i < 4; i = i + 1) { x = x + 1; }
            for (i = 0; i < 8; i = i + 1) { x = x + 2; }
        }
        void main() { irq_enable(1); timer_start(50); out(x); }
        """
        compile_scheme(src, "gecko")

    def test_gecko_rejects_handler_over_region_budget(self):
        src = """
        int x = 0;
        isr timer h() {
            for (int i = 0; i < 4000; i = i + 1) { x = x + i; }
        }
        void main() { irq_enable(1); timer_start(50); out(x); }
        """
        with pytest.raises(CompileError, match="exceeding the region"):
            compile_scheme(src, "gecko", region_budget=2000)

    def test_shared_closure_function_rejected(self):
        src = """
        int x = 0;
        int bump() { x = x + 1; return x; }
        isr timer a() { x = bump(); }
        isr adc b() { x = bump(); }
        void main() { out(x); }
        """
        with pytest.raises(CompileError, match="shared between"):
            compile_scheme(src, "gecko")

    def test_closure_called_from_main_rejected(self):
        src = """
        int x = 0;
        int bump() { x = x + 1; return x; }
        isr timer a() { x = bump(); }
        void main() { x = bump(); out(x); }
        """
        with pytest.raises(CompileError, match="also called from"):
            compile_scheme(src, "gecko")

    def test_isr_functions_carry_no_region_instrumentation(self):
        linked = compile_scheme(source("glucose"), "gecko").linked
        ops = {instr.op.name
               for instr, owner in zip(linked.instrs, linked.owner)
               if owner == "on_sample"}
        assert ops
        assert "MARK" not in ops and "CKPT" not in ops


# ----------------------------------------------------------------------
# Delivery semantics.
# ----------------------------------------------------------------------
class TestDelivery:
    def test_timer_counts_and_halts(self, ticks_nvp):
        machine = _run(ticks_nvp.linked)
        assert machine.halted
        assert machine.committed_out == [5]
        assert len(machine.isr_spans) >= 5

    def test_disabled_source_pends_but_never_delivers(self):
        src = """
        int ticks = 0;
        isr timer h() { ticks = ticks + 1; }
        void main() {
            timer_start(40);            // armed, but vector 0 disabled
            int spin = 0;
            while (spin < 50) bound(64) { spin = spin + 1; }
            out(ticks);
            out(irq_pending());
        }
        """
        machine = _run(compile_scheme(src, "nvp").linked)
        ticks, pending = machine.committed_out
        assert ticks == 0
        assert pending & 1
        assert len(machine.isr_spans) == 0

    def test_nesting_preempts_lower_priority_handler(self):
        linked = compile_scheme(source("heartbeat"), "nvp").linked
        machine = _run(linked)
        assert machine.halted
        spans = machine.isr_spans
        # A timer beat (vector 0) delivered strictly inside an adc
        # activation (vector 1) is a real preemption.
        nested = [
            t for t in spans if t.vector == 0
            for a in spans if a.vector == 1
            if a.entry_step < t.entry_step and t.exit_step <= a.exit_step
        ]
        assert nested, "heartbeat never exercised nesting"

    def test_no_nesting_without_irq_nest(self, ticks_nvp):
        machine = _run(ticks_nvp.linked)
        spans = sorted(machine.isr_spans, key=lambda s: s.entry_step)
        for earlier, later in zip(spans, spans[1:]):
            assert earlier.exit_step <= later.entry_step

    def test_dma_fires_once_and_self_stops(self):
        src = """
        int done = 0;
        isr dma h() { done = done + 1; }
        void main() {
            irq_enable(8);
            dma_start(4, 30);
            while (done < 1) bound(20000) { }
            int spin = 0;
            while (spin < 200) bound(256) { spin = spin + 1; }
            out(done);
            out(dma_done());
        }
        """
        machine = _run(compile_scheme(src, "nvp").linked)
        assert machine.committed_out == [1, 1]


@contextlib.contextmanager
def _deadline(seconds: int):
    """Fail, rather than hang, a body that runs past ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestCorruptedDevice:
    @pytest.mark.parametrize("backend_name", ["interpreter", "threaded"])
    def test_negative_fire_count_traps_instead_of_hanging(self,
                                                          backend_name):
        """A sign-bit flip in the register ``adc_start`` stores as the
        ADC's fire count must trap at the next boundary, naming the
        device, instead of firing the ADC once per count from -2**31
        up: over two billion fires."""
        linked = compile_scheme(source("heartbeat"), "nvp").linked
        trace = capture_trace(linked, snapshot_stride=64)
        assert str(linked.instrs[trace.pcs[14]]) \
            == "st R4, [@__adc_count + #0]"
        fault = FaultSpec(model=REG_FLIP, trigger_step=14, target=4, bit=31)
        with _deadline(30):
            outcome, error = classify_fork(
                linked, backend_for(backend_name), trace, fault)
        assert outcome == "brick"
        assert "adc device corrupted" in error
        assert "count -2147483648" in error


# ----------------------------------------------------------------------
# Crash consistency: snapshot/restore and heal-by-re-delivery.
# ----------------------------------------------------------------------
class TestCrashConsistency:
    def test_mid_isr_snapshot_restore_finishes_identically(self, ticks_nvp):
        golden = _run(ticks_nvp.linked)
        probe = Machine(ticks_nvp.linked)
        snaps = []
        while not probe.halted and len(snaps) < 8:
            probe.step()
            if probe.read_word("__isr_sp") > 0:
                snaps.append(probe.snapshot())
        assert snaps, "never observed an in-handler state"
        for snap in snaps:
            machine = Machine(ticks_nvp.linked)
            machine.restore(snap)
            machine.run(max_steps=3_000_000)
            assert machine.committed_out == golden.committed_out

    @given(cut=st.integers(min_value=0, max_value=1500),
           extra=st.integers(min_value=0, max_value=400))
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_restore_rewinds_reactive_progress(self, glucose_nvp,
                                               cut, extra):
        """The PR 8 rewind property over reactive state: a snapshot
        taken anywhere — pending interrupts, live handlers, armed
        devices — restores bit-exactly after arbitrary extra progress."""
        machine = Machine(glucose_nvp.linked)
        for _ in range(cut):
            if machine.halted:
                break
            machine.step()
        snap = machine.snapshot()
        reference = _state_of(machine)
        for _ in range(extra):
            if machine.halted:
                break
            machine.step()
        machine.restore(snap)
        assert _state_of(machine) == reference

    def test_nvp_rollback_into_stale_frame_heals(self, glucose_nvp):
        """NVP crash-restore emulation: volatile state rolls back to a
        main-line checkpoint while NVM still says "inside a handler".
        The hub must drop the stale frames, re-pend, and re-deliver —
        glucose's count-keyed handler makes re-delivery idempotent, so
        the run must still finish with the golden output."""
        linked = glucose_nvp.linked
        golden = _run(linked)

        probe = Machine(linked)
        checkpoint = None
        stale_mem = None
        while not probe.halted:
            if probe.read_word("__isr_sp") == 0 and checkpoint is None \
                    and probe.instr_count > 50:
                checkpoint = probe.snapshot()     # main-line "JIT image"
            if checkpoint is not None \
                    and probe.read_word("__isr_sp") > 0:
                stale_mem = list(probe.mem)       # NVM at the "crash"
                break
            probe.step()
        assert checkpoint is not None and stale_mem is not None

        victim = Machine(linked)
        victim.restore(checkpoint)
        victim.mem[:] = stale_mem                 # FRAM survived the crash
        before = len(victim.isr_spans)
        victim.run(max_steps=3_000_000)
        assert victim.halted
        assert victim.committed_out == golden.committed_out
        assert len(victim.isr_spans) > before

    def test_reactive_outputs_stable_across_schemes(self):
        # glucose is count-keyed end to end: identical committed output
        # under every scheme's instrumentation.
        reference = expected_output("glucose")
        for scheme in ("gecko", "ratchet"):
            machine = _run(compile_scheme(source("glucose"), scheme).linked)
            assert machine.committed_out == reference, scheme


# ----------------------------------------------------------------------
# Workload registry.
# ----------------------------------------------------------------------
class TestRegistry:
    def test_kernels_unchanged(self):
        assert len(WORKLOAD_NAMES) == 11
        assert all(REGISTRY[n].kind == KERNEL for n in WORKLOAD_NAMES)

    def test_reactive_suite_registered(self):
        assert len(REACTIVE_WORKLOADS) >= 3
        for name in REACTIVE_WORKLOADS:
            entry = REGISTRY[name]
            assert entry.kind == REACTIVE
            assert "isr " in entry.source
            assert entry.blurb

    def test_source_resolves_all_registered_names(self):
        for name in REGISTRY:
            assert "main" in source(name)
        with pytest.raises(KeyError, match="unknown workload"):
            source("nope")

    def test_expected_output_for_reactive(self):
        for name in REACTIVE_WORKLOADS:
            outputs = expected_output(name)
            assert outputs, name


# ----------------------------------------------------------------------
# ISR-aware fault planning.
# ----------------------------------------------------------------------
class TestIsrFaultPlanning:
    def test_profile_records_isr_spans(self, glucose_nvp):
        profile = profile_execution(glucose_nvp.linked)
        assert len(profile.isr_spans) >= 24
        assert profile.isr_steps() > 0
        vector, entry, exit_ = profile.isr_spans[0]
        assert vector == 1  # adc
        assert profile.isr_at(entry) == 1
        assert profile.isr_at(exit_) in (None, 1)

    def test_isr_window_campaign_targets_handlers(self):
        spec = FaultCampaignSpec(
            victim=fault_victim(workload="glucose", duration_s=0.02),
            models=("reg_flip", "instr_skip"), points=6, seed=3,
            isr_window=True)
        profile = profile_execution(spec.victim.compile().linked)
        plan = spec.plan()
        assert plan
        for fault in plan:
            assert fault.region.startswith("isr:")
            assert profile.isr_at(fault.trigger_step) is not None

    def test_isr_window_rejects_non_reactive_victims(self):
        spec = FaultCampaignSpec(
            victim=fault_victim(workload="crc16", duration_s=0.02),
            models=("reg_flip",), points=2, isr_window=True)
        with pytest.raises(FaultSimError, match="no interrupts"):
            spec.plan()

    def test_isr_trace_requires_peripherals(self):
        linked = compile_scheme(source("crc16"), "nvp").linked
        with pytest.raises(PeriphError, match="no peripherals"):
            isr_trace(linked)


# ----------------------------------------------------------------------
# The phase-locked attack axis.
# ----------------------------------------------------------------------
class TestIsrPhaseSpace:
    def test_windows_merge_and_clip(self):
        windows = phase_locked_windows((0.1, 0.12, 0.9), phase=0.0,
                                       width=0.06)
        assert windows[0] == pytest.approx((0.07, 0.15))
        assert windows[-1][1] <= 1.0
        assert phase_locked_windows((0.5,), 0.0, 0.0) == ()

    def test_space_from_golden_trace(self, glucose_nvp):
        space = isr_attack_space(glucose_nvp.linked, duration_s=0.02)
        assert len(space.arrivals) > 24
        rng = random.Random(0)
        candidate = space.sample(rng)
        assert candidate.windows()
        lo, hi = space.bounds["phase"].lo, space.bounds["phase"].hi
        assert lo < 0 < hi
        # protocol: clip and neighbor stay in bounds, keep arrivals
        moved = space.neighbor(candidate, rng)
        assert moved.arrivals == space.arrivals
        assert lo <= space.clip(moved).phase <= hi

    def test_lattice_is_aggressive(self, glucose_nvp):
        space = isr_attack_space(glucose_nvp.linked, duration_s=0.02)
        lattice = space.lattice(3)
        assert len(lattice) == 3
        for candidate in lattice:
            assert candidate.tx_dbm == space.bounds["tx_dbm"].hi
            assert candidate.phase == 0.0

    def test_candidate_serialization_round_trip(self, glucose_nvp):
        space = isr_attack_space(glucose_nvp.linked, duration_s=0.02)
        candidate = space.sample(random.Random(7))
        again = IsrPhaseCandidate.from_dict(candidate.to_dict())
        assert again == candidate

    def test_space_rejects_empty_arrivals(self):
        with pytest.raises(AdversaryError, match=">= 1 arrival"):
            IsrPhaseSpace(arrivals=(), bounds={})

    def test_arrivals_filter_by_vector(self, glucose_nvp):
        spans, cycles = isr_trace(glucose_nvp.linked)
        assert isr_arrivals(spans, cycles, vector=0) == ()
        assert len(isr_arrivals(spans, cycles, vector=1)) == len(spans)

"""Exhaustive fault-map tests: snapshot/restore round-trips, machine-level
liveness, fault-space reduction soundness (the pruned==naive differential
oracle), store memoization, and parallel determinism."""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import compile_scheme
from repro.exhaustive import (
    ExhaustiveSpec,
    capture_trace,
    classify_fork,
    enumerate_step_model,
    enumerate_time_model,
    exhaustive_map,
    injection_digest,
    program_digest,
)
from repro.exhaustive.mapper import CHUNK_SIZE, KnownStates, _simulate_chunk
from repro.faultsim import (
    CKPT_CORRUPT,
    FaultSimError,
    FaultSpec,
    IMAGE_PREFIX_WORDS,
    INSTR_SKIP,
    Outcome,
    REG_FLIP,
    SIGNAL_DROP,
    fault_victim,
)
from repro.ir import linked_liveness
from repro.isa import link, parse_program
from repro.runtime import Machine, MachineSnapshot, backend_for, drain
from repro.store import ResultStore
from repro.workloads import source


@pytest.fixture(scope="module")
def crc16_nvp():
    return compile_scheme(source("crc16"), "nvp")


def _advance(machine, steps):
    for _ in range(steps):
        if machine.halted:
            break
        machine.step()


def _state_of(machine):
    return (list(machine.mem), list(machine.regs), machine.pc,
            machine.halted, machine.powered, machine.cycles,
            machine.instr_count, list(machine.out_buffer),
            list(machine.committed_out), machine.sensor_cursor,
            machine.ckpt_stores_executed, machine.marks_executed,
            set(machine._pending_rcolor), list(machine.wear))


# ----------------------------------------------------------------------
# Machine.snapshot()/restore().
# ----------------------------------------------------------------------
class TestSnapshotRestore:
    @pytest.mark.parametrize("backend_name", ["interpreter", "threaded"])
    def test_round_trip_completes_identically(self, crc16_nvp, backend_name):
        linked = crc16_nvp.linked
        backend = backend_for(backend_name)
        machine = Machine(linked)
        backend.run_slice(machine, 1000)
        snap = machine.snapshot()
        assert isinstance(snap, MachineSnapshot)

        assert drain(machine, backend, 10**6) is None
        reference = _state_of(machine)

        machine.restore(snap)
        assert machine.instr_count == 1000
        assert drain(machine, backend, 10**6) is None
        assert _state_of(machine) == reference

    @pytest.mark.parametrize("backend_name", ["interpreter", "threaded"])
    def test_fork_onto_fresh_machine(self, crc16_nvp, backend_name):
        linked = crc16_nvp.linked
        backend = backend_for(backend_name)
        donor = Machine(linked)
        backend.run_slice(donor, 777)
        snap = donor.snapshot()

        fork = Machine(linked)
        fork.restore(snap)
        assert _state_of(fork) == _state_of(donor)
        assert drain(fork, backend, 10**6) is None
        assert drain(donor, backend, 10**6) is None
        assert _state_of(fork) == _state_of(donor)

    def test_mid_block_suffix_resume_on_threaded(self, crc16_nvp):
        # Pick a cut whose pc is NOT a block leader: the threaded backend
        # must lazily compile the suffix block starting at that pc.
        linked = crc16_nvp.linked
        leaders = linked.block_leaders()
        machine = Machine(linked)
        cut = None
        for step in range(1, 2000):
            machine.step()
            if machine.pc not in leaders and not machine.halted:
                cut = machine.snapshot()
                break
        assert cut is not None and cut.pc not in leaders

        interp, threaded = Machine(linked), Machine(linked)
        interp.restore(cut)
        threaded.restore(cut)
        assert drain(interp, backend_for("interpreter"), 10**6) is None
        assert drain(threaded, backend_for("threaded"), 10**6) is None
        assert _state_of(interp) == _state_of(threaded)

    def test_snapshot_is_immutable_plain_data(self, crc16_nvp):
        machine = Machine(crc16_nvp.linked)
        _advance(machine, 100)
        snap = machine.snapshot()
        with pytest.raises(AttributeError):
            snap.pc = 0
        # Mutating the machine afterwards must not leak into the snapshot.
        before = snap.regs
        _advance(machine, 100)
        assert snap.regs == before

    @given(cut=st.integers(min_value=0, max_value=3000),
           extra=st.integers(min_value=0, max_value=500))
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_restore_rewinds_any_progress(self, crc16_nvp, cut, extra):
        machine = Machine(crc16_nvp.linked)
        _advance(machine, cut)
        snap = machine.snapshot()
        reference = _state_of(machine)
        _advance(machine, extra)
        machine.restore(snap)
        assert _state_of(machine) == reference


# ----------------------------------------------------------------------
# Machine-level interprocedural liveness.
# ----------------------------------------------------------------------
class TestLinkedLiveness:
    def test_straight_line_and_call_flow(self):
        linked = link(parse_program("""
.data
    s 1
.func main
    li R4, #1
    li R5, #2
    add R6, R4, R5
    call bump
    out R6
    halt
.func bump
    li R7, #9
    ret
"""))
        lv = linked_liveness(linked)
        # add reads R4 and R5.
        assert lv.is_live_before(2, 4) and lv.is_live_before(2, 5)
        # R4 is dead before its own definition.
        assert not lv.is_live_before(0, 4)
        # R6 is live across the call (callee does not clobber it) and at
        # the callee's ret, which flows back to the return point.
        call_pc = linked.func_entry["main"] + 3
        ret_pc = linked.func_entry["bump"] + 1
        assert lv.is_live_before(call_pc, 6)
        assert lv.is_live_before(ret_pc, 6)
        # Nothing is live after halt.
        halt_pc = linked.func_entry["main"] + 5
        assert lv.live_out[halt_pc] == 0

    def test_callee_clobber_kills_liveness_across_call(self):
        linked = link(parse_program("""
.data
    s 1
.func main
    li R6, #1
    call bump
    out R6
    halt
.func bump
    li R6, #9
    ret
"""))
        lv = linked_liveness(linked)
        # bump redefines R6 on every path before the return-point read,
        # so the value from before the call is dead across it.
        call_pc = linked.func_entry["main"] + 1
        assert not lv.is_live_before(call_pc, 6)
        assert not lv.is_live_before(linked.func_entry["bump"], 6)

    def test_branch_merges_both_paths(self):
        linked = link(parse_program("""
.data
    s 1
.func main
    li R4, #1
    li R5, #2
    bnz R4, .skip
    add R5, R5, #1
skip:
    out R5
    halt
"""))
        lv = linked_liveness(linked)
        bnz_pc = linked.func_entry["main"] + 2
        # The branch reads R4; R5 is live through both arms.
        assert lv.is_live_before(bnz_pc, 4)
        assert lv.is_live_before(bnz_pc, 5)
        assert not lv.is_live_before(bnz_pc + 1, 4)

    def test_dead_register_flips_are_masked(self, crc16_nvp):
        """Empirical soundness: flipping a statically dead register never
        changes the stable-power run."""
        linked = crc16_nvp.linked
        lv = linked_liveness(linked)
        trace = capture_trace(linked, snapshot_stride=64)
        backend = backend_for("threaded")
        rng = random.Random(7)
        checked = 0
        while checked < 12:
            step = rng.randrange(trace.golden_steps)
            dead = [r for r in range(16)
                    if not lv.is_live_before(trace.pcs[step], r)]
            if not dead:
                continue
            fault = FaultSpec(model=REG_FLIP, trigger_step=step,
                              target=rng.choice(dead),
                              bit=rng.randrange(32))
            outcome, error = classify_fork(linked, backend, trace, fault)
            assert (outcome, error) == (Outcome.MASKED.value, None), fault
            checked += 1


# ----------------------------------------------------------------------
# Space enumeration.
# ----------------------------------------------------------------------
class TestSpace:
    def test_spec_validation(self):
        with pytest.raises(FaultSimError):
            ExhaustiveSpec(models=("gamma_burst",))
        with pytest.raises(FaultSimError):
            ExhaustiveSpec(bits=(33,))
        with pytest.raises(FaultSimError):
            ExhaustiveSpec(step_stride=0)
        with pytest.raises(FaultSimError):
            ExhaustiveSpec(slice_steps=0)

    def test_step_enumeration_is_complete_and_canonical(self, crc16_nvp):
        trace = capture_trace(crc16_nvp.linked, snapshot_stride=64)
        spec = ExhaustiveSpec(victim=fault_victim("crc16"),
                              start_step=10, slice_steps=3, bits=(0, 31))
        flips = list(enumerate_step_model(spec, REG_FLIP, trace.profile))
        assert len(flips) == 3 * 16 * 2
        assert len(set(flips)) == len(flips)
        assert flips == sorted(
            flips, key=lambda f: (f.trigger_step, f.target, f.bit))
        skips = list(enumerate_step_model(spec, INSTR_SKIP, trace.profile))
        assert [f.trigger_step for f in skips] == [10, 11, 12]

    def test_time_grids_are_deterministic(self):
        spec = ExhaustiveSpec(victim=fault_victim("crc16"),
                              ckpt_windows=2, signal_slots=4, bits=(0,))
        corrupt = enumerate_time_model(spec, CKPT_CORRUPT)
        assert len(corrupt) == 2 * IMAGE_PREFIX_WORDS
        assert corrupt == enumerate_time_model(spec, CKPT_CORRUPT)
        signal = enumerate_time_model(spec, SIGNAL_DROP)
        assert len(signal) == 4
        duration = spec.victim.duration_s
        assert all(f.trigger_time_s < 0.9 * duration for f in signal)


# ----------------------------------------------------------------------
# The differential oracle: reduced+forked == naive from-reset.
# ----------------------------------------------------------------------
class TestDifferential:
    @pytest.mark.parametrize("backend_name", ["interpreter", "threaded"])
    def test_pruned_forked_matches_naive(self, backend_name):
        spec = ExhaustiveSpec(
            victim=fault_victim("crc16", "nvp", backend=backend_name),
            models=(REG_FLIP, INSTR_SKIP),
            start_step=100, slice_steps=4, bits=(0, 31),
        )
        reduced = exhaustive_map(spec)
        naive = exhaustive_map(spec, naive=True)
        assert reduced.map.fingerprint() == naive.map.fingerprint()
        # The reduction must actually reduce, not just agree.
        assert reduced.stats.representatives < naive.stats.representatives
        assert naive.stats.representatives == reduced.stats.total_enumerated

    def test_backends_agree_on_the_same_map(self):
        fingerprints = set()
        for backend_name in ("interpreter", "threaded"):
            spec = ExhaustiveSpec(
                victim=fault_victim("crc16", "nvp", backend=backend_name),
                models=(REG_FLIP,), start_step=300, slice_steps=3,
                bits=(5, 17),
            )
            fingerprints.add(exhaustive_map(spec).map.fingerprint())
        assert len(fingerprints) == 1

    def test_reduction_factor_reaches_ten_x_on_full_bits(self):
        spec = ExhaustiveSpec(
            victim=fault_victim("crc16", "nvp", backend="threaded"),
            models=(REG_FLIP,), start_step=100, slice_steps=8,
        )
        result = exhaustive_map(spec)
        assert result.stats.reduction_factor() >= 10.0


# ----------------------------------------------------------------------
# Forks that stop at a known state: golden's, or a sibling's.
# ----------------------------------------------------------------------
#: Strided whole-run slices whose reduced maps stop forks at both kinds
#: of known state.  crc16 alone would not catch a key that leaves out
#: memory or the output buffer; blink and glucose do.
STOP_SLICES = {"crc16": 224, "blink": 37, "glucose": 29}

#: A timer races a branch that takes MUL instead of ADD when R6 is set:
#: both paths leave the same registers and words, 10 cycles apart, and
#: the timer's count read after the NOPs differs by one.
TIMER_RACE = """
.func main
    li R4, #100
    st R4, [@__t0_period + #0]
    li R4, #1
    st R4, [@__t0_ctrl + #0]
    li R6, #0
    li R5, #2
    bnz R6, .slow
    add R7, R5, R5
    jmp .join
slow:
    mul R7, R5, R5
    jmp .join
join:
    li R6, #0
""" + "    nop\n" * 82 + """
    ld R8, [@__t0_count + #0]
    out R8
    halt
"""


class TestKnownStateStops:
    @pytest.mark.parametrize("backend_name", ["interpreter", "threaded"])
    @pytest.mark.parametrize("workload", sorted(STOP_SLICES))
    def test_stopped_forks_match_naive(self, workload, backend_name):
        spec = ExhaustiveSpec(
            victim=fault_victim(workload, "nvp", backend=backend_name),
            models=(REG_FLIP, INSTR_SKIP),
            step_stride=STOP_SLICES[workload], bits=(0, 7, 31))
        reduced = exhaustive_map(spec)
        naive = exhaustive_map(spec, naive=True)
        assert reduced.stats.golden_stops > 0
        assert reduced.stats.sibling_stops > 0
        assert naive.stats.golden_stops == naive.stats.sibling_stops == 0
        assert reduced.map.fingerprint() == naive.map.fingerprint()
        shown = reduced.stats.to_dict()
        assert (shown["golden_stops"], shown["sibling_stops"]) \
            == (reduced.stats.golden_stops, reduced.stats.sibling_stops)

    @pytest.mark.parametrize("backend_name", ["interpreter", "threaded"])
    def test_cycles_keep_a_state_off_golden(self, backend_name):
        """The R6 flip before the branch reaches golden's registers and
        memory with 10 more cycles; the hub's timer then fires one
        period sooner in program order.  That state is not golden's, so
        the fork must drain on to the sdc the from-reset run sees; every
        other injection of the program must agree with from-reset too."""
        program = parse_program(TIMER_RACE)
        program.uses_periph = True
        linked = link(program)
        trace = capture_trace(linked, snapshot_stride=16)
        backend = backend_for(backend_name)
        race = FaultSpec(model=REG_FLIP, trigger_step=6, target=6, bit=0)
        known = KnownStates()
        assert classify_fork(linked, backend, trace, race,
                             from_reset=True) == ("sdc", None)
        assert classify_fork(linked, backend, trace, race,
                             known=known) == ("sdc", None)
        assert known.golden_stops == known.sibling_stops == 0

        faults = [FaultSpec(model=INSTR_SKIP, trigger_step=step)
                  for step in range(trace.golden_steps)]
        faults += [FaultSpec(model=REG_FLIP, trigger_step=step,
                             target=target, bit=bit)
                   for step in range(trace.golden_steps)
                   for target in range(16) for bit in (0, 31)]
        stops = [0, 0]
        for start in range(0, len(faults), CHUNK_SIZE):
            payload = {"faults": faults[start:start + CHUNK_SIZE]}
            reduced, *counts = _simulate_chunk(
                (linked, backend, trace, False), payload)
            naive, *none = _simulate_chunk(
                (linked, backend, trace, True), payload)
            assert reduced == naive
            assert none == [0, 0]
            stops = [a + b for a, b in zip(stops, counts)]
        assert stops[0] > 0 and stops[1] > 0


# ----------------------------------------------------------------------
# Store memoization.
# ----------------------------------------------------------------------
class TestStoreMemoization:
    def test_warm_rerun_simulates_nothing(self, tmp_path):
        spec = ExhaustiveSpec(
            victim=fault_victim("crc16", "nvp", duration_s=0.1,
                                backend="threaded"),
            models=(REG_FLIP, SIGNAL_DROP),
            start_step=200, slice_steps=4, bits=(0, 31), signal_slots=2,
        )
        with ResultStore(str(tmp_path / "store")) as store:
            cold = exhaustive_map(spec, store=store)
            assert cold.stats.executed_simulations > 0
            assert cold.stats.store_puts == cold.stats.simulated
            warm = exhaustive_map(spec, store=store)
        assert warm.stats.executed_simulations == 0
        assert warm.stats.store_hits == cold.stats.representatives
        assert warm.map.fingerprint() == cold.map.fingerprint()

    def test_failed_chunk_keeps_the_finished_ones(self, tmp_path,
                                                  monkeypatch):
        """Each chunk's verdicts are stored as the chunk lands: a map
        whose first chunk fails still raises, but the rerun simulates
        only the lost chunk and reproduces the clean map."""
        import repro.exhaustive.mapper as mapper_mod

        spec = ExhaustiveSpec(
            victim=fault_victim("crc16", "nvp"),
            models=(REG_FLIP, INSTR_SKIP),
            start_step=100, slice_steps=40, bits=(0, 31),
        )
        clean = exhaustive_map(spec)
        assert clean.stats.representatives == 116   # chunks of 64 + 52
        real = mapper_mod._simulate_chunk
        calls = []

        def first_call_fails(context, payload):
            calls.append(len(payload["faults"]))
            if len(calls) == 1:
                raise RuntimeError("chunk lost")
            return real(context, payload)

        with ResultStore(str(tmp_path / "store")) as store:
            monkeypatch.setattr(mapper_mod, "_simulate_chunk",
                                first_call_fails)
            with pytest.raises(FaultSimError, match="chunk 0 failed"):
                exhaustive_map(spec, store=store)
            assert calls == [64, 52]
            assert len(store) == 52
            monkeypatch.undo()
            rerun = exhaustive_map(spec, store=store)
        assert rerun.stats.store_hits == 52
        assert rerun.stats.simulated == 64
        assert rerun.map.fingerprint() == clean.map.fingerprint()

    def test_injection_digest_is_content_only(self, crc16_nvp):
        digest = program_digest(crc16_nvp.linked)
        fault = FaultSpec(model=REG_FLIP, trigger_step=5, target=3, bit=2)
        a = injection_digest(digest, "nvp", "crc16", fault, budget=1000)
        b = injection_digest(digest, "nvp", "crc16", fault, budget=1000)
        assert a == b
        assert a != injection_digest(digest, "gecko", "crc16", fault, 1000)
        assert a != injection_digest(digest, "nvp", "crc16", fault, 999)


# ----------------------------------------------------------------------
# Parallel determinism.
# ----------------------------------------------------------------------
#: A strided whole-run crc16/nvp slice in faultmap-slice's shape.
CHUNKED_SLICE = dict(models=(REG_FLIP, INSTR_SKIP), step_stride=224,
                     bits=(0, 7, 31))


class TestParallelDeterminism:
    def test_workers_do_not_change_the_map(self):
        spec = ExhaustiveSpec(
            victim=fault_victim("crc16", "nvp", backend="threaded"),
            models=(REG_FLIP,), start_step=50, slice_steps=6, bits=(0,),
        )
        serial = exhaustive_map(spec, workers=1)
        parallel = exhaustive_map(spec, workers=2)
        assert serial.map.fingerprint() == parallel.map.fingerprint()
        assert serial.stats.representatives == parallel.stats.representatives

    def test_chunking_does_not_change_the_map(self, monkeypatch):
        """Known-state stops are exact: how the representatives are cut
        into chunks moves only the stop counts, never a verdict."""
        import repro.exhaustive.mapper as mapper_mod

        spec = ExhaustiveSpec(victim=fault_victim("crc16", "nvp"),
                              **CHUNKED_SLICE)
        maps = {}
        for size in (1, 7, 64):
            monkeypatch.setattr(mapper_mod, "CHUNK_SIZE", size)
            result = exhaustive_map(spec)
            maps[size] = (result.map.fingerprint(), result.stats.simulated)
        assert maps[1] == maps[7] == maps[64]
        assert maps[64][1] > 64

    def test_workers_do_not_change_the_stop_counts(self):
        spec = ExhaustiveSpec(victim=fault_victim("crc16", "nvp"),
                              **CHUNKED_SLICE)
        counts = set()
        for workers in (1, 2):
            stats = exhaustive_map(spec, workers=workers).stats
            counts.add((stats.golden_stops, stats.sibling_stops))
        assert len(counts) == 1
        golden, sibling = counts.pop()
        assert golden > 0 and sibling > 0

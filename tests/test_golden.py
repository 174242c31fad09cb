"""The golden run and the worker hand-off each exist once.

* Every view the engines read off :func:`repro.faultsim.golden.
  capture_trace` — sampled-campaign region profiles, ISR delivery traces,
  torture profiles — equals what an independent single-step reference
  loop, kept here, records from a fresh machine.
* Pooled exhaustive maps and torture campaigns give the serial
  fingerprint under both pool start methods: the parent's compiled
  program and golden run reach the workers intact whether they are
  inherited (``fork``) or pickled once per worker (``spawn``).
"""

import pytest

import repro.eval.resilient as resilient
from repro.exhaustive import ExhaustiveSpec, exhaustive_map
from repro.exhaustive.mapper import CHUNK_SIZE
from repro.faultsim import INSTR_SKIP, REG_FLIP, fault_victim
from repro.faultsim.explorer import profile_execution
from repro.faultsim.golden import capture_trace
from repro.periph import isr_trace
from repro.runtime import Machine
from repro.torture import TortureSpec, build_target, run_campaign

#: Reactive workloads (ISR spans) plus one kernel without peripherals.
WORKLOADS = ("glucose", "heartbeat", "motionlog", "crc16")
REACTIVE = WORKLOADS[:3]


def reference_run(linked):
    """Single-step a fresh machine to halt, the way each engine's own
    golden loop did: regions before every step, the cycle count after
    every region commit, ISR spans closed at halt."""
    machine = Machine(linked)
    regions, mark_cycles = [], []
    marks = 0
    while not machine.halted:
        regions.append(machine.read_word("__region_cur"))
        machine.step()
        if machine.marks_executed != marks:
            marks = machine.marks_executed
            mark_cycles.append(machine.cycles)
    spans = [(span.vector, span.entry_step, span.entry_cycles,
              span.exit_step if span.closed else machine.instr_count,
              span.exit_cycles if span.closed else machine.cycles)
             for span in machine.isr_spans]
    return machine, regions, mark_cycles, spans


class TestGoldenViews:
    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_profile_execution(self, workload):
        linked = fault_victim(workload).compile().linked
        _, regions, _, spans = reference_run(linked)
        profile = profile_execution(linked)
        assert profile.regions == regions
        assert profile.isr_spans == [(vector, entry, exit_)
                                     for vector, entry, _, exit_, _ in spans]
        assert bool(profile.isr_spans) == (workload in REACTIVE)

    @pytest.mark.parametrize("workload", REACTIVE)
    def test_isr_trace(self, workload):
        linked = fault_victim(workload).compile().linked
        machine, _, _, spans = reference_run(linked)
        traced, cycles = isr_trace(linked)
        assert cycles == machine.cycles
        assert [(s.vector, s.entry_step, s.entry_cycles, s.exit_step,
                 s.exit_cycles) for s in traced] == spans
        assert all(span.closed for span in traced)

    @pytest.mark.parametrize("scheme", ["nvp", "gecko-jit"])
    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_torture_profile(self, workload, scheme):
        target = build_target(workload, scheme)
        machine, _, mark_cycles, spans = reference_run(target.linked)
        profile = target.profile
        assert target.golden_out == tuple(machine.committed_out)
        assert target.golden_steps == machine.instr_count
        assert profile.total_cycles == machine.cycles
        assert profile.mark_cycles == tuple(mark_cycles)
        assert profile.isr_entry_cycles == tuple(s[2] for s in spans)
        assert profile.has_periph == (machine._periph is not None)
        assert profile.vectors == (tuple(sorted(machine._periph._vectors))
                                   if machine._periph is not None else ())
        assert bool(mark_cycles) == (scheme == "gecko-jit")

    def test_snapshots_only_when_asked(self):
        linked = fault_victim("crc16").compile().linked
        assert capture_trace(linked).snapshots == []
        trace = capture_trace(linked, 1000)
        assert len(trace.snapshots) == -(-trace.golden_steps // 1000)


@pytest.fixture(params=["fork", "spawn"])
def start_method(request, monkeypatch):
    monkeypatch.setattr(resilient, "default_start_method",
                        lambda: request.param)
    return request.param


class TestWorkerContext:
    def test_exhaustive_slice(self, start_method):
        spec = ExhaustiveSpec(
            victim=fault_victim("crc16", "nvp", backend="threaded"),
            models=(REG_FLIP, INSTR_SKIP), step_stride=300, bits=(0, 31))
        serial = exhaustive_map(spec)
        pooled = exhaustive_map(spec, workers=2)
        assert serial.stats.simulated > 2 * CHUNK_SIZE   # three chunks
        assert pooled.stats.simulated == serial.stats.simulated
        assert pooled.map.fingerprint() == serial.map.fingerprint()

    def test_torture_campaign(self, start_method):
        spec = TortureSpec(workload="glucose", scheme="nvp", seed=3,
                           cases=4, shrink=False)
        serial = run_campaign(spec)
        pooled = run_campaign(spec, workers=2)
        assert pooled.errors == serial.errors == 0
        assert pooled.fingerprint == serial.fingerprint

"""Observability subsystem tests: bus, metrics, exporters, profiler,
simulator integration, campaign telemetry, and faultsim excerpts."""

import json
import time

import pytest

from repro import compile_gecko, compile_nvp
from repro.energy import Capacitor, PowerSystem, SquareWaveHarvester
from repro.eval.campaign import (
    AttackSpec,
    CampaignRunner,
    ExperimentSpec,
    PathSpec,
)
from repro.eval.common import VictimConfig
from repro.obs import (
    CHECKPOINT_OK,
    COMPLETION,
    EMI_ON,
    EVENT_KINDS,
    Event,
    EventBus,
    MONITOR_TRIP,
    MetricsRegistry,
    Observability,
    Profiler,
    REBOOT,
    REGION_COMMIT,
    merge_flat,
    qualified_name,
    read_jsonl,
    to_perfetto,
    validate_perfetto,
    write_jsonl,
    write_perfetto,
)
from repro.obs.export import state_slices, voltage_counters
from repro.obs.events import Sample
from repro.obs.metrics import NULL_INSTRUMENT
from repro.obs.profiler import maybe
from repro.runtime import (
    IntermittentSimulator,
    Machine,
    SimConfig,
    SimResult,
    Tracer,
    runtime_for,
)

SRC = """
void main() {
    int s = 0;
    for (int i = 0; i < 40; i = i + 1) { s = s + i * i; }
    out(s);
}
"""


# ----------------------------------------------------------------------
# EventBus.
# ----------------------------------------------------------------------
class TestEventBus:
    def test_emit_and_query(self):
        bus = EventBus()
        bus.emit(0.1, REBOOT)
        bus.emit(0.2, CHECKPOINT_OK, "budget=5")
        bus.emit(0.3, REBOOT)
        assert bus.count(REBOOT) == 2
        assert bus.events_of(CHECKPOINT_OK)[0].detail == "budget=5"
        assert bus.kind_counts() == {REBOOT: 2, CHECKPOINT_OK: 1}

    def test_subscriber_filtering(self):
        bus = EventBus()
        everything, reboots = [], []
        bus.subscribe(everything.append)
        bus.subscribe(reboots.append, kinds=[REBOOT])
        bus.emit(0.0, REBOOT)
        bus.emit(0.1, COMPLETION)
        assert len(everything) == 2
        assert [e.kind for e in reboots] == [REBOOT]

    def test_ring_retention_bounds_events(self):
        bus = EventBus(ring=4)
        for i in range(10):
            bus.emit(i * 0.1, REBOOT, f"n={i}")
        assert len(bus.events) == 4
        assert bus.tail(2)[-1].detail == "n=9"
        assert bus.tail(0) == []

    def test_samples_never_evict_events(self):
        bus = EventBus(ring=8, sample_ring=2)
        bus.emit(0.0, REBOOT)
        for i in range(100):
            bus.sample(i * 0.01, 3.0, "running")
        assert bus.count(REBOOT) == 1
        assert len(bus.samples) == 2

    def test_disabled_bus_records_nothing(self):
        bus = EventBus(enabled=False)
        seen = []
        bus.subscribe(seen.append)
        bus.emit(0.0, REBOOT)
        bus.sample(0.0, 3.0, "running")
        assert not bus.events and not bus.samples and not seen

    def test_event_round_trip(self):
        event = Event(t=0.25, kind=MONITOR_TRIP, detail="wake")
        assert Event.from_dict(event.to_dict()) == event


# ----------------------------------------------------------------------
# Metrics.
# ----------------------------------------------------------------------
class TestMetrics:
    def test_qualified_name_sorts_labels(self):
        assert qualified_name("m", {}) == "m"
        assert qualified_name("m", {"b": 2, "a": 1}) == "m{a=1,b=2}"

    def test_counter_gauge_identity(self):
        registry = MetricsRegistry()
        registry.counter("c", scheme="nvp").inc()
        registry.counter("c", scheme="nvp").inc(2)
        registry.counter("c", scheme="gecko").inc(5)
        flat = registry.as_dict()
        assert flat["c{scheme=nvp}"] == 3
        assert flat["c{scheme=gecko}"] == 5
        assert list(flat) == sorted(flat)

    def test_histogram_expansion(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", buckets=(1.0, 10.0), unit="w")
        for value in (0.5, 5.0, 50.0):
            hist.observe(value)
        flat = registry.as_dict()
        assert flat["h_bucket{unit=w,le=1}"] == 1
        assert flat["h_bucket{unit=w,le=10}"] == 1
        assert flat["h_bucket{unit=w,le=+Inf}"] == 3
        assert flat["h_sum{unit=w}"] == pytest.approx(55.5)
        assert flat["h_count{unit=w}"] == 3

    def test_disabled_registry_hands_out_null(self):
        registry = MetricsRegistry(enabled=False)
        assert registry.counter("c") is NULL_INSTRUMENT
        assert registry.histogram("h") is NULL_INSTRUMENT
        registry.count("c", 5)
        assert registry.as_dict() == {}

    def test_merge_flat_sums(self):
        total = {}
        merge_flat(total, {"a": 1, "b": 2.5})
        merge_flat(total, {"a": 3})
        assert total == {"a": 4, "b": 2.5}


# ----------------------------------------------------------------------
# Profiler.
# ----------------------------------------------------------------------
class TestProfiler:
    def test_phase_and_cycles(self):
        profiler = Profiler()
        with profiler.phase("compile"):
            time.sleep(0.001)
        profiler.add_wall("step", 0.5, calls=10)
        profiler.add_cycles("alu", 100)
        profiler.add_cycles("alu", 50)
        report = profiler.as_dict()
        assert report["wall_s"]["compile"] > 0
        assert report["calls"]["step"] == 10
        assert report["cycles"]["alu"] == 150
        rendered = profiler.render()
        assert "compile" in rendered and "alu" in rendered

    def test_maybe_gates_on_enabled(self):
        assert maybe(None) is None
        assert maybe(Profiler(enabled=False)) is None
        profiler = Profiler()
        assert maybe(profiler) is profiler


# ----------------------------------------------------------------------
# Exporters.
# ----------------------------------------------------------------------
def _samples():
    return [Sample(0.0, 3.2, "running"), Sample(0.1, 3.0, "running"),
            Sample(0.2, 2.4, "sleeping"), Sample(0.3, 3.1, "running")]


class TestPerfettoExport:
    def test_state_slices_coalesce(self):
        slices = state_slices(_samples())
        assert [s["name"] for s in slices] == ["running", "sleeping",
                                               "running"]
        assert slices[0]["ts"] == 0.0
        assert slices[0]["dur"] == pytest.approx(0.2 * 1e6)

    def test_voltage_counter_track(self):
        counters = voltage_counters(_samples())
        assert all(c["ph"] == "C" and c["name"] == "V_cap" for c in counters)
        assert counters[2]["args"]["V"] == 2.4

    def test_to_perfetto_schema_and_monotonic_ts(self):
        bus = EventBus()
        for sample in _samples():
            bus.sample(sample.t, sample.voltage, sample.state)
        bus.emit(0.15, REBOOT)
        bus.emit(0.25, EMI_ON)
        trace = to_perfetto(bus, thresholds={"V_backup": 2.6, "V_on": 3.0})
        validate_perfetto(trace)  # ph/ts/pid/name present, ts monotonic
        kinds = {e["ph"] for e in trace["traceEvents"]}
        assert {"M", "X", "C", "i"} <= kinds
        names = {e["name"] for e in trace["traceEvents"]}
        assert {"V_cap", "V_backup", "V_on", REBOOT, EMI_ON} <= names

    def test_validate_rejects_bad_traces(self):
        with pytest.raises(ValueError):
            validate_perfetto({"traceEvents": []})
        with pytest.raises(ValueError):
            validate_perfetto({"traceEvents": [{"ph": "i", "ts": 0}]})
        bad_order = {"traceEvents": [
            {"ph": "i", "ts": 5, "pid": 1, "name": "a"},
            {"ph": "i", "ts": 1, "pid": 1, "name": "b"},
        ]}
        with pytest.raises(ValueError):
            validate_perfetto(bad_order)

    def test_write_perfetto_is_loadable_json(self, tmp_path):
        bus = EventBus()
        bus.sample(0.0, 3.0, "running")
        bus.emit(0.0, REBOOT)
        path = tmp_path / "trace.json"
        write_perfetto(str(path), bus)
        with open(path) as handle:
            trace = json.load(handle)
        validate_perfetto(trace)


class TestJsonl:
    def test_round_trip(self, tmp_path):
        events = [Event(0.1, REBOOT), Event(0.2, CHECKPOINT_OK, "words=20")]
        path = tmp_path / "events.jsonl"
        assert write_jsonl(str(path), events) == 2
        assert read_jsonl(str(path)) == events


# ----------------------------------------------------------------------
# Simulator integration.
# ----------------------------------------------------------------------
def _sim(program, obs=None):
    power = PowerSystem(
        capacitor=Capacitor(22e-6),
        harvester=SquareWaveHarvester(on_power_w=6e-3, period_s=0.02,
                                      duty=0.4),
    )
    return IntermittentSimulator(
        machine=Machine(program.linked),
        runtime=runtime_for(program),
        power=power,
        config=SimConfig(quantum=64, sleep_min_s=1e-3),
        obs=obs,
    )


class TestSimulatorIntegration:
    def test_run_publishes_events_and_metrics(self):
        obs = Observability.for_tracing()
        sim = _sim(compile_nvp(SRC), obs=obs)
        result = sim.run(0.15)
        assert obs.bus.count(COMPLETION) == result.completions > 0
        assert obs.bus.count(REBOOT) == result.reboots
        assert obs.bus.count(MONITOR_TRIP) > 0
        assert len(obs.bus.samples) > 0
        # The run's metrics travel inside the result.
        assert result.metrics["events{kind=completion}"] \
            == result.completions
        assert result.metrics["energy.harvested_j"] > 0
        assert result.metrics["energy.consumed_j{mode=active}"] > 0
        assert result.events[-1]["kind"] in EVENT_KINDS

    def test_event_kinds_are_known(self):
        obs = Observability.for_tracing()
        sim = _sim(compile_gecko(SRC, region_budget=20_000), obs=obs)
        sim.run(0.15)
        assert {e.kind for e in obs.bus.events} <= set(EVENT_KINDS)
        # MARK commits only exist under region-instrumented schemes.
        assert obs.bus.count(REGION_COMMIT) > 0

    def test_tracer_rides_the_bus(self):
        obs = Observability.for_tracing()
        tracer = Tracer(sample_period_s=2e-4).subscribe(obs.bus)
        sim = _sim(compile_nvp(SRC), obs=obs)
        result = sim.run(0.15)
        assert tracer.count("completion") == result.completions
        assert tracer.count("reboot") == result.reboots
        # Finer-grained bus kinds stay off the oscilloscope view.
        assert tracer.count(REGION_COMMIT) == 0
        assert len(tracer.samples) > 0

    def test_profiler_attribution(self):
        obs = Observability.for_profiling()
        sim = _sim(compile_nvp(SRC), obs=obs)
        sim.run(0.1)
        report = obs.profiler.as_dict()
        assert report["wall_s"]["machine.step"] > 0
        assert report["cycles"]["alu"] > 0
        assert report["cycles"]["ctrl"] > 0

    def test_no_obs_leaves_result_metrics_empty(self):
        result = _sim(compile_nvp(SRC)).run(0.05)
        assert result.metrics == {}
        assert result.events == []


# ----------------------------------------------------------------------
# SimResult serialization.
# ----------------------------------------------------------------------
class TestSimResultSerialization:
    def test_metrics_and_events_round_trip(self):
        obs = Observability.for_telemetry()
        sim = _sim(compile_nvp(SRC), obs=obs)
        result = sim.run(0.1)
        assert result.metrics
        clone = SimResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert clone == result

    def test_old_json_without_metrics_still_loads(self):
        result = _sim(compile_nvp(SRC)).run(0.05)
        data = result.to_dict()
        # A pre-observability result has neither key.
        del data["metrics"]
        del data["events"]
        clone = SimResult.from_dict(data)
        assert clone.metrics == {} and clone.events == []
        assert clone.completions == result.completions


# ----------------------------------------------------------------------
# Campaign telemetry.
# ----------------------------------------------------------------------
def _campaign_spec():
    return ExperimentSpec(
        name="obs-test",
        victim=VictimConfig(workload="crc16", scheme="nvp",
                            duration_s=0.02, quantum=64),
        attack=AttackSpec.tone(tx_dbm=35.0),
        path=PathSpec.remote(),
        sweep={"attack.freq_mhz": [20.0, 27.0]},
        telemetry=True,
    )


class TestCampaignTelemetry:
    def test_serial_and_parallel_fingerprints_identical(self):
        serial = CampaignRunner(workers=1).run(_campaign_spec())
        parallel = CampaignRunner(workers=2).run(_campaign_spec())
        assert serial.aggregate_metrics()
        assert serial.aggregate_metrics() == parallel.aggregate_metrics()
        assert serial.metrics_fingerprint() == parallel.metrics_fingerprint()

    def test_telemetry_off_means_no_metrics(self):
        spec = _campaign_spec()
        spec.telemetry = False
        campaign = CampaignRunner(workers=1).run(spec)
        assert campaign.aggregate_metrics() == {}

    def test_outcomes_carry_run_metrics(self):
        campaign = CampaignRunner(workers=1).run(_campaign_spec())
        for outcome in campaign.outcomes:
            assert outcome.result.metrics
            assert any(key.startswith("energy.")
                       for key in outcome.result.metrics)


# ----------------------------------------------------------------------
# Faultsim excerpts.
# ----------------------------------------------------------------------
class TestFaultsimExcerpts:
    def test_records_carry_event_excerpts(self):
        from repro.faultsim import FaultCampaignSpec, run_fault_campaign
        from repro.faultsim.explorer import fault_victim
        from repro.faultsim.models import CKPT_CORRUPT
        from repro.faultsim.report import VulnerabilityMap

        spec = FaultCampaignSpec(
            victim=fault_victim(workload="crc16", scheme="nvp",
                                duration_s=0.1),
            models=(CKPT_CORRUPT,), points=4, seed=7,
        )
        campaign = run_fault_campaign(spec)
        vmap = campaign.map
        assert all(record.events for record in vmap.records)
        kinds = {e["kind"] for r in vmap.records for e in r.events}
        assert kinds <= set(EVENT_KINDS)
        # Round-trip keeps the excerpts.
        clone = VulnerabilityMap.from_dict(
            json.loads(vmap.to_json()))
        assert clone.fingerprint() == vmap.fingerprint()
        assert clone.records[0].events == vmap.records[0].events
        for record, excerpt in vmap.failure_excerpts(last=3):
            assert 1 <= len(excerpt) <= 3
            assert excerpt == record.events[-len(excerpt):]


# ----------------------------------------------------------------------
# Disabled-path overhead.
# ----------------------------------------------------------------------
class TestDisabledOverhead:
    def test_unattached_machine_run_overhead_is_small(self):
        """Machine.run with no obs attached must stay near pre-obs cost.

        The guarded sites cost one ``is not None`` per step; the precise
        figure is tracked by benchmarks/bench_obs_overhead.py — here we
        assert a loose bound so CI noise cannot flake the suite.
        """
        from repro.workloads import source
        program = compile_nvp(source("crc16"))

        def best_of(machine_factory, repeats=5):
            best = float("inf")
            for _ in range(repeats):
                machine = machine_factory()
                start = time.perf_counter()
                machine.run(max_steps=10_000_000)
                best = min(best, time.perf_counter() - start)
                assert machine.halted
            return best

        plain = best_of(lambda: Machine(program.linked))

        def disabled():
            machine = Machine(program.linked)
            obs = Observability.disabled()
            machine.attach(obs=obs, profiler=maybe(obs.profiler))
            return machine

        attached = best_of(disabled)
        # Acceptance target is <3%; the test bound is loose on purpose.
        assert attached <= plain * 1.25

"""Whole-system simulator tests: duty cycling, attacks, integrity, metrics."""

import pytest

from repro import compile_nvp, compile_gecko, simulate_program
from repro.emi import AttackSchedule, EMISource, RemotePath, device
from repro.energy import (
    Capacitor,
    ConstantSupply,
    PowerSystem,
    SquareWaveHarvester,
)
from repro.runtime import (
    IntermittentSimulator,
    Machine,
    NVPRuntime,
    SimConfig,
    check_outputs,
    forward_progress_rate,
    progress_timeline,
    relative_throughput,
    run_to_completion,
    runtime_for,
)
from repro.workloads import expected_output, source

SRC = """
void main() {
    int digest = 0;
    for (int i = 0; i < 300; i = i + 1) {
        digest = (digest * 31 + i) % 997;
    }
    out(digest);
}
"""


def simulate(scheme="nvp", duration=0.05, power=None, attack=None, **kw):
    program = compile_nvp(SRC) if scheme == "nvp" else compile_gecko(SRC)
    return program, simulate_program(
        program, duration_s=duration, power=power, attack=attack, **kw
    )


class TestBenignOperation:
    def test_completions_accumulate(self):
        program, result = simulate()
        assert result.completions > 10
        assert result.final_state == "running"

    def test_every_completion_produces_golden_output(self):
        program, result = simulate()
        golden = run_to_completion(program.linked).committed_out
        check = check_outputs(result, golden)
        assert check.clean
        assert check.runs == result.completions

    def test_duty_cycling_under_weak_supply(self):
        power = PowerSystem(
            capacitor=Capacitor(22e-6),
            harvester=SquareWaveHarvester(on_power_w=6e-3, period_s=0.02,
                                          duty=0.4),
        )
        program, result = simulate(power=power, duration=0.2)
        assert result.brownouts > 0 or result.jit_checkpoints > 0
        assert result.reboots > 1
        assert result.completions > 0
        golden = run_to_completion(program.linked).committed_out
        assert check_outputs(result, golden).clean

    def test_gecko_benign_equivalence(self):
        power = PowerSystem(
            capacitor=Capacitor(22e-6),
            harvester=SquareWaveHarvester(on_power_w=6e-3, period_s=0.02,
                                          duty=0.4),
        )
        program, result = simulate("gecko", power=power, duration=0.2)
        golden = run_to_completion(program.linked).committed_out
        assert check_outputs(result, golden).clean
        assert result.attacks_detected == 0

    def test_timeline_recording(self):
        program = compile_nvp(SRC)
        result = simulate_program(
            program, duration_s=0.05,
            config=SimConfig(record_timeline=True, timeline_dt_s=0.01),
        )
        assert len(result.timeline) >= 4
        counts = [c for _, c in result.timeline]
        assert counts == sorted(counts)


class TestUnderAttack:
    def _attack_result(self, scheme="nvp", duration=0.05):
        profile = device("TI-MSP430FR5994")
        freq = profile.adc_curve.peak_frequency()
        return simulate(
            scheme, duration=duration,
            attack=AttackSchedule.always(EMISource(freq, 35)),
        )

    def test_resonant_attack_causes_dos(self):
        _, benign = simulate()
        _, attacked = self._attack_result()
        assert forward_progress_rate(attacked, benign) < 0.2
        assert attacked.jit_checkpoints + attacked.jit_checkpoint_failures > 5

    def test_off_resonance_attack_harmless(self):
        _, benign = simulate()
        program, result = simulate(
            attack=AttackSchedule.always(EMISource(300e6, 35))
        )
        assert forward_progress_rate(result, benign) > 0.9

    def test_gecko_detects_and_survives(self):
        _, benign = simulate("gecko")
        _, attacked = self._attack_result("gecko")
        assert attacked.attacks_detected >= 1
        assert relative_throughput(attacked, benign) > 0.5

    def test_attack_rf_charges_harvester(self):
        # The tone itself feeds the capacitor.
        power = PowerSystem(capacitor=Capacitor(4.7e-6),
                            harvester=ConstantSupply(0.0))
        program = compile_nvp(SRC)
        config = SimConfig()
        result = simulate_program(
            program, duration_s=0.05, power=power,
            attack=AttackSchedule.always(EMISource(300e6, 35)),  # off-peak
            config=config,
        )
        no_rf = PowerSystem(capacitor=Capacitor(4.7e-6),
                            harvester=ConstantSupply(0.0))
        silent = simulate_program(
            compile_nvp(SRC), duration_s=0.05, power=no_rf,
        )
        assert result.executed_cycles >= silent.executed_cycles


class TestMetrics:
    def test_progress_timeline_buckets(self):
        program = compile_nvp(SRC)
        result = simulate_program(program, duration_s=0.05)
        series = progress_timeline(result, bucket_s=0.01)
        assert sum(series) == result.completions

    def test_checkpoint_failure_rate_zero_without_checkpoints(self):
        program, result = simulate()
        assert result.checkpoint_failure_rate == 0.0

    def test_throughput_per_minute(self):
        program, result = simulate(duration=0.06)
        per_min = result.throughput_per_minute()
        assert per_min == pytest.approx(result.completions * 60 / result.duration_s,
                                        rel=0.01)


class TestProgramReset:
    def test_device_words_survive_app_restart(self):
        program = compile_gecko(SRC)
        machine = Machine(program.linked)
        sim = IntermittentSimulator(
            machine=machine, runtime=runtime_for(program),
            power=PowerSystem(),
        )
        result = sim.run(0.02)
        assert result.completions >= 2
        assert machine.read_word("__boots") >= 1  # preserved across resets

    def test_workload_outputs_under_simulation(self):
        program = compile_nvp(source("crc16"))
        result = simulate_program(program, duration_s=0.05)
        assert result.completions >= 1
        assert check_outputs(result, expected_output("crc16")).clean

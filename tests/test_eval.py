"""Evaluation-harness tests (fast configurations of the experiment code)."""

import pytest

from repro.eval import (
    SCENARIOS,
    VictimConfig,
    distance_grid,
    figure11,
    figure12,
    fmt_pct,
    forward_progress,
    frequency_sweep_mhz,
    gecko_is_unique,
    geomean,
    max_effective_distance,
    remote_tone,
    run_attack,
    sweep_device,
    table2,
    table3,
)


class TestCommon:
    def test_frequency_grid_shape(self):
        freqs = frequency_sweep_mhz(start=5, stop=20, step=5,
                                    sparse_to=100, sparse_step=40)
        assert freqs == [5, 10, 15, 20, 60, 100]

    def test_fmt_pct(self):
        assert fmt_pct(0.0411) == "4.1%"
        assert fmt_pct(0.0001) == "1e-02%"
        assert fmt_pct(0.0) == "0.0%"

    def test_geomean(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)
        assert geomean([]) == 0.0

    def test_victim_compiles_and_runs(self):
        victim = VictimConfig(duration_s=0.01)
        result = run_attack(victim)
        assert result.executed_cycles > 0

    def test_forward_progress_silent_is_full(self):
        victim = VictimConfig(duration_s=0.01)
        from repro.emi import AttackSchedule
        rate, _, _ = forward_progress(victim, AttackSchedule.silent())
        assert rate > 0.95


class TestSweeps:
    def test_resonant_tone_bites(self):
        sweep = sweep_device("TI-MSP430FR5994", "adc",
                             freqs_mhz=[27, 300], duration_s=0.02)
        by_freq = {p.freq_mhz: p.progress_rate for p in sweep.points}
        assert by_freq[27] < 0.3
        assert by_freq[300] > 0.9
        assert sweep.min_rate_freq_mhz == 27

    def test_dpi_p2_stronger_than_p1(self):
        p1 = sweep_device("TI-MSP430FR5994", "adc", injection="P1",
                          freqs_mhz=[27], duration_s=0.02)
        p2 = sweep_device("TI-MSP430FR5994", "adc", injection="P2",
                          freqs_mhz=[27], duration_s=0.02)
        assert p2.min_rate <= p1.min_rate

    def test_table_one_empty_grid_keeps_only_resonances(self, monkeypatch):
        from repro.emi import device
        from repro.eval import sweeps

        asked = []

        class Sweep:
            min_rate = min_rate_freq_mhz = 0.0
            max_failure_rate = max_failure_freq_mhz = 0.0

        def fake_sweep(name, monitor, freqs_mhz=None, **kwargs):
            asked.append((name, monitor, list(freqs_mhz)))
            return Sweep()

        monkeypatch.setattr(sweeps, "sweep_device", fake_sweep)
        sweeps.table_one(freqs_mhz=[])
        name, monitor, freqs = asked[0]
        resonances = device(name).adc_curve.resonant_frequencies()
        assert monitor == "adc"
        assert freqs == sorted({f / 1e6 for f in resonances})


class TestOutageRig:
    """The adversary and Fig. 13 victims are the fault rig plus overrides."""

    @staticmethod
    def _rig(**fields):
        base = dict(capacitance=22e-6, supply_w=None, outage_period_s=0.05,
                    outage_duty=0.4, outage_power_w=8e-3, sleep_min_s=1e-3,
                    quantum=64)
        return VictimConfig(**{**base, **fields})

    def test_adversary_victim(self):
        from repro.adversary import adversary_victim

        assert adversary_victim() == self._rig(
            workload="blink", scheme="nvp", duration_s=0.05,
            region_budget=20_000)
        assert adversary_victim("crc16", "gecko", 0.1, region_budget=900,
                                backend="threaded") == self._rig(
            workload="crc16", scheme="gecko", duration_s=0.1,
            region_budget=900, backend="threaded")

    def test_detection_victim(self):
        from repro.eval.detection import detection_spec

        assert detection_spec(["a-none"], ["gecko", "nvp"]).victim \
            == self._rig(workload="blink", scheme="gecko", duration_s=0.6,
                         region_budget=20_000)
        spec = detection_spec(["a-none"], ["nvp"], workload="crc16",
                              total_s=0.3, outage_period_s=0.1,
                              outage_duty=0.5, capacitance_f=47e-6,
                              device_name="STM32L552ZE",
                              region_budget=5000)
        assert spec.victim == self._rig(
            device_name="STM32L552ZE", workload="crc16", scheme="nvp",
            duration_s=0.3, outage_period_s=0.1, outage_duty=0.5,
            capacitance=47e-6, region_budget=5000)

    def test_fault_victim_keeps_its_homes(self):
        from repro import faultsim
        from repro.eval import common
        from repro.faultsim import explorer

        assert faultsim.fault_victim is common.fault_victim
        assert explorer.fault_victim is common.fault_victim


class TestDistance:
    def test_grid_and_reach(self):
        points = distance_grid(distances_m=[1.0, 9.0], powers_dbm=[0, 35],
                               duration_s=0.02)
        assert len(points) == 4
        assert max_effective_distance(points, 35) >= \
            max_effective_distance(points, 0)


class TestOverheadHarness:
    def test_figure11_single_workload(self):
        rows = figure11(workloads=["crc16"])
        row = rows[0]
        assert row.normalized("nvp") == 1.0
        assert row.normalized("ratchet") > row.normalized("gecko")

    def test_figure12_single_workload(self):
        row = figure12(workloads=["bitcnt"])[0]
        assert row.pruned <= row.unpruned
        assert 0.0 <= row.reduction <= 1.0

    def test_table3_single_workload(self):
        row = table3(workloads=["dijkstra"])[0]
        assert row.checkpoint_stores >= 1
        assert row.regions >= 1
        assert row.nvp_code_size < row.code_size + row.lookup_table_size


class TestComparisonTable:
    def test_eight_rows_gecko_unique(self):
        assert len(table2()) == 8
        assert gecko_is_unique()

    def test_scenarios_defined(self):
        assert "a-none" in SCENARIOS
        assert len(SCENARIOS) >= 6

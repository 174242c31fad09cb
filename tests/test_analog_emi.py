"""Analog monitor and EMI-channel tests."""

import math

import pytest

from repro.analog import ADCMonitor, ComparatorMonitor, MonitorEvent, make_monitor
from repro.emi import (
    AttackSchedule,
    AttackWindow,
    DEVICES,
    DPIPath,
    EMISource,
    RemotePath,
    SusceptibilityCurve,
    device,
    device_names,
    induced_waveform_sample,
)


class TestADCMonitor:
    def test_quantisation_resolution(self):
        monitor = ADCMonitor()
        value = monitor.quantise(1.80001)
        assert abs(value - 1.8) < 3.6 / 1023

    def test_no_attack_no_event_when_healthy(self):
        monitor = ADCMonitor()
        event = monitor.sample(3.3, 0.0, 0.0, 0.0, powered=True)
        assert event is MonitorEvent.NONE

    def test_genuine_low_voltage_triggers_checkpoint(self):
        monitor = ADCMonitor()
        event = monitor.sample(2.4, 0.0, 0.0, 0.0, powered=True)
        assert event is MonitorEvent.CHECKPOINT

    def test_genuine_recovery_triggers_wake(self):
        monitor = ADCMonitor()
        event = monitor.sample(3.1, 0.0, 0.0, 0.0, powered=False)
        assert event is MonitorEvent.WAKE

    def test_emi_induces_false_checkpoint_sometimes(self):
        monitor = ADCMonitor()
        events = [
            monitor.sample(3.3, 2.0, 27e6, t * 1e-5, powered=True)
            for t in range(200)
        ]
        assert MonitorEvent.CHECKPOINT in events
        assert MonitorEvent.NONE in events  # sampled sine: not every time

    def test_emi_spoofs_wake_at_low_voltage(self):
        monitor = ADCMonitor()
        events = [
            monitor.sample(2.4, 2.0, 27e6, t * 1e-5, powered=False)
            for t in range(200)
        ]
        assert MonitorEvent.WAKE in events

    def test_not_continuous(self):
        assert not ADCMonitor().continuous


class TestComparatorMonitor:
    def test_swing_trips_immediately(self):
        monitor = ComparatorMonitor()
        event = monitor.sample(3.3, 1.0, 5e6, 0.0, powered=True)
        assert event is MonitorEvent.CHECKPOINT

    def test_small_swing_within_hysteresis_ignored(self):
        monitor = ComparatorMonitor()
        event = monitor.sample(3.3, 0.02, 5e6, 0.0, powered=True)
        assert event is MonitorEvent.NONE

    def test_continuous_flag(self):
        assert ComparatorMonitor().continuous

    def test_factory(self):
        assert isinstance(make_monitor("adc", 2.6, 3.0), ADCMonitor)
        assert isinstance(make_monitor("comp", 2.6, 3.0), ComparatorMonitor)
        with pytest.raises(ValueError):
            make_monitor("dual", 2.6, 3.0)


class TestWaveform:
    def test_deterministic(self):
        a = induced_waveform_sample(1.0, 27e6, 0.001, 5)
        b = induced_waveform_sample(1.0, 27e6, 0.001, 5)
        assert a == b

    def test_amplitude_bound(self):
        for index in range(50):
            sample = induced_waveform_sample(1.5, 27e6, 0.0, index)
            assert -1.5 <= sample <= 1.5

    def test_zero_amplitude(self):
        assert induced_waveform_sample(0.0, 27e6, 0.0, 1) == 0.0


class TestSusceptibility:
    def test_peak_at_resonance(self):
        curve = SusceptibilityCurve(resonances=((27e6, 2.0, 2e6),))
        assert curve.gain(27e6) > curve.gain(40e6)
        assert curve.gain(27e6) > curve.gain(15e6)

    def test_rolloff_suppresses_high_frequencies(self):
        curve = SusceptibilityCurve(resonances=((200e6, 5.0, 2e6),))
        assert curve.gain(200e6) < 5.0 * 0.2

    def test_induced_amplitude_scales_with_sqrt_power(self):
        curve = SusceptibilityCurve(resonances=((27e6, 2.0, 2e6),))
        one = curve.induced_amplitude(27e6, 1.0)
        four = curve.induced_amplitude(27e6, 4.0)
        assert four == pytest.approx(2 * one)

    def test_peak_frequency(self):
        curve = SusceptibilityCurve(
            resonances=((10e6, 1.0, 1e6), (27e6, 3.0, 1e6))
        )
        assert curve.peak_frequency() == 27e6


class TestDevices:
    def test_nine_platforms(self):
        assert len(device_names()) == 9

    def test_all_have_paper_reference(self):
        for name in device_names():
            assert device(name).paper is not None

    def test_comparator_boards(self):
        fr5994 = device("TI-MSP430FR5994")
        assert "comp" in fr5994.monitors
        assert fr5994.comp_curve is not None
        fr2311 = device("TI-MSP430FR2311")
        with pytest.raises(KeyError):
            fr2311.curve_for("comp")

    def test_msp430_family_resonates_near_27mhz(self):
        for name in device_names():
            if "MSP430F" in name and name != "TI-MSP430F5529":
                peak = device(name).adc_curve.peak_frequency()
                assert 20e6 <= peak <= 35e6, name

    def test_stm32_resonates_lower(self):
        peak = device("STM32L552ZE").adc_curve.peak_frequency()
        assert 15e6 <= peak <= 20e6


class TestPropagation:
    def test_remote_path_loss_with_distance(self):
        source = EMISource(27e6, 35)
        near = RemotePath(distance_m=1.0).received_power_w(source)
        far = RemotePath(distance_m=5.0).received_power_w(source)
        assert near > far

    def test_walls_attenuate(self):
        source = EMISource(27e6, 35)
        open_air = RemotePath(distance_m=5.0, walls=0).received_power_w(source)
        one_wall = RemotePath(distance_m=5.0, walls=1).received_power_w(source)
        assert one_wall == pytest.approx(open_air * 10 ** -0.6)

    def test_dpi_points(self):
        source = EMISource(27e6, 20)
        p1 = DPIPath("P1").received_power_w(source)
        p2 = DPIPath("P2").received_power_w(source)
        assert p2 > p1
        with pytest.raises(ValueError):
            DPIPath("P3")

    def test_dpi_flat_in_frequency(self):
        a = DPIPath("P2").received_power_w(EMISource(5e6, 20))
        b = DPIPath("P2").received_power_w(EMISource(500e6, 20))
        assert a == b


class TestAttackSchedule:
    def test_always(self):
        schedule = AttackSchedule.always(EMISource(27e6, 35))
        assert schedule.source_at(0.0) is not None
        assert schedule.source_at(1e6) is not None

    def test_silent(self):
        schedule = AttackSchedule.silent()
        assert schedule.source_at(0.0) is None
        assert not schedule.ever_active

    def test_windows(self):
        schedule = AttackSchedule.from_intervals(
            [(1.0, 2.0), (3.0, 4.0)], EMISource(27e6, 35)
        )
        assert schedule.source_at(0.5) is None
        assert schedule.source_at(1.5) is not None
        assert schedule.source_at(2.5) is None
        assert schedule.source_at(3.5) is not None

    def test_source_str(self):
        assert str(EMISource(27e6, 35)) == "27MHz@35dBm"
        assert "GHz" in str(EMISource(2.4e9, 10))

    def test_unsorted_construction_is_sorted(self):
        source = EMISource(27e6, 35)
        schedule = AttackSchedule(
            [AttackWindow(3.0, 4.0, source), AttackWindow(1.0, 2.0, source)])
        assert [w.start_s for w in schedule.windows] == [1.0, 3.0]
        assert schedule.source_at(1.5) is not None
        assert schedule.source_at(2.5) is None
        assert schedule.source_at(3.5) is not None

    def test_add_keeps_sorted_lookup_consistent(self):
        source = EMISource(27e6, 35)
        schedule = AttackSchedule.from_intervals([(4.0, 5.0)], source)
        schedule.add(1.0, 2.0, source)
        assert schedule.source_at(1.5) is not None
        assert schedule.source_at(3.0) is None
        assert schedule.source_at(4.5) is not None

    def test_overlapping_windows_latest_start_wins(self):
        outer, burst = EMISource(27e6, 35), EMISource(100e6, 10)
        schedule = AttackSchedule.always(outer)
        schedule.add(5.0, 6.0, burst)
        assert schedule.source_at(5.5) is burst
        # Outside the burst the outer window is still found.
        assert schedule.source_at(7.0) is outer

    def test_lookup_is_logarithmic_not_linear(self):
        """source_at on a 10k-window schedule must bisect, not scan:
        count active_at probes across many lookups."""
        calls = {"n": 0}

        class CountingWindow(AttackWindow):
            def active_at(self, t):
                calls["n"] += 1
                return super().active_at(t)

        source = EMISource(27e6, 35)
        windows = [CountingWindow(i * 1.0, i * 1.0 + 0.5, source)
                   for i in range(10_000)]
        schedule = AttackSchedule(list(windows))
        for i in range(100):
            t = (i * 97) % 10_000 + 0.25
            assert schedule.source_at(t) is source
        assert schedule.source_at(10_001.0) is None
        # A linear scan would probe ~500k windows here; bisect probes one
        # (plus the bounded leftward check) per lookup.
        assert calls["n"] <= 300


class TestWindowValidation:
    def test_inverted_window_rejected(self):
        source = EMISource(27e6, 35)
        with pytest.raises(ValueError):
            AttackWindow(2.0, 1.0, source)
        with pytest.raises(ValueError):
            AttackSchedule.from_intervals([(2.0, 1.0)], source)
        schedule = AttackSchedule.silent()
        with pytest.raises(ValueError):
            schedule.add(5.0, 4.0, source)

    def test_zero_length_window_rejected(self):
        source = EMISource(27e6, 35)
        with pytest.raises(ValueError):
            AttackWindow(1.0, 1.0, source)
        with pytest.raises(ValueError):
            AttackSchedule.from_intervals([(1.0, 1.0)], source)

    def test_nan_window_rejected(self):
        source = EMISource(27e6, 35)
        for start, end in [(math.nan, 1.0), (0.0, math.nan),
                           (math.nan, math.nan)]:
            with pytest.raises(ValueError):
                AttackWindow(start, end, source)

    def test_valid_windows_still_construct(self):
        source = EMISource(27e6, 35)
        assert AttackWindow(0.0, math.inf, source).active_at(1e9)
        schedule = AttackSchedule.from_intervals([(0.0, 1.0)], source)
        schedule.add(2.0, 3.0, source)
        assert schedule.source_at(2.5) is source


class TestScheduleSerialization:
    def test_source_round_trip(self):
        source = EMISource(27.5e6, 33.0)
        clone = EMISource.from_dict(source.to_dict())
        assert clone.frequency_hz == source.frequency_hz
        assert clone.power_dbm == source.power_dbm

    def test_schedule_round_trip(self):
        schedule = AttackSchedule.from_intervals(
            [(1.0, 2.0), (3.0, 4.0)], EMISource(27e6, 35))
        clone = AttackSchedule.from_dict(schedule.to_dict())
        assert [(w.start_s, w.end_s) for w in clone.windows] \
            == [(w.start_s, w.end_s) for w in schedule.windows]
        assert clone.source_at(1.5).frequency_hz == 27e6
        assert clone.source_at(2.5) is None

    def test_always_round_trips_through_null_end(self):
        schedule = AttackSchedule.always(EMISource(27e6, 35))
        data = schedule.to_dict()
        assert data["windows"][0]["end_s"] is None
        clone = AttackSchedule.from_dict(data)
        assert clone.source_at(1e9) is not None

    def test_round_trip_preserves_latest_start_wins(self):
        schedule = AttackSchedule.always(EMISource(27e6, 35))
        schedule.add(5.0, 6.0, EMISource(100e6, 10))
        clone = AttackSchedule.from_dict(schedule.to_dict())
        assert clone.source_at(5.5).frequency_hz == 100e6
        assert clone.source_at(7.0).frequency_hz == 27e6

    def test_silent_round_trip(self):
        clone = AttackSchedule.from_dict(AttackSchedule.silent().to_dict())
        assert not clone.ever_active

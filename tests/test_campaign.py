"""Campaign engine tests: grids, caches, parallel/serial equivalence."""

import json
import pickle

import pytest

from repro.emi import AttackSchedule
from repro.eval import (
    AttackSpec,
    CampaignError,
    CampaignRunner,
    ExperimentSpec,
    PathSpec,
    VictimConfig,
    forward_progress,
    remote_tone,
    run_attack,
    run_campaign,
)
from repro.runtime import SimResult

#: Fields that must match bit-for-bit between serial and parallel runs.
IDENTITY_FIELDS = ("executed_cycles", "completions", "reboots", "brownouts",
                   "jit_checkpoints", "jit_checkpoint_failures",
                   "attacks_detected", "final_state")


def _grid_spec():
    return ExperimentSpec(
        name="test-grid",
        victim=VictimConfig(duration_s=0.01),
        attack=AttackSpec.tone(tx_dbm=35.0),
        sweep={"attack.freq_mhz": [27, 35, 300],
               "victim.scheme": ["nvp", "gecko"]},
    )


class TestExpansion:
    def test_grid_is_cartesian_product_in_axis_order(self):
        grid = _grid_spec().expand()
        assert len(grid) == 6
        params = [p for p, _ in grid]
        assert params[0] == {"attack.freq_mhz": 27, "victim.scheme": "nvp"}
        assert params[1] == {"attack.freq_mhz": 27, "victim.scheme": "gecko"}
        assert params[-1] == {"attack.freq_mhz": 300, "victim.scheme": "gecko"}

    def test_axis_targets_resolve(self):
        spec = ExperimentSpec(
            victim=VictimConfig(duration_s=0.01),
            sweep={"victim.capacitance": [1e-3],
                   "path.distance_m": [2.0],
                   "sim.quantum": [32],
                   "duration_s": [0.02]},
        )
        (_, run), = spec.expand()
        assert run.victim.capacitance == 1e-3
        assert run.path.distance_m == 2.0
        assert dict(run.sim_overrides)["quantum"] == 32
        assert run.duration == 0.02

    def test_unknown_axis_rejected(self):
        spec = ExperimentSpec(sweep={"nonsense.axis": [1]})
        with pytest.raises(CampaignError):
            spec.expand()

    def test_runspec_is_picklable(self):
        for _, run in _grid_spec().expand():
            assert pickle.loads(pickle.dumps(run)) == run

    def test_every_axis_kind_expands_to_the_pinned_digests(self):
        """Each point's ``run_digest``, its baseline key and the run its
        silent baseline executes, over a sweep that uses every axis kind
        on a spec that sets every run-level field.  The literals were
        recorded with the earlier hand-written resolver and baseline key,
        before both read ``RunSpec``'s fields by name."""
        from repro.emi import RemotePath
        from repro.eval import ChaosSpec
        from repro.faultsim.models import FaultSpec
        from repro.store import content_digest, run_digest

        spec = ExperimentSpec(
            name="every-axis",
            victim=VictimConfig(duration_s=0.01),
            attack=AttackSpec.tone(tx_dbm=35.0),
            path=PathSpec.remote(distance_m=4.0),
            duration_s=0.02,
            sim_overrides={"quantum": 32},
            mode="batch", target_completions=2, batch_window_s=0.01,
            max_sim_s=0.5, telemetry=True, backend="threaded",
            sweep={
                "victim": [VictimConfig(duration_s=0.01),
                           VictimConfig(workload="crc16", duration_s=0.03)],
                "victim.scheme": ["gecko"],
                "backend": ["interpreter", "threaded"],
                "attack": [AttackSpec.tone(tx_dbm=30.0),
                           AttackSpec.bursts(((0.1, 0.4),), freq_mhz=27.0)],
                "attack.freq_mhz": [35.0],
                "path": [PathSpec.remote(distance_m=2.0), PathSpec.dpi("P1")],
                "path.walls": [2],
                "sim.sleep_min_s": [1e-3],
                "duration_s": [None, 0.05],
                "fault": [None, FaultSpec(model="reg_flip", target=4, bit=3,
                                          trigger_step=100)],
                "chaos": [None, ChaosSpec("raise")],
                "*": [{"attack.tx_dbm": 20.0,
                       "path": RemotePath(distance_m=3.0)},
                      {"victim.capacitance": 2e-3, "sim.quantum": 16,
                       "duration_s": 0.04}],
            })
        grid = [run for _, run in spec.expand()]
        keys = [run.baseline_key() for run in grid]
        assert len(grid) == 256
        assert len(set(keys)) == 16
        assert content_digest([run_digest(run) for run in grid]) == \
            "497d8eec68d5b3d8dd6a46a175b2c9c5d17abece2f7a5991721e0e1f5bbfabf6"
        assert content_digest([content_digest(key) for key in keys]) == \
            "e35f13948761fe0be74eb3e04106579241837ead3579b87691d7de6da8c6bbda"
        assert content_digest([run_digest(run.silenced())
                               for run in grid]) == \
            "34231e80f0fbba9d04bda501c07277c7c48281a76c5c93c5881d10d74a906b78"


class TestCaches:
    def test_compile_once_per_scheme(self):
        campaign = CampaignRunner().run(_grid_spec())
        assert campaign.stats.compiles == 2          # nvp + gecko
        assert campaign.stats.compile_cache_hits == 4

    def test_baseline_once_per_victim(self):
        campaign = CampaignRunner().run(ExperimentSpec(
            victim=VictimConfig(duration_s=0.01),
            attack=AttackSpec.tone(tx_dbm=35.0),
            sweep={"attack.freq_mhz": [20, 27, 35, 300]},
        ))
        assert campaign.stats.baseline_runs == 1
        assert campaign.stats.baseline_cache_hits == 3

    def test_compile_cache_persists_across_campaigns(self):
        runner = CampaignRunner()
        first = runner.run(_grid_spec())
        second = runner.run(_grid_spec())
        assert first.stats.compiles == 2
        assert second.stats.compiles == 0
        assert second.stats.compile_cache_hits == 6


class TestParallel:
    def test_parallel_matches_serial_bit_for_bit(self):
        spec = _grid_spec()
        serial = CampaignRunner(workers=1).run(spec)
        parallel = CampaignRunner(workers=4).run(spec)
        assert parallel.stats.workers == 4
        assert serial.rates() == parallel.rates()
        for ser, par in zip(serial.results(), parallel.results()):
            for name in IDENTITY_FIELDS:
                assert getattr(ser, name) == getattr(par, name), name

    def test_pool_works_under_spawn_start_method(self):
        """The compile cache must travel pickled as the executor's worker
        context — no silent reliance on fork's copy-on-write inheritance."""
        spec = ExperimentSpec(
            name="test-spawn",
            victim=VictimConfig(duration_s=0.01),
            attack=AttackSpec.tone(tx_dbm=35.0),
            sweep={"attack.freq_mhz": [27, 35]},
        )
        serial = CampaignRunner(workers=1).run(spec)
        spawned = CampaignRunner(workers=2, start_method="spawn").run(spec)
        assert spawned.stats.failures == 0
        assert spawned.metrics_fingerprint() == serial.metrics_fingerprint()

    def test_failure_accounting(self):
        spec = ExperimentSpec(
            victim=VictimConfig(duration_s=0.01),
            attack=AttackSpec.tone(freq_mhz=27, tx_dbm=35.0),
            sim_overrides={"max_slices": 1},   # guaranteed SimulationError
            baseline=False,
        )
        for workers in (1, 2):
            campaign = CampaignRunner(workers=workers).run(spec)
            outcome = campaign.outcomes[0]
            assert outcome.result is None
            assert not outcome.ok
            assert "SimulationError" in outcome.error
            assert campaign.stats.failures == 1


class TestOutcomes:
    def test_rates_match_forward_progress(self):
        victim = VictimConfig(duration_s=0.01)
        campaign = run_campaign(ExperimentSpec(
            victim=victim,
            attack=AttackSpec.tone(freq_mhz=27, tx_dbm=35.0),
        ))
        rate, attacked, baseline = forward_progress(victim, remote_tone(27e6))
        outcome = campaign.outcomes[0]
        assert outcome.progress_rate == pytest.approx(rate)
        assert outcome.result.executed_cycles == attacked.executed_cycles
        assert outcome.baseline.executed_cycles == baseline.executed_cycles

    def test_raw_attack_schedule_passes_through(self):
        victim = VictimConfig(duration_s=0.01)
        campaign = run_campaign(ExperimentSpec(
            victim=victim, attack=remote_tone(27e6), baseline=False,
        ))
        direct = run_attack(victim, remote_tone(27e6))
        assert campaign.outcomes[0].result.executed_cycles \
            == direct.executed_cycles

    def test_json_round_trip(self):
        campaign = CampaignRunner(workers=2).run(_grid_spec())
        data = json.loads(campaign.to_json())
        assert data["name"] == "test-grid"
        assert len(data["outcomes"]) == 6
        restored = SimResult.from_dict(data["outcomes"][0]["result"])
        assert restored == campaign.outcomes[0].result

    def test_timing_recorded(self):
        campaign = CampaignRunner().run(ExperimentSpec(
            victim=VictimConfig(duration_s=0.01), baseline=False,
        ))
        assert campaign.outcomes[0].elapsed_s > 0
        assert campaign.stats.wall_time_s > 0


class TestSimResultDicts:
    def test_round_trip_equality(self):
        result = run_attack(VictimConfig(duration_s=0.01), remote_tone(27e6))
        data = json.loads(json.dumps(result.to_dict()))
        assert SimResult.from_dict(data) == result

    def test_extra_keys_ignored(self):
        data = SimResult().to_dict()
        data["not_a_field"] = 1
        assert SimResult.from_dict(data) == SimResult()


class TestVictimConfigAPI:
    def test_with_overrides_returns_modified_copy(self):
        victim = VictimConfig()
        other = victim.with_overrides(scheme="gecko", capacitance=2e-3)
        assert victim.scheme == "nvp" and other.scheme == "gecko"
        assert other.capacitance == 2e-3

    def test_cache_key_stable_and_sensitive(self):
        victim = VictimConfig()
        assert victim.cache_key() == VictimConfig().cache_key()
        assert victim.cache_key() \
            != victim.with_overrides(capacitance=2e-3).cache_key()
        hash(victim.cache_key())  # usable as a dict key

    def test_compile_key_ignores_power_setup(self):
        victim = VictimConfig()
        assert victim.compile_key() \
            == victim.with_overrides(capacitance=9e-3).compile_key()
        assert victim.compile_key() \
            != victim.with_overrides(scheme="gecko").compile_key()

    def test_compile_key_nulls_budget_for_non_gecko(self):
        nvp = VictimConfig(scheme="nvp", region_budget=123)
        assert nvp.compile_key() == VictimConfig(scheme="nvp").compile_key()
        gecko = VictimConfig(scheme="gecko", region_budget=123)
        assert gecko.compile_key() \
            != VictimConfig(scheme="gecko").compile_key()


class TestWrappers:
    def test_run_attack_reraises_simulation_errors(self):
        from repro.errors import SimulationError
        from repro.runtime import SimConfig
        with pytest.raises(SimulationError):
            run_attack(VictimConfig(duration_s=0.01),
                       remote_tone(27e6), config=SimConfig(max_slices=1))

    def test_silent_attack_spec_equals_silent_schedule(self):
        victim = VictimConfig(duration_s=0.01)
        via_spec = run_campaign(ExperimentSpec(
            victim=victim, attack=AttackSpec.silent(), baseline=False,
        )).outcomes[0].result
        via_schedule = run_attack(victim, AttackSchedule.silent())
        assert via_spec.executed_cycles == via_schedule.executed_cycles

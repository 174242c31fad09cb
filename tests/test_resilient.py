"""Resilient execution tests: taxonomy, retries, crash/timeout recovery,
journal resume, chaos drills, and the wiring into adversary/faultsim.

The executor-level tests drive :class:`ResilientExecutor` with cheap
module-level chaos tasks (picklable under both ``fork`` and ``spawn``);
the campaign-level tests inject :class:`ChaosSpec` drills into real grid
points and assert the sweep degrades instead of dying.
"""

import json

import pytest

from repro.errors import InvariantViolation
from repro.eval import (
    AttackSpec,
    BUDGET_EXCEEDED,
    CampaignError,
    CampaignRunner,
    ChaosSpec,
    ExperimentSpec,
    INVARIANT_VIOLATION,
    RETRIED_OK,
    ResilienceError,
    ResilientExecutor,
    RetryPolicy,
    RunJournal,
    SIM_ERROR,
    TIMEOUT,
    VictimConfig,
    WORKER_CRASH,
)
from repro.eval.resilient import ExecStats


# ----------------------------------------------------------------------
# Chaos task functions (module-level: must pickle for pool dispatch).
# ----------------------------------------------------------------------
def _task(_context, payload):
    """Payload is (chaos_or_None, value): trip the drill, return value."""
    chaos, value = payload
    if chaos is not None:
        chaos.trip()
    return value * 2


def _tasks(*payloads):
    return [(index, payload) for index, payload in enumerate(payloads)]


def _run(payloads, workers=1, policy=None, stats=None, **kwargs):
    executor = ResilientExecutor(_task, workers=workers, policy=policy,
                                 stats=stats, **kwargs)
    return executor.run(_tasks(*payloads))


class TestTaxonomy:
    def test_sim_error_carries_traceback_and_exception(self):
        stats = ExecStats()
        (result,), = [_run([(ChaosSpec("raise"), 1)], stats=stats)]
        assert not result.ok
        assert result.error_kind == SIM_ERROR
        assert "ResilienceError" in result.error
        assert "chaos: injected failure" in result.traceback
        assert isinstance(result.exception, ResilienceError)
        assert result.attempts == 1

    def test_pool_sim_error_has_traceback_tail_not_exception(self):
        results = _run([(ChaosSpec("raise"), 1), (None, 2)], workers=2)
        failed, healthy = results
        assert failed.error_kind == SIM_ERROR
        assert "ResilienceError" in failed.traceback
        assert failed.exception is None       # died with the worker frame
        assert healthy.ok and healthy.result == 4

    def test_unknown_chaos_kind_rejected(self):
        with pytest.raises(ResilienceError):
            ChaosSpec("explode")


class TestRetries:
    def test_serial_retry_until_success(self, tmp_path):
        chaos = ChaosSpec("raise", arm=1, latch=str(tmp_path / "latch"))
        stats = ExecStats()
        (result,) = _run([(chaos, 5)], policy=RetryPolicy(retries=2),
                         stats=stats)
        assert result.ok and result.result == 10
        assert result.attempts == 2
        assert result.error_kind == RETRIED_OK
        assert stats.retries == 1

    def test_serial_retry_exhaustion(self):
        stats = ExecStats()
        (result,) = _run([(ChaosSpec("raise"), 1)],
                         policy=RetryPolicy(retries=2, backoff_s=0.001),
                         stats=stats)
        assert not result.ok
        assert result.error_kind == SIM_ERROR
        assert result.attempts == 3           # 1 initial + 2 retries
        assert stats.retries == 2

    def test_backoff_is_seeded_and_jittered(self):
        policy = RetryPolicy(backoff_s=0.1, backoff_factor=2.0, seed=7)
        first = policy.delay_s(index=3, attempt=1)
        assert first == policy.delay_s(index=3, attempt=1)  # reproducible
        assert 0.1 <= first <= 0.15                         # jitter <= 50%
        assert policy.delay_s(3, 2) > policy.delay_s(3, 1) / 2  # grows
        assert policy.delay_s(4, 1) != first                # per-run jitter

    def test_budget_exceeded_tags_remaining_runs(self):
        stats = ExecStats()
        results = _run([(None, 1), (None, 2)],
                       policy=RetryPolicy(max_total_s=0.0), stats=stats)
        assert all(r.error_kind == BUDGET_EXCEEDED for r in results)
        assert stats.budget_exceeded == 2


def _oracle_task(_context, payload):
    """Violate an invariant on odd payloads, succeed on even ones."""
    if payload % 2:
        raise InvariantViolation(f"torn state on case {payload}")
    return payload * 2


class TestInvariantViolations:
    def test_serial_violation_kind_and_no_retry(self):
        stats = ExecStats()
        executor = ResilientExecutor(_oracle_task,
                                     policy=RetryPolicy(retries=3),
                                     stats=stats)
        bad, good = executor.run([(0, 1), (1, 2)])
        assert not bad.ok
        assert bad.error_kind == INVARIANT_VIOLATION
        assert "torn state" in bad.error
        # A violation is a deterministic finding: retrying could only
        # mask it, so the retry budget must stay untouched.
        assert bad.attempts == 1
        assert stats.retries == 0
        assert good.ok and good.result == 4

    def test_pool_violation_kind_and_no_retry(self):
        stats = ExecStats()
        executor = ResilientExecutor(_oracle_task, workers=2,
                                     policy=RetryPolicy(retries=3),
                                     stats=stats)
        bad, good = executor.run([(0, 3), (1, 4)])
        assert bad.error_kind == INVARIANT_VIOLATION
        assert bad.attempts == 1
        assert "InvariantViolation" in bad.traceback
        assert stats.retries == 0
        assert good.ok and good.result == 8

    def test_plain_errors_still_retry(self, tmp_path):
        chaos = ChaosSpec("raise", arm=1, latch=str(tmp_path / "latch"))
        (result,) = _run([(chaos, 5)], policy=RetryPolicy(retries=2))
        assert result.ok and result.error_kind == RETRIED_OK


class TestCrashRecovery:
    def test_worker_crash_detected_and_tagged(self):
        stats = ExecStats()
        results = _run([(ChaosSpec("crash"), 1), (None, 2), (None, 3)],
                       workers=2, stats=stats)
        crashed, a, b = results
        assert crashed.error_kind == WORKER_CRASH
        assert "died" in crashed.error
        assert a.ok and a.result == 4
        assert b.ok and b.result == 6
        assert stats.worker_crashes >= 1
        assert stats.worker_restarts >= 1

    def test_crash_retried_until_success(self, tmp_path):
        chaos = ChaosSpec("crash", arm=1, latch=str(tmp_path / "latch"))
        stats = ExecStats()
        results = _run([(chaos, 5), (None, 1)], workers=2,
                       policy=RetryPolicy(retries=2, backoff_s=0.001),
                       stats=stats)
        revived, healthy = results
        assert revived.ok and revived.result == 10
        assert revived.error_kind == RETRIED_OK
        assert revived.attempts >= 2
        assert healthy.ok
        assert stats.worker_crashes >= 1


class TestTimeouts:
    def test_hung_run_killed_others_complete(self):
        stats = ExecStats()
        results = _run([(ChaosSpec("hang", hang_s=60.0), 1),
                        (None, 2), (None, 3)],
                       workers=2, policy=RetryPolicy(timeout_s=1.0),
                       stats=stats)
        hung, a, b = results
        assert hung.error_kind == TIMEOUT
        assert "wall-clock" in hung.error
        assert a.ok and b.ok
        assert stats.timeouts == 1
        assert stats.worker_restarts >= 2     # pool torn down + respawned

    def test_timeout_then_retry_succeeds(self, tmp_path):
        chaos = ChaosSpec("hang", arm=1, hang_s=60.0,
                          latch=str(tmp_path / "latch"))
        stats = ExecStats()
        results = _run([(chaos, 7), (None, 1)], workers=2,
                       policy=RetryPolicy(retries=1, timeout_s=1.0,
                                          backoff_s=0.001),
                       stats=stats)
        revived = results[0]
        assert revived.ok and revived.result == 14
        assert revived.error_kind == RETRIED_OK
        assert stats.timeouts == 1


class TestJournal:
    def test_resume_skips_journaled_runs(self, tmp_path):
        path = str(tmp_path / "runs.jsonl")
        journal = RunJournal(path)
        first = _run([(None, 1), (None, 2)], journal=journal)
        journal.close()
        assert all(r.ok for r in first)

        stats = ExecStats()
        second = _run([(None, 1), (None, 2)],
                      resume=RunJournal.load(path), stats=stats)
        assert stats.journal_skipped == 2
        assert [r.result for r in second] == [r.result for r in first]
        assert all(r.journaled for r in second)

    def test_failures_are_not_journaled(self, tmp_path):
        path = str(tmp_path / "runs.jsonl")
        journal = RunJournal(path)
        _run([(ChaosSpec("raise"), 1), (None, 2)], journal=journal)
        journal.close()
        entries = RunJournal.load(path)
        assert len(entries) == 1              # only the success landed

    def test_torn_tail_line_tolerated(self, tmp_path):
        path = str(tmp_path / "runs.jsonl")
        journal = RunJournal(path)
        _run([(None, 1), (None, 2)], journal=journal)
        journal.close()
        with open(path, "a") as handle:
            handle.write('{"digest": "abc", "resu')   # mid-write kill
        entries = RunJournal.load(path)
        assert len(entries) == 2

    def test_missing_journal_is_empty(self, tmp_path):
        assert RunJournal.load(str(tmp_path / "nope.jsonl")) == {}


# ----------------------------------------------------------------------
# Campaign-level drills: real grid points with injected chaos.
# ----------------------------------------------------------------------
def _chaos_spec(chaos_points):
    """A tiny real campaign whose ``chaos`` axis carries the drills."""
    return ExperimentSpec(
        name="test-chaos",
        victim=VictimConfig(duration_s=0.01),
        attack=AttackSpec.tone(freq_mhz=27, tx_dbm=35.0),
        sweep={"chaos": chaos_points},
    )


class TestCampaignChaos:
    def test_crash_and_hang_degrade_gracefully(self, tmp_path):
        """The acceptance drill: a crashed worker and a hung run in one
        sweep — partial results, a retried success, tagged failures, no
        deadlock, no lost sweep."""
        crash = ChaosSpec("crash", arm=1, latch=str(tmp_path / "latch"))
        hang = ChaosSpec("hang", hang_s=60.0)
        runner = CampaignRunner(
            workers=2,
            policy=RetryPolicy(retries=2, timeout_s=2.0, backoff_s=0.001))
        campaign = runner.run(_chaos_spec([None, crash, hang]))

        healthy, revived, hung = campaign.outcomes
        assert healthy.ok and healthy.error_kind is None
        assert revived.ok and revived.error_kind == RETRIED_OK
        assert revived.attempts >= 2
        assert hung.error_kind == TIMEOUT
        assert campaign.stats.failures == 1
        assert campaign.stats.retries >= 1
        assert campaign.stats.timeouts >= 1
        assert campaign.stats.worker_restarts >= 2
        data = hung.to_dict()
        assert data["error_kind"] == TIMEOUT
        assert data["attempts"] == hung.attempts

    def test_reraise_applies_to_pooled_execution(self):
        runner = CampaignRunner(workers=2, reraise=True)
        with pytest.raises(CampaignError, match="sim_error"):
            runner.run(_chaos_spec([None, ChaosSpec("raise")]))

    def test_reraise_serial_propagates_original_exception(self):
        runner = CampaignRunner(reraise=True)
        with pytest.raises(ResilienceError, match="chaos"):
            runner.run(_chaos_spec([None, ChaosSpec("raise")]))


class TestCampaignResume:
    def _spec(self):
        return ExperimentSpec(
            name="test-resume",
            victim=VictimConfig(duration_s=0.01),
            attack=AttackSpec.tone(tx_dbm=35.0),
            sweep={"attack.freq_mhz": [27, 35, 300]},
        )

    def test_resumed_fingerprint_matches_clean_run(self, tmp_path):
        clean = CampaignRunner().run(self._spec())

        path = str(tmp_path / "runs.jsonl")
        CampaignRunner(journal=path).run(self._spec())
        # Simulate a mid-campaign kill: drop the journal's tail.
        with open(path) as handle:
            lines = handle.readlines()
        assert len(lines) == 4                # 1 baseline + 3 points
        with open(path, "w") as handle:
            handle.writelines(lines[:2])

        resumed = CampaignRunner(journal=path, resume=path) \
            .run(self._spec())
        assert resumed.stats.journal_skipped == 2
        assert resumed.metrics_fingerprint() \
            == clean.metrics_fingerprint()

    def test_full_resume_skips_compiles_too(self, tmp_path):
        path = str(tmp_path / "runs.jsonl")
        CampaignRunner(journal=path).run(self._spec())
        resumed = CampaignRunner(resume=path).run(self._spec())
        assert resumed.stats.journal_skipped == 4
        assert resumed.stats.compiles == 0

    def test_changed_spec_misses_the_journal(self, tmp_path):
        path = str(tmp_path / "runs.jsonl")
        CampaignRunner(journal=path).run(self._spec())
        other = ExperimentSpec(
            name="test-resume",
            victim=VictimConfig(duration_s=0.01),
            attack=AttackSpec.tone(tx_dbm=20.0),   # different attack
            sweep={"attack.freq_mhz": [27, 35, 300]},
        )
        resumed = CampaignRunner(resume=path).run(other)
        assert resumed.stats.journal_skipped == 1  # shared silent baseline
        assert all(not o.error for o in resumed.outcomes)


class TestWiring:
    def test_adversary_survives_partial_batches(self):
        from repro.adversary import AdversarySearch, adversary_victim

        class PoisoningRunner(CampaignRunner):
            """Fails the first candidate of every evaluation batch."""

            def run(self, spec):
                result = super().run(spec)
                if spec.name.startswith("adversary:"):
                    outcome = result.outcomes[0]
                    outcome.result = None
                    outcome.error = "ResilienceError: injected"
                    outcome.error_kind = SIM_ERROR
                return result

        victim = adversary_victim(duration_s=0.02)
        result = AdversarySearch(victim, strategy="random", budget=4,
                                 batch=2, seed=0,
                                 runner=PoisoningRunner()).run()
        assert result.stats.failures >= 1
        failed = [e for e in result.evaluations if e.failed]
        assert failed
        assert all(e.scores.damage == 0.0 for e in failed)
        frontier_indices = {p.index for p in result.frontier.points}
        assert frontier_indices.isdisjoint({e.index for e in failed})
        payload = failed[0].to_dict()
        assert payload["failed"] is True

    def test_classify_timeout_is_a_hang(self):
        from repro.eval.common import run_attack
        from repro.faultsim.classify import Outcome, classify

        golden = run_attack(VictimConfig(workload="crc16", duration_s=0.05),
                            AttackSpec.silent().build(
                                VictimConfig(workload="crc16"), 0.05))
        assert classify(None, golden, error_kind="timeout") == Outcome.HANG
        assert classify(None, golden, error_kind="worker_crash") \
            == Outcome.BRICK

    def test_faultsim_accepts_a_policy(self):
        from repro.faultsim import (
            FaultCampaignSpec,
            fault_victim,
            run_fault_campaign,
        )

        spec = FaultCampaignSpec(
            victim=fault_victim(workload="crc16", duration_s=0.05),
            models=("reg_flip",), points=2, seed=0,
        )
        campaign = run_fault_campaign(
            spec, policy=RetryPolicy(retries=1, backoff_s=0.001))
        assert campaign.map.total == 2

    def test_obs_counters_recorded(self, tmp_path):
        from repro.obs import (
            CAMPAIGN_RETRIES,
            CAMPAIGN_TIMEOUTS,
            Observability,
        )

        chaos = ChaosSpec("raise", arm=1, latch=str(tmp_path / "latch"))
        obs = Observability.for_telemetry()
        runner = CampaignRunner(
            policy=RetryPolicy(retries=2, backoff_s=0.001), obs=obs)
        campaign = runner.run(_chaos_spec([None, chaos]))
        assert campaign.stats.retries == 1
        flat = obs.flat_metrics()
        assert flat[CAMPAIGN_RETRIES] == 1
        assert flat[CAMPAIGN_TIMEOUTS] == 0

    def test_resilience_counters_stay_out_of_fingerprints(self, tmp_path):
        """A retried campaign and a clean one must fingerprint alike —
        the recovery accounting lives on the runner, not in results."""
        chaos = ChaosSpec("raise", arm=1, latch=str(tmp_path / "latch"))
        clean = CampaignRunner().run(_chaos_spec([None]))
        retried = CampaignRunner(
            policy=RetryPolicy(retries=2, backoff_s=0.001)) \
            .run(_chaos_spec([None, chaos]))
        fingerprints = json.loads(clean.to_json())
        assert fingerprints is not None
        assert retried.stats.retries == 1
        clean_metrics = clean.outcomes[0].result.metrics
        retried_metrics = retried.outcomes[0].result.metrics
        assert clean_metrics == retried_metrics

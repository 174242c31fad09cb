"""Resilient execution tests: taxonomy, retries, crash/timeout recovery,
the result sink and store resume, chaos drills, and the wiring into
adversary/faultsim.

The executor-level tests drive :class:`ResilientExecutor` with cheap
module-level chaos tasks (picklable under both ``fork`` and ``spawn``);
the campaign-level tests inject :class:`ChaosSpec` drills into real grid
points and assert the sweep degrades instead of dying.
"""

import dataclasses
import json
import multiprocessing
import os
import threading
import time

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
    SIM_ERROR,
    TIMEOUT,
    VictimConfig,
    WORKER_CRASH,
)
from repro.eval.resilient import ExecStats
from repro.store import ResultStore


# ----------------------------------------------------------------------
# Chaos task functions (module-level: must pickle for pool dispatch).
# ----------------------------------------------------------------------
def _task(_context, payload):
    """Payload is (chaos_or_None, value): trip the drill, return value."""
    chaos, value = payload
    if chaos is not None:
        chaos.trip()
    return value * 2


def _lock_task(_context, payload):
    """A result no pipe can carry for a ``None`` payload."""
    return threading.Lock() if payload is None else payload * 2


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

    def test_unpicklable_result_fails_only_its_own_task(self):
        results = ResilientExecutor(_lock_task, workers=2).run(
            _tasks(1, None, 3))
        a, locked, b = results
        assert a.ok and a.result == 2
        assert b.ok and b.result == 6
        assert locked.error_kind == SIM_ERROR
        assert "result not picklable" in locked.error
        assert locked.traceback


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
        assert stats.worker_crashes == 1
        assert stats.worker_restarts == stats.timeouts + stats.worker_crashes

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
        assert stats.worker_restarts == stats.timeouts + stats.worker_crashes


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
        assert stats.worker_restarts == 1     # only the hung worker

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
        assert stats.worker_restarts == stats.timeouts + stats.worker_crashes

    def test_timeout_spares_healthy_runs(self, tmp_path):
        """A timeout kills only the hung run's worker: the run another
        worker is still executing when the watchdog fires finishes on
        its first attempt (its latch counts one start)."""
        latch = tmp_path / "latch"
        healthy = ChaosSpec("hang", arm=99, hang_s=2.5, latch=str(latch))
        stats = ExecStats()
        results = _run([(ChaosSpec("hang", hang_s=60.0), 1),
                        (ChaosSpec("hang", hang_s=1.0), 2),
                        (healthy, 3)],
                       workers=2, policy=RetryPolicy(timeout_s=3.0),
                       stats=stats)
        hung, short, spared = results
        assert hung.error_kind == TIMEOUT
        assert short.ok and spared.ok and spared.result == 6
        assert latch.read_text() == "1"
        assert spared.attempts == 1
        assert stats.worker_restarts == 1


def _pid_task(_context, chaos):
    """Trip an optional drill, then report the executing process."""
    if chaos is not None:
        chaos.trip()
    return os.getpid()


def _pool_pids(executor):
    return [worker.process.pid for worker in executor._pool]


class TestLifecycle:
    """An executor opened with ``with`` keeps its workers across runs."""

    def test_workers_outlive_a_run(self):
        with ResilientExecutor(_pid_task, workers=2) as executor:
            pids = _pool_pids(executor)
            first = executor.run(_tasks(None, None, None))
            second = executor.run(_tasks(None))
            assert _pool_pids(executor) == pids
        assert os.getpid() not in pids
        assert {r.result for r in first + second} <= set(pids)

    def test_one_worker_still_runs_off_process(self):
        with ResilientExecutor(_pid_task) as executor:
            (result,) = executor.run(_tasks(None))
            assert result.result == _pool_pids(executor)[0] != os.getpid()

    def test_only_a_crashed_or_timed_out_worker_is_replaced(self):
        stats = ExecStats()
        with ResilientExecutor(_pid_task, workers=2, stats=stats,
                               policy=RetryPolicy(timeout_s=1.0)) \
                as executor:
            before = _pool_pids(executor)
            crashed, healthy = executor.run(
                _tasks(ChaosSpec("crash"), None))
            middle = _pool_pids(executor)
            healthy2, hung = executor.run(
                _tasks(None, ChaosSpec("hang", hang_s=60.0)))
            after = _pool_pids(executor)
        assert crashed.error_kind == WORKER_CRASH and healthy.ok
        assert middle[0] != before[0] and middle[1] == before[1]
        assert hung.error_kind == TIMEOUT and healthy2.ok
        assert after[0] == middle[0] and after[1] != middle[1]
        assert stats.worker_restarts == stats.timeouts \
            + stats.worker_crashes == 2

    def test_exit_kills_every_worker(self):
        before = set(multiprocessing.active_children())
        with ResilientExecutor(_pid_task, workers=2) as executor:
            executor.run(_tasks(None, None))
            assert len(set(multiprocessing.active_children()) - before) \
                == 2
        assert set(multiprocessing.active_children()) <= before
        with pytest.raises(ResilienceError, match="closed"):
            executor.run(_tasks(None))

    def test_exit_from_another_thread_ends_a_waiting_run(self):
        before = set(multiprocessing.active_children())
        executor = ResilientExecutor(_pid_task).__enter__()
        raised = []

        def hang():
            try:
                executor.run(_tasks(ChaosSpec("hang", hang_s=60.0)))
            except ResilienceError as exc:
                raised.append(exc)

        thread = threading.Thread(target=hang)
        thread.start()
        time.sleep(0.3)                     # the run is in flight
        start = time.monotonic()
        executor.__exit__(None, None, None)
        assert time.monotonic() - start < 2.0
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert raised and "in flight" in str(raised[0])
        assert set(multiprocessing.active_children()) <= before


class TestResultSink:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_sink_sees_every_final_result_once(self, tmp_path, workers):
        """Success, terminal failure and retried success each reach
        ``on_result`` exactly once, as the same results ``run`` returns."""
        retried = ChaosSpec("raise", arm=1, latch=str(tmp_path / "latch"))
        seen = []
        results = _run([(None, 1), (ChaosSpec("raise"), 2), (retried, 3)],
                       workers=workers,
                       policy=RetryPolicy(retries=1, backoff_s=0.001),
                       on_result=seen.append)
        assert [r.error_kind for r in results] \
            == [None, SIM_ERROR, RETRIED_OK]
        assert len(seen) == len(results)
        assert sorted(seen, key=lambda r: r.index) == results

    def test_budget_give_ups_reach_the_sink(self):
        seen = []
        results = _run([(None, 1), (None, 2)],
                       policy=RetryPolicy(max_total_s=0.0),
                       on_result=seen.append)
        assert seen == results
        assert all(r.error_kind == BUDGET_EXCEEDED for r in seen)

    def test_sink_exception_leaves_run_after_teardown(self):
        def refuse(result):
            raise RuntimeError("sink refused")

        before = set(multiprocessing.active_children())
        with pytest.raises(RuntimeError, match="sink refused"):
            _run([(None, 1), (None, 2), (None, 3)], workers=2,
                 on_result=refuse)
        assert set(multiprocessing.active_children()) <= before


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
        assert campaign.stats.worker_restarts \
            == campaign.stats.timeouts + campaign.stats.worker_crashes
        data = hung.to_dict()
        assert data["error_kind"] == TIMEOUT
        assert data["attempts"] == hung.attempts

    def test_one_worker_enforces_the_timeout(self):
        runner = CampaignRunner(workers=1,
                                policy=RetryPolicy(timeout_s=1.0))
        campaign = runner.run(_chaos_spec([ChaosSpec("hang", hang_s=5.0)]))
        (hung,) = campaign.outcomes
        assert hung.error_kind == TIMEOUT
        assert campaign.stats.timeouts == campaign.stats.worker_restarts == 1

    def test_reraise_applies_to_pooled_execution(self):
        runner = CampaignRunner(workers=2, reraise=True)
        with pytest.raises(CampaignError, match="sim_error"):
            runner.run(_chaos_spec([None, ChaosSpec("raise")]))

    def test_reraise_serial_propagates_original_exception(self):
        runner = CampaignRunner(reraise=True)
        with pytest.raises(ResilienceError, match="chaos"):
            runner.run(_chaos_spec([None, ChaosSpec("raise")]))


def _kill_spec(latch=None):
    """Three telemetry points; with a ``latch`` the second one crashes
    its process (exit code 17) on the first attempt only."""
    crash = ChaosSpec("crash", arm=1, latch=latch) if latch else None
    return ExperimentSpec(
        name="test-resume",
        victim=VictimConfig(duration_s=0.01),
        attack=AttackSpec.tone(tx_dbm=35.0),
        sweep={"*": [{"attack.freq_mhz": 27},
                     {"attack.freq_mhz": 35, "chaos": crash},
                     {"attack.freq_mhz": 300}]},
        telemetry=True,
    )


def _run_killable(root, latch):
    CampaignRunner(store=ResultStore(root)).run(_kill_spec(latch))


class TestStoreResume:
    """The result store is the only memo: every finished run is stored
    as it lands, so a rerun over the same store executes what is
    missing and nothing else."""

    def test_killed_campaign_resumes_from_the_store(self, tmp_path):
        root, latch = str(tmp_path / "store"), str(tmp_path / "latch")
        # Serial, so the crash kills the campaign process itself.
        child = multiprocessing.get_context("fork").Process(
            target=_run_killable, args=(root, latch))
        child.start()
        child.join(timeout=300)
        assert child.exitcode == 17
        assert len(ResultStore(root)) == 2    # baseline + first point

        resumed = CampaignRunner(store=ResultStore(root)) \
            .run(_kill_spec(latch))
        assert resumed.stats.store_hits == 2
        assert resumed.stats.store_misses == 2
        assert resumed.stats.failures == 0
        clean = CampaignRunner().run(_kill_spec())
        assert resumed.metrics_fingerprint() \
            == clean.metrics_fingerprint()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failures_are_never_stored(self, tmp_path, workers):
        store = ResultStore(str(tmp_path / "store"))
        spec = _chaos_spec([None, ChaosSpec("raise")])
        first = CampaignRunner(workers=workers, store=store).run(spec)
        assert first.stats.failures == 1
        assert first.stats.store_puts == 2    # baseline + healthy point
        again = CampaignRunner(workers=workers, store=store).run(spec)
        assert again.stats.store_hits == 2
        assert again.stats.store_misses == 1  # the failure runs again
        assert again.outcomes[1].error_kind == SIM_ERROR

    def test_changed_spec_misses_the_store(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        CampaignRunner(store=store).run(_kill_spec())
        other = dataclasses.replace(
            _kill_spec(), attack=AttackSpec.tone(tx_dbm=20.0))
        changed = CampaignRunner(store=store).run(other)
        assert changed.stats.store_hits == 1  # shared silent baseline
        assert changed.stats.store_misses == 3
        assert all(not o.error for o in changed.outcomes)


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

"""repro.torture tests: schedule model, engine, shrinker, corpus, and
the planted-bug acceptance drill.

This is the successor to the hand-written crash-consistency sweep: the
fuzzer generates the interleavings nobody thought to write down.  The
acceptance test plants a real consistency bug (the stale-ISR-frame heal
skipped, see :mod:`tests.planted`) and requires the seeded campaign to
find it, shrink it to a handful of events, and replay it bit-identically
from the corpus on both backends.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import compile_scheme
from repro.errors import InvariantViolation
from repro.runtime import Machine
from repro.runtime.threaded import _blocks_for
from repro.torture import (
    AMPLE_BUDGET,
    ReproCase,
    TortureCorpus,
    TortureError,
    TortureEvent,
    TortureSchedule,
    TortureSpec,
    build_target,
    generate_schedule,
    run_campaign,
    run_schedule,
    shrink_schedule,
    validate_schedule,
)
from repro.torture.fuzz import generate_case
from repro.torture.oracles import (
    GOLDEN_OUTPUT,
    ISR_AT_LEAST_ONCE,
    TORN_STATE,
    crash_applies,
    golden_applies,
)
from repro.workloads import source

from .planted import heal_skipped

#: The planted-bug campaign the acceptance criteria are written against.
PLANTED_SPEC = TortureSpec(workload="heartbeat", scheme="gecko-rollback",
                           seed=0, cases=15, shrink_budget=150)


def _power_fail(at, budget=None, **kw):
    return TortureEvent(kind="power_fail", at_cycle=at,
                        ckpt_budget=budget, **kw)


@pytest.fixture(scope="module")
def blink_target():
    return build_target("blink", "gecko-jit")


@pytest.fixture(scope="module")
def planted_violation():
    """The first planted-bug violation the seeded campaign generates
    (found once per module; tests re-plant the bug themselves)."""
    with heal_skipped():
        target = build_target(PLANTED_SPEC.workload, PLANTED_SPEC.scheme)
        for index in range(PLANTED_SPEC.cases):
            schedule = generate_case(PLANTED_SPEC, index, target.profile)
            outcome = run_schedule(target, schedule)
            if outcome.violations:
                return target, schedule, outcome
    pytest.fail("planted bug escaped the seeded campaign budget")


# ----------------------------------------------------------------------
# Schedule model.
# ----------------------------------------------------------------------
class TestScheduleModel:
    def test_generation_is_deterministic_per_case(self, blink_target):
        spec = TortureSpec(workload="blink", scheme="gecko-jit", seed=7)
        a = generate_case(spec, 3, blink_target.profile)
        b = generate_case(spec, 3, blink_target.profile)
        assert a.to_dicts() == b.to_dicts()
        assert a.to_dicts() \
            != generate_case(spec, 4, blink_target.profile).to_dicts()

    def test_dict_round_trip(self, blink_target):
        spec = TortureSpec(workload="blink", scheme="gecko-jit", seed=1)
        schedule = generate_case(spec, 0, blink_target.profile)
        clone = TortureSchedule.from_dicts(schedule.to_dicts())
        assert clone == schedule

    def test_events_sorted_by_cycle(self):
        schedule = TortureSchedule(events=(
            _power_fail(500), _power_fail(10), _power_fail(200)))
        assert [e.at_cycle for e in schedule] == [10, 200, 500]

    def test_event_validation(self):
        with pytest.raises(TortureError):
            TortureEvent(kind="meteor_strike", at_cycle=1)
        with pytest.raises(TortureError):
            TortureEvent(kind="ckpt_fault", at_cycle=1, mode="melt")
        with pytest.raises(TortureError):
            TortureEvent(kind="data_fault", at_cycle=1, model="reg_flip",
                         reg=99)

    def test_contract_rejects_out_of_scope_events(self):
        faulty = TortureSchedule(events=(TortureEvent(
            kind="ckpt_fault", at_cycle=50, mode="corrupt"),))
        with pytest.raises(TortureError, match="outside the ratchet"):
            validate_schedule(faulty, "ratchet")
        # nvp's contract is announced-with-ample-energy only.
        unannounced = TortureSchedule(events=(_power_fail(50),))
        with pytest.raises(TortureError, match="outside the nvp"):
            validate_schedule(unannounced, "nvp")

    def test_oracle_applicability(self):
        consistency = TortureSchedule(events=(
            _power_fail(10), TortureEvent(kind="ckpt_fault", at_cycle=20,
                                          mode="truncate")))
        assert golden_applies(consistency)
        assert crash_applies(consistency)
        sdc = TortureSchedule(events=(TortureEvent(
            kind="data_fault", at_cycle=10, model="instr_skip"),))
        assert not golden_applies(sdc)
        assert not crash_applies(sdc)


# ----------------------------------------------------------------------
# Engine.
# ----------------------------------------------------------------------
class TestEngine:
    def test_clean_schedules_uphold_every_oracle(self, blink_target):
        spec = TortureSpec(workload="blink", scheme="gecko-jit", seed=11)
        for index in range(4):
            schedule = generate_case(spec, index, blink_target.profile)
            outcome = run_schedule(blink_target, schedule)
            assert outcome.ok, (index, outcome.violations)
            assert outcome.halted

    def test_backends_fingerprint_identically(self, blink_target):
        spec = TortureSpec(workload="blink", scheme="gecko-jit", seed=13)
        for index in range(3):
            schedule = generate_case(spec, index, blink_target.profile)
            interp = run_schedule(blink_target, schedule, "interpreter")
            threaded = run_schedule(blink_target, schedule, "threaded")
            assert interp.fingerprint == threaded.fingerprint

    def test_queued_data_faults_match_across_backends(self, blink_target):
        """The step hook is armed from step 0: a fault landing mid-block,
        then a reg_flip and an instr_skip queued at one cycle, act on the
        same instructions under both backends."""
        leaders = _blocks_for(blink_target.linked).leaders
        probe = Machine(blink_target.linked)
        while probe.cycles < 500 or probe.pc in leaders:
            probe.step()
        mid_block = probe.cycles
        schedule = TortureSchedule(events=(
            TortureEvent(kind="data_fault", at_cycle=mid_block,
                         model="instr_skip"),
            TortureEvent(kind="data_fault", at_cycle=mid_block + 300,
                         model="reg_flip", reg=4, bit=2),
            TortureEvent(kind="data_fault", at_cycle=mid_block + 300,
                         model="instr_skip")))
        interp = run_schedule(blink_target, schedule, "interpreter")
        threaded = run_schedule(blink_target, schedule, "threaded")
        assert interp.triggered == 3
        assert interp.to_dict() == threaded.to_dict()
        assert interp.fingerprint == threaded.fingerprint

    def test_committed_output_survives_repeated_failures(self,
                                                        blink_target):
        schedule = TortureSchedule(events=(
            _power_fail(400, repeat=3, gap_steps=5),
            _power_fail(900),
            _power_fail(1500, budget=AMPLE_BUDGET)))
        outcome = run_schedule(blink_target, schedule)
        assert outcome.ok
        assert outcome.committed_out == blink_target.golden_out
        assert outcome.crashes >= 4      # repeats landed

    def test_strict_mode_is_silent_on_clean_runs(self, blink_target):
        schedule = TortureSchedule(events=(_power_fail(300),))
        outcome = run_schedule(blink_target, schedule, strict=True)
        assert outcome.ok

    def test_out_of_contract_schedule_rejected(self, blink_target):
        faulty = TortureSchedule(events=(TortureEvent(
            kind="data_fault", at_cycle=10, model="reg_flip", reg=3,
            bit=40 % 32),))
        ratchet = build_target("blink", "ratchet")
        good = run_schedule(ratchet, faulty)   # in ratchet's contract
        assert good.triggered
        bad = TortureSchedule(events=(TortureEvent(
            kind="ckpt_fault", at_cycle=10, mode="corrupt"),))
        with pytest.raises(TortureError):
            run_schedule(ratchet, bad)


# ----------------------------------------------------------------------
# Shrinker.
# ----------------------------------------------------------------------
class TestShrinker:
    def test_passing_schedule_returns_unchanged(self, blink_target):
        schedule = TortureSchedule(events=(_power_fail(300),))
        result = shrink_schedule(blink_target, schedule, TORN_STATE)
        assert result.schedule == schedule
        assert not result.minimal
        assert result.runs == 1

    def test_shrink_reduces_to_a_handful_of_events(self, planted_violation):
        target, schedule, outcome = planted_violation
        oracle = outcome.violations[0].oracle
        with heal_skipped():
            result = shrink_schedule(target, schedule, oracle, run_budget=150)
            assert result.events <= min(8, len(schedule))
            # The minimized schedule must still be a genuine repro.
            again = run_schedule(target, result.schedule)
            assert oracle in again.oracles()

    def test_budget_exhaustion_keeps_best_so_far(self, planted_violation):
        target, schedule, outcome = planted_violation
        oracle = outcome.violations[0].oracle
        with heal_skipped():
            result = shrink_schedule(target, schedule, oracle, run_budget=1)
        assert result.runs == 1
        assert not result.minimal
        assert result.schedule == schedule   # no probe beat the original


# ----------------------------------------------------------------------
# Corpus.
# ----------------------------------------------------------------------
class TestCorpus:
    def _case(self, detail="synthetic"):
        return ReproCase(
            workload="blink", scheme="gecko-jit",
            events=(_power_fail(100).to_dict(),),
            oracle=TORN_STATE, detail=detail)

    def test_add_get_and_dedup(self, tmp_path):
        corpus = TortureCorpus.open(str(tmp_path / "corpus"))
        digest, was_new = corpus.add(self._case())
        assert was_new
        # Identity excludes outcome facts: a re-found case dedupes even
        # when its detail text differs.
        again, was_new = corpus.add(self._case(detail="re-found"))
        assert again == digest and not was_new
        stored = corpus.get(digest)
        assert stored.workload == "blink"
        assert stored.schedule().events[0].at_cycle == 100
        assert len(corpus) == 1

    def test_other_store_tenants_are_invisible(self, tmp_path):
        corpus = TortureCorpus.open(str(tmp_path / "corpus"))
        corpus.store.put("a" * 64, {"value": 1}, meta={"kind": "campaign"})
        corpus.add(self._case())
        assert len(corpus) == 1
        assert corpus.get("a" * 64) is None


# ----------------------------------------------------------------------
# Campaigns.
# ----------------------------------------------------------------------
class TestCampaign:
    def test_clean_campaign_has_no_findings(self):
        spec = TortureSpec(workload="crc16", scheme="gecko-jit", seed=5,
                           cases=6)
        report = run_campaign(spec)
        assert report.violations == 0
        assert report.errors == 0
        assert not report.repro_cases
        assert report.summary()["cases"] == 6

    def test_serial_and_parallel_fingerprints_match(self):
        spec = TortureSpec(workload="blink", scheme="gecko-jit", seed=5,
                           cases=6, check_backends=False)
        serial = run_campaign(spec, workers=1)
        parallel = run_campaign(spec, workers=2)
        assert serial.fingerprint == parallel.fingerprint


# ----------------------------------------------------------------------
# Acceptance: the planted consistency bug.
# ----------------------------------------------------------------------
class TestPlantedBugAcceptance:
    def test_fuzzer_finds_shrinks_and_replays_the_bug(self, tmp_path):
        with heal_skipped():
            report = run_campaign(PLANTED_SPEC)
            assert report.errors == 0
            assert report.violations >= 1, \
                "the planted bug escaped the bounded seeded budget"
            assert report.repro_cases
            oracles = {case.oracle for case in report.repro_cases}
            assert oracles <= {TORN_STATE, ISR_AT_LEAST_ONCE, GOLDEN_OUTPUT,
                               "forward_progress"}

            corpus = TortureCorpus.open(str(tmp_path / "corpus"))
            for case in report.repro_cases:
                assert len(case.events) <= 8, case.digest
                digest, was_new = corpus.add(case)
                assert was_new

            # Bit-identical replay on both backends, straight from disk.
            for digest, case in corpus.cases():
                assert set(case.fingerprints) == {"interpreter", "threaded"}
                for result in corpus.replay(case):
                    assert result.reproduced, (digest, result.backend)
                    assert result.bit_identical, (digest, result.backend)

            # Strict replay escalates to the non-retryable executor class.
            first = report.repro_cases[0]
            with pytest.raises(InvariantViolation):
                run_schedule(first.target(), first.schedule(), strict=True)

        # With the heal restored, the stored cases stop reproducing —
        # the corpus now stands as the regression suite for the fix.
        for digest, case in corpus.cases():
            for result in corpus.replay(case):
                assert not result.reproduced, (digest, result.backend)

    def test_healed_tree_passes_the_same_campaign(self):
        report = run_campaign(PLANTED_SPEC)
        assert report.violations == 0
        assert report.errors == 0


# ----------------------------------------------------------------------
# Snapshot/restore rewind under torture-style peripheral pressure.
# ----------------------------------------------------------------------
def _state_of(machine):
    return (list(machine.mem), list(machine.regs), machine.pc,
            machine.halted, machine.cycles, machine.instr_count,
            list(machine.out_buffer), list(machine.committed_out))


@pytest.fixture(scope="module")
def motionlog_nvp():
    return compile_scheme(source("motionlog"), "nvp")


@pytest.fixture(scope="module")
def heartbeat_nvp():
    return compile_scheme(source("heartbeat"), "nvp")


class TestRewindUnderTorture:
    """The PR 8 rewind property extended to in-flight peripheral state:
    a snapshot taken mid-DMA or mid-nested-ISR — with a forged pend (the
    torture ``isr_burst`` event) in flight — must restore bit-exactly
    and still finish with the golden output."""

    @given(cut=st.integers(min_value=0, max_value=300),
           extra=st.integers(min_value=1, max_value=200))
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_rewind_mid_dma(self, motionlog_nvp, cut, extra):
        machine = Machine(motionlog_nvp.linked)
        for _ in range(cut):
            if machine.halted:
                break
            machine.step()
        # March into a live DMA transfer (motionlog spends roughly half
        # its steps with a transfer armed, so most cuts land quickly).
        guard = 0
        while not machine.halted and guard < 2000 \
                and machine.read_word("__dma_ctrl") == 0:
            machine.step()
            guard += 1
        if machine.halted or machine.read_word("__dma_ctrl") == 0:
            return                       # halted first; other cuts hit it
        snap = machine.snapshot()
        reference = _state_of(machine)
        for _ in range(extra):
            if machine.halted:
                break
            machine.step()
        machine.restore(snap)
        assert _state_of(machine) == reference

    @given(cut=st.integers(min_value=0, max_value=400),
           extra=st.integers(min_value=1, max_value=200))
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_rewind_mid_nested_isr_with_forged_pend(self, heartbeat_nvp,
                                                    cut, extra):
        machine = Machine(heartbeat_nvp.linked)
        vector = min(heartbeat_nvp.linked.isr_vectors)
        for _ in range(cut):
            if machine.halted:
                break
            machine.step()
        guard = 0
        while not machine.halted and guard < 2000 \
                and machine.read_word("__isr_sp") < 2:
            machine.step()
            guard += 1
        if machine.halted or machine.read_word("__isr_sp") < 2:
            return
        # Forge an out-of-band pend (exactly the torture isr_burst
        # event) so the snapshot carries adversarial controller state.
        machine._periph.inject_pend(machine, vector)
        snap = machine.snapshot()
        reference = _state_of(machine)
        for _ in range(extra):
            if machine.halted:
                break
            machine.step()
        machine.restore(snap)
        assert _state_of(machine) == reference

    def test_restored_nested_snapshot_finishes_golden(self,
                                                      heartbeat_nvp):
        golden = Machine(heartbeat_nvp.linked)
        golden.run(max_steps=3_000_000)
        probe = Machine(heartbeat_nvp.linked)
        snap = None
        while not probe.halted:
            probe.step()
            if probe.read_word("__isr_sp") >= 2:
                snap = probe.snapshot()
                break
        assert snap is not None
        fresh = Machine(heartbeat_nvp.linked)
        fresh.restore(snap)
        fresh.run(max_steps=3_000_000)
        assert fresh.halted
        assert fresh.committed_out == golden.committed_out

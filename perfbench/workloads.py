"""The benchmark's four workloads.

Each workload is fixed work in *rounds*: :meth:`setup` builds what every
round reuses, :meth:`prepare` readies one round outside the timed
region, :meth:`round` is the timed work, and :meth:`check` compares its
outputs with the committed references in ``references.json``.  The
benchmark seed picks the inputs that vary (the torture seed, the
fault-map window, the pre-warmed half of the campaign grid) for the first
round, and later rounds rotate through the same candidates; the program
only ever sees the generated inputs.

``repro`` is imported by the caller before this module, so that import
time is measured on its own; functions whose wrappers the traced run
installs are always called through their module (``exhaustive.
exhaustive_map``, not a name bound here).
"""

from __future__ import annotations

import os
import random
import shutil
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import repro
import repro.exhaustive as exhaustive
import repro.torture as torture
from repro.emi import AttackSchedule, EMISource, RemotePath
from repro.eval.campaign import (AttackSpec, CampaignRunner, ExperimentSpec,
                                 PathSpec)
from repro.eval.common import REMOTE_DISTANCE_M
from repro.exhaustive import ExhaustiveSpec
from repro.faultsim import INSTR_SKIP, REG_FLIP, fault_victim
from repro.store import ResultStore
from repro.store.digest import content_digest, run_digest

#: Pool size of the pooled workloads (the benchmark host has 2 cores).
WORKERS = 2

#: Candidate inputs per seed-chosen axis; the references cover them all.
SEED_CHOICES = 16


def digest16(value) -> str:
    """Short content digest of one task's output, as the references keep
    it."""
    return content_digest(value)[:16]


@dataclass
class Check:
    """How one round's outputs compared with the references."""

    attempted: int
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def fail(self, count: int, problem: str) -> None:
        self.failed = min(self.attempted, self.failed + count)
        self.problems.append(problem)


class Workload:
    """Base: fixed work per round, checked against references."""

    name = ""
    #: CPUs the round keeps busy (what the calibration loop runs on).
    CPUS = 1

    def __init__(self, seed: int, out_dir: str, refs: dict) -> None:
        self.seed = seed
        self.out_dir = out_dir
        self.refs = refs.get(self.name, {})
        #: Rounds prepared so far; seeded workloads rotate through their
        #: candidate inputs from the seed's choice, so every seed's run
        #: covers the same mix and only the starting point differs.
        self.rounds = 0

    def choice(self) -> int:
        """The candidate input of the current round."""
        return (self.seed + max(0, self.rounds - 1)) % SEED_CHOICES

    def setup(self) -> None:
        """Everything a round reuses; repeatable from scratch."""

    def prepare(self) -> None:
        """Untimed per-round preparation."""
        self.rounds += 1

    def round(self, task_span: Callable = nullcontext):
        """The timed work; returns the raw outputs for :meth:`check`."""
        raise NotImplementedError

    def check(self, outputs) -> Check:
        raise NotImplementedError

    def finish(self) -> None:
        """Untimed per-round cleanup."""

    def expected_tasks(self) -> int:
        raise NotImplementedError

    def summary(self) -> Dict[str, object]:
        """The seed-chosen inputs, for the run's human-readable header."""
        return {}


# ----------------------------------------------------------------------
# sim-attack: serial whole-system simulations.
# ----------------------------------------------------------------------
class SimAttack(Workload):
    """crc16, dhrystone, glucose x nvp, gecko x silent, 27 MHz/35 dBm tone,
    on the outage harvester; one task is one ``simulate_program`` call."""

    name = "sim-attack"
    PROGRAMS = ("crc16", "dhrystone", "glucose")
    SCHEMES = ("nvp", "gecko")
    ATTACKS = ("silent", "tone")
    TONE = (27e6, 35.0)
    DURATION_S = 0.1

    def __init__(self, seed: int, out_dir: str, refs: dict,
                 backend: str = "threaded") -> None:
        super().__init__(seed, out_dir, refs)
        self.backend = backend
        self.compiled: Dict[Tuple[str, str], object] = {}

    def matrix(self) -> List[Tuple[str, str, str]]:
        return [(w, s, a) for w in self.PROGRAMS for s in self.SCHEMES
                for a in self.ATTACKS]

    def victim(self, workload: str, scheme: str):
        return fault_victim(workload, scheme, duration_s=self.DURATION_S,
                            backend=self.backend)

    def setup(self) -> None:
        self.compiled = {(w, s): self.victim(w, s).compile()
                         for w in self.PROGRAMS for s in self.SCHEMES}

    def expected_tasks(self) -> int:
        return len(self.matrix())

    def round(self, task_span=nullcontext):
        outputs = {}
        for workload, scheme, attack in self.matrix():
            victim = self.victim(workload, scheme)
            schedule = AttackSchedule.silent() if attack == "silent" \
                else AttackSchedule.always(EMISource(*self.TONE))
            with task_span():
                try:
                    outputs[f"{workload}/{scheme}/{attack}"] = \
                        repro.simulate_program(
                            self.compiled[workload, scheme],
                            duration_s=self.DURATION_S,
                            power=victim.power_system(), attack=schedule,
                            path=RemotePath(distance_m=REMOTE_DISTANCE_M),
                            device=victim.profile(),
                            monitor_kind=victim.monitor_kind,
                            config=victim.sim_config(),
                            backend=self.backend)
                except Exception as exc:  # a failed task, not a failed run
                    outputs[f"{workload}/{scheme}/{attack}"] = exc
        return outputs

    @staticmethod
    def digests(outputs) -> Dict[str, Optional[str]]:
        return {key: None if isinstance(result, Exception)
                else digest16(result.to_dict())
                for key, result in outputs.items()}

    def check(self, outputs) -> Check:
        check = Check(attempted=len(outputs))
        expected = self.refs.get("tasks", {})
        for key, value in self.digests(outputs).items():
            if value is None:
                check.fail(1, f"{key}: raised {outputs[key]!r}")
            elif value != expected.get(key):
                check.fail(1, f"{key}: result digest {value} != reference "
                              f"{expected.get(key)}")
        return check


# ----------------------------------------------------------------------
# faultmap-slice: a reduced exhaustive map of a strided step window.
# ----------------------------------------------------------------------
class FaultmapSlice(Workload):
    """reg_flip + instr_skip over every ``STRIDE``-th golden step of
    crc16/nvp from a seed-chosen offset; one task is one forked
    injection.  The strided window spans the whole golden run, so every
    offset pays about the same drain lengths."""

    name = "faultmap-slice"
    CPUS = WORKERS
    WORKLOAD = ("crc16", "nvp")
    STRIDE = 224

    def __init__(self, seed: int, out_dir: str, refs: dict,
                 backend: str = "threaded") -> None:
        super().__init__(seed, out_dir, refs)
        self.backend = backend

    @classmethod
    def offset_of(cls, choice: int) -> int:
        return choice * (cls.STRIDE // SEED_CHOICES)

    def spec(self) -> ExhaustiveSpec:
        return ExhaustiveSpec(
            victim=fault_victim(*self.WORKLOAD, backend=self.backend),
            models=(REG_FLIP, INSTR_SKIP),
            start_step=self.offset_of(self.choice()),
            step_stride=self.STRIDE)

    def setup(self) -> None:
        spec = self.spec()
        compiled = spec.victim.compile()
        trace = exhaustive.trace.capture_trace(compiled.linked,
                                               spec.snapshot_stride)
        golden = self.refs.get("golden_steps")
        if trace.golden_steps != golden:
            raise RuntimeError(f"golden run has {trace.golden_steps} steps, "
                               f"the references {golden}")

    def reference(self) -> dict:
        return self.refs.get("offsets", {}).get(str(self.choice()), {})

    def expected_tasks(self) -> int:
        return max(1, self.reference().get("forks", 1))

    def summary(self):
        return {"first_offset": self.offset_of(self.choice()),
                "stride": self.STRIDE}

    def round(self, task_span=nullcontext):
        return exhaustive.exhaustive_map(self.spec(), workers=WORKERS)

    @staticmethod
    def record(result) -> dict:
        return {"fingerprint": result.map.fingerprint(),
                "forks": result.stats.simulated,
                "representatives": result.stats.representatives}

    def check(self, result) -> Check:
        ref = self.reference()
        got = self.record(result)
        check = Check(attempted=max(1, got["forks"]))
        if got != ref:
            check.fail(check.attempted,
                       f"offset {self.offset_of(self.choice())}: map {got} "
                       f"!= reference {ref}")
        return check


# ----------------------------------------------------------------------
# campaign-store: a store-backed campaign over a partly warm store.
# ----------------------------------------------------------------------
class CampaignStore(Workload):
    """workload x scheme x attack-frequency grid through a 2-worker
    ``CampaignRunner`` with a ``ResultStore`` and an empty compile cache.
    Before each round, half of every (workload, scheme) row and the row's
    baseline are written to a fresh store; which half follows a fixed
    cycle of patterns that starts at the seed's.  One task is one grid
    point, hit or miss."""

    name = "campaign-store"
    CPUS = WORKERS
    PROGRAMS = ("crc16", "blink", "dhrystone")
    SCHEMES = ("nvp", "gecko")
    FREQS_MHZ = (20.0, 24.0, 27.0, 30.0, 33.0, 40.0)
    DURATION_S = 0.02

    def __init__(self, seed: int, out_dir: str, refs: dict,
                 backend: str = "threaded") -> None:
        super().__init__(seed, out_dir, refs)
        self.backend = backend
        rng = random.Random("perfbench:campaign-store:patterns")
        rows = [(w, s) for w in self.PROGRAMS for s in self.SCHEMES]
        #: Per pattern, which half (even or odd frequencies) of each row
        #: is warm.
        self.patterns = [{row: rng.randrange(2) for row in rows}
                         for _ in range(SEED_CHOICES)]
        self.setup_dir = os.path.join(out_dir, "store-setup")
        self.store_dir = os.path.join(out_dir, "store-round")
        #: digest -> stored value of every grid point and baseline.
        self.entries: Dict[str, object] = {}

    def points(self) -> List[Tuple[str, str, float]]:
        return [(w, s, f) for w in self.PROGRAMS for s in self.SCHEMES
                for f in self.FREQS_MHZ]

    def warm_points(self) -> List[Tuple[str, str, float]]:
        pattern = self.patterns[self.choice()]
        return [(w, s, f) for w, s, f in self.points()
                if self.FREQS_MHZ.index(f) % 2 == pattern[w, s]]

    def spec(self, points) -> ExperimentSpec:
        return ExperimentSpec(
            name="perfbench-campaign",
            victim=fault_victim(duration_s=self.DURATION_S,
                                backend=self.backend),
            attack=AttackSpec.tone(), path=PathSpec.remote(),
            sweep={"*": [{"victim.workload": w, "victim.scheme": s,
                          "attack.freq_mhz": f} for w, s, f in points]},
            baseline=True, telemetry=True)

    def warm_digests(self) -> List[str]:
        """Store keys of this round's warm points and their baselines."""
        keys = set()
        for _, run in self.spec(self.warm_points()).expand():
            keys.add(run_digest(run))
            keys.add(run_digest(run.silenced()))
        return sorted(keys)

    def setup(self) -> None:
        """Run the whole grid cold once and keep what it stored."""
        shutil.rmtree(self.setup_dir, ignore_errors=True)
        store = ResultStore(self.setup_dir)
        try:
            CampaignRunner(workers=WORKERS, store=store).run(
                self.spec(self.points()))
            self.entries = {digest: entry["value"]
                            for digest, entry in store.entries()}
        finally:
            store.close()
            shutil.rmtree(self.setup_dir, ignore_errors=True)

    def expected_tasks(self) -> int:
        return len(self.points())

    def expected_hits(self) -> int:
        groups = len(self.PROGRAMS) * len(self.SCHEMES)
        return len(self.warm_points()) + groups   # + each row's baseline

    def summary(self):
        return {"warm_points": len(self.warm_points()),
                "first_pattern": self.choice()}

    def prepare(self) -> None:
        super().prepare()
        shutil.rmtree(self.store_dir, ignore_errors=True)
        store = ResultStore(self.store_dir)
        try:
            for digest in self.warm_digests():
                store.put(digest, self.entries[digest])
        finally:
            store.close()

    def round(self, task_span=nullcontext):
        store = ResultStore(self.store_dir)
        try:
            result = CampaignRunner(workers=WORKERS, store=store).run(
                self.spec(self.points()))
        finally:
            store.close()
        return result

    def finish(self) -> None:
        shutil.rmtree(self.store_dir, ignore_errors=True)

    @staticmethod
    def record(result) -> dict:
        return {"points": [None if o.result is None
                           else digest16(o.result.to_dict())
                           for o in result.outcomes],
                "metrics_fingerprint": result.metrics_fingerprint()}

    def check(self, result) -> Check:
        check = Check(attempted=len(result.outcomes))
        got = self.record(result)
        expected = self.refs.get("points", [])
        for outcome, value in zip(result.outcomes, got["points"]):
            ref = expected[outcome.index] \
                if outcome.index < len(expected) else None
            if not outcome.ok or value != ref:
                check.fail(1, f"point {outcome.index} {outcome.params}: "
                              f"{outcome.error or value} != reference {ref}")
        if got["metrics_fingerprint"] != self.refs.get("metrics_fingerprint"):
            check.fail(check.attempted, "metrics_fingerprint differs from "
                                        "the reference")
        if result.stats.store_hits != self.expected_hits():
            check.fail(check.attempted,
                       f"{result.stats.store_hits} store hits, expected "
                       f"{self.expected_hits()}")
        return check


# ----------------------------------------------------------------------
# torture-sweep: seeded crash-consistency fuzzing, both backends.
# ----------------------------------------------------------------------
class TortureSweep(Workload):
    """Serial seeded ``run_campaign`` with backend cross-checking over
    combos that are clean at every candidate seed; one task is one case."""

    name = "torture-sweep"
    COMBOS = (("crc16", "nvp"), ("blink", "gecko-jit"), ("glucose", "nvp"))
    CASES = 12

    def specs(self):
        return [torture.TortureSpec(workload=w, scheme=s, seed=self.choice(),
                                    cases=self.CASES, shrink=False)
                for w, s in self.COMBOS]

    def setup(self) -> None:
        # Compile and profile every target from scratch on each set-up.
        getattr(torture.engine, "_TARGET_CACHE", {}).clear()
        for workload, scheme in self.COMBOS:
            torture.build_target(workload, scheme)

    def expected_tasks(self) -> int:
        return len(self.COMBOS) * self.CASES

    def summary(self):
        return {"first_torture_seed": self.choice()}

    def round(self, task_span=nullcontext):
        return [torture.run_campaign(spec) for spec in self.specs()]

    @staticmethod
    def record(report) -> dict:
        return {"fingerprint": report.fingerprint,
                "cases": [digest16(case.outcome.to_dict())
                          for case in report.cases]}

    def check(self, reports) -> Check:
        check = Check(attempted=sum(len(r.cases) for r in reports))
        refs = self.refs.get("seeds", {}).get(str(self.choice()), {})
        for report in reports:
            combo = f"{report.spec.workload}/{report.spec.scheme}"
            ref = refs.get(combo, {})
            got = self.record(report)
            expected = ref.get("cases", [])
            for case, value in zip(report.cases, got["cases"]):
                ref_value = expected[case.index] \
                    if case.index < len(expected) else None
                if case.error or case.violating or value != ref_value:
                    found = case.error or sorted(case.outcome.oracles()) \
                        or value
                    check.fail(1, f"{combo} case {case.index}: {found} "
                                  f"(reference {ref_value})")
            if got["fingerprint"] != ref.get("fingerprint"):
                check.fail(len(report.cases),
                           f"{combo}: report fingerprint differs")
        return check


WORKLOADS = {cls.name: cls for cls in (SimAttack, FaultmapSlice,
                                        CampaignStore, TortureSweep)}

"""Torture-fuzzer benchmark: clean-sweep throughput and the planted-bug
time-to-find/shrink drill.

Two measurements back the `repro.torture` acceptance claims:

* **Clean sweep** — seeded campaigns (with backend cross-checking) over
  representative workload x scheme combos must finish with zero
  violations and zero infrastructure errors: the healthy tree survives
  its own adversary.  Throughput is recorded as cases/second.
* **Planted-bug drill** — with the stale-ISR-frame heal disabled
  (`tests/planted.py` patches `PeriphHub._heal` with a no-op), the same
  bounded seeded campaign must find violations, shrink every distinct
  finding to <= 8 events, and produce repro cases whose recorded
  fingerprints replay bit-identically on both backends.  Run it from the
  repository root (`python -m pytest benchmarks/bench_torture.py`) so
  the `tests` package imports.
"""

import time

from _util import emit, run_once

from repro.torture import TortureCorpus, TortureSpec, run_campaign
from tests.planted import heal_skipped

CLEAN_COMBOS = (
    ("blink", "gecko-jit"),
    ("crc16", "nvp"),
    ("heartbeat", "gecko-rollback"),
)
CLEAN_CASES = 10
PLANTED_SPEC = TortureSpec(workload="heartbeat", scheme="gecko-rollback",
                           seed=0, cases=15, shrink_budget=150)
MAX_REPRO_EVENTS = 8


def _clean_sweep() -> dict:
    rows = {}
    for workload, scheme in CLEAN_COMBOS:
        spec = TortureSpec(workload=workload, scheme=scheme, seed=0,
                           cases=CLEAN_CASES)
        start = time.perf_counter()
        report = run_campaign(spec)
        elapsed = time.perf_counter() - start
        assert report.violations == 0, \
            (workload, scheme, report.summary())
        assert report.errors == 0, (workload, scheme)
        rows[f"{workload}/{scheme}"] = {
            "cases": len(report.cases),
            "cases_per_s": len(report.cases) / elapsed,
            "fingerprint": report.fingerprint,
            "wall_s": elapsed,
        }
    return rows


def _planted_drill(tmp_root: str) -> dict:
    with heal_skipped():
        start = time.perf_counter()
        report = run_campaign(PLANTED_SPEC)
        elapsed = time.perf_counter() - start
    assert report.violations >= 1, "planted bug escaped the budget"
    assert report.repro_cases, "no repro cases produced"
    first_hit = min(case.index for case in report.cases if case.violating)
    shrink_runs = sum(case.shrink_runs for case in report.cases)
    event_counts = [len(case.events) for case in report.repro_cases]
    assert max(event_counts) <= MAX_REPRO_EVENTS, event_counts

    corpus = TortureCorpus.open(tmp_root)
    with heal_skipped():
        for case in report.repro_cases:
            corpus.add(case)
        replays = corpus.replay_all()
    assert all(result.ok for results in replays.values()
               for result in results), "replay drifted from the recording"
    return {
        "cases": len(report.cases),
        "violations": report.violations,
        "first_violating_case": first_hit,
        "repro_cases": len(report.repro_cases),
        "repro_event_counts": sorted(event_counts),
        "shrink_runs": shrink_runs,
        "replay_checks": sum(len(r) for r in replays.values()),
        "wall_s": elapsed,
    }


def _experiment():
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        return {
            "clean": _clean_sweep(),
            "planted": _planted_drill(tmp),
        }


def test_torture(benchmark):
    data = run_once(benchmark, _experiment)
    lines = [f"Torture fuzzer: clean sweep ({CLEAN_CASES} cases/combo, "
             f"backend cross-checked) + planted-bug drill",
             f"{'combo':<26} {'cases':>5} {'cases/s':>8} {'wall':>7}"]
    for combo, row in data["clean"].items():
        lines.append(f"{combo:<26} {row['cases']:>5} "
                     f"{row['cases_per_s']:>8.2f} {row['wall_s']:>6.1f}s")
    p = data["planted"]
    lines.append("")
    lines.append(
        f"planted bug: first hit at case {p['first_violating_case']} of "
        f"{p['cases']}, {p['violations']} violations -> "
        f"{p['repro_cases']} distinct repro cases "
        f"(events: {p['repro_event_counts']}, "
        f"{p['shrink_runs']} shrink probes), "
        f"{p['replay_checks']} bit-identical replays, "
        f"{p['wall_s']:.1f}s wall")
    emit("torture", lines, data)

    assert p["repro_event_counts"][-1] <= MAX_REPRO_EVENTS

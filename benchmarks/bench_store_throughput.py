"""Result-store serving throughput: the warm-hit floor.

The store's reason to exist is that a warm hit costs one indexed lookup
in the store's SQLite database instead of a simulation.  This bench
populates a store with encoded SimResults, reopens it cold (a fresh
connection, the honest serving posture), and measures `get` throughput
over a shuffled digest schedule.
The floor asserted here — 10,000 served results/sec — is the acceptance
bar for this subsystem; a simulation of the same run costs ~10-100 ms,
so a warm hit is a 10^3-10^4x win.
"""

import random
import time

from _util import emit, run_once

from repro.store import ResultStore, content_digest

ENTRIES = 2_000
READS = 20_000
FLOOR_PER_SEC = 10_000


def _fake_result(i: int) -> dict:
    """Shaped like an encoded SimResult: a realistic value payload."""
    return {
        "duration_s": 0.03, "completions": i % 7, "reboots": i % 23,
        "brownouts": i % 5, "jit_checkpoints": i % 31,
        "jit_checkpoint_failures": 0, "attacks_detected": i % 3,
        "final_state": "on", "machine_fault": None,
        "metrics": {f"sim.metric_{k}": float(i * k) for k in range(8)},
    }


def _populate(root: str) -> list:
    store = ResultStore(root)
    digests = []
    for i in range(ENTRIES):
        digest = content_digest(["bench-run", i])
        store.put(digest, _fake_result(i), meta={"name": "bench"})
        digests.append(digest)
    store.close()
    return digests


def test_warm_store_serving_floor(benchmark, tmp_path):
    root = str(tmp_path / "store")
    digests = _populate(root)

    def serve():
        store = ResultStore(root)
        schedule = list(digests) * (READS // ENTRIES)
        random.Random(0).shuffle(schedule)
        start = time.perf_counter()
        for digest in schedule:
            entry = store.get(digest)
            assert entry is not None
        elapsed = time.perf_counter() - start
        return len(schedule), elapsed

    reads, elapsed = run_once(benchmark, serve)
    per_sec = reads / elapsed
    emit("store_throughput", [
        f"entries in store:     {ENTRIES}",
        f"warm gets served:     {reads}",
        f"wall time:            {elapsed:.3f} s",
        f"served results/sec:   {per_sec:,.0f}",
        f"floor:                {FLOOR_PER_SEC:,} /sec",
    ], data={"entries": ENTRIES, "reads": reads, "elapsed_s": elapsed,
             "per_sec": per_sec, "floor_per_sec": FLOOR_PER_SEC})
    assert per_sec >= FLOOR_PER_SEC, (
        f"warm store serves {per_sec:,.0f} results/sec, "
        f"below the {FLOOR_PER_SEC:,}/sec floor")

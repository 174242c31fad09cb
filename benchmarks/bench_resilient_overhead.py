"""Resilient dispatch overhead: the async loop vs the old bare pool.map.

The resilient executor replaced ``pool.map`` with an async dispatch loop
(apply_async + beacon + watchdog bookkeeping).  On a *healthy* sweep —
no crashes, no timeouts, no retries — that machinery must be close to
free: the acceptance target is a wall-time regression of at most 5% on
the reference grid.  Both paths get the same compiled cache, the same
worker count, and pay their own pool spawn, so the measured delta is the
dispatch mechanism alone (plus completion-detection latency, bounded by
the executor's poll period).
"""

import multiprocessing
import time

from _util import emit, run_once

from repro.eval.campaign import (
    AttackSpec,
    ExperimentSpec,
    VictimConfig,
    _run_point,
)
from repro.eval.resilient import ResilientExecutor, default_start_method

WORKERS = 2
REPEATS = 3
FREQS_MHZ = [20, 22, 24, 26, 27, 28, 30, 32, 34, 35, 38, 41]


def _grid():
    spec = ExperimentSpec(
        name="bench-resilient",
        victim=VictimConfig(workload="blink", duration_s=0.03),
        attack=AttackSpec.tone(tx_dbm=35.0),
        sweep={"attack.freq_mhz": FREQS_MHZ},
        baseline=False,
    )
    return [(index, run) for index, (_, run) in enumerate(spec.expand())]


#: The legacy path's per-worker compile cache, set by its initializer.
_LEGACY_CACHE = {}


def _legacy_init(cache):
    global _LEGACY_CACHE
    _LEGACY_CACHE = cache


def _map_task(task):
    index, run = task
    return index, _run_point(_LEGACY_CACHE, run)


def _run_legacy(tasks, cache):
    """The pre-resilience path: a bare ``pool.map`` over the grid."""
    ctx = multiprocessing.get_context(default_start_method())
    with ctx.Pool(processes=WORKERS, initializer=_legacy_init,
                  initargs=(cache,)) as pool:
        return pool.map(_map_task, tasks)


def _run_resilient(tasks, cache):
    executor = ResilientExecutor(_run_point, workers=WORKERS, context=cache)
    return executor.run(tasks)


def _best_of(fn, tasks, cache, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        results = fn(tasks, cache)
        best = min(best, time.perf_counter() - start)
        assert len(results) == len(tasks)
    return best


def _experiment():
    tasks = _grid()
    cache = {tasks[0][1].compile_key(): tasks[0][1].victim.compile()}
    legacy = _best_of(_run_legacy, tasks, cache)
    resilient = _best_of(_run_resilient, tasks, cache)

    # The dispatch loop must not change what comes back, either.
    legacy_results = dict(_run_legacy(tasks, cache))
    for outcome in _run_resilient(tasks, cache):
        assert outcome.ok
        assert outcome.result == legacy_results[outcome.index]

    return {
        "grid_points": len(tasks),
        "workers": WORKERS,
        "best_of": REPEATS,
        "wall_s": {"pool_map": legacy, "resilient": resilient},
        "overhead": resilient / legacy - 1.0,
    }


def test_resilient_overhead(benchmark):
    data = run_once(benchmark, _experiment)
    legacy = data["wall_s"]["pool_map"]
    resilient = data["wall_s"]["resilient"]
    lines = [
        f"healthy {data['grid_points']}-point sweep, "
        f"{data['workers']} workers, best of {data['best_of']}",
        f"{'path':<12} {'wall ms':>9}",
        f"{'pool.map':<12} {legacy*1e3:>9.1f}",
        f"{'resilient':<12} {resilient*1e3:>9.1f}",
        f"overhead: {data['overhead']:+.1%}  (target: <= +5%)",
    ]
    emit("resilient_overhead", lines, data)
    # Hard gate with noise headroom; the precise figure is the artifact.
    assert resilient <= legacy * 1.15

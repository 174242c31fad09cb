"""Resilient dispatch overhead: the executor's pool vs a bare pool.map.

The resilient executor replaced ``pool.map`` with a dispatch loop over
worker processes it owns (one pipe per worker, one run at a time, a
blocking wait on pipes and exit sentinels, watchdog bookkeeping).  On a
*healthy* sweep — no crashes, no timeouts, no retries — that machinery
must be close to free: the acceptance target is a wall-time regression
of at most 5% on the reference grid.  Both paths get the same compiled
cache, the same worker count, and pay their own worker start-up, so the
measured delta is the dispatch mechanism alone (including the one pipe
round trip per run between a result and the worker's next run).

The host drifts between any two measurements, so the two paths are
timed in interleaved pairs: each pair times both paths back to back,
alternating which goes first, each over a window of at least
``WINDOW_S`` of repeated whole sweeps.  The reported overhead is the
median of the per-pair ratios of mean sweep times, and the gate applies
to that median.
"""

import multiprocessing
import statistics
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
PAIRS = 9
WINDOW_S = 1.5
PATHS = ("pool_map", "resilient")
GATE = 1.15
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


def _window(fn, tasks, cache) -> float:
    """Mean wall time of whole sweeps repeated for at least
    ``WINDOW_S``."""
    sweeps = 0
    start = time.perf_counter()
    while time.perf_counter() - start < WINDOW_S:
        assert len(fn(tasks, cache)) == len(tasks)
        sweeps += 1
    return (time.perf_counter() - start) / sweeps


def _experiment():
    tasks = _grid()
    cache = {tasks[0][1].compile_key(): tasks[0][1].victim.compile()}
    paths = {"pool_map": _run_legacy, "resilient": _run_resilient}
    pairs = []
    for index in range(PAIRS):
        order = PATHS if index % 2 == 0 else PATHS[::-1]
        pairs.append({name: _window(paths[name], tasks, cache)
                      for name in order})
    ratios = sorted(pair["resilient"] / pair["pool_map"]
                    for pair in pairs)

    # The dispatch loop must not change what comes back, either.
    legacy_results = dict(_run_legacy(tasks, cache))
    for outcome in _run_resilient(tasks, cache):
        assert outcome.ok
        assert outcome.result == legacy_results[outcome.index]

    return {
        "grid_points": len(tasks),
        "workers": WORKERS,
        "pairs": PAIRS,
        "window_s": WINDOW_S,
        "wall_s": {name: statistics.median(pair[name] for pair in pairs)
                   for name in PATHS},
        "ratio": statistics.median(ratios),
        "ratio_range": [ratios[0], ratios[-1]],
        "gate": GATE,
    }


def test_resilient_overhead(benchmark):
    data = run_once(benchmark, _experiment)
    low, high = data["ratio_range"]
    lines = [
        f"healthy {data['grid_points']}-point sweep, "
        f"{data['workers']} workers, median of {data['pairs']} "
        f"interleaved pairs of >= {data['window_s']}s windows",
        f"{'path':<12} {'wall ms':>9}",
        f"{'pool.map':<12} {data['wall_s']['pool_map']*1e3:>9.1f}",
        f"{'resilient':<12} {data['wall_s']['resilient']*1e3:>9.1f}",
        f"overhead: {data['ratio'] - 1:+.1%}  (pairs {low - 1:+.1%} to "
        f"{high - 1:+.1%}; target: <= +5%)",
    ]
    emit("resilient_overhead", lines, data)
    # Hard gate with noise headroom; the precise figure is the artifact.
    assert data["ratio"] <= data["gate"], \
        f"median resilient/pool.map ratio {data['ratio']:.3f} > " \
        f"{data['gate']}"

"""Execution-backend throughput: interpreter vs. threaded-code blocks.

The threaded backend precompiles every basic block of a LinkedProgram
into a specialized closure — operand indices and symbol addresses bound
at compile time, per-block cycle costs pre-summed, hooks checked only at
block boundaries.  This benchmark measures what that buys: simulated
cycles per wall-clock second on the two ISSUE-designated workloads
(crc16 and dhrystone), in two regimes:

* **raw** — ``run_slice`` with a one-million-instruction budget, the
  upper bound where block dispatch dominates;
* **quantum=128** — simulator-shaped slices, the price actually paid
  inside :class:`~repro.runtime.IntermittentSimulator`.

The acceptance bar (enforced here and cross-checked in CI) is a >=10x
raw speedup on both workloads with byte-identical results — equivalence
itself is asserted test-by-test in ``tests/test_backends.py``.

The host drifts between any two measurements, so the backends are
measured in interleaved pairs: each pair times both backends back to
back, alternating which goes first, each over a window of at least
``WINDOW_S`` of repeated full runs.  The reported speedup is the median
of the per-pair ratios; the cycles/s columns are per-backend medians.
"""

import statistics
import time

from _util import bar, emit, run_once

from repro.core import compile_nvp
from repro.runtime import Machine, backend_for
from repro.workloads import source

WORKLOADS = ("crc16", "dhrystone")
BACKENDS = ("interpreter", "threaded")
PAIRS = 9
WINDOW_S = 0.5
RAW_BUDGET = 1_000_000
QUANTUM = 128
SPEEDUP_FLOOR = 10.0


def _run_to_halt(machine, backend, budget: int) -> int:
    """Slice ``machine`` to halt; its simulated cycles."""
    cycles = 0
    while not machine.halted:
        sliced, fault = backend.run_slice(machine, budget)
        cycles += sliced
        assert fault is None
    return cycles


def _window(program, backend, budget: int) -> float:
    """Simulated cycles per wall second over at least ``WINDOW_S`` of
    full runs from reset (machine construction untimed)."""
    cycles = 0
    elapsed = 0.0
    while elapsed < WINDOW_S:
        machine = Machine(program.linked)
        start = time.perf_counter()
        cycles += _run_to_halt(machine, backend, budget)
        elapsed += time.perf_counter() - start
    return cycles / elapsed


def _interleaved(program, budget: int) -> dict:
    """``PAIRS`` interleaved windows per backend; median rates and the
    median and range of the per-pair threaded/interpreter ratios."""
    backends = {name: backend_for(name) for name in BACKENDS}
    for backend in backends.values():
        # Untimed: the threaded backend compiles its blocks here.
        _run_to_halt(Machine(program.linked), backend, budget)
    pairs = []
    for index in range(PAIRS):
        order = BACKENDS if index % 2 == 0 else BACKENDS[::-1]
        pairs.append({name: _window(program, backends[name], budget)
                      for name in order})
    ratios = sorted(pair["threaded"] / pair["interpreter"]
                    for pair in pairs)
    return {
        "cycles_per_s": {name: statistics.median(pair[name]
                                                 for pair in pairs)
                         for name in BACKENDS},
        "speedup": statistics.median(ratios),
        "speedup_range": [ratios[0], ratios[-1]],
    }


def _experiment():
    rows = {}
    for workload in WORKLOADS:
        program = compile_nvp(source(workload))
        rows[workload] = {"raw": _interleaved(program, RAW_BUDGET),
                          "quantum": _interleaved(program, QUANTUM)}
    return {"budget": RAW_BUDGET, "quantum": QUANTUM, "pairs": PAIRS,
            "window_s": WINDOW_S, "speedup_floor": SPEEDUP_FLOOR,
            "workloads": rows}


def test_backend_speed(benchmark):
    data = run_once(benchmark, _experiment)
    lines = [f"Backend throughput (simulated cycles/s; median of "
             f"{data['pairs']} interleaved pairs of >= {data['window_s']}s "
             f"windows; raw budget {data['budget']}, "
             f"quantum {data['quantum']})",
             f"{'workload':<11} {'regime':<12} {'interpreter':>12} "
             f"{'threaded':>12} {'speedup':>8} {'range':>12}"]
    for workload, row in data["workloads"].items():
        for regime, key in (("raw", "raw"), ("quantum=128", "quantum")):
            rates = row[key]["cycles_per_s"]
            speedup = row[key]["speedup"]
            span = "{:.1f}-{:.1f}x".format(*row[key]["speedup_range"])
            lines.append(
                f"{workload:<11} {regime:<12} "
                f"{rates['interpreter']:>12,.0f} "
                f"{rates['threaded']:>12,.0f} {speedup:>7.1f}x "
                f"{span:>12} {bar(speedup, maximum=20.0)}")
    emit("backend_speed", lines, data)
    for workload, row in data["workloads"].items():
        speedup = row["raw"]["speedup"]
        assert speedup >= data["speedup_floor"], \
            f"{workload}: median raw speedup {speedup:.1f}x < " \
            f"{data['speedup_floor']}x floor"

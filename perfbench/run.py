"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload sim-attack --seed 0 --seconds 25 --trace 0

The benchmark imports ``repro`` from ``src/`` of the checkout it lives
in, sets up the workload, then repeats the workload's fixed round until
``--seconds`` have passed, checking every round's outputs against
``perfbench/references.json``.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` runs half the time untraced and half traced and
reports the per-layer metrics, and writes the traced spans as a Perfetto
timeline to ``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import multiprocessing
import os
import random
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import contextmanager
from time import perf_counter

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

#: Every workload imports the same modules, so import time compares.
IMPORTS = ("repro", "repro.runtime", "repro.runtime.threaded",
           "repro.eval.campaign", "repro.exhaustive", "repro.faultsim",
           "repro.store", "repro.torture", "repro.obs")

#: Set-ups per run; ``setup_s`` reports their median (plus the import).
SETUP_REPEATS = 3
#: Rounds a run makes at least, however long they take.
MIN_ROUNDS = 3

#: Steps of the calibration loop, and the seconds it takes on the
#: reference host.  The benchmark host is shared and its speed drifts by
#: tens of percent over seconds to minutes, so every reported time is
#: scaled by ``CALIBRATION_REF_S / (calibration time next to it)``.
CALIBRATION_N = 50_000
CALIBRATION_REF_S = 0.016

_ROUND = tracing.Site(tracing.BENCH, "bench.round")
_TASK = tracing.Site(tracing.BENCH, "bench.task")


def import_repro() -> float:
    """Import ``repro`` from the checkout's ``src/``; returns seconds."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no repro source tree under {src}")
    sys.path.insert(0, src)
    start = perf_counter()
    for name in IMPORTS:
        importlib.import_module(name)
    return perf_counter() - start


def load_references() -> dict:
    with open(os.path.join(HERE, "references.json")) as handle:
        return json.load(handle)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child
    (a pool worker), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# ----------------------------------------------------------------------
# Calibration.
# ----------------------------------------------------------------------
class _ToyCpu:
    """State of the calibration loop's toy machine."""

    __slots__ = ("regs", "pc", "cycles", "mem")

    def __init__(self) -> None:
        self.regs = [0] * 16
        self.pc = 0
        self.cycles = 0
        self.mem: dict = {}


def _toy_add(cpu, a, b):
    cpu.regs[a] = (cpu.regs[a] + cpu.regs[b] + 1) & 0xFFFFFFFF
    return 1


def _toy_xor(cpu, a, b):
    cpu.regs[a] ^= (cpu.regs[b] << 3) & 0xFFFFFFFF
    return 1


def _toy_load(cpu, a, b):
    cpu.regs[a] = cpu.mem.get(cpu.regs[b] & 0x3FFF, 0)
    return 2


def _toy_store(cpu, a, b):
    cpu.mem[cpu.regs[b] & 0x3FFF] = cpu.regs[a]
    return 2


def _toy_program(length: int = 4096) -> list:
    rng = random.Random("perfbench:calibration")
    ops = (_toy_add, _toy_xor, _toy_load, _toy_store)
    return [(rng.choice(ops), rng.randrange(16), rng.randrange(16))
            for _ in range(length)]


_TOY_PROGRAM = _toy_program()


def calibration_loop() -> float:
    """Seconds a fixed pure-Python toy machine takes to run on this host
    right now.  Slot access, calls through a table and dict memory are the
    kind of work the simulator does (a smaller loop tracked the host's
    speed changes less well), but none of its code."""
    cpu = _ToyCpu()
    program = _TOY_PROGRAM
    wrap = len(program) - 1
    start = perf_counter()
    for _ in range(CALIBRATION_N):
        op, a, b = program[cpu.pc]
        cpu.cycles += op(cpu, a, b)
        cpu.pc = (cpu.pc + 1) & wrap
    return perf_counter() - start


def _calibration_helper(conn) -> None:
    """Helper process: run the loop whenever the benchmark asks."""
    while conn.recv():
        conn.send(calibration_loop())


class Calibrator:
    """Times the calibration loop on as many CPUs at once as the workload
    keeps busy: a pooled workload is slowed by contention on either CPU,
    which a loop on one CPU does not see.  Helper processes wait on a
    pipe between calibrations.  They are forked, like the pool workers:
    the spawn start method would also start multiprocessing's resource
    tracker, a process nobody waits for."""

    def __init__(self, cpus: int) -> None:
        ctx = multiprocessing.get_context("fork")
        self.helpers = []
        for _ in range(cpus - 1):
            conn, child = ctx.Pipe()
            proc = ctx.Process(target=_calibration_helper, args=(child,),
                               daemon=True)
            proc.start()
            child.close()
            self.helpers.append((proc, conn))

    def __call__(self) -> float:
        for _, conn in self.helpers:
            conn.send(True)
        times = [calibration_loop()]
        times += [conn.recv() for _, conn in self.helpers]
        return statistics.mean(times)

    def close(self) -> None:
        for proc, conn in self.helpers:
            conn.send(False)
            proc.join(timeout=10)
            if proc.is_alive():
                proc.kill()
                proc.join()
            conn.close()
        self.helpers = []


def stop_resource_tracker() -> None:
    """Stop and reap multiprocessing's resource tracker if anything started
    it, so that no process of the run outlives it."""
    from multiprocessing import resource_tracker
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def scale(seconds: float, *calibrations: float) -> float:
    """Host seconds scaled to the reference host's speed."""
    return seconds * CALIBRATION_REF_S * len(calibrations) \
        / sum(calibrations)


# ----------------------------------------------------------------------
# Rounds.
# ----------------------------------------------------------------------
class Rounds:
    """Runs rounds, times the work only, and totals the checks.  A
    calibration runs before the first round and after every round; a
    round's scaled time uses the two next to it.  With ``per_task``, a
    workload whose round reports its tasks (sim-attack) is also calibrated
    after every task, and each task is scaled by the two calibrations next
    to it: the host's speed changes within a round of a second or two."""

    def __init__(self, workload, calibrate, rec=None,
                 per_task: bool = False) -> None:
        self.workload = workload
        self.calibrate = calibrate
        #: With a recorder, the tracing wrappers are installed around each
        #: round's timed work only, not its preparation or check.
        self.rec = rec
        self.per_task = per_task
        self.missing: list = []
        self.times: list = []
        self.scaled: list = []
        self.tasks: list = []
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        #: Peak RSS once ``MIN_ROUNDS`` rounds are done, so that it does not
        #: depend on how many rounds the host's speed allows.
        self.peak_rss_mb = 0.0
        self._calibration = 0.0

    @contextmanager
    def _span(self, site, task):
        frame = self.rec.enter(site, True, task) if self.rec else None
        try:
            yield
        finally:
            if frame is not None:
                self.rec.exit(frame)

    @contextmanager
    def _calibrated(self, span, pieces: list):
        """One task, calibrated right after it; appends (host seconds,
        scaled seconds, calibration seconds) to ``pieces``."""
        before = self._calibration
        start = perf_counter()
        with span:
            yield
        elapsed = perf_counter() - start
        self._calibration = self.calibrate()
        pieces.append((elapsed, scale(elapsed, before, self._calibration),
                       perf_counter() - start - elapsed))

    def run_one(self) -> None:
        workload = self.workload
        index = len(self.times)
        counter = iter(range(1 << 30))
        pieces: list = []

        def task_span():
            span = self._span(_TASK, f"r{index}.t{next(counter)}")
            return self._calibrated(span, pieces) if self.per_task else span

        workload.prepare()
        before = self._calibration if self.times else self.calibrate()
        self._calibration = before
        inst = tracing.install(self.rec) if self.rec is not None else None
        start = perf_counter()
        outputs = None
        try:
            with self._span(_ROUND, f"r{index}"):
                outputs = workload.round(task_span)
        except Exception:
            traceback.print_exc(file=sys.stderr)
        finally:
            elapsed = perf_counter() - start
            if inst is not None:
                inst.undo()
                self.missing = inst.missing
        check = workload.check(outputs) if outputs is not None else None
        workload.finish()
        self._calibration = self.calibrate()
        if check is None:
            attempted = failed = workload.expected_tasks()
            self.problems.append(f"round {index} raised")
        else:
            attempted, failed = check.attempted, check.failed
            self.problems.extend(check.problems)
        # Work outside the calibrated tasks is scaled as a whole round.
        elapsed -= sum(calibration for _, _, calibration in pieces)
        outside = elapsed - sum(seconds for seconds, _, _ in pieces)
        self.times.append(elapsed)
        self.scaled.append(sum(scaled for _, scaled, _ in pieces)
                           + scale(outside, before, self._calibration))
        self.tasks.append(attempted)
        self.attempted += attempted
        self.failed += failed
        if len(self.times) == MIN_ROUNDS:
            self.peak_rss_mb = peak_rss_mb()

    def run_for(self, seconds: float, min_rounds: int = MIN_ROUNDS) -> None:
        start = perf_counter()
        while len(self.times) < min_rounds \
                or perf_counter() - start < seconds:
            self.run_one()

    def wall_s(self) -> float:
        return statistics.median(self.scaled)

    def tasks_per_s(self) -> float:
        return statistics.median(n / t for n, t in zip(self.tasks,
                                                      self.scaled))


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, calibrate, import_s: float, seconds: float):
    calibration = calibrate()
    scaled_import = scale(import_s, calibration)
    setups = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        workload.setup()
        elapsed = perf_counter() - start
        after = calibrate()
        setups.append(scale(elapsed, calibration, after))
        calibration = after
    rounds = Rounds(workload, calibrate, per_task=True)
    rounds.run_for(seconds)
    print(f"# set-up (scaled) {scaled_import:.3f}s import + "
          f"{', '.join(f'{s:.3f}' for s in setups)}s")
    return [rounds], {
        "setup_s": metric(scaled_import + statistics.median(setups), "s"),
        "wall_s": metric(rounds.wall_s(), "s"),
        "tasks_per_s": metric(rounds.tasks_per_s(), "1/s"),
        "peak_rss_mb": metric(rounds.peak_rss_mb, "MiB"),
    }


def traced(workload, calibrate, import_s: float, seconds: float,
           seed: int):
    from repro.obs import validate_perfetto

    spool = os.path.join(OUT_DIR, f"spool-{os.getpid()}")
    shutil.rmtree(spool, ignore_errors=True)
    os.makedirs(spool)
    rec = tracing.Recorder(spool)
    inst = tracing.install(rec)
    try:
        workload.setup()
    finally:
        inst.undo()
    rec.collect_workers()
    setup_compile_s = rec.counters.get("tot:core", 0.0)

    untraced = Rounds(workload, calibrate)
    untraced.run_for(seconds / 2, min_rounds=2)

    rec = tracing.Recorder(spool)
    traced_rounds = Rounds(workload, calibrate, rec)
    traced_rounds.run_for(seconds / 2, min_rounds=2)
    workers = rec.collect_workers()
    shutil.rmtree(spool, ignore_errors=True)
    if traced_rounds.missing:
        print(f"# hook points not found: {', '.join(traced_rounds.missing)}",
              file=sys.stderr)

    metrics = tracing.per_layer_metrics(
        rec, rounds=len(traced_rounds.times), import_s=import_s,
        setup_compile_s=setup_compile_s,
        untraced_wall_s=untraced.wall_s(),
        traced_wall_s=traced_rounds.wall_s())
    trace = tracing.perfetto_trace(rec.spans, os.getpid())
    validate_perfetto(trace)
    path = os.path.join(OUT_DIR, f"trace-{workload.name}-{seed}.json")
    with open(path, "w") as handle:
        json.dump(trace, handle)
        handle.write("\n")
    print(f"# traced {len(traced_rounds.times)} rounds "
          f"({len(rec.spans)} spans, {workers} worker pids) -> {path}")
    return [untraced, traced_rounds], {
        name: metric(value, unit) for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_s = import_repro()
    import workloads

    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(one of {', '.join(workloads.WORKLOADS)})")
    os.makedirs(OUT_DIR, exist_ok=True)
    workload = cls(args.seed, OUT_DIR, load_references())
    print(f"# {workload.name} seed {args.seed}: {workload.summary()}")
    calibrate = Calibrator(workload.CPUS)
    try:
        if args.trace:
            runs, metrics = traced(workload, calibrate, import_s,
                                   args.seconds, args.seed)
        else:
            runs, metrics = end_to_end(workload, calibrate, import_s,
                                       args.seconds)
    finally:
        calibrate.close()
        stop_resource_tracker()
    attempted = sum(rounds.attempted for rounds in runs)
    failed = sum(rounds.failed for rounds in runs)
    problems = [problem for rounds in runs for problem in rounds.problems]
    for label in ("times", "scaled"):
        times = sorted(t for rounds in runs for t in getattr(rounds, label))
        print(f"# {len(times)} rounds, {attempted} tasks, {failed} failed; "
              f"{label} round s min {times[0]:.4f} "
              f"median {statistics.median(times):.4f} max {times[-1]:.4f}")
    for problem in problems[:20]:
        print(f"# FAILED {problem}")
    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

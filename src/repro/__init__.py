"""GECKO reproduction: EMI attacks on JIT checkpointing, and the defense.

A full-system simulation reproduction of "Defending Against EMI Attacks on
Just-In-Time Checkpoint for Resilient Intermittent Systems" (MICRO 2024):

* :mod:`repro.lang`, :mod:`repro.ir`, :mod:`repro.compiler` — a MiniC
  compiler substrate (substituting for the paper's LLVM toolchain);
* :mod:`repro.core` — GECKO itself: idempotent regions, WCET splitting,
  checkpoint pruning, recovery blocks, 2-colored double buffering;
* :mod:`repro.energy`, :mod:`repro.analog`, :mod:`repro.emi` — the
  hardware substrates: capacitor/harvester models, voltage monitors, and
  the EMI attack channel;
* :mod:`repro.runtime` — NVP (JIT), Ratchet (rollback) and GECKO runtimes
  plus the whole-system intermittent simulator;
* :mod:`repro.workloads` — the eleven MiniC benchmark applications.

Quickstart::

    from repro import compile_gecko, simulate_program
    from repro.workloads import source

    program = compile_gecko(source("crc32"))
    result = simulate_program(program, duration_s=0.5)
"""

from .core import (
    CompiledProgram,
    CompileStats,
    compile_gecko,
    compile_nvp,
    compile_ratchet,
    compile_scheme,
)
from .errors import ReproError

__version__ = "1.0.0"


def simulate_program(compiled, duration_s: float = 0.5, runtime=None,
                     power=None, attack=None, path=None, device=None,
                     monitor_kind: str = "adc", config=None,
                     backend: str = "interpreter"):
    """One-call simulation: build a machine + runtime and run a window.

    Args:
        compiled: a :class:`~repro.core.CompiledProgram`.
        duration_s: simulated wall-clock seconds.
        runtime: crash-consistency runtime (defaults to the scheme's own).
        power: a :class:`~repro.energy.PowerSystem` (defaults to a bench
            supply and a 1 mF capacitor).
        attack: an :class:`~repro.emi.AttackSchedule` (default: silent).
        path: propagation path (default: 5 m remote).
        device: a :class:`~repro.emi.DeviceProfile` (default: FR5994).
        monitor_kind: ``"adc"`` or ``"comp"``.
        config: a :class:`~repro.runtime.SimConfig`.
        backend: execution backend, ``"interpreter"`` (reference) or
            ``"threaded"`` (precompiled blocks, ~9-16x faster, identical
            results) — see ``docs/execution-backends.md``.

    Returns:
        A :class:`~repro.runtime.SimResult`.
    """
    from .energy import PowerSystem
    from .runtime import IntermittentSimulator, Machine, runtime_for

    machine = Machine(compiled.linked)
    sim = IntermittentSimulator(
        machine=machine,
        runtime=runtime or runtime_for(compiled),
        power=power or PowerSystem(),
        attack=attack,
        path=path,
        device_profile=device,
        monitor_kind=monitor_kind,
        config=config,
        backend=backend,
    )
    return sim.run(duration_s)


__all__ = [
    "CompileStats", "CompiledProgram", "ReproError", "compile_gecko",
    "compile_nvp", "compile_ratchet", "compile_scheme", "simulate_program",
    "__version__",
]

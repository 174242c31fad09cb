"""Runtimes and the intermittent-system simulator."""

from .backend import (
    BACKEND_NAMES,
    ExecutionBackend,
    InterpreterBackend,
    backend_for,
    drain,
)
from .gecko_runtime import GeckoRuntime, MODE_JIT, MODE_ROLLBACK
from .machine import (
    Machine,
    MachineSnapshot,
    StepResult,
    default_sensor_stream,
    run_to_completion,
)
from .metrics import (
    OutputCheck,
    check_outputs,
    forward_progress_rate,
    progress_timeline,
    relative_throughput,
)
from .nvp import NVPRuntime, RuntimeStats
from .rollback import RollbackRuntime, build_region_table, execute_slice
from .simulator import (
    ATTACK_HARVEST_EFFICIENCY,
    DeviceState,
    IntermittentSimulator,
    SimConfig,
    SimResult,
)
from .threaded import ThreadedBackend
from .trace import TraceEvent, Tracer

__all__ = [
    "ATTACK_HARVEST_EFFICIENCY", "BACKEND_NAMES", "DeviceState",
    "ExecutionBackend", "GeckoRuntime",
    "IntermittentSimulator", "InterpreterBackend", "MODE_JIT",
    "MODE_ROLLBACK", "Machine", "MachineSnapshot",
    "NVPRuntime", "OutputCheck", "RollbackRuntime", "RuntimeStats",
    "SimConfig", "SimResult", "StepResult", "ThreadedBackend",
    "TraceEvent", "Tracer",
    "backend_for", "build_region_table",
    "check_outputs", "default_sensor_stream",
    "drain", "execute_slice", "forward_progress_rate", "progress_timeline",
    "relative_throughput", "run_to_completion",
]


def runtime_for(compiled, scheme: str = None):
    """Instantiate the crash-consistency runtime matching a compiled program.

    ``nvp`` -> :class:`NVPRuntime`, ``ratchet`` -> :class:`RollbackRuntime`,
    ``gecko``/``gecko-nopruning`` -> :class:`GeckoRuntime`.
    """
    name = scheme or compiled.scheme
    if name == "nvp":
        return NVPRuntime()
    if name == "ratchet":
        return RollbackRuntime(compiled.linked)
    if name in ("gecko", "gecko-nopruning"):
        return GeckoRuntime(compiled.linked)
    raise ValueError(f"no runtime for scheme {name!r}")

"""Pluggable execution backends (the ``ExecutionBackend`` protocol).

Every consumer that advances a :class:`~repro.runtime.machine.Machine` —
the intermittent simulator's run slices, stable-power convenience runs,
fault campaigns — does so through a backend implementing one method::

    run_slice(machine, budget) -> (cycles, fault)

A slice executes *at most* ``budget`` instructions (fewer when the
machine halts, loses power, or traps), returns the cycles consumed, and
returns — never raises — any :class:`~repro.errors.MachineFault` or
:class:`~repro.errors.SimulationError` raised mid-slice.  Cycles already
consumed before a fault are still reported, matching the simulator's
partial-cycle charging: a trapped instruction's predecessors still drew
energy.

Two backends ship:

* :class:`InterpreterBackend` — the reference semantics: a thin loop
  over :meth:`Machine.step`.
* :class:`~repro.runtime.threaded.ThreadedBackend` — precompiled
  basic-block closures (threaded code); byte-identical results, ~9–16×
  faster.  See ``docs/execution-backends.md``.

Backends are stateless and shareable; resolve one by name with
:func:`backend_for`.
"""

from __future__ import annotations

from typing import Optional, Protocol, Tuple, runtime_checkable

from ..errors import MachineFault, SimulationError
from .machine import Machine

#: Names accepted by :func:`backend_for` (and every ``--backend`` flag).
BACKEND_NAMES: Tuple[str, ...] = ("interpreter", "threaded")


@runtime_checkable
class ExecutionBackend(Protocol):
    """Protocol every execution backend implements."""

    #: Registry / display name ("interpreter", "threaded", ...).
    name: str

    def run_slice(self, machine: Machine,
                  budget: int) -> Tuple[int, Optional[Exception]]:
        """Execute at most ``budget`` instructions on ``machine``.

        Returns ``(cycles, fault)``: the cycles consumed this slice and
        the :class:`MachineFault`/:class:`SimulationError` that ended it
        early (``None`` on a clean slice).  Stops without consuming the
        whole budget when the machine halts or loses power.  Must never
        raise those simulation exceptions — callers decide whether a
        fault is fatal (stable-power runs) or survivable (the
        intermittent simulator's brownout handling).
        """
        ...


class InterpreterBackend:
    """Reference backend: per-instruction :meth:`Machine.step` dispatch.

    This is the semantics oracle — every other backend must match it
    byte-for-byte (state, cycles, traps, hook observations).
    """

    name = "interpreter"

    def run_slice(self, machine: Machine,
                  budget: int) -> Tuple[int, Optional[Exception]]:
        cycles = 0
        try:
            for _ in range(budget):
                if machine.halted:
                    break
                cycles += machine.step()
        except (MachineFault, SimulationError) as exc:
            return cycles, exc
        return cycles, None


def drain(machine: Machine, backend: ExecutionBackend,
          max_steps: int) -> Optional[Exception]:
    """Run ``machine`` through ``backend`` until it halts, traps, or
    exhausts ``max_steps``.

    The slice-loop idiom shared by stable-power consumers (golden runs,
    snapshot-forked fault injections): returns the fault that ended
    execution (``None`` on a clean drain); whether the budget sufficed is
    ``machine.halted``.  Stops early if a slice makes no progress (an
    unpowered machine), leaving the caller to inspect state.
    """
    remaining = max_steps
    while remaining > 0 and not machine.halted:
        before = machine.instr_count
        _, fault = backend.run_slice(machine, remaining)
        if fault is not None:
            return fault
        executed = machine.instr_count - before
        if executed == 0:
            break
        remaining -= executed
    return None


def backend_for(name: str) -> ExecutionBackend:
    """Resolve a backend by name ("interpreter" | "threaded").

    Backends are stateless, so repeated calls return shared instances.
    """
    if name == "interpreter":
        return _INTERPRETER
    if name == "threaded":
        from .threaded import ThreadedBackend

        return ThreadedBackend.shared()
    raise ValueError(
        f"unknown execution backend {name!r}; expected one of "
        f"{', '.join(BACKEND_NAMES)}"
    )


_INTERPRETER = InterpreterBackend()

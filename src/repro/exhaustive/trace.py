"""Golden-state capture for forking: one reference run, snapshotted.

The exhaustive mapper's cost model hinges on never re-running the golden
prefix: :func:`capture_trace` with a positive ``snapshot_stride`` keeps a
:class:`~repro.runtime.machine.MachineSnapshot` every ``stride`` steps
next to the per-step pcs and regions the reduction passes reason over.
The capture itself lives in :mod:`repro.faultsim.golden`, below every
engine that plans against a golden run; this module is its home under
the exhaustive engine's name.
"""

from ..faultsim.golden import HANG_SLACK_STEPS, GoldenTrace, capture_trace

__all__ = ["GoldenTrace", "HANG_SLACK_STEPS", "capture_trace"]

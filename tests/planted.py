"""The planted stale-frame-heal bug, applied from outside ``src/``.

:meth:`repro.periph.hub.PeriphHub._heal` drops the ISR frames a
power-failure rollback left stale and re-pends their vectors.  Replacing
it with a no-op re-introduces the lost-activation bug the heal exists to
fix, and the torture fuzzer must find, shrink and replay it.  Every
branch of the real ``_heal`` that does not heal returns with no side
effect, so the no-op is exactly "the heal never runs".

Run as a script, it plants the bug and then runs the ``repro`` command
line with the remaining arguments (pool workers fork from the patched
process, so they inherit the bug)::

    python tests/planted.py torture run heartbeat --scheme gecko-rollback
"""

import contextlib
import sys

from repro.periph.hub import PeriphHub


def _skip_heal(self, machine) -> None:
    """The planted bug: stale frames are never dropped."""


@contextlib.contextmanager
def heal_skipped():
    """Plant the bug for the duration of the ``with`` block."""
    heal = PeriphHub._heal
    PeriphHub._heal = _skip_heal
    try:
        yield
    finally:
        PeriphHub._heal = heal


if __name__ == "__main__":
    from repro.cli import main

    with heal_skipped():
        sys.exit(main(sys.argv[1:]))

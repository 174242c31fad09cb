"""AttackSchedule lookups against a brute-force rule, on a coarse grid.

Window edges on a half-unit grid tie, touch and overlap often.  The rule
``source_at`` must follow: among the windows active at ``t`` (``start <= t
< end``), the last one in start order, where :meth:`AttackSchedule.add`
places a window after those with an equal start.  ``segment_at`` must
return consecutive window edges around ``t`` on which that answer holds.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.emi import AttackSchedule, AttackWindow, EMISource

GRID = 0.5
#: Every grid point and midpoint, with a margin beyond the edges.
PROBES = [i * GRID / 2 for i in range(-2, 2 * 14 + 3)]

_window = st.tuples(st.integers(0, 10),                    # start index
                    st.one_of(st.none(), st.integers(1, 4)))  # length


def _windows(specs):
    """Each window gets its own tone, so answers compare by identity."""
    return [AttackWindow(start * GRID,
                         math.inf if length is None
                         else (start + length) * GRID,
                         EMISource(20e6 + index * 1e6, 30.0))
            for index, (start, length) in enumerate(specs)]


def _brute(windows, t):
    active = [w for w in sorted(windows, key=lambda w: w.start_s)
              if w.active_at(t)]
    return active[-1].source if active else None


def _inside(lo, hi):
    """A time strictly inside [lo, hi), finite even for open segments."""
    if math.isinf(lo) and math.isinf(hi):
        return 0.0
    if math.isinf(hi):
        return lo + 1.0
    if math.isinf(lo):
        return hi - 1.0
    return (lo + hi) / 2


@settings(max_examples=200, deadline=None)
@given(specs=st.lists(_window, max_size=8))
def test_lookups_match_the_brute_force_rule(specs):
    windows = _windows(specs)
    built = AttackSchedule(list(windows))
    added = AttackSchedule.silent()
    for window in windows:
        added.add(window.start_s, window.end_s, window.source)
    assert added.windows == built.windows
    edges = {edge for w in windows for edge in (w.start_s, w.end_s)}
    for schedule in (built, added):
        for t in PROBES:
            expected = _brute(windows, t)
            assert schedule.source_at(t) is expected
            lo, hi, source = schedule.segment_at(t)
            assert source is expected
            assert lo <= t < hi
            assert lo == -math.inf or lo in edges
            assert hi == math.inf or hi in edges
            assert not any(lo < edge < hi for edge in edges)
            if not math.isinf(lo):
                assert _brute(windows, lo) is expected
            assert _brute(windows, _inside(lo, hi)) is expected

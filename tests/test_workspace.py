"""The kits of a survival report: a fixed set of arrays, one kit per thread.

`survival_report` owns a `threading.local` for the length of the call, and
every chain and free-evolve item writes its values and steps into the
arrays of its thread's kit, the local's dict.  numpy reports its data
buffers to `tracemalloc`, so these tests count state-sized allocations
without relying on the allocator's page faults: a warm report allocates the
same few arrays however many schedules it runs.  Items running at once
never share an array, the arrays die with the report, and the reports keep
their bits with and without a helper.
"""

from __future__ import annotations

import gc
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from zenolab import (
    Grid,
    MeasurementSchedule,
    Propagator,
    ShiftPropagator,
    core_zone_state,
    halfline_pair,
    make_gaussian,
    momentum_operator,
    statespace,
    survival_report,
    zeno,
)

N_POINTS = statespace.MAP_MIN_POINTS  # the smallest grid whose items go to helpers


def _system(kind: str, n_points: int = N_POINTS):
    grid = Grid(-40.0, 40.0, n_points)
    p_core, _ = halfline_pair(grid)
    e = core_zone_state(p_core, make_gaussian(grid, -8.0, 1.0))
    u = Propagator(momentum_operator(grid)) if kind == "spectral" else ShiftPropagator(grid)
    return u, p_core, e, grid.dx


def _schedule(steps: int, n: int, dx: float) -> MeasurementSchedule:
    """n nearly equally spaced instants on the grid's lattice, over `steps` steps."""
    return MeasurementSchedule(steps * dx, tuple(round(k * steps / (n + 1)) * dx
                                                 for k in range(1, n + 1)))


def _schedules(count: int, dx: float) -> list[MeasurementSchedule]:
    """`count` schedules of 0..count-1 instants, over two final times."""
    return [_schedule(600 + 300 * (n % 2), n, dx) for n in range(count)]


def _bits(reports) -> list[str]:
    return [x.hex() for r in reports
            for x in (r.s_free, r.s_measured, r.leakage_free, r.retained)]


def test_a_warm_report_allocates_the_same_state_arrays_for_any_schedule_count(monkeypatch):
    """Items run one after the other on one thread here, so they share one
    kit: the first chain allocates its values and the two step slots, and no
    later chain or free evolve allocates a state-sized array.  With fresh
    arrays per item each one allocated at least two.

    The grid has 2^15 points: a lattice step's outer product goes through
    numpy's buffered iterator, whose two temporary buffers of 8192 complex
    entries are as large as a whole state at 2^14."""
    u, p_core, e, dx = _system("spectral", 2 * N_POINTS)
    state_bytes = 16 * 2 * N_POINTS
    inner = statespace._map
    allocated = []  # state-sized arrays that each item's peak shows

    def serial(fn, items, most=None, points=None):
        def measured(item):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = fn(item)
            allocated.append((tracemalloc.get_traced_memory()[1] - before) // state_bytes)
            return result

        return inner(measured, items, 1, points)

    monkeypatch.setattr(zeno, "_map", serial)
    counts = {}
    tracemalloc.start()
    try:
        for n_schedules in (2, 9):
            schedules = _schedules(n_schedules, dx)
            survival_report(u, p_core, e, schedules)  # warm-up
            allocated.clear()
            survival_report(u, p_core, e, schedules)
            assert len(allocated) == n_schedules + 2  # and a free evolve per final time
            counts[n_schedules] = list(allocated)
    finally:
        tracemalloc.stop()
    # one kit: the first chain allocates its values and the step slot that
    # free evolves share, and the first chain of two distinct durations the
    # other slot (schedules 0 and 1 have one duration each)
    assert {n: sum(items) for n, items in counts.items()} == {2: 2, 9: 3}
    assert [items[0] for items in counts.values()] == [2, 2]


def _recording_kits(monkeypatch, seen: list) -> None:
    """Append the arrays of each chain's kit, as the chain returns, to `seen`."""
    chain = zeno._chain

    def recording(u, p_core, coeffs, schedule, kit):
        final = chain(u, p_core, coeffs, schedule, kit)
        seen.append([a for a in kit.values() if isinstance(a, np.ndarray)])
        return final

    monkeypatch.setattr(zeno, "_chain", recording)


@pytest.mark.parametrize("kind", ["spectral", "shift"])
def test_items_running_at_once_never_hold_the_same_array(kind, helpers, monkeypatch):
    """Each chain, free evolves' included, waits, holding its kit, until a
    chain on the other thread holds one too; the two kits of a meeting share
    no memory.  Five schedules and their one free evolve make three meetings."""
    helpers(1)
    u, p_core, e, dx = _system(kind)
    barrier = threading.Barrier(2, timeout=30)
    meetings = []  # per chain, in meeting order: (thread, arrays of its kit)
    lock = threading.Lock()
    chain = zeno._chain

    def meeting(u, p_core, coeffs, schedule, kit):
        final = chain(u, p_core, coeffs, schedule, kit)
        with lock:
            meetings.append((threading.get_ident(),
                             [a for a in kit.values() if isinstance(a, np.ndarray)]))
        barrier.wait()  # both chains of this round hold their kits here
        return final

    monkeypatch.setattr(zeno, "_chain", meeting)
    schedules = [_schedule(600, n, dx) for n in (2, 3, 4, 5, 6)]
    survival_report(u, p_core, e, schedules)
    assert len(meetings) == len(schedules) + 1
    for (thread_a, arrays_a), (thread_b, arrays_b) in zip(meetings[::2], meetings[1::2]):
        assert thread_a != thread_b
        assert arrays_a and arrays_b
        assert not any(np.shares_memory(a, b) for a in arrays_a for b in arrays_b)


@pytest.mark.parametrize("kind", ["spectral", "shift"])
def test_the_workspace_arrays_die_when_the_report_returns(kind, helpers, monkeypatch):
    helpers(1)
    u, p_core, e, dx = _system(kind)
    seen = []
    gc.disable()  # freed by reference counts alone: no cycle holds them
    try:
        _recording_kits(monkeypatch, seen)
        survival_report(u, p_core, e, _schedules(6, dx))
        refs = [weakref.ref(a) for arrays in seen for a in arrays]
        seen.clear()
        assert refs
        assert [r for r in refs if r() is not None] == []
    finally:
        gc.enable()


@pytest.mark.parametrize("kind", ["spectral", "shift"])
def test_reports_are_bit_identical_with_no_helper_and_one(kind, helpers):
    u, p_core, e, dx = _system(kind)
    schedules = _schedules(8, dx)
    bits = []
    for n in (0, 1):
        helpers(n)
        bits.append(_bits(survival_report(u, p_core, e, schedules)))
    alone = [_bits(survival_report(u, p_core, e, [s]))[0:4] for s in schedules]
    assert bits[0] == bits[1] == [x for report in alone for x in report]

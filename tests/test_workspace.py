"""The kits of a survival report: a fixed set of arrays, one kit per thread.

`survival_report` owns a `threading.local` for the length of the call, and
every chain and free-evolve item writes its values and steps into the
arrays of its thread's kit, the local's dict.  numpy reports its data
buffers to `tracemalloc`, so these tests count state-sized allocations
without relying on the allocator's page faults: a warm report allocates the
same few arrays however many schedules it runs.  Items running at once
never share an array, the arrays die with the report, and the reports keep
their bits with and without a helper.  Below MAP_MIN_POINTS points a kit's
arrays are those of a block of rows, and every row keeps the bits of a
report with its schedule alone.
"""

from __future__ import annotations

import gc
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import rabi_system
from oracles import naive_chain
from zenolab import (
    Grid,
    MeasurementSchedule,
    Propagator,
    ShiftPropagator,
    core_zone_state,
    halfline_pair,
    inner_product,
    make_gaussian,
    momentum_operator,
    statespace,
    survival_report,
    zeno,
)
from zenolab.scenarios import _shift_schedule

N_POINTS = statespace.MAP_MIN_POINTS  # the smallest grid whose items go to helpers


def _system(kind: str, n_points: int = N_POINTS):
    grid = Grid(-40.0, 40.0, n_points)
    p_core, _ = halfline_pair(grid)
    e = core_zone_state(p_core, make_gaussian(grid, -8.0, 1.0))
    u = Propagator(momentum_operator(grid)) if kind == "spectral" else ShiftPropagator(grid)
    return u, p_core, e, grid.dx


def _schedules(count: int, dx: float) -> list[MeasurementSchedule]:
    """`count` schedules of 0..count-1 instants on the grid's lattice, over two final times."""
    return [_shift_schedule(600 + 300 * (n % 2), dx, n) for n in range(count)]


def _bits(reports) -> list[str]:
    return [x.hex() for r in reports
            for x in (r.s_free, r.s_measured, r.leakage_free, r.retained)]


def test_a_warm_report_allocates_the_same_state_arrays_for_any_schedule_count(monkeypatch):
    """Items run one after the other on one thread here, so they share one
    kit: the first chain allocates its values, its coefficient buffer and the
    two step slots, and no later chain or free evolve allocates a state-sized
    array.  With fresh arrays per item each one allocated at least two.

    The state is real, so its values are one float64 row, and its
    coefficients and each step n/2 + 1 complex entries, as large.  The grid
    has 2^16 points: a lattice step's outer product goes through numpy's
    buffered iterator, whose two temporary buffers of 8192 complex entries
    are as large as a real state at 2^15."""
    u, p_core, e, dx = _system("spectral", 4 * N_POINTS)
    state_bytes = 8 * 4 * N_POINTS
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
            # and the free evolve to 900 steps; schedule 0, empty, is the one to 600
            assert len(allocated) == n_schedules + 1
            counts[n_schedules] = list(allocated)
    finally:
        tracemalloc.stop()
    # one kit: the first item, the longest chain, allocates its values, its
    # coefficient buffer and a step slot, and the other slot when it has two
    # distinct durations (schedule 1 has one duration, schedule 8 two); no
    # later item allocates
    assert {n: sum(items) for n, items in counts.items()} == {2: 3, 9: 4}
    assert [items[0] for items in counts.values()] == [3, 4]


def _kit_arrays(kit: dict) -> list:
    """The arrays of a kit: its values, its spare (coefficients on the FFT basis) and
    each row's two step slots."""
    return [a for held in kit.values() for a in (held if isinstance(held, list) else [held])
            if isinstance(a, np.ndarray)]


def _recording_kits(monkeypatch, seen: list) -> None:
    """Append the arrays of each chain's kit, as the chain returns, to `seen`."""
    chain = zeno._chain

    def recording(u, p_core, coeffs, block, kit):
        final = chain(u, p_core, coeffs, block, kit)
        seen.append(_kit_arrays(kit))
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

    def meeting(u, p_core, coeffs, block, kit):
        final = chain(u, p_core, coeffs, block, kit)
        with lock:
            meetings.append((threading.get_ident(), _kit_arrays(kit)))
        barrier.wait()  # both chains of this round hold their kits here
        return final

    monkeypatch.setattr(zeno, "_chain", meeting)
    schedules = [_shift_schedule(600, dx, n) for n in (2, 3, 4, 5, 6)]
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


# ----------------------------------------------------------------------
# blocks of rows below MAP_MIN_POINTS
# ----------------------------------------------------------------------


def _recording_blocks(monkeypatch, seen: list) -> None:
    """Append the schedules of each chain block, as the chain starts, to `seen`."""
    chain = zeno._chain

    def recording(u, p_core, coeffs, block, kit):
        seen.append(list(block))
        return chain(u, p_core, coeffs, block, kit)

    monkeypatch.setattr(zeno, "_chain", recording)


def _naive_bits(u, p_core, e, schedule) -> list[str]:
    """A report's fields from one evolve per segment and one free evolve, on 1-D arrays."""
    final = naive_chain(u, p_core, e, schedule)
    free = u.evolve(e, schedule.t_final)
    return [x.hex() for x in (abs(inner_product(e, free)) ** 2,
                              abs(inner_product(e, final)) ** 2,
                              1.0 - p_core.mass(free), final.norm_sq())]


def test_a_block_of_rows_has_the_bits_of_one_schedule_reports(monkeypatch):
    """At 4096 points a block holds 4 rows.  Four schedules of 6 instants and five of
    3, each with its own t_final and so its own durations, and the free evolves to the
    seven distinct finals cut longest first into blocks of 4, 4 and 1 (partly empty),
    and 4 and 3.  Every field of every report has the bits of a report of its schedule
    alone and of one evolve per segment."""
    u, p_core, e, _ = _system("spectral", 4096)
    assert u._rows == statespace.MAP_MIN_POINTS // 4096 == 4
    finals = (1.0, 1.25, 1.5, 1.75, 2.0, 2.5, 1.25, 1.5, 3.0)
    schedules = [MeasurementSchedule.equally_spaced(t, 3 if i < 5 else 6)
                 for i, t in enumerate(finals)]
    blocks = []
    _recording_blocks(monkeypatch, blocks)
    reports = survival_report(u, p_core, e, schedules)
    assert [len(b) for b in blocks] == [4, 4, 1, 4, 3]
    counts = [b.n_measurements for b in blocks[0] + blocks[1] + blocks[3]]
    assert counts == [6] * 4 + [3] * 4 + [0] * 4
    alone = [_bits(survival_report(u, p_core, e, [s])) for s in schedules]
    assert [_bits([r]) for r in reports] == alone
    assert alone == [_naive_bits(u, p_core, e, s) for s in schedules]


@pytest.mark.parametrize("kind", ["shift", "matrix"])
def test_shift_and_matrix_blocks_hold_one_row(kind, monkeypatch):
    """A roll and a matrix basis change one state at a time: each block is one
    distinct schedule, longest first, run on 1-D arrays with the bits of one evolve
    per segment."""
    if kind == "shift":
        # three distinct schedules over one final time; the empty one is the free evolve
        u, p_core, e, dx = _system("shift", 4096)
        schedules = [_shift_schedule(600, dx, n) for n in (2, 2, 3, 3, 3, 0)]
        expected = [3, 2, 0]
    else:
        # five distinct schedules, and the free evolves to 1.5 and 0.5: the empty
        # schedule is the one to 1.0
        _, u, e, (p_core, _) = rabi_system()
        schedules = [MeasurementSchedule.equally_spaced(t, n)
                     for t, n in ((1.5, 2), (1.0, 2), (1.5, 7), (0.5, 7), (1.0, 0))]
        expected = [7, 7, 2, 2, 0, 0, 0]
    blocks = []
    _recording_blocks(monkeypatch, blocks)
    reports = survival_report(u, p_core, e, schedules)
    assert u._rows == 1
    assert [len(b) for b in blocks] == [1] * len(expected)
    assert [b[0].n_measurements for b in blocks] == expected
    assert [_bits([r]) for r in reports] == [_naive_bits(u, p_core, e, s) for s in schedules]


@pytest.mark.parametrize("kind", ["spectral", "shift", "matrix"])
def test_a_report_runs_each_distinct_schedule_once(kind, monkeypatch):
    """Duplicate schedules, an empty schedule and two segment counts given shortest
    first: each distinct job (a schedule, or the free evolve to a final time that no
    empty schedule given reaches) runs once, so the rows transformed back are the
    sum of their segments.  Every field of every report has the bits of a report of
    its schedule alone and of one evolve per segment."""
    if kind == "matrix":
        _, u, e, (p_core, _) = rabi_system()
        dx = 0.0625  # marks on a lattice, like the shift path's
    else:
        u, p_core, e, dx = _system(kind, 4096)
    # (steps, instants): 2 over 600 twice, the empty 900, 5 over 900 twice, 5 over 300
    schedules = [_shift_schedule(steps, dx, n)
                 for steps, n in ((600, 2), (900, 2), (600, 2), (900, 0), (900, 5), (300, 5),
                                  (900, 5))]
    # jobs: (900, 5), (300, 5), (600, 2), (900, 2), the empty 900 and the free
    # evolves to 300 and 600: 6 + 6 + 3 + 3 + 1 + 1 + 1 segments, each one roll
    # or one change back of every row of its block
    owner, name = (ShiftPropagator, "_values") if kind == "shift" else (Propagator, "_inverse")
    primitive = getattr(owner, name)
    rows = []

    def counting(self, values, *args, **kwargs):
        rows.append(len(values) if values.ndim == 2 else 1)
        return primitive(self, values, *args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    reports = survival_report(u, p_core, e, schedules)
    assert sum(rows) == 6 + 6 + 3 + 3 + 1 + 1 + 1
    monkeypatch.undo()
    alone = [_bits(survival_report(u, p_core, e, [s])) for s in schedules]
    assert [_bits([r]) for r in reports] == alone
    assert alone == [_naive_bits(u, p_core, e, s) for s in schedules]


def test_a_warm_report_allocates_its_block_arrays_in_its_first_block_only(monkeypatch):
    """At 4096 points the first block of a kit allocates the values of 4 real rows,
    their coefficients and their two step slots each: MAP_MIN_POINTS float64 values,
    and three arrays of 4 (n/2 + 1) complex entries, the coefficients one and the
    steps two such units, though it runs one row; no later block allocates an array
    that large, whatever its rows.
    The longest schedule, alone, is the first block; then come two blocks of the
    eight 5-instant rows and two of the free evolves to the eight distinct finals."""
    u, p_core, e, _ = _system("spectral", 4096)
    block_bytes = 8 * statespace.MAP_MIN_POINTS
    inner = statespace._map
    allocated = []  # block-sized arrays that each block's peak shows

    def measured_map(fn, items, most=None, points=None):
        def measured(item):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = fn(item)
            allocated.append((tracemalloc.get_traced_memory()[1] - before) // block_bytes)
            return result

        return inner(measured, items, most, points)

    monkeypatch.setattr(zeno, "_map", measured_map)
    schedules = [MeasurementSchedule.equally_spaced(2.0, 6)] + [
        MeasurementSchedule.equally_spaced(j * 0.25, 5) for j in range(1, 9)]
    tracemalloc.start()
    try:
        survival_report(u, p_core, e, schedules)  # warm-up
        allocated.clear()
        survival_report(u, p_core, e, schedules)
    finally:
        tracemalloc.stop()
    assert allocated == [4, 0, 0, 0, 0]

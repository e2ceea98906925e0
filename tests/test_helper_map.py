"""The helper map: order, caps, errors, nesting, and bits that do not move.

`statespace._map` runs independent evolves on the calling thread and on
idle helper threads.  These tests pin its contract on a pool of a chosen
size (installed per test, so they behave the same on any host) and check
that CLI outputs are byte-identical with no helper and with helpers.
"""

from __future__ import annotations

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from zenolab import cli, statespace
from zenolab.scenarios import SCENARIOS
from zenolab.statespace import _map


@pytest.fixture
def helpers(monkeypatch):
    """Install a helper pool of n threads and n permits for this test."""
    pools = []

    def install(n: int) -> None:
        pools.append(ThreadPoolExecutor(max_workers=max(n, 1)))
        monkeypatch.setattr(statespace, "_pool", pools[-1])
        monkeypatch.setattr(statespace, "_permits", threading.BoundedSemaphore(n))

    yield install
    for pool in pools:
        pool.shutdown(wait=True)


def _permits_back(n: int) -> bool:
    """True when all n permits are free again (and leaves them free)."""
    got = 0
    while statespace._permits.acquire(blocking=False):
        got += 1
    for _ in range(got):
        statespace._permits.release()
    return got == n


class Tally:
    """Threads that ran items, and the most items that ran at once."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.active = 0
        self.most = 0
        self.threads = set()

    def __call__(self, x):
        with self.lock:
            self.active += 1
            self.most = max(self.most, self.active)
            self.threads.add(threading.get_ident())
        time.sleep(0.002 * (x % 3))
        with self.lock:
            self.active -= 1
        return x * x


def test_map_keeps_input_order(helpers):
    helpers(3)
    tally = Tally()
    assert _map(tally, range(40)) == [x * x for x in range(40)]
    assert _map(tally, []) == []
    assert _permits_back(3)


@pytest.mark.parametrize("most", [1, 2])
def test_map_respects_the_most_cap(helpers, most):
    helpers(3)
    tally = Tally()
    assert _map(tally, range(30), most=most) == [x * x for x in range(30)]
    assert tally.most <= most
    assert len(tally.threads) <= most
    if most == 1:
        assert tally.threads == {threading.get_ident()}
    assert _permits_back(3)


def test_map_runs_in_the_caller_with_no_helper(helpers):
    helpers(0)
    tally = Tally()
    assert _map(tally, range(12)) == [x * x for x in range(12)]
    assert tally.threads == {threading.get_ident()}
    assert tally.most == 1


def test_map_keeps_evolves_on_small_grids_in_the_caller(helpers):
    helpers(3)
    small, large = Tally(), Tally()
    points = statespace.MAP_MIN_POINTS
    assert _map(small, range(12), points=points - 1) == [x * x for x in range(12)]
    assert small.threads == {threading.get_ident()}
    assert _map(large, range(12), points=points) == [x * x for x in range(12)]
    assert len(large.threads) > 1
    assert _permits_back(3)


def test_survival_report_takes_no_helper_below_the_cutoff(helpers, monkeypatch):
    from zenolab import zeno
    from zenolab.scenarios import ScenarioSpec, run_scenario

    helpers(2)
    seen = []
    inner = statespace._map

    def spy(fn, items, most=None, points=None):
        seen.append(points)
        return inner(fn, items, most, points)

    monkeypatch.setattr(zeno, "_map", spy)
    run_scenario("hm-invariance", ScenarioSpec(name="hm-invariance", grid_points=4096))
    assert seen and set(seen) == {4096}
    assert 4096 < statespace.MAP_MIN_POINTS


def test_map_started_while_its_permit_is_held_gets_a_helper_once_it_frees(helpers):
    helpers(1)
    caller = threading.get_ident()
    held, go, freed, helped = (threading.Event() for _ in range(4))

    def sibling() -> None:  # another map's helper, busy when this map starts
        statespace._permits.acquire()
        held.set()
        go.wait(timeout=30)
        statespace._permits.release()
        freed.set()

    threading.Thread(target=sibling).start()
    assert held.wait(timeout=30)
    threads = []

    def fn(x):
        threads.append(threading.get_ident())
        if threading.get_ident() != caller:
            helped.set()
        elif x == 0:
            go.set()
            freed.wait(timeout=30)
        elif x == 1:
            helped.wait(timeout=30)  # the helper recruited before item 1 takes item 2
        return x

    assert _map(fn, range(6), points=statespace.MAP_MIN_POINTS) == list(range(6))
    assert helped.is_set()
    assert set(threads) - {caller}
    assert _permits_back(1)


class WatchedPermits(threading.BoundedSemaphore):
    """Permits that set `all_free` whenever every one of them is back."""

    def __init__(self, n: int) -> None:
        super().__init__(n)
        self.lock = threading.Lock()
        self.out = 0
        self.all_free = threading.Event()

    def acquire(self, blocking=True, timeout=None):
        got = super().acquire(blocking, timeout)
        if got:
            with self.lock:
                self.out += 1
                self.all_free.clear()
        return got

    def release(self, n=1):
        super().release(n)
        with self.lock:
            self.out -= n
            if self.out == 0:
                self.all_free.set()


@pytest.mark.parametrize("n", [1, 2])
def test_counterexample_hands_condition_I_times_to_a_thread_freed_by_the_others(
        helpers, monkeypatch, n):
    """(I) is the caller's item; the other checks finish first on helpers.

    With two permits the second pool thread may start after the first has
    taken every other check, so only one permit pins which thread helps.
    """
    from zenolab import scenarios, subspaces

    helpers(n)
    permits = WatchedPermits(n)
    monkeypatch.setattr(statespace, "_permits", permits)
    caller = threading.get_ident()
    others = set()  # threads that ran (II), (I-A) or the leakage
    for name in ("check_condition_II", "check_condition_IA", "leakage"):
        def record(*args, _fn=getattr(scenarios, name), **kwargs):
            others.add(threading.get_ident())
            return _fn(*args, **kwargs)
        monkeypatch.setattr(scenarios, name, record)

    ran_I = []  # threads of (I)'s time items
    helped = threading.Event()
    inner = statespace._map

    def spy(fn, items, most=None, points=None):
        # (I) runs in the caller, the other checks' time items run on helpers
        if fn.__name__ != "at" or threading.get_ident() != caller:
            return inner(fn, items, most, points)

        def at(t):
            me = threading.get_ident()
            ran_I.append(me)
            if me != caller:
                helped.set()
            elif ran_I.count(caller) == 1:
                permits.all_free.wait(timeout=30)  # (II), (I-A), leakage done
            elif ran_I.count(caller) == 2:
                helped.wait(timeout=30)  # a helper recruited before this item
            return fn(t)

        return inner(at, items, most, points)

    monkeypatch.setattr(subspaces, "_map", spy)
    bundle = scenarios.run_scenario(
        "counterexample", scenarios.ScenarioSpec(name="counterexample", grid_points=16384))
    assert bundle.passed
    assert caller not in others
    assert len(ran_I) == len(scenarios.T_SWEEP)
    assert set(ran_I) - {caller}
    if n == 1:
        # the one pool thread ran the other three checks, then joined (I)
        assert set(ran_I) - {caller} == others
    assert _permits_back(n)


def test_map_raises_the_first_error_after_every_helper_finished(helpers):
    helpers(1)
    started, finished = threading.Event(), threading.Event()

    def fn(x):
        if x == 0:
            # whichever thread holds item 0, the other one takes item 1
            started.wait(timeout=10)
            raise ValueError("item 0")
        started.set()
        time.sleep(0.2)
        finished.set()
        raise ValueError("item 1")

    with pytest.raises(ValueError, match="item 0"):
        _map(fn, [0, 1])
    assert finished.is_set()
    assert _permits_back(1)


def test_map_raises_the_error_a_serial_loop_would_raise(helpers):
    helpers(2)

    def fn(x):
        if x == 1:
            time.sleep(0.1)  # item 2 fails first in time, on another thread
        if x > 0:
            raise KeyError(x)
        return x

    with pytest.raises(KeyError) as info:
        _map(fn, range(3))
    assert info.value.args == (1,)
    assert _permits_back(2)


def test_map_runs_every_item_once_under_fast_thread_switching(helpers):
    helpers(4)  # more threads than CPUs on a small host
    calls = [0] * 3000
    lock = threading.Lock()

    def fn(x):
        with lock:
            calls[x] += 1
        return x

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert _map(fn, range(len(calls))) == list(range(len(calls)))
    finally:
        sys.setswitchinterval(interval)
    assert calls == [1] * len(calls)
    assert _permits_back(4)


@pytest.mark.parametrize("n", [1, 3])
def test_nested_map_in_a_helper_finishes(helpers, n):
    helpers(n)
    out = []

    def outer(i):
        return sum(_map(lambda j: i * j, range(8)))

    runner = threading.Thread(target=lambda: out.append(_map(outer, range(6))))
    runner.start()
    runner.join(timeout=30)
    assert not runner.is_alive()
    assert out == [[28 * i for i in range(6)]]
    assert _permits_back(n)


# ----------------------------------------------------------------------
# byte identity of CLI outputs
# ----------------------------------------------------------------------

RUNS = [["run", name] for name in sorted(SCENARIOS)] + [
    ["run", "counterexample", "--grid-points", "16384"],
    ["run", "hm-invariance", "--grid-points", "16384"],
    ["sweep", "hm-invariance", "--param", "sigma", "--values", "0.9,1.0,1.1", "--jobs", "2"],
]


def _outputs(root) -> tuple[list[int], dict[str, bytes]]:
    codes = [cli.main([*argv, "--out", str(root / str(i))]) for i, argv in enumerate(RUNS)]
    files = {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}
    return codes, files


def test_outputs_do_not_depend_on_helpers(helpers, tmp_path, capsys):
    helpers(0)
    serial = _outputs(tmp_path / "serial")
    helpers(2)
    helped = _outputs(tmp_path / "helped")
    capsys.readouterr()
    assert serial[0] == helped[0] == [0] * len(RUNS)
    assert len(serial[1]) > 2 * len(RUNS)
    assert serial[1] == helped[1]

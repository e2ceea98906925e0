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

import pytest

from zenolab import cli, statespace
from zenolab.scenarios import SCENARIOS, ScenarioSpec
from zenolab.statespace import _map


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

    def enter(self) -> None:
        with self.lock:
            self.active += 1
            self.most = max(self.most, self.active)
            self.threads.add(threading.get_ident())

    def leave(self) -> None:
        with self.lock:
            self.active -= 1

    def __call__(self, x):
        self.enter()
        time.sleep(0.002 * (x % 3))
        self.leave()
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

    The caller is the runner thread, which runs a 2^14-point scenario called
    from the main thread.  With two permits the second pool thread may start
    after the first has taken every other check, so only one permit pins
    which thread helps.
    """
    from zenolab import scenarios, subspaces

    helpers(n)
    permits = WatchedPermits(n)
    monkeypatch.setattr(statespace, "_permits", permits)
    caller = statespace._runner.submit(threading.get_ident).result(timeout=30)
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
# the runner thread: large scenarios called from the main thread
# ----------------------------------------------------------------------


def _on_another_thread(fn):
    """fn() on a fresh thread that is not the main one: its result, or its error raised."""
    out = {}

    def target():
        try:
            out["result"] = fn()
        except BaseException as exc:
            out["error"] = exc

    thread = threading.Thread(target=target)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    if "error" in out:
        raise out["error"]
    return out["result"]


def _runner_ident() -> int:
    return statespace._runner.submit(threading.get_ident).result(timeout=30)


@pytest.mark.parametrize("name, fields, apart", [
    ("hm-invariance", {"grid_points": 65536}, True),
    ("counterexample", {"grid_points": statespace.MAP_MIN_POINTS}, True),
    ("hm-invariance", {"grid_points": 4096}, False),
    ("hm-invariance", {"grid_points": statespace.MAP_MIN_POINTS // 2}, False),
    ("rabi-control", {}, False),
])
def test_only_large_scenarios_from_the_main_thread_go_to_the_runner(
        monkeypatch, name, fields, apart):
    from zenolab import scenarios

    ran = []
    inner = scenarios.SCENARIOS[name]

    def spy(**kwargs):
        ran.append(threading.get_ident())
        return inner(**kwargs)

    monkeypatch.setitem(scenarios.SCENARIOS, name, spy)
    assert scenarios.run_scenario(name, ScenarioSpec(name=name, **fields)).passed
    assert ran == [_runner_ident() if apart else threading.get_ident()]

    def run_here() -> int:
        scenarios.run_scenario(name, ScenarioSpec(name=name, **fields))
        return threading.get_ident()

    # from any other thread the scenario runs inline, whatever its size
    here = _on_another_thread(run_here)
    assert ran[1:] == [here]


def test_runner_hands_back_errors_unchanged(monkeypatch):
    from zenolab import scenarios
    from zenolab.errors import DomainError

    spec = ScenarioSpec(name="hm-invariance", grid_points=65536, center=1.0)
    with pytest.raises(DomainError) as apart:
        scenarios.run_scenario("hm-invariance", spec)
    with pytest.raises(DomainError) as inline:
        _on_another_thread(lambda: scenarios.run_scenario("hm-invariance", spec))
    assert str(apart.value) == str(inline.value) == (
        "prepared state must be centered in the core zone (x < 0)")

    raised = []

    def no_room(*args, **kwargs):
        raised.append((threading.get_ident(), MemoryError("no room for the packet")))
        raise raised[-1][1]

    monkeypatch.setattr(scenarios, "make_gaussian", no_room)
    with pytest.raises(MemoryError, match="^no room for the packet$") as info:
        scenarios.run_scenario("hm-invariance",
                               ScenarioSpec(name="hm-invariance", grid_points=65536))
    assert type(info.value) is MemoryError
    assert raised == [(_runner_ident(), info.value)]


def test_sweep_computes_on_at_most_cpus_threads_and_never_on_the_waiting_main_thread(
        helpers, monkeypatch, tmp_path, capsys):
    from zenolab.operators import Propagator

    helpers(1)  # a host of CPUS = 2: one helper beside the caller
    permits = WatchedPermits(1)
    monkeypatch.setattr(statespace, "_permits", permits)
    tally = Tally()  # threads inside a Propagator primitive, none of which calls another
    for name in ("_coeffs", "step", "_values"):  # `_apply` is `_coeffs` then `_values`
        def counted(*args, _fn=getattr(Propagator, name), **kwargs):
            tally.enter()
            try:
                return _fn(*args, **kwargs)
            finally:
                tally.leave()
        monkeypatch.setattr(Propagator, name, counted)

    argv = ["sweep", "hm-invariance", "--param", "sigma", "--values", "0.9,1.1",
            "--grid-points", "65536", "--jobs", "2", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert tally.most <= 2
    assert threading.get_ident() not in tally.threads
    assert _runner_ident() in tally.threads
    assert len(tally.threads) == 2  # the runner and the one pool thread
    assert permits.all_free.is_set()
    assert _permits_back(1)


@pytest.mark.parametrize("name", ["counterexample", "hm-invariance"])
def test_runner_bundles_match_inline_bundles_byte_for_byte(name):
    from zenolab import scenarios

    spec = ScenarioSpec(name=name, grid_points=65536)
    apart = scenarios.run_scenario(name, spec).to_json_bytes()
    inline = _on_another_thread(lambda: scenarios.run_scenario(name, spec).to_json_bytes())
    assert apart == inline


@pytest.mark.parametrize("n", [0, 1])
def test_interrupt_stops_the_runner_after_its_current_items(helpers, monkeypatch, n):
    """An interrupt of the waiting main thread stops every map after the item in flight."""
    import _thread

    from zenolab import scenarios, zeno

    helpers(n)
    started = []
    inner = statespace._map

    def slowed(fn, items, most=None, points=None):
        def item(x):
            started.append(x)
            if x is items[0]:  # the map's caller, the runner, takes the first item
                _thread.interrupt_main()
                # the main thread sees the interrupt within its next timed wait
                assert statespace._stopping.wait(timeout=30)
            time.sleep(0.2)
            return fn(x)

        return inner(item, items, most, points)

    monkeypatch.setattr(zeno, "_map", slowed)
    # at N = 0 every job is one segment, so no chain checks `_stopping` and only the
    # map can stop: a longest-first chain of N + 1 > 1 segments would raise on its own
    spec = ScenarioSpec(name="hm-invariance", grid_points=65536, n_measurements=0)
    with pytest.raises(KeyboardInterrupt):
        scenarios.run_scenario("hm-invariance", spec)
    # the first survival report has 8 items; only those in flight ran
    assert 1 <= len(started) <= 1 + n
    assert not statespace._stopping.is_set()
    assert _permits_back(n)
    monkeypatch.setattr(zeno, "_map", inner)
    assert scenarios.run_scenario("hm-invariance", spec).passed


def test_a_second_interrupt_leaves_at_once_and_the_runner_still_stops(helpers, monkeypatch):
    """The second interrupt is raised while the runner is still in its item;
    `_stopping` stays set until the runner is done, and the next run completes."""
    import _thread

    from zenolab import scenarios, zeno

    helpers(0)
    started = []
    left = threading.Event()  # the main thread has raised
    inner = statespace._map

    def slowed(fn, items, most=None, points=None):
        def item(x):
            started.append(x)
            if x is items[0]:
                _thread.interrupt_main()
                assert statespace._stopping.wait(timeout=30)
                _thread.interrupt_main()
                assert left.wait(timeout=30)
            return fn(x)

        return inner(item, items, most, points)

    monkeypatch.setattr(zeno, "_map", slowed)
    spec = ScenarioSpec(name="hm-invariance", grid_points=65536)
    with pytest.raises(KeyboardInterrupt):
        scenarios.run_scenario("hm-invariance", spec)
    assert statespace._stopping.is_set()  # the runner still works
    left.set()
    _runner_ident()  # the runner has finished the abandoned scenario
    assert not statespace._stopping.is_set()
    assert len(started) == 1  # its chain stopped before the next segment
    monkeypatch.setattr(zeno, "_map", inner)
    assert scenarios.run_scenario("hm-invariance", spec).passed


def test_an_interrupted_sweep_keeps_stopping_until_the_helpers_point_is_done(
        helpers, monkeypatch, tmp_path, capsys):
    """Ctrl-C during `sweep --jobs 2`: the main thread's point, on the runner,
    stops, and `_stopping` stays set until the helper's point has stopped too."""
    import _thread

    from zenolab import scenarios

    helpers(1)
    runner = _runner_ident()
    both = threading.Barrier(2, action=_thread.interrupt_main, timeout=30)
    runner_done = threading.Event()
    seen = []  # whether the helper's point still found `_stopping` set

    def blocked(**kwargs):
        both.wait()  # both points run
        if threading.get_ident() == runner:
            try:
                assert statespace._stopping.wait(timeout=30)
                raise KeyboardInterrupt  # as a chain does before its next segment
            finally:
                runner_done.set()
        assert runner_done.wait(timeout=30)
        time.sleep(0.2)  # the main thread sees the runner done
        seen.append(statespace._stopping.is_set())
        raise KeyboardInterrupt

    monkeypatch.setitem(scenarios.SCENARIOS, "hm-invariance", blocked)
    argv = ["sweep", "hm-invariance", "--param", "sigma", "--values", "0.9,1.1",
            "--grid-points", "65536", "--jobs", "2", "--out", str(tmp_path)]
    assert cli.main(argv) == 130
    assert capsys.readouterr().err == "interrupted\n"
    assert seen == [True]
    assert not statespace._stopping.is_set()
    assert _permits_back(1)


def test_an_interrupt_in_the_callers_own_item_stops_the_helpers_item(helpers):
    """Ctrl-C that lands in the item the calling main thread runs itself sets
    `_stopping`: the helper's item stops at its next poll, not at its end, and
    the flag is clear once the helper is done."""
    helpers(1)
    both = threading.Barrier(2, timeout=30)
    raised = threading.Event()
    seen = []  # polls that still found `_stopping` clear after the interrupt

    def item(x):
        both.wait()  # both items run
        if threading.current_thread() is threading.main_thread():
            raised.set()
            raise KeyboardInterrupt  # as Python's SIGINT handler raises it here
        late = 0
        for _ in range(40):  # 2 s of polls
            if statespace._stopping.is_set():
                seen.append(late)
                raise KeyboardInterrupt  # as a chain does before its next segment
            late += raised.is_set()
            time.sleep(0.05)
        seen.append(None)
        return x

    with pytest.raises(KeyboardInterrupt):
        _map(item, range(2))
    assert seen in ([0], [1])  # 1 when a poll fell between the raise and the set
    assert not statespace._stopping.is_set()
    assert _permits_back(1)


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

"""Tests of the benchmark's own code: python3 -m pytest benchmarks -q"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import pacing  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _span(sid, parent, start, end, name="f"):
    return [sid, parent, 0, name, start, end, None]


def test_self_time_subtracts_union_of_children():
    tree = [
        _span(0, None, 0, 100, "op"),
        _span(1, 0, 10, 40),       # overlaps 2: the union 10..60 is covered once
        _span(2, 0, 30, 60),
        _span(3, 1, 15, 25),       # grandchild: only its parent loses it
        _span(4, 0, 90, 120),      # runs past the parent: clipped to 90..100
        _span(5, 2, 30, 60),       # covers its parent entirely
    ]
    selfs = spans.self_times(tree)
    assert selfs == {0: 100 - 50 - 10, 1: 30 - 10, 2: 0, 3: 10, 4: 30, 5: 30}


def test_self_times_of_a_serial_op_sum_to_its_wall():
    tree = [_span(0, None, 0, 1000, "op"), _span(1, 0, 100, 700),
            _span(2, 1, 200, 300), _span(3, 1, 400, 650), _span(4, 0, 800, 900)]
    assert sum(spans.self_times(tree).values()) == 1000


@pytest.mark.parametrize("n, q, rank", [
    (30, 66, 20),     # 10 of 30 beyond the 20th smallest
    (11, 9, 1),
    (100, 90, 90),
    (1000, 99, 990),
    (5, 0, 1),        # too few ops: the minimum, and fewer than 10 beyond
])
def test_tail_percentile_keeps_ten_beyond(n, q, rank):
    values = [float(v) for v in range(n, 0, -1)]   # unsorted on purpose
    got_q, value, beyond = run.tail_percentile(values)
    assert (got_q, value, beyond) == (q, float(rank), n - rank)
    if n > 10:
        assert beyond >= 10
        # one percentile higher would leave fewer than 10 beyond
        assert n - -(-(q + 1) * n // 100) < 10


@pytest.mark.parametrize("seconds, block_seconds, expected", [
    (30.0, 0.93, 32),
    (30.0, 11.0, 3),      # 33 s is nearer to 30 s than 22 s
    (30.0, 2.6, 12),
    (1.0, 11.0, 1),       # never fewer than one block
])
def test_runs_do_the_whole_blocks_nearest_their_seconds(seconds, block_seconds, expected):
    assert run.n_blocks(seconds, block_seconds) == expected


def test_paced_scales_by_the_mean_of_the_samples_around_each_time():
    refs = [0.5, 0.5, 1.5, 1.0]
    assert pacing.paced([1.0, 2.0, 4.0], refs, 0.5) == pytest.approx([1.0, 1.0, 1.6])
    with pytest.raises(ValueError):
        pacing.paced([1.0, 2.0], refs, 0.5)


class _FixedReference(pacing.Reference):
    """Every sample reads twice the nominal time: a host at half speed."""

    def sample(self) -> float:
        self.samples.append(2 * self.nominal)
        return 2 * self.nominal


def test_pacer_sums_scaled_segments_per_op():
    pacer = pacing.Pacer(_FixedReference())
    pacer.begin()
    pacer.split()
    pacer.end()
    pacer.begin()
    pacer.end()
    assert len(pacer.walls) == 3 and len(pacer.refs) == 4
    raw, walls, cpus = pacer.per_op([(0, 2), (2, 3)])
    assert raw == pytest.approx([pacer.walls[0] + pacer.walls[1], pacer.walls[2]])
    assert walls == pytest.approx([w / 2 for w in raw])
    assert len(cpus) == 2


@pytest.mark.parametrize("ref", [pacing.Reference, lambda: pacing.ThreadedReference(2)])
def test_reference_kernels_record_each_sample(ref):
    r = ref()
    assert r.samples == []
    t = r.sample()
    assert r.samples == [t] and t > 0


def test_generator_is_identical_for_identical_seeds():
    assert workloads.make_specs(7) == workloads.make_specs(7)
    assert workloads.make_sweeps(7) == workloads.make_sweeps(7)
    assert workloads.make_specs(7) != workloads.make_specs(8)
    assert workloads.make_sweeps(7) != workloads.make_sweeps(8)


def test_generator_covers_the_ranges_in_balanced_blocks():
    specs = workloads.make_specs(3, n_blocks=20)
    lo, hi = workloads.SIGMA_RANGE
    width = (hi - lo) / workloads.BLOCK
    for b in range(20):
        block = specs[b * workloads.BLOCK:(b + 1) * workloads.BLOCK]
        assert sorted(s.n for s in block) == list(range(3, 10))
        strata = sorted(min(int((s.sigma - lo) / width), workloads.BLOCK - 1) for s in block)
        assert strata == list(range(workloads.BLOCK))
    for sweep in workloads.make_sweeps(3, n_ops=20):
        assert len(set(sweep)) == workloads.SWEEP_POINTS
        assert all(lo <= s <= hi for s in sweep)


@pytest.fixture(scope="module")
def zenolab():
    return workloads.import_zenolab()


def _attributes(zl):
    return {
        "operators.evolve_spectral": (zl.operators, "evolve_spectral"),
        "package alias": (zl, "evolve_spectral"),
        "scenarios alias": (zl.scenarios, "survival_report"),
        "cli alias": (zl.cli, "run_scenario"),
        "method": (zl.operators.Propagator, "evolve"),
        "constructor": (zl.statespace.WaveFunction, "__init__"),
    }


def test_wrappers_reach_every_alias_and_are_restored(zenolab):
    zl = zenolab
    before = {k: vars(owner)[attr] for k, (owner, attr) in _attributes(zl).items()}
    registry = dict(zl.scenarios.SCENARIOS)
    schedule = vars(zl.zeno.MeasurementSchedule)["equally_spaced"]
    rec = spans.Recorder()
    with spans.Instrumented(rec, zl):
        for key, (owner, attr) in _attributes(zl).items():
            assert vars(owner)[attr] is not before[key], key
        assert zl.cli.run_scenario is zl.scenarios.run_scenario
        assert all(zl.scenarios.SCENARIOS[k] is not v for k, v in registry.items())
        assert zl.zeno.MeasurementSchedule.equally_spaced(1.0, 2).times == (1 / 3, 2 / 3)
    for key, (owner, attr) in _attributes(zl).items():
        assert vars(owner)[attr] is before[key], key
    assert zl.scenarios.SCENARIOS == registry
    assert vars(zl.zeno.MeasurementSchedule)["equally_spaced"] is schedule
    # spans close innermost first: the constructor runs inside the classmethod
    assert [s[spans.NAME] for s in rec.spans] == ["zeno.MeasurementSchedule.__init__",
                                                  "zeno.MeasurementSchedule.equally_spaced"]


def test_wrappers_are_restored_after_an_exception(zenolab):
    original = zenolab.operators.evolve_spectral
    with pytest.raises(RuntimeError):
        with spans.Instrumented(spans.Recorder(), zenolab):
            raise RuntimeError("boom")
    assert zenolab.operators.evolve_spectral is original


def test_traced_calls_nest_and_count(zenolab):
    zl = zenolab
    grid = zl.Grid(-8.0, 8.0, 64)
    rec = spans.Recorder()
    with spans.Instrumented(rec, zl):
        rec.begin_op(0)
        u = zl.Propagator(zl.momentum_operator(grid))
        psi = zl.make_gaussian(grid, 0.0, 0.5)
        for t in (0.5, 1.0, 0.5):
            u.evolve(psi, t)
        rec.end_op()
    by_id = {s[spans.ID]: s for s in rec.spans}
    evolves = [s for s in rec.spans if s[spans.NAME] == "operators.evolve_spectral"]
    assert len(evolves) == 3
    assert {by_id[s[spans.PARENT]][spans.NAME] for s in evolves} == {"operators.Propagator.evolve"}
    m = spans.per_layer(rec.spans, n_ops=1, sweep_jobs=2)
    assert m["operators.evolve.calls"] == 3
    assert m["operators.evolve.points"] == 3 * 64
    assert m["operators.evolve.repeat_t_frac"] == pytest.approx(1 / 3)
    assert m["operators.evolve.same_state_frac"] == pytest.approx(2 / 3)


def test_worker_thread_spans_hang_off_the_op_threads_open_span():
    rec = spans.Recorder()
    rec.begin_op(0)

    def worker():
        rec.call("inner", lambda: None, (), {}, None)

    def outer():
        t = threading.Thread(target=worker)
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()

    rec.call("outer", outer, (), {}, None)
    rec.end_op()
    by_name = {s[spans.NAME]: s for s in rec.spans}
    assert by_name["inner"][spans.PARENT] == by_name["outer"][spans.ID]
    assert by_name["outer"][spans.PARENT] == by_name["op"][spans.ID]

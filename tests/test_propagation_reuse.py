"""Transform-once / step-once reuse in the propagation core.

The condition samplers and measurement chains transform each state once
and build each phase step once.  These tests pin that down against the
naive loops they replaced, which call `u.evolve` for every (time, state)
pair and every chain segment, and demand exact equality on a fourier grid
(below and above numpy's 256 KiB temporary-elision size), the 2x2 matrix
kind and the exact-shift path.  The half-spectrum phase vector is checked
against a long-double reference on the momentum lattice and against a
whole-array exp, bit for bit, off it.  Operation-count guards check that the reuse
actually happens, and that every FFT is a `Propagator` change of basis.
"""

from __future__ import annotations

import math
import threading
import weakref

import numpy as np
import pytest

from conftest import rabi_system
from oracles import naive_chain
from zenolab import (
    DenseSpace,
    DomainError,
    Grid,
    MeasurementSchedule,
    Propagator,
    ShiftPropagator,
    SpaceMismatchError,
    SpectralOperator,
    SubspaceProjector,
    WaveFunction,
    check_condition_I,
    check_condition_IA,
    check_condition_II,
    core_zone_state,
    dense_hermitian,
    halfline_pair,
    inner_product,
    make_bump,
    make_gaussian,
    momentum_operator,
    survival_report,
)
from zenolab import scenarios, statespace, subspaces
from zenolab.scenarios import (
    CURVE_POINTS,
    SCENARIOS,
    T_SWEEP,
    ScenarioSpec,
    run_scenario,
)
from zenolab.zeno import _chain

# ----------------------------------------------------------------------
# naive references: one evolve per pair (oracles.naive_chain: one per segment)
# ----------------------------------------------------------------------


def naive_residuals(mass, u, ts, states) -> list[float]:
    return [mass(u.evolve(s, t)) for t in ts for s in states]


def named(states) -> list[tuple[str, WaveFunction]]:
    """Trial-state pairs labelled s0, s1, ... in order."""
    return [(f"s{i}", s) for i, s in enumerate(states)]


# ----------------------------------------------------------------------
# the three systems: (u, (p_core, p_wave), core state, wave states, times,
# schedules)
# ----------------------------------------------------------------------


def _fourier(n_points: int):
    grid = Grid(-40.0, 40.0, n_points)
    pair = halfline_pair(grid)
    e = core_zone_state(pair[0], make_gaussian(grid, -8.0, 1.0))
    waves = [make_gaussian(grid, 8.0, 1.0), make_gaussian(grid, 12.0, 1.0, k0=2.0),
             make_bump(grid, 2.0, 6.0)]
    schedules = [MeasurementSchedule.equally_spaced(2.0, n) for n in (0, 1, 3, 5, 8)]
    return Propagator(momentum_operator(grid)), pair, e, waves, T_SWEEP, schedules


def _rabi():
    h, u, e, pair = rabi_system()
    waves = [WaveFunction(h.space, np.array([0.0, 1.0])),
             WaveFunction(h.space, np.array([0.0, 1.0j]))]
    schedules = [MeasurementSchedule.equally_spaced(np.pi / 2, n) for n in (0, 1, 7, 16)]
    return u, pair, e, waves, (0.1, 0.7, 1.3, 0.7), schedules


def _shift():
    grid = Grid(-40.0, 40.0, 256)
    pair = halfline_pair(grid)
    e = core_zone_state(pair[0], make_gaussian(grid, -8.0, 1.0))
    waves = [make_gaussian(grid, 8.0, 1.0), make_bump(grid, 2.0, 6.0)]
    dx = grid.dx
    ts = tuple(k * dx for k in (1, 4, 9, 4))
    schedules = [MeasurementSchedule(12 * dx, tuple(k * dx for k in marks))
                 for marks in ((), (3,), (2, 4, 6, 8, 10), (1, 5, 6, 11))]
    return ShiftPropagator(grid), pair, e, waves, ts, schedules


SYSTEMS = {
    "fourier-256": lambda: _fourier(256),
    "fourier-16384": lambda: _fourier(16384),
    "rabi": _rabi,
    "shift": _shift,
}


@pytest.fixture(scope="module", params=sorted(SYSTEMS))
def system(request):
    return SYSTEMS[request.param]()


def _residuals(report) -> list[float]:
    return [s.residual for s in report.samples]


# ----------------------------------------------------------------------
# bit-exactness against the naive loops
# ----------------------------------------------------------------------


def test_condition_residuals_match_per_pair_evolves(system):
    u, pair, e, waves, ts, _ = system
    p_core, p_wave = pair
    rep_I = check_condition_I(pair, u, ts, named(waves))
    assert _residuals(rep_I) == naive_residuals(p_core.mass, u, ts, waves)
    assert [(s.t, s.state) for s in rep_I.samples] == [
        (t, f"s{i}") for t in ts for i in range(len(waves))]

    signed = list(ts) + [-t for t in ts]
    rep_IA = check_condition_IA(pair, u, signed, named(waves))
    assert _residuals(rep_IA) == naive_residuals(p_core.mass, u, signed, waves)

    ts_II = (0.0,) + tuple(ts)
    rep_II = check_condition_II(pair, u, ts_II, named([e]))
    clipped = [core_zone_state(p_core, e)]
    assert _residuals(rep_II) == naive_residuals(p_wave.mass, u, ts_II, clipped)


def test_measured_chain_matches_per_segment_evolves(system):
    u, (p_core, _), e, _, _, schedules = system
    for sched in schedules:
        final = _chain(u, p_core, u.transform(e), [sched], {})[0]
        ref_final = naive_chain(u, p_core, e, sched)
        assert np.array_equal(final, ref_final.values)


def test_survival_report_matches_naive_protocols(system):
    u, (p_core, _), e, _, _, schedules = system
    for sched in schedules:
        rep = survival_report(u, p_core, e, [sched])[0]
        free = u.evolve(e, sched.t_final)
        chain = naive_chain(u, p_core, e, sched)
        assert rep.s_free == abs(np.vdot(e.values, free.values) * e.space.dx) ** 2
        assert rep.s_measured == abs(np.vdot(e.values, chain.values) * e.space.dx) ** 2
        assert rep.leakage_free == 1.0 - p_core.mass(free)
        assert rep.retained == chain.norm_sq()


def test_ulp_apart_segments_each_get_their_own_step():
    """Segments a a a a b c b c b (T = 2, N = 8) differ only in the last ulp."""
    _, (p_core, _), e, *_ = _fourier(256)
    u = Propagator(momentum_operator(e.space))
    sched = MeasurementSchedule.equally_spaced(2.0, 8)
    assert len({d.hex() for d in sched.segments()}) == 3
    final = _chain(u, p_core, u.transform(e), [sched], {})[0]
    ref_final = naive_chain(u, p_core, e, sched)
    assert np.array_equal(final, ref_final.values)


def test_survival_report_never_projects_through_apply(system, monkeypatch):
    """Chain segments clip their own buffer instead of calling apply."""
    u, (p_core, _), e, _, _, schedules = system
    expected = [naive_chain(u, p_core, e, s) for s in schedules]

    def refuse(self, psi):
        raise AssertionError("SubspaceProjector.apply called")

    monkeypatch.setattr(SubspaceProjector, "apply", refuse)
    reports = survival_report(u, p_core, e, schedules)
    for rep, final in zip(reports, expected):
        assert rep.s_measured == abs(inner_product(e, final)) ** 2
        assert rep.retained == final.norm_sq()


def test_apply_on_an_owned_buffer_has_the_bits_of_evolve(system):
    u, _, e, waves, ts, _ = system
    for psi in [e] + waves:
        for t in ts:
            owned = np.array(psi.values)
            values = u._apply(owned, u.step(t))
            assert values.tobytes() == u.evolve(psi, t).values.tobytes()
            if isinstance(u, Propagator) and u.generator.basis is None:
                assert values is owned


@pytest.mark.parametrize("name", ["fourier-256", "fourier-16384"])
def test_a_chain_clips_every_segment_in_one_buffer(name, monkeypatch):
    """The first segment advances into a fresh array and every later one
    and the final advance reuse it; the shared coefficients stay unwritten."""
    u, (p_core, _), e, *_ = SYSTEMS[name]()
    coeffs = u.transform(e)
    before = coeffs.copy()
    clipped = []
    clip = SubspaceProjector._clip

    def recording(self, values):
        clipped.append(values)
        return clip(self, values)

    monkeypatch.setattr(SubspaceProjector, "_clip", recording)
    final = _chain(u, p_core, coeffs, [MeasurementSchedule.equally_spaced(2.0, 5)], {})[0]
    assert len(clipped) == 5
    assert not np.shares_memory(clipped[0], coeffs)
    assert all(np.shares_memory(v, clipped[0]) for v in clipped[1:] + [final])
    assert np.array_equal(coeffs, before)


def test_clip_has_the_bits_of_a_fresh_projection():
    grid = Grid(-40.0, 40.0, 256)
    p_core, p_wave = halfline_pair(grid)
    values = make_gaussian(grid, 0.0, 3.0).values * (1 - 1j)
    values[::7] = complex(-0.0, -0.0)
    for p in (p_core, p_wave, SubspaceProjector(grid, 3, 250)):
        ref = np.zeros(grid.n_points, dtype=np.complex128)
        ref[p.start:p.stop] = values[p.start:p.stop]
        assert p._clip(values.copy()).tobytes() == ref.tobytes()
        assert p.apply(WaveFunction(grid, values)).values.tobytes() == ref.tobytes()


# ----------------------------------------------------------------------
# trial states drawn once from any iterable
# ----------------------------------------------------------------------


def test_a_generator_of_trial_states_gives_the_list_report(system):
    u, pair, e, waves, ts, _ = system
    signed = list(ts) + [-t for t in ts]
    for check, times, states in ((check_condition_I, ts, waves),
                                 (check_condition_IA, signed, waves),
                                 (check_condition_II, (0.0,) + tuple(ts), [e])):
        pairs = named(states)
        drawn = check(pair, u, times, (p for p in pairs))
        assert drawn == check(pair, u, times, pairs)


def test_generator_drawn_states_are_dead_once_the_first_time_item_runs(monkeypatch):
    grid = Grid(-40.0, 40.0, 256)
    pair = halfline_pair(grid)
    u = Propagator(momentum_operator(grid))
    refs = []

    def tracked(psi):
        refs.append(weakref.ref(psi))
        return psi

    def waves():
        yield "gaussian(8)", tracked(make_gaussian(grid, 8.0, 1.0))
        yield "bump[2,6]", tracked(make_bump(grid, 2.0, 6.0))

    def cores():
        yield "gaussian(-3)", tracked(make_gaussian(grid, -3.0, 1.0))
        yield "gaussian(-8)", tracked(make_gaussian(grid, -8.0, 1.0))

    alive = []  # drawn states still alive when the first time item starts
    inner = subspaces._map

    def spy(fn, items, most=None, points=None):
        if fn.__name__ != "at":  # the per-time items of `_sample`
            return inner(fn, items, most, points)

        def looking(t):
            if not alive:
                alive.append(sum(r() is not None for r in refs))
            return fn(t)

        return inner(looking, items, most, points)

    monkeypatch.setattr(subspaces, "_map", spy)
    for check, states in ((check_condition_I, waves), (check_condition_IA, waves),
                          (check_condition_II, cores)):
        refs.clear()
        alive.clear()
        check(pair, u, T_SWEEP, states())
        assert len(refs) == 2
        assert alive == [0]


# ----------------------------------------------------------------------
# half-spectrum phase vectors
# ----------------------------------------------------------------------

EPS = np.finfo(float).eps


def naive_step(u, t: float) -> np.ndarray:
    """The phase vector as one exp over the whole spectrum."""
    return np.exp(-1j * float(t) * u.generator.eigenvalues)


def _step_times() -> list[float]:
    rng = np.random.default_rng(20060303)
    times = [float(t) for t in rng.uniform(-10.0, 10.0, 200)]
    times += list(T_SWEEP) + [-6.0, 2.0 / 7.0, 1e-300, 0.0, -0.0, 5e-324]
    for n in range(3, 10):
        times += MeasurementSchedule.equally_spaced(2.0, n).segments()
    return times


def _off_lattice(grid: Grid) -> SpectralOperator:
    """An odd spectrum that is no lattice: the entries 0 and n/2, which oddness
    leaves free, moved off the wavenumbers."""
    k = grid.wavenumbers()
    k[0], k[grid.n_points // 2] = 0.5, 7.0
    return SpectralOperator(grid, k)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= EPS,
                    reason="the reference needs a long double wider than float64")
@pytest.mark.parametrize("n_points", [2, 2**12, 2**16])
def test_step_is_as_accurate_as_whole_spectrum_exp(n_points):
    """Against exp(-i t j dk) in long double, dk = 2 pi / L, the exact spectrum
    of -i d/dx on the grid, the lattice step is never further off than exp
    over the whole array of rounded eigenvalues, or 2 eps where that is closer.

    Only the entries [0, n/2] are compared, which holds the same over all n:
    `test_step_mirrors_its_first_half_with_positive_zeros` pins each entry
    past n/2 as the conjugate of one before it, the exact spectrum is odd so
    the reference is mirrored too, and |conj(a) - conj(b)| = |a - b|; exp's
    error on the first half bounds the step at least as strictly as on all n."""
    grid = Grid(-40.0, 40.0, n_points)
    u = Propagator(momentum_operator(grid))
    half = n_points // 2 + 1
    lam = u.generator.eigenvalues
    exact = np.rint(lam[:half] / lam[1]).astype(np.longdouble) * (
        8 * np.arctan(np.longdouble(1)) / np.longdouble(grid.length))
    for t in _step_times():
        reference = np.exp(-1j * (np.longdouble(t) * exact))
        step_error = np.max(np.abs(u.step(t)[:half] - reference))
        exp_error = np.max(np.abs(naive_step(u, t)[:half] - reference))
        assert step_error <= max(exp_error, 2 * EPS), t


@pytest.mark.parametrize("n_points", [2, 2**12, 2**16])
def test_step_matches_whole_spectrum_exp_bit_for_bit(n_points):
    """Off the lattice the half-spectrum exp and its mirror give exp's bits."""
    u = Propagator(_off_lattice(Grid(-40.0, 40.0, n_points)))
    for t in _step_times():
        assert u.step(t).tobytes() == naive_step(u, t).tobytes(), t


@pytest.mark.parametrize("n_points", [4, 256, 2**12, 2**16])
def test_step_mirrors_its_first_half_with_positive_zeros(n_points):
    """Entries past n/2 are the conjugates of n/2 - 1 .. 1, bit for bit, except
    that a zero imaginary part is +0.0 (t = -0.0 makes every one +0.0 first)."""
    half = n_points // 2 + 1
    for op in (momentum_operator(Grid(-40.0, 40.0, n_points)),
               _off_lattice(Grid(-40.0, 40.0, n_points))):
        u = Propagator(op)
        for t in _step_times():
            phases = u.step(t)
            expected = np.conjugate(phases[1:n_points - half + 1][::-1])
            expected.imag[expected.imag == 0.0] = 0.0
            assert phases[half:].tobytes() == expected.tobytes(), t


@pytest.mark.parametrize("n_points", [2, 256, 4096])
def test_step_exponentiates_half_the_spectrum(n_points, monkeypatch):
    grid = Grid(-40.0, 40.0, n_points)
    sizes = []
    lock = threading.Lock()
    exp = np.exp

    def counting_exp(x, *args, **kwargs):
        with lock:
            sizes.append(np.size(x))
        return exp(x, *args, **kwargs)

    def exp_sizes(op: SpectralOperator) -> list[int]:
        u = Propagator(op)
        sizes.clear()
        for t in (0.5, -3.0):
            u.step(t)
        return list(sizes)

    monkeypatch.setattr(np, "exp", counting_exp)
    # a lattice step exps two tables, of ceil((n/2 + 1) / b) and b entries,
    # b = isqrt(n/2) + 1; any other odd spectrum its n/2 + 1 entries [0, n/2]
    lattice = exp_sizes(momentum_operator(grid))
    assert len(lattice) == 4
    assert max(lattice[0] + lattice[1], lattice[2] + lattice[3]) <= 2 * (
        math.isqrt(n_points // 2) + 1)
    assert exp_sizes(_off_lattice(grid)) == [n_points // 2 + 1] * 2


def test_momentum_operator_takes_the_lattice_path_on_any_grid():
    rng = np.random.default_rng(33)
    for _ in range(300):
        x_min = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-6, 6))
        x_max = x_min + float(10.0 ** rng.uniform(-6, 6))
        grid = Grid(x_min, x_max, 2 ** int(rng.integers(1, 17)))
        op = momentum_operator(grid)
        assert op._spacing == op.eigenvalues[1] == 2.0 * math.pi / grid.length, grid
    assert _off_lattice(Grid(-40.0, 40.0, 8))._spacing is None
    assert SpectralOperator(Grid(-40.0, 40.0, 8), np.zeros(8))._spacing == 0.0
    assert dense_hermitian(np.eye(2))._spacing is None


def test_fourier_kind_needs_an_odd_spectrum():
    grid = Grid(-40.0, 40.0, 8)
    k = grid.wavenumbers()
    SpectralOperator(grid, k)
    SpectralOperator(grid, np.where(np.arange(8) == 4, 7.0, k))  # Nyquist free
    for not_odd in (k + 1.0, np.abs(k), k * k):
        with pytest.raises(DomainError, match="odd"):
            SpectralOperator(grid, not_odd)


# ----------------------------------------------------------------------
# coefficients are never written; returned states are read-only
# ----------------------------------------------------------------------


def test_values_leave_their_coefficients_alone(system):
    u, (p_core, _), e, waves, ts, _ = system
    coeffs = u.transform(e)
    before = coeffs.copy()
    for t in ts:
        u._values(coeffs, u.step(t))  # not handed over as `out`, so not written
    assert np.array_equal(coeffs, before)
    assert not coeffs.flags.writeable
    outs = [u.evolve(e, t) for t in ts] + [u.evolve(w, ts[0]) for w in waves]
    outs += [p_core.apply(o) for o in outs]
    assert all(not o.values.flags.writeable for o in outs)


def test_steps_and_shifts_are_read_only():
    grid = Grid(-40.0, 40.0, 256)
    u = Propagator(momentum_operator(grid))
    assert not u.step(0.3).flags.writeable
    psi = make_gaussian(grid, 0.0, 1.0)
    shifter = ShiftPropagator(grid)
    assert shifter.transform(psi) is psi.values
    assert not shifter.evolve(psi, 3 * grid.dx).values.flags.writeable
    with pytest.raises(ValueError):
        u.transform(psi)[0] = 0.0


def test_transform_rejects_a_foreign_space():
    grid = Grid(-40.0, 40.0, 256)
    other = DenseSpace(256)
    psi = WaveFunction(other, np.ones(256))
    with pytest.raises(SpaceMismatchError):
        Propagator(momentum_operator(grid)).transform(psi)
    with pytest.raises(SpaceMismatchError):
        ShiftPropagator(grid).transform(psi)


# ----------------------------------------------------------------------
# operation counts at 4096 points
# ----------------------------------------------------------------------


def _rows(x) -> int:
    """The states an operand carries: a 2-D block's first-axis length, else one."""
    return len(x) if np.ndim(x) == 2 else 1


def _install_counters(mp, calls: dict | None = None) -> dict:
    """Count the rows that each of fft, ifft and complex exp transforms, and its
    calls into `calls` when one is given."""
    # helper threads of the evolve loops call these too, so count under a lock
    counts = {"fft": 0, "ifft": 0, "exp": 0}
    lock = threading.Lock()

    def counting(name, fn, complex_only=False):
        def wrapper(x, *args, **kwargs):
            if not complex_only or np.iscomplexobj(x):
                with lock:
                    counts[name] += _rows(x)
                    if calls is not None:
                        calls[name] = calls.get(name, 0) + 1
            return fn(x, *args, **kwargs)
        return wrapper

    mp.setattr(np.fft, "fft", counting("fft", np.fft.fft))
    mp.setattr(np.fft, "ifft", counting("ifft", np.fft.ifft))
    mp.setattr(np, "exp", counting("exp", np.exp, complex_only=True))
    return counts


def _lab_waves(grid):
    return [make_gaussian(grid, 8.0, 1.0), make_gaussian(grid, 12.0, 1.0, k0=2.0),
            make_bump(grid, 2.0, 6.0), make_gaussian(grid, 20.0, 1.5)]


def test_condition_I_transforms_each_state_and_time_once(grid, zone_pair, translator):
    waves = _lab_waves(grid)
    with pytest.MonkeyPatch.context() as mp:
        counts = _install_counters(mp)
        check_condition_I(zone_pair, translator, T_SWEEP, named(waves))
    # two table exps per step
    assert counts == {"fft": 4, "ifft": 4 * len(T_SWEEP), "exp": 2 * len(T_SWEEP)}


def test_condition_I_advances_every_state_of_a_time_into_one_buffer(grid, zone_pair, translator):
    """Every time item of a thread writes all its states into the one values
    array of its thread's kit, so the inverse FFTs use one buffer per thread."""
    u, pair, waves = translator, zone_pair, _lab_waves(grid)
    buffers = []  # (thread, output array) of each inverse FFT, kept alive so no id is reused
    ifft = np.fft.ifft

    def recording(a, *args, out=None, **kwargs):
        buffers.append((threading.get_ident(), out))
        return ifft(a, *args, out=out, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.fft, "ifft", recording)
        report = check_condition_I(pair, u, T_SWEEP, named(waves))
    assert len(buffers) == len(waves) * len(T_SWEEP)
    threads = {thread for thread, _ in buffers}
    assert len({(thread, id(b)) for thread, b in buffers}) == len(threads)
    assert _residuals(report) == naive_residuals(pair[0].mass, u, T_SWEEP, waves)


@pytest.mark.parametrize("n, expected", [
    (3, {"fft": 4, "ifft": 5, "exp": 2 * 2}),
    (8, {"fft": 9, "ifft": 10, "exp": 2 * 4}),
])
def test_survival_report_shares_e_and_repeated_segments(n, expected, zone_pair, translator,
                                                       core_state):
    u, (p_core, _), e = translator, zone_pair, core_state
    sched = MeasurementSchedule.equally_spaced(2.0, n)
    with pytest.MonkeyPatch.context() as mp:
        counts = _install_counters(mp)
        survival_report(u, p_core, e, [sched])[0]
    assert counts == expected


def test_survival_report_shares_e_and_free_evolves_across_schedules(zone_pair, translator,
                                                                  core_state):
    # one transform of e serves all three schedules, and the empty one is the
    # free evolve to t = 2 of all three.  The jobs are the chains of 9, 4 and 1
    # segments: 1 + 8 + 3 ffts and 9 + 4 + 1 iffts.  Their steps: 2/9 alternates
    # in its last ulp, so the 8-instant chain builds 3, and 1/2 and 2 are exact,
    # so the others build 1 each: 5 steps of two table exps.  Three one-schedule
    # calls cost 14 ffts, 16 iffts and 7 steps
    u, (p_core, _), e = translator, zone_pair, core_state
    schedules = [MeasurementSchedule.equally_spaced(2.0, n) for n in (0, 3, 8)]
    with pytest.MonkeyPatch.context() as mp:
        counts = _install_counters(mp)
        reports = survival_report(u, p_core, e, schedules)
    assert counts == {"fft": 1 + 8 + 3, "ifft": 9 + 4 + 1, "exp": 2 * (3 + 1 + 1)}
    assert reports == tuple(survival_report(u, p_core, e, [s])[0] for s in schedules)


@pytest.mark.parametrize("n", [0, 5])
def test_hm_invariance_runs_its_spectral_report_once(n):
    # one transform of e, then CURVE_POINTS chains of N forward and N + 1
    # inverse FFTs (the last is the main spectral run) and, for N > 0, the
    # CURVE_POINTS free evolves of one inverse FFT each.  The empty schedule at
    # t is the last row's free evolve, and at N = 0 every curve row is its own
    # free evolve: 8 inverse FFTs at N = 0 (17 before the jobs were merged) and
    # 56 at N = 5 (57), on both grids.  No separate main report
    for points in (4096, 65536):
        spec = ScenarioSpec(name="hm-invariance", grid_points=points, n_measurements=n)
        with pytest.MonkeyPatch.context() as mp:
            counts = _install_counters(mp)
            run_scenario("hm-invariance", spec)
        assert counts["fft"] == CURVE_POINTS * n + 1
        assert counts["ifft"] == CURVE_POINTS * (n + 1 + (n > 0)) == {0: 8, 5: 56}[n]


def test_series_validity_sums_its_series_in_coefficients():
    # each of the three hn_norms probes and the three curves transforms its
    # state once, and the eigenvector branch its plane wave: 3 + 3 + 1
    # forward FFTs, and no power or term changes back.  With an FFT pair per
    # power of H (16 on the Gaussian, 13 and 11 on the fine and coarse bumps)
    # the scenario ran 40 + 3 + 1 and 40; with one per series term, 178 + 178
    with pytest.MonkeyPatch.context() as mp:
        counts = _install_counters(mp)
        run_scenario("series-validity")
    assert (counts["fft"], counts["ifft"]) == (3 + 3 + 1, 0)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_fft_is_a_propagator_basis_change(name):
    """A default run calls np.fft only through `Propagator._coeffs` (forward,
    `_apply`'s too) and `_inverse`, apart from the one field-synthesis ifft of
    each `_window_state` call; both sides count the rows of a block."""
    changes = {"fft": 0, "ifft": 0}
    windows = []
    lock = threading.Lock()

    def counting(kind, primitive):
        def wrapper(self, *args, **kwargs):
            if self.generator.basis is None:
                with lock:
                    changes[kind] += _rows(args[0])
            return primitive(self, *args, **kwargs)
        return wrapper

    window_state = scenarios._window_state

    def counting_window(*args, **kwargs):
        windows.append(1)
        return window_state(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        counts = _install_counters(mp)
        mp.setattr(Propagator, "_coeffs", counting("fft", Propagator._coeffs))
        mp.setattr(Propagator, "_inverse", counting("ifft", Propagator._inverse))
        mp.setattr(scenarios, "_window_state", counting_window)
        run_scenario(name)
    assert len(windows) == (name == "counterexample")
    assert counts["fft"] == changes["fft"]
    assert counts["ifft"] == changes["ifft"] + len(windows)


@pytest.mark.parametrize("n, calls", [(0, {"fft": 1, "ifft": 2}), (5, {"fft": 11, "ifft": 14})])
def test_hm_invariance_changes_the_basis_of_a_block_of_rows_per_call(n, calls):
    # at 4096 points a block holds MAP_MIN_POINTS // 4096 = 4 rows.  The spectral
    # report's distinct jobs are CURVE_POINTS = 8 curve rows of N + 1 segments and,
    # for N > 0, the 8 free evolves (one segment; the empty schedule at t is the
    # last one), cut longest first into runs of one segment count of at most 4 rows.
    # A block of S segments calls fft S - 1 times and ifft S times, after the one fft
    # of e.  For N > 0 the runs are two blocks of curve rows and two of free evolves:
    # 1 + 2 N ffts and 2 (N + 1) + 2 = 2 N + 4 iffts.  For N = 0 the curve rows are
    # the free evolves, 8 jobs of one segment: 2 blocks, 1 fft and 2 iffts
    assert statespace.MAP_MIN_POINTS // 4096 == 4 and CURVE_POINTS == 8
    seen = {}
    with pytest.MonkeyPatch.context() as mp:
        _install_counters(mp, seen)
        run_scenario("hm-invariance", ScenarioSpec(name="hm-invariance", n_measurements=n))
    assert {k: seen[k] for k in calls} == calls


@pytest.mark.parametrize("n", [0, 5])
def test_hm_invariance_runs_its_shift_report_once(n):
    # a shift survival report rolls N + 2 times (the free evolve and N + 1
    # chain segments) for N > 0; at N = 0 each row's empty schedule is its
    # own free evolve, one roll.  The rows' final times differ, so no free
    # evolve is shared.  The last shift curve row is the main shift run, so
    # there is one report per row (the t = 0 row runs none) and no other
    rolls = []
    values = ShiftPropagator._values

    def counting_values(*args, **kwargs):
        rolls.append(1)
        return values(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ShiftPropagator, "_values", counting_values)
        spec = ScenarioSpec(name="hm-invariance", n_measurements=n)
        bundle = run_scenario("hm-invariance", spec)
    reports = len(bundle.tables["survival_shift"].rows) - 1
    assert len(rolls) == reports * (n + 1 + (n > 0))

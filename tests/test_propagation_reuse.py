"""Transform-once / step-once reuse in the propagation core.

The condition samplers and measurement chains transform each state once
and build each phase step once.  These tests pin that down against the
naive loops they replaced, which call `u.evolve` for every (time, state)
pair and every chain segment, and demand exact equality on a fourier grid
(below and above numpy's 256 KiB temporary-elision size), the 2x2 matrix
kind and the exact-shift path.  A chain ends on coefficients: changed back,
they are the naive loop's final values, and a survival report reduces them
to the bits of the naive final state's coefficients (`naive_final_coeffs`).
The half-spectrum phase vector is checked against a long-double reference
on the momentum lattice and against a whole-array exp, bit for bit, off it.  Operation-count guards check that the reuse
actually happens, and that every FFT is a `Propagator` change of basis: an `rfft` or
`irfft` of real rows, two for a complex state.
"""

from __future__ import annotations

import math
import threading
import weakref

import numpy as np
import pytest

from conftest import rabi_system
from oracles import inner_product, naive_chain, naive_final_coeffs
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
        assert np.array_equal(u._inverse(final.copy()), ref_final.values)


def test_survival_report_matches_naive_protocols(system):
    u, (p_core, _), e, _, _, schedules = system
    c = u.transform(e)
    for sched in schedules:
        rep = survival_report(u, p_core, e, [sched])[0]
        free = naive_final_coeffs(u, p_core, e, MeasurementSchedule(sched.t_final, ()))
        chain = naive_final_coeffs(u, p_core, e, sched)
        assert rep.s_free == abs(u._inner(c, free)) ** 2
        assert rep.s_measured == abs(u._inner(c, chain)) ** 2
        assert rep.retained == u._inner(chain, chain).real


def test_ulp_apart_segments_each_get_their_own_step():
    """Segments a a a a b c b c b (T = 2, N = 8) differ only in the last ulp."""
    _, (p_core, _), e, *_ = _fourier(256)
    u = Propagator(momentum_operator(e.space))
    sched = MeasurementSchedule.equally_spaced(2.0, 8)
    assert len({d.hex() for d in sched.segments()}) == 3
    final = _chain(u, p_core, u.transform(e), [sched], {})[0]
    ref_final = naive_chain(u, p_core, e, sched)
    assert np.array_equal(u._inverse(final.copy()), ref_final.values)


@pytest.mark.parametrize("n_points", [256, 16384])
@pytest.mark.parametrize("k0", [0.0, 2.0], ids=["real", "complex"])
def test_coefficient_reductions_are_within_their_bound_of_the_values(n_points, k0):
    """s_free, s_measured and retained, read from the final coefficients, against the
    Riemann sums over the same final states changed back, for a real prepared state and
    a complex one (two rows, so every cross term counts).

    Bound, with u = eps / 2 and gamma_k = k u / (1 - k u) (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., Lemma 3.1 and eq. 3.5): a dot product of
    k real terms errs by at most gamma_k times the product of the norms, in any order of
    summation, blocks included.  A coefficient row of m = n/2 + 1 complex entries is a
    real dot of 2m terms, and a complex state combines four row dots, so the
    coefficient side errs by (rows gamma_2m + 2 eps) ||a|| ||b||, the values side by
    gamma_2n (n complex products).  The change back errs by delta = (16 log2(n) + 1)
    eps relative in norm (Thm. 24.2, as test_scenarios' dense twin has it, plus the
    weighting multiply), and so does e's transform.  Every state has norm at most 1, so
    the two overlaps differ by at most D = rows gamma_2m + 2 eps + gamma_2n (1 + delta)
    + 2 delta (1 + delta), their squares by (2 + D) D plus 4 eps for abs and the square,
    and the two squared norms by rows gamma_2m + 2 eps + gamma_2n (1 + delta)^2
    + (2 + delta) delta."""
    grid = Grid(-40.0, 40.0, n_points)
    p_core, _ = halfline_pair(grid)
    u = Propagator(momentum_operator(grid))
    e = core_zone_state(p_core, make_gaussian(grid, -8.0, 1.0, k0=k0))
    rows = 1 if k0 == 0.0 else 2
    eps = np.finfo(float).eps

    def gamma(k: int) -> float:
        return k * eps / 2 / (1 - k * eps / 2)

    delta = (16 * math.log2(n_points) + 1) * eps
    coeff_side = rows * gamma(2 * (n_points // 2 + 1)) + 2 * eps
    overlap = coeff_side + gamma(2 * n_points) * (1 + delta) + 2 * delta * (1 + delta)
    s_bound = (2 + overlap) * overlap + 4 * eps
    norm_bound = coeff_side + gamma(2 * n_points) * (1 + delta) ** 2 + (2 + delta) * delta
    schedules = [MeasurementSchedule.equally_spaced(2.0, n) for n in (0, 3, 8)]
    for sched, rep in zip(schedules, survival_report(u, p_core, e, schedules)):
        free = WaveFunction._adopt(grid, u._values(u.transform(e), u.step(sched.t_final)))
        final = WaveFunction._adopt(grid, u._inverse(_chain(u, p_core, u.transform(e),
                                                            [sched], {})[0].copy()))
        assert abs(rep.s_free - abs(inner_product(e, free)) ** 2) <= s_bound
        assert abs(rep.s_measured - abs(inner_product(e, final)) ** 2) <= s_bound
        assert abs(rep.retained - inner_product(final, final).real) <= norm_bound


def test_shift_reports_keep_the_bits_of_values_reductions():
    """On the shift path the coefficients are the values, so every report field keeps
    the bits that the values-space reductions gave before reports read coefficients:
    |<e, v>|^2 as the blocked vdot times dx, and ||v||^2 as `norm_sq`, at 2^14 points,
    where a dot is two blocks."""
    grid = Grid(-40.0, 40.0, statespace.MAP_MIN_POINTS)
    p_core, _ = halfline_pair(grid)
    u = ShiftPropagator(grid)
    e = core_zone_state(p_core, make_gaussian(grid, -8.0, 1.0))
    dx = grid.dx
    schedules = [scenarios._shift_schedule(steps, dx, n) for steps, n in ((900, 0), (900, 5),
                                                                         (600, 2))]

    def survival(final) -> float:
        return abs(complex(statespace._blocked(np.vdot, e.values, final.values) * dx)) ** 2

    for sched, rep in zip(schedules, survival_report(u, p_core, e, schedules)):
        free = u.evolve(e, sched.t_final)
        final = naive_chain(u, p_core, e, sched)
        assert rep.s_free.hex() == survival(free).hex()
        assert rep.s_measured.hex() == survival(final).hex()
        assert rep.retained.hex() == final.norm_sq().hex()


def test_survival_report_never_projects_through_apply(system, monkeypatch):
    """Chain segments clip their own buffer instead of calling apply."""
    u, (p_core, _), e, _, _, schedules = system
    c = u.transform(e)
    expected = [naive_final_coeffs(u, p_core, e, s) for s in schedules]

    def refuse(self, psi):
        raise AssertionError("SubspaceProjector.apply called")

    monkeypatch.setattr(SubspaceProjector, "apply", refuse)
    reports = survival_report(u, p_core, e, schedules)
    for rep, final in zip(reports, expected):
        assert rep.s_measured == abs(u._inner(c, final)) ** 2
        assert rep.retained == u._inner(final, final).real


def test_apply_on_an_owned_buffer_has_the_bits_of_evolve(system):
    """A chain's multiply writes over its own coefficients (a roll, into a second buffer),
    and the change back gives evolve's bits."""
    u, _, e, waves, ts, _ = system
    for psi in [e] + waves:
        for t in ts:
            owned = np.array(u.transform(psi))
            work = owned if isinstance(u, Propagator) else np.empty_like(owned)
            phased = u._phase(owned, u.step(t), work)
            assert phased is work
            assert u._inverse(phased).tobytes() == u.evolve(psi, t).values.tobytes()


@pytest.mark.parametrize("name", ["fourier-256", "fourier-16384"])
def test_a_chain_clips_every_segment_in_one_buffer(name, monkeypatch):
    """Every later segment changes back into one values buffer and clips it there, and
    the chain ends on coefficients apart from it; the shared coefficients stay
    unwritten."""
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
    assert all(np.shares_memory(v, clipped[0]) for v in clipped[1:])
    assert not np.shares_memory(final, clipped[0]) and not np.shares_memory(final, coeffs)
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
    """An odd spectrum that is no lattice: the pair +-2 dk moved to +-2.5 dk (n >= 8)."""
    k = grid.wavenumbers()
    k[2], k[-2] = 1.25 * k[2], -1.25 * k[2]
    return SpectralOperator(grid, k)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= EPS,
                    reason="the reference needs a long double wider than float64")
@pytest.mark.parametrize("n_points", [2, 2**12, 2**16])
def test_step_is_as_accurate_as_whole_spectrum_exp(n_points):
    """Against exp(-i t j dk) in long double, dk = 2 pi / L, the exact spectrum
    of -i d/dx on the grid at j < n/2, the lattice step is never further off than
    exp over the whole array of rounded eigenvalues, or 2 eps where that is closer.
    The step holds the entries [0, n/2] only, and the Nyquist entry's eigenvalue
    is 0, so its phase is exactly 1."""
    grid = Grid(-40.0, 40.0, n_points)
    u = Propagator(momentum_operator(grid))
    mid = n_points // 2
    exact = np.arange(mid, dtype=np.longdouble) * (
        8 * np.arctan(np.longdouble(1)) / np.longdouble(grid.length))
    for t in _step_times():
        reference = np.exp(-1j * (np.longdouble(t) * exact))
        step = u.step(t)
        assert step.shape == (mid + 1,) and step[mid] == 1.0, t
        step_error = np.max(np.abs(step[:mid] - reference))
        exp_error = np.max(np.abs(naive_step(u, t)[:mid] - reference))
        assert step_error <= max(exp_error, 2 * EPS), t


@pytest.mark.parametrize("n_points", [8, 2**12, 2**16])
def test_step_matches_whole_spectrum_exp_bit_for_bit(n_points):
    """Off the lattice the half-spectrum exp gives exp's bits on [0, n/2]; no odd
    spectrum of fewer than 8 entries is off the lattice."""
    u = Propagator(_off_lattice(Grid(-40.0, 40.0, n_points)))
    for t in _step_times():
        assert u.step(t).tobytes() == naive_step(u, t)[:n_points // 2 + 1].tobytes(), t


@pytest.mark.parametrize("n_points", [2, 8, 256, 4096])
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
    # a lattice step exps two tables, of ceil((n/2) / b) and b entries, b =
    # isqrt(n/2) + 1, for [0, n/2); any other odd spectrum its n/2 + 1 entries
    # [0, n/2]; no odd spectrum of fewer than 8 entries is off the lattice
    mid = n_points // 2
    b = math.isqrt(mid) + 1
    assert exp_sizes(momentum_operator(grid)) == [-(-mid // b), b] * 2
    if n_points >= 8:
        assert exp_sizes(_off_lattice(grid)) == [mid + 1] * 2


def test_momentum_operator_takes_the_lattice_path_on_any_grid():
    rng = np.random.default_rng(33)
    for _ in range(300):
        x_min = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-6, 6))
        x_max = x_min + float(10.0 ** rng.uniform(-6, 6))
        grid = Grid(x_min, x_max, 2 ** int(rng.integers(1, 17)))
        op = momentum_operator(grid)
        # at 2 points entry 1 is the Nyquist mode's, so the spectrum is all 0
        dk = 2.0 * math.pi / grid.length if grid.n_points > 2 else 0.0
        assert op._spacing == op.eigenvalues[1] == dk, grid
    assert _off_lattice(Grid(-40.0, 40.0, 8))._spacing is None
    assert SpectralOperator(Grid(-40.0, 40.0, 8), np.zeros(8))._spacing == 0.0
    assert dense_hermitian(np.eye(2))._spacing is None


def test_fourier_kind_needs_an_odd_spectrum():
    """Oddness for every j leaves no entry free: the entries 0 and n/2 are their own
    partners, so both must be 0, or U(t) would not keep real rows real."""
    grid = Grid(-40.0, 40.0, 8)
    k = grid.wavenumbers()
    SpectralOperator(grid, k)
    nyquist, zero = (np.where(np.arange(8) == j, 7.0, k) for j in (4, 0))
    for not_odd in (k + 1.0, np.abs(k), k * k, nyquist, zero):
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
    """The real rows an FFT operand or a coefficient array carries: every axis but the
    last (a complex state's coefficients are two rows, re and im)."""
    return math.prod(np.shape(x)[:-1])


def _install_counters(mp, calls: dict | None = None) -> dict:
    """Count the rows that each of rfft, irfft, fft, ifft and complex exp transforms,
    and its calls into `calls` when one is given."""
    # helper threads of the evolve loops call these too, so count under a lock
    counts = {"rfft": 0, "irfft": 0, "fft": 0, "ifft": 0, "exp": 0}
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

    for name in ("rfft", "irfft", "fft", "ifft"):
        mp.setattr(np.fft, name, counting(name, getattr(np.fft, name)))
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
    # three real waves of one row and gaussian(12,k2) of two; two table exps per step
    assert counts == {"rfft": 5, "irfft": 5 * len(T_SWEEP), "fft": 0, "ifft": 0,
                      "exp": 2 * len(T_SWEEP)}


def test_condition_I_advances_every_state_of_a_time_into_one_buffer(grid, zone_pair, translator):
    """Every time item of a thread writes all its states of one kind, real or
    complex, into the one values array of that kind in its thread's kit, so the
    inverse FFTs use two buffers per thread: the three real waves' and
    gaussian(12,k2)'s, whose two rows are a view of a complex array."""
    u, pair, waves = translator, zone_pair, _lab_waves(grid)
    buffers = []  # (thread, data address) of each inverse FFT's output; the kits outlive the call
    irfft = np.fft.irfft

    def recording(a, *args, out=None, **kwargs):
        buffers.append((threading.get_ident(), out.__array_interface__["data"][0]))
        return irfft(a, *args, out=out, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.fft, "irfft", recording)
        report = check_condition_I(pair, u, T_SWEEP, named(waves))
    assert len(buffers) == len(waves) * len(T_SWEEP)
    threads = {thread for thread, _ in buffers}
    assert len(set(buffers)) == 2 * len(threads)
    assert _residuals(report) == naive_residuals(pair[0].mass, u, T_SWEEP, waves)


@pytest.mark.parametrize("n, expected", [
    (3, {"rfft": 4, "irfft": 3, "fft": 0, "ifft": 0, "exp": 2 * 2}),
    (8, {"rfft": 9, "irfft": 8, "fft": 0, "ifft": 0, "exp": 2 * 4}),
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
    # segments, ending on coefficients: 1 + 8 + 3 rffts and 8 + 3 + 0 irffts.
    # Their steps: 2/9 alternates in its last ulp, so the 8-instant chain builds
    # 3, and 1/2 and 2 are exact, so the others build 1 each: 5 steps of two
    # table exps.  e is real, one row.  Three one-schedule calls cost 14 rffts,
    # 11 irffts and 7 steps
    u, (p_core, _), e = translator, zone_pair, core_state
    schedules = [MeasurementSchedule.equally_spaced(2.0, n) for n in (0, 3, 8)]
    with pytest.MonkeyPatch.context() as mp:
        counts = _install_counters(mp)
        reports = survival_report(u, p_core, e, schedules)
    assert counts == {"rfft": 1 + 8 + 3, "irfft": 8 + 3 + 0, "fft": 0, "ifft": 0,
                      "exp": 2 * (3 + 1 + 1)}
    assert reports == tuple(survival_report(u, p_core, e, [s])[0] for s in schedules)


@pytest.mark.parametrize("n", [0, 5])
def test_hm_invariance_runs_its_spectral_report_once(n):
    # one transform of e (real: one row), then CURVE_POINTS chains of N + 1
    # segments (the last is the main spectral run), each N forward and N inverse
    # FFTs, as a chain ends on coefficients, and, for N > 0, the CURVE_POINTS free
    # evolves, which change no basis.  The empty schedule at t is the last row's
    # free evolve, and at N = 0 every curve row is its own free evolve.  The free
    # leakage at t evolves e once more: one forward and one inverse FFT.  So
    # 16 N + 3 rows, 83 at N = 5 (16 N + 17 = 97 when chains and free evolves
    # changed back to values), on both grids.  No separate main report
    for points in (4096, 65536):
        spec = ScenarioSpec(name="hm-invariance", grid_points=points, n_measurements=n)
        with pytest.MonkeyPatch.context() as mp:
            counts = _install_counters(mp)
            run_scenario("hm-invariance", spec)
        assert counts["rfft"] == CURVE_POINTS * n + 1 + 1
        assert counts["irfft"] == CURVE_POINTS * n + 1
        assert counts["rfft"] + counts["irfft"] == 16 * n + 3 == {0: 3, 5: 83}[n]
        assert counts["fft"] == counts["ifft"] == 0


def test_series_validity_sums_its_series_in_coefficients():
    # each of the three hn_norms probes and the three curves transforms its
    # real state once, one row each, and the eigenvector branch its complex
    # plane wave, two rows: 3 + 3 + 2 forward rows, and no power or term
    # changes back.  With an FFT pair per power of H (16 on the Gaussian, 13
    # and 11 on the fine and coarse bumps) the scenario ran 40 + 3 + 1 complex
    # forward FFTs and 40 inverse ones; with one per series term, 178 + 178
    with pytest.MonkeyPatch.context() as mp:
        counts = _install_counters(mp)
        run_scenario("series-validity")
    assert (counts["rfft"], counts["irfft"], counts["fft"], counts["ifft"]) == (3 + 3 + 2, 0, 0, 0)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_fft_is_a_propagator_basis_change(name):
    """A default run calls np.fft only through `Propagator._coeffs` (rfft, a chain's
    too) and `_inverse` (irfft), apart from the one field-synthesis ifft of each
    `_window_state` call; both sides count real rows, two for a complex state."""
    changes = {"rfft": 0, "irfft": 0}
    windows = []
    lock = threading.Lock()

    def counting(kind, primitive):
        def wrapper(self, *args, **kwargs):
            if self.generator.basis is None:
                x = args[0]  # values (n points per row) or coefficients
                with lock:
                    changes[kind] += _rows(x) * (2 if kind == "rfft" and np.iscomplexobj(x) else 1)
            return primitive(self, *args, **kwargs)
        return wrapper

    window_state = scenarios._window_state

    def counting_window(*args, **kwargs):
        windows.append(1)
        return window_state(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        counts = _install_counters(mp)
        mp.setattr(Propagator, "_coeffs", counting("rfft", Propagator._coeffs))
        mp.setattr(Propagator, "_inverse", counting("irfft", Propagator._inverse))
        mp.setattr(scenarios, "_window_state", counting_window)
        run_scenario(name)
    assert len(windows) == (name == "counterexample")
    assert counts["rfft"] == changes["rfft"]
    assert counts["irfft"] == changes["irfft"]
    assert (counts["fft"], counts["ifft"]) == (0, len(windows))


@pytest.mark.parametrize("n, calls", [(0, {"rfft": 2, "irfft": 1}), (5, {"rfft": 12, "irfft": 11})])
def test_hm_invariance_changes_the_basis_of_a_block_of_rows_per_call(n, calls):
    # at 4096 points a block holds MAP_MIN_POINTS // 4096 = 4 rows.  The spectral
    # report's distinct jobs are CURVE_POINTS = 8 curve rows of N + 1 segments and,
    # for N > 0, the 8 free evolves (one segment; the empty schedule at t is the
    # last one), cut longest first into runs of one segment count of at most 4 rows.
    # A block of S segments calls rfft and irfft S - 1 times each, after the one
    # rfft of e, and the free leakage at t calls each once more.  For N > 0 the runs
    # are two blocks of curve rows and two of free evolves: 2 + 2 N rffts and
    # 2 N + 1 irffts (1 + 2 N and 2 N + 4 when every block changed back once more).
    # For N = 0 the curve rows are the free evolves, 8 jobs of one segment: 2 blocks,
    # 2 rffts and 1 irfft (1 and 2)
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
    phase = ShiftPropagator._phase

    def counting_phase(*args, **kwargs):
        rolls.append(1)
        return phase(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ShiftPropagator, "_phase", counting_phase)
        spec = ScenarioSpec(name="hm-invariance", n_measurements=n)
        bundle = run_scenario("hm-invariance", spec)
    reports = len(bundle.tables["survival_shift"].rows) - 1
    assert len(rolls) == reports * (n + 1 + (n > 0))

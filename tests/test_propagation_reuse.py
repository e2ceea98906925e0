"""Transform-once / step-once reuse in the propagation core.

The condition samplers, measurement chains and Stone residuals transform
each state once and build each phase step once.  These tests pin that down
against the naive loops they replaced, which call `u.evolve` for every
(time, state) pair and every chain segment, and demand exact equality on a
fourier grid (below and above numpy's 256 KiB temporary-elision size), the
2x2 matrix kind and the exact-shift path.  The half-spectrum phase vector is
checked against a whole-array exp.  Operation-count guards check that the
reuse actually happens.
"""

from __future__ import annotations

import numpy as np
import pytest

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
    evolve_exact_shift,
    halfline_pair,
    make_bump,
    make_gaussian,
    momentum_operator,
    stone_residual,
    survival_report,
)
from zenolab.scenarios import CURVE_POINTS, T_SWEEP, ScenarioSpec, scenario_hm_invariance
from zenolab.zeno import _chain

# ----------------------------------------------------------------------
# naive references: one evolve per pair, one evolve per segment
# ----------------------------------------------------------------------


def naive_residuals(mass, u, ts, states) -> list[float]:
    return [mass(u.evolve(s, t)) for t in ts for s in states]


def naive_chain(u, p_core, e, schedule):
    psi = e
    elapsed = 0.0
    trace = []
    for t_k in schedule.times:
        psi = p_core.apply(u.evolve(psi, t_k - elapsed))
        trace.append(psi.norm_sq())
        elapsed = t_k
    return u.evolve(psi, schedule.t_final - elapsed), tuple(trace)


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
    h = dense_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
    space = h.space
    pair = (SubspaceProjector(space, 0, 1), SubspaceProjector(space, 1, 2))
    e = WaveFunction(space, np.array([1.0, 0.0]))
    waves = [WaveFunction(space, np.array([0.0, 1.0])),
             WaveFunction(space, np.array([0.0, 1.0j]))]
    schedules = [MeasurementSchedule.equally_spaced(np.pi / 2, n) for n in (0, 1, 7, 16)]
    return Propagator(h), pair, e, waves, (0.1, 0.7, 1.3, 0.7), schedules


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
    rep_I = check_condition_I(pair, u, ts, waves)
    assert _residuals(rep_I) == naive_residuals(p_core.mass, u, ts, waves)
    assert [(s.t, s.state) for s in rep_I.samples] == [
        (t, f"state-{i}") for t in ts for i in range(len(waves))]

    signed = list(ts) + [-t for t in ts]
    rep_IA = check_condition_IA(pair, u, signed, waves)
    assert _residuals(rep_IA) == naive_residuals(p_core.mass, u, signed, waves)

    ts_II = (0.0,) + tuple(ts)
    rep_II = check_condition_II(pair, u, ts_II, [e])
    clipped = [core_zone_state(p_core, e)]
    assert _residuals(rep_II) == naive_residuals(p_wave.mass, u, ts_II, clipped)


def test_measured_chain_matches_per_segment_evolves(system):
    u, (p_core, _), e, _, _, schedules = system
    for sched in schedules:
        final, trace = _chain(u, p_core, u.transform(e), sched)
        ref_final, ref_trace = naive_chain(u, p_core, e, sched)
        assert np.array_equal(final.values, ref_final.values)
        assert trace == ref_trace


def test_survival_report_matches_naive_protocols(system):
    u, (p_core, _), e, _, _, schedules = system
    for sched in schedules:
        rep = survival_report(u, p_core, e, sched)
        free = u.evolve(e, sched.t_final)
        chain, trace = naive_chain(u, p_core, e, sched)
        assert rep.s_free == abs(np.vdot(e.values, free.values) * e.space.dx) ** 2
        assert rep.s_measured == abs(np.vdot(e.values, chain.values) * e.space.dx) ** 2
        assert rep.leakage_free == 1.0 - p_core.mass(free)
        assert rep.retained_trace == trace
        assert rep.retained == chain.norm_sq()


def test_stone_residual_matches_per_time_evolves():
    grid = Grid(-40.0, 40.0, 16384)
    h = momentum_operator(grid)
    u = Propagator(h)
    psi = make_gaussian(grid, 0.0, 1.0)
    ts = [0.5, 0.1, 0.02, 0.004]
    hpsi = h.apply(psi).values
    naive = [np.linalg.norm(1j * (u.evolve(psi, t).values - psi.values) / t - hpsi)
             * np.sqrt(grid.dx) for t in ts]
    assert stone_residual(h, psi, ts).tolist() == naive


def test_ulp_apart_segments_each_get_their_own_step():
    """Segments a a a a b c b c b (T = 2, N = 8) differ only in the last ulp."""
    _, (p_core, _), e, *_ = _fourier(256)
    u = Propagator(momentum_operator(e.space))
    sched = MeasurementSchedule.equally_spaced(2.0, 8)
    assert len({d.hex() for d in sched.segments()}) == 3
    final, trace = _chain(u, p_core, u.transform(e), sched)
    ref_final, ref_trace = naive_chain(u, p_core, e, sched)
    assert np.array_equal(final.values, ref_final.values)
    assert trace == ref_trace


# ----------------------------------------------------------------------
# half-spectrum phase vectors
# ----------------------------------------------------------------------


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


@pytest.mark.parametrize("n_points", [2, 2**12, 2**16])
def test_step_matches_whole_spectrum_exp_bit_for_bit(n_points):
    u = Propagator(momentum_operator(Grid(-40.0, 40.0, n_points)))
    for t in _step_times():
        assert u.step(t).tobytes() == naive_step(u, t).tobytes(), t


@pytest.mark.parametrize("n_points", [2, 256, 4096])
def test_step_exponentiates_half_the_spectrum(n_points, monkeypatch):
    u = Propagator(momentum_operator(Grid(-40.0, 40.0, n_points)))
    sizes = []
    exp = np.exp

    def counting_exp(x, *args, **kwargs):
        sizes.append(np.size(x))
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counting_exp)
    for t in (0.5, -3.0):
        u.step(t)
    assert sizes == [n_points // 2 + 1] * 2


def test_fourier_kind_needs_an_odd_spectrum():
    grid = Grid(-40.0, 40.0, 8)
    k = grid.wavenumbers()
    SpectralOperator(grid, k, "fourier")
    SpectralOperator(grid, np.where(np.arange(8) == 4, 7.0, k), "fourier")  # Nyquist free
    for not_odd in (k + 1.0, np.abs(k), k * k):
        with pytest.raises(DomainError, match="odd"):
            SpectralOperator(grid, not_odd, "fourier")


# ----------------------------------------------------------------------
# coefficients are never written; returned states are read-only
# ----------------------------------------------------------------------


def test_advance_leaves_its_coefficients_alone(system):
    u, (p_core, _), e, waves, ts, _ = system
    coeffs = u.transform(e)
    before = np.array(getattr(coeffs, "values", coeffs), copy=True)
    outs = [u.advance(coeffs, u.step(t)) for t in ts]
    after = getattr(coeffs, "values", coeffs)
    assert np.array_equal(after, before)
    assert not after.flags.writeable
    outs += [u.evolve(w, ts[0]) for w in waves]
    outs += [p_core.apply(o) for o in outs]
    assert all(not o.values.flags.writeable for o in outs)


def test_steps_and_shifts_are_read_only():
    grid = Grid(-40.0, 40.0, 256)
    u = Propagator(momentum_operator(grid))
    assert not u.step(0.3).flags.writeable
    psi = make_gaussian(grid, 0.0, 1.0)
    assert not evolve_exact_shift(psi, 3).values.flags.writeable
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


def _install_counters(mp) -> dict:
    counts = {"fft": 0, "ifft": 0, "exp": 0}

    def counting(name, fn, complex_only=False):
        def wrapper(x, *args, **kwargs):
            if not complex_only or np.iscomplexobj(x):
                counts[name] += 1
            return fn(x, *args, **kwargs)
        return wrapper

    mp.setattr(np.fft, "fft", counting("fft", np.fft.fft))
    mp.setattr(np.fft, "ifft", counting("ifft", np.fft.ifft))
    mp.setattr(np, "exp", counting("exp", np.exp, complex_only=True))
    return counts


def _lab():
    grid = Grid(-40.0, 40.0, 4096)
    pair = halfline_pair(grid)
    waves = [make_gaussian(grid, 8.0, 1.0), make_gaussian(grid, 12.0, 1.0, k0=2.0),
             make_bump(grid, 2.0, 6.0), make_gaussian(grid, 20.0, 1.5)]
    e = core_zone_state(pair[0], make_gaussian(grid, -8.0, 1.0))
    return Propagator(momentum_operator(grid)), pair, waves, e


def test_condition_I_transforms_each_state_and_time_once():
    u, pair, waves, _ = _lab()
    with pytest.MonkeyPatch.context() as mp:
        counts = _install_counters(mp)
        check_condition_I(pair, u, T_SWEEP, waves)
    assert counts == {"fft": 4, "ifft": 4 * len(T_SWEEP), "exp": len(T_SWEEP)}


@pytest.mark.parametrize("n, expected", [
    (3, {"fft": 4, "ifft": 5, "exp": 2}),
    (8, {"fft": 9, "ifft": 10, "exp": 4}),
])
def test_survival_report_shares_e_and_repeated_segments(n, expected):
    u, (p_core, _), _, e = _lab()
    sched = MeasurementSchedule.equally_spaced(2.0, n)
    with pytest.MonkeyPatch.context() as mp:
        counts = _install_counters(mp)
        survival_report(u, p_core, e, sched)
    assert counts == expected


@pytest.mark.parametrize("n", [0, 5])
def test_hm_invariance_runs_its_spectral_report_once(n):
    # one transform of e, then CURVE_POINTS survival reports of N forward
    # and N + 2 inverse FFTs (the last is the main spectral run), plus the
    # empty schedule's one-segment chain; no separate main report and no
    # separate free evolve
    with pytest.MonkeyPatch.context() as mp:
        counts = _install_counters(mp)
        scenario_hm_invariance(ScenarioSpec(name="hm-invariance", n_measurements=n))
    assert counts["fft"] == CURVE_POINTS * n + 1
    assert counts["ifft"] == CURVE_POINTS * (n + 2) + 1


@pytest.mark.parametrize("n", [0, 5])
def test_hm_invariance_runs_its_shift_report_once(n):
    # a shift survival report rolls N + 2 times (the free evolve and N + 1
    # chain segments); the last shift curve row is the main shift run, so
    # there is one report per row (the t = 0 row runs none) and no other
    rolls = []
    roll = np.roll

    def counting_roll(*args, **kwargs):
        rolls.append(1)
        return roll(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "roll", counting_roll)
        bundle = scenario_hm_invariance(ScenarioSpec(name="hm-invariance", n_measurements=n))
    reports = len(bundle.tables["survival_shift"].rows) - 1
    assert len(rolls) == reports * (n + 2)

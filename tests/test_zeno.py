"""Measurement schedules, survival probabilities, and Zeno scaling."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import rabi_system
from oracles import rabi_chain_survival
from zenolab import statespace
from zenolab import (
    DomainError,
    MeasurementSchedule,
    PreconditionError,
    Propagator,
    ShiftPropagator,
    WaveFunction,
    core_zone_state,
    deficit_ladder,
    deficit_slope,
    inner_product,
    make_gaussian,
    survival_report,
)
from zenolab.zeno import _chain

EXP_M1 = 0.36787944117144233  # exp(-1): free Gaussian survival at t = 2, sigma = 1


# ----------------------------------------------------------------------
# Schedules
# ----------------------------------------------------------------------

def test_schedule_equally_spaced():
    sched = MeasurementSchedule.equally_spaced(2.0, 3)
    assert sched.times == (0.5, 1.0, 1.5)
    assert sched.n_measurements == 3
    assert sched.segments() == (0.5, 0.5, 0.5, 0.5)
    empty = MeasurementSchedule.equally_spaced(2.0, 0)
    assert empty.times == ()
    assert sum(empty.segments()) == 2.0


def test_schedule_validation():
    with pytest.raises(DomainError, match="strictly inside"):
        MeasurementSchedule(2.0, (0.0, 1.0))
    with pytest.raises(DomainError, match="strictly inside"):
        MeasurementSchedule(2.0, (1.0, 2.0))
    with pytest.raises(DomainError, match="strictly increasing"):
        MeasurementSchedule(2.0, (1.0, 0.5))
    with pytest.raises(DomainError, match="positive"):
        MeasurementSchedule(0.0, ())
    with pytest.raises(DomainError, match="non-negative"):
        MeasurementSchedule.equally_spaced(2.0, -1)


@pytest.mark.parametrize("t_final", [math.inf, math.nan])
def test_schedule_rejects_a_non_finite_final_time(t_final):
    # an infinite t_final reads nan in every spectral survival field
    with pytest.raises(DomainError, match=f"finite, got {t_final}"):
        MeasurementSchedule(t_final, ())


# ----------------------------------------------------------------------
# Free survival
# ----------------------------------------------------------------------

def _autocorrelation(u, g, t: float) -> float:
    """|<g, U(t) g>|^2 for a state that need not be core-zone."""
    return abs(inner_product(g, u.evolve(g, t))) ** 2


def test_free_survival_gaussian_autocorrelation(grid, translator):
    g = make_gaussian(grid, -4.0, 1.0)
    assert abs(_autocorrelation(translator, g, 2.0) - EXP_M1) <= 1e-6
    # half the drift: exp(-1/4)
    assert abs(_autocorrelation(translator, g, 1.0) - math.exp(-0.25)) <= 1e-6


def test_free_survival_at_zero_time(grid, translator):
    g = make_gaussian(grid, -4.0, 1.0)
    assert _autocorrelation(translator, g, 0.0) >= 1.0 - 1e-12


# ----------------------------------------------------------------------
# Measured survival: translation leaves it unchanged
# ----------------------------------------------------------------------

def test_measured_survival_requires_core_state(grid, zone_pair, translator):
    raw = make_gaussian(grid, -4.0, 1.0)  # wave tail ~ 3e-5, above the bound
    with pytest.raises(PreconditionError, match="core"):
        survival_report(translator, zone_pair[0], raw,
                        [MeasurementSchedule.equally_spaced(2.0, 5)])[0]


def test_measured_survival_requires_a_normalized_state(grid, zone_pair, translator, core_state):
    e = WaveFunction(grid, core_state.values * 0.7)
    with pytest.raises(PreconditionError, match="prepared state is not normalized"):
        survival_report(translator, zone_pair[0], e,
                        [MeasurementSchedule.equally_spaced(2.0, 5)])


def test_core_state_below_unit_norm_is_still_core_zone(grid, zone_pair, translator, core_state):
    # ||e||^2 = 1 - 5e-10 passes the 1e-9 normalization check and the state
    # has no wave-zone amplitude at all, so it is a core-zone state
    p_core, p_wave = zone_pair
    e = WaveFunction(grid, core_state.values * math.sqrt(1.0 - 5e-10))
    assert p_wave.mass(e) == 0.0
    assert abs(e.norm_sq() - (1.0 - 5e-10)) <= 1e-15
    rep = survival_report(translator, p_core, e, [MeasurementSchedule.equally_spaced(2.0, 3)])[0]
    assert abs(rep.delta) <= 1e-12


def test_real_wave_zone_mass_is_still_rejected(grid, zone_pair, translator, core_state):
    p_core, p_wave = zone_pair
    values = core_state.values * math.sqrt(1.0 - 2e-10)
    spike = np.zeros(grid.n_points)
    spike[-100] = math.sqrt(2e-10 / grid.dx)  # x ~ 38, deep in the wave zone
    e = WaveFunction(grid, values + spike)
    assert abs(e.norm_sq() - 1.0) <= 1e-15
    assert p_wave.mass(e) == pytest.approx(2e-10, rel=1e-12)
    with pytest.raises(PreconditionError, match="off-zone mass 2.0"):
        survival_report(translator, p_core, e, [MeasurementSchedule.equally_spaced(2.0, 3)])[0]


def test_translation_measurement_invariance_spectral(grid, zone_pair, translator, core_state):
    p_core, _ = zone_pair
    sched = MeasurementSchedule.equally_spaced(2.0, 5)
    # the truncation jump at x = 0 sets the dispersion floor; further from
    # the split the invariance tightens toward machine precision
    e5 = core_zone_state(p_core, make_gaussian(grid, -5.0, 1.0))
    rep5 = survival_report(translator, p_core, e5, [sched])[0]
    assert abs(rep5.delta) <= 1e-8
    rep8 = survival_report(translator, p_core, core_state, [sched])[0]
    assert abs(rep8.delta) <= 1e-12


def test_translation_measurement_invariance_exact_shift(grid, zone_pair, core_state):
    p_core, _ = zone_pair
    shifter = ShiftPropagator(grid)
    t_final = 102 * grid.dx
    times = tuple(k * 17 * grid.dx for k in range(1, 6))
    rep = survival_report(shifter, p_core, core_state, [MeasurementSchedule(t_final, times)])[0]
    # clipped amplitude never returns under a right shift: bitwise equality
    assert rep.delta == 0.0


def test_empty_schedule_reduces_to_free_survival(grid, zone_pair, translator, core_state):
    """Both survivals of an empty schedule, and the free leakage, have the bits
    of a plain `evolve` into fresh arrays, a path apart from the report's."""
    p_core, _ = zone_pair
    for u, t in [(translator, 2.0), (ShiftPropagator(grid), 102 * grid.dx)]:
        rep = survival_report(u, p_core, core_state, [MeasurementSchedule.equally_spaced(t, 0)])[0]
        free = u.evolve(core_state, t)
        s_free = abs(inner_product(core_state, free)) ** 2
        assert rep.s_measured.hex() == rep.s_free.hex() == s_free.hex()
        assert rep.leakage_free.hex() == (1.0 - p_core.mass(free)).hex()
        assert rep.n_measurements == 0


def _prefix_reports(u, p_core, e, schedule):
    """Reports of the schedule cut to its first k instants, k = 0..N."""
    return survival_report(u, p_core, e, [MeasurementSchedule(schedule.t_final, schedule.times[:k])
                                          for k in range(schedule.n_measurements + 1)])


def test_retained_norm_monotone_and_bounds_survival(grid, zone_pair, translator):
    # a measurement never raises the retained norm, on the spectral and the
    # exact-shift path (the shift needs instants on multiples of dx)
    p_core, _ = zone_pair
    e = core_zone_state(p_core, make_gaussian(grid, -6.0, 1.0))
    for u, sched in [
        (translator, MeasurementSchedule.equally_spaced(4.0, 7)),
        (ShiftPropagator(grid),
         MeasurementSchedule(205 * grid.dx, tuple(k * 25 * grid.dx for k in range(1, 8)))),
    ]:
        reports = _prefix_reports(u, p_core, e, sched)
        retained = [r.retained for r in reports]
        assert len(retained) == 8
        for before, after in zip(retained, retained[1:]):
            assert after <= before + 1e-15
        assert retained[-1] < retained[0]
        rep = reports[-1]
        # Cauchy-Schwarz at the final overlap
        assert rep.s_measured <= rep.retained + 1e-12
        assert 0.0 < rep.retained <= 1.0


def test_chain_stops_before_its_next_segment_once_an_interrupt_is_pending(
        zone_pair, translator, core_state, monkeypatch):
    # the runner's waiting main thread sets statespace._stopping on Ctrl-C
    p_core, _ = zone_pair
    applied = []
    apply = Propagator._apply

    def interrupted(self, values, diagonal, spare=None):
        applied.append(1)
        statespace._stopping.set()  # the interrupt arrives during this segment
        return apply(self, values, diagonal, spare)

    monkeypatch.setattr(Propagator, "_apply", interrupted)
    try:
        with pytest.raises(KeyboardInterrupt):
            _chain(translator, p_core, translator.transform(core_state),
                   [MeasurementSchedule.equally_spaced(2.0, 8)], {})
    finally:
        statespace._stopping.clear()
    assert applied == [1]


# ----------------------------------------------------------------------
# Rabi control: measurements do freeze oscillatory dynamics
# ----------------------------------------------------------------------

def test_rabi_single_measurement_quarter():
    _, u, e, (p_core, _) = rabi_system()
    t = math.pi / 2.0
    s = survival_report(u, p_core, e, [MeasurementSchedule.equally_spaced(t, 1)])[0].s_measured
    assert abs(s - 0.25) <= 1e-10
    assert abs(s - rabi_chain_survival(1.0, t, 1)) <= 1e-12


@pytest.mark.parametrize("n", [1, 3, 8, 21])
def test_rabi_chain_matches_matrix_oracle(n):
    _, u, e, (p_core, _) = rabi_system()
    t = math.pi / 2.0
    s = survival_report(u, p_core, e, [MeasurementSchedule.equally_spaced(t, n)])[0].s_measured
    assert abs(s - rabi_chain_survival(1.0, t, n)) <= 1e-12


def test_deficit_ladder_closed_form():
    t = math.pi / 2.0
    counts = (8, 16, 32)
    ladder = deficit_ladder(t, 1.0, counts)
    oracle = [1.0 - rabi_chain_survival(1.0, t, n) for n in counts]
    assert np.max(np.abs(np.array(ladder) - np.array(oracle))) <= 1e-12


def test_zeno_scaling_and_slope():
    _, u, e, (p_core, _) = rabi_system()
    t = math.pi / 2.0
    reports = [survival_report(u, p_core, e, [MeasurementSchedule.equally_spaced(t, n)])[0]
               for n in (0, 8, 16, 32, 64, 128)]
    scaling = tuple((r.n_measurements, r.s_measured) for r in reports)
    # N = 0 entry is the free survival (cos^2 at a zero crossing here)
    assert scaling[0][0] == 0
    assert scaling[0][1] == reports[0].s_free
    slope = deficit_slope(scaling)
    assert abs(slope - (-1.0)) <= 0.15
    # deficits shrink monotonically along the ladder
    deficits = [1.0 - s for n, s in scaling if n > 0]
    assert all(b < a for a, b in zip(deficits, deficits[1:]))


def test_zeno_scaling_validation():
    _, u, e, (p_core, _) = rabi_system()
    free = survival_report(u, p_core, e, [MeasurementSchedule.equally_spaced(1.0, 0)])[0]
    with pytest.raises(DomainError, match="at least two"):
        deficit_slope(((free.n_measurements, free.s_measured),))


@given(
    n=st.integers(min_value=1, max_value=9),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_rabi_survival_bounded_by_retained_norm(n, seed):
    # arbitrary strictly ordered schedules, not just equally spaced ones
    _, u, e, (p_core, _) = rabi_system()
    rng = np.random.default_rng(seed)
    times = np.sort(rng.uniform(0.05, 1.95, size=n))
    times = tuple(float(t) for t in np.unique(times))
    if not times:
        return
    reports = _prefix_reports(u, p_core, e, MeasurementSchedule(2.0, times))
    rep = reports[-1]
    assert rep.s_measured <= rep.retained + 1e-12
    retained = [r.retained for r in reports]
    for before, after in zip(retained, retained[1:]):
        assert after <= before + 1e-15

"""Measurement schedules, survival probabilities, and Zeno scaling."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import rabi_chain_survival
from zenolab import (
    DomainError,
    MeasurementSchedule,
    PreconditionError,
    Propagator,
    ShiftPropagator,
    SubspaceProjector,
    WaveFunction,
    core_zone_state,
    deficit_ladder,
    deficit_slope,
    dense_hermitian,
    inner_product,
    make_gaussian,
    survival_report,
)

EXP_M1 = 0.36787944117144233  # exp(-1): free Gaussian survival at t = 2, sigma = 1


def _rabi():
    h = dense_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
    u = Propagator(h)
    e = WaveFunction(h.space, np.array([1.0, 0.0]))
    p_core = SubspaceProjector(h.space, 0, 1)
    return u, p_core, e


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
                        MeasurementSchedule.equally_spaced(2.0, 5))


def test_core_state_below_unit_norm_is_still_core_zone(grid, zone_pair, translator):
    # ||e||^2 = 1 - 5e-10 passes the 1e-9 normalization check and the state
    # has no wave-zone amplitude at all, so it is a core-zone state
    p_core, p_wave = zone_pair
    e = core_zone_state(p_core, make_gaussian(grid, -8.0, 1.0)) * math.sqrt(1.0 - 5e-10)
    assert p_wave.mass(e) == 0.0
    assert abs(e.norm_sq() - (1.0 - 5e-10)) <= 1e-15
    rep = survival_report(translator, p_core, e, MeasurementSchedule.equally_spaced(2.0, 3))
    assert abs(rep.delta) <= 1e-12


def test_real_wave_zone_mass_is_still_rejected(grid, zone_pair, translator):
    p_core, p_wave = zone_pair
    core = core_zone_state(p_core, make_gaussian(grid, -8.0, 1.0))
    values = core.values * math.sqrt(1.0 - 2e-10)
    spike = np.zeros(grid.n_points)
    spike[-100] = math.sqrt(2e-10 / grid.dx)  # x ~ 38, deep in the wave zone
    e = WaveFunction(grid, values + spike)
    assert abs(e.norm_sq() - 1.0) <= 1e-15
    assert p_wave.mass(e) == pytest.approx(2e-10, rel=1e-12)
    with pytest.raises(PreconditionError, match="off-zone mass 2.0"):
        survival_report(translator, p_core, e, MeasurementSchedule.equally_spaced(2.0, 3))


def test_translation_measurement_invariance_spectral(grid, zone_pair, translator):
    p_core, _ = zone_pair
    sched = MeasurementSchedule.equally_spaced(2.0, 5)
    # the truncation jump at x = 0 sets the dispersion floor; further from
    # the split the invariance tightens toward machine precision
    e5 = core_zone_state(p_core, make_gaussian(grid, -5.0, 1.0))
    rep5 = survival_report(translator, p_core, e5, sched)
    assert abs(rep5.delta) <= 1e-8
    e8 = core_zone_state(p_core, make_gaussian(grid, -8.0, 1.0))
    rep8 = survival_report(translator, p_core, e8, sched)
    assert abs(rep8.delta) <= 1e-12


def test_translation_measurement_invariance_exact_shift(grid, zone_pair):
    p_core, _ = zone_pair
    shifter = ShiftPropagator(grid)
    e = core_zone_state(p_core, make_gaussian(grid, -8.0, 1.0))
    t_final = 102 * grid.dx
    times = tuple(k * 17 * grid.dx for k in range(1, 6))
    rep = survival_report(shifter, p_core, e, MeasurementSchedule(t_final, times))
    # clipped amplitude never returns under a right shift: bitwise equality
    assert rep.delta == 0.0


def test_empty_schedule_reduces_to_free_survival(grid, zone_pair, translator):
    p_core, _ = zone_pair
    e = core_zone_state(p_core, make_gaussian(grid, -8.0, 1.0))
    rep = survival_report(translator, p_core, e, MeasurementSchedule.equally_spaced(2.0, 0))
    assert rep.s_measured == rep.s_free
    assert rep.retained_trace == ()


def test_retained_trace_monotone_and_bounds_survival(grid, zone_pair, translator):
    p_core, _ = zone_pair
    e = core_zone_state(p_core, make_gaussian(grid, -6.0, 1.0))
    rep = survival_report(translator, p_core, e, MeasurementSchedule.equally_spaced(4.0, 7))
    assert len(rep.retained_trace) == 7
    for before, after in zip(rep.retained_trace, rep.retained_trace[1:]):
        assert after <= before + 1e-15
    # Cauchy-Schwarz at the final overlap
    assert rep.s_measured <= rep.retained + 1e-12
    assert 0.0 < rep.retained <= 1.0


# ----------------------------------------------------------------------
# Rabi control: measurements do freeze oscillatory dynamics
# ----------------------------------------------------------------------

def test_rabi_single_measurement_quarter():
    u, p_core, e = _rabi()
    t = math.pi / 2.0
    s = survival_report(u, p_core, e, MeasurementSchedule.equally_spaced(t, 1)).s_measured
    assert abs(s - 0.25) <= 1e-10
    assert abs(s - rabi_chain_survival(1.0, t, 1)) <= 1e-12


@pytest.mark.parametrize("n", [1, 3, 8, 21])
def test_rabi_chain_matches_matrix_oracle(n):
    u, p_core, e = _rabi()
    t = math.pi / 2.0
    s = survival_report(u, p_core, e, MeasurementSchedule.equally_spaced(t, n)).s_measured
    assert abs(s - rabi_chain_survival(1.0, t, n)) <= 1e-12


def test_deficit_ladder_closed_form():
    t = math.pi / 2.0
    counts = (8, 16, 32)
    ladder = deficit_ladder(t, 1.0, counts)
    oracle = [1.0 - rabi_chain_survival(1.0, t, n) for n in counts]
    assert np.max(np.abs(np.array(ladder) - np.array(oracle))) <= 1e-12


def test_zeno_scaling_and_slope():
    u, p_core, e = _rabi()
    t = math.pi / 2.0
    reports = [survival_report(u, p_core, e, MeasurementSchedule.equally_spaced(t, n))
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
    u, p_core, e = _rabi()
    free = survival_report(u, p_core, e, MeasurementSchedule.equally_spaced(1.0, 0))
    with pytest.raises(DomainError, match="at least two"):
        deficit_slope(((free.n_measurements, free.s_measured),))


@given(
    n=st.integers(min_value=1, max_value=9),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_rabi_survival_bounded_by_retained_trace(n, seed):
    # arbitrary strictly ordered schedules, not just equally spaced ones
    u, p_core, e = _rabi()
    rng = np.random.default_rng(seed)
    times = np.sort(rng.uniform(0.05, 1.95, size=n))
    times = tuple(float(t) for t in np.unique(times))
    if not times:
        return
    rep = survival_report(u, p_core, e, MeasurementSchedule(2.0, times))
    assert rep.s_measured <= rep.retained + 1e-12
    for before, after in zip(rep.retained_trace, rep.retained_trace[1:]):
        assert after <= before + 1e-15

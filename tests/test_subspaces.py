"""Zone projectors, leakage, and the three sampled invariance conditions."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_state
from oracles import normal_cdf
from zenolab import (
    DenseSpace,
    DomainError,
    Grid,
    PreconditionError,
    Propagator,
    ShiftPropagator,
    SpaceMismatchError,
    SubspaceProjector,
    WaveFunction,
    check_condition_I,
    check_condition_IA,
    check_condition_II,
    core_zone_state,
    dense_hermitian,
    generator_coupling,
    halfline_pair,
    inner_product,
    leakage,
    make_bump,
    make_gaussian,
    momentum_operator,
)
from zenolab.statespace import _blocked

T_SWEEP = (0.5, 1.0, 2.0, 3.0, 4.5, 6.0)


def _rabi_setup():
    h = dense_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
    space = h.space
    return h, Propagator(h), (SubspaceProjector(space, 0, 1), SubspaceProjector(space, 1, 2))


# ----------------------------------------------------------------------
# Projectors
# ----------------------------------------------------------------------

def _range_mask(p: SubspaceProjector) -> np.ndarray:
    j = np.arange(p.space.n_points)
    return (p.start <= j) & (j < p.stop)


def test_halfline_split_convention(grid, zone_pair):
    p_core, p_wave = zone_pair
    x = grid.positions()
    assert np.array_equal(_range_mask(p_core), x < 0.0)
    assert np.array_equal(_range_mask(p_wave), x >= 0.0)
    # the x = 0 sample belongs to the wave zone
    spike = np.zeros(grid.n_points)
    spike[int(np.argmin(np.abs(x)))] = 1.0
    delta = WaveFunction(grid, spike).normalized()
    assert p_wave.mass(delta) == pytest.approx(1.0, abs=1e-15)
    assert p_core.mass(delta) == 0.0


@given(
    x_min=st.floats(min_value=-50.0, max_value=-1e-3),
    x_max=st.floats(min_value=1e-3, max_value=50.0),
    log_n=st.integers(min_value=1, max_value=12),
)
def test_halfline_ranges_equal_sign_masks(x_min, x_max, log_n):
    grid = Grid(x_min, x_max, 2**log_n)
    x = grid.positions()
    if not (x < 0.0).any() or (x < 0.0).all():
        with pytest.raises(DomainError, match="straddle"):
            halfline_pair(grid)
        return
    p_core, p_wave = halfline_pair(grid)
    assert np.array_equal(_range_mask(p_core), x < 0.0)
    assert np.array_equal(_range_mask(p_wave), x >= 0.0)


def test_halfline_requires_straddling_zero():
    with pytest.raises(DomainError, match="straddle"):
        halfline_pair(Grid(2.0, 30.0, 256))


@pytest.mark.parametrize("n_points", [4096, 32768])
def test_range_projector_matches_sign_mask_reference(n_points):
    grid = Grid(-40.0, 40.0, n_points)
    x = grid.positions()
    p_core, p_wave = halfline_pair(grid)
    for seed in (1, 2, 3):
        psi = random_state(grid, seed)
        v = psi.values
        for p, inside in ((p_core, x < 0.0), (p_wave, x >= 0.0)):
            gathered = v[inside]
            ref_mass = float(np.real(_blocked(np.vdot, gathered, gathered)) * grid.dx)
            assert p.mass(psi) == ref_mass
            assert np.array_equal(p.apply(psi).values, np.where(inside, v, 0.0))


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_indicator_projector_algebra(small_grid, seed):
    p_core, p_wave = halfline_pair(small_grid)
    psi = random_state(small_grid, seed)
    once = p_core.apply(psi)
    # idempotence is exact for sample indicators
    assert np.array_equal(p_core.apply(once).values, once.values)
    # complementarity reconstructs the state exactly
    assert np.array_equal((p_core.apply(psi) + p_wave.apply(psi)).values, psi.values)
    # Pythagoras
    assert abs(p_core.mass(psi) + p_wave.mass(psi) - 1.0) <= 1e-12


@given(
    seed_a=st.integers(min_value=0, max_value=2**32 - 1),
    seed_b=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_projector_hermitian_on_samples(small_grid, seed_a, seed_b):
    p_core, _ = halfline_pair(small_grid)
    phi = random_state(small_grid, seed_a)
    psi = random_state(small_grid, seed_b)
    lhs = inner_product(p_core.apply(phi), psi)
    rhs = inner_product(phi, p_core.apply(psi))
    assert abs(lhs - rhs) <= 1e-12


def test_projector_validation(small_grid):
    # ranges must be non-empty and lie inside 0 <= j < 256
    for start, stop in ((-1, 4), (4, 4), (5, 4), (0, 257), (256, 257)):
        with pytest.raises(SpaceMismatchError, match="sample range"):
            SubspaceProjector(small_grid, start, stop)
    assert SubspaceProjector(small_grid, 0, 256).mass(random_state(small_grid, 5)) \
        == pytest.approx(1.0, abs=1e-12)


def test_projector_rejects_a_foreign_state(small_grid):
    p = SubspaceProjector(small_grid, 0, small_grid.n_points)
    psi = random_state(DenseSpace(small_grid.n_points), 7)
    with pytest.raises(SpaceMismatchError):
        p.apply(psi)
    with pytest.raises(SpaceMismatchError):
        p.mass(psi)


def test_gaussian_centered_at_split_has_half_mass(grid, zone_pair):
    _, p_wave = zone_pair
    g = make_gaussian(grid, 0.0, 1.0)
    # Riemann split gives the x = 0 sample wholly to the wave zone,
    # so the excess over 1/2 is about |psi(0)|^2 dx / 2
    assert abs(p_wave.mass(g) - 0.5) <= 0.25 * grid.dx


# ----------------------------------------------------------------------
# Core-zone preparation and leakage
# ----------------------------------------------------------------------

def test_core_zone_state_has_exact_support(grid, zone_pair):
    p_core, p_wave = zone_pair
    e = core_zone_state(p_core, make_gaussian(grid, -3.0, 1.0))
    assert p_wave.mass(e) == 0.0
    assert abs(e.norm() - 1.0) <= 1e-12
    with pytest.raises(PreconditionError, match="no core-zone component"):
        core_zone_state(p_core, make_bump(grid, 2.0, 6.0))


def test_leakage_zero_time(grid, zone_pair, translator):
    p_core, p_wave = zone_pair
    truncated = core_zone_state(p_core, make_gaussian(grid, -3.0, 1.0))
    assert leakage(p_wave, translator, truncated, 0.0) <= 1e-12
    # a raw Gaussian's t = 0 leakage is its own wave-zone tail
    raw = make_gaussian(grid, -3.0, 1.0)
    assert leakage(p_wave, translator, raw, 0.0) == pytest.approx(normal_cdf(-3.0), abs=1e-4)


def test_leakage_matches_normal_cdf_after_drift(grid, zone_pair, translator):
    _, p_wave = zone_pair
    g = make_gaussian(grid, -3.0, 1.0)
    assert abs(leakage(p_wave, translator, g, 6.0) - normal_cdf(3.0)) <= 1e-4


def test_leakage_half_at_midpoint_fine_grid():
    # the split-sample Riemann excess ~ |psi(0)|^2 dx / 2 needs a fine grid
    # to push the t = 3 midpoint value within 1e-4 of 1/2
    big = Grid(-40.0, 40.0, 2**18)
    _, p_wave = halfline_pair(big)
    u = Propagator(momentum_operator(big))
    g = make_gaussian(big, -3.0, 1.0)
    assert abs(leakage(p_wave, u, g, 3.0) - 0.5) <= 1e-4


def test_leakage_preconditions(grid, zone_pair, translator):
    _, p_wave = zone_pair
    g = make_gaussian(grid, -3.0, 1.0)
    with pytest.raises(PreconditionError, match="not normalized"):
        leakage(p_wave, translator, g * 0.7, 1.0)
    with pytest.raises(PreconditionError, match="not core-zone"):
        leakage(p_wave, translator, make_gaussian(grid, 5.0, 1.0), 1.0)


# ----------------------------------------------------------------------
# Condition (I): one-sided invariance of the wave zone
# ----------------------------------------------------------------------

def test_condition_I_translation_holds(grid, zone_pair, translator):
    p_core, _ = zone_pair
    states = [make_bump(grid, 2.0, 6.0),
              core_zone_state(zone_pair[1], make_gaussian(grid, 8.0, 1.0))]
    report = check_condition_I(zone_pair, translator, T_SWEEP, states)
    assert report.verdict == "HOLDS"
    assert report.max_residual <= 1e-8
    assert report.witness is None
    assert len(report.samples) == len(T_SWEEP) * len(states)


def test_condition_I_exact_shift_residual_is_zero(grid, zone_pair):
    # compact supports only: a clipped Gaussian still carries an e^-256 tail
    # at x_max that the periodic shift wraps back into the core zone
    shifter = ShiftPropagator(grid)
    states = [make_bump(grid, 2.0, 6.0), make_bump(grid, 0.5, 3.5)]
    ts = [51 * grid.dx, 102 * grid.dx, 307 * grid.dx]
    report = check_condition_I(zone_pair, shifter, ts, states)
    assert report.max_residual == 0.0
    assert all(s.residual == 0.0 for s in report.samples)


def test_condition_I_vacuous_on_empty_times(grid, zone_pair, translator):
    report = check_condition_I(zone_pair, translator, [], [make_bump(grid, 2.0, 6.0)])
    assert report.verdict == "HOLDS"
    assert report.max_residual == 0.0
    assert report.samples == ()


def test_condition_I_rejects_nonpositive_times(grid, zone_pair, translator):
    with pytest.raises(DomainError, match="t > 0"):
        check_condition_I(zone_pair, translator, [1.0, -0.5], [make_bump(grid, 2.0, 6.0)])


def test_condition_I_zone_guard(grid, zone_pair, translator):
    # a raw Gaussian at +3 carries ~1.3e-3 core mass, far above the strict bound
    with pytest.raises(PreconditionError, match="not wave-zone"):
        check_condition_I(zone_pair, translator, [1.0], [make_gaussian(grid, 3.0, 1.0)])


def test_condition_I_rabi_fails_with_sine_residual():
    _, u, pair = _rabi_setup()
    wave = WaveFunction(DenseSpace(2), np.array([0.0, 1.0]))
    t = 0.7
    report = check_condition_I(pair, u, [t], [wave], labels=["excited"])
    assert report.verdict == "FAILS"
    assert report.witness is not None
    assert report.witness.state == "excited"
    assert report.max_residual == pytest.approx(math.sin(t) ** 2, abs=1e-12)


# ----------------------------------------------------------------------
# Condition (II): no leakage operator
# ----------------------------------------------------------------------

def test_condition_II_translation_falsified(grid, zone_pair, translator):
    g = make_gaussian(grid, -3.0, 1.0)
    report = check_condition_II(zone_pair, translator, T_SWEEP, [g], labels=["gauss(-3)"])
    assert report.verdict == "FALSIFIED"
    assert report.witness is not None
    assert report.witness.t == 6.0
    assert report.max_residual >= 0.99


def test_condition_II_zero_time_never_falsifies(grid, zone_pair, translator):
    # P_wave U(0) P_core = 0 exactly, whatever tails the trial state has
    g = make_gaussian(grid, -3.0, 1.0)
    report = check_condition_II(zone_pair, translator, [0.0], [g])
    assert report.verdict == "NOT_FALSIFIED"
    assert report.max_residual <= 1e-12
    assert report.witness is None


def test_condition_II_rabi_falsified_with_sine_residual():
    _, u, pair = _rabi_setup()
    ground = WaveFunction(DenseSpace(2), np.array([1.0, 0.0]))
    t = 0.7
    report = check_condition_II(pair, u, [t], [ground])
    assert report.verdict == "FALSIFIED"
    assert report.max_residual == pytest.approx(math.sin(t) ** 2, abs=1e-12)


def test_condition_II_rejects_negative_times(grid, zone_pair, translator):
    with pytest.raises(DomainError, match="t >= 0"):
        check_condition_II(zone_pair, translator, [-1.0], [make_gaussian(grid, -3.0, 1.0)])


# ----------------------------------------------------------------------
# Condition (I-A): the two-sided variant
# ----------------------------------------------------------------------

def test_condition_IA_forward_holds_backward_fails(grid, zone_pair, translator):
    g = make_gaussian(grid, 3.0, 1.0)
    forward = check_condition_IA(zone_pair, translator, [6.0], [g])
    assert forward.verdict == "HOLDS"
    assert forward.max_residual <= 1e-8
    backward = check_condition_IA(zone_pair, translator, [-6.0], [g])
    assert backward.verdict == "FAILS"
    assert backward.max_residual >= 0.99
    assert backward.witness.t == -6.0


def test_condition_IA_zero_time(grid, zone_pair, translator):
    bump = make_bump(grid, 2.0, 6.0)
    spectral = check_condition_IA(zone_pair, translator, [0.0], [bump])
    assert spectral.max_residual <= 1e-12
    shift = check_condition_IA(zone_pair, ShiftPropagator(grid), [0.0], [bump])
    assert shift.max_residual == 0.0


def test_labels_length_mismatch(grid, zone_pair, translator):
    with pytest.raises(DomainError, match="labels"):
        check_condition_I(zone_pair, translator, [1.0],
                          [make_bump(grid, 2.0, 6.0)], labels=["a", "b"])


# ----------------------------------------------------------------------
# Generator-level surrogate
# ----------------------------------------------------------------------

def test_generator_coupling_small_for_margin_states(grid, zone_pair, momentum):
    states = [make_gaussian(grid, 8.0, 1.0), make_bump(grid, 2.0, 6.0)]
    assert generator_coupling(momentum, zone_pair, states) <= 1e-12

"""Zone projectors, leakage, and the three sampled invariance conditions."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import rabi_system, random_state
from oracles import inner_product, normal_cdf, nyquist_part
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
    halfline_pair,
    leakage,
    make_bump,
    make_gaussian,
    momentum_operator,
)
from zenolab import scenarios
from zenolab.scenarios import T_SWEEP
from zenolab.statespace import _blocked


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
    assert np.array_equal(p_core.apply(psi).values + p_wave.apply(psi).values, psi.values)
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


@pytest.mark.parametrize("kind, t", [("spectral", math.inf), ("spectral", math.nan),
                                     ("shift", math.inf), ("shift", math.nan)],
                         ids=["spectral-inf", "spectral-nan", "shift-inf", "shift-nan"])
def test_leakage_rejects_a_non_finite_time(grid, zone_pair, translator, kind, t):
    # the spectral path would return nan, and the exact shift would call t incommensurate
    u = translator if kind == "spectral" else ShiftPropagator(grid)
    with pytest.raises(DomainError, match=f"sampled time {t} is not finite"):
        leakage(zone_pair[1], u, make_gaussian(grid, -3.0, 1.0), t)


def test_leakage_preconditions(grid, zone_pair, translator):
    _, p_wave = zone_pair
    g = make_gaussian(grid, -3.0, 1.0)
    with pytest.raises(PreconditionError, match="not normalized"):
        leakage(p_wave, translator, WaveFunction(grid, g.values * 0.7), 1.0)
    with pytest.raises(PreconditionError, match="not core-zone"):
        leakage(p_wave, translator, make_gaussian(grid, 5.0, 1.0), 1.0)


# ----------------------------------------------------------------------
# Condition (I): one-sided invariance of the wave zone
# ----------------------------------------------------------------------

def test_condition_I_translation_holds(grid, zone_pair, translator):
    p_core, _ = zone_pair
    trunc = core_zone_state(zone_pair[1], make_gaussian(grid, 8.0, 1.0))
    states = [("bump[2,6]", make_bump(grid, 2.0, 6.0)), ("trunc-gaussian(8)", trunc)]
    report = check_condition_I(zone_pair, translator, T_SWEEP, states)
    assert report.verdict == "HOLDS"
    assert report.max_residual <= 1e-8
    assert report.witness is None
    assert len(report.samples) == len(T_SWEEP) * len(states)


def test_condition_I_exact_shift_residual_is_zero(grid, zone_pair):
    # compact supports only: a clipped Gaussian still carries an e^-256 tail
    # at x_max that the periodic shift wraps back into the core zone
    shifter = ShiftPropagator(grid)
    states = [("bump[2,6]", make_bump(grid, 2.0, 6.0)),
              ("bump[0.5,3.5]", make_bump(grid, 0.5, 3.5))]
    ts = [51 * grid.dx, 102 * grid.dx, 307 * grid.dx]
    report = check_condition_I(zone_pair, shifter, ts, states)
    assert report.max_residual == 0.0
    assert all(s.residual == 0.0 for s in report.samples)


def test_condition_I_vacuous_on_empty_times(grid, zone_pair, translator):
    report = check_condition_I(zone_pair, translator, [], [("bump", make_bump(grid, 2.0, 6.0))])
    assert report.verdict == "HOLDS"
    assert report.max_residual == 0.0
    assert report.samples == ()


def test_condition_I_rejects_nonpositive_times(grid, zone_pair, translator):
    with pytest.raises(DomainError, match="t > 0"):
        check_condition_I(zone_pair, translator, [1.0, -0.5],
                          [("bump", make_bump(grid, 2.0, 6.0))])


def test_condition_I_zone_guard(grid, zone_pair, translator):
    # a raw Gaussian at +3 carries ~1.3e-3 core mass, far above the strict bound
    with pytest.raises(PreconditionError, match="not wave-zone"):
        check_condition_I(zone_pair, translator, [1.0], [("g3", make_gaussian(grid, 3.0, 1.0))])


def test_condition_I_rabi_fails_with_sine_residual():
    _, u, _, pair = rabi_system()
    wave = WaveFunction(DenseSpace(2), np.array([0.0, 1.0]))
    t = 0.7
    report = check_condition_I(pair, u, [t], [("excited", wave)])
    assert report.verdict == "FAILS"
    assert report.witness is not None
    assert report.witness.state == "excited"
    assert report.max_residual == pytest.approx(math.sin(t) ** 2, abs=1e-12)


# ----------------------------------------------------------------------
# Condition (II): no leakage operator
# ----------------------------------------------------------------------

def test_condition_II_translation_falsified(grid, zone_pair, translator):
    g = make_gaussian(grid, -3.0, 1.0)
    report = check_condition_II(zone_pair, translator, T_SWEEP, [("gauss(-3)", g)])
    assert report.verdict == "FALSIFIED"
    assert report.witness is not None
    assert report.witness.t == 6.0
    assert report.max_residual >= 0.99


def test_condition_II_zero_time_never_falsifies(grid, zone_pair, translator):
    # P_wave U(0) P_core = 0 exactly, whatever tails the trial state has
    g = make_gaussian(grid, -3.0, 1.0)
    report = check_condition_II(zone_pair, translator, [0.0], [("gauss(-3)", g)])
    assert report.verdict == "NOT_FALSIFIED"
    assert report.max_residual <= 1e-12
    assert report.witness is None


def test_condition_II_rabi_falsified_with_sine_residual():
    _, u, ground, pair = rabi_system()
    t = 0.7
    report = check_condition_II(pair, u, [t], [("ground", ground)])
    assert report.verdict == "FALSIFIED"
    assert report.max_residual == pytest.approx(math.sin(t) ** 2, abs=1e-12)


def test_condition_II_rejects_negative_times(grid, zone_pair, translator):
    with pytest.raises(DomainError, match="t >= 0"):
        check_condition_II(zone_pair, translator, [-1.0],
                           [("g-3", make_gaussian(grid, -3.0, 1.0))])


def _undrawn():
    raise AssertionError("a trial state was drawn")
    yield  # a generator, so the error comes only on drawing


@pytest.mark.parametrize("check, ts, shown", [
    (check_condition_I, [1.0, math.nan], "nan"),
    (check_condition_II, [0.5, math.inf], "inf"),
    (check_condition_IA, [-math.inf, 1.0], "-inf"),
], ids=["I", "II", "I-A"])
def test_conditions_reject_a_non_finite_time_before_drawing_a_state(zone_pair, translator,
                                                                    check, ts, shown):
    # max() skips a nan residual, so a nan time would read HOLDS or NOT_FALSIFIED
    with pytest.raises(DomainError, match=f"sampled time {shown} is not finite"):
        check(zone_pair, translator, ts, _undrawn())


def test_condition_I_rejects_time_zero_before_drawing_a_state(zone_pair, translator):
    with pytest.raises(DomainError, match=r"forward times only \(t > 0\)"):
        check_condition_I(zone_pair, translator, [0.0], _undrawn())


# ----------------------------------------------------------------------
# Condition (I-A): the two-sided variant
# ----------------------------------------------------------------------

def test_condition_IA_forward_holds_backward_fails(grid, zone_pair, translator):
    g = make_gaussian(grid, 3.0, 1.0)
    forward = check_condition_IA(zone_pair, translator, [6.0], [("g3", g)])
    assert forward.verdict == "HOLDS"
    assert forward.max_residual <= 1e-8
    backward = check_condition_IA(zone_pair, translator, [-6.0], [("g3", g)])
    assert backward.verdict == "FAILS"
    assert backward.max_residual >= 0.99
    assert backward.witness.t == -6.0


def test_condition_IA_zero_time(grid, zone_pair, translator):
    bump = make_bump(grid, 2.0, 6.0)
    spectral = check_condition_IA(zone_pair, translator, [0.0], [("bump", bump)])
    assert spectral.max_residual <= 1e-12
    shift = check_condition_IA(zone_pair, ShiftPropagator(grid), [0.0], [("bump", bump)])
    assert shift.max_residual == 0.0


@pytest.mark.parametrize("n_points, x_max", [(256, 40.0), (4096, 690.0)])
def test_counterexample_conditions_at_lattice_times_match_the_exact_shift(n_points, x_max):
    """At t = m dx the spectral step exp(-i t k_j) = exp(-2 pi i j m / n) is the
    circular shift by m, so counterexample's (I) and (I-A) residuals on `Propagator`
    differ from `ShiftPropagator`'s exact ones by roundoff alone, except along the
    Nyquist mode: its eigenvalue is 0, so the spectral path keeps that part, c (-1)^j,
    where the shift by m multiplies it by (-1)^m.  The times are the lattice times
    nearest T_SWEEP, and +-6 for (I-A).  Both grids exit 1 on `cond_I_holds` at
    T_SWEEP itself, so that failure is a sub-grid one.

    Bound: a forward or inverse FFT errs in L2 by at most log2(n) (1 + 4 sqrt 2) eps
    relative to its input, to first order (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., Thm. 24.2); the phase multiply and the scaling
    add a few eps, so the spectral state lies within delta = 16 eps log2(n) ||psi||
    of the rolled one, plus (1 - (-1)^m) ||c (-1)^j||, twice the Nyquist part's
    norm |c_{n/2}| at odd m.  A residual r = ||P_C psi_t||^2 then moves by at most
    (sqrt(r) + delta)^2 - r, and each side's mass sum by n eps of itself."""
    grid = Grid(-40.0, x_max, n_points)
    pair = halfline_pair(grid)
    spec = scenarios.ScenarioSpec(name="counterexample")
    waves = [("gaussian(8)", make_gaussian(grid, 8.0, spec.sigma)),
             ("gaussian(12,k2)", make_gaussian(grid, 12.0, spec.sigma, k0=2.0)),
             ("bump[2,6]", make_bump(grid, 2.0, 6.0)),
             ("windowed-random", scenarios._window_state(grid, 2.0, 30.0, spec.seed))]
    ia = [("gaussian(3)", make_gaussian(grid, 3.0, spec.sigma))]
    norms = {label: state.norm_sq() for label, state in waves + ia}
    nyquist = {label: WaveFunction(grid, nyquist_part(state.values)).norm()
               for label, state in waves + ia}
    lattice = [round(t / grid.dx) * grid.dx for t in T_SWEEP]
    m6 = round(6.0 / grid.dx) * grid.dx
    spectral, shift = Propagator(momentum_operator(grid)), ShiftPropagator(grid)
    eps = np.finfo(float).eps
    for check, ts, states in ((check_condition_I, lattice, waves),
                              (check_condition_IA, [-m6, m6], ia)):
        exact = check(pair, shift, ts, list(states), tolerance=1.0).samples
        rounded = check(pair, spectral, ts, list(states), tolerance=1.0).samples
        assert [(s.t, s.state) for s in rounded] == [(s.t, s.state) for s in exact]
        for a, b in zip(rounded, exact):
            odd = round(b.t / grid.dx) % 2
            delta = 16 * eps * math.log2(n_points) * math.sqrt(norms[b.state]) + (
                2 * odd * nyquist[b.state])
            reach = (math.sqrt(b.residual) + delta) ** 2
            assert abs(a.residual - b.residual) <= reach - b.residual + 2 * n_points * eps * reach
    off = check_condition_I(pair, spectral, T_SWEEP, waves, tolerance=1.0)
    assert off.max_residual > spec.tolerance_invariance


# ----------------------------------------------------------------------
# Zone guard shared by the three conditions
# ----------------------------------------------------------------------

@pytest.mark.parametrize("check, good, bad, zone", [
    # a raw Gaussian at +3 carries ~1.3e-3 core mass, above the strict bound
    (check_condition_I, 8.0, 3.0, "wave-zone"),
    # one at -1 carries ~0.16 wave mass, above the loose bound
    (check_condition_II, -8.0, -1.0, "core-zone"),
    # one at +1 carries ~0.16 core mass, above the loose bound
    (check_condition_IA, 8.0, 1.0, "wave-zone"),
], ids=["I", "II", "I-A"])
def test_zone_guard_names_the_failing_pair(grid, zone_pair, translator, check, good, bad, zone):
    drawn = []

    def pairs():
        for label, center in (("good", good), ("bad", bad), ("never", good)):
            drawn.append(label)
            yield label, make_gaussian(grid, center, 1.0)

    with pytest.raises(PreconditionError, match=rf"trial state 'bad' is not {zone}: off-zone"):
        check(zone_pair, translator, [1.0], pairs())
    # the guard runs as each pair is drawn, so drawing stops at the failure
    assert drawn == ["good", "bad"]


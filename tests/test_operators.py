"""Spectral operators, propagators, series evolution, and the generator limit."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import rabi_system, random_state
from oracles import (apply_generator, inner_product, nyquist_part, rabi_unitary,
                     stone_residuals)
from zenolab import (
    DenseSpace,
    DomainError,
    Grid,
    Propagator,
    ShiftPropagator,
    SpaceMismatchError,
    SpectralOperator,
    WaveFunction,
    dense_hermitian,
    make_gaussian,
    make_bump,
    make_plane_wave,
    momentum_operator,
    series_vs_spectral_curve,
)
from zenolab.operators import _series_terms
from zenolab.statespace import _norm


def _apply(h: SpectralOperator, psi: WaveFunction) -> WaveFunction:
    """H psi as a state on psi's space."""
    return WaveFunction(psi.space, apply_generator(h, psi))


# ----------------------------------------------------------------------
# Momentum operator
# ----------------------------------------------------------------------

def test_momentum_spectrum_is_wavenumbers(grid, momentum):
    assert np.array_equal(momentum.eigenvalues, grid.wavenumbers())
    # the Nyquist mode's eigenvalue is 0, so the largest is (n/2 - 1) dk = pi/dx - dk
    assert momentum.eigenvalues[grid.n_points // 2] == 0.0
    assert momentum.spectral_radius == pytest.approx(math.pi / grid.dx - 2 * math.pi / grid.length)


def test_momentum_plane_wave_is_eigenvector(grid, momentum):
    pw = make_plane_wave(grid, 7)
    lam = float(momentum.eigenvalues[7])
    dev = np.max(np.abs(_apply(momentum, pw).values - lam * pw.values))
    assert dev <= 1e-12


def test_momentum_expectation_values(grid, momentum):
    g = make_gaussian(grid, 0.0, 1.0)
    assert abs(inner_product(g, _apply(momentum, g)).real) <= 1e-10
    kicked = make_gaussian(grid, 0.0, 1.0, k0=2.0)
    assert abs(inner_product(kicked, _apply(momentum, kicked)).real - 2.0) <= 1e-8


@given(
    seed_a=st.integers(min_value=0, max_value=2**32 - 1),
    seed_b=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_momentum_is_hermitian_on_samples(small_grid, seed_a, seed_b):
    h = momentum_operator(small_grid)
    phi = random_state(small_grid, seed_a)
    psi = random_state(small_grid, seed_b)
    assert abs(inner_product(phi, _apply(h, psi)) - inner_product(_apply(h, phi), psi)) <= 1e-12


# ----------------------------------------------------------------------
# Dense Hermitian operators
# ----------------------------------------------------------------------

def test_dense_pauli_x():
    h = dense_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(np.sort(h.eigenvalues), [-1.0, 1.0], atol=1e-12)
    # reconstruction through H on the canonical basis
    e0 = WaveFunction(h.space, np.array([1.0, 0.0]))
    e1 = WaveFunction(h.space, np.array([0.0, 1.0]))
    column0 = _apply(h, e0).values
    column1 = _apply(h, e1).values
    rebuilt = np.column_stack([column0, column1])
    assert np.max(np.abs(rebuilt - np.array([[0.0, 1.0], [1.0, 0.0]]))) <= 1e-10


def test_dense_diagonal_spectral_radius():
    h = dense_hermitian(np.diag([3.0, -1.0]))
    assert h.spectral_radius == pytest.approx(3.0, abs=1e-13)


def test_dense_rejects_non_hermitian():
    with pytest.raises(DomainError, match="Hermitian"):
        dense_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_dense_rejects_a_non_finite_matrix(bad):
    # nan > tol is False, so only an explicit check keeps nan out of eigh
    with pytest.raises(DomainError, match="finite"):
        dense_hermitian(np.array([[0.0, bad], [bad, 0.0]]))


@pytest.mark.parametrize("space, eigenvalues, basis", [
    # odd, so only the finiteness check rejects it
    (Grid(-1.0, 1.0, 4), [0.0, np.inf, 5.0, -np.inf], None),
    (DenseSpace(2), [np.nan, 1.0], np.eye(2)),
])
def test_spectrum_must_be_finite(space, eigenvalues, basis):
    with pytest.raises(DomainError, match="eigenvalues must be finite"):
        SpectralOperator(space, eigenvalues, basis=basis)


@pytest.mark.parametrize("shape", [(3, 3), (2, 3), (3, 2), (2,), (4,)])
def test_basis_must_be_square_in_the_space_dimension(shape):
    with pytest.raises(SpaceMismatchError, match="basis shape"):
        SpectralOperator(DenseSpace(2), [1.0, -1.0], basis=np.ones(shape))


def test_spectrum_length_must_match_the_space():
    with pytest.raises(SpaceMismatchError, match="eigenvalue count"):
        SpectralOperator(DenseSpace(2), [1.0, 0.0, -1.0])


@pytest.mark.parametrize("shape", [(2, 3), (4,)])
def test_dense_rejects_a_non_square_matrix(shape):
    with pytest.raises(SpaceMismatchError, match="expected a square matrix"):
        dense_hermitian(np.zeros(shape))


# ----------------------------------------------------------------------
# Spectral propagator: group laws and translations
# ----------------------------------------------------------------------

def test_evolve_zero_time_is_identity(grid, translator):
    g = make_gaussian(grid, -8.0, 1.0)
    assert WaveFunction(grid, translator.evolve(g, 0.0).values - g.values).norm() <= 1e-14


def test_evolve_translates_gaussian_pointwise(grid, translator):
    moved = translator.evolve(make_gaussian(grid, -8.0, 1.0), 4.0)
    target = make_gaussian(grid, -4.0, 1.0)
    assert np.max(np.abs(moved.values - target.values)) <= 1e-8


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    t=st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
    s=st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
)
def test_propagator_group_laws(small_grid, seed, t, s):
    u = Propagator(momentum_operator(small_grid))
    psi = random_state(small_grid, seed)
    assert abs(u.evolve(psi, t).norm() - 1.0) <= 1e-12          # unitarity
    two_step = u.evolve(u.evolve(psi, s), t)
    group_gap = two_step.values - u.evolve(psi, t + s).values
    assert WaveFunction(small_grid, group_gap).norm() <= 1e-11     # group law
    identity_gap = u.evolve(psi, 0.0).values - psi.values
    assert WaveFunction(small_grid, identity_gap).norm() <= 1e-14  # U(0) = I


EPS = np.finfo(float).eps


def _real_and_complex(grid: Grid) -> list[WaveFunction]:
    """A seeded real state with content at every wavenumber, the Nyquist one too, a
    complex one, and the lab's real and carried Gaussians."""
    rng = np.random.default_rng(grid.n_points)
    return [WaveFunction(grid, rng.standard_normal(grid.n_points)).normalized(),
            random_state(grid, grid.n_points), make_gaussian(grid, -3.0, 1.0),
            make_gaussian(grid, 12.0, 1.0, k0=2.0)]


@pytest.mark.parametrize("n_points", [256, 4096])
def test_a_real_state_stays_real_and_keeps_its_norm_off_the_lattice(n_points):
    """With the Nyquist eigenvalue 0, -i d/dx is real and odd, so U(t) maps a float64
    state to a float64 one at every t, and keeps its norm to roundoff: 16 eps log2 n
    for the rfft and irfft pair (Higham, Thm. 24.2, as the lattice test has it) and
    n eps for each norm's sum.  The times are no multiples of dx, so the Nyquist mode
    of the random state would fall by cos(t pi/dx) if its phase were not 1."""
    grid = Grid(-40.0, 40.0, n_points)
    u = Propagator(momentum_operator(grid))
    psi = _real_and_complex(grid)[0]
    assert psi.values.dtype == np.float64
    for t in (0.3 * grid.dx, 2.5 * grid.dx, 1.7, -6.1):
        out = u.evolve(psi, t)
        assert out.values.dtype == np.float64
        assert abs(out.norm() - psi.norm()) <= (16 * math.log2(n_points) + n_points) * EPS, t


@pytest.mark.parametrize("n_points", [256, 4096])
def test_a_complex_state_evolves_as_its_real_and_imaginary_parts(n_points):
    """A complex state is two real rows, re and im, each evolved as a real state is."""
    grid = Grid(-40.0, 40.0, n_points)
    u = Propagator(momentum_operator(grid))
    for psi in _real_and_complex(grid)[1::2]:
        re, im = (WaveFunction(grid, part) for part in (psi.values.real, psi.values.imag))
        for t in (0.0, 0.3 * grid.dx, 1.7, -6.1):
            out = u.evolve(psi, t).values
            assert out.real.tobytes() == u.evolve(re, t).values.tobytes(), t
            assert out.imag.tobytes() == u.evolve(im, t).values.tobytes(), t


@pytest.mark.parametrize("n_points", [2, 256, 4096])
def test_coefficients_carry_the_state_norm(n_points):
    """The FFT basis's coefficients, the entries [0, n/2] of each real row weighted for
    the conjugates they stand for, are an l2 isometry: their plain norm is the state
    norm, to 16 eps log2 n for the rfft and n eps for each norm's sum."""
    grid = Grid(-40.0, 40.0, n_points)
    u = Propagator(momentum_operator(grid))
    states = _real_and_complex(grid) if n_points > 2 else [
        WaveFunction(grid, np.array([1.0, -3.0])), WaveFunction(grid, np.array([1j, 2.0]))]
    for psi in states:
        coeffs = u.transform(psi)
        assert coeffs.shape == (2,) * (psi.values.dtype == np.complex128) + (n_points // 2 + 1,)
        bound = (16 * max(math.log2(n_points), 1) + n_points) * EPS * psi.norm()
        assert abs(float(_norm(coeffs)) - psi.norm()) <= bound


def test_rabi_survival_cosine():
    _, u, e, _ = rabi_system()
    for t in (0.3, 0.7, 1.2):
        s = abs(inner_product(e, u.evolve(e, t))) ** 2
        assert s == pytest.approx(math.cos(t) ** 2, abs=1e-12)
        # against the written-out 2x2 unitary as well
        dev = np.max(np.abs(u.evolve(e, t).values - rabi_unitary(1.0, t) @ e.values))
        assert dev <= 1e-12


# ----------------------------------------------------------------------
# Exact-shift path
# ----------------------------------------------------------------------

def test_shift_trivialities(grid):
    g = make_gaussian(grid, -8.0, 1.0)
    shifter = ShiftPropagator(grid)
    coeffs = shifter.transform(g)
    assert np.array_equal(shifter._values(coeffs, 0), g.values)
    assert np.array_equal(shifter._values(coeffs, grid.n_points), g.values)
    roundtrip = shifter.evolve(shifter.evolve(g, 37 * grid.dx), -37 * grid.dx)
    assert np.array_equal(roundtrip.values, g.values)


def test_shift_propagator_commensurability(grid):
    shifter = ShiftPropagator(grid)
    assert shifter.step(102 * grid.dx) == 102
    assert shifter.step(0.0) == 0
    with pytest.raises(DomainError, match="commensurate"):
        shifter.step(0.01)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_shift_step_rejects_a_non_finite_time(grid, t):
    with pytest.raises(DomainError, match="commensurate"):
        ShiftPropagator(grid).step(t)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    steps=st.integers(min_value=1, max_value=200),
)
def test_shift_matches_spectral_pointwise(small_grid, seed, steps):
    u = Propagator(momentum_operator(small_grid))
    psi = random_state(small_grid, seed)
    spectral = u.evolve(psi, steps * small_grid.dx).values
    shifter = ShiftPropagator(small_grid)
    rolled = shifter._values(shifter.transform(psi), steps)
    # the Nyquist part, whose eigenvalue is 0, stays where the shift gives it (-1)^steps
    kept = (1 - (-1) ** steps) * nyquist_part(psi.values)
    assert np.max(np.abs(spectral - rolled - kept)) <= 1e-10


# ----------------------------------------------------------------------
# Truncated power series: the kernel and the curve built on it
# ----------------------------------------------------------------------

def _records(h: SpectralOperator, psi: WaveFunction, t: float, n_terms: int) -> list:
    """Copies of every running sum the series kernel yields for psi."""
    return [rest.copy() for rest in _series_terms(h, Propagator(h).transform(psi), t, n_terms)]


def test_series_zero_time_is_exact(grid, momentum):
    g = make_gaussian(grid, -8.0, 1.0)
    curve = series_vs_spectral_curve(momentum, g, 0.0, 10)
    assert curve.errors == (0.0,) * 10
    assert not curve.diverged


def test_series_eigenvector_reduces_to_scalar(small_grid):
    # partial sums over powers 0..n-1 of the scalar exponential
    h = momentum_operator(small_grid)
    pw = make_plane_wave(small_grid, 5)
    lam = float(h.eigenvalues[5])
    n = 20
    scalar = sum((-1j * lam * 1.0) ** j / math.factorial(j) for j in range(n))
    c = Propagator(h).transform(pw)
    records = _records(h, pw, 1.0, n)
    assert len(records) == n
    assert _norm(c + records[-1] - scalar * c) <= 1e-12


def test_series_rabi_converges_to_spectral():
    h, _, e, _ = rabi_system()
    curve = series_vs_spectral_curve(h, e, math.pi / 2.0, 20)
    assert curve.errors[-1] <= 1e-12
    assert not curve.diverged


def test_series_error_monotone_past_crossover():
    # coarse grid keeps t * k_max ~ 2.5 so the error floor is reachable;
    # past n ~ t * k_max the truncation error must not grow again
    tiny = Grid(-40.0, 40.0, 64)
    h = momentum_operator(tiny)
    errors = series_vs_spectral_curve(h, make_gaussian(tiny, 0.0, 4.0), 1.0, 24).errors
    crossover = int(h.spectral_radius) + 1
    for before, after in zip(errors[crossover:], errors[crossover + 1:]):
        assert after <= before + 1e-15
    assert errors[-1] <= 1e-12


def test_series_divergence_flag(grid, momentum):
    # t * k_max ~ 8000: a term blows past the divergence guard and the
    # kernel stops there, short of the 60 records asked for
    g = make_gaussian(grid, 0.0, 1.0)
    assert len(_records(momentum, g, 50.0, 60)) < 60


def test_series_divergence_is_reported_past_a_transient_blow_up():
    # t * k_max ~ 63: the middle terms reach about 1e23 ||psi||, past the
    # 1e12 guard, and term 300 is down to about 1e-77 ||psi||; the curve
    # still reports the divergence, and every depth from the first term
    # past the guard reads inf
    coarse = Grid(-8.0, 8.0, 64)
    h = momentum_operator(coarse)
    curve = series_vs_spectral_curve(h, make_bump(coarse, -2.0, 2.0), 5.0, 300)
    assert curve.diverged
    assert math.isinf(curve.errors[-1])


def test_series_overflow_is_a_flag_not_a_warning():
    # the first term's norm overflows to inf; the suite turns any
    # RuntimeWarning into an error, so this also checks that numpy stays
    # quiet about it
    fine = Grid(-40.0, 40.0, 1024)
    curve = series_vs_spectral_curve(momentum_operator(fine), make_bump(fine, -2.0, 2.0),
                                     1e300, 200)
    assert curve.diverged
    assert math.isfinite(curve.errors[0]) and math.isinf(curve.errors[1])


def test_series_validation():
    # the dense basis too rejects a depth below one
    h, _, e, _ = rabi_system()
    with pytest.raises(DomainError):
        series_vs_spectral_curve(h, e, 1.0, 0)


def test_operator_entry_points_reject_a_foreign_state(grid, momentum):
    # same point count on another domain: only the space comparison tells them apart
    foreign = make_gaussian(Grid(-20.0, 20.0, grid.n_points), 0.0, 1.0)
    with pytest.raises(SpaceMismatchError, match="state lives on"):
        series_vs_spectral_curve(momentum, foreign, 0.1, 4)


# ----------------------------------------------------------------------
# Stone residual: the derivative at t -> 0+
# ----------------------------------------------------------------------

def test_stone_eigenvector_matches_scalar_formula(grid, momentum):
    pw = make_plane_wave(grid, 7)
    lam = float(momentum.eigenvalues[7])
    ts = [0.1, 0.05, 0.025]
    residuals = stone_residuals(momentum, pw, ts)
    scalar = [abs(1j * (np.exp(-1j * lam * t) - 1.0) / t - lam) for t in ts]
    assert np.max(np.abs(residuals - np.array(scalar))) <= 1e-12


def test_stone_gaussian_slope_one(grid, momentum):
    g = make_gaussian(grid, 0.0, 1.0)
    ts = [1e-2 * 2.0 ** (-j) for j in range(10)]
    residuals = stone_residuals(momentum, g, ts)
    final = [(t, r) for t, r in zip(ts, residuals) if t <= 10.0 * ts[-1]]
    slope = np.polyfit(np.log([p[0] for p in final]), np.log([p[1] for p in final]), 1)[0]
    assert abs(slope - 1.0) <= 0.1


def test_stone_bump_residual_converges(grid, momentum):
    b = make_bump(grid, -6.0, 6.0)
    ts = [1e-2 * 2.0 ** (-j) for j in range(8)]
    residuals = stone_residuals(momentum, b, ts)
    assert all(b < a for a, b in zip(residuals, residuals[1:]))


# ----------------------------------------------------------------------
# Scaling: a reciprocal has the bits of division; the FFT basis's weights
# ----------------------------------------------------------------------

#: real and imaginary parts crafted to hit every special case of both paths
SPECIALS = [0.0, -0.0, np.inf, -np.inf, np.nan, 1.5, -2.5, 5e-324]


@pytest.mark.parametrize("n_points", [2**12, 2**16])
def test_reciprocal_multiply_has_the_bits_of_division(n_points):
    """x * (1 / r) against numpy's x / r for the divisors the lab uses.

    Finite nonzero parts and infinities agree bit for bit, nans sit in the
    same places, and the only other difference is the sign of an exact
    zero, which the crafted entries show does occur.
    """
    rng = np.random.default_rng(n_points)
    x = rng.standard_normal(n_points) + 1j * rng.standard_normal(n_points)
    crafted = np.array([complex(a, b) for a in SPECIALS for b in SPECIALS])
    x[:crafted.size] = crafted
    grid = Grid(-40.0, 40.0, n_points)
    divisors = (math.sqrt(grid.dx / n_points),  # the unit of the FFT basis's weights
                float(np.linalg.norm(x[crafted.size:])) * math.sqrt(grid.dx),  # a norm
                math.sqrt(grid.length))  # the plane wave's
    for r in divisors:
        with np.errstate(invalid="ignore"):
            quotient, product = x / r, x * (1.0 / r)
        for q, p in ((quotient.real, product.real), (quotient.imag, product.imag)):
            nan = np.isnan(q)
            assert np.array_equal(nan, np.isnan(p))
            differ = (q.view(np.uint64) != p.view(np.uint64)) & ~nan
            assert np.all(q[differ] == 0.0) and np.all(p[differ] == 0.0)
            assert not differ[crafted.size:].any()
            assert differ[:crafted.size].any()


@pytest.mark.parametrize("n_points", [2**12, 2**16])
def test_inverse_change_of_basis_unweights_each_part_then_runs_irfft(n_points):
    """The coefficients [0, n/2] of a real row carry sqrt(dx/n) at the entries 0 and
    n/2 and sqrt(2 dx/n) between, where each stands for itself and its conjugate
    n - j; the inverse multiplies each float64 part by the reciprocal weight, one
    real multiply, and then runs irfft.  `normalized` divides by a reciprocal."""
    grid = Grid(-40.0, 40.0, n_points)
    rng = np.random.default_rng(n_points + 1)
    half = n_points // 2 + 1
    coeffs = rng.standard_normal(half) + 1j * rng.standard_normal(half)
    weights = np.full(half, math.sqrt(2.0 * grid.dx / n_points))
    weights[[0, -1]] = math.sqrt(grid.dx / n_points)
    parts = coeffs.view(np.float64) * np.repeat(1.0 / weights, 2)
    expected = np.fft.irfft(parts.view(np.complex128), n=n_points)
    u = Propagator(momentum_operator(grid))
    assert u._inverse(coeffs.copy()).tobytes() == expected.tobytes()
    coeffs = rng.standard_normal(n_points) + 1j * rng.standard_normal(n_points)
    psi = WaveFunction(grid, coeffs)
    assert psi.normalized().values.tobytes() == (coeffs / psi.norm()).tobytes()

"""Grid geometry, state constructors, and the discrete inner product."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_state
from oracles import gaussian_halfline_mass_quad, gaussian_overlap_quad, normal_cdf
from zenolab import (
    DomainError,
    Grid,
    SpaceMismatchError,
    WaveFunction,
    inner_product,
    make_bump,
    make_gaussian,
    make_plane_wave,
)

# half-line mass of gaussian(-3, 1), i.e. Phi(-3); frozen from oracles.normal_cdf
PHI_MINUS_3 = 1.3498980316300946e-3


def test_oracle_literals_agree():
    # erfc-based value sits ~5 ulp from the correctly rounded literal
    assert normal_cdf(-3.0) == pytest.approx(PHI_MINUS_3, abs=1e-17)
    assert normal_cdf(3.0) == pytest.approx(1.0 - PHI_MINUS_3, abs=1e-16)


# ----------------------------------------------------------------------
# Grid
# ----------------------------------------------------------------------

def test_grid_geometry(grid):
    assert grid.dx == 80.0 / 4096.0
    x = grid.positions()
    assert x[0] == -40.0
    assert x[-1] == pytest.approx(40.0 - grid.dx)
    # x = 0 is an exact sample (the zone split lands on it)
    assert 0.0 in x
    k = grid.wavenumbers()
    assert k.shape == (4096,)
    # the Nyquist mode's wavenumber is 0, so the largest is pi/dx - dk
    assert k[2048] == 0.0
    assert np.max(k) == pytest.approx(math.pi / grid.dx - 2 * math.pi / grid.length)
    assert grid.contains(-40.0, 39.0)
    assert not grid.contains(-41.0, 0.0)


@pytest.mark.parametrize("n", [0, 1, 3, 100, 4095])
def test_grid_rejects_non_power_of_two(n):
    with pytest.raises(DomainError, match="power of two"):
        Grid(-40.0, 40.0, n)


def test_grid_rejects_empty_domain():
    with pytest.raises(DomainError, match="empty domain"):
        Grid(1.0, 1.0, 64)


# ----------------------------------------------------------------------
# Gaussian states
# ----------------------------------------------------------------------

def test_gaussian_is_normalized(grid):
    g = make_gaussian(grid, -3.0, 1.0)
    assert abs(g.norm() - 1.0) <= 1e-12


def test_gaussian_position_moments(grid):
    g = make_gaussian(grid, -3.0, 2.0)
    x = grid.positions()
    w = np.abs(g.values) ** 2 * grid.dx
    mean = float((w * x).sum())
    std = float(np.sqrt((w * (x - mean) ** 2).sum()))
    assert abs(mean - (-3.0)) <= 1e-6
    assert abs(std - 2.0) <= 1e-6


def test_gaussian_momentum_spread(grid):
    # DFT of a width-sigma Gaussian has k-std 1/(2 sigma)
    for sigma in (1.0, 2.0):
        g = make_gaussian(grid, 0.0, sigma)
        coeffs = np.fft.fft(g.values) * math.sqrt(grid.dx / grid.n_points)
        k = grid.wavenumbers()
        w = np.abs(coeffs) ** 2
        w = w / w.sum()
        mean = float((w * k).sum())
        std = float(np.sqrt((w * (k - mean) ** 2).sum()))
        assert abs(std - 1.0 / (2.0 * sigma)) <= 1e-6


def test_gaussian_halfline_mass(grid):
    g = make_gaussian(grid, -3.0, 1.0)
    mask = grid.positions() >= 0.0
    mass = float(np.sum(np.abs(g.values[mask]) ** 2) * grid.dx)
    assert abs(mass - PHI_MINUS_3) <= 1e-4
    assert abs(mass - gaussian_halfline_mass_quad(-3.0, 1.0)) <= 1e-4


def test_gaussian_overlap_matches_closed_form(grid):
    g0 = make_gaussian(grid, -8.0, 1.0)
    for delta in (0.5, 1.0, 2.0, 3.0):
        shifted = make_gaussian(grid, -8.0 + delta, 1.0)
        got = abs(inner_product(g0, shifted))
        assert got == pytest.approx(math.exp(-(delta**2) / 8.0), abs=1e-9)
        assert got == pytest.approx(gaussian_overlap_quad(delta, 1.0), abs=1e-9)


def test_gaussian_momentum_kick_keeps_modulus(grid):
    plain = make_gaussian(grid, -8.0, 1.0)
    kicked = make_gaussian(grid, -8.0, 1.0, k0=2.0)
    assert np.max(np.abs(np.abs(kicked.values) - np.abs(plain.values))) <= 1e-12


def test_gaussian_containment_guard(grid):
    with pytest.raises(DomainError, match="8 sigma"):
        make_gaussian(grid, 39.0, 1.0)
    with pytest.raises(DomainError, match="sigma must be positive"):
        make_gaussian(grid, 0.0, -1.0)


@pytest.mark.parametrize("sigma", [1e200, np.float64(1e200), 1e154])
def test_gaussian_rejects_a_sigma_whose_square_overflows(sigma):
    wide = Grid(-1e300, 1e300, 64)
    with pytest.raises(DomainError, match="is too large: 2 pi sigma\\^2 overflows"):
        make_gaussian(wide, 0.0, sigma)


@pytest.mark.parametrize("k0", [math.nan, math.inf, -math.inf, 1e308, np.float64(1e308)])
def test_gaussian_rejects_a_carrier_that_overflows(grid, k0):
    # k0 * x is not finite on the domain: a nan carrier, or one whose
    # product with the domain edge overflows
    with pytest.raises(DomainError, match="carrier k0 = "):
        make_gaussian(grid, 0.0, 1.0, k0=k0)


# ----------------------------------------------------------------------
# Bump and plane-wave states
# ----------------------------------------------------------------------

def test_bump_exact_support(grid):
    b = make_bump(grid, 2.0, 6.0)
    x = grid.positions()
    outside = (x <= 2.0) | (x >= 6.0)
    assert np.all(b.values[outside] == 0.0)
    assert np.all(np.abs(b.values[~outside]) > 0.0)
    assert abs(b.norm() - 1.0) <= 1e-12


def test_bump_support_guard(grid):
    with pytest.raises(DomainError, match="empty support"):
        make_bump(grid, 6.0, 2.0)
    with pytest.raises(DomainError, match=r"empty support \[2.0, 2.0\]"):
        make_bump(grid, 2.0, 2.0)
    with pytest.raises(DomainError, match="exceeds domain"):
        make_bump(grid, 30.0, 50.0)
    # dx = 5: the support lies between two samples
    with pytest.raises(DomainError, match=r"support \[1.0, 4.0\] holds no weighted sample "
                                          r"of the grid \(dx = 5.0\)"):
        make_bump(Grid(-40.0, 40.0, 16), 1.0, 4.0)


def test_plane_wave_constant_modulus(grid):
    pw = make_plane_wave(grid, 7)
    mods = np.abs(pw.values)
    assert np.max(np.abs(mods - mods[0])) <= 1e-14
    assert abs(pw.norm() - 1.0) <= 1e-12


# ----------------------------------------------------------------------
# WaveFunction values and the inner product
# ----------------------------------------------------------------------

def test_wavefunction_values_read_only(grid):
    g = make_gaussian(grid, -3.0, 1.0)
    with pytest.raises(ValueError):
        g.values[0] = 1.0


def test_normalize_zero_state_raises(grid):
    zero = WaveFunction(grid, np.zeros(grid.n_points))
    with pytest.raises(DomainError, match="zero state"):
        zero.normalized()


def test_space_mismatch_raises(grid, small_grid):
    g = make_gaussian(grid, 0.0, 1.0)
    h = make_gaussian(small_grid, 0.0, 1.0)
    with pytest.raises(SpaceMismatchError):
        inner_product(g, h)
    with pytest.raises(SpaceMismatchError):
        WaveFunction(grid, np.zeros(7))


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_normalized_random_state_has_unit_norm(small_grid, seed):
    psi = random_state(small_grid, seed)
    assert abs(psi.norm() - 1.0) <= 1e-12


@given(
    seed_a=st.integers(min_value=0, max_value=2**32 - 1),
    seed_b=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_inner_product_conjugate_symmetric(small_grid, seed_a, seed_b):
    phi = random_state(small_grid, seed_a)
    psi = random_state(small_grid, seed_b)
    assert abs(inner_product(phi, psi) - np.conj(inner_product(psi, phi))) <= 1e-13


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    scale=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
)
def test_inner_product_linear_in_second_argument(small_grid, seed, scale):
    phi = random_state(small_grid, seed)
    psi = random_state(small_grid, seed + 1)
    lhs = inner_product(phi, WaveFunction(small_grid, psi.values * (scale + 0.5j)))
    rhs = (scale + 0.5j) * inner_product(phi, psi)
    assert abs(lhs - rhs) <= 1e-12


def test_inner_product_is_riemann_sum(grid):
    # plain sum times dx, no endpoint weighting
    g = make_gaussian(grid, 0.0, 1.0)
    expected = np.vdot(g.values, g.values) * grid.dx
    assert inner_product(g, g) == pytest.approx(expected, abs=0.0)

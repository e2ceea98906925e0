"""Growth diagnostics, regime classification, and series convergence curves."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from oracles import momentum_power_norm
from zenolab import (
    DomainError,
    Grid,
    Propagator,
    WaveFunction,
    analyticity_report,
    compare_resolutions,
    dense_hermitian,
    evolve_series,
    hn_norms,
    make_bump,
    make_gaussian,
    make_plane_wave,
    momentum_operator,
    series_vs_spectral_curve,
)
from zenolab.operators import SpectralOperator


# ----------------------------------------------------------------------
# Raw growth records
# ----------------------------------------------------------------------

def test_hn_eigenvector_ratios_are_the_eigenvalue():
    h = dense_hermitian(np.diag([3.0, -1.0]))
    e0 = WaveFunction(h.space, np.array([1.0, 0.0]))
    record = hn_norms(h, e0, 8)
    assert all(abs(r - 3.0) <= 1e-12 for r in record.step_ratios)
    # log ||H^n e0|| = n log 3
    for n, log_norm in enumerate(record.log_norms):
        assert log_norm == pytest.approx(n * math.log(3.0), abs=1e-11)


def test_hn_plane_wave_norms(small_grid):
    h = momentum_operator(small_grid)
    pw = make_plane_wave(small_grid, 5)
    lam = abs(float(h.eigenvalues[5]))
    record = hn_norms(h, pw, 6)
    for n in range(1, 7):
        assert math.exp(record.log_norms[n]) == pytest.approx(lam**n, rel=1e-12)


def test_hn_gaussian_momentum_moments(small_grid):
    # sqrt((2n-1)!!) / (2 sigma)^n, precise until saturation (k_max ~ 10 here)
    h = momentum_operator(small_grid)
    g = make_gaussian(small_grid, 0.0, 1.0)
    record = hn_norms(h, g, 12)
    for n in range(1, 13):
        exact = momentum_power_norm(n, 1.0)
        assert math.exp(record.log_norms[n]) == pytest.approx(exact, rel=1e-6)


def test_hn_nilpotent_detection():
    h = dense_hermitian(np.diag([0.0, 5.0]))
    kernel_vec = WaveFunction(h.space, np.array([1.0, 0.0]))
    record = hn_norms(h, kernel_vec, 10)
    assert record.nilpotent_at == 1
    assert record.step_ratios == ()
    report = analyticity_report(h, kernel_vec, n_max=10)
    assert report.classification == "exact-nilpotent"


def test_hn_ceiling_cap_stops_noise_riding(grid, momentum):
    # on the default grid the renormalized Gaussian iterate drifts to the
    # spectral cutoff on roundoff mass; the cap must stop the iteration
    g = make_gaussian(grid, 0.0, 1.0)
    record = hn_norms(momentum, g, 40, ceiling=momentum.spectral_radius)
    assert record.capped_at is not None
    assert 8 <= record.capped_at <= 24
    assert len(record.step_ratios) == record.capped_at


def test_hn_validation(small_grid):
    h = momentum_operator(small_grid)
    g = make_gaussian(small_grid, 0.0, 1.0)
    with pytest.raises(DomainError, match="at least 1"):
        hn_norms(h, g, 0)
    zero = WaveFunction(small_grid, np.zeros(small_grid.n_points))
    with pytest.raises(DomainError, match="zero state"):
        hn_norms(h, zero, 5)


# ----------------------------------------------------------------------
# Regime classification
# ----------------------------------------------------------------------

def test_gaussian_classifies_entire_like():
    # wide domain keeps k_max ~ 16 so 16 powers stay signal-dominated
    wide = Grid(-400.0, 400.0, 4096)
    h = momentum_operator(wide)
    g = make_gaussian(wide, 0.0, 1.0)
    report = analyticity_report(h, g, n_max=16)
    assert report.classification == "entire-like"
    assert report.tail_growth >= 1.1
    # rho_n ~ sqrt(n): strictly increasing along the recorded tail
    rho = report.norms.rho_hats()
    assert all(b > a for a, b in zip(rho[-5:], rho[-4:]))


def test_exponential_spectrum_classifies_finite_radius(small_grid):
    # |c(k)| ~ exp(-3 |k|) has time-convergence radius ~ 3: rho levels off
    k = small_grid.wavenumbers()
    coeffs = np.exp(-3.0 * np.abs(k)).astype(np.complex128)
    values = np.fft.ifft(coeffs) / math.sqrt(small_grid.dx / small_grid.n_points)
    psi = WaveFunction(small_grid, values).normalized()
    h = momentum_operator(small_grid)
    report = analyticity_report(h, psi, n_max=10)
    assert report.classification == "finite-radius-like"
    assert report.tail_growth < 1.1
    assert 2.5 <= report.plateau <= 3.5


def test_bump_saturates_and_tracks_cutoff(grid):
    coarse_grid = Grid(-40.0, 40.0, 1024)
    fine = analyticity_report(momentum_operator(grid), make_bump(grid, -6.0, 6.0),
                              n_max=40)
    coarse = analyticity_report(momentum_operator(coarse_grid),
                                make_bump(coarse_grid, -6.0, 6.0),
                                n_max=40)
    assert fine.classification == "saturated-by-grid"
    assert coarse.classification == "saturated-by-grid"
    assert compare_resolutions(fine, coarse) is True
    for report in (fine, coarse):
        assert 0.5 <= report.plateau_fraction <= 2.0
    # the plateau is a grid artifact: its location scales with the cutoff
    assert fine.plateau > 2.0 * coarse.plateau


def test_bump_derivative_growth_is_super_geometric(grid, momentum):
    # step ratios of a compactly supported smooth state keep climbing
    record = hn_norms(momentum, make_bump(grid, -6.0, 6.0), 12)
    assert all(b > a for a, b in zip(record.step_ratios, record.step_ratios[1:]))


def test_compare_resolutions_requires_finer_cutoff(grid):
    report = analyticity_report(momentum_operator(grid), make_bump(grid, -6.0, 6.0),
                                n_max=20)
    with pytest.raises(DomainError, match="larger spectral cutoff"):
        compare_resolutions(report, report)


# ----------------------------------------------------------------------
# Series-vs-spectral convergence curves
# ----------------------------------------------------------------------

def test_curve_checkpoints_match_individual_runs():
    wide = Grid(-400.0, 400.0, 4096)
    h = momentum_operator(wide)
    g = make_gaussian(wide, 0.0, 1.0)
    reference = Propagator(h).evolve(g, 1.0)
    ns = (1, 5, 10, 20, 40)
    curve = series_vs_spectral_curve(h, g, 1.0, ns, reference)
    assert curve.n_terms == ns
    for n, err in zip(curve.n_terms, curve.errors):
        single = (evolve_series(h, g, 1.0, n).state - reference).norm()
        assert err == single  # same accumulation path, bitwise identical
    assert curve.errors[-1] <= 1e-10
    assert not curve.diverged


def test_curve_reports_divergence_as_inf(grid, momentum):
    g = make_gaussian(grid, 0.0, 1.0)
    reference = Propagator(momentum).evolve(g, 50.0)
    curve = series_vs_spectral_curve(momentum, g, 50.0, (5, 30, 60), reference)
    assert curve.diverged
    assert math.isinf(curve.errors[-1])


def test_curve_stops_summing_at_the_first_diverged_depth(grid, momentum, monkeypatch):
    # the bump's terms pass DIVERGENCE_FACTOR at depth 16; the flag is
    # sticky, so no later depth needs another application of H
    b = make_bump(grid, -2.0, 2.0)
    reference = Propagator(momentum).evolve(b, 1.0)
    calls = []
    apply_values = SpectralOperator._apply_values

    def counting(self, values):
        calls.append(values.size)
        return apply_values(self, values)

    monkeypatch.setattr(SpectralOperator, "_apply_values", counting)
    curve = series_vs_spectral_curve(momentum, b, 1.0, range(1, 61), reference)
    assert len(calls) == 15
    assert curve.diverged
    assert all(math.isfinite(e) for e in curve.errors[:15])
    assert all(math.isinf(e) for e in curve.errors[15:])


def test_curve_keeps_one_partial_sum_alive():
    # k_max * sigma = 16 as in series-validity, so the sum never diverges
    wide = Grid(-1600.0, 1600.0, 2**14)
    h = momentum_operator(wide)
    g = make_gaussian(wide, 0.0, 1.0)
    reference = Propagator(h).evolve(g, 1.0)
    tracemalloc.start()
    try:
        curve = series_vs_spectral_curve(h, g, 1.0, range(1, 41), reference)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not curve.diverged
    assert peak < 8 * g.values.nbytes

"""Growth diagnostics, regime classification, and series convergence curves."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from scipy import special

from oracles import (
    fft_pair_hn_norms,
    gaussian_rho_tail_growth,
    gaussian_series_error,
    momentum_power_log_norm,
    momentum_power_norm,
)
from zenolab import (
    AnalyticityReport,
    DomainError,
    Grid,
    HnNorms,
    Propagator,
    ScenarioSpec,
    WaveFunction,
    analyticity_report,
    compare_resolutions,
    dense_hermitian,
    hn_norms,
    make_bump,
    make_gaussian,
    make_plane_wave,
    momentum_operator,
    run_scenario,
    series_vs_spectral_curve,
)
from zenolab import analytic
from zenolab.operators import _series_terms
from zenolab.scenarios import GAUSSIAN_KMAX_SIGMA


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


def _series_validity(sigma: float = 1.0, time: float | None = None):
    return run_scenario("series-validity",
                        ScenarioSpec(name="series-validity", sigma=sigma, time=time))


@pytest.mark.parametrize("sigma", [0.8, 1.0, 1.2])
def test_hn_gaussian_log_norms_match_the_closed_form(sigma):
    # series-validity's Gaussian grid: 1024 points centred at 0 with k_max =
    # GAUSSIAN_KMAX_SIGMA / sigma.  Through n = 9 the worst error is 2.3e-12
    # (sigma 1), through its probe depth n = 16 it is 9.1e-11 (sigma 1.2); the
    # earlier 4096 points on [-400, 400] were off by 1.0e-5, 1.4e-2 and 1.3
    # at n = 16 for sigma 0.8, 1 and 1.2
    half = 512 * math.pi * sigma / GAUSSIAN_KMAX_SIGMA
    wide = Grid(-half, half, 1024)
    record = hn_norms(momentum_operator(wide), make_gaussian(wide, 0.0, sigma), 16)
    assert record.capped_at is None and len(record.log_norms) == 17
    for n, log_norm in enumerate(record.log_norms):
        assert abs(log_norm - momentum_power_log_norm(n, sigma)) <= (1e-11 if n <= 9 else 1e-9)
    # the scenario's own hn_gaussian table holds these bits, so this is its grid
    table = _series_validity(sigma).tables["hn_gaussian"]
    assert [row[1] for row in table.rows] == list(record.log_norms[:16])


def test_hn_gaussian_log_norms_are_within_their_error_budget():
    """log ||p^n g|| for n = 1..16 on series-validity's Gaussian grid (1024 points on
    +-512 pi / 6, sigma = 1, so k_max sigma = 6), within a bound derived per power.

    The computed coefficients are c_j = a_j + e_j, a_j the exact ones of the sampled
    Gaussian, |a_j|^2 = dk rho(k_j) with rho the momentum density, normal with deviation
    s = 1 / (2 sigma).  Each |e_j| <= f: the FFT carries each coefficient through log2(N)
    butterfly stages, each erring by at most 8 eps of the sum of |samples| (Higham, Thm.
    24.2, componentwise), a sample's own arithmetic errs by 4 eps of it, and its position
    by 2 eps max|x| (m dx and the sum with x_min each round), which moves it by |g'| times
    that; summed over the samples, these scale with sum|g| and sum|g'|.  So
    sum_j k_j^2n |c_j|^2 is within sum_j k_j^2n (2 f |a_j| + f^2) of sum_j k_j^2n |a_j|^2,
    which differs from the closed form ||p^n g||^2 only by the mass past k_max, dropped or
    aliased back: 4 Q(n + 1/2, k_max^2 / (2 s^2)) of it, Q the regularized upper incomplete
    gamma function.  Each power then adds (N / 2 + 2) eps: a multiply, a norm over N
    entries and a renormalization.  Measured: 3.4e-15 at n = 1, 1.1e-12 at n = 8 and
    1.3e-11 at n = 16, against bounds of 3.6e-13, 3.2e-11 and 8.1e-9."""
    sigma, n_points = 1.0, 1024
    half = 512 * math.pi * sigma / GAUSSIAN_KMAX_SIGMA
    wide = Grid(-half, half, n_points)
    record = hn_norms(momentum_operator(wide), make_gaussian(wide, 0.0, sigma), 16)
    eps = np.finfo(float).eps
    s, k_max, dk = 1.0 / (2.0 * sigma), math.pi / wide.dx, 2.0 * math.pi / wide.length
    k = np.arange(1 - n_points // 2, n_points // 2 + 1) * dk
    a = np.sqrt(dk * np.exp(-k**2 / (2.0 * s**2)) / (math.sqrt(2.0 * math.pi) * s))
    # sum|g| sqrt(dx / N) = (8 pi sigma^2)^(1/4) / sqrt(L) and sum|g'| = 2 g(0) / dx
    f = eps / math.sqrt(wide.length) * (
        (8 * math.log2(n_points) + 4) * (8 * math.pi * sigma**2) ** 0.25
        + 2 * half * 2 * (2 * math.pi * sigma**2) ** -0.25)
    for n in range(1, 17):
        closed = momentum_power_norm(n, sigma) ** 2
        r = ((2 * f * np.sum(k ** (2 * n) * a) + f**2 * np.sum(k ** (2 * n))) / closed
             + 4 * special.gammaincc(n + 0.5, k_max**2 / (2 * s**2)))
        bound = -0.5 * math.log1p(-r) + n * (n_points / 2 + 2) * eps
        assert abs(record.log_norms[n] - momentum_power_log_norm(n, sigma)) <= bound, n


@pytest.mark.parametrize("sigma", [0.8, 1.0, 1.2])
def test_series_validity_gaussian_tail_growth_is_the_closed_form(sigma):
    # 16 sqrt(23) / (12 sqrt(31)) = 1.1484757 for every sigma
    growth = _series_validity(sigma).metrics["gaussian_tail_growth"]
    assert abs(growth - gaussian_rho_tail_growth(16)) <= 1e-9


@pytest.mark.parametrize("time", [1.0, 2.0])
def test_series_validity_gaussian_errors_match_the_quadrature_oracle(time):
    # within 4.8e-7 relative at t = 1 and 6.7e-6 at t = 2; below 1e-13 the
    # curve reads the cutoff roundoff, not the truncation error
    rows = _series_validity(time=time).tables["series_gaussian"].rows
    checked = 0
    for n, err, resolution in rows:
        assert resolution == "1024"
        oracle = gaussian_series_error(n, time, 1.0)
        if oracle > 1e-13:
            assert abs(err - oracle) <= 1e-4 * oracle, n
            checked += 1
    assert checked >= 20


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
    record = hn_norms(momentum, g, 40)
    assert record.capped_at is not None
    assert 8 <= record.capped_at <= 24
    assert len(record.step_ratios) == record.capped_at


def _hn_matches_fft_pairs(h, psi, n_max, rel):
    record = hn_norms(h, psi, n_max)
    ratios, nilpotent_at, capped_at = fft_pair_hn_norms(h, psi, n_max)
    assert (record.nilpotent_at, record.capped_at) == (nilpotent_at, capped_at)
    assert len(record.step_ratios) == len(ratios)
    for mine, ref in zip(record.step_ratios, ratios):
        assert abs(mine - ref) <= rel * ref


@pytest.mark.parametrize("sigma", [0.8, 1.0, 1.2])
def test_hn_on_coefficients_matches_fft_pairs_on_the_gaussian_grid(sigma):
    # series-validity's Gaussian grid and probe depth; worst 2.8e-13 (sigma 1)
    half = 512 * math.pi * sigma / GAUSSIAN_KMAX_SIGMA
    wide = Grid(-half, half, 1024)
    _hn_matches_fft_pairs(momentum_operator(wide), make_gaussian(wide, 0.0, sigma), 16, 1e-12)


@pytest.mark.parametrize("n_points", [16, 64, 256, 1024, 2048, 4096])
def test_hn_on_coefficients_matches_fft_pairs_on_the_bump(n_points):
    # series-validity's bump and probe depth, capped at 8 to 15 powers; at
    # most 7.3e-14 up to 2048 points and 1.2e-10 at 4096.  Finer grids are
    # left out: at 16384 the FFT pairs' own roundoff moves the ratios near
    # the ceiling by 5.5e-2, though the cap depth agrees
    grid = Grid(-40.0, 40.0, n_points)
    _hn_matches_fft_pairs(momentum_operator(grid), make_bump(grid, -2.0, 2.0), 40, 1e-9)


def test_hn_validation(small_grid):
    h = momentum_operator(small_grid)
    g = make_gaussian(small_grid, 0.0, 1.0)
    with pytest.raises(DomainError, match="at least 1"):
        hn_norms(h, g, 0)
    zero = WaveFunction(small_grid, np.zeros(small_grid.n_points))
    with pytest.raises(DomainError, match="zero state"):
        hn_norms(h, zero, 5)
    # one power gives one step ratio: too few to classify growth
    with pytest.raises(DomainError, match="at least two resolved powers"):
        analyticity_report(h, g, n_max=1)


def test_two_step_ratios_are_enough_to_classify(small_grid):
    # ||H^n g|| / ||H^(n-1) g|| for a unit-width Gaussian: 1/2, then sqrt(3)/2
    h = momentum_operator(small_grid)
    report = analyticity_report(h, make_gaussian(small_grid, 0.0, 1.0), n_max=2)
    assert report.norms.step_ratios == pytest.approx((0.5, math.sqrt(3.0) / 2.0), rel=1e-12)
    assert report.classification == "entire-like"


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


def _report(cutoff: float, plateau: float) -> AnalyticityReport:
    """A saturated-by-grid report with the given cutoff and plateau."""
    norms = HnNorms(1, (plateau,), (0.0, math.log(plateau)), None)
    return AnalyticityReport(cutoff, norms, "saturated-by-grid", math.nan, plateau)


@pytest.mark.parametrize("fine_fraction, coarse_fraction, tracks", [
    (0.9, 0.9, True),
    (0.5, 2.0, True),      # both band edges are inside
    (0.9, 0.49, False),    # the coarse plateau below the band
    (0.9, 2.01, False),    # the coarse plateau above the band
    (0.49, 0.9, False),
    (2.01, 0.9, False),
])
def test_compare_resolutions_needs_both_plateaus_in_band(fine_fraction, coarse_fraction,
                                                         tracks):
    fine, coarse = _report(100.0, 100.0 * fine_fraction), _report(25.0, 25.0 * coarse_fraction)
    assert compare_resolutions(fine, coarse) is tracks


@pytest.mark.parametrize("growth, classification", [
    (1.099, "finite-radius-like"),
    (1.06, "finite-radius-like"),
    (1.101, "entire-like"),
])
def test_classification_splits_at_a_rho_growth_of_1_1(growth, classification, monkeypatch):
    # six step ratios: the tail window is the last five, whose rho estimates
    # are 1, 1, 1, 1 and `growth`, all far below the cutoff's plateau share
    rho = (1.0,) * 5 + (growth,)
    ratios = tuple((j + 1) / r for j, r in enumerate(rho))
    norms = HnNorms(6, ratios, tuple(np.cumsum((0.0,) + tuple(map(math.log, ratios)))), None)
    monkeypatch.setattr(analytic, "hn_norms", lambda h, psi, n_max: norms)
    h = dense_hermitian(np.diag([100.0, -100.0]))
    report = analyticity_report(h, WaveFunction(h.space, np.array([1.0, 0.0])), 6)
    assert report.tail_growth == pytest.approx(growth, rel=1e-12)
    assert report.classification == classification


# ----------------------------------------------------------------------
# Series-vs-spectral convergence curves
# ----------------------------------------------------------------------

def test_curve_checkpoints_match_individual_runs():
    wide, fine = Grid(-400.0, 400.0, 4096), Grid(-40.0, 40.0, 4096)
    ns = (1, 5, 10, 20, 40)
    curves = []
    for g in (make_gaussian(wide, 0.0, 1.0), make_bump(fine, -2.0, 2.0)):
        h = momentum_operator(g.space)
        u = Propagator(h)
        reference = u.evolve(g, 1.0)
        curve = series_vs_spectral_curve(h, g, 1.0, ns[-1])
        assert curve.n_terms == tuple(range(1, ns[-1] + 1))
        # the kernel's record at each depth, changed back to values, is the
        # truncated series; it yields no record past the first diverged depth
        records = {n: rest.copy() for n, rest in
                   enumerate(_series_terms(h, u.transform(g), 1.0, ns[-1]), 1) if n in ns}
        assert sorted(records) == [n for n in ns if math.isfinite(curve.errors[n - 1])]
        for n, rest in records.items():
            err = curve.errors[n - 1]
            single = WaveFunction(g.space, g.values + u._inverse(rest))
            # the same error in coefficients as in values, up to roundoff
            gap = WaveFunction(g.space, single.values - reference.values).norm()
            assert abs(err - gap) <= max(1e-12 * err, 1e-15)
        curves.append(curve)
    gaussian, bump = curves
    assert gaussian.errors[-1] <= 1e-10
    assert not gaussian.diverged
    # the bump's terms pass DIVERGENCE_FACTOR at depth 16
    assert bump.diverged and math.isinf(bump.errors[-1])


@pytest.mark.parametrize("n_max", [0, -1])
def test_curve_rejects_a_depth_below_one(small_grid, n_max):
    h = momentum_operator(small_grid)
    g = make_gaussian(small_grid, 0.0, 1.0)
    with pytest.raises(DomainError, match="n_max must be at least 1"):
        series_vs_spectral_curve(h, g, 1.0, n_max)


def test_curve_reports_divergence_as_inf(grid, momentum):
    g = make_gaussian(grid, 0.0, 1.0)
    curve = series_vs_spectral_curve(momentum, g, 50.0, 60)
    assert curve.diverged
    assert math.isinf(curve.errors[-1])


def test_curve_stops_summing_at_the_first_diverged_depth(grid, momentum, monkeypatch):
    # the bump's terms pass DIVERGENCE_FACTOR at depth 16, and the kernel
    # stops there, so no later depth needs another application of H
    b = make_bump(grid, -2.0, 2.0)
    records = []

    def counting(*args):
        for rest in _series_terms(*args):
            records.append(rest.copy())
            yield rest

    monkeypatch.setattr(analytic, "_series_terms", counting)
    curve = series_vs_spectral_curve(momentum, b, 1.0, 60)
    # 15 records: psi's zero remainder and the sums of terms 1..14; the
    # 15th application of H gives the term past the guard
    assert len(records) == 15
    assert curve.diverged
    assert all(math.isfinite(e) for e in curve.errors[:15])
    assert all(math.isinf(e) for e in curve.errors[15:])


def test_curve_keeps_one_partial_sum_alive():
    # k_max * sigma = 16, so the sum never diverges
    wide = Grid(-1600.0, 1600.0, 2**14)
    h = momentum_operator(wide)
    g = make_gaussian(wide, 0.0, 1.0)
    tracemalloc.start()
    try:
        curve = series_vs_spectral_curve(h, g, 1.0, 40)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not curve.diverged
    assert peak < 8 * g.values.nbytes

"""Growth diagnostics for H^n psi and power-series propagation validity.

For the exponential series sum_n (-i t)^n H^n psi / n! to converge, the
norms ||H^n psi|| must grow sub-factorially; the ratio estimator

    rho_n = (n + 1) ||H^n psi|| / ||H^(n+1) psi||

approximates the radius of time-convergence and diverges for entire-type
vectors (e.g. Gaussians under the momentum generator, where rho_n ~ sqrt(n)).
On a sampled grid every operator is bounded, so a vector that is *not*
smooth enough shows a different signature: the step ratios
||H^(n+1) psi|| / ||H^n psi|| climb until they plateau near the spectral
cutoff of the discretized generator, and the plateau follows the cutoff when
the resolution changes.  The classifier below separates four regimes:

  exact-nilpotent    some power of H annihilates psi exactly,
  saturated-by-grid  step ratios plateau at the discrete spectral ceiling,
  entire-like        rho_n still climbing at the probe depth,
  finite-radius-like rho_n levelled off away from the ceiling.

Norm growth is tracked in log space through renormalized powers, so probe
depths far beyond float overflow are safe.

One purely floating-point effect shapes every curve here: a sampled state
whose true spectral weight at the cutoff underflows still carries ~1e-16 of
roundoff mass there, a depth-n truncated exponential amplifies that mass by
up to max_m (t k_max)^m / m! <= e^(t k_max), and the renormalized power
iteration behind hn_norms always drifts to the cutoff eventually, hence its
cap at the spectral radius.  So series-validity budgets |t| k_max on each
grid: ln(1e-10 / 1e-16) on the Gaussian's (k_max sigma = 6), ln(1e12) =
ln(DIVERGENCE_FACTOR) on the coarse bump's, and max_m (|t| k_max)^m / m! <=
1e-12 / 1e-16 on the plane wave's.

Why this is the right surrogate, and what it cannot prove.  In the
continuum, Nelson's theorem [E. Nelson, "Analytic vectors", Ann. Math. 70
(1959) 572-615] ties everything together: a symmetric operator is
essentially self-adjoint exactly when its analytic vectors are dense.  The
generator -i d/dx restricted to a half-line is the standard cautionary
example — symmetric but not self-adjoint (its deficiency indices differ),
so its analytic vectors are *not* dense and no unitary group survives the
restriction.  A finite grid flattens this distinction: every matrix is
bounded, every vector analytic.  The contract of this module is therefore
the resolution-trend surrogate: a state is reported "saturated-by-grid"
when its growth plateau sits at the discrete spectral ceiling *and* the
plateau moves with the ceiling under grid refinement, which is the
desk-scale shadow of not being an analytic vector for the continuum
generator.  None of this certifies a continuum statement; it renders the
trend honestly at the resolutions probed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .operators import Propagator, SpectralOperator, _series_terms
from .statespace import WaveFunction, _norm

#: step-ratio plateau above this fraction of the cutoff counts as saturated
SATURATION_FRACTION = 0.5
#: rho_n tail growth at or above this factor counts as still climbing
ENTIRE_GROWTH = 1.1
#: plateau/cutoff band within which saturation is said to track resolution
TRACK_BAND = (0.5, 2.0)


#: consecutive at-ceiling steps collected before capping the iteration
CEILING_WINDOW = 8


@dataclass(frozen=True)
class HnNorms:
    """Renormalized growth record of ||H^n psi|| for n = 0..n_max.

    step_ratios[j] is ||H^(j+1) psi|| / ||H^j psi||; log_norms[n] is
    log ||H^n psi||.  After an exact annihilation both are truncated.
    The iteration also stops once the step ratios have sat at the discrete
    spectral ceiling, H's spectral radius, for CEILING_WINDOW consecutive
    powers: beyond that point the renormalized iterate is just the
    operator's top spectral slice and the norms carry no information about
    the continuum state (capped_at records the stop).
    """

    n_max: int
    step_ratios: tuple[float, ...]
    log_norms: tuple[float, ...]
    #: power at which H^n psi vanished exactly, if any
    nilpotent_at: int | None
    #: power at which the ceiling cap stopped the iteration, if it did
    capped_at: int | None = None

    def rho_hats(self) -> tuple[float, ...]:
        """Radius estimates rho_n = (n + 1) / step_ratios[n]."""
        return tuple((j + 1) / r for j, r in enumerate(self.step_ratios) if r > 0.0)


def hn_norms(h: SpectralOperator, psi: WaveFunction, n_max: int) -> HnNorms:
    """Track ||H^n psi|| growth, capped at the spectral radius of H (see HnNorms).
    psi is transformed once; each power multiplies its coefficients by their eigenvalues
    in place and takes their plain l2 norm, as the change of basis is an isometry."""
    if n_max < 1:
        raise DomainError("n_max must be at least 1")
    c = Propagator(h).transform(psi)
    lam = h.eigenvalues[:c.shape[-1]]  # [0, n/2] on the FFT basis
    norm = float(_norm(c))
    if norm == 0.0:
        raise DomainError("cannot probe growth of the zero state")
    ceiling = h.spectral_radius
    v = c * (1.0 / norm)  # fresh, so H acts in it
    log_norms = [math.log(norm)]
    ratios: list[float] = []
    nilpotent_at = None
    capped_at = None
    at_ceiling = 0
    for n in range(1, n_max + 1):
        np.multiply(lam, v, out=v)
        r = float(_norm(v))
        if r == 0.0:
            nilpotent_at = n
            break
        ratios.append(r)
        log_norms.append(log_norms[-1] + math.log(r))
        v *= 1.0 / r
        at_ceiling = at_ceiling + 1 if r >= SATURATION_FRACTION * ceiling else 0
        if at_ceiling >= CEILING_WINDOW and n < n_max:
            capped_at = n
            break
    return HnNorms(n_max, tuple(ratios), tuple(log_norms), nilpotent_at, capped_at)


@dataclass(frozen=True)
class AnalyticityReport:
    """Classified growth record of one (state, generator) pair."""

    spectral_cutoff: float
    norms: HnNorms
    classification: str
    #: rho growth factor across the tail window (nan when unavailable)
    tail_growth: float
    #: median step ratio over the tail window (nan when unavailable)
    plateau: float

    @property
    def plateau_fraction(self) -> float:
        return self.plateau / self.spectral_cutoff


def analyticity_report(h: SpectralOperator, psi: WaveFunction, n_max: int) -> AnalyticityReport:
    """Probe growth up to n_max powers and classify the convergence regime.

    The iteration is capped once the step ratios have demonstrably hit the
    operator's spectral ceiling; classification then uses the recorded tail.
    """
    cutoff = h.spectral_radius
    norms = hn_norms(h, psi, n_max)
    if norms.nilpotent_at is not None:
        cls, growth, plateau = "exact-nilpotent", math.nan, math.nan
    elif len(norms.step_ratios) < 2:
        raise DomainError("need at least two resolved powers to classify growth")
    else:
        w = max(5, len(norms.step_ratios) // 3)
        plateau = float(np.median(norms.step_ratios[-w:]))
        rho_tail = norms.rho_hats()[-w:]
        growth = rho_tail[-1] / rho_tail[0]
        if plateau >= SATURATION_FRACTION * cutoff:
            cls = "saturated-by-grid"
        elif growth >= ENTIRE_GROWTH:
            cls = "entire-like"
        else:
            cls = "finite-radius-like"
    return AnalyticityReport(cutoff, norms, cls, growth, plateau)


def compare_resolutions(fine: AnalyticityReport, coarse: AnalyticityReport) -> bool:
    """Whether the same state probed at two grid resolutions tracks the cutoff.

    This is the saturation fingerprint: both runs classify as saturated and
    both plateaus sit within TRACK_BAND of their own spectral ceiling, i.e.
    the apparent growth limit is an artifact that moves with the grid rather
    than a property of the state.
    """
    if fine.spectral_cutoff <= coarse.spectral_cutoff:
        raise DomainError("fine report must have the larger spectral cutoff")
    lo, hi = TRACK_BAND
    return (
        fine.classification == "saturated-by-grid"
        and coarse.classification == "saturated-by-grid"
        and lo <= fine.plateau_fraction <= hi
        and lo <= coarse.plateau_fraction <= hi
    )


@dataclass(frozen=True)
class ConvergenceCurve:
    """Series-vs-spectral error as a function of truncation depth."""

    n_terms: tuple[int, ...]
    errors: tuple[float, ...]
    diverged: bool


def series_vs_spectral_curve(h: SpectralOperator, psi: WaveFunction, t: float,
                             n_max: int) -> ConvergenceCurve:
    """Distance of depth-1..n_max truncated series from the spectral evolution U(t) psi.

    psi is transformed once, to coefficients c.  Depth n's error is
    ||rest_n - (U(t) c - c)||, where rest_n is the kernel's sum of terms
    1..n-1, so c + rest_n is the depth-n truncated series in coefficients.
    The change of basis is an isometry, so no depth needs an inverse
    transform.  Only one partial sum is alive.  The kernel stops at the
    first diverged depth: the curve is then flagged diverged, and that depth
    and all later ones read inf.
    """
    if n_max < 1:
        raise DomainError("n_max must be at least 1")
    u = Propagator(h)
    c = u.transform(psi)
    d = u.step(t) * c - c
    buf = np.empty_like(c)
    errors: list[float] = []
    for rest in _series_terms(h, c, t, n_max):
        err = float(_norm(np.subtract(rest, d, out=buf)))
        errors.append(err if math.isfinite(err) else math.inf)
    diverged = len(errors) < n_max
    errors += [math.inf] * (n_max - len(errors))
    return ConvergenceCurve(tuple(range(1, n_max + 1)), tuple(errors), diverged)

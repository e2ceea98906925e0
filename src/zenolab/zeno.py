"""Survival probabilities under repeated selective zone measurements.

The protocol: prepare a normalized core-zone state e, evolve, and at each
scheduled instant apply the core projector P_C selectively (the conditional,
unnormalized branch that passed the measurement is kept).  The reported
survival is the joint probability of passing every measurement *and* being
found in e at the final time,

    s = |<e, U(T - t_N) P_C ... P_C U(t_1) e>|^2 ,

which for an empty schedule reduces bitwise to the free survival
|<e, U(T) e>|^2.

Two regimes are of interest.  For a pure right-translation, amplitude that
crosses into the wave zone never returns, so clipping it changes nothing
about the core-zone overlap: s is exactly measurement-invariant even though
each measurement removes trace.  For oscillatory dynamics (e.g. a two-level
Rabi generator) frequent measurements instead freeze the state: the deficit
1 - s shrinks like 1/N with the number of equally spaced measurements.

Quantitatively, if every clipped wave-zone piece has core-zone return mass
at most eps (the one-sided invariance residual), expanding the chain
amplitude term by term gives |s_measured - s_free| <= 2 N sqrt(eps) to
leading order (each of the N removed pieces re-enters the final core
overlap with amplitude at most sqrt(eps), and survival is quadratic in the
amplitude); eps = 0 makes the protocol exactly invisible.

Only this selective protocol is implemented.  The non-selective variant —
keeping both branches and tracking the resulting mixture — needs density
matrices and is deliberately out of scope here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PreconditionError
from .statespace import WaveFunction, inner_product
from .subspaces import SubspaceProjector

#: admissible wave-zone mass for the prepared state of a survival run
CORE_STATE_TOL = 1e-10


@dataclass(frozen=True)
class MeasurementSchedule:
    """Strictly increasing measurement instants inside (0, t_final)."""

    t_final: float
    times: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.t_final > 0.0:
            raise DomainError("t_final must be positive")
        ts = tuple(float(t) for t in self.times)
        if any(not (0.0 < a < self.t_final) for a in ts):
            raise DomainError("measurement instants must lie strictly inside (0, t_final)")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise DomainError("measurement instants must be strictly increasing")
        object.__setattr__(self, "times", ts)

    @classmethod
    def equally_spaced(cls, t_final: float, n: int) -> "MeasurementSchedule":
        """n instants at k * t_final / (n + 1), k = 1..n (empty for n = 0)."""
        if n < 0:
            raise DomainError("number of measurements must be non-negative")
        return cls(t_final, tuple(k * t_final / (n + 1) for k in range(1, n + 1)))

    @property
    def n_measurements(self) -> int:
        return len(self.times)

    def segments(self) -> tuple[float, ...]:
        """Durations between consecutive instants, ending at t_final."""
        knots = (0.0,) + self.times + (self.t_final,)
        return tuple(b - a for a, b in zip(knots, knots[1:]))


def _require_core_state(p_core: SubspaceProjector, e: WaveFunction,
                        core_tol: float) -> None:
    norm_sq = e.norm_sq()
    if abs(norm_sq - 1.0) > 1e-9:
        raise PreconditionError(f"prepared state is not normalized: ||e||^2 = {norm_sq!r}")
    off = norm_sq - p_core.mass(e)
    if off > core_tol:
        raise PreconditionError(
            f"prepared state is not core-zone: off-zone mass {off:.6e} exceeds {core_tol:g}"
        )


def _chain(u, p_core: SubspaceProjector, coeffs,
           schedule: MeasurementSchedule) -> tuple[WaveFunction, tuple[float, ...]]:
    """Selective measure-and-evolve chain from the prepared state's coefficients.

    Returns the unnormalized final state together with the retained-norm
    trace ||chi_k||^2 recorded after each projection (the probability of
    having passed the first k measurements).

    The segments of an equally spaced schedule differ at most in the last
    ulp and alternate (a a b c b c b ...), so the steps of the two most
    recently used durations are kept.  Durations are strictly positive, so
    equal keys have identical bits and every segment gets the step of its
    own duration.
    """
    step = functools.lru_cache(maxsize=2)(u.step)
    elapsed = 0.0
    trace = []
    for t_k in schedule.times:
        psi = p_core.apply(u.advance(coeffs, step(t_k - elapsed)))
        trace.append(psi.norm_sq())
        coeffs = u.transform(psi)
        elapsed = t_k
    return u.advance(coeffs, step(schedule.t_final - elapsed)), tuple(trace)


@dataclass(frozen=True)
class SurvivalReport:
    """Free vs measured survival at a common final time."""

    t_final: float
    n_measurements: int
    s_free: float
    s_measured: float
    #: wave-zone mass of the freely evolved state at t_final
    leakage_free: float
    #: retained norm ||chi_k||^2 after each projection, non-increasing
    retained_trace: tuple[float, ...]
    #: trace retained by the full chain (prob. of passing every P_C)
    retained: float

    @property
    def delta(self) -> float:
        return self.s_measured - self.s_free


def survival_report(u, p_core: SubspaceProjector, e: WaveFunction,
                    schedule: MeasurementSchedule,
                    core_tol: float = CORE_STATE_TOL) -> SurvivalReport:
    """Run both protocols once and collect the comparison."""
    _require_core_state(p_core, e, core_tol)
    return _survival_report(u, p_core, e, u.transform(e), schedule)


def _survival_report(u, p_core: SubspaceProjector, e: WaveFunction, coeffs,
                     schedule: MeasurementSchedule) -> SurvivalReport:
    """survival_report from e's coefficients `coeffs`, e already checked.

    The free evolution and the chain's first segment share the coefficients,
    and so may the reports of several schedules for the same e.
    """
    free = u.advance(coeffs, u.step(schedule.t_final))
    s_free = abs(inner_product(e, free)) ** 2
    leakage_free = 1.0 - p_core.mass(free)
    del free  # one state fewer alive at the chain's memory peak
    chain, trace = _chain(u, p_core, coeffs, schedule)
    return SurvivalReport(
        t_final=schedule.t_final,
        n_measurements=schedule.n_measurements,
        s_free=s_free,
        s_measured=abs(inner_product(e, chain)) ** 2,
        leakage_free=leakage_free,
        retained_trace=trace,
        retained=chain.norm_sq(),
    )


def deficit_slope(scaling: tuple[tuple[int, float], ...]) -> float:
    """Least-squares slope of log(1 - s) against log N; ~ -1 for Zeno freezing.

    Points with N = 0 or a vanished deficit carry no slope information and
    are dropped; at least two informative points must remain.
    """
    points = [(n, 1.0 - s) for n, s in scaling if n > 0 and 1.0 - s > 0.0]
    if len(points) < 2:
        raise DomainError("need at least two positive-deficit points for a slope")
    ns, deficits = zip(*points)
    return float(np.polyfit(np.log(ns), np.log(deficits), 1)[0])


def deficit_ladder(t_final: float, omega: float, counts) -> tuple[float, ...]:
    """Closed-form deficits for the symmetric two-level generator.

    For H = omega * sigma_x the passed-and-survived probability on an
    equally spaced n-schedule is cos(omega * t / (n+1)) ** (2 * (n + 1)).
    Used as a cross-check against the numeric chain.
    """
    out = []
    for n in counts:
        theta = omega * t_final / (n + 1)
        out.append(1.0 - math.cos(theta) ** (2 * (n + 1)))
    return tuple(out)

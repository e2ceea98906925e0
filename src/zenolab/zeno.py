"""Survival probabilities under repeated selective zone measurements.

The protocol: prepare a normalized core-zone state e, evolve, and at each
scheduled instant apply the core projector P_C selectively (the conditional,
unnormalized branch that passed the measurement is kept).  The reported
survival is the joint probability of passing every measurement *and* being
found in e at the final time,

    s = |<e, U(T - t_N) P_C ... P_C U(t_1) e>|^2 ,

which for an empty schedule reduces bitwise to the free survival
|<e, U(T) e>|^2.

`survival_report` runs each distinct schedule for one prepared state once,
longest first, the free evolve to t as the empty schedule at t (on grids
below MAP_MIN_POINTS points, chains of one length as the rows of a block),
and returns one report per schedule, in order, with its bits alone.

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

import math
import threading
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .errors import DomainError
from .statespace import WaveFunction, _map, _stopping, inner_product
from .subspaces import SubspaceProjector, _require_unit_norm, _require_zone

#: admissible wave-zone mass for the prepared state of a survival run
CORE_STATE_TOL = 1e-10


@dataclass(frozen=True)
class MeasurementSchedule:
    """Strictly increasing measurement instants inside (0, t_final)."""

    t_final: float
    times: tuple[float, ...]

    def __post_init__(self) -> None:
        if not 0.0 < self.t_final < math.inf:  # nan fails both comparisons
            raise DomainError(f"t_final must be positive and finite, got {self.t_final}")
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


def _chain(u, p_core: SubspaceProjector, coeffs, block, kit: dict) -> np.ndarray:
    """Selective measure-and-evolve chains of the schedules in `block`, all of one
    segment count, from the prepared state's coefficients.

    Returns the unnormalized final states' values, one row per schedule, in
    the arrays of `kit`, a dict no other running item uses (an empty one will
    do): the caller reduces them before the kit's next item.  Where `u._rows`
    > 1 (the FFT basis below MAP_MIN_POINTS points) a kit's first block
    allocates the values and coefficients of `u._rows` rows and each row's
    two step slots; a segment multiplies each row by its own step, and clips
    the whole block and changes its basis each way in one call each.
    Otherwise a block is one schedule on 1-D arrays: the FFT basis changes
    basis into `kit["spare"]` and back, a shift rolls into `kit["spare"]` and
    the two buffers swap, and a matrix basis changes basis into fresh arrays.
    Every row has the bits of `transform`, `_values` and the projector's
    `apply` on separate arrays.

    The segments of an equally spaced schedule differ at most in the last ulp
    and alternate (a a b c b c b ...), so each row keeps the steps of its two
    latest durations; durations are positive, so equal keys have identical
    bits.  An interrupt (`statespace._stopping`) stops the chain before its
    next segment: Ctrl-C waits for one segment.
    """
    if "step" not in kit:  # a block's values and coefficients, and each row's two step slots
        if u._rows == 1:
            kit["block"], kit["spare"], steps = None, np.empty_like(coeffs), [[None], [None]]
        else:
            kind = np.float64 if coeffs.ndim == 1 else np.complex128  # a real state's, else two rows
            kit["block"] = np.empty((u._rows, u.space.n_points), kind)
            kit["spare"] = np.empty((u._rows,) + coeffs.shape, np.complex128)
            steps = np.empty((2, u._rows, coeffs.shape[-1]), np.complex128)
        kit["step"], kit["step2"] = list(steps[0]), list(steps[1])
    # per row, [duration, kit key] most recently used first; one duration uses "step" only
    slots = [[[None, "step2"], [None, "step"]] for _ in block]

    def step(dts):  # each row's step for its duration in dts: a list on a block, else the one
        for r, (held, dt) in enumerate(zip(slots, dts)):
            if held[0][0] != dt:
                if held[1][0] != dt:  # neither slot holds dt: the older one takes it
                    held[1][0] = dt
                    kit[held[1][1]][r] = u._step(dt, kit[held[1][1]][r])
                held.reverse()
        steps = [kit[held[0][1]][r] for r, held in enumerate(slots)]
        return steps if u._rows > 1 else steps[0]

    first, *rest = zip(*(s.segments() for s in block))
    rows = slice(None) if u._rows == 1 else slice(len(block))
    out = kit.get("values") if u._rows == 1 else kit["block"][rows]
    values = kit["values"] = u._values(coeffs, step(first), out, kit["spare"][rows])
    for dts in rest:
        if _stopping.is_set():
            raise KeyboardInterrupt  # the main thread was interrupted
        advanced = u._apply(p_core._clip(values), step(dts), kit["spare"][rows])
        if advanced is not values:  # the old buffer is the next segment's spare
            kit["spare"], kit["values"] = values, advanced
        values = advanced
    return values.reshape(len(block), -1)


@dataclass(frozen=True)
class SurvivalReport:
    """Free vs measured survival at a common final time."""

    t_final: float
    n_measurements: int
    s_free: float
    s_measured: float
    #: wave-zone mass of the freely evolved state at t_final
    leakage_free: float
    #: ||final chain state||^2: the probability of passing every P_C (that of
    #: passing the first k is the `retained` of the first k instants' schedule)
    retained: float

    @property
    def delta(self) -> float:
        return self.s_measured - self.s_free


def survival_report(u, p_core: SubspaceProjector, e: WaveFunction,
                    schedules) -> tuple[SurvivalReport, ...]:
    """Run both protocols for each MeasurementSchedule in `schedules`, in order.

    e is checked and transformed once.  Each distinct schedule is one job, and
    so is the free evolve to each distinct t_final: it is the empty schedule
    at t_final, one job with an empty schedule given there.  One `_map`
    (inline on grids below its MAP_MIN_POINTS) runs the jobs longest first, in
    blocks: runs of one segment count of at most `u._rows` jobs (1 but on the
    FFT basis below MAP_MIN_POINTS points).  An item works in its thread's
    kit, the dict of a `threading.local` this call owns, so a thread allocates
    its arrays for its first block only; it reduces each row, through a
    read-only view of the kit's row, to one record keyed by its schedule and
    keeps no final state.  Equal schedules have equal floats, so each report
    has the bits of a call with its schedule alone.
    """
    norm_sq = _require_unit_norm(e, "prepared state")
    _require_zone(norm_sq - p_core.mass(e), CORE_STATE_TOL, "prepared state", "core-zone")
    schedules = tuple(schedules)
    frees = [MeasurementSchedule(s.t_final, ()) for s in schedules]
    coeffs = u.transform(e)
    scratch = threading.local()
    jobs = sorted(dict.fromkeys(job for pair in zip(schedules, frees) for job in pair),
                  key=lambda job: job.n_measurements, reverse=True)
    blocks = []  # runs of one segment count, longest first, of at most u._rows jobs
    for _, run in groupby(jobs, key=lambda job: job.n_measurements):
        run = list(run)
        blocks += (run[i:i + u._rows] for i in range(0, len(run), u._rows))

    def chain(block: list) -> list:
        # read-only row views: the kit keeps the writable array; the states die with their item
        states = map(WaveFunction._adopt, [u.space] * len(block),
                     _chain(u, p_core, coeffs, block, scratch.__dict__))
        return [(job, (abs(inner_product(e, final)) ** 2, final.norm_sq(),
                       1.0 - p_core.mass(final))) for job, final in zip(block, states)]

    done = dict(row for block in _map(chain, blocks, points=u.space.n_points) for row in block)
    return tuple(
        SurvivalReport(t_final=schedule.t_final, n_measurements=schedule.n_measurements,
                       s_free=done[free][0], s_measured=done[schedule][0],
                       leakage_free=done[free][2], retained=done[schedule][1])
        for schedule, free in zip(schedules, frees))


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
    equally spaced n-schedule is cos(theta) ** (2 * (n + 1)), theta = omega
    * t / (n + 1).  With cos(theta) = 1 - 2 sin(theta / 2)^2 the deficit is
    -expm1(2 (n + 1) log1p(-2 sin(theta / 2)^2)), which never rounds cos
    to 1 - k 2^-53 and so stays smooth in t where theta is small; where
    cos(theta) <= 0 the power of cos is taken as it is.  Used as a
    cross-check against the numeric chain.
    """
    out = []
    for n in counts:
        theta = omega * t_final / (n + 1)
        x = -2.0 * math.sin(theta / 2.0) ** 2  # cos(theta) - 1
        if x > -1.0:
            out.append(-math.expm1(2 * (n + 1) * math.log1p(x)))
        else:
            out.append(1.0 - math.cos(theta) ** (2 * (n + 1)))
    return tuple(out)

"""Orthogonal projectors onto zones of the state space and invariance checks.

A zone is a contiguous range of samples.  The half-line split of a grid
calls the samples with x < 0 the *core zone* (where initial states are
prepared) and the rest, x >= 0, the *wave zone* (where decay products are
counted); the x = 0 sample belongs to the wave zone by convention.  For a
propagator U, three numerical conditions about the wave zone H_W are probed
on sampled times and trial states:

  (I)    U(t) H_W stays inside H_W for all sampled t > 0
         (one-sided, semigroup-style invariance),
  (II)   P_W U(t) P_C = 0, i.e. nothing ever leaks from core to wave,
  (I-A)  invariance of H_W under both time signs (two-sided version).

Trial states are (label, state) pairs, named where they are built; every
sample and witness quotes its state's label, and so does the error of a
trial state that lies outside its zone.

Verdict semantics are deliberately asymmetric: HOLDS is a bounded-residual
corroboration on the sampled (t, state) set, while FALSIFIED/FAILS is a
rigorous refutation carried by an explicit witness.  The shipped translation
scenario realizes the separating example: (I) holds at machine residuals
while (II) is falsified by nearly total leakage, and (I-A) fails backward.

Operator-norm certification is out of scope; everything is sampled.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PreconditionError, SpaceMismatchError
from .statespace import DenseSpace, Grid, WaveFunction, _map, _norm_sq

#: default residual bound under which an invariance verdict reads HOLDS
INVARIANCE_TOL = 1e-8
#: default leakage above which condition (II) reads FALSIFIED
FALSIFY_TOL = 1e-6
#: admissible off-zone mass for trial states of (II) and (I-A) and for the
#: initial state of `leakage`; loose enough to admit Gaussians whose 3-sigma
#: tail crosses the split point
ZONE_TOL_LOOSE = 1e-2
#: strict off-zone mass bound for condition-(I) wave trial states
ZONE_TOL_STRICT = 1e-10


@dataclass(frozen=True, eq=False)
class SubspaceProjector:
    """Orthogonal projector onto the contiguous samples start <= j < stop.

    Every zone of the lab is one run of samples: the half-line pair splits a
    grid into [0, split) and [split, n_points), and a two-level system's
    levels are [0, 1) and [1, 2).  The projector is exact: idempotence,
    Hermiticity and the split of a state between adjacent ranges hold
    sample by sample in floating point.
    """

    space: Grid | DenseSpace
    start: int
    stop: int

    def __post_init__(self) -> None:
        if not 0 <= self.start < self.stop <= self.space.n_points:
            raise SpaceMismatchError(
                f"sample range [{self.start}, {self.stop}) is empty or exceeds "
                f"a space of {self.space.n_points} points"
            )

    def apply(self, psi: WaveFunction) -> WaveFunction:
        psi._require_space(self.space)
        return WaveFunction._adopt(self.space, self._clip(np.array(psi.values)))

    def _clip(self, values: np.ndarray) -> np.ndarray:
        """Project the writable samples `values`, each row of a block, in place and return them."""
        values[..., :self.start] = 0.0
        values[..., self.stop:] = 0.0
        return values

    def mass(self, psi: WaveFunction) -> float:
        """||P psi||^2, the probability captured by this zone."""
        psi._require_space(self.space)
        return self._mass(psi.values)

    def _mass(self, values: np.ndarray) -> float:
        return _norm_sq(values[self.start:self.stop], self.space.dx)


def halfline_pair(grid: Grid) -> tuple[SubspaceProjector, SubspaceProjector]:
    """(P_core, P_wave) pair splitting the grid at x = 0.

    Samples with x < 0 belong to the core zone, samples with x >= 0 to the
    wave zone.  The grid must straddle zero.
    """
    split = int(np.count_nonzero(grid.positions() < 0.0))
    if split in (0, grid.n_points):
        raise DomainError(
            f"domain [{grid.x_min}, {grid.x_max}] does not straddle x = 0"
        )
    return SubspaceProjector(grid, 0, split), SubspaceProjector(grid, split, grid.n_points)


def core_zone_state(p_core: SubspaceProjector, psi: WaveFunction) -> WaveFunction:
    """Project onto the core zone and renormalize.

    Produces a state with exactly zero wave-zone amplitude, the hypothesis
    under which measurement-invariance statements are exact.
    """
    clipped = p_core.apply(psi)
    if clipped.norm() == 0.0:
        raise PreconditionError("state has no core-zone component to keep")
    return clipped.normalized()


def _require_unit_norm(psi: WaveFunction, what: str) -> float:
    """||psi||^2, or PreconditionError naming `what` unless it is 1 to 1e-9."""
    norm_sq = psi.norm_sq()
    if abs(norm_sq - 1.0) > 1e-9:
        raise PreconditionError(f"{what} is not normalized: ||e||^2 = {norm_sq!r}")
    return norm_sq


def _require_zone(off: float, tol: float, what: str, zone: str) -> None:
    """PreconditionError naming `what` when its off-zone mass exceeds tol."""
    if off > tol:
        raise PreconditionError(f"{what} is not {zone}: off-zone mass {off:.6e} exceeds {tol:g}")


def leakage(p_wave: SubspaceProjector, u, e: WaveFunction, t: float) -> float:
    """Decay probability ||P_wave U(t) e||^2 for a core-zone initial state.

    `u` is a Propagator or ShiftPropagator.  The initial state must be
    normalized and carry at most ZONE_TOL_LOOSE wave-zone mass, and t finite.
    """
    _finite([t])
    _require_unit_norm(e, "initial state")
    _require_zone(p_wave.mass(e), ZONE_TOL_LOOSE, "initial state", "core-zone")
    return p_wave.mass(u.evolve(e, t))


@dataclass(frozen=True)
class ConditionSample:
    """One probed (time, trial state) point and its residual mass."""

    t: float
    state: str
    residual: float


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of sampling one invariance condition.

    verdict is HOLDS/FAILS for invariance conditions and
    FALSIFIED/NOT_FALSIFIED for the leakage condition (II); `witness` points
    at the sample carrying the refutation (or the worst residual).
    """

    condition: str
    verdict: str
    tolerance: float
    max_residual: float
    witness: ConditionSample | None
    samples: tuple[ConditionSample, ...]


def _in_zone(trial_states, projector: SubspaceProjector, tol: float, zone: str):
    """Yield the (label, state) pairs of `trial_states`, checking each as it is drawn.

    At most `tol` of a state's mass may lie in the zone of `projector`, the
    zone the state must stay out of.
    """
    for label, state in trial_states:
        _require_zone(projector.mass(state), tol, f"trial state {label!r}", zone)
        yield label, state


def _verdict(condition: str, residual: float, tolerance: float) -> str:
    """HOLDS/FAILS for invariance (I, I-A), FALSIFIED/NOT_FALSIFIED for leakage (II)."""
    if condition == "II":
        return "FALSIFIED" if residual > tolerance else "NOT_FALSIFIED"
    return "HOLDS" if residual <= tolerance else "FAILS"


def _finite(t_samples) -> list[float]:
    """`t_samples` as floats; DomainError naming the first one that is not finite."""
    ts = [float(t) for t in t_samples]
    if bad := [t for t in ts if not np.isfinite(t)]:  # max() would skip a nan residual
        raise DomainError(f"sampled time {bad[0]} is not finite")
    return ts


def _sample(condition: str, projector: SubspaceProjector, u, ts, pairs: list,
            tolerance: float) -> ConditionReport:
    """Residual projector.mass(U(t) s) at each (t, state) pair, t-major, and its verdict.

    Each state is transformed once and each time's step built once, when
    that time is sampled; the residuals are the same bits as evolving every
    pair separately.  Transforms and times run through `_map`, inline on
    grids below its MAP_MIN_POINTS.  A time item writes its step, and every
    state's coefficients and values, into its thread's kit, the dict of a
    `threading.local` this call owns, one pair of buffers per coefficient
    kind (a real state's and a complex one's), so a thread allocates them
    for its first time only.
    `pairs`, the (label, state) pairs, is emptied once transformed, so a
    caller that hands over its only references keeps just the coefficients
    alive while the times are sampled.
    """
    points = u.space.n_points
    names = [label for label, _ in pairs]
    coeffs = _map(lambda pair: u.transform(pair[1]), pairs, points=points)
    pairs.clear()
    scratch = threading.local()

    def at(t: float) -> list[ConditionSample]:
        kit = scratch.__dict__
        step = kit["step"] = u._step(t, kit.get("step"))
        row = []
        for name, c in zip(names, coeffs):
            kind = c.dtype, c.shape  # a real state's or a complex one's
            if kind not in kit:
                kit[kind] = [None, np.empty_like(c)]
            held = kit[kind]  # [values, coefficients]
            values = held[0] = u._inverse(u._phase(c, step, held[1]), held[0])
            row.append(ConditionSample(t, name, projector._mass(values)))
        return row

    samples = tuple(s for row in _map(at, ts, points=points) for s in row)
    worst = max(samples, key=lambda s: s.residual, default=None)
    max_res = worst.residual if worst else 0.0
    verdict = _verdict(condition, max_res, tolerance)
    witness = worst if verdict in ("FAILS", "FALSIFIED") else None
    return ConditionReport(condition, verdict, tolerance, max_res, witness, samples)


def _check_invariance(condition: str, pair, u, ts, trial_states,
                      tolerance: float, state_tol: float) -> ConditionReport:
    """Sample ||P_core U(t) W||^2 over wave-zone trial states W."""
    p_core, _ = pair
    pairs = list(_in_zone(trial_states, p_core, state_tol, "wave-zone"))
    return _sample(condition, p_core, u, ts, pairs, tolerance)


def check_condition_I(pair, u, t_samples, trial_states,
                      tolerance: float = INVARIANCE_TOL) -> ConditionReport:
    """Sample ||P_core U(t) W||^2 over wave-zone trial states W and t > 0.

    `trial_states` holds (label, state) pairs, each state within
    ZONE_TOL_STRICT of the wave zone.  HOLDS when the maximum residual stays
    within `tolerance`; an empty time list is vacuously HOLDS.
    `trial_states` may be any iterable, a generator too: it is drawn once,
    and the states are dropped once transformed, before any time is
    sampled, so a caller that passes a generator keeps only coefficients
    alive.
    """
    ts = _finite(t_samples)
    if any(t <= 0.0 for t in ts):
        raise DomainError("condition (I) samples forward times only (t > 0)")
    return _check_invariance("I", pair, u, ts, trial_states, tolerance, ZONE_TOL_STRICT)


def check_condition_II(pair, u, t_samples, trial_states,
                       tolerance: float = FALSIFY_TOL) -> ConditionReport:
    """Sample the composed operator P_wave U(t) P_core on trial states C.

    Each residual is ||P_wave U(t) P_core c||^2 / ||P_core c||^2, i.e. the
    trial state is clipped to the core zone first, so that t = 0 can never
    falsify (P_wave P_core = 0 exactly, whatever the state's own tails do).
    FALSIFIED as soon as any sample leaks more than `tolerance`, quoting the
    witnessing (t, state); NOT_FALSIFIED otherwise (the sampled check cannot
    prove the condition, only fail to refute it).  `trial_states` holds
    (label, state) pairs, each state within ZONE_TOL_LOOSE of the core zone;
    it may be any iterable, is drawn once, and each state is dropped once
    clipped and transformed.
    """
    p_core, p_wave = pair
    ts = _finite(t_samples)
    if any(t < 0.0 for t in ts):
        raise DomainError("condition (II) samples t >= 0")
    pairs = [(label, core_zone_state(p_core, c))
             for label, c in _in_zone(trial_states, p_wave, ZONE_TOL_LOOSE, "core-zone")]
    return _sample("II", p_wave, u, ts, pairs, tolerance)


def check_condition_IA(pair, u, t_samples, trial_states,
                       tolerance: float = INVARIANCE_TOL) -> ConditionReport:
    """Two-sided variant of condition (I): both time signs are allowed.

    The adjoint step U(t)^dagger is realized as evolution by -t.  A verdict
    of FAILS with a negative-t witness separates semigroup invariance from
    full two-sided invariance.  `trial_states` holds (label, state) pairs,
    each state within ZONE_TOL_LOOSE of the wave zone; it may be any
    iterable, is drawn once, and the states are dropped once transformed.
    """
    ts = _finite(t_samples)
    return _check_invariance("I-A", pair, u, ts, trial_states, tolerance, ZONE_TOL_LOOSE)


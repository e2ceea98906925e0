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

Verdict semantics are deliberately asymmetric: HOLDS is a bounded-residual
corroboration on the sampled (t, state) set, while FALSIFIED/FAILS is a
rigorous refutation carried by an explicit witness.  The shipped translation
scenario realizes the separating example: (I) holds at machine residuals
while (II) is falsified by nearly total leakage, and (I-A) fails backward.

Operator-norm certification is out of scope; everything is sampled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PreconditionError, SpaceMismatchError
from .statespace import DenseSpace, Grid, WaveFunction, _blocked

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
        if psi.space != self.space:
            raise SpaceMismatchError("state and projector live on different spaces")
        out = np.zeros(self.space.n_points, dtype=np.complex128)
        out[self.start:self.stop] = psi.values[self.start:self.stop]
        return WaveFunction._adopt(self.space, out)

    def mass(self, psi: WaveFunction) -> float:
        """||P psi||^2, the probability captured by this zone."""
        if psi.space != self.space:
            raise SpaceMismatchError("state and projector live on different spaces")
        v = psi.values[self.start:self.stop]
        return float(np.real(_blocked(np.vdot, v, v)) * self.space.dx)


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


def leakage(p_wave: SubspaceProjector, u, e: WaveFunction, t: float) -> float:
    """Decay probability ||P_wave U(t) e||^2 for a core-zone initial state.

    `u` is a Propagator or ShiftPropagator.  The initial state must be
    normalized and carry at most ZONE_TOL_LOOSE wave-zone mass.
    """
    if abs(e.norm_sq() - 1.0) > 1e-9:
        raise PreconditionError(f"initial state is not normalized: ||e||^2 = {e.norm_sq()!r}")
    off = p_wave.mass(e)
    if off > ZONE_TOL_LOOSE:
        raise PreconditionError(
            f"initial state is not core-zone: ||P_wave e||^2 = {off:.6e} exceeds {ZONE_TOL_LOOSE:g}"
        )
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


def _labels_for(trial_states, labels) -> list[str]:
    if labels is None:
        return [f"state-{i}" for i in range(len(trial_states))]
    if len(labels) != len(trial_states):
        raise DomainError("labels and trial_states length mismatch")
    return list(labels)


def _zone_guard(projector: SubspaceProjector, states, labels, tol: float, zone: str) -> None:
    for label, s in zip(labels, states):
        off = projector.mass(s)
        if off > tol:
            raise PreconditionError(
                f"trial state {label!r} is not {zone}: off-zone mass {off:.6e} exceeds {tol:g}"
            )


def _verdict(condition: str, residual: float, tolerance: float) -> str:
    """HOLDS/FAILS for invariance (I, I-A), FALSIFIED/NOT_FALSIFIED for leakage (II)."""
    if condition == "II":
        return "FALSIFIED" if residual > tolerance else "NOT_FALSIFIED"
    return "HOLDS" if residual <= tolerance else "FAILS"


def _sample(condition: str, mass, u, ts, names, states, tolerance: float) -> ConditionReport:
    """Residual mass(U(t) s) at each (t, state) pair, t-major, and its verdict.

    Each state is transformed once and each time's step built once; the
    residuals are the same bits as evolving every pair separately.
    """
    coeffs = [u.transform(s) for s in states]
    samples = []
    for t in ts:
        step = u.step(t)
        samples.extend(ConditionSample(t, name, mass(u.advance(c, step)))
                       for name, c in zip(names, coeffs))
    samples = tuple(samples)
    worst = max(samples, key=lambda s: s.residual, default=None)
    max_res = worst.residual if worst else 0.0
    verdict = _verdict(condition, max_res, tolerance)
    witness = worst if verdict in ("FAILS", "FALSIFIED") else None
    return ConditionReport(condition, verdict, tolerance, max_res, witness, samples)


def _check_invariance(condition: str, pair, u, ts, trial_states, labels,
                      tolerance: float, state_tol: float) -> ConditionReport:
    """Sample ||P_core U(t) W||^2 over wave-zone trial states W."""
    p_core, _ = pair
    names = _labels_for(trial_states, labels)
    _zone_guard(p_core, trial_states, names, state_tol, "wave-zone")
    return _sample(condition, p_core.mass, u, ts, names, trial_states, tolerance)


def check_condition_I(pair, u, t_samples, trial_states, labels=None,
                      tolerance: float = INVARIANCE_TOL) -> ConditionReport:
    """Sample ||P_core U(t) W||^2 over wave-zone trial states W and t > 0.

    HOLDS when the maximum residual stays within `tolerance`; an empty time
    list is vacuously HOLDS.
    """
    ts = [float(t) for t in t_samples]
    if any(t <= 0.0 for t in ts):
        raise DomainError("condition (I) samples forward times only (t > 0)")
    return _check_invariance("I", pair, u, ts, trial_states, labels, tolerance, ZONE_TOL_STRICT)


def check_condition_II(pair, u, t_samples, trial_states, labels=None,
                       tolerance: float = FALSIFY_TOL) -> ConditionReport:
    """Sample the composed operator P_wave U(t) P_core on trial states C.

    Each residual is ||P_wave U(t) P_core c||^2 / ||P_core c||^2, i.e. the
    trial state is clipped to the core zone first, so that t = 0 can never
    falsify (P_wave P_core = 0 exactly, whatever the state's own tails do).
    FALSIFIED as soon as any sample leaks more than `tolerance`, quoting the
    witnessing (t, state); NOT_FALSIFIED otherwise (the sampled check cannot
    prove the condition, only fail to refute it).
    """
    p_core, p_wave = pair
    ts = [float(t) for t in t_samples]
    if any(t < 0.0 for t in ts):
        raise DomainError("condition (II) samples t >= 0")
    names = _labels_for(trial_states, labels)
    _zone_guard(p_wave, trial_states, names, ZONE_TOL_LOOSE, "core-zone")
    clipped = [core_zone_state(p_core, c) for c in trial_states]
    return _sample("II", p_wave.mass, u, ts, names, clipped, tolerance)


def check_condition_IA(pair, u, t_samples, trial_states, labels=None,
                       tolerance: float = INVARIANCE_TOL) -> ConditionReport:
    """Two-sided variant of condition (I): both time signs are allowed.

    The adjoint step U(t)^dagger is realized as evolution by -t.  A verdict
    of FAILS with a negative-t witness separates semigroup invariance from
    full two-sided invariance.
    """
    ts = [float(t) for t in t_samples]
    return _check_invariance("I-A", pair, u, ts, trial_states, labels, tolerance, ZONE_TOL_LOOSE)


def generator_coupling(h, pair, trial_states) -> float:
    """Grid surrogate for generator invariance: max ||P_core H W||^2.

    A small value says H itself does not couple margin-respecting wave
    states back into the core zone on this grid.  This is a sampled
    surrogate only; it does not certify any statement about the generator's
    full domain.
    """
    p_core, _ = pair
    worst = 0.0
    for w in trial_states:
        worst = max(worst, p_core.mass(h.apply(w)))
    return worst

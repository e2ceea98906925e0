"""Named, self-configuring experiments with machine-checkable verdicts.

Each scenario binds grids, generators, projectors and schedules into one
reproducible run and returns a VerdictBundle: pass/fail flags (each tied to
a recorded numeric comparison), condition reports, scalar metrics, curve
tables, and provenance.  Bundles are deterministic: the only randomness is
a seeded generator recorded in provenance, so re-running a scenario with
the same spec serializes to byte-identical JSON.

Run one with `run_scenario(name, spec=None)`: it alone builds the default
`ScenarioSpec(name=name)`.  Each function in `SCENARIOS` takes the spec
fields it reads as keyword-only parameters, so its signature is the one
record of what it reads (`READS`), and `run_scenario` passes it those fields
alone and completes the bundle's provenance.

Shipped scenarios
-----------------
counterexample   right-translation on a half-line split: forward invariance
                 of the wave zone HOLDS while the no-leakage condition is
                 FALSIFIED and two-sided invariance FAILS backward.
hm-invariance    survival of a strictly core-zone Gaussian is unchanged by
                 selective core measurements, on a spectral path and on an
                 exact circular-shift path.
rabi-control     two-level positive control where measurements do freeze
                 the decay (deficit ~ 1/N).
series-validity  power-series propagation converges fast on a Gaussian but
                 saturates at the grid's spectral ceiling on a bump state.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .analytic import analyticity_report, compare_resolutions, series_vs_spectral_curve
from .errors import DomainError
from .operators import (
    DIVERGENCE_FACTOR,
    Propagator,
    ShiftPropagator,
    _series_terms,
    dense_hermitian,
    momentum_operator,
)
from .statespace import (
    DenseSpace,
    Grid,
    WaveFunction,
    _gaussian_variance,
    _map,
    _norm,
    _run_apart,
    make_bump,
    make_gaussian,
    make_plane_wave,
)
from .subspaces import (
    FALSIFY_TOL,
    INVARIANCE_TOL,
    ConditionReport,
    ConditionSample,
    SubspaceProjector,
    _verdict,
    check_condition_I,
    check_condition_IA,
    check_condition_II,
    core_zone_state,
    halfline_pair,
    leakage,
)
from .zeno import (
    MeasurementSchedule,
    deficit_ladder,
    deficit_slope,
    survival_report,
)

#: |s_measured - s_free| bound on the exact-shift path
SHIFT_INVARIANCE_TOL = 1e-12
#: forward times probed by the counterexample sweeps
T_SWEEP = (0.5, 1.0, 2.0, 3.0, 4.5, 6.0)
#: measurement counts probed by the Zeno scaling ladder
ZENO_LADDER = (8, 16, 32, 64, 128)
#: |slope + 1| bound on the deficit ladder's log-log slope (1/N Zeno regime)
ZENO_SLOPE_TOL = 0.15
#: rows after t = 0 in each hm-invariance survival curve
CURVE_POINTS = 8
#: Fourier modes on each side of zero in counterexample's windowed random field
WINDOW_MODES = 40
#: k_max * sigma of series-validity's Gaussian grid, inside (sqrt(33), 9.75): see analytic.py
GAUSSIAN_KMAX_SIGMA = 6.0
#: roundoff mass a sampled state carries at the spectral cutoff
CUTOFF_ROUNDOFF = 1e-16


def _phi(z: float) -> float:
    """Standard normal CDF."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


@functools.cache
def _package_version() -> str:
    try:
        from importlib.metadata import version

        return version("zenolab")
    except Exception:  # pragma: no cover - not installed
        return "0+unknown"


@dataclass(frozen=True)
class ScenarioSpec:
    """Flat record, one CLI flag per field; a scenario's keyword parameters name those it reads."""

    name: str
    grid_points: int = 4096
    x_min: float = -40.0
    x_max: float = 40.0
    sigma: float = 1.0
    center: float = -8.0
    time: float | None = None
    n_measurements: int = 5
    omega: float = 1.0
    tolerance_invariance: float = INVARIANCE_TOL
    tolerance_falsify: float = FALSIFY_TOL
    seed: int = 1234

    def __post_init__(self) -> None:
        for name in ("sigma", "center", "x_min", "x_max", "omega", "time"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value!r}")
        if self.sigma <= 0.0:
            raise DomainError("sigma must be positive")
        if self.n_measurements < 0:
            raise DomainError("n_measurements must be non-negative")
        if self.seed < 0:
            raise DomainError(f"seed must be a non-negative integer, got {self.seed}")
        for name in ("tolerance_invariance", "tolerance_falsify"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise DomainError(f"{name} must be finite and positive, got {value!r}")
            if value >= 1.0:
                # every residual and survival gap it bounds is a mass of a normalized state
                raise DomainError(f"{name} must be below 1, got {value!r}")


def _require_inside(grid: Grid, lo: float, hi: float, what: str) -> None:
    """Demand that [lo, hi], the room `what` needs, lie inside the grid."""
    if not grid.contains(lo, hi):
        raise DomainError(f"margin violation: {what} needs [{lo}, {hi}] inside "
                          f"[{grid.x_min}, {grid.x_max}]")


def _require_resolved(grid: Grid, sigma: float, k0: float, tol: float, bump=None) -> None:
    """Demand that a Gaussian at carrier k0 leave at most `tol` of its mass past k_max.

    Its amplitude spectrum is exp(-sigma^2 (k - k0)^2), so the mass past
    k_max = pi / dx stays under tol when sigma (k_max - |k0|) >= sqrt(ln(1 / tol) / 2).
    A failing spec is named by a more basic fault first, if it has one: a sigma
    whose 2 pi sigma^2 float64 cannot hold, then a trial `bump` support that
    holds no weighted sample of the grid.
    """
    k_max = math.pi / grid.dx
    bound = math.sqrt(math.log(1.0 / tol) / 2.0)
    if not sigma * (k_max - abs(k0)) >= bound:
        _gaussian_variance(sigma)
        if bump is not None:
            make_bump(grid, *bump)
        raise DomainError(f"sigma {sigma:g} is too small for the grid step dx = {grid.dx:g}: "
                          f"a Gaussian at k0 = {k0:g} puts more than {tol:g} of its mass past "
                          f"k_max = {k_max:g} unless sigma * (k_max - |k0|) >= "
                          f"sqrt(ln(1 / {tol:g}) / 2) = {bound:.3g}")


@dataclass(frozen=True)
class FlagRecord:
    """One acceptance flag with the comparison that produced it."""

    name: str
    passed: bool
    value: float
    relation: str
    threshold: float


def make_flag(name: str, value: float, relation: str, threshold: float) -> FlagRecord:
    v = float(value)
    thr = float(threshold)
    ok = {
        "<=": v <= thr,
        "<": v < thr,
        ">=": v >= thr,
        ">": v > thr,
        "==": v == thr,
    }[relation]
    return FlagRecord(name, bool(ok), v, relation, thr)


@dataclass(frozen=True)
class CurveTable:
    """Column-named rows destined for one CSV file."""

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]


@dataclass(frozen=True)
class VerdictBundle:
    """Everything one scenario run asserts, measured, and was configured with."""

    scenario: str
    flags: tuple[FlagRecord, ...]
    conditions: tuple[ConditionReport, ...] = ()
    metrics: dict = field(default_factory=dict)
    tables: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(f.passed for f in self.flags)

    def to_payload(self) -> dict:
        return dict(_json_safe(self), passed=self.passed)

    def to_json_bytes(self) -> bytes:
        text = json.dumps(self.to_payload(), sort_keys=True,
                          separators=(",", ":"), ensure_ascii=True)
        return (text + "\n").encode("utf-8")

    def summary_text(self) -> str:
        lines = [f"scenario: {self.scenario}"]
        for r in self.conditions:
            lines.append(
                f"condition ({r.condition}) {r.verdict} - max residual "
                f"{r.max_residual:.6g} (tolerance {r.tolerance:.6g})"
            )
            if r.witness is not None:
                lines.append(
                    f"  witness: t={r.witness.t:.6g} state={r.witness.state} "
                    f"residual={r.witness.residual:.6g}"
                )
        for f in self.flags:
            status = "PASS" if f.passed else "FAIL"
            lines.append(
                f"flag {status} {f.name}: {f.value:.6g} {f.relation} {f.threshold:.6g}"
            )
        lines.append(f"verdict: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


#: field names of the five dataclasses a bundle is built from
_FIELD_NAMES = {kind: tuple(f.name for f in fields(kind)) for kind in
                (VerdictBundle, FlagRecord, CurveTable, ConditionReport, ConditionSample)}


def _json_safe(obj):
    """Recursively coerce to JSON values by exact type, a numpy scalar by its
    `.item()`; a subclass of a builtin or any other dataclass raises `DomainError`."""
    kind = type(obj)
    if kind is float:
        return obj if math.isfinite(obj) else str(obj)  # "nan", "inf" or "-inf"
    if kind is str or kind is int or kind is bool or obj is None:
        return obj
    if kind is tuple or kind is list:
        return [_json_safe(v) for v in obj]
    if kind in _FIELD_NAMES:
        return {name: _json_safe(getattr(obj, name)) for name in _FIELD_NAMES[kind]}
    if kind is dict:
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, np.generic) and not isinstance(item := obj.item(), np.generic):
        return _json_safe(item)
    raise DomainError(f"cannot serialize value of type {kind.__name__}")


def _window_state(grid: Grid, lo: float, hi: float, seed: int) -> WaveFunction:
    """Seeded band-limited random field under a smooth compact window.

    The window vanishes identically outside (lo, hi), so the state is an
    exact zone member while staying smooth enough for spectral evolution.
    """
    rng = np.random.default_rng(seed)
    n_amps = 2 * WINDOW_MODES + 1
    amps = rng.standard_normal(n_amps) + 1j * rng.standard_normal(n_amps)
    coeffs = np.zeros(grid.n_points, dtype=np.complex128)
    coeffs[: WINDOW_MODES + 1] = amps[: WINDOW_MODES + 1]
    coeffs[-WINDOW_MODES:] = amps[WINDOW_MODES + 1:]
    field_vals = np.fft.ifft(coeffs) * math.sqrt(grid.n_points)
    window = make_bump(grid, lo, hi)
    return WaveFunction(grid, window.values * field_vals).normalized()


def _survival_table(reports, *head: tuple) -> CurveTable:
    """The `head` rows, then free and measured survival at the end of each report's run."""
    rows = head + tuple((r.t_final, r.s_free, r.s_measured, r.n_measurements) for r in reports)
    return CurveTable(("t", "s_free", "s_measured", "N"), rows)


def _residual_table(report: ConditionReport) -> CurveTable:
    rows = []
    for t in sorted({s.t for s in report.samples}):
        worst = max(s.residual for s in report.samples if s.t == t)
        rows.append((t, worst, _verdict(report.condition, worst, report.tolerance)))
    return CurveTable(("t", "residual", "verdict"), tuple(rows))


# ----------------------------------------------------------------------
# counterexample: translation separates (I) from (II) and (I-A)
# ----------------------------------------------------------------------

def scenario_counterexample(*, grid_points, x_min, x_max, sigma, seed, tolerance_invariance,
                            tolerance_falsify) -> VerdictBundle:
    """translation flow: (I) HOLDS, (II) FALSIFIED, (I-A) FAILS backward"""
    grid = Grid(x_min, x_max, grid_points)
    drift = max(T_SWEEP)
    window_lo, window_hi = 2.0, 30.0
    # the Gaussian trial states (centers -8..12, 8-sigma slack) and the window
    _require_inside(grid, -8.0 - 8.0 * sigma - drift, max(12.0 + 8.0 * sigma, window_hi) + drift,
                    f"trial states at -8..12 (sigma {sigma}) drifting +-{drift}")
    if grid.n_points < 2 * WINDOW_MODES + 1:
        raise DomainError(f"the windowed random field needs {2 * WINDOW_MODES + 1} Fourier "
                          f"modes, more than the {grid.n_points} grid points hold")
    # gaussian(12,k2) sets the edge
    _require_resolved(grid, sigma, 2.0, tolerance_invariance, bump=(2.0, 6.0))

    pair = halfline_pair(grid)
    p_core, p_wave = pair
    u = Propagator(momentum_operator(grid))

    # each check draws its own trial states, so only coefficients stay alive
    # while it samples; (I), the longest, is the map's first item
    def wave_states():
        yield "gaussian(8)", make_gaussian(grid, 8.0, sigma)
        yield "gaussian(12,k2)", make_gaussian(grid, 12.0, sigma, k0=2.0)
        yield "bump[2,6]", make_bump(grid, 2.0, 6.0)
        yield "windowed-random", _window_state(grid, window_lo, window_hi, seed)

    def core_states():
        yield "gaussian(-3)", make_gaussian(grid, -3.0, sigma)
        yield "trunc-gaussian(-8)", core_zone_state(p_core, make_gaussian(grid, -8.0, sigma))

    def ia_states():
        yield "gaussian(3)", make_gaussian(grid, 3.0, sigma)

    checks = (
        lambda: check_condition_I(pair, u, T_SWEEP, wave_states(), tolerance=tolerance_invariance),
        lambda: check_condition_II(pair, u, T_SWEEP, core_states(), tolerance=tolerance_falsify),
        lambda: check_condition_IA(pair, u, (-6.0, 6.0), ia_states(),
                                   tolerance=tolerance_invariance),
        lambda: leakage(p_wave, u, make_gaussian(grid, -3.0, sigma), 6.0),
    )
    rep_I, rep_II, rep_IA, leak = _map(lambda check: check(), checks, points=grid.n_points)
    ia_backward = max(s.residual for s in rep_IA.samples if s.t < 0)
    ia_forward = max(s.residual for s in rep_IA.samples if s.t > 0)

    leak_oracle = _phi(3.0 / sigma)

    flags = (
        make_flag("cond_I_holds", rep_I.max_residual, "<=", tolerance_invariance),
        make_flag("cond_II_falsified", rep_II.max_residual, ">", tolerance_falsify),
        make_flag("leakage_large", leak, ">=", 0.99),
        make_flag("leakage_oracle", abs(leak - leak_oracle), "<=", 1e-3),
        make_flag("ia_backward_fails", ia_backward, ">=", 0.99),
        make_flag("ia_forward_ok", ia_forward, "<=", tolerance_invariance),
    )
    metrics = {
        "max_residual_I": rep_I.max_residual,
        "max_residual_II": rep_II.max_residual,
        "ia_backward_mass": ia_backward,
        "ia_forward_mass": ia_forward,
        "leakage_t6": leak,
        "leakage_oracle": leak_oracle,
    }
    tables = {
        "residuals_I": _residual_table(rep_I),
        "residuals_II": _residual_table(rep_II),
        "residuals_IA": _residual_table(rep_IA),
    }
    return VerdictBundle("counterexample", flags, (rep_I, rep_II, rep_IA),
                         metrics, tables, {"t_sweep": list(T_SWEEP)})


# ----------------------------------------------------------------------
# hm-invariance: measurements do not change core-zone survival
# ----------------------------------------------------------------------

def _shift_schedule(total_steps: int, dx: float, n: int) -> MeasurementSchedule:
    """n measurements at grid steps approximating equal spacing; for total_steps > n
    the marks lie >= 1 step apart before rounding, so they are distinct and interior."""
    marks = (round(k * total_steps / (n + 1)) for k in range(1, n + 1))
    return MeasurementSchedule(total_steps * dx, tuple(m * dx for m in marks))


def scenario_hm_invariance(*, grid_points, x_min, x_max, sigma, center, time, n_measurements,
                           tolerance_invariance) -> VerdictBundle:
    """selective core measurements leave survival unchanged"""
    t = time if time is not None else 2.0
    if t <= 0.0:
        raise DomainError("final time must be positive")
    grid = Grid(x_min, x_max, grid_points)
    if center >= 0.0:
        raise DomainError("prepared state must be centered in the core zone (x < 0)")
    # the prepared state is clipped to x < 0, so it needs full 8-sigma slack
    # leftward but only drift room on the wave side
    _require_inside(grid, center - 8.0 * sigma, t,
                    f"clipped state at {center} (sigma {sigma}) drifting +{t}")
    _require_resolved(grid, sigma, 0.0, tolerance_invariance)

    # the shift lattice is checked before any schedule, state or FFT
    n = n_measurements
    steps = round(t / grid.dx)
    if steps < 1:
        raise DomainError("final time is below one grid step; no shift path exists")
    if steps <= n:
        raise DomainError(f"cannot place {n} distinct measurement steps inside {steps} steps")
    t_eff = steps * grid.dx
    # the last curve row ends at CURVE_POINTS * t / CURVE_POINTS, which is t
    # exactly, so its report is the main spectral run
    js = range(1, CURVE_POINTS + 1)
    curve_schedules = [MeasurementSchedule.equally_spaced(j * t / CURVE_POINTS, n)
                       for j in js]
    # each distinct step count gives one shift row; n steps or fewer cannot hold
    # n distinct interior instants, so such rows are unrepresentable on the
    # quantized path.  The last row has `steps` steps: the main shift run
    shift_steps = dict.fromkeys(round(j * steps / CURVE_POINTS) for j in js)
    shift_schedules = [_shift_schedule(k, grid.dx, n) for k in shift_steps if k > n]

    p_core, _ = halfline_pair(grid)
    e = core_zone_state(p_core, make_gaussian(grid, center, sigma))
    # the empty schedule is the free evolve to t, the last curve row's: one job
    # gives both sides of its report
    empty, *curve_spectral = survival_report(Propagator(momentum_operator(grid)), p_core, e,
                                             [MeasurementSchedule(t, ()), *curve_schedules])
    rep_spectral = curve_spectral[-1]
    curve_shift = survival_report(ShiftPropagator(grid), p_core, e, shift_schedules)
    rep_shift = curve_shift[-1]

    def autocorr_oracle(tau: float) -> float:
        return math.exp(-(tau ** 2) / (4.0 * sigma ** 2))

    flags = (
        make_flag("spectral_invariance", abs(rep_spectral.delta), "<=", tolerance_invariance),
        make_flag("shift_invariance", abs(rep_shift.delta), "<=", SHIFT_INVARIANCE_TOL),
        make_flag("free_survival_oracle",
                  abs(rep_spectral.s_free - autocorr_oracle(t)), "<=", 1e-6),
        make_flag("shift_survival_oracle",
                  abs(rep_shift.s_free - autocorr_oracle(t_eff)), "<=", 1e-6),
        make_flag("empty_schedule_trivial", abs(empty.s_measured - empty.s_free), "==", 0.0),
    )
    metrics = {
        "t": t,
        "t_eff": t_eff,
        "steps": steps,
        "s_free_spectral": rep_spectral.s_free,
        "s_measured_spectral": rep_spectral.s_measured,
        "delta_spectral": rep_spectral.delta,
        "s_free_shift": rep_shift.s_free,
        "s_measured_shift": rep_shift.s_measured,
        "delta_shift": rep_shift.delta,
        "retained_spectral": rep_spectral.retained,
        "retained_shift": rep_shift.retained,
        "leakage_free_spectral": rep_spectral.leakage_free,
        "oracle_spectral": autocorr_oracle(t),
        "oracle_shift": autocorr_oracle(t_eff),
    }
    tables = {
        "survival_spectral": _survival_table(curve_spectral, (0.0, 1.0, 1.0, n)),
        "survival_shift": _survival_table(curve_shift, (0.0, 1.0, 1.0, n)),
    }
    prov = {"schedule_spectral": list(curve_schedules[-1].times),
            "schedule_shift": list(shift_schedules[-1].times)}
    return VerdictBundle("hm-invariance", flags, (), metrics, tables, prov)


# ----------------------------------------------------------------------
# rabi-control: the positive control where measurement freezes decay
# ----------------------------------------------------------------------

def scenario_rabi_control(*, omega, time) -> VerdictBundle:
    """two-level control where measurements freeze decay (~1/N)"""
    if omega <= 0.0:
        raise DomainError("omega must be positive")
    t = time if time is not None else math.pi / (2.0 * omega)
    if t <= 0.0:
        raise DomainError("final time must be positive")
    # the closed form takes cos(omega * t) and the ladder's schedules place k * t
    if not all(map(math.isfinite, (t, omega * t, t * ZENO_LADDER[-1]))):
        raise DomainError(f"omega {omega:g} and time {t:g} overflow: t, omega * t and "
                          f"{ZENO_LADDER[-1]} * t must be finite")
    # the ladder only judges 1/N freezing where the exact deficits already
    # follow it, and where their roundoff cannot move the slope out of the
    # window; outside it no chain could pass zeno_slope, or one could by chance
    closed = deficit_ladder(t, omega, ZENO_LADDER)
    # a chain deficit lies within 4 (N + 1) eps of its closed form: each of the
    # N + 1 segments and each factor of cos^(2(N + 1)) rounds s by about an eps
    # (2.2 (N + 1) eps is the worst measured).  So ln d moves by at most
    # -ln(1 - r), r = 4 (N + 1) eps / d, and the least-squares slope by the sum
    # of |weight| times that: on N = 8..128 the |weights| sum to 6 / (10 ln 2) = 0.87
    ratios = [4 * (n + 1) * np.finfo(float).eps / d if d > 0.0 else math.inf
              for n, d in zip(ZENO_LADDER, closed)]
    ln_n = np.log(ZENO_LADDER) - np.log(ZENO_LADDER).mean()
    blur = (sum(abs(w) * -math.log1p(-r) for w, r in zip(ln_n / (ln_n @ ln_n), ratios))
            if max(ratios) < 1.0 else math.inf)
    # a deficit at or below its roundoff gives no slope at all; the fit takes
    # the deficits as they are, since deficit_slope's 1 - s would round each
    # one through 1 - d and make the window's edge jitter in t
    closed_slope = (float(np.polyfit(np.log(ZENO_LADDER), np.log(closed), 1)[0])
                    if blur < math.inf else math.nan)
    if abs(closed_slope - (-1.0)) > ZENO_SLOPE_TOL:
        raise DomainError(
            f"omega*t = {omega * t:.6g} is outside the Zeno window: the closed-form "
            f"deficit slope over N = {ZENO_LADDER[0]}..{ZENO_LADDER[-1]} is "
            f"{closed_slope:.3f}, not within {ZENO_SLOPE_TOL:g} of -1"
        )
    if not abs(closed_slope - (-1.0)) + blur <= ZENO_SLOPE_TOL:
        raise DomainError(
            f"omega*t = {omega * t:.6g} is outside the Zeno window: the closed-form "
            f"deficit at N = {ZENO_LADDER[-1]} is {closed[-1]:.3g}, and a roundoff of "
            f"4 (N + 1) eps per deficit could move the slope over N = "
            f"{ZENO_LADDER[0]}..{ZENO_LADDER[-1]} by {blur:.3g}, out of {ZENO_SLOPE_TOL:g} of -1"
        )

    space = DenseSpace(2)
    h = dense_hermitian(np.array([[0.0, omega], [omega, 0.0]]))
    u = Propagator(h)
    e = WaveFunction(space, np.array([1.0, 0.0]))
    p_core = SubspaceProjector(space, 0, 1)

    reports = survival_report(u, p_core, e, [MeasurementSchedule.equally_spaced(t, n)
                                             for n in (1,) + ZENO_LADDER])
    s_free = reports[0].s_free
    s_one = reports[0].s_measured
    oracle_free = math.cos(omega * t) ** 2
    oracle_one = math.cos(omega * t / 2.0) ** 4

    scaling = tuple((r.n_measurements, r.s_measured) for r in reports[1:])
    deficits = [1.0 - s for _, s in scaling]
    slope = deficit_slope(scaling)
    chain_error = max(abs(a - b) for a, b in zip(deficits, closed))
    worst_increase = max(b - a for a, b in zip(deficits, deficits[1:]))

    flags = (
        make_flag("single_measurement_oracle", abs(s_one - oracle_one), "<=", 1e-10),
        make_flag("free_survival_oracle", abs(s_free - oracle_free), "<=", 1e-12),
        make_flag("zeno_slope", abs(slope - (-1.0)), "<=", ZENO_SLOPE_TOL),
        make_flag("deficit_decreasing", worst_increase, "<", 0.0),
        make_flag("chain_matches_closed_form", chain_error, "<=", 1e-12),
    )
    tables = {"survival_zeno": _survival_table(reports[1:])}
    metrics = {
        "t": t,
        "s_free": s_free,
        "s_single_measurement": s_one,
        "zeno_slope": slope,
        "deficit_n_max": deficits[-1],
        "chain_vs_closed_form": chain_error,
    }
    return VerdictBundle("rabi-control", flags, (), metrics, tables,
                         {"zeno_ladder": list(ZENO_LADDER)})


# ----------------------------------------------------------------------
# series-validity: who is allowed to use the power series
# ----------------------------------------------------------------------

def _budget_grid(x_min: float, x_max: float, t: float, cap: int, fits, what: str) -> Grid:
    """The largest grid of 16 to `cap` points on [x_min, x_max] whose |t| k_max fits."""
    # cap, cap / 2, ..., 16; dx > 0, as every caller's domain holds the bump's [-2, 2]
    for n in (cap >> j for j in range(cap.bit_length() - 4)):
        grid = Grid(x_min, x_max, n)
        if fits(abs(t) * math.pi / grid.dx):
            return grid
    raise DomainError(f"time {t:g} is too long for {what}: no grid of 16 or more points on "
                      f"[{x_min:g}, {x_max:g}] keeps |t| * k_max in its budget")


def scenario_series_validity(*, x_min, x_max, sigma, time) -> VerdictBundle:
    """power-series propagation: Gaussian vs bump, two resolutions"""
    t = time if time is not None else 1.0
    gaussian_tol, eigen_tol = 1e-10, 1e-12  # flag bounds, which set the grid budgets
    # a depth-n series lifts the cutoff roundoff by up to e^(|t| k_max); the
    # Gaussian's grid holds k_max * sigma fixed, so it is scale-free in sigma
    half = 512 * math.pi * sigma / GAUSSIAN_KMAX_SIGMA
    if not math.isfinite(2 * half):
        raise DomainError(f"sigma {sigma:g} is too large: the Gaussian grid's length "
                          f"1024 pi sigma / {GAUSSIAN_KMAX_SIGMA:g} overflows")
    wide = Grid(-half, half, 1024)
    if abs(t) * math.pi / wide.dx > math.log(gaussian_tol / CUTOFF_ROUNDOFF):
        raise DomainError(f"time {t:g} is too long for sigma {sigma:g} (k_max = "
                          f"{math.pi / wide.dx:g}): |t| * k_max exceeds ln(1e6) = 13.8")
    # under that bound no bump series term passes DIVERGENCE_FACTOR on the coarse grid
    _require_inside(Grid(x_min, x_max, 2), -2.0, 2.0, "the bump on [-2, 2]")
    coarse = _budget_grid(x_min, x_max, t, 1024, lambda tk: tk <= math.log(DIVERGENCE_FACTOR),
                          "the coarse bump curve")
    fine = Grid(x_min, x_max, 4 * coarse.n_points)
    # below this U(t) is the identity to float64 rounding: no error can grow
    k_max = math.pi / fine.dx
    if abs(t) * k_max <= np.finfo(float).eps:
        raise DomainError(f"time {t:g} is too short: |t| * k_max = {abs(t) * k_max:.3g} "
                          f"(k_max = {k_max:g}) is at most float64 eps: U(t) is the identity")
    # the plane wave's 20 terms lift it by up to max_m (|t| k_max)^m / m!, taken
    # in logs (tk > 0 past the check above)
    small = _budget_grid(x_min, x_max, t, 256, lambda tk: max(
        m * math.log(tk) - math.lgamma(m + 1) for m in range(1, 20))
        <= math.log(eigen_tol / CUTOFF_ROUNDOFF), "the eigenvector branch")

    # Gaussian branch: entire-type vector, series converges quickly
    h_wide = momentum_operator(wide)
    g = make_gaussian(wide, 0.0, sigma)
    g_curve = series_vs_spectral_curve(h_wide, g, t, 40)
    # probed to n = 16, whose step ratio sqrt(33) / (2 sigma) is below saturation
    g_report = analyticity_report(h_wide, g, n_max=16)
    first_converged = next((n for n, err in zip(g_curve.n_terms, g_curve.errors)
                            if err < gaussian_tol), -1)

    # bump branch: saturates at the grid ceiling, worse on the finer grid
    def bump_branch(grid: Grid):
        h = momentum_operator(grid)
        b = make_bump(grid, -2.0, 2.0)
        curve = series_vs_spectral_curve(h, b, t, 60)
        peak = max(e for e in curve.errors if math.isfinite(e))
        return curve, peak, analyticity_report(h, b, n_max=40)

    fine_curve, fine_peak, fine_report = bump_branch(fine)
    coarse_curve, coarse_peak, coarse_report = bump_branch(coarse)
    tracks_cutoff = compare_resolutions(fine_report, coarse_report)

    # eigenvector branch: the series must reduce to the scalar exponential on
    # the plane wave's coefficients c, as the change of basis is an isometry
    h_small = momentum_operator(small)
    c = Propagator(h_small).transform(make_plane_wave(small, 5))
    k_mode = float(small.wavenumbers()[5])
    *_, rest = _series_terms(h_small, c, t, 20)
    scalar = sum((-1j * k_mode * t) ** j / math.factorial(j) for j in range(20))
    eigen_error = float(_norm(c + rest - scalar * c))

    flags = (
        make_flag("gaussian_series_n40", g_curve.errors[-1], "<=", gaussian_tol),
        make_flag("gaussian_entire_like",
                  1.0 if g_report.classification == "entire-like" else 0.0, ">=", 1.0),
        make_flag("gaussian_rho_climbing", g_report.tail_growth, ">=", 1.1),
        make_flag("bump_peak_grows_with_resolution",
                  fine_peak - coarse_peak, ">", 0.0),
        make_flag("bump_tracks_cutoff", 1.0 if tracks_cutoff else 0.0, ">=", 1.0),
        make_flag("eigenvector_sanity", eigen_error, "<=", eigen_tol),
    )
    metrics = {
        "t": t,
        "gaussian_error_n40": g_curve.errors[-1],
        "gaussian_first_n_below_1e-10": first_converged,
        "gaussian_classification": g_report.classification,
        "gaussian_tail_growth": g_report.tail_growth,
        "bump_classification_fine": fine_report.classification,
        "bump_classification_coarse": coarse_report.classification,
        "bump_plateau_fraction_fine": fine_report.plateau_fraction,
        "bump_plateau_fraction_coarse": coarse_report.plateau_fraction,
        "bump_peak_fine": fine_peak,
        "bump_peak_coarse": coarse_peak,
        "eigenvector_error": eigen_error,
    }

    def hn_table(report) -> CurveTable:
        log_norms = report.norms.log_norms
        rows = tuple((n, log_norms[n], rho) for n, rho in enumerate(report.norms.rho_hats()))
        return CurveTable(("n", "log_norm", "rho_hat"), rows)

    def series_table(pairs) -> CurveTable:
        rows = tuple((n, err, str(grid.n_points))
                     for grid, curve in pairs
                     for n, err in zip(curve.n_terms, curve.errors))
        return CurveTable(("n_terms", "error", "resolution"), rows)

    tables = {
        "series_gaussian": series_table([(wide, g_curve)]),
        "series_bump": series_table([(fine, fine_curve), (coarse, coarse_curve)]),
        "hn_gaussian": hn_table(g_report),
        "hn_bump_fine": hn_table(fine_report),
        "hn_bump_coarse": hn_table(coarse_report),
    }
    return VerdictBundle("series-validity", flags, (), metrics, tables,
                         {"resolutions": [fine.n_points, coarse.n_points]})


SCENARIOS = {
    "counterexample": scenario_counterexample,
    "hm-invariance": scenario_hm_invariance,
    "rabi-control": scenario_rabi_control,
    "series-validity": scenario_series_validity,
}
#: the ScenarioSpec fields each scenario reads, its keyword-only parameters; the
#: CLI rejects the others
READS = {name: frozenset(inspect.signature(fn).parameters) for name, fn in SCENARIOS.items()}


def run_scenario(name: str, spec: ScenarioSpec | None = None) -> VerdictBundle:
    """Run scenario `name` on `spec`, or on `ScenarioSpec(name=name)` when none is given."""
    try:
        fn = SCENARIOS[name]
    except KeyError:
        raise DomainError(
            f"unknown scenario {name!r}; available: {', '.join(sorted(SCENARIOS))}"
        ) from None
    if spec is None:
        spec = ScenarioSpec(name=name)
    elif spec.name != name:
        # the bundle's provenance records spec.name, so it would be mislabeled
        raise DomainError(f"spec for scenario {spec.name!r} cannot run scenario {name!r}")
    kwargs = {f: getattr(spec, f) for f in READS[name]}
    bundle = _run_apart(lambda: fn(**kwargs), kwargs.get("grid_points"))
    # the scenario records only its own extras; every bundle records what made it
    bundle.provenance.update(package="zenolab", version=_package_version(),
                             numpy=np.__version__, parameters=asdict(spec))
    return bundle

"""Named, self-configuring experiments with machine-checkable verdicts.

Each scenario binds grids, generators, projectors and schedules into one
reproducible run and returns a VerdictBundle: pass/fail flags (each tied to
a recorded numeric comparison), condition reports, scalar metrics, curve
tables, and provenance.  Bundles are deterministic: the only randomness is
a seeded generator recorded in provenance, so re-running a scenario with
the same spec serializes to byte-identical JSON.

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

import json
import math
from dataclasses import asdict, dataclass, field, fields, is_dataclass

import numpy as np

from .analytic import analyticity_report, compare_resolutions, series_vs_spectral_curve
from .errors import DomainError
from .operators import (
    Propagator,
    ShiftPropagator,
    dense_hermitian,
    evolve_series,
    momentum_operator,
)
from .statespace import (
    DenseSpace,
    Grid,
    WaveFunction,
    inner_product,
    make_bump,
    make_gaussian,
    make_plane_wave,
)
from .subspaces import (
    ConditionReport,
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
    _chain,
    _require_core_state,
    _survival_report,
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


def _phi(z: float) -> float:
    """Standard normal CDF."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def _package_version() -> str:
    try:
        from importlib.metadata import version

        return version("zenolab")
    except Exception:  # pragma: no cover - not installed
        return "0+unknown"


@dataclass(frozen=True)
class ScenarioSpec:
    """Flat parameter record, one CLI flag per field; READS says who reads which."""

    name: str
    grid_points: int = 4096
    x_min: float = -40.0
    x_max: float = 40.0
    sigma: float = 1.0
    center: float = -8.0
    time: float | None = None
    n_measurements: int = 5
    omega: float = 1.0
    tolerance_invariance: float = 1e-8
    tolerance_falsify: float = 1e-6
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


def _require_inside(grid: Grid, lo: float, hi: float, what: str) -> None:
    """Demand that [lo, hi], the room `what` needs, lie inside the grid."""
    if not grid.contains(lo, hi):
        raise DomainError(f"margin violation: {what} needs [{lo}, {hi}] inside "
                          f"[{grid.x_min}, {grid.x_max}]")


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


def _json_safe(obj):
    """Recursively coerce to JSON-serializable values with finite-float safety."""
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        if math.isnan(f):
            return "nan"
        if math.isinf(f):
            return "inf" if f > 0 else "-inf"
        return f
    if obj is None or isinstance(obj, str):
        return obj
    if is_dataclass(obj):
        return {f.name: _json_safe(getattr(obj, f.name)) for f in fields(obj)}
    raise DomainError(f"cannot serialize value of type {type(obj).__name__}")


def _provenance(spec: ScenarioSpec, **extra) -> dict:
    prov = {
        "package": "zenolab",
        "version": _package_version(),
        "numpy": np.__version__,
        "parameters": asdict(spec),
    }
    prov.update(extra)
    return prov


def _window_state(grid: Grid, lo: float, hi: float, n_modes: int, seed: int) -> WaveFunction:
    """Seeded band-limited random field under a smooth compact window.

    The window vanishes identically outside (lo, hi), so the state is an
    exact zone member while staying smooth enough for spectral evolution.
    """
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(2 * n_modes + 1) + 1j * rng.standard_normal(2 * n_modes + 1)
    coeffs = np.zeros(grid.n_points, dtype=np.complex128)
    coeffs[: n_modes + 1] = amps[: n_modes + 1]
    coeffs[-n_modes:] = amps[n_modes + 1:]
    field_vals = np.fft.ifft(coeffs) * math.sqrt(grid.n_points)
    window = make_bump(grid, lo, hi)
    return WaveFunction(grid, window.values * field_vals).normalized()


def _residual_table(report: ConditionReport) -> CurveTable:
    rows = []
    for t in sorted({s.t for s in report.samples}):
        worst = max(s.residual for s in report.samples if s.t == t)
        rows.append((t, worst, _verdict(report.condition, worst, report.tolerance)))
    return CurveTable(("t", "residual", "verdict"), tuple(rows))


# ----------------------------------------------------------------------
# counterexample: translation separates (I) from (II) and (I-A)
# ----------------------------------------------------------------------

def scenario_counterexample(spec: ScenarioSpec | None = None) -> VerdictBundle:
    """translation flow: (I) HOLDS, (II) FALSIFIED, (I-A) FAILS backward"""
    spec = spec if spec is not None else ScenarioSpec(name="counterexample")
    grid = Grid(spec.x_min, spec.x_max, spec.grid_points)
    drift = max(T_SWEEP)
    window_lo, window_hi = 2.0, 30.0
    # the Gaussian trial states (centers -8..12, 8-sigma slack) and the window
    _require_inside(grid, -8.0 - 8.0 * spec.sigma - drift,
                    max(12.0 + 8.0 * spec.sigma, window_hi) + drift,
                    f"trial states at -8..12 (sigma {spec.sigma}) drifting +-{drift}")

    pair = halfline_pair(grid)
    p_core, p_wave = pair
    u = Propagator(momentum_operator(grid))

    wave_states = [
        make_gaussian(grid, 8.0, spec.sigma),
        make_gaussian(grid, 12.0, spec.sigma, k0=2.0),
        make_bump(grid, 2.0, 6.0),
        _window_state(grid, window_lo, window_hi, n_modes=40, seed=spec.seed),
    ]
    wave_labels = ["gaussian(8)", "gaussian(12,k2)", "bump[2,6]", "windowed-random"]
    rep_I = check_condition_I(pair, u, T_SWEEP, wave_states, wave_labels,
                              tolerance=spec.tolerance_invariance)

    core_states = [
        make_gaussian(grid, -3.0, spec.sigma),
        core_zone_state(p_core, make_gaussian(grid, -8.0, spec.sigma)),
    ]
    core_labels = ["gaussian(-3)", "trunc-gaussian(-8)"]
    rep_II = check_condition_II(pair, u, T_SWEEP, core_states, core_labels,
                                tolerance=spec.tolerance_falsify)

    rep_IA = check_condition_IA(pair, u, (-6.0, 6.0),
                                [make_gaussian(grid, 3.0, spec.sigma)], ["gaussian(3)"],
                                tolerance=spec.tolerance_invariance)
    ia_backward = max(s.residual for s in rep_IA.samples if s.t < 0)
    ia_forward = max(s.residual for s in rep_IA.samples if s.t > 0)

    leak = leakage(p_wave, u, core_states[0], 6.0)
    leak_oracle = _phi(3.0 / spec.sigma)

    flags = (
        make_flag("cond_I_holds", rep_I.max_residual, "<=", spec.tolerance_invariance),
        make_flag("cond_II_falsified", rep_II.max_residual, ">", spec.tolerance_falsify),
        make_flag("leakage_large", leak, ">=", 0.99),
        make_flag("leakage_oracle", abs(leak - leak_oracle), "<=", 1e-3),
        make_flag("ia_backward_fails", ia_backward, ">=", 0.99),
        make_flag("ia_forward_ok", ia_forward, "<=", spec.tolerance_invariance),
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
                         metrics, tables, _provenance(spec, t_sweep=list(T_SWEEP)))


# ----------------------------------------------------------------------
# hm-invariance: measurements do not change core-zone survival
# ----------------------------------------------------------------------

def _shift_schedule(total_steps: int, dx: float, n: int) -> MeasurementSchedule:
    """n measurements at distinct interior grid steps approximating equal spacing."""
    marks = sorted({int(round(k * total_steps / (n + 1))) for k in range(1, n + 1)})
    marks = [m for m in marks if 0 < m < total_steps]
    if len(marks) != n:
        raise DomainError(
            f"cannot place {n} distinct measurement steps inside {total_steps} steps"
        )
    return MeasurementSchedule(total_steps * dx, tuple(m * dx for m in marks))


def scenario_hm_invariance(spec: ScenarioSpec | None = None) -> VerdictBundle:
    """selective core measurements leave survival unchanged"""
    spec = spec if spec is not None else ScenarioSpec(name="hm-invariance")
    t = spec.time if spec.time is not None else 2.0
    if t <= 0.0:
        raise DomainError("final time must be positive")
    grid = Grid(spec.x_min, spec.x_max, spec.grid_points)
    if spec.center >= 0.0:
        raise DomainError("prepared state must be centered in the core zone (x < 0)")
    # the prepared state is clipped to x < 0, so it needs full 8-sigma slack
    # leftward but only drift room on the wave side
    _require_inside(grid, spec.center - 8.0 * spec.sigma, t,
                    f"clipped state at {spec.center} (sigma {spec.sigma}) drifting +{t}")

    # every schedule is built, and so checked, before any state or FFT.  The
    # last curve row ends at CURVE_POINTS * t / CURVE_POINTS, which is t
    # exactly, so its report is the main spectral run
    n = spec.n_measurements
    js = range(1, CURVE_POINTS + 1)
    curve_schedules = [MeasurementSchedule.equally_spaced(j * t / CURVE_POINTS, n)
                       for j in js]
    sched_spectral = MeasurementSchedule.equally_spaced(t, n)
    assert curve_schedules[-1] == sched_spectral
    steps = int(round(t / grid.dx))
    if steps < 1:
        raise DomainError("final time is below one grid step; no shift path exists")
    t_eff = steps * grid.dx
    sched_shift = _shift_schedule(steps, grid.dx, n)
    # each distinct step count gives one shift row; fewer than n + 1 steps
    # cannot hold n distinct interior instants, so such rows are
    # unrepresentable on the quantized path, not an error.  The last row
    # has `steps` steps, so its report is the main shift run
    shift_steps = dict.fromkeys(round(j * steps / CURVE_POINTS) for j in js)
    shift_schedules = [_shift_schedule(k, grid.dx, n) for k in shift_steps if k >= n + 1]
    assert shift_schedules[-1] == sched_shift

    p_core, _ = halfline_pair(grid)
    e = core_zone_state(p_core, make_gaussian(grid, spec.center, spec.sigma))
    u_spectral = Propagator(momentum_operator(grid))
    u_shift = ShiftPropagator(grid)
    # one transform of e serves the empty-schedule check, a real chain of
    # one segment, and every spectral row
    _require_core_state(p_core, e)
    coeffs = u_spectral.transform(e)
    free, _ = _chain(u_spectral, p_core, coeffs, MeasurementSchedule(t, ()))
    s0_measured = abs(inner_product(e, free)) ** 2
    del free
    curve_spectral = [_survival_report(u_spectral, p_core, e, coeffs, s)
                      for s in curve_schedules]
    rep_spectral = curve_spectral[-1]
    curve_shift = [survival_report(u_shift, p_core, e, s) for s in shift_schedules]
    rep_shift = curve_shift[-1]

    def autocorr_oracle(tau: float) -> float:
        return math.exp(-(tau ** 2) / (4.0 * spec.sigma ** 2))

    flags = (
        make_flag("spectral_invariance", abs(rep_spectral.delta), "<=",
                  spec.tolerance_invariance),
        make_flag("shift_invariance", abs(rep_shift.delta), "<=", SHIFT_INVARIANCE_TOL),
        make_flag("free_survival_oracle",
                  abs(rep_spectral.s_free - autocorr_oracle(t)), "<=", 1e-6),
        make_flag("shift_survival_oracle",
                  abs(rep_shift.s_free - autocorr_oracle(t_eff)), "<=", 1e-6),
        make_flag("empty_schedule_trivial", abs(s0_measured - rep_spectral.s_free),
                  "==", 0.0),
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
        "survival_spectral": _survival_curve(curve_spectral, n),
        "survival_shift": _survival_curve(curve_shift, n),
    }
    prov = _provenance(
        spec,
        schedule_spectral=list(sched_spectral.times),
        schedule_shift=list(sched_shift.times),
    )
    return VerdictBundle("hm-invariance", flags, (), metrics, tables, prov)


def _survival_curve(reports, n: int) -> CurveTable:
    """Free and measured survival at t = 0 and at the end of each report's run."""
    rows = [(0.0, 1.0, 1.0, n)]
    rows.extend((rep.t_final, rep.s_free, rep.s_measured, n) for rep in reports)
    return CurveTable(("t", "s_free", "s_measured", "N"), tuple(rows))


# ----------------------------------------------------------------------
# rabi-control: the positive control where measurement freezes decay
# ----------------------------------------------------------------------

def scenario_rabi_control(spec: ScenarioSpec | None = None) -> VerdictBundle:
    """two-level control where measurements freeze decay (~1/N)"""
    spec = spec if spec is not None else ScenarioSpec(name="rabi-control")
    if spec.omega <= 0.0:
        raise DomainError("omega must be positive")
    t = spec.time if spec.time is not None else math.pi / (2.0 * spec.omega)
    if t <= 0.0:
        raise DomainError("final time must be positive")
    # the ladder only judges 1/N freezing where the exact deficits already
    # follow it; outside that window no chain could pass zeno_slope
    closed = deficit_ladder(t, spec.omega, ZENO_LADDER)
    closed_slope = deficit_slope(tuple((n, 1.0 - d) for n, d in zip(ZENO_LADDER, closed)))
    if abs(closed_slope - (-1.0)) > ZENO_SLOPE_TOL:
        raise DomainError(
            f"omega*t = {spec.omega * t:.6g} is outside the Zeno window: the closed-form "
            f"deficit slope over N = {ZENO_LADDER[0]}..{ZENO_LADDER[-1]} is "
            f"{closed_slope:.3f}, not within {ZENO_SLOPE_TOL:g} of -1"
        )

    space = DenseSpace(2)
    h = dense_hermitian(np.array([[0.0, spec.omega], [spec.omega, 0.0]]))
    u = Propagator(h)
    e = WaveFunction(space, np.array([1.0, 0.0]))
    p_core = SubspaceProjector(space, 0, 1)

    reports = [survival_report(u, p_core, e, MeasurementSchedule.equally_spaced(t, n))
               for n in (1,) + ZENO_LADDER]
    s_free = reports[0].s_free
    s_one = reports[0].s_measured
    oracle_free = math.cos(spec.omega * t) ** 2
    oracle_one = math.cos(spec.omega * t / 2.0) ** 4

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
    rows = [(t, s_free, s, n) for n, s in scaling]
    tables = {"survival_zeno": CurveTable(("t", "s_free", "s_measured", "N"), tuple(rows))}
    metrics = {
        "t": t,
        "s_free": s_free,
        "s_single_measurement": s_one,
        "zeno_slope": slope,
        "deficit_n_max": deficits[-1],
        "chain_vs_closed_form": chain_error,
    }
    return VerdictBundle("rabi-control", flags, (), metrics, tables,
                         _provenance(spec, zeno_ladder=list(ZENO_LADDER)))


# ----------------------------------------------------------------------
# series-validity: who is allowed to use the power series
# ----------------------------------------------------------------------

def scenario_series_validity(spec: ScenarioSpec | None = None) -> VerdictBundle:
    """power-series propagation: Gaussian vs bump, two resolutions"""
    spec = spec if spec is not None else ScenarioSpec(name="series-validity")
    t = spec.time if spec.time is not None else 1.0
    if spec.grid_points < 64:
        raise DomainError("series scenario needs at least 64 grid points")
    fine = Grid(spec.x_min, spec.x_max, spec.grid_points)
    coarse = Grid(spec.x_min, spec.x_max, spec.grid_points // 4)

    # Gaussian branch: entire-type vector, series converges quickly.  Runs
    # at full point count but on a 10x wider domain: a depth-n truncated
    # exponential amplifies the float roundoff mass at the spectral cutoff
    # by up to e^(t*k_max), so demonstrating the sub-1e-10 floor needs
    # t*k_max ~ 16, not the 160 of the default domain.
    wide = Grid(10.0 * spec.x_min, 10.0 * spec.x_max, spec.grid_points)
    _require_inside(wide, -8.0 * spec.sigma - abs(t), 8.0 * spec.sigma + abs(t),
                    f"gaussian at 0 (sigma {spec.sigma}) drifting +-{abs(t)}")
    h_wide = momentum_operator(wide)
    g = make_gaussian(wide, 0.0, spec.sigma)
    g_ref = Propagator(h_wide).evolve(g, t)
    g_curve = series_vs_spectral_curve(h_wide, g, t, range(1, 41), g_ref)
    # growth probed only to n=16: past that the renormalized iterates of a
    # sampled Gaussian are roundoff riding the cutoff, not the state
    g_report = analyticity_report(h_wide, g, n_max=16)
    first_converged = next(
        (n for n, err in zip(g_curve.n_terms, g_curve.errors) if err < 1e-10), -1
    )

    # bump branch: saturates at the grid ceiling, worse on finer grids
    bump_curves = []
    bump_reports = {}
    bump_peaks = {}
    for grid in (fine, coarse):
        h = momentum_operator(grid)
        b = make_bump(grid, -2.0, 2.0)
        b_ref = Propagator(h).evolve(b, t)
        curve = series_vs_spectral_curve(h, b, t, range(1, 61), b_ref)
        bump_curves.append((grid, curve))
        bump_peaks[grid.n_points] = max(e for e in curve.errors if math.isfinite(e))
        bump_reports[grid.n_points] = analyticity_report(h, b, n_max=40)
    tracks_cutoff = compare_resolutions(bump_reports[fine.n_points],
                                        bump_reports[coarse.n_points])

    # eigenvector branch: series must reduce to the scalar exponential.
    # Runs on a small grid (k_max ~ 10) for the same cutoff-noise reason.
    small = Grid(spec.x_min, spec.x_max, max(spec.grid_points // 16, 16))
    h_small = momentum_operator(small)
    mode = 5
    pw = make_plane_wave(small, mode)
    k_mode = float(small.wavenumbers()[mode])
    partial = evolve_series(h_small, pw, t, 20).state
    scalar = sum((-1j * k_mode * t) ** j / math.factorial(j) for j in range(20))
    eigen_error = (partial - scalar * pw).norm()

    flags = (
        make_flag("gaussian_series_n40", g_curve.errors[-1], "<=", 1e-10),
        make_flag("gaussian_entire_like",
                  1.0 if g_report.classification == "entire-like" else 0.0, ">=", 1.0),
        make_flag("gaussian_rho_climbing", g_report.tail_growth, ">=", 1.1),
        make_flag("bump_peak_grows_with_resolution",
                  bump_peaks[fine.n_points] - bump_peaks[coarse.n_points], ">", 0.0),
        make_flag("bump_tracks_cutoff", 1.0 if tracks_cutoff else 0.0, ">=", 1.0),
        make_flag("eigenvector_sanity", eigen_error, "<=", 1e-12),
    )
    metrics = {
        "t": t,
        "gaussian_error_n40": g_curve.errors[-1],
        "gaussian_first_n_below_1e-10": first_converged,
        "gaussian_classification": g_report.classification,
        "gaussian_tail_growth": g_report.tail_growth,
        "bump_classification_fine": bump_reports[fine.n_points].classification,
        "bump_classification_coarse": bump_reports[coarse.n_points].classification,
        "bump_plateau_fraction_fine": bump_reports[fine.n_points].plateau_fraction,
        "bump_plateau_fraction_coarse": bump_reports[coarse.n_points].plateau_fraction,
        "bump_peak_fine": bump_peaks[fine.n_points],
        "bump_peak_coarse": bump_peaks[coarse.n_points],
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
        "series_bump": series_table(bump_curves),
        "hn_gaussian": hn_table(g_report),
        "hn_bump_fine": hn_table(bump_reports[fine.n_points]),
        "hn_bump_coarse": hn_table(bump_reports[coarse.n_points]),
    }
    prov = _provenance(spec, resolutions=[fine.n_points, coarse.n_points])
    return VerdictBundle("series-validity", flags, (), metrics, tables, prov)


SCENARIOS = {
    "counterexample": scenario_counterexample,
    "hm-invariance": scenario_hm_invariance,
    "rabi-control": scenario_rabi_control,
    "series-validity": scenario_series_validity,
}
#: the ScenarioSpec fields each scenario reads; the CLI rejects the others
READS = {
    "counterexample": frozenset({"grid_points", "x_min", "x_max", "sigma", "seed",
                                 "tolerance_invariance", "tolerance_falsify"}),
    "hm-invariance": frozenset({"grid_points", "x_min", "x_max", "sigma", "center",
                                "time", "n_measurements", "tolerance_invariance"}),
    "rabi-control": frozenset({"omega", "time"}),
    "series-validity": frozenset({"grid_points", "x_min", "x_max", "sigma", "time"}),
}


def run_scenario(name: str, spec: ScenarioSpec | None = None) -> VerdictBundle:
    try:
        fn = SCENARIOS[name]
    except KeyError:
        raise DomainError(
            f"unknown scenario {name!r}; available: {', '.join(sorted(SCENARIOS))}"
        ) from None
    return fn(spec)
